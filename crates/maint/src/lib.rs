//! # lor-maint — clock-driven background maintenance
//!
//! The paper's central finding is that fragmentation is a *function of time*:
//! storage age degrades layout quality unless maintenance — ghost cleanup,
//! checkpointing, defragmentation — keeps up with the foreground workload,
//! and deferring that maintenance lets the free-space pools collapse
//! (Sections 5.3–5.4).  The substrates model the *mechanisms* (the engine's
//! ghost cleanup, the volume's checkpoint, the incremental defragmenters);
//! this crate models the *scheduling* of those mechanisms as a background
//! subsystem competing with the foreground for the one spindle.
//!
//! The pieces:
//!
//! * [`MaintTarget`] — what a substrate must expose to be maintained:
//!   reclaimable (ghost / pending-free) bytes, fragments per object, its
//!   reuse behaviour ([`MaintTarget::substrate`]), and the three
//!   maintenance actions, each reporting the background I/O it performed as
//!   a [`MaintIo`] (bytes moved plus mechanical time, costed by the target
//!   with its own disk model).  Where a defragmenter may relocate data (the
//!   placement constraint) is the substrate's own configuration; no
//!   scheduler asks.
//! * [`MaintenanceScheduler`] — the discrete-event driver.  It owns its own
//!   simulated clock ([`lor_disksim::SimClock`]), advances it with every
//!   foreground operation, and on each *tick* (every [`TICK_EVERY_OPS`]
//!   foreground operations) grants the task queue — checkpoint flush → ghost
//!   cleanup → incremental defragmentation ([`TaskKind`]), the first two
//!   every [`CHECKPOINT_EVERY_TICKS`] / [`GHOST_CLEANUP_EVERY_TICKS`] ticks
//!   — a background I/O budget chosen by the [`MaintenancePolicy`]:
//!
//!   * [`MaintenancePolicy::Idle`] — never grant I/O; maintenance debt
//!     accrues until foreground allocation pressure forces it inside the
//!     substrate (the paper's deferred-cleanup collapse).
//!   * [`MaintenancePolicy::FixedBudget`] — a fixed number of I/O units per
//!     tick, shared by the queue in order.
//!   * [`MaintenancePolicy::Threshold`] — no I/O while fragments/object is
//!     at or below the threshold; bursts once it is exceeded.
//!   * [`MaintenancePolicy::IdleDetect`] /
//!     [`MaintenancePolicy::SubstrateAware`] — gap-filling policies for the
//!     queueing-aware request-scheduler drive; the substrate-aware variant
//!     additionally defers ghost release on eager-reuse substrates
//!     ([`MaintSubstrate::EagerReuse`]) until the backlog has aged, killing
//!     the eager-cleanup pathology.
//!
//!   Because the simulated disk is a single spindle, every byte of granted
//!   background I/O is returned to the caller as *foreground interference*
//!   and charged to the store's clock — which is exactly the
//!   latency-vs-throughput trade-off the maintenance scenarios in `lor-bench`
//!   measure.
//!
//! ## Example
//!
//! ```
//! use lor_disksim::SimDuration;
//! use lor_maint::{
//!     MaintIo, MaintTarget, MaintenanceConfig, MaintenancePolicy, MaintenanceScheduler,
//! };
//!
//! // A toy target: cleanup instantly reclaims, defrag halves fragmentation.
//! struct Toy {
//!     ghost_bytes: u64,
//!     frags: f64,
//! }
//! impl MaintTarget for Toy {
//!     fn reclaimable_bytes(&self) -> u64 {
//!         self.ghost_bytes
//!     }
//!     fn fragments_per_object(&self) -> f64 {
//!         self.frags
//!     }
//!     fn ghost_cleanup(&mut self, _budget_bytes: u64) -> MaintIo {
//!         self.ghost_bytes = 0;
//!         MaintIo::new(4096, SimDuration::from_millis(1))
//!     }
//!     fn checkpoint(&mut self) -> MaintIo {
//!         MaintIo::new(4096, SimDuration::from_millis(1))
//!     }
//!     fn defragment_step(&mut self, _budget_bytes: u64) -> MaintIo {
//!         self.frags = (self.frags / 2.0).max(1.0);
//!         MaintIo::new(1 << 20, SimDuration::from_millis(20))
//!     }
//! }
//!
//! let mut target = Toy { ghost_bytes: 1 << 20, frags: 4.0 };
//! let mut scheduler =
//!     MaintenanceScheduler::new(MaintenanceConfig::new(MaintenancePolicy::FixedBudget {
//!         io_per_tick: 32,
//!     }));
//!
//! // Foreground ops accumulate; each tick runs the queue and reports the
//! // background time that stalls the foreground.
//! let mut interference = SimDuration::ZERO;
//! for _ in 0..64 {
//!     interference += scheduler.on_foreground_op(SimDuration::from_millis(5), &mut target);
//! }
//! assert!(interference > SimDuration::ZERO);
//! assert!(target.fragments_per_object() < 4.0);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod config;
mod estimator;
mod scheduler;
mod task;

pub use config::{
    MaintenanceConfig, MaintenancePolicy, BURST_IO_PER_TICK, CHECKPOINT_EVERY_TICKS,
    GHOST_CLEANUP_EVERY_TICKS, IO_UNIT_BYTES, TICK_EVERY_OPS,
};
pub use estimator::GhostBacklogClock;
pub use scheduler::{MaintenanceScheduler, MaintenanceStats, TaskStats};
pub use task::{MaintIo, MaintSubstrate, MaintTarget, TaskKind};
