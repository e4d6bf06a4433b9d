//! Maintenance policies and scheduler configuration.

/// Foreground operations per scheduler tick.
pub const TICK_EVERY_OPS: u64 = 8;
/// Size of one background I/O unit in bytes — the granularity budgets are
/// expressed in (the paper's 64 KB write-request size).
pub const IO_UNIT_BYTES: u64 = 64 * 1024;
/// Ticks between checkpoint-flush runs.
pub const CHECKPOINT_EVERY_TICKS: u64 = 2;
/// Ticks between ghost-cleanup runs.  Batched, not eager: eager cleanup
/// feeds the engine's lowest-first reuse and *accelerates* interleaving (see
/// EXPERIMENTS.md).
pub const GHOST_CLEANUP_EVERY_TICKS: u64 = 8;
/// Background I/O units per tick granted while a
/// [`MaintenancePolicy::Threshold`] policy is engaged, and the slice size
/// the idle-detect and substrate-aware policies spend per idle-gap slice.
pub const BURST_IO_PER_TICK: u64 = 512;

/// How the scheduler trades background maintenance against foreground
/// latency.
///
/// The policy is consulted once per tick and yields the background I/O budget
/// the task queue may spend during that tick (see
/// [`crate::MaintenanceScheduler`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MaintenancePolicy {
    /// Never schedule background work.  Ghosts and pending-free space pile up
    /// until foreground allocation pressure forces the substrate's own
    /// emergency paths, and fragmentation grows unchecked with storage age —
    /// the paper's deferred-maintenance baseline.  Foreground latency is
    /// minimal.
    Idle,
    /// Spend a fixed number of I/O units ([`IO_UNIT_BYTES`] bytes each) of
    /// background I/O per tick, shared by the task queue in order.  Larger
    /// budgets keep fragmentation lower at the cost of higher foreground
    /// latency; `0` behaves like [`MaintenancePolicy::Idle`].
    FixedBudget {
        /// Background I/O units granted per tick.
        io_per_tick: u64,
    },
    /// Schedule background work only while the store's mean fragments per
    /// object exceeds this threshold, then burst ([`BURST_IO_PER_TICK`]
    /// units per tick) until the store drops back under it.  Foreground
    /// latency is paid only when fragmentation actually warrants repair.
    Threshold {
        /// Fragments-per-object level above which maintenance engages.
        frag_per_object: f64,
    },
    /// Schedule background work only inside observed idle gaps: whenever the
    /// request scheduler sees the disk idle for at least `min_idle_ms` of
    /// simulated time (a think-time gap between client requests), it runs
    /// maintenance slices until the next request arrives.  A foreground
    /// operation pays only for the background I/O it actually overlaps, so
    /// under a workload with any slack this policy approaches the
    /// fragmentation of [`MaintenancePolicy::FixedBudget`] at a fraction of
    /// the tail latency.
    ///
    /// Only the queueing-aware request scheduler (`lor_core`'s
    /// `StoreServer`) can observe idleness, so this policy implies its drive
    /// ([`MaintenanceConfig::server_driven`]).
    IdleDetect {
        /// Minimum idle gap (simulated milliseconds) before maintenance may
        /// start.
        min_idle_ms: f64,
    },
    /// Substrate-aware idle-gap filling: like
    /// [`MaintenancePolicy::IdleDetect`], maintenance runs only inside
    /// observed idle gaps of at least `min_idle_ms` — but ghost release on
    /// substrates with an eager-cleanup pathology (the database's
    /// lowest-first reuse; see [`crate::MaintSubstrate`]) is *deferred* until
    /// the backlog has aged `defer_ghost_ms` of **simulated time**, then
    /// drained in bulk.  Compaction and checkpointing still run in every
    /// gap on both substrates.
    ///
    /// This kills the recorded idle-detect pathology: gap-filling kept the
    /// filesystem perfectly contiguous but reclaimed the database's ghost
    /// pages almost as fast as they appeared, feeding low-offset holes
    /// straight into lowest-first reuse.  Holding the backlog keeps released
    /// space arriving in rare bulk drops instead.
    ///
    /// The deferral used to be counted in scheduler ticks, whose rate scales
    /// with the request rate under the gap-filling drive — the same
    /// configuration held the backlog for wildly different simulated spans
    /// at different loads.  A threshold in simulated time is scale-invariant:
    /// the backlog ages with the workload's clock, not with how often the
    /// scheduler happens to tick.
    SubstrateAware {
        /// Minimum idle gap (simulated milliseconds) before maintenance may
        /// start.  Must be positive and finite.
        min_idle_ms: f64,
        /// Simulated milliseconds a non-empty ghost backlog must age before
        /// it may be released on deferring substrates.  Must be positive
        /// and finite.
        defer_ghost_ms: f64,
    },
}

impl MaintenancePolicy {
    /// Short, stable name used in reports and figure legends.
    pub fn name(&self) -> &'static str {
        match self {
            MaintenancePolicy::Idle => "idle",
            MaintenancePolicy::FixedBudget { .. } => "fixed-budget",
            MaintenancePolicy::Threshold { .. } => "threshold",
            MaintenancePolicy::IdleDetect { .. } => "idle-detect",
            MaintenancePolicy::SubstrateAware { .. } => "substrate-aware",
        }
    }

    /// A descriptive label including the policy's parameter, for legends
    /// that sweep several instances of the same policy.
    pub fn label(&self) -> String {
        match self {
            MaintenancePolicy::Idle => "idle".to_string(),
            MaintenancePolicy::FixedBudget { io_per_tick } => {
                format!("fixed-budget({io_per_tick} io/tick)")
            }
            MaintenancePolicy::Threshold { frag_per_object } => {
                format!("threshold({frag_per_object:.2} frags/obj)")
            }
            MaintenancePolicy::IdleDetect { min_idle_ms } => {
                format!("idle-detect({min_idle_ms:.1} ms)")
            }
            MaintenancePolicy::SubstrateAware {
                min_idle_ms,
                defer_ghost_ms,
            } => {
                format!("substrate-aware({min_idle_ms:.1} ms, defer {defer_ghost_ms:.0} ms)")
            }
        }
    }
}

/// Configuration of the background maintenance scheduler: which policy
/// budgets the queue, and who drives it.  The cadences and sizes are the
/// constants of this module.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MaintenanceConfig {
    /// The latency-vs-throughput policy in effect.
    pub policy: MaintenancePolicy,
    /// Set by [`MaintenanceConfig::with_server_drive`]; read through
    /// [`MaintenanceConfig::server_driven`], which also answers for the
    /// policies that imply the server drive.
    server_driven: bool,
}

impl MaintenanceConfig {
    /// A store-driven configuration with the given policy.
    pub fn new(policy: MaintenancePolicy) -> Self {
        MaintenanceConfig {
            policy,
            server_driven: false,
        }
    }

    /// The deferred-maintenance baseline.
    pub fn idle() -> Self {
        MaintenanceConfig::new(MaintenancePolicy::Idle)
    }

    /// A fixed per-tick background budget of `io_per_tick` I/O units.
    pub fn fixed_budget(io_per_tick: u64) -> Self {
        MaintenanceConfig::new(MaintenancePolicy::FixedBudget { io_per_tick })
    }

    /// Maintenance engages only above `frag_per_object` mean fragments.
    pub fn threshold(frag_per_object: f64) -> Self {
        MaintenanceConfig::new(MaintenancePolicy::Threshold { frag_per_object })
    }

    /// Maintenance runs only in observed idle gaps of at least `min_idle_ms`
    /// simulated milliseconds.
    pub fn idle_detect(min_idle_ms: f64) -> Self {
        MaintenanceConfig::new(MaintenancePolicy::IdleDetect { min_idle_ms })
    }

    /// Substrate-aware idle-gap filling with ghost release deferred by
    /// `defer_ghost_ms` of simulated time.
    pub fn substrate_aware(min_idle_ms: f64, defer_ghost_ms: f64) -> Self {
        MaintenanceConfig::new(MaintenancePolicy::SubstrateAware {
            min_idle_ms,
            defer_ghost_ms,
        })
    }

    /// Hands the scheduler drive to the queueing-aware request scheduler
    /// (see [`MaintenanceConfig::server_driven`]).
    pub fn with_server_drive(mut self) -> Self {
        self.server_driven = true;
        self
    }

    /// Who drives the scheduler.  `false` is the store-attached serial
    /// drive: the store ticks the scheduler after every mutating operation
    /// and charges all background time to its own foreground clock ("all
    /// background time stalls the foreground").  `true` hands the drive to
    /// the queueing-aware request scheduler (`lor_core`'s `StoreServer`):
    /// background work becomes low-priority disk time that only delays the
    /// foreground operations it actually overlaps.  The gap-filling policies
    /// ([`MaintenancePolicy::IdleDetect`], [`MaintenancePolicy::SubstrateAware`])
    /// are server-driven whatever was asked, since only the request
    /// scheduler can observe an idle gap.
    pub fn server_driven(&self) -> bool {
        self.server_driven
            || matches!(
                self.policy,
                MaintenancePolicy::IdleDetect { .. } | MaintenancePolicy::SubstrateAware { .. }
            )
    }

    /// The background byte budget one tick grants under this configuration's
    /// policy — the single definition both drives (the serial store-attached
    /// scheduler and the request scheduler) use, so the two cannot drift.
    ///
    /// `fragments_per_object` is a closure because measuring fragmentation
    /// may be an O(objects) walk; only [`MaintenancePolicy::Threshold`]
    /// invokes it.  [`MaintenancePolicy::Idle`],
    /// [`MaintenancePolicy::IdleDetect`] and
    /// [`MaintenancePolicy::SubstrateAware`] grant no per-tick budget (the
    /// latter two spend their budgets in observed idle gaps instead).
    pub fn tick_budget_bytes(&self, fragments_per_object: impl FnOnce() -> f64) -> u64 {
        match self.policy {
            MaintenancePolicy::Idle
            | MaintenancePolicy::IdleDetect { .. }
            | MaintenancePolicy::SubstrateAware { .. } => 0,
            MaintenancePolicy::FixedBudget { io_per_tick } => {
                io_per_tick.saturating_mul(IO_UNIT_BYTES)
            }
            MaintenancePolicy::Threshold { frag_per_object } => {
                if fragments_per_object() > frag_per_object {
                    BURST_IO_PER_TICK * IO_UNIT_BYTES
                } else {
                    0
                }
            }
        }
    }

    /// Validates internal consistency.
    pub fn validate(&self) -> Result<(), &'static str> {
        if let MaintenancePolicy::Threshold { frag_per_object } = self.policy {
            if !frag_per_object.is_finite() || frag_per_object < 1.0 {
                return Err("fragmentation threshold must be finite and at least 1");
            }
        }
        if let MaintenancePolicy::IdleDetect { min_idle_ms } = self.policy {
            // A zero gap would declare the spindle "idle" at every instant
            // between two back-to-back requests and fill it with maintenance
            // — the policy would degenerate to an unbounded eager drive.
            if !min_idle_ms.is_finite() || min_idle_ms <= 0.0 {
                return Err("idle-detect gap must be finite and positive");
            }
        }
        if let MaintenancePolicy::SubstrateAware {
            min_idle_ms,
            defer_ghost_ms,
        } = self.policy
        {
            if !min_idle_ms.is_finite() || min_idle_ms <= 0.0 {
                return Err("substrate-aware idle gap must be finite and positive");
            }
            // A zero deferral would release ghosts the instant they appear —
            // exactly the eager-cleanup pathology the policy exists to break.
            if !defer_ghost_ms.is_finite() || defer_ghost_ms <= 0.0 {
                return Err("substrate-aware ghost deferral must be finite and positive");
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_the_policy() {
        assert_eq!(MaintenanceConfig::idle().policy, MaintenancePolicy::Idle);
        assert_eq!(
            MaintenanceConfig::fixed_budget(8).policy,
            MaintenancePolicy::FixedBudget { io_per_tick: 8 }
        );
        assert!(matches!(
            MaintenanceConfig::threshold(1.5).policy,
            MaintenancePolicy::Threshold { .. }
        ));
    }

    #[test]
    fn names_and_labels_are_stable() {
        assert_eq!(MaintenancePolicy::Idle.name(), "idle");
        assert_eq!(
            MaintenancePolicy::FixedBudget { io_per_tick: 4 }.label(),
            "fixed-budget(4 io/tick)"
        );
        assert!(MaintenancePolicy::Threshold {
            frag_per_object: 1.25
        }
        .label()
        .contains("1.25"));
        let aware = MaintenancePolicy::SubstrateAware {
            min_idle_ms: 5.0,
            defer_ghost_ms: 1200.0,
        };
        assert_eq!(aware.name(), "substrate-aware");
        assert!(aware.label().contains("defer 1200 ms"));
        assert!(MaintenanceConfig::substrate_aware(5.0, 1200.0).server_driven());
        assert!(!MaintenanceConfig::threshold(1.5).server_driven());
    }

    #[test]
    fn validation_rejects_nonsense() {
        assert!(MaintenanceConfig::threshold(0.5).validate().is_err());
        assert!(MaintenanceConfig::threshold(f64::NAN).validate().is_err());
        assert!(MaintenanceConfig::threshold(1.5).validate().is_ok());
        assert!(MaintenanceConfig::fixed_budget(0).validate().is_ok());

        assert!(MaintenanceConfig::idle_detect(f64::NAN).validate().is_err());
        assert!(MaintenanceConfig::idle_detect(-1.0).validate().is_err());
        // A zero gap would fill every inter-request instant with maintenance.
        assert!(MaintenanceConfig::idle_detect(0.0).validate().is_err());
        assert!(MaintenanceConfig::idle_detect(5.0).validate().is_ok());
    }

    #[test]
    fn validation_rejects_bad_substrate_aware_parameters() {
        assert!(MaintenanceConfig::substrate_aware(0.0, 800.0)
            .validate()
            .is_err());
        assert!(MaintenanceConfig::substrate_aware(-2.0, 800.0)
            .validate()
            .is_err());
        assert!(MaintenanceConfig::substrate_aware(f64::NAN, 800.0)
            .validate()
            .is_err());
        // A zero, negative or non-finite deferral is the eager-cleanup
        // pathology by another name.
        assert!(MaintenanceConfig::substrate_aware(5.0, 0.0)
            .validate()
            .is_err());
        assert!(MaintenanceConfig::substrate_aware(5.0, -10.0)
            .validate()
            .is_err());
        assert!(MaintenanceConfig::substrate_aware(5.0, f64::INFINITY)
            .validate()
            .is_err());
        assert!(MaintenanceConfig::substrate_aware(5.0, f64::NAN)
            .validate()
            .is_err());
        assert!(MaintenanceConfig::substrate_aware(5.0, 800.0)
            .validate()
            .is_ok());
    }

    #[test]
    fn gap_filling_policies_grant_no_per_tick_budget() {
        for config in [
            MaintenanceConfig::idle_detect(5.0),
            MaintenanceConfig::substrate_aware(5.0, 800.0),
            MaintenanceConfig::idle(),
        ] {
            assert_eq!(
                config.tick_budget_bytes(|| panic!("must not be measured")),
                0
            );
        }
    }

    #[test]
    fn idle_detect_is_server_driven_and_labelled() {
        let config = MaintenanceConfig::idle_detect(2.5);
        assert!(config.server_driven());
        assert_eq!(config.policy.name(), "idle-detect");
        assert!(config.policy.label().contains("2.5"));
        assert!(!MaintenanceConfig::idle().server_driven());
        assert!(MaintenanceConfig::fixed_budget(4)
            .with_server_drive()
            .server_driven());
        // The drive follows the policy, however the config was put together.
        let mut config = MaintenanceConfig::fixed_budget(4);
        config.policy = MaintenancePolicy::IdleDetect { min_idle_ms: 2.5 };
        assert!(config.server_driven());
    }
}
