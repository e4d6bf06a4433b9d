//! # lor-core — the large-object repository framework and experiment harness
//!
//! This crate is the primary contribution of the CIDR 2007 *Fragmentation in
//! Large Object Repositories* reproduction.  It ties the substrates together
//! into the abstraction the paper studies and the methodology it proposes:
//!
//! * [`ObjectStore`] — the get/put/safe-write/delete interface web-style
//!   applications use, implemented once by [`Store`] over a narrow
//!   [`Substrate`]: [`FsObjectStore`] (one file per object on the NTFS-like
//!   volume), [`DbObjectStore`] (one out-of-row BLOB per object in the
//!   SQL-Server-like engine) and [`LogObjectStore`] (versioned records in an
//!   append-only segment log) are the same store — same clock, same
//!   charging against the simulated disk plus a fixed host cost model (the
//!   one host of the paper's Table 1, as constants), same maintenance drive
//!   — over three engines.  One constructor builds them all,
//!   [`Store::build`] (engine, disk, write request size, maintenance);
//!   `FsObjectStore::new(capacity)` and its two siblings call it with the
//!   paper's defaults ([`PAPER_WRITE_REQUEST_SIZE`], no scheduler), and
//!   [`ExperimentConfig::build_store`] with the experiment's knobs.
//! * [`workload`] — the paper's synthetic workloads (constant and uniform
//!   object sizes, whole-object safe writes, randomized reads) and
//!   **storage age** accounting ([`StorageAgeTracker`]).
//! * [`fragmentation`] — the marker-based fragmentation measurement tool.
//! * [`maintenance`](crate::MaintenanceConfig) — the `lor-maint` background
//!   scheduler bound to the store: ghost cleanup, checkpointing and
//!   incremental defragmentation run as budgeted background tasks whose I/O
//!   time is charged to the foreground clock (enable via
//!   [`ExperimentConfig::with_maintenance`]).
//! * [`server`] — the request/completion scheduler ([`StoreServer`]): one
//!   event loop ([`StoreServer::run`]) queues the [`StoreRequest`]s of a
//!   closed-loop client pool or an open-loop schedule ([`Arrivals`])
//!   against one simulated spindle, producing
//!   [`Completion`] events with queue delay and latency, latency percentiles
//!   ([`LatencySummary`]) and queue depth; server-driven maintenance runs as
//!   low-priority disk time that only delays the foreground requests it
//!   actually overlaps (including the idle-gap `IdleDetect` policy).
//! * [`experiment`] — the bulk-load / age / measure loop behind every figure
//!   ([`run_aging_experiment`]), built on the request scheduler (one client
//!   and zero think time is exactly the old serial harness), plus the
//!   simulated testbed description standing in for Table 1.  The aging
//!   protocol itself is two functions, [`bulk_load`] (one client) and
//!   [`overwrite_round`] (`concurrency` clients with think time), which
//!   the harness, `lor-bench`'s latency-anatomy sweep and its `trace`
//!   binary all call.
//! * [`report`] — serialisable figure/table types with plain-text rendering.
//! * [`anatomy`] — latency attribution over a traced run: each recorded
//!   completion's latency decomposed into named components (maintenance
//!   interference, queueing, fragmentation-induced extra positioning, disk
//!   transfer, host time), aggregated over the top-percentile tail — the
//!   "anatomy of a p99" measurement.  Tracing itself lives in [`lor_obs`]
//!   and threads through every layer via [`StoreServer::set_obs`].
//!
//! ## Example: a miniature Figure 3
//!
//! ```
//! use lor_core::{run_aging_experiment, ExperimentConfig, SizeDistribution, StoreKind};
//!
//! // A CI-sized version of the paper's setup: 64 MB volume, 50% full,
//! // 256 KB objects, 64 KB write requests.
//! let mut config = ExperimentConfig::paper_default(SizeDistribution::Constant(256 << 10));
//! config.volume_bytes = 64 << 20;
//! config.read_sample = Some(8);
//!
//! for kind in [StoreKind::Database, StoreKind::Filesystem] {
//!     let run = run_aging_experiment(kind, &config, &[0, 2], false).unwrap();
//!     assert_eq!(run.points.len(), 2);
//! }
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod db_store;
mod error;
mod fs_store;
mod log_store;
mod maintenance;
mod store;
mod substrate;

pub mod anatomy;
pub mod experiment;
pub mod fragmentation;
pub mod hist;
pub mod report;
pub mod server;
pub mod workload;

pub use anatomy::{AnatomyReport, LatencyAnatomy};
pub use db_store::{DbObjectStore, DbStoreConfig};
pub use error::StoreError;
pub use experiment::{
    age_store, bulk_load, calibrate_mixed_load, measure_mixed_load_calibrated, overwrite_round,
    run_aging_experiment, AgePoint, AgingResult, ExperimentConfig, FleetParallelism,
    MixedCalibration, MixedLoadPoint, TestbedConfig,
};
pub use fragmentation::{analyze_store, FragmentationReport};
pub use fs_store::{FsObjectStore, FsStoreConfig, FsSubstrate};
pub use hist::LatencyHistogram;
pub use log_store::{LogObjectStore, LogStoreConfig, LogSubstrate};
pub use report::{Figure, Series, Table};
pub use server::{
    Arrivals, ClientId, Completion, LatencySummary, MixedOpenLoop, OpenLoop, QueueStats,
    StoreRequest, StoreServer,
};
pub use store::{ObjectStore, OpReceipt, Store, StoreKind, PAPER_WRITE_REQUEST_SIZE};
pub use substrate::{Moved, ReadPlan, Substrate, WriteOp, Written, WrittenFragments};
pub use workload::{
    ObjectKey, ObjectKeyBuf, SizeDistribution, StorageAgeTracker, WorkloadGenerator, WorkloadOp,
    WorkloadSpec, ZipfDistribution,
};

// The allocation- and placement-policy knobs threaded from
// `ExperimentConfig` into the substrates, re-exported so experiment code
// needs only `lor_core`.
pub use lor_alloc::{AllocationPolicy, FitPolicy, PlacementConsumer, PlacementPolicy};

// The maintenance knob threaded from `ExperimentConfig` into the substrates,
// re-exported for the same reason.
pub use lor_maint::{MaintenanceConfig, MaintenancePolicy, MaintenanceStats};

// Re-export the substrate crates so downstream users (examples, benches) can
// reach them through one dependency.
pub use lor_alloc;
pub use lor_blobkit;
pub use lor_disksim;
pub use lor_fskit;
pub use lor_logstore;
pub use lor_maint;
pub use lor_obs;
