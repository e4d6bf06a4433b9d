//! The experiment harness: bulk load, age with safe writes, measure.
//!
//! Every figure in the paper's evaluation is a run of the same loop:
//!
//! 1. **Bulk load** a clean store to the target occupancy and note the write
//!    throughput (the left-most points of Figures 1 and 4).
//! 2. **Age** the store by safe-writing every object once per round; after
//!    `n` rounds the storage age is `n` (Section 4.4).
//! 3. At chosen storage ages, **measure**: fragments per object (Figures 2,
//!    3, 5 and 6), write throughput over the preceding interval (Figure 4),
//!    and read throughput over a random full-object read pass (Figure 1).
//!
//! [`run_aging_experiment`] is that loop; the figure-specific sweeps in
//! `lor-bench` are thin wrappers that vary object size, size distribution,
//! volume size and occupancy.
//!
//! Since the request/completion redesign the loop is implemented on the
//! [`StoreServer`] scheduler: bulk load and read passes are single-client
//! zero-think-time schedules (the degenerate case that reproduces the old
//! serial harness exactly), and the aging rounds run
//! [`ExperimentConfig::concurrency`] closed-loop clients with
//! [`ExperimentConfig::think_time_ms`] of per-client think time.  Each
//! checkpoint therefore reports client-observed latency percentiles and
//! queue depth alongside the paper's throughput and fragmentation metrics.

use lor_alloc::{AllocationPolicy, PlacementPolicy};
use lor_blobkit::Database;
use lor_disksim::{throughput_mb_per_sec, DiskConfig, SimDuration};
use lor_maint::MaintenanceConfig;
use serde::{Deserialize, Serialize};

use crate::db_store::DbStoreConfig;
use crate::error::StoreError;
use crate::fs_store::{FsStoreConfig, FsSubstrate};
use crate::hist::LatencyHistogram;
use crate::log_store::{LogStoreConfig, LogSubstrate};
use crate::server::{Completion, LatencySummary, MixedOpenLoop, StoreServer};
use crate::store::{CostModel, ObjectStore, Store, StoreKind};
use crate::substrate::Substrate;
use crate::workload::{
    ObjectKey, SizeDistribution, StorageAgeTracker, WorkloadGenerator, WorkloadOp, WorkloadSpec,
};

/// The simulated testbed, standing in for the paper's Table 1.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TestbedConfig {
    /// Human-readable description of the simulated hardware and software.
    pub rows: Vec<(String, String)>,
}

impl TestbedConfig {
    /// The default simulated testbed (the substitution for Table 1).
    pub fn simulated() -> Self {
        let disk = lor_disksim::DiskConfig::seagate_400gb_2005();
        TestbedConfig {
            rows: vec![
                (
                    "CPU / host".into(),
                    "simulated host; fixed per-operation CPU costs (CostModel)".into(),
                ),
                ("Disk".into(), disk.model.clone()),
                ("Spindle speed".into(), format!("{} rpm", disk.rpm)),
                (
                    "Media transfer rate".into(),
                    format!(
                        "{:.0}-{:.0} MB/s (outer to inner zone)",
                        disk.zones
                            .first()
                            .map(|z| z.transfer_rate / 1e6)
                            .unwrap_or(0.0),
                        disk.zones
                            .last()
                            .map(|z| z.transfer_rate / 1e6)
                            .unwrap_or(0.0)
                    ),
                ),
                (
                    "Filesystem".into(),
                    "lor-fskit (NTFS-like: run-cache allocation, safe writes)".into(),
                ),
                (
                    "Database".into(),
                    "lor-blobkit (SQL-Server-like: 8KB pages, out-of-row BLOBs, bulk-logged)"
                        .into(),
                ),
            ],
        }
    }
}

/// How a sharded fleet drains its per-shard sub-streams.
///
/// Every shard owns an independent simulated spindle, so the shards of a
/// fleet can be drained on separate worker threads without changing any
/// simulated outcome: the partitioning, the per-shard `SimClock`s, and
/// the `(arrival, client)` completion merge are all deterministic.  This
/// knob therefore only chooses how much *wall-clock* parallelism the
/// fleet uses — results are bit-identical across all settings (a
/// property `lor-shard` pins with proptests and e2e tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FleetParallelism {
    /// Drain shards one after another on the calling thread.  The
    /// reference path every threaded drain must equal bit for bit: CI
    /// forces it on the shard suite via `LOR_FLEET_PARALLELISM=serial`.
    Serial,
    /// Drain shards on `n` worker threads (`n >= 1`).  When `n` is below
    /// the shard count the workers steal whole shard queues from a
    /// shared list; when it is at or above, each shard gets its own
    /// thread.
    Threads(u32),
}

impl FleetParallelism {
    /// Applies the `LOR_FLEET_PARALLELISM` environment override
    /// (`serial` or a worker count), letting CI pin either mode without
    /// touching the configs baked into tests and benches.
    pub fn resolved(self) -> Self {
        match std::env::var("LOR_FLEET_PARALLELISM") {
            Ok(value) if value.eq_ignore_ascii_case("serial") => FleetParallelism::Serial,
            Ok(value) => match value.parse::<u32>() {
                Ok(n) if n >= 1 => FleetParallelism::Threads(n),
                _ => self,
            },
            Err(_) => self,
        }
    }

    /// Number of worker threads a fleet of `shards` shards would use.
    pub fn workers(self, shards: usize) -> usize {
        match self {
            FleetParallelism::Serial => 1,
            FleetParallelism::Threads(n) => (n as usize).max(1).min(shards.max(1)),
        }
    }
}

/// Parameters shared by every experiment run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentConfig {
    /// Volume / data-file capacity in bytes.
    pub volume_bytes: u64,
    /// Fraction of the capacity filled with live objects (the paper's
    /// experiments are mostly 50% full).
    pub occupancy: f64,
    /// Object-size distribution.
    pub object_size: SizeDistribution,
    /// Write-request (append chunk) size in bytes.
    pub write_request_size: u64,
    /// Host cost model shared by both stores.
    pub cost: CostModel,
    /// RNG seed for the workload generator.
    pub seed: u64,
    /// Maximum number of objects to read when measuring read throughput
    /// (`None` reads every object, as the paper did; a sample keeps large
    /// configurations fast).
    pub read_sample: Option<usize>,
    /// Number of closed-loop clients driving the aging rounds: safe writes
    /// queued together dispatch as one interleaved batch, modelling the web
    /// application's parallel uploads (1 = strictly sequential updates).
    pub concurrency: usize,
    /// Per-client think time (simulated milliseconds) between a completion
    /// and the client's next request.  `0.0` reproduces the original
    /// harness: every request arrives the instant the spindle frees up.
    /// Positive values open idle gaps on the spindle — the window the
    /// `IdleDetect` maintenance policy schedules into.
    pub think_time_ms: f64,
    /// The allocation policy both substrates apply.
    /// [`AllocationPolicy::Native`] reproduces the paper's systems (the NTFS
    /// run cache and SQL Server's lowest-first page reuse); the fit policies
    /// let the ablation benches sweep one policy knob across both stores.
    pub allocation_policy: AllocationPolicy,
    /// The placement policy both substrates apply: which region of free
    /// space background maintenance may relocate data into.
    /// [`PlacementPolicy::Unrestricted`] reproduces the pre-placement
    /// behaviour bit-identically; the banded and reserve variants stop the
    /// gap-filling compactor from consuming the contiguous runs foreground
    /// writes need (the `placement-frontier` scenario family sweeps this
    /// knob).
    pub placement: PlacementPolicy,
    /// Background maintenance scheduler applied by both substrates.  `None`
    /// reproduces the paper's systems (interval-driven cleanup buried in the
    /// substrates); `Some` hands ghost cleanup, checkpointing and incremental
    /// defragmentation to the `lor-maint` scheduler under the configured
    /// latency-vs-throughput policy.
    pub maintenance: Option<MaintenanceConfig>,
    /// How a sharded fleet (`lor-shard`) drains its shards: serially on
    /// the calling thread or on worker threads.  Simulated results are
    /// bit-identical either way; only wall-clock time changes.  Ignored
    /// by single-store experiments.
    pub fleet_parallelism: FleetParallelism,
}

impl ExperimentConfig {
    /// The paper's default setup: a 40 GB volume at 50% occupancy, 64 KB
    /// write requests.
    pub fn paper_default(object_size: SizeDistribution) -> Self {
        ExperimentConfig {
            volume_bytes: 40_000_000_000,
            occupancy: 0.5,
            object_size,
            write_request_size: 64 * 1024,
            cost: CostModel::default(),
            seed: 42,
            read_sample: Some(400),
            concurrency: 4,
            think_time_ms: 0.0,
            allocation_policy: AllocationPolicy::Native,
            placement: PlacementPolicy::Unrestricted,
            maintenance: None,
            fleet_parallelism: FleetParallelism::Serial,
        }
    }

    /// Overrides how a sharded fleet drains its shards.
    pub fn with_fleet_parallelism(mut self, parallelism: FleetParallelism) -> Self {
        self.fleet_parallelism = parallelism;
        self
    }

    /// Overrides the allocation policy applied by both substrates.
    pub fn with_allocation_policy(mut self, policy: AllocationPolicy) -> Self {
        self.allocation_policy = policy;
        self
    }

    /// Overrides the placement policy applied by both substrates.
    pub fn with_placement(mut self, placement: PlacementPolicy) -> Self {
        self.placement = placement;
        self
    }

    /// Attaches a background maintenance scheduler to both substrates.
    pub fn with_maintenance(mut self, maintenance: MaintenanceConfig) -> Self {
        self.maintenance = Some(maintenance);
        self
    }

    /// Scales the volume down by `factor` (e.g. `0.01` for CI-sized runs),
    /// keeping occupancy, object size and write-request size unchanged so the
    /// behaviour stays comparable (the paper's own observation in Section 5.4
    /// is that large volumes behave alike at the same occupancy).
    pub fn scaled(mut self, factor: f64) -> Self {
        let factor = factor.clamp(1e-6, 1.0);
        self.volume_bytes = ((self.volume_bytes as f64) * factor) as u64;
        self
    }

    /// Number of live objects needed to reach the target occupancy.
    ///
    /// Occupancy is interpreted against the capacity actually usable for
    /// object data: both stores reserve a few percent for metadata (the MFT
    /// zone, page headers), so sizing against raw volume bytes would overfill
    /// a 97.5%-full experiment.
    pub fn object_count(&self) -> u64 {
        const DATA_FRACTION: f64 = 0.95;
        let usable = (self.volume_bytes as f64 * DATA_FRACTION) as u64;
        WorkloadSpec::objects_for_occupancy(usable, self.object_size.mean(), self.occupancy).max(1)
    }

    /// The workload spec this configuration induces.
    pub fn workload(&self) -> WorkloadSpec {
        WorkloadSpec {
            sizes: self.object_size,
            object_count: self.object_count(),
            seed: self.seed,
        }
    }

    /// Builds a store of the requested kind for this configuration.
    pub fn build_store(&self, kind: StoreKind) -> Result<Box<dyn ObjectStore>, StoreError> {
        match kind {
            StoreKind::Filesystem => {
                let mut config = FsStoreConfig::new(self.volume_bytes);
                config.volume.allocation_policy = self.allocation_policy;
                config.volume.placement = self.placement;
                self.boxed::<FsSubstrate>(config.volume, config.disk)
            }
            StoreKind::Database => {
                let mut config = DbStoreConfig::new(self.volume_bytes);
                config.engine.allocation_policy = self.allocation_policy;
                config.engine.placement = self.placement;
                self.boxed::<Database>(config.engine, config.disk)
            }
            StoreKind::LogStructured => {
                let mut config = LogStoreConfig::new(self.volume_bytes);
                // The log has no fit policy to pick — appends always go to
                // the head — but placement still governs which free segments
                // each head may open.
                config.log.placement = self.placement;
                self.boxed::<LogSubstrate>(config.log, config.disk)
            }
        }
    }

    /// The part of [`ExperimentConfig::build_store`] every substrate shares.
    fn boxed<S: Substrate + 'static>(
        &self,
        engine: S::Config,
        disk: DiskConfig,
    ) -> Result<Box<dyn ObjectStore>, StoreError> {
        Ok(Box::new(Store::<S>::build(
            engine,
            disk,
            self.write_request_size,
            self.cost,
            self.maintenance,
        )?))
    }

    fn validate(&self) -> Result<(), StoreError> {
        if !(0.0..=1.0).contains(&self.occupancy) {
            return Err(StoreError::BadConfig("occupancy must lie in [0, 1]".into()));
        }
        if self.object_size.mean() == 0 {
            return Err(StoreError::BadConfig(
                "mean object size must be non-zero".into(),
            ));
        }
        if self.object_size.mean() > self.volume_bytes {
            return Err(StoreError::BadConfig(
                "objects larger than the volume".into(),
            ));
        }
        if self.write_request_size == 0 {
            return Err(StoreError::BadConfig(
                "write request size must be non-zero".into(),
            ));
        }
        if self.concurrency == 0 {
            return Err(StoreError::BadConfig(
                "concurrency must be at least 1".into(),
            ));
        }
        if self.fleet_parallelism == FleetParallelism::Threads(0) {
            return Err(StoreError::BadConfig(
                "fleet parallelism needs at least one worker thread".into(),
            ));
        }
        if !self.think_time_ms.is_finite() || self.think_time_ms < 0.0 {
            return Err(StoreError::BadConfig(
                "think time must be finite and non-negative".into(),
            ));
        }
        self.placement
            .validate()
            .map_err(|message| StoreError::BadConfig(message.into()))?;
        if let Some(maintenance) = &self.maintenance {
            maintenance
                .validate()
                .map_err(|message| StoreError::BadConfig(message.into()))?;
        }
        Ok(())
    }
}

/// One measurement checkpoint of an aging run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AgePoint {
    /// Storage age at the checkpoint (0 = immediately after bulk load).
    pub storage_age: f64,
    /// Mean fragments per live object.
    pub fragments_per_object: f64,
    /// Write throughput (payload MB/s) over the interval that ended at this
    /// checkpoint (the bulk load itself for age 0).
    pub write_throughput_mb_s: f64,
    /// Read throughput (payload MB/s) of a randomized full-object read pass
    /// at this checkpoint, if reads were measured.
    pub read_throughput_mb_s: Option<f64>,
    /// Mean foreground operation latency (milliseconds) over the interval
    /// that ended at this checkpoint: puts during bulk load, safe writes
    /// during aging.  Includes any background-maintenance interference
    /// charged by the `lor-maint` scheduler, so it is the metric the
    /// latency-vs-throughput maintenance scenarios plot.
    pub foreground_latency_ms: f64,
    /// Median client-observed latency (milliseconds, queue delay included)
    /// over the interval's foreground operations.
    pub latency_p50_ms: f64,
    /// 95th-percentile client-observed latency (milliseconds).
    pub latency_p95_ms: f64,
    /// 99th-percentile client-observed latency (milliseconds) — the tail the
    /// multi-client load scenarios study.
    pub latency_p99_ms: f64,
    /// Mean number of requests waiting at dispatch time over the interval.
    pub queue_depth_mean: f64,
    /// Deepest request queue observed during the interval.
    pub queue_depth_max: u64,
    /// Cumulative background-maintenance time (seconds) the store's scheduler
    /// has spent up to this checkpoint (0 when no scheduler is attached).
    /// Always equals the sum of the three per-task components below.
    pub background_time_s: f64,
    /// Background time (seconds) spent on checkpoint flushes.
    pub background_checkpoint_s: f64,
    /// Background time (seconds) spent on ghost cleanup.
    pub background_ghost_s: f64,
    /// Background time (seconds) spent on incremental defragmentation /
    /// compaction.
    pub background_defrag_s: f64,
    /// Live objects at the checkpoint.
    pub objects: u64,
}

/// The result of ageing one store through a sequence of checkpoints.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AgingResult {
    /// Which store was measured.
    pub kind: StoreKind,
    /// The configuration that produced it.
    pub config: ExperimentConfig,
    /// One entry per requested checkpoint, in age order.
    pub points: Vec<AgePoint>,
}

impl AgingResult {
    /// The point measured at (or nearest below) the given storage age.
    pub fn at_age(&self, age: f64) -> Option<&AgePoint> {
        self.points
            .iter()
            .filter(|p| p.storage_age <= age + 1e-9)
            .max_by(|a, b| a.storage_age.total_cmp(&b.storage_age))
    }
}

/// Drives one store through bulk load and aging, measuring at each requested
/// storage age.
///
/// `measure_ages` lists the storage ages (in whole overwrite rounds) at which
/// to take a checkpoint; `0` means "immediately after bulk load".  Read
/// throughput is measured only when `measure_reads` is true (reads are by far
/// the most expensive part of a full-size run).
pub fn run_aging_experiment(
    kind: StoreKind,
    config: &ExperimentConfig,
    measure_ages: &[u32],
    measure_reads: bool,
) -> Result<AgingResult, StoreError> {
    config.validate()?;
    let mut store = config.build_store(kind)?;
    let mut generator = WorkloadGenerator::new(config.workload());
    let mut tracker = StorageAgeTracker::new();
    let mut points = Vec::with_capacity(measure_ages.len());

    let mut ages: Vec<u32> = measure_ages.to_vec();
    ages.sort_unstable();
    ages.dedup();

    let think_time = SimDuration::from_millis_f64(config.think_time_ms);
    let mut server = StoreServer::new(store.as_mut());

    // Bulk load: a single client with zero think time — the degenerate
    // request schedule that reproduces the serial harness exactly.
    server.store_mut().reset_measurements();
    server.reset_queue_stats();
    let mut bulk_bytes = 0u64;
    let mut bulk_ops = 0u64;
    let completions = server.run_closed_loop(generator.bulk_load(), 1, SimDuration::ZERO)?;
    for completion in &completions {
        if let WorkloadOp::Put { size, .. } = completion.request.op {
            tracker.record_put(size);
            bulk_bytes += size;
            bulk_ops += 1;
        }
    }
    let mut interval_throughput = throughput_mb_per_sec(bulk_bytes, server.store().elapsed());
    let mut interval_latency = server
        .store()
        .elapsed()
        .checked_div_int(bulk_ops.max(1))
        .as_millis_f64();
    let mut interval_summary = LatencySummary::of(&completions);
    let mut interval_queue = server.queue_stats();

    let mut current_age = 0u32;
    for &target in &ages {
        // Age up to the target (no-op for target 0): `concurrency`
        // closed-loop clients pull the round's safe writes from a shared
        // queue, so writes queued together interleave on disk as one batch.
        if target > current_age {
            server.store_mut().reset_measurements();
            server.reset_queue_stats();
            let mut written = 0u64;
            let mut ops = 0u64;
            // Latencies stream into a fixed-size histogram as rounds finish
            // — the harness no longer retains an interval's completions just
            // to sort them at checkpoint time.
            let mut interval_hist = LatencyHistogram::new();
            let mut key_buf = ObjectKey::buf();
            while current_age < target {
                let round: Vec<(ObjectKey, u64)> = generator
                    .overwrite_round()
                    .into_iter()
                    .filter_map(|op| match op {
                        WorkloadOp::SafeWrite { key, size } => Some((key, size)),
                        _ => None,
                    })
                    .collect();
                let old_sizes: Vec<u64> = round
                    .iter()
                    .map(|(key, _)| server.store().size_of(key.write_into(&mut key_buf)))
                    .collect::<Result<_, _>>()?;
                let round_ops: Vec<WorkloadOp> = round
                    .iter()
                    .map(|&(key, size)| WorkloadOp::SafeWrite { key, size })
                    .collect();
                let completions =
                    server.run_closed_loop(round_ops, config.concurrency.max(1), think_time)?;
                for completion in &completions {
                    interval_hist.record(completion.latency().as_nanos());
                }
                for (&(_, size), old) in round.iter().zip(old_sizes) {
                    tracker.record_safe_write(old, size);
                    written += size;
                    ops += 1;
                }
                current_age += 1;
            }
            interval_throughput = throughput_mb_per_sec(written, server.store().elapsed());
            interval_latency = server
                .store()
                .elapsed()
                .checked_div_int(ops.max(1))
                .as_millis_f64();
            interval_summary = interval_hist.summary();
            interval_queue = server.queue_stats();
        }

        let read_throughput = if measure_reads {
            Some(measure_read_pass(
                &mut server,
                &mut generator,
                config.read_sample,
            )?)
        } else {
            None
        };

        let maintenance_stats = server.store().maintenance_stats();
        points.push(AgePoint {
            storage_age: tracker.storage_age(),
            fragments_per_object: server.store().fragmentation().fragments_per_object,
            write_throughput_mb_s: interval_throughput,
            read_throughput_mb_s: read_throughput,
            foreground_latency_ms: interval_latency,
            latency_p50_ms: interval_summary.p50_ms,
            latency_p95_ms: interval_summary.p95_ms,
            latency_p99_ms: interval_summary.p99_ms,
            queue_depth_mean: interval_queue.mean_depth(),
            queue_depth_max: interval_queue.max_depth,
            background_time_s: maintenance_stats
                .map_or(0.0, |stats| stats.background_time.as_secs_f64()),
            background_checkpoint_s: maintenance_stats
                .map_or(0.0, |stats| stats.checkpoint.busy.as_secs_f64()),
            background_ghost_s: maintenance_stats
                .map_or(0.0, |stats| stats.ghost_cleanup.busy.as_secs_f64()),
            background_defrag_s: maintenance_stats
                .map_or(0.0, |stats| stats.defrag.busy.as_secs_f64()),
            objects: server.store().object_count() as u64,
        });
    }

    Ok(AgingResult {
        kind,
        config: config.clone(),
        points,
    })
}

/// A randomized full-object read pass over (a sample of) the live objects,
/// run on an existing server as a single-client, zero-think-time schedule.
fn measure_read_pass(
    server: &mut StoreServer<'_>,
    generator: &mut WorkloadGenerator,
    sample: Option<usize>,
) -> Result<f64, StoreError> {
    let ops = generator.read_all();
    let limit = sample.unwrap_or(ops.len()).max(1);
    let ops: Vec<WorkloadOp> = ops.into_iter().take(limit).collect();
    server.store_mut().reset_measurements();
    let completions = server.run_closed_loop(ops, 1, SimDuration::ZERO)?;
    let bytes: u64 = completions.iter().map(|c| c.receipt.payload_bytes).sum();
    let throughput = throughput_mb_per_sec(bytes, server.store().elapsed());
    server.store_mut().reset_measurements();
    Ok(throughput)
}

/// Builds a store for `config`, bulk-loads it and ages it `age_rounds` whole
/// overwrite rounds through the request scheduler, returning the aged store
/// together with the generator (positioned past the aging phase, so
/// subsequent samples are deterministic for the config's seed).
///
/// This is the shared fixture behind the open-loop measurement scenarios:
/// building and aging twice with the same config yields bit-identical
/// stores, which is what lets [`calibrate_mixed_load`] calibrate capacity on
/// a twin store without perturbing the one it measures.
pub fn age_store(
    kind: StoreKind,
    config: &ExperimentConfig,
    age_rounds: u32,
) -> Result<(Box<dyn ObjectStore>, WorkloadGenerator), StoreError> {
    config.validate()?;
    let mut store = config.build_store(kind)?;
    let mut generator = WorkloadGenerator::new(config.workload());
    let think_time = SimDuration::from_millis_f64(config.think_time_ms);
    let mut server = StoreServer::new(store.as_mut());
    server.run_closed_loop(generator.bulk_load(), 1, SimDuration::ZERO)?;
    for _ in 0..age_rounds {
        server.run_closed_loop(
            generator.overwrite_round(),
            config.concurrency.max(1),
            think_time,
        )?;
    }
    store.reset_measurements();
    Ok((store, generator))
}

/// One measured point of the open-loop **mixed read/safe-write** load sweep:
/// a Poisson read class and a Poisson safe-write class contend for the
/// spindle of an aged store, so the write class grows fragmentation *during*
/// the measurement while the read class traverses the decaying layout.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MixedLoadPoint {
    /// Fraction of the offered operations that are safe writes.
    pub write_fraction: f64,
    /// Offered load as a fraction of the store's calibrated serial capacity
    /// over the same operation mix.
    pub utilisation: f64,
    /// Absolute offered load, operations per simulated second (both classes
    /// combined).
    pub offered_ops_per_sec: f64,
    /// Client-observed latency of the read class.
    pub reads: LatencySummary,
    /// Client-observed latency of the safe-write class.
    pub writes: LatencySummary,
    /// Client-observed latency over both classes.
    pub all: LatencySummary,
    /// Mean number of requests waiting at dispatch time.
    pub queue_depth_mean: f64,
    /// Mean fragments per object when the measurement started.
    pub fragments_before: f64,
    /// Mean fragments per object when the measurement ended — the growth the
    /// write class inflicted while the sweep ran.
    pub fragments_after: f64,
}

/// The capacity calibration of one mixed-sweep family: the deterministic
/// operation mix plus the serial single-client capacity measured over it on
/// a *twin* store (same config, same seed, so the aged state is
/// bit-identical to the store a later measurement builds).
///
/// Capacity does not depend on the offered load, so one calibration serves
/// every utilisation point of a sweep — re-deriving it per point would
/// repeat the expensive bulk-load + aging for no information.
#[derive(Debug, Clone)]
pub struct MixedCalibration {
    /// Fraction of the offered operations that are safe writes.
    pub write_fraction: f64,
    /// Serial single-client capacity over the mix, operations per second.
    pub capacity_ops_per_sec: f64,
    reads: Vec<WorkloadOp>,
    writes: Vec<WorkloadOp>,
}

/// Calibrates a mixed sweep family: ages a twin store to `age_rounds`,
/// samples the deterministic mix (`write_fraction` of `ops` are safe
/// writes), and measures the mix's serial capacity.  The twin is discarded;
/// the measurement store is built fresh by
/// [`measure_mixed_load_calibrated`], so calibration cannot perturb it.
pub fn calibrate_mixed_load(
    kind: StoreKind,
    config: &ExperimentConfig,
    age_rounds: u32,
    write_fraction: f64,
    ops: usize,
) -> Result<MixedCalibration, StoreError> {
    if !(0.0..=1.0).contains(&write_fraction) {
        return Err(StoreError::BadConfig(
            "write fraction must lie in [0, 1]".into(),
        ));
    }
    if ops == 0 {
        return Err(StoreError::BadConfig(
            "a mixed load point needs at least one operation".into(),
        ));
    }
    let write_ops = ((ops as f64) * write_fraction).round() as usize;
    let read_ops = ops - write_ops.min(ops);

    let (mut twin, mut generator) = age_store(kind, config, age_rounds)?;
    let reads = generator.read_sample(read_ops);
    let writes = generator.safe_write_sample(write_ops);
    let mut serial_mix = reads.clone();
    serial_mix.extend(writes.iter().cloned());
    let mut server = StoreServer::new(twin.as_mut());
    let serial = server.run_closed_loop(serial_mix, 1, SimDuration::ZERO)?;
    let mean_ms = LatencySummary::of(&serial).mean_ms.max(1e-6);
    Ok(MixedCalibration {
        write_fraction,
        capacity_ops_per_sec: 1e3 / mean_ms,
        reads,
        writes,
    })
}

/// Measures one [`MixedLoadPoint`] against a fresh aged store: the
/// calibration's mix is offered as a merged open-loop Poisson process at
/// `utilisation` of its calibrated capacity.
pub fn measure_mixed_load_calibrated(
    kind: StoreKind,
    config: &ExperimentConfig,
    age_rounds: u32,
    calibration: &MixedCalibration,
    utilisation: f64,
) -> Result<MixedLoadPoint, StoreError> {
    if !utilisation.is_finite() || utilisation <= 0.0 {
        return Err(StoreError::BadConfig(
            "utilisation must be positive and finite".into(),
        ));
    }
    let (mut store, _) = age_store(kind, config, age_rounds)?;
    let fragments_before = store.fragmentation().fragments_per_object;
    let mut server = StoreServer::new(store.as_mut());
    let offered = utilisation * calibration.capacity_ops_per_sec;
    let load = MixedOpenLoop::from_total(offered, calibration.write_fraction, config.seed);
    // Completions fold into one fixed-size histogram per class as they
    // finish; the whole-interval completion vector is never materialised.
    let mut read_hist = LatencyHistogram::new();
    let mut write_hist = LatencyHistogram::new();
    server.run_mixed_open_loop_with(
        calibration.reads.clone(),
        calibration.writes.clone(),
        load,
        &mut |completion: Completion| {
            let hist = if matches!(completion.request.op, WorkloadOp::Get { .. }) {
                &mut read_hist
            } else {
                &mut write_hist
            };
            hist.record(completion.latency().as_nanos());
        },
    )?;
    let mut all_hist = read_hist.clone();
    all_hist.merge(&write_hist);
    let queue_depth_mean = server.queue_stats().mean_depth();
    let fragments_after = server.store().fragmentation().fragments_per_object;

    Ok(MixedLoadPoint {
        write_fraction: calibration.write_fraction,
        utilisation,
        offered_ops_per_sec: offered,
        reads: read_hist.summary(),
        writes: write_hist.summary(),
        all: all_hist.summary(),
        queue_depth_mean,
        fragments_before,
        fragments_after,
    })
}

/// Runs both systems through the same aging experiment — the comparison every
/// figure in the paper makes.
pub fn compare_systems(
    config: &ExperimentConfig,
    measure_ages: &[u32],
    measure_reads: bool,
) -> Result<(AgingResult, AgingResult), StoreError> {
    let database = run_aging_experiment(StoreKind::Database, config, measure_ages, measure_reads)?;
    let filesystem =
        run_aging_experiment(StoreKind::Filesystem, config, measure_ages, measure_reads)?;
    Ok((database, filesystem))
}

#[cfg(test)]
mod tests {
    use super::*;

    const MB: u64 = 1 << 20;

    /// A miniature configuration that keeps unit tests fast: 96 MB volume,
    /// 50% full, 1 MB objects.
    fn mini_config() -> ExperimentConfig {
        ExperimentConfig {
            volume_bytes: 96 * MB,
            occupancy: 0.5,
            object_size: SizeDistribution::Constant(MB),
            write_request_size: 64 * 1024,
            cost: CostModel::default(),
            seed: 7,
            read_sample: Some(16),
            concurrency: 4,
            think_time_ms: 0.0,
            allocation_policy: AllocationPolicy::Native,
            placement: PlacementPolicy::Unrestricted,
            maintenance: None,
            fleet_parallelism: FleetParallelism::Serial,
        }
    }

    #[test]
    fn testbed_description_mentions_both_systems() {
        let testbed = TestbedConfig::simulated();
        let text: String = testbed
            .rows
            .iter()
            .map(|(k, v)| format!("{k}: {v}\n"))
            .collect();
        assert!(text.contains("NTFS-like"));
        assert!(text.contains("SQL-Server-like"));
        assert!(text.contains("7200 rpm"));
    }

    #[test]
    fn config_validation_rejects_nonsense() {
        let mut config = mini_config();
        config.occupancy = 1.5;
        assert!(run_aging_experiment(StoreKind::Filesystem, &config, &[0], false).is_err());
        let mut config = mini_config();
        config.object_size = SizeDistribution::Constant(0);
        assert!(run_aging_experiment(StoreKind::Filesystem, &config, &[0], false).is_err());
        let mut config = mini_config();
        config.object_size = SizeDistribution::Constant(1 << 40);
        assert!(run_aging_experiment(StoreKind::Database, &config, &[0], false).is_err());
        let mut config = mini_config();
        config.write_request_size = 0;
        assert!(run_aging_experiment(StoreKind::Database, &config, &[0], false).is_err());
    }

    #[test]
    fn object_count_tracks_occupancy() {
        let config = mini_config();
        assert_eq!(config.object_count(), 45);
        let fuller = ExperimentConfig {
            occupancy: 0.9,
            ..mini_config()
        };
        assert!(fuller.object_count() > config.object_count());
        let scaled = config.clone().scaled(0.5);
        assert!(scaled.object_count() < config.object_count());
    }

    #[test]
    fn bulk_load_checkpoint_reports_throughput_and_contiguity() {
        let config = mini_config();
        let result = run_aging_experiment(StoreKind::Filesystem, &config, &[0], true).unwrap();
        assert_eq!(result.points.len(), 1);
        let point = &result.points[0];
        assert_eq!(point.storage_age, 0.0);
        assert!(point.write_throughput_mb_s > 0.0);
        assert!(point.read_throughput_mb_s.unwrap() > 0.0);
        assert!(point.fragments_per_object >= 1.0);
        assert!(
            point.fragments_per_object < 1.5,
            "clean store is nearly contiguous"
        );
        assert!(point.foreground_latency_ms > 0.0);
        assert_eq!(point.background_time_s, 0.0, "no scheduler attached");
        assert_eq!(point.objects, config.object_count());
    }

    #[test]
    fn maintenance_config_threads_into_both_stores() {
        use lor_maint::MaintenanceConfig;

        let config = mini_config().with_maintenance(MaintenanceConfig::fixed_budget(16));
        for kind in StoreKind::ALL {
            let result = run_aging_experiment(kind, &config, &[0, 3], false).unwrap();
            let aged = result.points.last().unwrap();
            assert!(
                aged.background_time_s > 0.0,
                "{kind:?}: the scheduler must have done background work"
            );
            assert!(aged.foreground_latency_ms > 0.0);
        }

        // An invalid maintenance config is rejected up front.
        let bad = mini_config().with_maintenance(MaintenanceConfig::threshold(0.5));
        assert!(run_aging_experiment(StoreKind::Filesystem, &bad, &[0], false).is_err());
    }

    #[test]
    fn per_task_background_time_sums_to_the_total() {
        use lor_maint::MaintenanceConfig;

        let config = mini_config().with_maintenance(MaintenanceConfig::fixed_budget(16));
        for kind in StoreKind::ALL {
            let result = run_aging_experiment(kind, &config, &[0, 2, 4], false).unwrap();
            let aged = result.points.last().unwrap();
            assert!(aged.background_time_s > 0.0);
            for point in &result.points {
                let parts = point.background_checkpoint_s
                    + point.background_ghost_s
                    + point.background_defrag_s;
                assert!(
                    (parts - point.background_time_s).abs() < 1e-9,
                    "{kind:?} at age {}: per-task components ({parts}) must sum \
                     to the total ({})",
                    point.storage_age,
                    point.background_time_s
                );
            }
        }
    }

    #[test]
    fn aging_increases_database_fragmentation_more_than_filesystem() {
        let config = mini_config();
        let (db, fs) = compare_systems(&config, &[0, 4], false).unwrap();
        let db_aged = db.at_age(4.0).unwrap().fragments_per_object;
        let fs_aged = fs.at_age(4.0).unwrap().fragments_per_object;
        let db_clean = db.at_age(0.0).unwrap().fragments_per_object;
        assert!(
            db_aged > db_clean,
            "database fragmentation must grow with age"
        );
        assert!(
            db_aged >= fs_aged,
            "database should fragment at least as much as the filesystem ({db_aged} vs {fs_aged})"
        );
        // Storage age accounting matches the number of overwrite rounds.
        assert!((db.points[1].storage_age - 4.0).abs() < 1e-9);
    }

    #[test]
    fn mixed_load_points_report_both_classes_and_frag_growth() {
        let config = mini_config();
        let measure = |write_fraction, utilisation, ops| {
            let calibration =
                calibrate_mixed_load(StoreKind::Filesystem, &config, 1, write_fraction, ops)?;
            measure_mixed_load_calibrated(
                StoreKind::Filesystem,
                &config,
                1,
                &calibration,
                utilisation,
            )
        };
        let point = measure(0.5, 0.8, 32).unwrap();
        assert_eq!(point.write_fraction, 0.5);
        assert_eq!(point.utilisation, 0.8);
        assert!(point.offered_ops_per_sec > 0.0);
        assert_eq!(point.reads.count, 16);
        assert_eq!(point.writes.count, 16);
        assert_eq!(point.all.count, 32);
        assert!(point.reads.p99_ms > 0.0 && point.writes.p99_ms > 0.0);
        assert!(point.fragments_before >= 1.0 && point.fragments_after >= 1.0);
        // The write class rewrites objects during the measurement, so the
        // layout must actually move (in either direction — a safe write can
        // heal as well as fragment, depending on where it lands).
        assert!(
            (point.fragments_after - point.fragments_before).abs() > 1e-9,
            "the write class must move the layout ({:.3} -> {:.3})",
            point.fragments_before,
            point.fragments_after
        );
        assert!(point.queue_depth_mean >= 1.0);

        // A pure-read point performs no writes and cannot move fragmentation.
        let pure = measure(0.0, 0.5, 16).unwrap();
        assert_eq!(pure.writes.count, 0);
        assert_eq!(pure.reads.count, 16);
        assert_eq!(pure.fragments_before, pure.fragments_after);

        // Invalid parameters are rejected up front.
        assert!(measure(1.5, 0.5, 16).is_err());
        assert!(measure(0.5, 0.0, 16).is_err());
        assert!(measure(0.5, 0.5, 0).is_err());
    }

    #[test]
    fn age_store_twins_are_bit_identical() {
        let config = mini_config();
        let (a, _) = age_store(StoreKind::Database, &config, 2).unwrap();
        let (b, _) = age_store(StoreKind::Database, &config, 2).unwrap();
        assert_eq!(a.fragmentation(), b.fragmentation());
        assert_eq!(a.keys(), b.keys());
        for key in a.keys() {
            assert_eq!(a.layout_of(&key).unwrap(), b.layout_of(&key).unwrap());
        }
        assert_eq!(a.elapsed(), SimDuration::ZERO, "measurement clock reset");
    }

    #[test]
    fn measured_ages_are_sorted_and_deduplicated() {
        let config = mini_config();
        let result =
            run_aging_experiment(StoreKind::Filesystem, &config, &[2, 0, 2], false).unwrap();
        assert_eq!(result.points.len(), 2);
        assert!(result.points[0].storage_age < result.points[1].storage_age);
        assert!(result.at_age(1.0).is_some());
        assert_eq!(
            result.at_age(5.0).unwrap().storage_age,
            result.points[1].storage_age
        );
    }
}
