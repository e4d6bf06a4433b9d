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
//! volume size and occupancy.  Its first two steps are the paper's aging
//! protocol, written once: [`bulk_load`] and [`overwrite_round`], which
//! [`age_store`], the latency-anatomy sweep and the `trace` binary run too.
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

use crate::db_store::DbStoreConfig;
use crate::error::StoreError;
use crate::fs_store::{FsStoreConfig, FsSubstrate};
use crate::hist::LatencyHistogram;
use crate::log_store::{LogStoreConfig, LogSubstrate};
use crate::server::{Completion, LatencySummary, MixedOpenLoop, StoreServer};
use crate::store::{host_costs, ObjectStore, Store, StoreKind, PAPER_WRITE_REQUEST_SIZE};
use crate::substrate::Substrate;
use crate::workload::{
    SizeDistribution, StorageAgeTracker, WorkloadGenerator, WorkloadOp, WorkloadSpec,
};

/// The simulated testbed, standing in for the paper's Table 1.
#[derive(Debug, Clone, PartialEq)]
pub struct TestbedConfig {
    /// Human-readable description of the simulated hardware and software.
    pub rows: Vec<(String, String)>,
}

impl TestbedConfig {
    /// The simulated testbed (the substitution for Table 1), read from the
    /// disk model's constants.
    pub fn simulated() -> Self {
        let disk = DiskConfig::seagate_400gb_2005();
        TestbedConfig {
            rows: vec![
                ("CPU / host".into(), host_costs()),
                ("Disk".into(), disk.model().into()),
                ("Spindle speed".into(), format!("{} rpm", disk.rpm())),
                (
                    "Media transfer rate".into(),
                    format!(
                        "{:.0}-{:.0} MB/s (outer to inner zone)",
                        disk.transfer_rate_at(0) / 1e6,
                        disk.transfer_rate_at(disk.capacity_bytes()) / 1e6,
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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetParallelism {
    /// Drain shards one after another on the calling thread.  The
    /// reference path every threaded drain must equal bit for bit.
    Serial,
    /// Drain shards on `n` worker threads (`n >= 1`).  When `n` is below
    /// the shard count the workers steal whole shard queues from a
    /// shared list; when it is at or above, each shard gets its own
    /// thread.
    Threads(u32),
}

impl FleetParallelism {
    /// Number of worker threads a fleet of `shards` shards would use.
    pub fn workers(self, shards: usize) -> usize {
        match self {
            FleetParallelism::Serial => 1,
            FleetParallelism::Threads(n) => (n as usize).max(1).min(shards.max(1)),
        }
    }
}

/// Parameters shared by every experiment run.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentConfig {
    /// Volume / data-file capacity in bytes.
    pub volume_bytes: u64,
    /// Fraction of the capacity filled with live objects (the paper's
    /// experiments are mostly 50% full).
    pub occupancy: f64,
    /// Object-size distribution.
    pub object_size: SizeDistribution,
    /// Write-request (append chunk) size in bytes: how each substrate
    /// splits an object's data into appends (the paper's abstract: "changing
    /// the size of write requests affects fragmentation").  The one home of
    /// this knob; every store [`ExperimentConfig::build_store`] builds
    /// writes in requests of this size.  The paper's 64 KB is
    /// [`PAPER_WRITE_REQUEST_SIZE`].
    pub write_request_size: u64,
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
            write_request_size: PAPER_WRITE_REQUEST_SIZE,
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
        // The simulated disk is scaled to the volume, so only this check
        // keeps it inside the drive it models (Table 1).
        let disk_bytes = DiskConfig::seagate_400gb_2005().capacity_bytes();
        if self.volume_bytes > disk_bytes {
            return Err(StoreError::BadConfig(format!(
                "volume of {} bytes is larger than the {disk_bytes}-byte disk",
                self.volume_bytes
            )));
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
#[derive(Debug, Clone, Copy, PartialEq)]
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
#[derive(Debug, Clone, PartialEq)]
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

    let mut server = StoreServer::new(store.as_mut());

    server.store_mut().reset_measurements();
    server.reset_queue_stats();
    let mut bulk_bytes = 0u64;
    let completions = bulk_load(&mut server, &mut generator)?;
    for completion in &completions {
        if let WorkloadOp::Put { size, .. } = completion.request.op {
            tracker.record_put(size);
            bulk_bytes += size;
        }
    }
    let mut interval_throughput = throughput_mb_per_sec(bulk_bytes, server.store().elapsed());
    let mut interval_latency = server
        .store()
        .elapsed()
        .checked_div_int(completions.len().max(1) as u64)
        .as_millis_f64();
    let mut interval_summary = LatencySummary::of(&completions);
    let mut interval_queue = server.queue_stats();

    let mut current_age = 0u32;
    for &target in &ages {
        // Age up to the target (no-op for target 0).
        if target > current_age {
            server.store_mut().reset_measurements();
            server.reset_queue_stats();
            let mut written = 0u64;
            let mut ops = 0u64;
            // Latencies stream into a fixed-size histogram as rounds finish
            // — the harness no longer retains an interval's completions just
            // to sort them at checkpoint time.
            let mut interval_hist = LatencyHistogram::new();
            while current_age < target {
                let mut round_bytes = 0u64;
                for completion in overwrite_round(&mut server, &mut generator, config)? {
                    interval_hist.record(completion.latency().as_nanos());
                    if let WorkloadOp::SafeWrite { size, .. } = completion.request.op {
                        round_bytes += size;
                        ops += 1;
                    }
                }
                // A round rewrites every live object once, so it kills
                // exactly the bytes that were live before it.
                tracker.record_safe_write(tracker.live_bytes, round_bytes);
                written += round_bytes;
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

/// The aging protocol's first phase (Section 4.4): every object of the
/// workload put once, by a single client with no think time — the
/// degenerate request schedule that reproduces the serial harness exactly.
pub fn bulk_load(
    server: &mut StoreServer<'_>,
    generator: &mut WorkloadGenerator,
) -> Result<Vec<Completion>, StoreError> {
    server.run_closed_loop(generator.bulk_load(), 1, SimDuration::ZERO)
}

/// One whole overwrite round of the aging protocol: every live object
/// safe-written once, in the generator's random order, by
/// [`ExperimentConfig::concurrency`] closed-loop clients with
/// [`ExperimentConfig::think_time_ms`] of think time.  Safe writes queued
/// together dispatch as one interleaved batch.  Each round advances the
/// storage age by one.
pub fn overwrite_round(
    server: &mut StoreServer<'_>,
    generator: &mut WorkloadGenerator,
    config: &ExperimentConfig,
) -> Result<Vec<Completion>, StoreError> {
    server.run_closed_loop(
        generator.overwrite_round(),
        config.concurrency,
        SimDuration::from_millis_f64(config.think_time_ms),
    )
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
    let mut server = StoreServer::new(store.as_mut());
    bulk_load(&mut server, &mut generator)?;
    for _ in 0..age_rounds {
        overwrite_round(&mut server, &mut generator, config)?;
    }
    store.reset_measurements();
    Ok((store, generator))
}

/// One measured point of the open-loop **mixed read/safe-write** load sweep:
/// a Poisson read class and a Poisson safe-write class contend for the
/// spindle of an aged store, so the write class grows fragmentation *during*
/// the measurement while the read class traverses the decaying layout.
#[derive(Debug, Clone, PartialEq)]
pub struct MixedLoadPoint {
    /// Fraction of the offered operations that are safe writes.
    pub write_fraction: f64,
    /// Offered load as a fraction of the store's calibrated serial capacity
    /// over the same operation mix.
    pub utilisation: f64,
    /// Client-observed latency over both classes.
    pub all: LatencySummary,
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
    // Completions fold into one fixed-size histogram as they finish; the
    // whole-interval completion vector is never materialised.
    let mut hist = LatencyHistogram::new();
    server.run_mixed_open_loop_with(
        calibration.reads.clone(),
        calibration.writes.clone(),
        load,
        &mut |completion: Completion| hist.record(completion.latency().as_nanos()),
    )?;
    let fragments_after = server.store().fragmentation().fragments_per_object;

    Ok(MixedLoadPoint {
        write_fraction: calibration.write_fraction,
        utilisation,
        all: hist.summary(),
        fragments_before,
        fragments_after,
    })
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
        assert!(text.contains("12 ms per open") && text.contains("0.05 ms per page"));
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
        // A mean past the volume is refused, even where `min + max` overflows.
        let mut config = mini_config();
        config.object_size = SizeDistribution::Uniform {
            min: u64::MAX - 1,
            max: u64::MAX,
        };
        let outcome = run_aging_experiment(StoreKind::Filesystem, &config, &[0], false);
        assert!(matches!(outcome, Err(StoreError::BadConfig(_))));
    }

    #[test]
    fn a_volume_larger_than_the_disk_is_refused() {
        // Accepted once, this aborted the filesystem build on a 4 GiB
        // allocation.
        let mut config = mini_config();
        config.volume_bytes = u64::MAX;
        config.object_size = SizeDistribution::Constant(u64::MAX / 4);
        assert!(matches!(config.validate(), Err(StoreError::BadConfig(_))));
        for kind in StoreKind::ALL {
            let outcome = run_aging_experiment(kind, &config, &[0], false);
            assert!(matches!(outcome, Err(StoreError::BadConfig(_))), "{kind}");
        }
        // The whole disk is still a volume.
        config.volume_bytes = DiskConfig::seagate_400gb_2005().capacity_bytes();
        config.object_size = SizeDistribution::Constant(256 * 1024);
        assert_eq!(config.validate(), Ok(()));
        config.volume_bytes += 1;
        assert!(config.validate().is_err());
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
    fn aging_grows_database_fragmentation_and_counts_storage_age() {
        let config = mini_config();
        let db = run_aging_experiment(StoreKind::Database, &config, &[0, 4], false).unwrap();
        let db_aged = db.at_age(4.0).unwrap().fragments_per_object;
        let db_clean = db.at_age(0.0).unwrap().fragments_per_object;
        assert!(
            db_aged > db_clean,
            "database fragmentation must grow with age"
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
        assert_eq!(point.all.count, 32, "16 reads and 16 safe writes");
        assert!(point.all.p99_ms > 0.0);
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

        // A pure-read point performs no writes and cannot move fragmentation.
        let pure = measure(0.0, 0.5, 16).unwrap();
        assert_eq!(pure.all.count, 16);
        assert_eq!(pure.fragments_before, pure.fragments_after);

        // Invalid parameters are rejected up front.
        assert!(measure(1.5, 0.5, 16).is_err());
        assert!(measure(0.5, 0.0, 16).is_err());
        assert!(measure(0.5, 0.5, 0).is_err());
    }

    #[test]
    fn age_store_twins_are_bit_identical() {
        use lor_maint::MaintenanceConfig;

        let config = mini_config().with_maintenance(MaintenanceConfig::fixed_budget(256));
        for kind in StoreKind::ALL {
            let (a, _) = age_store(kind, &config, 2).unwrap();
            let (b, _) = age_store(kind, &config, 2).unwrap();
            assert_eq!(a.fragmentation(), b.fragmentation(), "{kind:?}");
            assert_eq!(a.keys(), b.keys(), "{kind:?}");
            for key in a.keys() {
                let layout = a.layout_of(&key).unwrap();
                assert_eq!(layout, b.layout_of(&key).unwrap(), "{kind:?}: {key}");
            }
            assert_eq!(a.elapsed(), SimDuration::ZERO, "measurement clock reset");
        }
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
