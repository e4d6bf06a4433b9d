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
//! Both hand each completion to a sink, as [`StoreServer::run`] does, and
//! keep none: every caller folds what it reads (a histogram, a byte count,
//! a latency list) as the completions arrive.
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
use lor_blobkit::{Database, PAGES_PER_EXTENT};
use lor_disksim::{throughput_mb_per_sec, DiskConfig, SimDuration};
use lor_maint::MaintenanceConfig;

use crate::db_store::DbStoreConfig;
use crate::error::StoreError;
use crate::fs_store::{FsStoreConfig, FsSubstrate};
use crate::hist::LatencyHistogram;
use crate::log_store::{LogStoreConfig, LogSubstrate};
use crate::server::{mean_ms, Arrivals, Completion, LatencySummary, MixedOpenLoop, StoreServer};
use crate::store::{host_costs, ObjectStore, Store, StoreKind, PAPER_WRITE_REQUEST_SIZE};
use crate::substrate::Substrate;
use crate::workload::{
    SizeDistribution, StorageAgeTracker, WorkloadGenerator, WorkloadOp, WorkloadSpec,
};

/// The smallest object [`ExperimentConfig::validate`] accepts: the
/// database's 8 KB page, the coarsest allocation unit of the three
/// substrates (the volume's cluster is 4 KB; the log packs bytes).  The
/// population is sized in payload bytes, and a smaller object is padded to
/// a whole cluster or page: `Constant(1000)` at 50 % occupancy asks a 64 MiB
/// volume for 4 to 8 times the space its payload names, and the filesystem
/// and the database ran out of space in the bulk load while the log did
/// not.  Refused instead, it fails the same typed way on every substrate.
/// (Sizing the population in units would have moved the object count, and
/// so the goldens, of every configuration whose sizes are off the unit
/// grid.)
pub const MIN_OBJECT_BYTES: u64 = 8 * 1024;

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

    /// Builds a store of the requested kind for this configuration, after
    /// [`ExperimentConfig::validate`] accepts it.
    pub fn build_store(&self, kind: StoreKind) -> Result<Box<dyn ObjectStore>, StoreError> {
        self.validate()?;
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
            self.object_count(),
        )?))
    }

    /// Checks that the configuration describes a run the harness can age:
    /// occupancy in `[0, 1]`, a volume inside the modelled disk and large
    /// enough for every substrate to format, no object
    /// smaller than one allocation unit ([`MIN_OBJECT_BYTES`]), a
    /// population every substrate can bulk-load once each object is padded
    /// to its allocation unit, a non-zero
    /// write-request size, at least one client, finite non-negative think
    /// time, valid placement and maintenance.
    /// [`ExperimentConfig::build_store`] calls it first, so no store is
    /// built from a configuration it refuses; the entry points that age a
    /// store ([`run_aging_experiment`], `lor_bench::anatomy_vs_age`, the
    /// `trace` binary) call it too, before they do anything else.
    pub fn validate(&self) -> Result<(), StoreError> {
        let smallest = match self.object_size {
            SizeDistribution::Constant(size) => size,
            SizeDistribution::Uniform { min, max } => min.min(max),
        };
        let volume = self.volume_bytes;
        // The simulated disk is scaled to the volume, so only this check
        // keeps it inside the drive it models (Table 1).
        let disk_bytes = DiskConfig::seagate_400gb_2005().capacity_bytes();
        let refused = if !(0.0..=1.0).contains(&self.occupancy) {
            "occupancy must lie in [0, 1]".to_owned()
        } else if self.object_size.mean() == 0 {
            "mean object size must be non-zero".to_owned()
        } else if smallest < MIN_OBJECT_BYTES {
            format!(
                "objects of {smallest} bytes are smaller than one {MIN_OBJECT_BYTES}-byte \
                 allocation unit"
            )
        } else if volume > disk_bytes {
            format!("volume of {volume} bytes is larger than the {disk_bytes}-byte disk")
        } else if let Err(message) = LogStoreConfig::new(volume).log.validate() {
            // The log needs the most room to format, four segments of at
            // least `MIN_SEGMENT_BYTES`; the database's one extent and the
            // volume's one cluster fit in that.
            format!("volume of {volume} bytes is too small to format: {message}")
        } else if self.object_size.mean() > volume {
            "objects larger than the volume".to_owned()
        } else if let Some(message) = self.overfilled() {
            message
        } else if self.write_request_size == 0 {
            "write request size must be non-zero".to_owned()
        } else if self.concurrency == 0 {
            "concurrency must be at least 1".to_owned()
        } else if self.fleet_parallelism == FleetParallelism::Threads(0) {
            "fleet parallelism needs at least one worker thread".to_owned()
        } else if !self.think_time_ms.is_finite() || self.think_time_ms < 0.0 {
            "think time must be finite and non-negative".to_owned()
        } else if let Err(message) = self.placement.validate() {
            message.to_owned()
        } else if let Some(Err(message)) =
            self.maintenance.as_ref().map(MaintenanceConfig::validate)
        {
            message.to_owned()
        } else {
            return Ok(());
        };
        Err(StoreError::BadConfig(refused))
    }

    /// Why the population does not fit some substrate once each object is
    /// padded to that substrate's allocation unit, if it does not.
    /// [`ExperimentConfig::object_count`] sizes the population in payload
    /// bytes, so padding can overfill one substrate while the others load.
    /// Each bound is read off the engine config [`ExperimentConfig::build_store`]
    /// builds: the volume's 4 KiB clusters outside its MFT zone, the
    /// engine's extents within its data file (its LOB pages and its
    /// metadata-row pages, one per `rows_per_page` objects, each rounded up
    /// to whole 8-page extents, because the LOB unit and the row unit each
    /// take whole extents of their own), and the log's bytes within its
    /// data segments.  A uniform distribution is bounded by its mean plus less
    /// than one unit of padding per object.  What aging adds on top (a safe
    /// write's second copy, fragmented free space) is not judged here.
    fn overfilled(&self) -> Option<String> {
        let objects = self.object_count();
        // Whole units of `unit` bytes the population takes.
        let units = |unit: u64| match self.object_size {
            SizeDistribution::Constant(size) => objects * size.div_ceil(unit),
            SizeDistribution::Uniform { .. } => {
                (objects * self.object_size.mean() + objects * (unit - 1)) / unit
            }
        };
        let volume = FsStoreConfig::new(self.volume_bytes).volume;
        let engine = DbStoreConfig::new(self.volume_bytes).engine;
        let log = LogStoreConfig::new(self.volume_bytes).log;
        let bounds = [
            (
                StoreKind::Filesystem,
                units(volume.cluster_size()),
                volume.data_clusters(),
                "clusters",
            ),
            (
                StoreKind::Database,
                units(engine.lob_payload_per_page).div_ceil(PAGES_PER_EXTENT)
                    + objects
                        .div_ceil(engine.rows_per_page)
                        .div_ceil(PAGES_PER_EXTENT),
                engine.total_extents(),
                "extents",
            ),
            (
                StoreKind::LogStructured,
                units(1),
                log.data_segments() * log.segment_bytes,
                "bytes",
            ),
        ];
        let (kind, need, room, unit) = bounds.into_iter().find(|(_, need, room, _)| need > room)?;
        Some(format!(
            "{objects} objects padded to whole allocation units need {need} {unit} on the \
             {kind} substrate, which has {room}"
        ))
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
    // The bulk interval's summary is the exact, sort-based one, so the sink
    // keeps every latency: 8 bytes each, not a whole completion.
    let mut bulk_latencies = Vec::with_capacity(config.object_count() as usize);
    bulk_load(&mut server, &mut generator, |completion| {
        bulk_latencies.push(completion.latency().as_nanos());
        if let WorkloadOp::Put { size, .. } = completion.request.op {
            tracker.record_put(size);
            bulk_bytes += size;
        }
    })?;
    let mut interval_throughput = throughput_mb_per_sec(bulk_bytes, server.store().elapsed());
    let mut interval_latency = server
        .store()
        .elapsed()
        .checked_div_int(bulk_latencies.len().max(1) as u64)
        .as_millis_f64();
    let mut interval_summary = LatencySummary::of_nanos(bulk_latencies);
    let mut interval_queue = server.queue_stats();

    let mut current_age = 0u32;
    for &target in &ages {
        // Age up to the target (no-op for target 0).
        if target > current_age {
            server.store_mut().reset_measurements();
            server.reset_queue_stats();
            let mut written = 0u64;
            let mut ops = 0u64;
            // Latencies stream into a fixed-size histogram as the rounds'
            // completions arrive: no round's completions are kept.
            let mut interval_hist = LatencyHistogram::new();
            while current_age < target {
                let mut round_bytes = 0u64;
                overwrite_round(&mut server, &mut generator, config, |completion| {
                    interval_hist.record(completion.latency().as_nanos());
                    if let WorkloadOp::SafeWrite { size, .. } = completion.request.op {
                        round_bytes += size;
                        ops += 1;
                    }
                })?;
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
/// Only the payload bytes are summed; no completion is kept.
fn measure_read_pass(
    server: &mut StoreServer<'_>,
    generator: &mut WorkloadGenerator,
    sample: Option<usize>,
) -> Result<f64, StoreError> {
    let ops = generator.read_all();
    let limit = sample.unwrap_or(ops.len()).max(1);
    let ops: Vec<WorkloadOp> = ops.into_iter().take(limit).collect();
    server.store_mut().reset_measurements();
    let mut bytes = 0u64;
    server.run(serial(ops), |completion| {
        bytes += completion.receipt.payload_bytes;
    })?;
    let throughput = throughput_mb_per_sec(bytes, server.store().elapsed());
    server.store_mut().reset_measurements();
    Ok(throughput)
}

/// One client with no think time: the degenerate request schedule that
/// reproduces the serial harness exactly.
fn serial(ops: Vec<WorkloadOp>) -> Arrivals {
    Arrivals::Closed {
        ops,
        clients: 1,
        think_time: SimDuration::ZERO,
    }
}

/// The aging protocol's first phase (Section 4.4): every object of the
/// workload put once, by a single client with no think time.
///
/// Like [`StoreServer::run`], it hands each completion to `sink` and keeps
/// none: a caller that needs a statistic folds it in the sink, and one that
/// needs nothing passes `|_| ()`.
pub fn bulk_load(
    server: &mut StoreServer<'_>,
    generator: &mut WorkloadGenerator,
    sink: impl FnMut(Completion),
) -> Result<(), StoreError> {
    server.run(serial(generator.bulk_load()), sink)
}

/// One whole overwrite round of the aging protocol: every live object
/// safe-written once, in the generator's random order, by
/// [`ExperimentConfig::concurrency`] closed-loop clients with
/// [`ExperimentConfig::think_time_ms`] of think time.  Safe writes queued
/// together dispatch as one interleaved batch.  Each round advances the
/// storage age by one.
///
/// Each completion goes to `sink`, as in [`bulk_load`]; the round keeps none.
pub fn overwrite_round(
    server: &mut StoreServer<'_>,
    generator: &mut WorkloadGenerator,
    config: &ExperimentConfig,
    sink: impl FnMut(Completion),
) -> Result<(), StoreError> {
    let arrivals = Arrivals::Closed {
        ops: generator.overwrite_round(),
        clients: config.concurrency,
        think_time: SimDuration::from_millis_f64(config.think_time_ms),
    };
    server.run(arrivals, sink)
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
    bulk_load(&mut server, &mut generator, |_| ())?;
    for _ in 0..age_rounds {
        overwrite_round(&mut server, &mut generator, config, |_| ())?;
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
/// writes), and measures the mix's [`serial_capacity`].  The twin is
/// discarded; the measurement store is built fresh by
/// [`measure_mixed_load_calibrated`], so calibration cannot perturb it.
///
/// Capacity is a mean, so the serial run folds its completions into a sum
/// and a count: the calibration holds the mix and no completion, whatever
/// `ops` is.
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
    let capacity_ops_per_sec = serial_capacity(&mut StoreServer::new(twin.as_mut()), serial_mix)?;
    Ok(MixedCalibration {
        write_fraction,
        capacity_ops_per_sec,
        reads,
        writes,
    })
}

/// The serial single-client capacity of the store behind `server` over
/// `ops`, in operations per simulated second: one client with no think
/// time runs them, and capacity is the inverse of its mean latency (floored
/// at 1 ns).
///
/// The run folds each completion into a sum and a count and keeps none.
/// The mean is the expression [`LatencySummary::of`] computes, so the
/// result equals `1e3 / LatencySummary::of(&completions).mean_ms.max(1e-6)`
/// over the collected completions, bit for bit.
pub fn serial_capacity(
    server: &mut StoreServer<'_>,
    ops: Vec<WorkloadOp>,
) -> Result<f64, StoreError> {
    let (mut total_ns, mut count) = (0u64, 0u64);
    server.run(serial(ops), |completion| {
        total_ns += completion.latency().as_nanos();
        count += 1;
    })?;
    // No completion summarises to a zero mean, as in `LatencySummary::of`.
    let mean = if count == 0 {
        0.0
    } else {
        mean_ms(total_ns, count)
    };
    Ok(1e3 / mean.max(1e-6))
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

    /// A volume some substrate cannot format is refused on all three with
    /// one `BadConfig`.  Accepted once, `Constant(8 KiB)` at 50 % run to age
    /// 1 failed three ways: below four `MIN_SEGMENT_BYTES` segments
    /// (256 KiB) the log was `BadConfig` at build, the database `BadConfig`
    /// below one 64 KiB extent and `OutOfSpace` above it, and the
    /// filesystem ran even at 16 KiB.  At 256 KiB every substrate builds,
    /// and at 40 % every substrate loads: 12 objects take 24 LOB pages, 3
    /// of the engine's 4 extents, and their rows the fourth.
    #[test]
    fn a_volume_too_small_for_any_substrate_is_refused_on_every_substrate() {
        let smallest = 4 * lor_logstore::MIN_SEGMENT_BYTES;
        let mut config = mini_config();
        config.object_size = SizeDistribution::Constant(8 * 1024);
        for volume in [16 * 1024, 64 * 1024, 128 * 1024, smallest - 1] {
            config.volume_bytes = volume;
            assert!(matches!(config.validate(), Err(StoreError::BadConfig(_))));
            for kind in StoreKind::ALL {
                let outcome = run_aging_experiment(kind, &config, &[0, 1], false);
                assert!(
                    matches!(outcome, Err(StoreError::BadConfig(_))),
                    "{kind} on {volume} bytes: {outcome:?}"
                );
            }
        }
        config.volume_bytes = smallest;
        config.occupancy = 0.4;
        assert_eq!(config.object_count(), 12);
        assert_eq!(config.validate(), Ok(()));
        for kind in StoreKind::ALL {
            assert!(config.build_store(kind).is_ok(), "{kind}");
            let outcome = run_aging_experiment(kind, &config, &[0], false);
            assert!(outcome.is_ok(), "{kind}: {outcome:?}");
        }
    }

    /// The engine's LOB unit and its metadata-row unit each take whole
    /// 8-page extents, so `validate` counts the database's room in extents.
    /// While it counted the row pages as single pages, `Constant(8 KiB)` at
    /// 50 % passed on 256, 384, 512 and 768 KiB volumes and the database's
    /// bulk load ran out of space there.  1 and 2 MiB load on every
    /// substrate.
    #[test]
    fn a_population_whose_engine_units_overfill_its_extents_is_refused_on_every_substrate() {
        let mut config = mini_config();
        config.object_size = SizeDistribution::Constant(8 * 1024);
        for kib in [256, 384, 512, 768] {
            config.volume_bytes = kib * 1024;
            assert!(
                matches!(config.validate(), Err(StoreError::BadConfig(_))),
                "{kib} KiB"
            );
            for kind in StoreKind::ALL {
                let outcome = run_aging_experiment(kind, &config, &[0], false);
                assert!(
                    matches!(outcome, Err(StoreError::BadConfig(_))),
                    "{kind} on {kib} KiB: {outcome:?}"
                );
            }
        }
        for kib in [1024, 2048] {
            config.volume_bytes = kib * 1024;
            for kind in StoreKind::ALL {
                let outcome = run_aging_experiment(kind, &config, &[0], false);
                assert!(outcome.is_ok(), "{kind} on {kib} KiB: {outcome:?}");
            }
        }
    }

    #[test]
    fn an_object_smaller_than_one_allocation_unit_is_refused_on_every_substrate() {
        // Accepted once, this ran out of space in the filesystem's and the
        // database's bulk load and ran on the log.
        let mut config = mini_config();
        config.volume_bytes = 64 << 20;
        config.object_size = SizeDistribution::Constant(1000);
        assert!(matches!(config.validate(), Err(StoreError::BadConfig(_))));
        for kind in StoreKind::ALL {
            let outcome = run_aging_experiment(kind, &config, &[0], false);
            assert!(matches!(outcome, Err(StoreError::BadConfig(_))), "{kind}");
        }
        // A uniform distribution is judged by its smallest object.
        config.object_size = SizeDistribution::Uniform {
            min: MIN_OBJECT_BYTES - 1,
            max: 1 << 20,
        };
        assert!(matches!(config.validate(), Err(StoreError::BadConfig(_))));
        config.object_size = SizeDistribution::uniform_around(2 * MIN_OBJECT_BYTES);
        assert_eq!(config.validate(), Ok(()));
        // The unit is the engine's page, and covers the volume's cluster.
        let page = lor_blobkit::EngineConfig::new(64 << 20).page_size;
        assert_eq!(MIN_OBJECT_BYTES, page);
        let volume = crate::FsObjectStore::new(64 << 20).unwrap();
        assert!(MIN_OBJECT_BYTES >= volume.volume().cluster_size());
    }

    /// A probe's configurations, as `(volume, object size, occupancy)`:
    /// objects one byte past a page or two clusters on 16 MiB, and 256 KiB
    /// objects at the top of the occupancy range on 64 MiB.
    fn padding_probe(volume: u64, size: u64, occupancy: f64) -> ExperimentConfig {
        ExperimentConfig {
            volume_bytes: volume,
            occupancy,
            object_size: SizeDistribution::Constant(size),
            ..mini_config()
        }
    }

    /// Accepted once, each of these ran out of space in one substrate's
    /// bulk load while the others loaded: 8,193-byte objects take two
    /// 8,064-byte pages and three 4 KiB clusters, and 256 KiB objects at
    /// occupancy 1.0 fill 60.75 MiB of the log's 60 MiB of data segments.
    /// The database needs 2,138 pages of 2,048 at 0.55, the filesystem
    /// 4,083 clusters of 3,891 at 0.7.
    #[test]
    fn a_population_padding_overfills_is_refused_on_every_substrate() {
        let refused = [
            padding_probe(16 * MB, 8_193, 0.55),
            padding_probe(16 * MB, 8_193, 0.6),
            padding_probe(16 * MB, 8_193, 0.7),
            padding_probe(64 * MB, 256 * 1024, 1.0),
            // Bounded by its mean plus one cluster of padding an object.
            ExperimentConfig {
                object_size: SizeDistribution::Uniform {
                    min: 8_193,
                    max: 3 * 4096,
                },
                ..padding_probe(16 * MB, 0, 0.9)
            },
        ];
        for config in refused {
            assert!(
                matches!(config.validate(), Err(StoreError::BadConfig(_))),
                "{config:?}"
            );
            for kind in StoreKind::ALL {
                let outcome = run_aging_experiment(kind, &config, &[0], false);
                assert!(
                    matches!(outcome, Err(StoreError::BadConfig(_))),
                    "{kind}: {outcome:?}"
                );
            }
        }
    }

    /// The same probe's rows that load on every substrate stay accepted.
    #[test]
    fn a_population_that_fits_once_padded_bulk_loads_on_every_substrate() {
        for config in [
            padding_probe(16 * MB, 8_193, 0.5),
            padding_probe(64 * MB, 256 * 1024, 0.99),
        ] {
            for kind in StoreKind::ALL {
                let outcome = run_aging_experiment(kind, &config, &[0], false);
                assert!(outcome.is_ok(), "{kind}: {outcome:?}");
            }
        }
    }

    #[test]
    fn build_store_refuses_what_validate_refuses() {
        let refused = [
            ExperimentConfig {
                occupancy: 1.5,
                ..mini_config()
            },
            ExperimentConfig {
                concurrency: 0,
                ..mini_config()
            },
            ExperimentConfig {
                think_time_ms: f64::NAN,
                ..mini_config()
            },
        ];
        for config in refused {
            assert!(config.validate().is_err());
            for kind in StoreKind::ALL {
                let built = config.build_store(kind);
                assert!(matches!(built, Err(StoreError::BadConfig(_))), "{kind}");
            }
        }
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
