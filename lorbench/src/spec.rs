//! What the benchmark declares: the five workloads with their frozen
//! parameters, and every metric by name, unit and direction.  `BENCHMARK.json`
//! repeats these names; a unit test keeps the two in step.

use lor_core::{
    ExperimentConfig, FleetParallelism, MaintenanceConfig, PlacementPolicy, SizeDistribution,
    StoreKind,
};

/// Seconds one run measures when `--seconds` is not given; equals
/// `run_seconds` in `BENCHMARK.json`.
pub const DEFAULT_SECONDS: u64 = 16;
/// The seed whose simulated results are pinned by `golden/<workload>.txt`.
pub const GOLDEN_SEED: u64 = 42;
/// Highest storage age of the aging workloads (the paper's figures stop at 10).
pub const MAX_AGE: u32 = 10;
/// Objects read in the randomized read pass at each age.
pub const READ_SAMPLE: usize = 1000;
/// Overwrite rounds that age `serve_db`'s store before the timed mixed load.
pub const SERVE_PRE_AGE: u32 = 4;
/// Share of `serve_db`'s offered operations that are safe writes.
pub const SERVE_WRITE_FRACTION: f64 = 0.3;
/// `serve_db`'s offered load as a share of the calibrated serial capacity.
pub const SERVE_UTILISATION: f64 = 0.6;
/// Completions of `serve_db`'s mixed load between two samples of the
/// host-speed reference: about 0.3 s of host time.
pub const SERVE_OPS_PER_SEGMENT: usize = 8_000;
/// Shards and worker threads of `fleet_db`.
pub const FLEET_SHARDS: u32 = 16;
pub const FLEET_THREADS: u32 = 2;
/// The warm-up pass before every rep of `age_*` and `fleet_db` runs the same
/// workload at `1 / WARMUP_DIV` of the run's scale.  It is those workloads'
/// whole per-rep set-up (the library builds their stores inside the timed
/// call): without it their `setup_s` reads ~0.1 ms, which holds no bound.
pub const WARMUP_DIV: u64 = 16;

const KB: u64 = 1 << 10;
const MB: u64 = 1 << 20;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    AgeDb,
    AgeFs,
    AgeLog,
    ServeDb,
    FleetDb,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::AgeDb,
        Workload::AgeFs,
        Workload::AgeLog,
        Workload::ServeDb,
        Workload::FleetDb,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::AgeDb => "age_db",
            Workload::AgeFs => "age_fs",
            Workload::AgeLog => "age_log",
            Workload::ServeDb => "serve_db",
            Workload::FleetDb => "fleet_db",
        }
    }

    pub fn by_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn kind(self) -> StoreKind {
        match self {
            Workload::AgeFs => StoreKind::Filesystem,
            Workload::AgeLog => StoreKind::LogStructured,
            Workload::AgeDb | Workload::ServeDb | Workload::FleetDb => StoreKind::Database,
        }
    }

    /// Volume (aggregate, for the fleet) at full scale.
    fn full_volume_bytes(self) -> u64 {
        match self {
            Workload::AgeDb => 20_000_000_000,
            Workload::AgeFs => 40_000_000_000,
            Workload::AgeLog => 40_000_000_000,
            Workload::ServeDb => 10_000_000_000,
            Workload::FleetDb => 40_000_000_000,
        }
    }

    /// Smallest volume the workload still runs on: every shard of the fleet
    /// needs a workable slice.
    fn min_volume_bytes(self) -> u64 {
        match self {
            Workload::FleetDb => u64::from(FLEET_SHARDS) * 32 * MB,
            _ => 32 * MB,
        }
    }

    /// Operations `serve_db` offers in one rep at full scale.
    const SERVE_OPS: usize = 120_000;

    /// The frozen parameters at `1 / scale_div` of full scale.
    pub fn params(self, seed: u64, scale_div: u64) -> Params {
        let scale_div = scale_div.max(1);
        let object_size = match self {
            Workload::ServeDb => SizeDistribution::uniform_around(MB),
            _ => SizeDistribution::Constant(256 * KB),
        };
        let mut config = ExperimentConfig::paper_default(object_size);
        config.volume_bytes = (self.full_volume_bytes() / scale_div).max(self.min_volume_bytes());
        config.seed = seed;
        config.read_sample = Some(READ_SAMPLE);
        match self {
            Workload::ServeDb => {
                config.placement = PlacementPolicy::Unrestricted;
                config.maintenance = Some(MaintenanceConfig::substrate_aware(5.0, 2000.0));
            }
            Workload::FleetDb => {
                config.fleet_parallelism = FleetParallelism::Threads(FLEET_THREADS);
            }
            _ => {}
        }
        Params {
            workload: self,
            config,
            serve_ops: (Self::SERVE_OPS / scale_div as usize).max(64),
        }
    }
}

/// One workload's inputs.  Everything the library receives derives from
/// `config` (the seed included) and the op counts here.
#[derive(Debug, Clone)]
pub struct Params {
    pub workload: Workload,
    pub config: ExperimentConfig,
    /// Reads plus safe writes `serve_db` offers in one rep.
    pub serve_ops: usize,
}

impl Params {
    /// Foreground operations one rep attempts.
    pub fn ops_per_rep(&self) -> u64 {
        let objects = self.config.object_count();
        let rounds = 1 + u64::from(MAX_AGE);
        match self.workload {
            Workload::ServeDb => self.serve_ops as u64,
            Workload::FleetDb => objects * rounds,
            _ => objects * rounds + rounds * objects.min(READ_SAMPLE as u64),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One declared metric.  `count` metrics are functions of the seed alone and
/// compare at 0 % tolerance; the rest are host times.
#[derive(Debug, Clone, Copy)]
pub struct MetricDecl {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub count: bool,
}

const fn time(name: &'static str, unit: &'static str) -> MetricDecl {
    MetricDecl {
        name,
        unit,
        better: Better::Lower,
        count: false,
    }
}

const fn count(name: &'static str, unit: &'static str, better: Better) -> MetricDecl {
    MetricDecl {
        name,
        unit,
        better,
        count: true,
    }
}

/// What a user of the simulator sees, from the untraced run.  (`fail_share`
/// is carried by the result line's `attempted` / `failed` instead of being a
/// metric: it is 0 on every accepted run, and a bounded metric may never be 0.)
pub const END_TO_END: [MetricDecl; 4] = [
    MetricDecl {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        count: false,
    },
    time("cpu_us_per_op", "us"),
    time("peak_rss_mb", "MB"),
    time("setup_s", "s"),
];

/// What each layer costs, from the traced run.  A metric that does not apply
/// to a workload (no `blobkit` under `age_fs`) reads 0 there.
pub const PER_LAYER: [MetricDecl; 64] = [
    time("server.self_ns_per_op", "ns"),
    time("server.null_ns_per_op", "ns"),
    count("server.dispatches", "count", Better::Lower),
    count("server.batch_mean", "ops", Better::Higher),
    time("server.age_cost_ratio", "ratio"),
    time("store.call_ns_per_op", "ns"),
    time("store.self_ns_per_op", "ns"),
    time("store.put_p50_ns", "ns"),
    time("store.put_p99_ns", "ns"),
    time("store.swb_item_p50_ns", "ns"),
    time("store.swb_item_p99_ns", "ns"),
    time("store.get_p50_ns", "ns"),
    time("store.get_p99_ns", "ns"),
    time("store.lookup_ns_per_call", "ns"),
    time("blobkit.replay_ns_per_op", "ns"),
    time("blobkit.insert_p50_ns", "ns"),
    time("blobkit.update_item_p50_ns", "ns"),
    time("blobkit.update_item_p99_ns", "ns"),
    time("blobkit.read_plan_p50_ns", "ns"),
    count("blobkit.pages_allocated", "count", Better::Lower),
    count("blobkit.ghost_cleanups", "count", Better::Lower),
    count("blobkit.forced_cleanups", "count", Better::Lower),
    time("fskit.replay_ns_per_op", "ns"),
    time("fskit.write_file_p50_ns", "ns"),
    time("fskit.safe_write_item_p50_ns", "ns"),
    time("fskit.safe_write_item_p99_ns", "ns"),
    time("fskit.read_plan_p50_ns", "ns"),
    count("fskit.allocation_events", "count", Better::Lower),
    count("fskit.appends", "count", Better::Lower),
    count("fskit.forced_checkpoints", "count", Better::Lower),
    time("logstore.replay_ns_per_op", "ns"),
    time("logstore.update_p50_ns", "ns"),
    time("logstore.update_p99_ns", "ns"),
    count("logstore.emergency_segments_freed", "count", Better::Lower),
    count("logstore.emergency_bytes_copied", "bytes", Better::Lower),
    count("alloc.free_runs_aged", "count", Better::Lower),
    time("alloc.pick_ns", "ns"),
    time("alloc.take_free_ns", "ns"),
    time("alloc.largest_ns", "ns"),
    time("disksim.replay_ns_per_op", "ns"),
    time("disksim.service_ns_per_req", "ns"),
    count("disksim.requests", "count", Better::Lower),
    count("disksim.segments_per_req", "count", Better::Lower),
    time("maint.slice_ns_per_op", "ns"),
    time("maint.slice_p50_ns", "ns"),
    time("maint.slice_p99_ns", "ns"),
    count("maint.slices", "count", Better::Lower),
    count("maint.useful_slice_frac", "ratio", Better::Higher),
    count("maint.bg_bytes", "bytes", Better::Lower),
    count("maint.defrag_runs", "count", Better::Lower),
    count("maint.ghost_runs", "count", Better::Lower),
    time("shard.route_ns", "ns"),
    time("shard.sum_shard_ns_per_op", "ns"),
    time("shard.overhead_ns_per_op", "ns"),
    MetricDecl {
        name: "shard.speedup_t2",
        unit: "ratio",
        better: Better::Higher,
        count: false,
    },
    time("shard.imbalance", "ratio"),
    time("workload.gen_ns_per_op", "ns"),
    time("hist.record_ns", "ns"),
    time("obs.null_span_ns", "ns"),
    time("obs.trace_span_ns", "ns"),
    time("obs.trace_overhead_frac", "ratio"),
    count("obs.dropped_spans", "count", Better::Lower),
    time("trace.overhead_frac", "ratio"),
    time("trace.unattributed_frac", "ratio"),
];
