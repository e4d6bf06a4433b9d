//! The untraced reps: each workload's untimed preparation and its timed
//! body, which calls the library as a user would.  The timed body returns
//! the rep's simulated results as [`SimText`]; the caller times it, and is
//! handed control (`pause`) every few tenths of a second of host time — at a
//! round boundary or inside the completion sink, never inside a library call
//! that a user would not also see return — to sample the host-speed
//! reference.

use lor_core::{
    age_store, calibrate_mixed_load, Completion, LatencyHistogram, MixedOpenLoop, ObjectStore,
    StoreError, StoreServer, WorkloadGenerator, WorkloadOp,
};
use lor_shard::{RouterPolicy, ShardedStore};

use crate::aging::{aging_loop, LoopTimes};
use crate::digest::SimText;
use crate::spec::{
    Params, Workload, FLEET_SHARDS, MAX_AGE, SERVE_OPS_PER_SEGMENT, SERVE_PRE_AGE,
    SERVE_UTILISATION, SERVE_WRITE_FRACTION,
};

/// Storage ages at which the aging workloads take a checkpoint.
pub fn measure_ages() -> Vec<u32> {
    (0..=MAX_AGE).collect()
}

pub const FLEET_ROUTER: RouterPolicy = RouterPolicy::ConsistentHash { vnodes: 16 };

/// Everything a rep needs that is built outside the timed region.
pub enum Prepared {
    /// `run_aging_experiment` builds its own store: nothing to hold.
    Aging,
    Serve(ServeInputs),
    Fleet(Box<FleetInputs>),
}

pub struct ServeInputs {
    pub store: Box<dyn ObjectStore>,
    pub reads: Vec<WorkloadOp>,
    pub writes: Vec<WorkloadOp>,
    pub load: MixedOpenLoop,
    pub capacity_ops_per_sec: f64,
}

pub struct FleetInputs {
    pub fleet: ShardedStore,
    /// The bulk load followed by the overwrite rounds, generated up front.
    pub rounds: Vec<Vec<WorkloadOp>>,
}

/// `serve_db`'s calibrated serial capacity (operations per simulated
/// second).  Deterministic for a config, so a run calibrates once.
pub fn serve_capacity(params: &Params) -> Result<f64, StoreError> {
    let calibration = calibrate_mixed_load(
        params.workload.kind(),
        &params.config,
        SERVE_PRE_AGE,
        SERVE_WRITE_FRACTION,
        params.serve_ops,
    )?;
    Ok(calibration.capacity_ops_per_sec)
}

/// The aged store and the sampled mix of `serve_db`.  The samples are drawn
/// exactly as `calibrate_mixed_load` draws them on its twin store, so the
/// timed mix is the calibrated one.
pub fn prepare_serve(
    params: &Params,
    capacity_ops_per_sec: f64,
) -> Result<ServeInputs, StoreError> {
    let (store, mut generator) = age_store(params.workload.kind(), &params.config, SERVE_PRE_AGE)?;
    let write_ops = ((params.serve_ops as f64) * SERVE_WRITE_FRACTION).round() as usize;
    let read_ops = params.serve_ops - write_ops.min(params.serve_ops);
    let reads = generator.read_sample(read_ops);
    let writes = generator.safe_write_sample(write_ops);
    let load = MixedOpenLoop::from_total(
        SERVE_UTILISATION * capacity_ops_per_sec,
        SERVE_WRITE_FRACTION,
        params.config.seed,
    );
    Ok(ServeInputs {
        store,
        reads,
        writes,
        load,
        capacity_ops_per_sec,
    })
}

pub fn prepare_fleet(params: &Params) -> Result<FleetInputs, StoreError> {
    let fleet = ShardedStore::new(
        params.workload.kind(),
        &params.config,
        FLEET_SHARDS,
        FLEET_ROUTER,
    )?;
    Ok(FleetInputs {
        fleet,
        rounds: fleet_rounds(params),
    })
}

pub fn fleet_rounds(params: &Params) -> Vec<Vec<WorkloadOp>> {
    let mut generator = WorkloadGenerator::new(params.config.workload());
    let mut rounds = vec![generator.bulk_load()];
    rounds.extend((0..MAX_AGE).map(|_| generator.overwrite_round()));
    rounds
}

/// Untimed preparation of one rep: a warm-up pass of the same workload on
/// `warmup`'s (`WARMUP_DIV`-times smaller) volume, then the rep's own inputs.
/// `serve_db` skips the warm-up: ageing its store to `SERVE_PRE_AGE` is
/// warm-up enough.  So does a run already on the workload's smallest volume.
pub fn prepare(
    params: &Params,
    warmup: &Params,
    serve_capacity: f64,
) -> Result<Prepared, StoreError> {
    let warm = warmup.config.volume_bytes < params.config.volume_bytes;
    match params.workload {
        Workload::ServeDb => Ok(Prepared::Serve(prepare_serve(params, serve_capacity)?)),
        Workload::FleetDb => {
            if warm {
                run_fleet(&mut prepare_fleet(warmup)?, &mut || ())?;
            }
            Ok(Prepared::Fleet(Box::new(prepare_fleet(params)?)))
        }
        _ => {
            if warm {
                run_aging(warmup, &mut || ())?;
            }
            Ok(Prepared::Aging)
        }
    }
}

/// The timed body of one rep.
pub fn run_rep(
    params: &Params,
    prepared: &mut Prepared,
    pause: &mut dyn FnMut(),
) -> Result<SimText, StoreError> {
    match prepared {
        Prepared::Aging => run_aging(params, pause),
        Prepared::Serve(inputs) => run_serve(inputs, pause),
        Prepared::Fleet(inputs) => run_fleet(inputs, pause),
    }
}

/// What `run_aging_experiment` does — build the store, bulk load, age with a
/// checkpoint and a read pass at every age, drop the store — through the
/// benchmark's copy of its loop, which pauses between rounds.
fn run_aging(params: &Params, pause: &mut dyn FnMut()) -> Result<SimText, StoreError> {
    let mut store = params.config.build_store(params.workload.kind())?;
    let points = aging_loop(
        params,
        store.as_mut(),
        None,
        &mut LoopTimes::default(),
        pause,
    )?;
    let mut sim = SimText::new();
    sim.age_points(&points);
    Ok(sim)
}

/// Per-class latency histograms fed by the mixed run's completion sink.
#[derive(Default)]
pub struct ServeHists {
    pub reads: LatencyHistogram,
    pub writes: LatencyHistogram,
}

impl ServeHists {
    pub fn record(&mut self, completion: Completion) {
        let hist = if matches!(completion.request.op, WorkloadOp::Get { .. }) {
            &mut self.reads
        } else {
            &mut self.writes
        };
        hist.record(completion.latency().as_nanos());
    }
}

/// The mixed open-loop run over an already-aged store behind `server`, and
/// its simulated results.  Shared by the untraced and the traced rep so both
/// are the same work.  `pause` is called from the completion sink after every
/// `SERVE_OPS_PER_SEGMENT` completions.
pub fn serve_body(
    server: &mut StoreServer<'_>,
    reads: Vec<WorkloadOp>,
    writes: Vec<WorkloadOp>,
    load: MixedOpenLoop,
    capacity_ops_per_sec: f64,
    pause: &mut dyn FnMut(),
) -> Result<SimText, StoreError> {
    let fragments_before = server.store().fragmentation();
    let mut hists = ServeHists::default();
    let mut completed = 0usize;
    server.run_mixed_open_loop_with(reads, writes, load, &mut |completion| {
        hists.record(completion);
        completed += 1;
        if completed.is_multiple_of(SERVE_OPS_PER_SEGMENT) {
            pause();
        }
    })?;
    let mut all = hists.reads.clone();
    all.merge(&hists.writes);

    let mut sim = SimText::new();
    sim.float("capacity_ops_per_sec", capacity_ops_per_sec);
    sim.latency("reads", &hists.reads.summary());
    sim.latency("writes", &hists.writes.summary());
    sim.latency("all", &all.summary());
    sim.float("queue_depth_mean", server.queue_stats().mean_depth());
    sim.int("queue_depth_max", server.queue_stats().max_depth);
    sim.fragmentation("before", &fragments_before);
    sim.fragmentation("after", &server.store().fragmentation());
    if let Some(stats) = server.store().maintenance_stats() {
        sim.maintenance(&stats);
    }
    sim.int("objects", server.store().object_count() as u64);
    sim.int("store_elapsed_ns", server.store().elapsed().as_nanos());
    sim.int("server_now_ns", server.now().as_nanos());
    Ok(sim)
}

fn run_serve(inputs: &mut ServeInputs, pause: &mut dyn FnMut()) -> Result<SimText, StoreError> {
    let mut server = StoreServer::new(inputs.store.as_mut());
    serve_body(
        &mut server,
        std::mem::take(&mut inputs.reads),
        std::mem::take(&mut inputs.writes),
        inputs.load,
        inputs.capacity_ops_per_sec,
        pause,
    )
}

/// Bulk load plus the overwrite rounds through `ShardedStore::load`, pausing
/// between two rounds.
pub fn run_fleet(inputs: &mut FleetInputs, pause: &mut dyn FnMut()) -> Result<SimText, StoreError> {
    for (index, round) in std::mem::take(&mut inputs.rounds).into_iter().enumerate() {
        if index > 0 {
            pause();
        }
        inputs.fleet.load(round)?;
    }
    Ok(fleet_sim(&inputs.fleet))
}

pub fn fleet_sim(fleet: &ShardedStore) -> SimText {
    let mut sim = SimText::new();
    for (shard, summary) in fleet.per_shard_fragmentation().iter().enumerate() {
        sim.fragmentation(&format!("shard{shard:02}"), summary);
        sim.int(
            &format!("shard{shard:02}.elapsed_ns"),
            fleet.shard(shard).elapsed().as_nanos(),
        );
    }
    sim.fragmentation("fleet", &fleet.fragmentation());
    sim.int("fleet.objects", fleet.object_count() as u64);
    sim.int("fleet.elapsed_ns", fleet.elapsed().as_nanos());
    sim
}
