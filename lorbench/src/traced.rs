//! The traced run: one rep of the workload with every layer's host time
//! attributed.  All recording lives here and in the modules this one drives
//! ([`TimedStore`] at the trait boundary, [`replay`] below it, [`kernels`]
//! for what is too cheap to time in place); the library is only called.
//!
//! End-to-end metrics never come from here — the caller measures an
//! untraced rep first and hands its wall time in, so `trace.overhead_frac`
//! is traced ÷ untraced − 1 of the same work in the same process.

use std::collections::BTreeMap;
use std::time::Instant;

use lor_core::lor_alloc::FitPolicy;
use lor_core::lor_disksim::SimDuration;
use lor_core::lor_obs::Obs;
use lor_core::{FleetParallelism, StoreError, StoreServer, WorkloadOp};
use lor_shard::Router;

use crate::aging::{aging_loop, since, LoopTimes};
use crate::digest::SimText;
use crate::kernels;
use crate::replay::{self, ReplayReport};
use crate::spec::{Params, Workload, FLEET_SHARDS, PER_LAYER};
use crate::stats::{percentile, ratio};
use crate::timed_store::{Method, TimedStore, TraceLog};
use crate::workloads::{self, FLEET_ROUTER};

/// Ring capacity of the `lor-obs` recorder attached for
/// `obs.trace_overhead_frac`; what does not fit is counted as dropped.
const OBS_RING: usize = 1 << 16;

/// What the traced run reports.
pub struct LayerReport {
    /// Every `PER_LAYER` metric, by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Sample count behind each percentile metric.
    pub samples: BTreeMap<&'static str, u64>,
    /// Each layer's share of the traced rep's wall time.
    pub shares: Vec<(&'static str, f64)>,
    /// Problems that make the traced run incorrect (empty when it closes).
    pub faults: Vec<String>,
    pub trace_log: Option<TraceLog>,
}

impl LayerReport {
    fn new() -> Self {
        LayerReport {
            metrics: PER_LAYER.iter().map(|decl| (decl.name, 0.0)).collect(),
            samples: BTreeMap::new(),
            shares: Vec::new(),
            faults: Vec::new(),
            trace_log: None,
        }
    }

    fn set(&mut self, name: &'static str, value: f64) {
        let slot = self
            .metrics
            .get_mut(name)
            .unwrap_or_else(|| panic!("{name} is not a declared per-layer metric"));
        *slot = value;
    }

    /// p50 (and p99 where declared) of per-call samples under `stem`.
    fn set_percentiles(&mut self, stem: &'static str, p99: Option<&'static str>, ns: &mut [u64]) {
        self.samples.insert(stem, ns.len() as u64);
        self.set(stem, percentile(ns, 0.50));
        if let Some(p99) = p99 {
            self.set(p99, percentile(ns, 0.99));
        }
    }

    fn check(&mut self, ok: bool, fault: impl FnOnce() -> String) {
        if !ok {
            self.faults.push(fault());
        }
    }
}

/// The untraced rep the traced one is compared with.
pub struct Untraced<'a> {
    pub wall_ns: u64,
    pub sim: &'a SimText,
}

pub fn run(
    params: &Params,
    serve_capacity: f64,
    untraced: Untraced<'_>,
) -> Result<LayerReport, StoreError> {
    let mut report = LayerReport::new();
    match params.workload {
        Workload::ServeDb => traced_serve(params, serve_capacity, &untraced, &mut report)?,
        Workload::FleetDb => traced_fleet(params, &untraced, &mut report)?,
        _ => traced_aging(params, &untraced, &mut report)?,
    }

    // Workload-independent kernels, so every traced run carries them.
    report.set("server.null_ns_per_op", kernels::server_null_ns());
    report.set("hist.record_ns", kernels::hist_record_ns());
    report.set(
        "workload.gen_ns_per_op",
        kernels::workload_gen_ns(&params.config.workload()),
    );
    let (null_span, trace_span) = kernels::obs_span_ns();
    report.set("obs.null_span_ns", null_span);
    report.set("obs.trace_span_ns", trace_span);
    Ok(report)
}

/// One rep of the loop copy around a freshly built store — build and drop
/// inside the wall, as in `run_aging_experiment`.  Returns the digest text,
/// the times, the trace log (when `interpose`) and the final fragmentation.
struct LoopRun {
    sim: SimText,
    times: LoopTimes,
    log: Option<TraceLog>,
    build_drop_ns: u64,
    final_fragmentation: lor_core::lor_alloc::FragmentationSummary,
    final_objects: usize,
}

fn run_loop(params: &Params, interpose: bool, obs: Option<Obs>) -> Result<LoopRun, StoreError> {
    let wall = Instant::now();
    let mut times = LoopTimes::default();
    let started = Instant::now();
    let mut store = params.config.build_store(params.workload.kind())?;
    let mut build_drop_ns = since(started);
    let (points, log) = if interpose {
        let mut timed = TimedStore::new(store.as_mut());
        let points = aging_loop(params, &mut timed, obs, &mut times, &mut || ())?;
        (points, Some(timed.into_log()))
    } else {
        (
            aging_loop(params, store.as_mut(), obs, &mut times, &mut || ())?,
            None,
        )
    };
    let final_fragmentation = store.fragmentation();
    let final_objects = store.object_count();
    let started = Instant::now();
    drop(store);
    build_drop_ns += since(started);
    times.wall_ns = since(wall);
    let mut sim = SimText::new();
    sim.age_points(&points);
    Ok(LoopRun {
        sim,
        times,
        log,
        build_drop_ns,
        final_fragmentation,
        final_objects,
    })
}

/// The `store.*` and `server.*` metrics every `TimedStore` run yields.
/// `server_ns` is the host time inside `StoreServer` runs, store calls
/// included; `ops` the rep's foreground operations.  Returns the server's
/// self time: its runs minus the store calls made inside them.
fn boundary_metrics(report: &mut LayerReport, log: &TraceLog, server_ns: u64, ops: u64) -> u64 {
    let per_op = |ns: u64| ns as f64 / ops.max(1) as f64;
    let dispatch_ns: u64 = [
        Method::Put,
        Method::Get,
        Method::SafeWriteBatch,
        Method::Delete,
        Method::MaintenanceSlice,
    ]
    .iter()
    .map(|&method| log.total_ns(method))
    .sum();
    let server_self_ns = server_ns.saturating_sub(dispatch_ns);
    report.set("server.self_ns_per_op", per_op(server_self_ns));
    report.set("server.dispatches", f64::from(log.dispatches));
    let batches = log.spans_of(Method::SafeWriteBatch).count() as f64;
    let batched: u64 = log
        .spans_of(Method::SafeWriteBatch)
        .map(|span| u64::from(span.items))
        .sum();
    report.set("server.batch_mean", ratio(batched as f64, batches));
    report.set("store.call_ns_per_op", per_op(log.layer_ns("store")));

    let durations =
        |method: Method| -> Vec<u64> { log.spans_of(method).map(|span| span.dur_ns).collect() };
    report.set_percentiles(
        "store.put_p50_ns",
        Some("store.put_p99_ns"),
        &mut durations(Method::Put),
    );
    report.set_percentiles(
        "store.get_p50_ns",
        Some("store.get_p99_ns"),
        &mut durations(Method::Get),
    );
    let mut per_item: Vec<u64> = log
        .spans_of(Method::SafeWriteBatch)
        .map(|span| span.dur_ns / u64::from(span.items.max(1)))
        .collect();
    report.set_percentiles(
        "store.swb_item_p50_ns",
        Some("store.swb_item_p99_ns"),
        &mut per_item,
    );
    let lookups = log.spans_of(Method::SizeOf).count() + log.spans_of(Method::Contains).count();
    report.set(
        "store.lookup_ns_per_call",
        ratio(
            (log.total_ns(Method::SizeOf) + log.total_ns(Method::Contains)) as f64,
            lookups as f64,
        ),
    );
    server_self_ns
}

/// The `maint.*` time metrics from the `maintenance_slice` spans.
fn maint_metrics(report: &mut LayerReport, log: &TraceLog, ops: u64) {
    let slices = log.spans_of(Method::MaintenanceSlice).count() as f64;
    let useful = log
        .spans_of(Method::MaintenanceSlice)
        .filter(|span| span.items > 0)
        .count() as f64;
    report.set(
        "maint.slice_ns_per_op",
        log.total_ns(Method::MaintenanceSlice) as f64 / ops.max(1) as f64,
    );
    let mut durations: Vec<u64> = log
        .spans_of(Method::MaintenanceSlice)
        .map(|span| span.dur_ns)
        .collect();
    report.set_percentiles(
        "maint.slice_p50_ns",
        Some("maint.slice_p99_ns"),
        &mut durations,
    );
    report.set("maint.slices", slices);
    report.set("maint.useful_slice_frac", ratio(useful, slices));
}

fn age_cost_ratio(rounds: &[(u64, u64)]) -> f64 {
    let per_op = |&(ns, ops): &(u64, u64)| ns as f64 / ops.max(1) as f64;
    match (rounds.first(), rounds.last()) {
        (Some(first), Some(last)) if rounds.len() > 1 => ratio(per_op(last), per_op(first)),
        _ => 0.0,
    }
}

fn traced_aging(
    params: &Params,
    untraced: &Untraced<'_>,
    report: &mut LayerReport,
) -> Result<(), StoreError> {
    let ops = params.ops_per_rep();
    let per_op = |ns: u64| ns as f64 / ops as f64;
    let run = run_loop(params, true, None)?;
    let log = run.log.expect("interposed run records a log");
    report.check(run.sim == *untraced.sim, || {
        "traced sim_digest differs from the untraced rep's: the interposer or the loop copy \
         changed simulated results"
            .into()
    });

    let server_self_ns = boundary_metrics(report, &log, run.times.server_ns, ops) as f64;
    report.set("server.age_cost_ratio", age_cost_ratio(&run.times.rounds));
    report.set(
        "trace.overhead_frac",
        run.times.wall_ns as f64 / untraced.wall_ns as f64 - 1.0,
    );

    // Below the boundary.
    let kind = params.workload.kind();
    let mut below = replay::replay(kind, &params.config, &log);
    report.check(
        below.fragmentation.as_ref() == Some(&run.final_fragmentation)
            && below.objects == run.final_objects,
        || "replayed substrate does not end in the live store's fragmentation summary".into(),
    );
    report.check(below.sim_disk_ns == log.receipt_disk_ns, || {
        format!(
            "replayed disk time {} ns differs from the live receipts' {} ns",
            below.sim_disk_ns, log.receipt_disk_ns
        )
    });
    substrate_metrics(report, params.workload, &mut below, ops);
    let disk_ns = below.disk_build_ns + below.disk_service_ns;
    report.set("disksim.replay_ns_per_op", per_op(disk_ns));
    report.set(
        "disksim.service_ns_per_req",
        ratio(below.disk_service_ns as f64, below.disk_requests as f64),
    );
    report.set("disksim.requests", below.disk_requests as f64);
    report.set(
        "disksim.segments_per_req",
        ratio(below.disk_segments as f64, below.disk_requests as f64),
    );
    let store_ns = log.layer_ns("store") + run.build_drop_ns;
    // A residual of two passes run seconds apart: where the adapter's own
    // time is ~0 a noisy negative must not pass for an improvement.
    let store_residual_ns = store_ns as f64 - below.substrate_ns as f64 - disk_ns as f64;
    let store_self_ns = store_residual_ns.max(0.0);
    report.set("store.self_ns_per_op", store_self_ns / ops as f64);

    let alloc = kernels::alloc(
        &below.free_map,
        below.request_len,
        params.config.allocation_policy.fit_or(FitPolicy::FirstFit),
        params.config.placement,
    );
    report.set("alloc.free_runs_aged", alloc.free_runs as f64);
    report.set("alloc.pick_ns", alloc.pick_ns);
    report.set("alloc.take_free_ns", alloc.take_free_ns);
    report.set("alloc.largest_ns", alloc.largest_ns);

    // Shares of the traced rep's wall.
    let wall = run.times.wall_ns as f64;
    let substrate_layer = match kind {
        lor_core::StoreKind::Database => "blobkit",
        lor_core::StoreKind::Filesystem => "fskit",
        lor_core::StoreKind::LogStructured => "logstore",
    };
    let shares = [
        ("server", server_self_ns),
        ("store", store_self_ns),
        (substrate_layer, below.substrate_ns as f64),
        ("disksim", disk_ns as f64),
        ("workload", run.times.workload_ns as f64),
        ("hist", run.times.hist_ns as f64),
    ];
    // The unattributed share is taken against the raw residual, so the
    // clamp above cannot turn replay noise into uncovered wall.
    let attributed: f64 = shares.iter().map(|(_, ns)| ns).sum::<f64>() + store_residual_ns.min(0.0);
    report.shares = shares
        .iter()
        .map(|&(layer, ns)| (layer, ns / wall))
        .collect();
    report.set("trace.unattributed_frac", (wall - attributed) / wall);

    // The inert `lor-obs` handle sits on every op; what does a live one cost?
    if params.workload == Workload::AgeLog {
        let (obs, handle) = Obs::trace(OBS_RING);
        let observed = run_loop(params, false, Some(obs))?;
        report.check(observed.sim == *untraced.sim, || {
            "sim_digest with lor-obs tracing attached differs from the untraced rep's".into()
        });
        report.set(
            "obs.trace_overhead_frac",
            observed.times.wall_ns as f64 / untraced.wall_ns as f64 - 1.0,
        );
        report.set("obs.dropped_spans", handle.dropped_spans() as f64);
    }
    report.trace_log = Some(log);
    Ok(())
}

fn substrate_metrics(
    report: &mut LayerReport,
    workload: Workload,
    below: &mut ReplayReport,
    ops: u64,
) {
    let replay_ns_per_op = below.substrate_ns as f64 / ops as f64;
    let counts = below.counts;
    match workload {
        Workload::AgeDb => {
            report.set("blobkit.replay_ns_per_op", replay_ns_per_op);
            report.set_percentiles("blobkit.insert_p50_ns", None, &mut below.put_ns);
            report.set_percentiles(
                "blobkit.update_item_p50_ns",
                Some("blobkit.update_item_p99_ns"),
                &mut below.batch_item_ns,
            );
            report.set_percentiles("blobkit.read_plan_p50_ns", None, &mut below.get_ns);
            report.set("blobkit.pages_allocated", counts.pages_allocated as f64);
            report.set("blobkit.ghost_cleanups", counts.ghost_cleanups as f64);
            report.set("blobkit.forced_cleanups", counts.forced_cleanups as f64);
        }
        Workload::AgeFs => {
            report.set("fskit.replay_ns_per_op", replay_ns_per_op);
            report.set_percentiles("fskit.write_file_p50_ns", None, &mut below.put_ns);
            report.set_percentiles(
                "fskit.safe_write_item_p50_ns",
                Some("fskit.safe_write_item_p99_ns"),
                &mut below.batch_item_ns,
            );
            report.set_percentiles("fskit.read_plan_p50_ns", None, &mut below.get_ns);
            report.set("fskit.allocation_events", counts.allocation_events as f64);
            report.set("fskit.appends", counts.appends as f64);
            report.set("fskit.forced_checkpoints", counts.forced_checkpoints as f64);
        }
        Workload::AgeLog => {
            report.set("logstore.replay_ns_per_op", replay_ns_per_op);
            report.set_percentiles(
                "logstore.update_p50_ns",
                Some("logstore.update_p99_ns"),
                &mut below.batch_item_ns,
            );
            report.set(
                "logstore.emergency_segments_freed",
                counts.emergency_segments_freed as f64,
            );
            report.set(
                "logstore.emergency_bytes_copied",
                counts.emergency_bytes_copied as f64,
            );
        }
        Workload::ServeDb | Workload::FleetDb => {}
    }
}

fn traced_serve(
    params: &Params,
    serve_capacity: f64,
    untraced: &Untraced<'_>,
    report: &mut LayerReport,
) -> Result<(), StoreError> {
    let ops = params.ops_per_rep();
    let mut inputs = workloads::prepare_serve(params, serve_capacity)?;
    let mut timed = TimedStore::new(inputs.store.as_mut());
    let started = Instant::now();
    let sim = {
        let mut server = StoreServer::new(&mut timed);
        workloads::serve_body(
            &mut server,
            std::mem::take(&mut inputs.reads),
            std::mem::take(&mut inputs.writes),
            inputs.load,
            serve_capacity,
            &mut || (),
        )?
    };
    let wall_ns = since(started);
    let log = timed.into_log();
    report.check(sim == *untraced.sim, || {
        "traced sim_digest differs from the untraced rep's".into()
    });

    // `serve_body` is one server run plus a few direct store reads.
    let direct_ns = log.total_ns(Method::Fragmentation);
    let server_self_ns = boundary_metrics(report, &log, wall_ns.saturating_sub(direct_ns), ops);
    maint_metrics(report, &log, ops);
    if let Some(stats) = inputs.store.maintenance_stats() {
        report.set("maint.bg_bytes", stats.background_bytes as f64);
        report.set("maint.defrag_runs", stats.defrag.runs as f64);
        report.set("maint.ghost_runs", stats.ghost_cleanup.runs as f64);
    }
    report.set(
        "trace.overhead_frac",
        wall_ns as f64 / untraced.wall_ns as f64 - 1.0,
    );
    // Maintenance interleaves with the op log, so nothing is replayed below
    // the boundary: the store share includes its substrate and disk, and
    // the server's self time is the residual — nothing is left unattributed.
    let wall = wall_ns as f64;
    report.shares = vec![
        ("server", server_self_ns as f64 / wall),
        ("store", log.layer_ns("store") as f64 / wall),
        ("maint", log.layer_ns("maint") as f64 / wall),
    ];
    report.trace_log = Some(log);
    Ok(())
}

/// The fleet peel: the `Threads(2)` rep is the caller's untraced one; here
/// the same rounds run through a serial fleet, and then each shard's
/// sub-stream (partitioned with the public router) runs through a bare
/// `StoreServer`, one shard after another.
fn traced_fleet(
    params: &Params,
    untraced: &Untraced<'_>,
    report: &mut LayerReport,
) -> Result<(), StoreError> {
    let ops = params.ops_per_rep();
    let per_op = |ns: f64| ns / ops as f64;

    let mut serial = workloads::prepare_fleet(params)?;
    serial.fleet.set_parallelism(FleetParallelism::Serial);
    let mut round_ns = Vec::with_capacity(serial.rounds.len());
    let started = Instant::now();
    for round in std::mem::take(&mut serial.rounds) {
        let round_started = Instant::now();
        let applied = serial.fleet.load(round)?;
        round_ns.push((since(round_started), applied as u64));
    }
    let serial_ns = since(started) as f64;
    let serial_sim = workloads::fleet_sim(&serial.fleet);
    report.check(serial_sim == *untraced.sim, || {
        "serial fleet sim_digest differs from the Threads(2) rep's".into()
    });
    // Round 0 is the bulk load; the overwrite rounds follow.
    report.set("server.age_cost_ratio", age_cost_ratio(&round_ns[1..]));

    // Partition exactly as the fleet does: puts by the router, safe writes
    // follow the object (which never moves: no rebalancing here).
    let shards = FLEET_SHARDS as usize;
    let router = Router::new(FLEET_ROUTER, FLEET_SHARDS);
    let rounds = workloads::fleet_rounds(params);
    let mut streams: Vec<Vec<Vec<WorkloadOp>>> = vec![vec![Vec::new(); rounds.len()]; shards];
    for (index, round) in rounds.iter().enumerate() {
        for op in round {
            let (WorkloadOp::Put { key, size } | WorkloadOp::SafeWrite { key, size }) = *op else {
                unreachable!("fleet rounds hold puts and safe writes only");
            };
            streams[router.route(key, size) as usize][index].push(*op);
        }
    }
    let mut per_shard = params.config.clone();
    per_shard.volume_bytes = params.config.volume_bytes / u64::from(FLEET_SHARDS);
    let mut shard_ns = Vec::with_capacity(shards);
    for (shard, rounds) in streams.into_iter().enumerate() {
        let mut store = per_shard.build_store(params.workload.kind())?;
        let started = Instant::now();
        for ops in rounds.into_iter().filter(|ops| !ops.is_empty()) {
            StoreServer::new(store.as_mut()).run_closed_loop(ops, 1, SimDuration::ZERO)?;
        }
        shard_ns.push(since(started) as f64);
        report.check(
            store.fragmentation() == serial.fleet.shard(shard).fragmentation(),
            || format!("peeled shard {shard} does not end in the fleet shard's fragmentation"),
        );
    }
    let sum_ns: f64 = shard_ns.iter().sum();
    let max_ns = shard_ns.iter().cloned().fold(0.0, f64::max);

    report.set("shard.route_ns", kernels::route_ns(FLEET_SHARDS));
    report.set("shard.sum_shard_ns_per_op", per_op(sum_ns));
    report.set("shard.overhead_ns_per_op", per_op(serial_ns - sum_ns));
    report.set("shard.speedup_t2", serial_ns / untraced.wall_ns as f64);
    report.set("shard.imbalance", ratio(max_ns, sum_ns / shards as f64));
    report.shares = vec![
        ("shard", (serial_ns - sum_ns) / serial_ns),
        ("shards' server+store", sum_ns / serial_ns),
    ];
    Ok(())
}
