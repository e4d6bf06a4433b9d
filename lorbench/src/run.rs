//! One benchmark run: untimed set-up, timed reps until the time budget is
//! used, correctness checks on the simulated results, and the two JSON
//! documents (the self-describing detail and the driver's result line).
//! Every host time that becomes an end-to-end metric is corrected for the
//! host's speed at the moment it was taken, wall times by the reference's
//! wall clock and CPU times by its CPU clock (see [`crate::reference`]); the
//! detail document carries the raw times beside the corrected ones.

use std::path::PathBuf;
use std::time::Instant;

use lor_core::StoreError;

use crate::digest::SimText;
use crate::host;
use crate::json::Json;
use crate::reference::{Paced, Pacer, Reference};
use crate::spec::{
    MetricDecl, Params, Workload, END_TO_END, FLEET_SHARDS, FLEET_THREADS, GOLDEN_SEED, MAX_AGE,
    PER_LAYER, READ_SAMPLE, SERVE_PRE_AGE, SERVE_UTILISATION, SERVE_WRITE_FRACTION, WARMUP_DIV,
};
use crate::stats::{median, ratio};
use crate::traced::{self, LayerReport, Untraced};
use crate::workloads;

/// Every run does at least this many reps, so rep ≡ rep can be checked.
const MIN_REPS: usize = 2;
/// And at most this many, whatever the time budget.
const MAX_REPS: usize = 64;

pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    /// Wall seconds of timed reps to collect (whole reps; at least `MIN_REPS`).
    pub seconds: f64,
    pub traced: bool,
    pub trace_out: Option<PathBuf>,
    /// Run at `1 / scale_div` of full scale: 1 from the command line, more
    /// only in `selftest` and the unit tests (no golden applies there).
    pub scale_div: u64,
    pub process_start: Instant,
}

pub struct Outcome {
    pub correct: bool,
    /// The self-describing document.
    pub detail: Json,
    /// `{"correct", "attempted", "failed", "metrics"}`, the driver's line.
    pub result: Json,
    /// The rep's simulated results, for `bless`.
    pub sim: Option<SimText>,
    /// Metric values by name, for the selftest.
    pub metrics: Vec<(&'static str, f64)>,
}

/// The golden simulated results for `GOLDEN_SEED` at full scale.
fn golden(workload: Workload) -> &'static str {
    match workload {
        Workload::AgeDb => include_str!("../golden/age_db.txt"),
        Workload::AgeFs => include_str!("../golden/age_fs.txt"),
        Workload::AgeLog => include_str!("../golden/age_log.txt"),
        Workload::ServeDb => include_str!("../golden/serve_db.txt"),
        Workload::FleetDb => include_str!("../golden/fleet_db.txt"),
    }
}

pub fn golden_path(workload: Workload) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("golden")
        .join(format!("{}.txt", workload.name()))
}

struct Rep {
    /// Untimed preparation before the rep.
    setup: Paced,
    /// The timed body, in segments.
    body: Paced,
    /// `VmHWM` when the rep ended.
    rss_mb: f64,
    sim: SimText,
}

/// Set-up plus one timed rep.
fn one_rep(
    params: &Params,
    warmup: &Params,
    serve_capacity: f64,
    reference: &mut Reference,
) -> Result<Rep, StoreError> {
    let pacer = Pacer::start(reference);
    let mut prepared = workloads::prepare(params, warmup, serve_capacity)?;
    let setup = pacer.finish();

    let mut pacer = Pacer::start(reference);
    let sim = workloads::run_rep(params, &mut prepared, &mut || pacer.pause())?;
    let body = pacer.finish();
    Ok(Rep {
        setup,
        body,
        rss_mb: host::peak_rss_mb(),
        sim,
    })
}

pub fn run(options: &Options) -> Outcome {
    let workload = options.workload;
    let params = workload.params(options.seed, options.scale_div);
    let warmup = workload.params(options.seed, options.scale_div * WARMUP_DIV);
    let ops = params.ops_per_rep();
    let mut problems: Vec<String> = Vec::new();

    // One-time set-up: process start to here (building the reference
    // included), plus `serve_db`'s calibration.
    let mut reference = Reference::new();
    let mut once_s = options.process_start.elapsed().as_secs_f64();
    let serve_capacity = match workload {
        Workload::ServeDb => {
            let pacer = Pacer::start(&mut reference);
            let capacity = workloads::serve_capacity(&params).unwrap_or_else(|err| {
                problems.push(format!("calibration failed: {err}"));
                0.0
            });
            once_s += pacer.finish().corrected_wall_ns / 1e9;
            capacity
        }
        _ => 0.0,
    };

    let mut reps: Vec<Rep> = Vec::new();
    let mut failed = 0u64;
    let mut attempted = 0u64;
    let mut measured_s = 0.0;
    let wanted = if options.traced { 1 } else { MIN_REPS };
    while problems.is_empty()
        && reps.len() < MAX_REPS
        && (reps.len() < wanted || (!options.traced && measured_s < options.seconds))
    {
        attempted += ops;
        match one_rep(&params, &warmup, serve_capacity, &mut reference) {
            Ok(rep) => {
                measured_s += (rep.body.wall_ns + rep.body.reference_ns) as f64 / 1e9;
                reps.push(rep);
            }
            Err(err) => {
                failed += ops;
                problems.push(format!("rep {} failed: {err}", reps.len()));
            }
        }
    }

    // Simulated results: every rep must agree with the first, and the first
    // with the golden where one applies.
    for (index, rep) in reps.iter().enumerate().skip(1) {
        if rep.sim != reps[0].sim {
            failed += ops;
            problems.push(format!("rep {index} sim_digest differs from rep 0"));
        }
    }
    let golden_applies = options.seed == GOLDEN_SEED && options.scale_div == 1;
    if let (true, Some(first)) = (golden_applies, reps.first()) {
        if first.sim.as_str() != golden(workload) {
            failed += ops * reps.len() as u64;
            problems.push(format!(
                "sim_digest {:016x} differs from golden/{}.txt (diff the text `lorbench bless` \
                 would write; bless only in a benchmark issue)",
                first.sim.digest(),
                workload.name()
            ));
        }
    }
    failed = failed.min(attempted);

    let layers = match (options.traced, reps.first()) {
        (true, Some(untraced)) => {
            let untraced = Untraced {
                wall_ns: untraced.body.wall_ns,
                sim: &untraced.sim,
            };
            match traced::run(&params, serve_capacity, untraced) {
                Ok(report) => {
                    problems.extend(report.faults.iter().cloned());
                    Some(report)
                }
                Err(err) => {
                    problems.push(format!("traced run failed: {err}"));
                    None
                }
            }
        }
        _ => None,
    };
    if let (Some(path), Some(log)) = (
        &options.trace_out,
        layers.as_ref().and_then(|l| l.trace_log.as_ref()),
    ) {
        if let Err(err) = std::fs::write(path, log.to_chrome_json()) {
            problems.push(format!("writing {}: {err}", path.display()));
        }
    }

    let per_rep = |value: fn(&Rep, f64) -> f64| -> Vec<f64> {
        reps.iter().map(|rep| value(rep, ops as f64)).collect()
    };
    let ops_per_s = per_rep(|rep, ops| ops / (rep.body.corrected_wall_ns / 1e9));
    let cpu_us_per_op = per_rep(|rep, ops| rep.body.corrected_cpu_ns / 1e3 / ops);
    let setups = per_rep(|rep, _| rep.setup.corrected_wall_ns / 1e9);
    let rss_after = per_rep(|rep, _| rep.rss_mb);
    // Corrected times are pooled over the run's reps: with the host's slow
    // periods divided out the reps differ by little more than sampling
    // noise, which a total averages out better than a median of two to five
    // values (README, *Measured noise*).
    let all_ops = (ops * reps.len() as u64) as f64;
    let corrected_s: f64 = reps
        .iter()
        .map(|rep| rep.body.corrected_wall_ns / 1e9)
        .sum();
    let corrected_cpu_us: f64 = reps.iter().map(|rep| rep.body.corrected_cpu_ns / 1e3).sum();
    let end_to_end = [
        ("ops_per_s", ratio(all_ops, corrected_s)),
        ("cpu_us_per_op", ratio(corrected_cpu_us, all_ops)),
        // The footprint of set-up plus one rep: sampled after the first rep,
        // because what the allocator retains across later reps (per-thread
        // arenas, on `fleet_db`) is luck, not the library's memory use.
        ("peak_rss_mb", rss_after.first().copied().unwrap_or(0.0)),
        ("setup_s", once_s + median(&setups)),
    ];
    let (declared, metrics): (&[MetricDecl], Vec<(&'static str, f64)>) = match &layers {
        Some(report) => (
            &PER_LAYER,
            PER_LAYER
                .iter()
                .map(|decl| (decl.name, report.metrics[decl.name]))
                .collect(),
        ),
        None => (&END_TO_END, end_to_end.to_vec()),
    };
    for (name, value) in &metrics {
        if !value.is_finite() {
            problems.push(format!("metric {name} is not finite"));
        }
    }
    if reps.is_empty() {
        problems.push("no rep completed".into());
    }
    let correct = problems.is_empty() && failed == 0;

    // The result line carries value and unit; the detail adds the direction.
    let metrics_json = |with_direction: bool| {
        Json::obj(declared.iter().zip(&metrics).map(|(decl, (name, value))| {
            debug_assert_eq!(decl.name, *name);
            let mut fields = vec![("value", Json::Num(*value)), ("unit", Json::str(decl.unit))];
            if with_direction {
                fields.push(("better", Json::str(decl.better.name())));
            }
            (decl.name, Json::obj(fields))
        }))
    };
    let result = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Int(attempted.max(1))),
        ("failed", Json::Int(failed)),
        ("metrics", metrics_json(false)),
    ]);

    let mut detail = vec![
        ("workload", Json::str(workload.name())),
        ("traced", Json::Bool(options.traced)),
        ("seed", Json::Int(options.seed)),
        ("scale_div", Json::Int(options.scale_div)),
        ("parameters", parameters_json(&params)),
        ("host", host_json(workload)),
        ("reps", Json::Int(reps.len() as u64)),
        ("ops_per_rep", Json::Int(ops)),
        ("attempted", Json::Int(attempted)),
        ("failed", Json::Int(failed)),
        (
            "fail_share",
            Json::Num(failed as f64 / attempted.max(1) as f64),
        ),
        (
            "sim_digest",
            Json::str(
                reps.first()
                    .map_or_else(String::new, |rep| format!("{:016x}", rep.sim.digest())),
            ),
        ),
        ("golden_checked", Json::Bool(golden_applies)),
        // As measured, and how slow the host ran meanwhile ...
        (
            "rep_wall_s",
            Json::nums(&per_rep(|rep, _| rep.body.wall_ns as f64 / 1e9)),
        ),
        (
            "rep_cpu_s",
            Json::nums(&per_rep(|rep, _| rep.body.cpu_ns as f64 / 1e9)),
        ),
        (
            "rep_host_slowness",
            Json::nums(&per_rep(|rep, _| rep.body.wall_slowness())),
        ),
        (
            "rep_host_cpu_slowness",
            Json::nums(&per_rep(|rep, _| rep.body.cpu_slowness())),
        ),
        (
            "rep_segments",
            Json::nums(&per_rep(|rep, _| f64::from(rep.body.segments))),
        ),
        // ... and corrected for it: what the metrics pool.
        ("rep_ops_per_s", Json::nums(&ops_per_s)),
        ("rep_cpu_us_per_op", Json::nums(&cpu_us_per_op)),
        ("rss_after_rep_mb", Json::nums(&rss_after)),
        ("peak_rss_at_exit_mb", Json::Num(host::peak_rss_mb())),
        ("setup_once_s", Json::Num(once_s)),
        ("setup_per_rep_s", Json::nums(&setups)),
        (
            "end_to_end",
            Json::obj(end_to_end.map(|(n, v)| (n, Json::Num(v)))),
        ),
        ("metrics", metrics_json(true)),
        (
            "problems",
            Json::Arr(problems.iter().map(Json::str).collect()),
        ),
    ];
    match &layers {
        Some(report) => detail.extend(layers_json(report)),
        // No `lor-obs` recorder is attached outside the traced `age_log` run.
        None => detail.push(("obs.dropped_spans", Json::Int(0))),
    }
    Outcome {
        correct,
        detail: Json::obj(detail),
        result,
        sim: reps.into_iter().next().map(|rep| rep.sim),
        metrics,
    }
}

fn layers_json(report: &LayerReport) -> Vec<(&'static str, Json)> {
    vec![
        (
            "layer_share_of_traced_wall",
            Json::obj(
                report
                    .shares
                    .iter()
                    .map(|&(layer, share)| (layer, Json::Num(share))),
            ),
        ),
        (
            "percentile_samples",
            Json::obj(
                report
                    .samples
                    .iter()
                    .map(|(&name, &count)| (name, Json::Int(count))),
            ),
        ),
        (
            "obs.dropped_spans",
            Json::Num(report.metrics["obs.dropped_spans"]),
        ),
    ]
}

fn parameters_json(params: &Params) -> Json {
    let config = &params.config;
    let mut fields = vec![
        ("store", Json::str(params.workload.kind().label())),
        ("volume_bytes", Json::Int(config.volume_bytes)),
        ("occupancy", Json::Num(config.occupancy)),
        (
            "object_size",
            Json::str(format!("{:?}", config.object_size)),
        ),
        ("objects", Json::Int(config.object_count())),
        ("write_request_size", Json::Int(config.write_request_size)),
        ("clients", Json::Int(config.concurrency as u64)),
        ("think_time_ms", Json::Num(config.think_time_ms)),
        ("placement", Json::str(config.placement.label())),
    ];
    match params.workload {
        Workload::ServeDb => fields.extend([
            ("pre_age_rounds", Json::Int(u64::from(SERVE_PRE_AGE))),
            ("offered_ops", Json::Int(params.serve_ops as u64)),
            ("write_fraction", Json::Num(SERVE_WRITE_FRACTION)),
            ("utilisation", Json::Num(SERVE_UTILISATION)),
            (
                "maintenance",
                Json::str(
                    config
                        .maintenance
                        .map_or("none".into(), |m| m.policy.label()),
                ),
            ),
        ]),
        Workload::FleetDb => fields.extend([
            ("shards", Json::Int(u64::from(FLEET_SHARDS))),
            ("router", Json::str("ConsistentHash{vnodes:16}")),
            ("overwrite_rounds", Json::Int(u64::from(MAX_AGE))),
        ]),
        _ => fields.extend([
            ("max_age", Json::Int(u64::from(MAX_AGE))),
            ("read_sample", Json::Int(READ_SAMPLE as u64)),
        ]),
    }
    Json::obj(fields)
}

fn host_json(workload: Workload) -> Json {
    let threads = if workload == Workload::FleetDb {
        u64::from(FLEET_THREADS)
    } else {
        1
    };
    Json::obj([
        ("nproc", Json::Int(host::nproc() as u64)),
        ("cpu_model", Json::str(host::cpu_model())),
        ("git_revision", Json::str(host::git_revision())),
        ("threads", Json::Int(threads)),
    ])
}
