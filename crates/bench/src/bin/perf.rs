//! `perf` — times the aging loop itself and emits `BENCH_aging.json`.
//!
//! Where the `figures` binary reports what the *simulated systems* do, this
//! binary reports what the *simulator* costs: wall-clock and foreground
//! operations per second for the bulk-load + overwrite aging loop behind
//! every figure, on both substrates, with and without an attached
//! maintenance scheduler (the scheduler's per-tick fragmentation observation
//! is the hot path the perf trajectory tracks).
//!
//! The sharded entries time the fleet layer in both drive modes: the
//! `aging_sharded_*` jobs force [`FleetParallelism::Serial`] (pinning the
//! sharding layer's single-thread overhead), while the `aging_sharded_par_*`
//! / `aging_sharded16_*` / `aging_sharded64_smoke` jobs drain every shard on
//! a fixed worker pool — bit-identical simulated results, wall-clock scaling
//! with the host's cores (≥4 cores is where the ~4× shows; a 1-core CI box
//! times the same pool honestly at ~1×).
//!
//! ```text
//! perf [--scale report|bench|full|test|smoke] [--label NAME]
//!      [--json PATH] [--check BASELINE.json] [--tolerance 0.2]
//!      [--fleet-scaling]
//! ```
//!
//! The run is printed as one JSON object.  `--check` compares the run's
//! ops/s against the `ci-baseline` run recorded in an existing
//! `BENCH_aging.json` and exits non-zero if any matching entry regressed by
//! more than `--tolerance` (default 20%) — the CI guard that keeps the
//! speedups pinned.  `--fleet-scaling` replaces the standard jobs with the
//! fleet-scaling sweep (shards 1–64 × serial vs threaded) recorded in
//! EXPERIMENTS.md.

use std::time::Instant;

use lor_bench::{paper_config, Scale};
use lor_core::lor_obs::json_string;
use lor_core::{
    run_aging_experiment, ExperimentConfig, FleetParallelism, MaintenanceConfig, StoreError,
    StoreKind, WorkloadGenerator,
};
use lor_shard::{RouterPolicy, ShardedStore};

/// One timed aging run.
struct PerfEntry {
    name: String,
    ops: u64,
    wall_s: f64,
    ops_per_s: f64,
}

fn aging_config(scale: &Scale) -> ExperimentConfig {
    // The Figure 3 workload: 256 KB objects at 50% occupancy, the paper's
    // most fragmentation-prone (and object-count-heavy) setup.
    let mut config = paper_config(scale, 256 << 10);
    config.read_sample = None;
    config
}

/// Times one aging run to `max_age` and returns the entry.
fn timed_aging(
    name: &str,
    kind: StoreKind,
    config: &ExperimentConfig,
    max_age: u32,
) -> Result<PerfEntry, StoreError> {
    let started = Instant::now();
    let result = run_aging_experiment(kind, config, &[max_age], false)?;
    let wall_s = started.elapsed().as_secs_f64();
    // Foreground ops driven: the bulk load plus one safe write per object
    // per overwrite round.
    let ops = config.object_count() * (1 + u64::from(max_age));
    // Touch the result so the measured work cannot be optimised away.
    assert!(!result.points.is_empty());
    Ok(PerfEntry {
        name: name.to_string(),
        ops,
        wall_s,
        ops_per_s: ops as f64 / wall_s.max(1e-9),
    })
}

/// Times the same aging loop pushed through a [`ShardedStore`] fleet: the
/// cost of routing, per-shard partitioning, and the per-shard servers on top
/// of the bare stores — serial, or drained by `parallelism`'s worker pool
/// (bit-identical results either way; only the wall-clock differs).
fn timed_sharded_aging(
    name: &str,
    kind: StoreKind,
    config: &ExperimentConfig,
    max_age: u32,
    shards: u32,
    parallelism: FleetParallelism,
) -> Result<PerfEntry, StoreError> {
    // Pad the volume so every shard still gets a workable slice.
    let mut config = config.clone().with_fleet_parallelism(parallelism);
    config.volume_bytes = config.volume_bytes.max(u64::from(shards) * (24 << 20));
    let started = Instant::now();
    let mut fleet = ShardedStore::new(
        kind,
        &config,
        shards,
        RouterPolicy::ConsistentHash { vnodes: 16 },
    )?;
    let mut generator = WorkloadGenerator::new(config.workload());
    fleet.load(generator.bulk_load())?;
    for _ in 0..max_age {
        fleet.load(generator.overwrite_round())?;
    }
    let wall_s = started.elapsed().as_secs_f64();
    let ops = config.object_count() * (1 + u64::from(max_age));
    assert!(fleet.object_count() > 0);
    Ok(PerfEntry {
        name: name.to_string(),
        ops,
        wall_s,
        ops_per_s: ops as f64 / wall_s.max(1e-9),
    })
}

/// Peak resident set size of this process in kilobytes (`VmHWM` from
/// `/proc/self/status`), or 0 where unavailable.
fn peak_rss_kb() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            return rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0);
        }
    }
    0
}

fn run_json(label: &str, scale_name: &str, entries: &[PerfEntry], rss_kb: u64) -> String {
    let mut out = String::new();
    out.push_str("    {\n");
    out.push_str(&format!("      \"label\": {},\n", json_string(label)));
    out.push_str(&format!("      \"scale\": {},\n", json_string(scale_name)));
    out.push_str("      \"entries\": [\n");
    for (index, entry) in entries.iter().enumerate() {
        let comma = if index + 1 < entries.len() { "," } else { "" };
        out.push_str(&format!(
            "        {{\"name\": {}, \"ops\": {}, \"wall_s\": {:.3}, \"ops_per_s\": {:.1}}}{comma}\n",
            json_string(&entry.name),
            entry.ops,
            entry.wall_s,
            entry.ops_per_s
        ));
    }
    out.push_str("      ],\n");
    out.push_str(&format!("      \"peak_rss_kb\": {rss_kb}\n"));
    out.push_str("    }");
    out
}

/// Extracts `ops_per_s` per entry name from the `ci-baseline` run of a
/// committed `BENCH_aging.json` (a deliberately naive scan; the file is
/// emitted by this binary, so the shape is known).
fn baseline_entries(json: &str) -> Vec<(String, f64)> {
    let Some(label_at) = json.find("\"label\": \"ci-baseline\"") else {
        return Vec::new();
    };
    let section = match json[label_at..].find("\"peak_rss_kb\"") {
        Some(end) => &json[label_at..label_at + end],
        None => &json[label_at..],
    };
    let mut entries = Vec::new();
    let mut rest = section;
    while let Some(name_at) = rest.find("\"name\": \"") {
        let after_name = &rest[name_at + "\"name\": \"".len()..];
        let Some(name_end) = after_name.find('"') else {
            break;
        };
        let name = after_name[..name_end].to_string();
        let Some(ops_at) = after_name.find("\"ops_per_s\": ") else {
            break;
        };
        let after_ops = &after_name[ops_at + "\"ops_per_s\": ".len()..];
        let number: String = after_ops
            .chars()
            .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-')
            .collect();
        if let Ok(value) = number.parse::<f64>() {
            entries.push((name, value));
        }
        rest = after_ops;
    }
    entries
}

/// The fleet-scaling sweep recorded in EXPERIMENTS.md: the same aging loop
/// at every fleet width, serial vs worker pools, so the ops/s and wall-clock
/// columns show what parallel drainage buys (and what the fleet layer costs)
/// as the fleet grows.  Ages are capped at 2: the sweep measures width
/// scaling, not aging depth.
fn run_fleet_scaling(
    scale: &Scale,
    scale_name: &str,
    label: &str,
    config: &ExperimentConfig,
    json_path: Option<&str>,
) {
    let age = scale.max_age.min(2);
    let mut widths = vec![1u32];
    widths.extend(scale.fleet_sizes());
    let modes = [
        FleetParallelism::Serial,
        FleetParallelism::Threads(4),
        FleetParallelism::Threads(8),
    ];
    let mut entries = Vec::new();
    for kind in [StoreKind::Database, StoreKind::Filesystem] {
        for &shards in &widths {
            for parallelism in modes {
                let name = format!(
                    "scaling_{}_{shards:02}shards_{}",
                    kind.label().to_lowercase(),
                    parallelism.label().replace('(', "-").replace(')', "")
                );
                let entry = match timed_sharded_aging(&name, kind, config, age, shards, parallelism)
                {
                    Ok(entry) => entry,
                    Err(err) => {
                        eprintln!("perf: {name} failed: {err}");
                        std::process::exit(1);
                    }
                };
                eprintln!(
                    "perf: {:<40} {:>9} ops in {:>8.2}s = {:>10.1} ops/s",
                    entry.name, entry.ops, entry.wall_s, entry.ops_per_s
                );
                entries.push(entry);
            }
        }
    }
    let run = run_json(label, scale_name, &entries, peak_rss_kb());
    println!("{run}");
    if let Some(path) = json_path {
        let document =
            format!("{{\n  \"schema\": \"bench-aging-v1\",\n  \"runs\": [\n{run}\n  ]\n}}\n");
        std::fs::write(path, document).expect("write --json output");
        eprintln!("perf: wrote {path}");
    }
}

fn main() {
    let mut scale_name = "bench".to_string();
    let mut label = "run".to_string();
    let mut json_path: Option<String> = None;
    let mut check_path: Option<String> = None;
    let mut tolerance = 0.2f64;
    let mut fleet_scaling = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => scale_name = args.next().expect("--scale needs a value"),
            "--label" => label = args.next().expect("--label needs a value"),
            "--json" => json_path = Some(args.next().expect("--json needs a value")),
            "--check" => check_path = Some(args.next().expect("--check needs a value")),
            "--tolerance" => {
                tolerance = args
                    .next()
                    .expect("--tolerance needs a value")
                    .parse()
                    .expect("--tolerance must be a number")
            }
            "--fleet-scaling" => fleet_scaling = true,
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!("usage: perf [--scale report|bench|full|test|smoke] [--label NAME] [--json PATH] [--check BASELINE.json] [--tolerance F] [--fleet-scaling]");
                std::process::exit(2);
            }
        }
    }
    let scale = Scale::by_name(&scale_name).unwrap_or_else(|| {
        eprintln!("unknown scale: {scale_name}");
        std::process::exit(2);
    });

    let config = aging_config(&scale);
    eprintln!(
        "perf: scale {scale_name}, {} objects of {} KB",
        config.object_count(),
        config.object_size.mean() >> 10
    );

    // The maintained runs exercise the per-tick fragmentation observation
    // (the superlinear path the O(1) accounting removed); the plain runs time
    // the bare aging loop.  Maintained aging is capped at age 4 so the
    // baseline stays recordable even on the pre-optimisation build.
    let maint_age = scale.max_age.min(4);
    let jobs: Vec<(String, StoreKind, ExperimentConfig, u32)> = vec![
        (
            "aging_plain_database".into(),
            StoreKind::Database,
            config.clone(),
            scale.max_age,
        ),
        (
            "aging_plain_filesystem".into(),
            StoreKind::Filesystem,
            config.clone(),
            scale.max_age,
        ),
        (
            "aging_maint_database".into(),
            StoreKind::Database,
            config
                .clone()
                .with_maintenance(MaintenanceConfig::fixed_budget(64)),
            maint_age,
        ),
        (
            "aging_maint_filesystem".into(),
            StoreKind::Filesystem,
            config
                .clone()
                .with_maintenance(MaintenanceConfig::fixed_budget(64)),
            maint_age,
        ),
        (
            "aging_plain_logstore".into(),
            StoreKind::LogStructured,
            config.clone(),
            scale.max_age,
        ),
        (
            "aging_maint_logstore".into(),
            StoreKind::LogStructured,
            config
                .clone()
                .with_maintenance(MaintenanceConfig::fixed_budget(64)),
            maint_age,
        ),
    ];

    // The sharded runs time the fleet layer (routing + per-shard servers)
    // over the same plain aging loop.  The `aging_sharded_*` pair forces the
    // serial drain — pinning the sharding layer's single-thread overhead —
    // while the remaining jobs drain on a fixed worker pool: bit-identical
    // simulated results, wall-clock scaling with the host's cores.  The
    // 64-shard smoke runs shorter: it guards fleet-width scaling, not aging
    // depth.
    let smoke_age = scale.max_age.min(2);
    let sharded_jobs: Vec<(String, StoreKind, u32, FleetParallelism, u32)> = vec![
        (
            "aging_sharded_database".into(),
            StoreKind::Database,
            4,
            FleetParallelism::Serial,
            scale.max_age,
        ),
        (
            "aging_sharded_filesystem".into(),
            StoreKind::Filesystem,
            4,
            FleetParallelism::Serial,
            scale.max_age,
        ),
        (
            "aging_sharded_par_database".into(),
            StoreKind::Database,
            4,
            FleetParallelism::Threads(4),
            scale.max_age,
        ),
        (
            "aging_sharded_par_filesystem".into(),
            StoreKind::Filesystem,
            4,
            FleetParallelism::Threads(4),
            scale.max_age,
        ),
        (
            "aging_sharded16_database".into(),
            StoreKind::Database,
            16,
            FleetParallelism::Threads(8),
            scale.max_age,
        ),
        (
            "aging_sharded16_filesystem".into(),
            StoreKind::Filesystem,
            16,
            FleetParallelism::Threads(8),
            scale.max_age,
        ),
        (
            "aging_sharded64_smoke".into(),
            StoreKind::Database,
            64,
            FleetParallelism::Threads(8),
            smoke_age,
        ),
    ];

    if fleet_scaling {
        run_fleet_scaling(&scale, &scale_name, &label, &config, json_path.as_deref());
        return;
    }

    let mut entries = Vec::new();
    for (name, kind, config, age) in jobs {
        let entry = match timed_aging(&name, kind, &config, age) {
            Ok(entry) => entry,
            Err(err) => {
                eprintln!("perf: {name} failed: {err}");
                std::process::exit(1);
            }
        };
        eprintln!(
            "perf: {:<28} {:>9} ops in {:>8.2}s = {:>10.1} ops/s",
            entry.name, entry.ops, entry.wall_s, entry.ops_per_s
        );
        entries.push(entry);
    }
    for (name, kind, shards, parallelism, age) in sharded_jobs {
        let entry = match timed_sharded_aging(&name, kind, &config, age, shards, parallelism) {
            Ok(entry) => entry,
            Err(err) => {
                eprintln!("perf: {name} failed: {err}");
                std::process::exit(1);
            }
        };
        eprintln!(
            "perf: {:<28} {:>9} ops in {:>8.2}s = {:>10.1} ops/s",
            entry.name, entry.ops, entry.wall_s, entry.ops_per_s
        );
        entries.push(entry);
    }

    let rss_kb = peak_rss_kb();
    let run = run_json(&label, &scale_name, &entries, rss_kb);
    println!("{run}");
    if let Some(path) = json_path {
        let document =
            format!("{{\n  \"schema\": \"bench-aging-v1\",\n  \"runs\": [\n{run}\n  ]\n}}\n");
        std::fs::write(&path, document).expect("write --json output");
        eprintln!("perf: wrote {path}");
    }

    if let Some(path) = check_path {
        let baseline = std::fs::read_to_string(&path).expect("read --check baseline");
        let baseline = baseline_entries(&baseline);
        if baseline.is_empty() {
            eprintln!("perf: no ci-baseline run found in {path}; skipping check");
            return;
        }
        let mut failed = false;
        for (name, baseline_ops) in baseline {
            let Some(entry) = entries.iter().find(|e| e.name == name) else {
                continue;
            };
            let floor = baseline_ops * (1.0 - tolerance);
            let verdict = if entry.ops_per_s < floor {
                failed = true;
                "REGRESSED"
            } else {
                "ok"
            };
            eprintln!(
                "perf: check {:<28} {:>10.1} ops/s vs baseline {:>10.1} (floor {:>10.1}) {verdict}",
                name, entry.ops_per_s, baseline_ops, floor
            );
        }
        if failed {
            eprintln!("perf: ops/s regressed more than {:.0}%", tolerance * 100.0);
            std::process::exit(1);
        }
    }
}
