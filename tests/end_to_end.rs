//! Cross-crate integration tests on miniature configurations: the policy,
//! maintenance, queueing and cleaner scenarios, plus the one paper claim no
//! figure carries.  The claims of Figures 1–6 are predicates over the
//! report- and paper-scale goldens, in `crates/bench/tests/paper_claims.rs`.

use lorepo::core::lor_disksim::SimDuration;
use lorepo::core::{
    age_store, analyze_store, calibrate_mixed_load, measure_mixed_load_calibrated,
    run_aging_experiment, AllocationPolicy, Arrivals, ExperimentConfig, FitPolicy, LatencySummary,
    OpenLoop, PlacementPolicy, Series, SizeDistribution, StoreKind, StoreServer, WorkloadOp,
};

const MB: u64 = 1 << 20;

/// The substrates for the tests whose premise is that safe-write aging
/// fragments the layout.  The segment log is left out of those, and only
/// those: under their [`mini`] configurations (1–2 MB objects, half-full
/// volume) it appends every object whole into free segments and stays at
/// exactly 1.0 fragments/object at every age, so an allocation policy, a
/// maintenance pass or a write mix has nothing to change and each of these
/// tests fails on its "fragmentation must grow" premise, not on its claim.
/// Every other substrate loop in this file runs [`StoreKind::ALL`].
const FRAGMENTING_KINDS: [StoreKind; 2] = [StoreKind::Filesystem, StoreKind::Database];

fn mini(object_size: u64, volume: u64) -> ExperimentConfig {
    let mut config = ExperimentConfig::paper_default(SizeDistribution::Constant(object_size));
    config.volume_bytes = volume;
    config.read_sample = Some(24);
    config
}

/// Section 5.2: for large (multi-megabyte) objects the filesystem wins even
/// on a clean store.  Figure 1 stops at 1 MB, so this is the one claim of
/// the paper that no golden figure carries.
#[test]
fn large_objects_favour_the_filesystem_even_when_clean() {
    let config = mini(8 * MB, 256 * MB);
    let [db_clean, fs_clean] = [StoreKind::Database, StoreKind::Filesystem].map(|kind| {
        let run = run_aging_experiment(kind, &config, &[0], true).unwrap();
        run.points[0].read_throughput_mb_s.unwrap()
    });
    assert!(
        fs_clean > db_clean,
        "clean store: filesystem ({fs_clean:.2} MB/s) should beat the database ({db_clean:.2} MB/s) at 8 MB"
    );
}

/// The allocation-policy knob threads from `ExperimentConfig` through both
/// stores into their substrates: every policy drives both systems through a
/// full aging run, and for the database the `Native` policy is by definition
/// the lowest-first fit, so `Native` and `Fit(FirstFit)` produce identical
/// trajectories.
#[test]
fn allocation_policy_knob_drives_both_stores() {
    let mut config = mini(MB, 64 * MB);
    config.read_sample = None;
    let ages = [0u32, 2];

    for kind in FRAGMENTING_KINDS {
        let mut aged = Vec::new();
        for policy in AllocationPolicy::ALL {
            let run = run_aging_experiment(
                kind,
                &config.clone().with_allocation_policy(policy),
                &ages,
                false,
            )
            .unwrap();
            assert_eq!(run.points.len(), 2, "{kind:?}/{}", policy.name());
            assert_eq!(run.points[0].objects, config.object_count());
            assert!(
                run.points[1].fragments_per_object >= 1.0,
                "{kind:?}/{}: live objects have at least one fragment",
                policy.name()
            );
            aged.push(run.points[1].fragments_per_object);
        }
        // The knob must actually reach the substrate: across the policy
        // sweep at least two policies age differently.
        assert!(
            aged.iter().any(|f| (f - aged[0]).abs() > 1e-9),
            "{kind:?}: every policy aged identically ({aged:?})"
        );
    }

    let native = run_aging_experiment(
        StoreKind::Database,
        &config
            .clone()
            .with_allocation_policy(AllocationPolicy::Native),
        &ages,
        false,
    )
    .unwrap();
    let first_fit = run_aging_experiment(
        StoreKind::Database,
        &config.with_allocation_policy(AllocationPolicy::Fit(FitPolicy::FirstFit)),
        &ages,
        false,
    )
    .unwrap();
    assert_eq!(
        native.points, first_fit.points,
        "the database's native policy is lowest-first, i.e. first fit"
    );
}

/// The marker-based fragmentation tool agrees with the stores' own extent
/// walks on an aged store of either kind.
#[test]
fn marker_tool_agrees_with_extent_walk_on_aged_stores() {
    let config = mini(MB, 96 * MB);
    for kind in StoreKind::ALL {
        let (store, _) = age_store(kind, &config, 3).unwrap();
        let report = analyze_store(store.as_ref()).unwrap();
        let direct = store.fragmentation();
        assert_eq!(report.summary.objects, direct.objects);
        assert!(
            (report.marker_fragments_per_object - direct.fragments_per_object).abs() < 1e-9,
            "{kind:?}: marker tool ({}) vs extent walk ({})",
            report.marker_fragments_per_object,
            direct.fragments_per_object
        );
    }
}

/// Maintenance (the online defragmenter / table rebuild) restores both
/// systems close to a contiguous layout, at a measurable copy cost.
#[test]
fn maintenance_restores_contiguity() {
    let config = mini(MB, 96 * MB);
    for kind in FRAGMENTING_KINDS {
        let (mut store, _) = age_store(kind, &config, 4).unwrap();
        let before = store.fragmentation().fragments_per_object;
        let copied = store.maintenance().unwrap();
        let after = store.fragmentation().fragments_per_object;
        assert!(copied > 0, "{kind:?}: an aged store has something to copy");
        assert!(
            after <= before,
            "{kind:?}: maintenance must not increase fragmentation ({before:.2} -> {after:.2})"
        );
        assert!(
            after < 2.0,
            "{kind:?}: maintenance should restore near-contiguity, got {after:.2}"
        );
    }
}

/// The queueing acceptance scenario, open-loop half: against an aged store,
/// p99 read latency is monotone non-decreasing in offered load (same
/// unit-exponential arrival pattern at every rate, so Lindley's recursion
/// applies exactly), and at high load — with well over eight requests in
/// flight — the tail separates from the median by a wide margin.
#[test]
fn open_loop_tail_latency_grows_with_offered_load() {
    let config = mini(MB, 96 * MB);
    for kind in StoreKind::ALL {
        let mut p99_curve = Vec::new();
        let mut high_load = None;
        for utilisation in [0.3, 0.6, 0.9, 1.2] {
            // Rebuild and age identically for every offered load.
            let mut store = config.build_store(kind).unwrap();
            let mut generator = lorepo::core::WorkloadGenerator::new(config.workload());
            let mut server = StoreServer::new(store.as_mut());
            server
                .run_closed_loop(generator.bulk_load(), 1, SimDuration::ZERO)
                .unwrap();
            for _ in 0..2 {
                server
                    .run_closed_loop(
                        generator.overwrite_round(),
                        config.concurrency,
                        SimDuration::ZERO,
                    )
                    .unwrap();
            }
            let reads: Vec<WorkloadOp> = generator.read_all().into_iter().take(48).collect();
            // Calibrate the spindle's read capacity with a serial pass
            // (reads have no side effects), then offer a fraction of it.
            let serial = server
                .run_closed_loop(reads.clone(), 1, SimDuration::ZERO)
                .unwrap();
            let capacity = 1e3 / LatencySummary::of(&serial).mean_ms.max(1e-6);
            server.reset_queue_stats();
            let load = OpenLoop {
                ops_per_sec: utilisation * capacity,
                seed: 1234,
            };
            let schedule = load.schedule(server.now(), reads).unwrap();
            let mut completions = Vec::with_capacity(schedule.len());
            server
                .run(Arrivals::Open(schedule), |c| completions.push(c))
                .unwrap();
            let summary = LatencySummary::of(&completions);
            p99_curve.push(summary.p99_ms);
            high_load = Some((summary, server.queue_stats()));
        }
        assert!(
            p99_curve.windows(2).all(|w| w[1] >= w[0] - 1e-9),
            "{kind:?}: p99 must be monotone non-decreasing in offered load: {p99_curve:?}"
        );
        let (summary, queue) = high_load.unwrap();
        assert!(
            summary.p99_ms > summary.p50_ms * 1.5,
            "{kind:?}: above capacity the tail must separate from the median \
             (p99 {:.2} ms vs p50 {:.2} ms)",
            summary.p99_ms,
            summary.p50_ms
        );
        assert!(
            queue.max_depth >= 8,
            "{kind:?}: above capacity well over 8 clients' worth of requests queue \
             (saw {})",
            queue.max_depth
        );
    }
}

/// The queueing acceptance scenario, maintenance half: with think-time slack
/// in the workload, `IdleDetect` schedules its background work into the
/// observed gaps and achieves a lower foreground p99 than `FixedBudget` at
/// comparable steady-state fragmentation on at least one store.
#[test]
fn idle_detect_buys_fixed_budget_fragmentation_at_lower_tail_latency() {
    use lorepo::core::MaintenanceConfig;

    let ages = [0u32, 2, 4];
    let mut witnessed = false;
    for kind in StoreKind::ALL {
        // Three clients with 400 ms think time: utilisation well under 1, so
        // the spindle sees genuine idle gaps between staggered requests.
        let mut base = mini(2 * MB, 128 * MB);
        base.concurrency = 3;
        base.think_time_ms = 400.0;
        let fixed = run_aging_experiment(
            kind,
            &base
                .clone()
                .with_maintenance(MaintenanceConfig::fixed_budget(512).with_server_drive()),
            &ages,
            false,
        )
        .unwrap();
        let idle_detect = run_aging_experiment(
            kind,
            &base
                .clone()
                .with_maintenance(MaintenanceConfig::idle_detect(5.0)),
            &ages,
            false,
        )
        .unwrap();

        let fixed_aged = fixed.points.last().unwrap();
        let detect_aged = idle_detect.points.last().unwrap();
        assert!(
            detect_aged.background_time_s > 0.0,
            "{kind:?}: idle-detect must actually do background work in the gaps"
        );
        assert!(
            fixed_aged.background_time_s > 0.0,
            "{kind:?}: fixed-budget must actually do background work"
        );
        if detect_aged.latency_p99_ms < fixed_aged.latency_p99_ms
            && detect_aged.fragments_per_object <= fixed_aged.fragments_per_object * 1.15
        {
            witnessed = true;
        }
    }
    assert!(
        witnessed,
        "idle-detect should beat fixed-budget's p99 at comparable steady-state \
         fragmentation on at least one store"
    );
}

/// The mixed-sweep acceptance scenario: open-loop read + safe-write arrivals
/// against an aged store show a **write-fraction-dependent hockey-stick
/// shift** — at the same nominal utilisation (calibrated per mix on a twin
/// store) the write-heavy mix's tail sits measurably apart from the
/// pure-read mix's, because the write class rewrites the layout while the
/// measurement runs.  The *direction* of the shift is scale-dependent
/// (downward at this miniature fixture, where open-loop rewrites heal the
/// batch-aged layout; upward at report scale, recorded in EXPERIMENTS.md),
/// so the assertion pins the magnitude, not the sign.
#[test]
fn mixed_sweep_hockey_stick_shifts_with_write_fraction() {
    let config = mini(MB, 96 * MB);
    let (low, high) = (0.3, 0.9);
    for kind in FRAGMENTING_KINDS {
        let mut p99 = std::collections::BTreeMap::new();
        let mut growth = std::collections::BTreeMap::new();
        for write_fraction in [0.0, 0.5] {
            let calibration = calibrate_mixed_load(kind, &config, 2, write_fraction, 48).unwrap();
            for utilisation in [low, high] {
                let point =
                    measure_mixed_load_calibrated(kind, &config, 2, &calibration, utilisation)
                        .unwrap();
                let key = (
                    (write_fraction * 100.0) as u32,
                    (utilisation * 100.0) as u32,
                );
                p99.insert(key, point.all.p99_ms);
                growth.insert(key, point.fragments_after - point.fragments_before);
            }
        }
        // The hockey stick: each mix's p99 rises with offered load.
        for write_fraction in [0u32, 50] {
            assert!(
                p99[&(write_fraction, 90)] >= p99[&(write_fraction, 30)],
                "{kind:?}/{write_fraction}% writes: p99 must not improve under load \
                 ({:.1} -> {:.1} ms)",
                p99[&(write_fraction, 30)],
                p99[&(write_fraction, 90)]
            );
        }
        // The shift: at the same nominal utilisation (capacity calibrated
        // per mix on a bit-identical twin store) the write-heavy mix's
        // high-load tail sits measurably apart from the pure-read mix's.
        // At this scale the shift is *downward* on both substrates — the
        // aged store was fragmented by 4-way interleaved overwrite batches,
        // and the sweep's open-loop single-stream rewrites land in fresher
        // runs than the objects they replace — which is itself the
        // fragmentation/measurement interaction: the write class rewrites
        // the layout mid-sweep and the read class observes it.
        let shift = p99[&(50, 90)] / p99[&(0, 90)];
        assert!(
            (shift - 1.0).abs() > 0.02,
            "{kind:?}: the write fraction must shift the high-load tail \
             measurably ({:.1} vs {:.1} ms)",
            p99[&(50, 90)],
            p99[&(0, 90)]
        );
        // The interaction: the write class moves the layout during the
        // measurement; the pure-read sweep cannot.
        assert_eq!(
            growth[&(0, 30)],
            0.0,
            "{kind:?}: reads must not move the layout"
        );
        assert_eq!(
            growth[&(0, 90)],
            0.0,
            "{kind:?}: reads must not move the layout"
        );
        assert!(
            growth[&(50, 90)].abs() > 1e-9,
            "{kind:?}: the write class must move the layout during the sweep"
        );
    }
}

/// The adaptive-frontier acceptance scenario: on **both** substrates the
/// rate-adaptive policy's (fragments/object, foreground latency) operating
/// point lands on or inside the frontier traced by the `FixedBudget` sweep —
/// no fixed budget strictly beats it in both coordinates.  Rate-proportional
/// spending buys fragmentation repair while the store degrades and stops
/// paying once it stabilises, which a fixed budget cannot do: on the
/// database `adaptive(64)` reaches `fixed-budget(1024)`'s steady-state
/// fragmentation at measurably lower foreground latency and ~25% less
/// background I/O.
///
/// The volume is larger than the other e2e fixtures on purpose: below ~100
/// objects the database's free-pool effects make the fixed frontier itself
/// non-monotone (the recorded "small budget worse than idle" pocket), and
/// no budget policy — fixed or adaptive — behaves comparably there.
#[test]
fn adaptive_lands_on_or_inside_the_fixed_budget_frontier() {
    use lorepo::core::MaintenanceConfig;

    let ages = [4u32];
    for kind in StoreKind::ALL {
        let base = mini(2 * MB, 512 * MB);
        let mut frontier_points = Vec::new();
        for budget in [0u64, 64, 256, 1024] {
            let run = run_aging_experiment(
                kind,
                &base
                    .clone()
                    .with_maintenance(MaintenanceConfig::fixed_budget(budget)),
                &ages,
                false,
            )
            .unwrap();
            let point = run.points.last().unwrap();
            frontier_points.push((point.fragments_per_object, point.foreground_latency_ms));
        }
        let frontier = Series::frontier("fixed-budget", frontier_points);

        let adaptive = run_aging_experiment(
            kind,
            &base
                .clone()
                .with_maintenance(MaintenanceConfig::adaptive(64.0)),
            &ages,
            false,
        )
        .unwrap();
        let point = adaptive.points.last().unwrap();
        assert!(
            frontier.on_or_inside_frontier(
                point.fragments_per_object,
                point.foreground_latency_ms,
                0.02
            ),
            "{kind:?}: adaptive ({:.2} frags, {:.1} ms) is strictly dominated by the \
             fixed-budget frontier {:?}",
            point.fragments_per_object,
            point.foreground_latency_ms,
            frontier.points
        );
    }
}

/// Regression pin for the DB eager-cleanup pathology (the PR 3 findings and
/// the substrate-aware fix): on the database under a gap-filling workload,
/// `IdleDetect` — which reclaims ghosts in every idle gap and feeds the
/// engine's lowest-first reuse — must not beat `SubstrateAware` (ghost
/// release deferred by 8 s of simulated time, which at this fixture spans
/// several overwrite rounds and halves the steady state) on
/// fragments/object at a comparable p99; and under the serial drive the
/// fixed-budget family must stay monotone: small budgets no worse than idle
/// on fragmentation, latency non-decreasing in budget.
#[test]
fn substrate_aware_pins_the_db_eager_cleanup_pathology() {
    use lorepo::core::MaintenanceConfig;

    let ages = [0u32, 2, 4];
    let mut base = mini(2 * MB, 128 * MB);
    base.concurrency = 3;
    base.think_time_ms = 400.0;

    let idle_detect = run_aging_experiment(
        StoreKind::Database,
        &base
            .clone()
            .with_maintenance(MaintenanceConfig::idle_detect(5.0)),
        &ages,
        false,
    )
    .unwrap();
    let substrate_aware = run_aging_experiment(
        StoreKind::Database,
        &base
            .clone()
            .with_maintenance(MaintenanceConfig::substrate_aware(5.0, 8000.0)),
        &ages,
        false,
    )
    .unwrap();

    let id_aged = idle_detect.points.last().unwrap();
    let sa_aged = substrate_aware.points.last().unwrap();
    assert!(
        sa_aged.background_time_s > 0.0,
        "substrate-aware must still do background work in the gaps"
    );
    assert!(
        id_aged.fragments_per_object >= sa_aged.fragments_per_object * 0.95,
        "idle-detect ({:.2} frags) must not beat substrate-aware ({:.2} frags) \
         on the database",
        id_aged.fragments_per_object,
        sa_aged.fragments_per_object
    );
    assert!(
        sa_aged.latency_p99_ms <= id_aged.latency_p99_ms * 1.10,
        "the fragmentation win must come at a comparable p99 \
         ({:.1} vs {:.1} ms)",
        sa_aged.latency_p99_ms,
        id_aged.latency_p99_ms
    );

    // The serial-drive half of the earlier finding: fixed-budget latency is
    // monotone in budget and a small budget is no longer worse than idle.
    // (At the tiny 128 MB fixture the free-pool effects reopen the
    // small-budget pocket for any policy, so this is pinned at the same
    // 512 MB scale as the adaptive frontier.)
    let serial = mini(2 * MB, 512 * MB);
    let mut latencies = Vec::new();
    let mut fragments = Vec::new();
    for budget in [0u64, 64, 256, 1024] {
        let run = run_aging_experiment(
            StoreKind::Database,
            &serial
                .clone()
                .with_maintenance(MaintenanceConfig::fixed_budget(budget)),
            &[4],
            false,
        )
        .unwrap();
        let point = run.points.last().unwrap();
        latencies.push(point.foreground_latency_ms);
        fragments.push(point.fragments_per_object);
    }
    assert!(
        latencies.windows(2).all(|w| w[1] >= w[0] * 0.98),
        "DB foreground latency must stay monotone in budget: {latencies:?}"
    );
    assert!(
        fragments[1] <= fragments[0] * 1.15,
        "budget 64 must stay at least at parity with idle \
         ({:.2} vs idle {:.2} frags)",
        fragments[1],
        fragments[0]
    );
}

/// The placement acceptance scenario, frontier half: placement-aware
/// `SubstrateAware` finally lands **strictly inside** the DB gap-filling
/// frontier — lower steady-state fragments/object than unrestricted
/// `IdleDetect` at a comparable (here: strictly lower) p99.  PR 4 recorded
/// that no amount of ghost deferral could win this frontier because the
/// gap-filling compactor consumed the same large contiguous runs the
/// engine's allocator needed; confining the compactor to the maintenance
/// band is what closes the ROADMAP item.
#[test]
fn placement_aware_substrate_aware_wins_the_db_gap_filling_frontier() {
    use lorepo::core::MaintenanceConfig;

    let ages = [0u32, 2, 4];
    let mut base = mini(2 * MB, 128 * MB);
    base.concurrency = 3;
    base.think_time_ms = 400.0;

    let idle_detect = run_aging_experiment(
        StoreKind::Database,
        &base
            .clone()
            .with_maintenance(MaintenanceConfig::idle_detect(5.0)),
        &ages,
        false,
    )
    .unwrap();
    let placed = run_aging_experiment(
        StoreKind::Database,
        &base
            .clone()
            .with_placement(PlacementPolicy::banded(0.9))
            .with_maintenance(MaintenanceConfig::substrate_aware(5.0, 2000.0)),
        &ages,
        false,
    )
    .unwrap();

    let id_aged = idle_detect.points.last().unwrap();
    let placed_aged = placed.points.last().unwrap();
    assert!(
        placed_aged.background_time_s > 0.0,
        "placement-aware substrate-aware must actually work in the gaps"
    );
    assert!(
        placed_aged.fragments_per_object < id_aged.fragments_per_object * 0.85,
        "placement-aware substrate-aware ({:.2} frags) must clearly beat \
         unrestricted idle-detect ({:.2} frags) on DB steady-state fragmentation",
        placed_aged.fragments_per_object,
        id_aged.fragments_per_object
    );
    assert!(
        placed_aged.latency_p99_ms <= id_aged.latency_p99_ms * 1.05,
        "the frontier win must come at a comparable p99 ({:.1} vs {:.1} ms)",
        placed_aged.latency_p99_ms,
        id_aged.latency_p99_ms
    );
}

/// The placement acceptance scenario, oracle half: an explicit
/// [`PlacementPolicy::Unrestricted`] reproduces the default configuration's
/// layouts bit-identically on both substrates, with the serial maintenance
/// drive exercising the placement-aware compaction paths throughout the run.
/// (The substrate crates additionally pin Unrestricted against hand-rolled
/// replicas of the pre-placement compactor and defragmenter, so the default
/// placement cannot drift from the PR 4 behaviour unnoticed.)
#[test]
fn unrestricted_placement_is_bit_identical_to_the_default_layouts() {
    use lorepo::core::MaintenanceConfig;

    for kind in StoreKind::ALL {
        let base = mini(MB, 96 * MB).with_maintenance(MaintenanceConfig::fixed_budget(256));
        let explicit = base.clone().with_placement(PlacementPolicy::Unrestricted);
        let (default_store, _) = lorepo::core::age_store(kind, &base, 3).unwrap();
        let (explicit_store, _) = lorepo::core::age_store(kind, &explicit, 3).unwrap();
        assert_eq!(
            default_store.fragmentation(),
            explicit_store.fragmentation(),
            "{kind:?}: summaries must agree"
        );
        assert_eq!(default_store.keys(), explicit_store.keys());
        for key in default_store.keys() {
            assert_eq!(
                default_store.layout_of(&key).unwrap(),
                explicit_store.layout_of(&key).unwrap(),
                "{kind:?}: layout of {key} must be bit-identical"
            );
        }
    }
}

/// The `lor-maint` acceptance scenario: under the `Idle` policy
/// fragments/object grows monotonically with storage age, while the
/// `FixedBudget` and `Threshold` policies hold steady-state fragmentation
/// strictly lower at the price of measurably higher foreground latency (the
/// background I/O is charged to the same simulated spindle).
#[test]
fn maintenance_policies_trade_foreground_latency_for_fragmentation() {
    use lorepo::core::MaintenanceConfig;

    let ages = [0u32, 2, 4, 6];
    for kind in FRAGMENTING_KINDS {
        let base = mini(2 * MB, 128 * MB);
        let idle = run_aging_experiment(
            kind,
            &base.clone().with_maintenance(MaintenanceConfig::idle()),
            &ages,
            false,
        )
        .unwrap();
        let budget = run_aging_experiment(
            kind,
            &base
                .clone()
                .with_maintenance(MaintenanceConfig::fixed_budget(512)),
            &ages,
            false,
        )
        .unwrap();
        let threshold = run_aging_experiment(
            kind,
            &base
                .clone()
                .with_maintenance(MaintenanceConfig::threshold(1.5)),
            &ages,
            false,
        )
        .unwrap();

        // Idle: fragmentation grows monotonically with age (within a small
        // plateau tolerance — the filesystem curve levels off) and never
        // heals.
        let idle_frags: Vec<f64> = idle.points.iter().map(|p| p.fragments_per_object).collect();
        assert!(
            idle_frags.windows(2).all(|w| w[1] >= w[0] * 0.95),
            "{kind:?}: idle fragmentation must grow monotonically: {idle_frags:?}"
        );
        assert!(
            *idle_frags.last().unwrap() > idle_frags[0] + 0.2,
            "{kind:?}: idle fragmentation must actually grow: {idle_frags:?}"
        );
        assert_eq!(
            idle.points.last().unwrap().background_time_s,
            0.0,
            "{kind:?}: idle schedules no background work"
        );

        // Active policies: strictly lower steady-state fragmentation...
        let idle_aged = idle.points.last().unwrap();
        for (name, run) in [("fixed-budget", &budget), ("threshold", &threshold)] {
            let aged = run.points.last().unwrap();
            assert!(
                aged.fragments_per_object < idle_aged.fragments_per_object,
                "{kind:?}/{name}: maintenance must lower steady-state fragmentation \
                 ({} vs idle {})",
                aged.fragments_per_object,
                idle_aged.fragments_per_object
            );
            // ...bought with real background I/O...
            assert!(
                aged.background_time_s > 0.0,
                "{kind:?}/{name}: the scheduler must have worked"
            );
            // ...that shows up as measurably higher foreground latency.
            assert!(
                aged.foreground_latency_ms > idle_aged.foreground_latency_ms * 1.02,
                "{kind:?}/{name}: background maintenance must cost foreground latency \
                 ({:.3} ms vs idle {:.3} ms)",
                aged.foreground_latency_ms,
                idle_aged.foreground_latency_ms
            );
        }
    }
}

/// The log-structured substrate's determinism baseline: two identically
/// configured aging runs (cleaner active) must produce bit-identical stores —
/// same fragmentation summary, same key set, same per-object physical layout.
#[test]
fn log_structured_aging_is_bit_identical_across_runs() {
    use lorepo::core::MaintenanceConfig;

    let config = mini(MB, 96 * MB).with_maintenance(MaintenanceConfig::fixed_budget(64));
    let (first, _) = lorepo::core::age_store(StoreKind::LogStructured, &config, 3).unwrap();
    let (second, _) = lorepo::core::age_store(StoreKind::LogStructured, &config, 3).unwrap();
    assert_eq!(
        first.fragmentation(),
        second.fragmentation(),
        "summaries must agree"
    );
    assert_eq!(first.keys(), second.keys());
    for key in first.keys() {
        assert_eq!(
            first.layout_of(&key).unwrap(),
            second.layout_of(&key).unwrap(),
            "layout of {key} must be bit-identical"
        );
    }
}

/// The segment cleaner's acceptance scenario, idle half: with no background
/// cleaning, an aged log degrades monotonically under a skewed rewrite
/// workload — mean segment utilization falls (cold survivors strand dead
/// bytes in sealed segments) and fragments/object rises (allocation-pressure
/// vacates scatter the survivors' extents instead of rewriting objects
/// whole).  Uniform full-population overwrites would hide both effects:
/// they leave victims fully dead, reclaimed for free.
#[test]
fn uncleaned_log_utilization_and_fragmentation_degrade_with_age() {
    use lorepo::core::ObjectStore;

    let mut base = mini(MB, 96 * MB);
    base.object_size = SizeDistribution::uniform_around(MB);
    let mut store = lorepo::core::LogObjectStore::new(96 * MB).unwrap();
    let mut generator = lorepo::core::WorkloadGenerator::new(base.workload());
    for op in generator.bulk_load() {
        if let WorkloadOp::Put { key, size } = op {
            store.put(&key.to_string(), size).unwrap();
        }
    }
    let mut utilization = vec![store.log().segment_stats().mean_utilization];
    let mut frags = vec![store.fragmentation().fragments_per_object];
    for _ in 0..16 {
        for op in generator.zipf_safe_write_sample(8, 1.0) {
            if let WorkloadOp::SafeWrite { key, size } = op {
                store.safe_write(&key.to_string(), size).unwrap();
            }
        }
        utilization.push(store.log().segment_stats().mean_utilization);
        frags.push(store.fragmentation().fragments_per_object);
    }
    assert!(
        utilization.windows(2).all(|w| w[1] <= w[0] * 1.05),
        "utilization must fall monotonically: {utilization:?}"
    );
    assert!(
        *utilization.last().unwrap() < utilization[0] * 0.9,
        "utilization must actually degrade: {utilization:?}"
    );
    assert!(
        frags.windows(2).all(|w| w[1] >= w[0] * 0.95),
        "fragmentation must rise monotonically: {frags:?}"
    );
    assert!(
        *frags.last().unwrap() > frags[0] + 0.2,
        "fragmentation must actually grow: {frags:?}"
    );
}

/// The segment cleaner's acceptance scenario, active half: driving the
/// cleaner as budgeted maintenance holds steady-state fragments/object
/// strictly below the idle log's, bought with real background copying that
/// shows up as a measurably higher foreground p99.
#[test]
fn log_cleaner_trades_foreground_tail_latency_for_fragmentation() {
    use lorepo::core::{
        LogObjectStore, LogStoreConfig, MaintenanceConfig, ObjectStore, WorkloadGenerator,
    };

    let mut base = mini(MB, 96 * MB);
    base.object_size = SizeDistribution::uniform_around(MB);
    let run = |maintenance: Option<MaintenanceConfig>| {
        let mut config = LogStoreConfig::new(96 * MB);
        config.maintenance = maintenance;
        let mut store = LogObjectStore::with_config(config).unwrap();
        let mut generator = WorkloadGenerator::new(base.workload());
        let mut server = StoreServer::new(&mut store);
        server
            .run_closed_loop(generator.bulk_load(), 1, SimDuration::ZERO)
            .unwrap();
        let mut p99_ms = 0.0;
        for _ in 0..8 {
            let round = generator.zipf_safe_write_sample(48, 1.0);
            let completions = server.run_closed_loop(round, 2, SimDuration::ZERO).unwrap();
            p99_ms = LatencySummary::of(&completions).p99_ms;
        }
        drop(server);
        let frags = store.fragmentation().fragments_per_object;
        let copied = store.log().cleaner_totals().bytes_copied;
        (frags, p99_ms, copied)
    };

    let (idle_frags, idle_p99, idle_copied) = run(None);
    let (cleaned_frags, cleaned_p99, cleaned_copied) =
        run(Some(MaintenanceConfig::fixed_budget(64)));

    assert_eq!(idle_copied, 0, "without a scheduler the cleaner never runs");
    assert!(
        cleaned_copied > 0,
        "the budgeted cleaner must have copied something"
    );
    assert!(
        cleaned_frags < idle_frags,
        "cleaning must lower steady-state fragmentation \
         ({cleaned_frags:.3} vs idle {idle_frags:.3})"
    );
    assert!(
        cleaned_p99 > idle_p99 * 1.02,
        "cleaning must cost foreground tail latency \
         (p99 {cleaned_p99:.3} ms vs idle {idle_p99:.3} ms)"
    );
}

/// Rosenblum's cost-benefit victim selection beats greedy at equal cleaning
/// budget under a skewed rewrite workload: age makes cold, moderately-dead
/// segments worth compacting, so long-lived objects end up less fragmented
/// than under lowest-utilization-first selection.  The margin only exists
/// while the budget is scarce — a lavish budget cleans everything under
/// either selector — so the budget here is deliberately tight.
#[test]
fn cost_benefit_cleaning_beats_greedy_at_equal_budget() {
    use lorepo::core::lor_logstore::CleanerSelector;
    use lorepo::core::{
        LogObjectStore, LogStoreConfig, MaintenanceConfig, ObjectStore, WorkloadGenerator,
    };

    let build = |selector: CleanerSelector| {
        let mut config = LogStoreConfig::new(96 * MB);
        config.log.selector = selector;
        config.maintenance = Some(MaintenanceConfig::fixed_budget(16));
        LogObjectStore::with_config(config).unwrap()
    };
    let mut cost_benefit = build(CleanerSelector::CostBenefit);
    let mut greedy = build(CleanerSelector::Greedy);

    let mut base = mini(MB, 96 * MB);
    base.object_size = SizeDistribution::uniform_around(MB);
    let mut generator = WorkloadGenerator::new(base.workload());
    let load = generator.bulk_load();
    for store in [&mut cost_benefit, &mut greedy] {
        for op in &load {
            if let WorkloadOp::Put { key, size } = op {
                store.put(&key.to_string(), *size).unwrap();
            }
        }
    }
    // Zipf-skewed rewrites: the hot ranks churn constantly while cold
    // objects rot in place — exactly the population where victim age
    // matters.  Both stores replay the identical op stream, so the cleaning
    // budget spent per foreground op is equal by construction.
    for _ in 0..16 {
        let round = generator.zipf_safe_write_sample(24, 1.0);
        for store in [&mut cost_benefit, &mut greedy] {
            for op in &round {
                if let WorkloadOp::SafeWrite { key, size } = op {
                    store.safe_write(&key.to_string(), *size).unwrap();
                }
            }
        }
    }

    let cb_frags = cost_benefit.fragmentation().fragments_per_object;
    let greedy_frags = greedy.fragmentation().fragments_per_object;
    assert!(
        cb_frags < greedy_frags,
        "cost-benefit must beat greedy on fragments/object at equal budget \
         ({cb_frags:.3} vs {greedy_frags:.3})"
    );
}
