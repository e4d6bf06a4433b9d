//! Cross-crate integration tests on miniature configurations: the marker
//! tool, the segment cleaner and its determinism baseline, one pin no figure
//! carries, and the one paper claim no figure carries.  The claims of
//! Figures 1–6 and of every scenario family (the allocation-policy and
//! maintenance ablations among them) are predicates over the report- and
//! paper-scale goldens, in `crates/bench/tests/paper_claims.rs`.

use lorepo::core::lor_disksim::SimDuration;
use lorepo::core::{
    age_store, analyze_store, run_aging_experiment, ExperimentConfig, LatencySummary,
    SizeDistribution, StoreKind, StoreServer, WorkloadOp,
};

const MB: u64 = 1 << 20;

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

/// A regression pin for the database's eager-cleanup pathology that no
/// figure carries, stated at this 128 MB fixture only: under a gap-filling
/// workload, `IdleDetect` — which reclaims ghosts in every idle gap and
/// feeds the engine's lowest-first reuse — must not beat `SubstrateAware`
/// with ghost release deferred by 8 s of simulated time (several overwrite
/// rounds here) on fragments/object, at a comparable p99.  The figures use a
/// 2 s hold, at which the report golden's `substrate-aware` series equal
/// `idle-detect`'s.
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
}

/// The log-structured substrate's determinism baseline: two identically
/// configured aging runs (cleaner active) must produce bit-identical stores —
/// same fragmentation summary, same key set, same per-object physical layout.
#[test]
fn log_structured_aging_is_bit_identical_across_runs() {
    use lorepo::core::MaintenanceConfig;

    let config = mini(MB, 96 * MB).with_maintenance(MaintenanceConfig::fixed_budget(64));
    let (first, _) = age_store(StoreKind::LogStructured, &config, 3).unwrap();
    let (second, _) = age_store(StoreKind::LogStructured, &config, 3).unwrap();
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
