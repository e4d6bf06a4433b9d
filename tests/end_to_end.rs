//! Cross-crate integration tests on miniature configurations: the marker
//! tool, the log's determinism baseline, one pin no figure carries, and the
//! one paper claim no figure carries.  The claims of Figures 1–6 and of every
//! scenario family (the allocation-policy and maintenance ablations and the
//! log cleaner's frontier among them) are predicates over the report- and
//! paper-scale goldens, in `crates/bench/tests/paper_claims.rs`.

use lorepo::core::{
    age_store, analyze_store, run_aging_experiment, ExperimentConfig, SizeDistribution, StoreKind,
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
