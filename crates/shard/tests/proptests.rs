//! Property tests for the sharded fleet.
//!
//! * **Router** — reshard cheapness (adding one shard to an `n`-shard fleet
//!   moves only ~`1/(n+1)` of the keys, and every moved key moves *to* the
//!   new shard) and bit-identical routing across independently built tables
//!   — the property the sharded arrival streams rely on for seed stability.
//! * **Parallel execution** — driving the fleet with worker threads is
//!   *bit-identical* to the serial drain for every substrate and fleet
//!   width, and repeated parallel runs are deterministic: thread scheduling
//!   must never leak into simulated time, completions, fragmentation, or
//!   rebalancing decisions.

use lor_core::{
    ExperimentConfig, FleetParallelism, MixedOpenLoop, ObjectKey, SizeDistribution, StoreKind,
    WorkloadGenerator,
};
use lor_shard::{Router, RouterPolicy, ShardedStore};
use proptest::prelude::*;

/// Spreads sequential draws over the key space so the sampled keys exercise
/// the whole ring rather than one arc.
fn key(base: u64, index: u64) -> ObjectKey {
    ObjectKey(base.wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Growing the fleet by one shard relocates at most ~1/(n+1) of the
    /// keys (within generous sampling slack), and never shuffles a key
    /// between two *old* shards — consistent hashing's defining guarantee.
    #[test]
    fn adding_a_shard_moves_at_most_its_fair_share_of_keys(
        shards in 2u32..12,
        vnodes in 8u32..48,
        base in any::<u64>(),
    ) {
        let before = Router::new(RouterPolicy::ConsistentHash { vnodes }, shards);
        let after = Router::new(RouterPolicy::ConsistentHash { vnodes }, shards + 1);
        let samples = 4000u64;
        let mut moved = 0u64;
        for index in 0..samples {
            let key = key(base, index);
            let old = before.route(key, 1 << 20);
            let new = after.route(key, 1 << 20);
            if old != new {
                prop_assert_eq!(
                    new, shards,
                    "a moved key must move to the new shard, not between old ones"
                );
                moved += 1;
            }
        }
        let fair_share = samples as f64 / f64::from(shards + 1);
        prop_assert!(
            (moved as f64) < fair_share * 3.0,
            "adding shard {} to {} moved {moved}/{samples} keys (fair share ~{fair_share:.0})",
            shards, shards
        );
    }

    /// Routing is a pure function of the table parameters and the key: two
    /// tables built from the same policy route every key identically, and
    /// the size a caller passes never changes the answer — no RNG state, no
    /// platform-dependent hashing.
    #[test]
    fn routing_is_bit_identical_across_table_rebuilds(
        shards in 1u32..16,
        vnodes in 1u32..64,
        base in any::<u64>(),
    ) {
        let first = Router::new(RouterPolicy::ConsistentHash { vnodes }, shards);
        let second = Router::new(RouterPolicy::ConsistentHash { vnodes }, shards);
        for index in 0..600u64 {
            let key = key(base, index);
            let route = first.route(key, 0);
            prop_assert!(route < shards);
            for size in [0u64, 1 << 20, u64::MAX] {
                prop_assert_eq!(route, second.route(key, size));
            }
        }
    }
}

/// One small fleet scenario — bulk load, a mixed open-loop interval, and two
/// budgeted rebalance slices — returning everything an observer could
/// compare across parallelism modes.
fn fleet_outcome(
    kind: StoreKind,
    shards: u32,
    seed: u64,
    parallelism: FleetParallelism,
) -> (
    Vec<lor_core::Completion>,
    lor_disksim::SimDuration,
    Vec<f64>,
    usize,
    u64,
) {
    let mut config = ExperimentConfig::paper_default(SizeDistribution::Constant(256 << 10));
    config.volume_bytes = 128 << 20;
    let config = config.with_fleet_parallelism(parallelism);
    let mut fleet = ShardedStore::new(
        kind,
        &config,
        shards,
        RouterPolicy::ConsistentHash { vnodes: 8 },
    )
    .expect("fleet");
    let mut generator = WorkloadGenerator::new(config.workload());
    fleet.load(generator.bulk_load()).expect("bulk load");
    let reads = generator.read_sample(48);
    let writes = generator.safe_write_sample(24);
    let load = MixedOpenLoop {
        read_ops_per_sec: 40.0,
        write_ops_per_sec: 20.0,
        seed,
    };
    let schedule = load
        .schedule(lor_disksim::SimDuration::ZERO, reads, writes)
        .expect("schedule");
    let completions = fleet.run(schedule).expect("mixed run");
    for _ in 0..2 {
        fleet.run_rebalance_slice(4 << 20);
    }
    let frag: Vec<f64> = fleet
        .per_shard_fragmentation()
        .iter()
        .map(|summary| summary.fragments_per_object)
        .collect();
    (
        completions,
        fleet.elapsed(),
        frag,
        fleet.object_count(),
        fleet.migration_refusals(),
    )
}

proptest! {
    // Each case runs 9 kind×width combos three times over; a handful of
    // cases over varying seeds and pool sizes is plenty.
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Worker-thread execution is bit-identical to the serial drain —
    /// completions, the fleet clock, per-shard fragmentation, the object
    /// census, and rebalancing refusals — for every substrate at fleet
    /// widths below, equal to, and above the worker count.  A second
    /// parallel run must also match the first: thread scheduling can affect
    /// only wall-clock, never the simulation.
    #[test]
    fn parallel_fleet_execution_is_bit_identical_to_serial(
        seed in 1u64..10_000,
        threads in 2u32..6,
    ) {
        for kind in [
            StoreKind::Filesystem,
            StoreKind::Database,
            StoreKind::LogStructured,
        ] {
            for shards in [1u32, 3, 8] {
                let serial = fleet_outcome(kind, shards, seed, FleetParallelism::Serial);
                let parallel =
                    fleet_outcome(kind, shards, seed, FleetParallelism::Threads(threads));
                let again =
                    fleet_outcome(kind, shards, seed, FleetParallelism::Threads(threads));
                prop_assert_eq!(
                    &serial.0, &parallel.0,
                    "{}/{} shards: completions diverged from serial", kind, shards
                );
                prop_assert_eq!(
                    serial.1, parallel.1,
                    "{}/{} shards: fleet clock diverged", kind, shards
                );
                prop_assert_eq!(
                    &serial.2, &parallel.2,
                    "{}/{} shards: per-shard fragmentation diverged", kind, shards
                );
                prop_assert_eq!(
                    serial.3, parallel.3,
                    "{}/{} shards: object census diverged", kind, shards
                );
                prop_assert_eq!(
                    serial.4, parallel.4,
                    "{}/{} shards: migration refusals diverged", kind, shards
                );
                prop_assert_eq!(
                    &parallel, &again,
                    "{}/{} shards: repeated parallel runs diverged", kind, shards
                );
            }
        }
    }
}
