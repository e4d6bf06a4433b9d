//! End-to-end properties of the sharded store.
//!
//! * **Degenerate equivalence** — a fleet of one shard is *bit-identical*
//!   to a bare [`StoreServer`] over the same store: same completions, same
//!   clock, same fragmentation.  This pins the sharding layer's overhead to
//!   exactly zero model drift: everything the rest of the workspace
//!   established about a single server still holds inside each shard.
//! * **Fan-out tail amplification** — under queueing (depth ≥ 8), the p99
//!   of multi-object reads grows monotonically with fan-out width: the
//!   wider the read, the more likely one sub-read lands on a busy shard.
//! * **Rebalancing** — under Zipfian safe-write load the per-shard
//!   fragmentation skews; the rebalancing drive pulls the skew back down by
//!   migrating fragmented objects off the worst shard, and its destination
//!   writes never touch any shard's foreground band.

use lor_core::{
    Arrivals, ExperimentConfig, FleetParallelism, MixedOpenLoop, ObjectKey, OpenLoop,
    PlacementPolicy, SizeDistribution, StoreError, StoreKind, StoreRequest, StoreServer,
    WorkloadGenerator, WorkloadOp,
};
use lor_disksim::SimDuration;
use lor_obs::Obs;
use lor_shard::{fanout_p99_ms, RouterPolicy, ShardedStore};

fn small_config(object_size: u64, volume: u64) -> ExperimentConfig {
    let mut config = ExperimentConfig::paper_default(SizeDistribution::Constant(object_size));
    config.volume_bytes = volume;
    config
}

/// The aggregate mixed schedule a fleet interval runs: drawn once, from
/// time zero.
fn mixed(
    load: MixedOpenLoop,
    reads: Vec<WorkloadOp>,
    writes: Vec<WorkloadOp>,
) -> Vec<StoreRequest> {
    load.schedule(SimDuration::ZERO, reads, writes)
        .expect("schedule")
}

#[test]
fn a_single_shard_fleet_is_bit_identical_to_a_bare_server() {
    for kind in StoreKind::ALL {
        let config = small_config(512 << 10, 128 << 20);
        let mut generator = WorkloadGenerator::new(config.workload());
        let ops = generator.bulk_load();
        let reads = generator.read_sample(120);
        let writes = generator.safe_write_sample(60);
        let load = MixedOpenLoop {
            read_ops_per_sec: 30.0,
            write_ops_per_sec: 15.0,
            seed: 7,
        };

        // The bare server: serial bulk load, then a fresh server (clock at
        // zero) runs the mixed measurement — the same two phases the fleet
        // performs.
        let mut bare = config.build_store(kind).expect("bare store");
        {
            let mut server = StoreServer::new(bare.as_mut());
            server
                .run_closed_loop(ops.clone(), 1, SimDuration::ZERO)
                .expect("bare bulk load");
        }
        let bare_completions = {
            let mut server = StoreServer::new(bare.as_mut());
            let schedule = mixed(load, reads.clone(), writes.clone());
            let mut completions = Vec::new();
            server
                .run(Arrivals::Open(schedule), |c| completions.push(c))
                .expect("bare mixed run");
            completions
        };

        let mut fleet = ShardedStore::new(
            kind,
            &config,
            1,
            RouterPolicy::ConsistentHash { vnodes: 16 },
        )
        .expect("fleet");
        fleet.load(ops).expect("fleet bulk load");
        let fleet_completions = fleet
            .run(mixed(load, reads, writes))
            .expect("fleet mixed run");

        assert_eq!(
            bare_completions, fleet_completions,
            "{kind}: one-shard completions must be bit-identical to the bare server"
        );
        assert_eq!(bare.elapsed(), fleet.elapsed(), "{kind}: clocks diverged");
        let bare_frag = bare.fragmentation();
        let fleet_frag = fleet.fragmentation();
        assert_eq!(
            bare_frag.fragments_per_object, fleet_frag.fragments_per_object,
            "{kind}: fragmentation diverged"
        );
        assert_eq!(bare_frag.excess_fragments(), fleet_frag.excess_fragments());
        assert_eq!(bare.object_count(), fleet.object_count());
        assert_eq!(bare.live_bytes(), fleet.live_bytes());
    }
}

#[test]
fn fanout_p99_amplification_is_monotone_in_width() {
    let config = small_config(512 << 10, 256 << 20);
    let mut fleet = ShardedStore::new(
        StoreKind::Filesystem,
        &config,
        4,
        RouterPolicy::ConsistentHash { vnodes: 16 },
    )
    .expect("fleet");
    let mut generator = WorkloadGenerator::new(config.workload());
    fleet.load(generator.bulk_load()).expect("bulk load");
    let keys: Vec<ObjectKey> = generator.live_keys().collect();

    // The offered group rate is fixed; widening the fan-out multiplies the
    // per-shard read rate, pushing the busiest shard deep into queueing.
    let mut previous = 0.0f64;
    for width in [1usize, 2, 4] {
        let groups: Vec<Vec<ObjectKey>> = (0..160)
            .map(|group| {
                (0..width)
                    .map(|part| keys[(group * 7 + part * 13) % keys.len()])
                    .collect()
            })
            .collect();
        let completions = fleet
            .run_fanout_reads(
                groups,
                OpenLoop {
                    ops_per_sec: 30.0,
                    seed: 11,
                },
            )
            .expect("fan-out run");
        assert_eq!(completions.len(), 160);
        assert!(completions.iter().all(|c| c.width() == width));
        let p99 = fanout_p99_ms(&completions);
        assert!(
            p99 >= previous,
            "p99 must be monotone in fan-out width: width {width} gave {p99:.1} ms after {previous:.1} ms"
        );
        previous = p99;
        if width == 4 {
            // The monotonicity claim is about *queueing* amplification, so
            // the widest setting must actually have queued.
            let deepest = fleet
                .last_queue_stats()
                .iter()
                .map(|queue| queue.max_depth)
                .max()
                .unwrap_or(0);
            assert!(deepest >= 8, "widest run only reached depth {deepest}");
            // Stragglers are attributable: some group's slowest shard cost
            // it real time over its fastest.
            assert!(completions
                .iter()
                .any(|c| c.straggler_penalty() > SimDuration::ZERO));
        }
    }
}

#[test]
fn rebalancing_reduces_skew_without_touching_foreground_bands() {
    let mut config = small_config(1 << 20, 512 << 20);
    config.placement = PlacementPolicy::banded(0.7);
    let mut fleet = ShardedStore::new(
        StoreKind::Filesystem,
        &config,
        4,
        RouterPolicy::ConsistentHash { vnodes: 16 },
    )
    .expect("fleet");
    let mut generator = WorkloadGenerator::new(config.workload());
    fleet.load(generator.bulk_load()).expect("bulk load");

    // Zipfian churn: the hot ranks hammer whichever shards they hashed to,
    // so fragmentation accumulates unevenly across the fleet.  Each round's
    // sample is deduplicated (first hit wins) because two safe writes to
    // one key cannot share a dispatch batch; the popularity skew — hot keys
    // rewritten every round, cold ones rarely — is what matters here.
    for _ in 0..4 {
        let reads = generator.zipf_read_sample(40, 1.1);
        let mut seen = std::collections::HashSet::new();
        let writes: Vec<_> = generator
            .zipf_safe_write_sample(160, 1.1)
            .into_iter()
            .filter(|op| match op {
                lor_core::WorkloadOp::SafeWrite { key, .. } => seen.insert(*key),
                _ => true,
            })
            .collect();
        let load = MixedOpenLoop {
            read_ops_per_sec: 20.0,
            write_ops_per_sec: 80.0,
            seed: 3,
        };
        fleet.run(mixed(load, reads, writes)).expect("aging run");
    }

    let worst_shard_fpo = |fleet: &ShardedStore| {
        fleet
            .per_shard_fragmentation()
            .iter()
            .map(|summary| summary.fragments_per_object)
            .fold(0.0f64, f64::max)
    };
    let worst_before = worst_shard_fpo(&fleet);
    let skew_before = fleet.fragmentation_skew();
    assert!(
        skew_before > 1.02,
        "Zipfian churn must skew the fleet (max/mean skew {skew_before:.3})"
    );
    let foreground_before: Vec<f64> = (0..4)
        .map(|shard| {
            fleet
                .shard(shard)
                .band_occupancy()
                .expect("banded stores report occupancy")
                .foreground_used
        })
        .collect();

    for _ in 0..24 {
        let io = fleet.run_rebalance_slice(16 << 20);
        if io.is_none() {
            break;
        }
    }

    assert!(
        fleet.objects_migrated() >= 1,
        "the drive must have migrated something"
    );
    let worst_after = worst_shard_fpo(&fleet);
    let skew_after = fleet.fragmentation_skew();
    assert!(
        worst_after < worst_before,
        "the worst shard must improve ({worst_before:.3} -> {worst_after:.3})"
    );
    assert!(
        skew_after < skew_before,
        "rebalancing must reduce the max/mean skew ({skew_before:.3} -> {skew_after:.3})"
    );
    // The placement guarantee: migration wrote only into maintenance bands,
    // so no shard's foreground band grew (the source's shrinks as migrated
    // objects leave it).
    for (shard, &before) in foreground_before.iter().enumerate() {
        let after = fleet
            .shard(shard)
            .band_occupancy()
            .expect("banded stores report occupancy")
            .foreground_used;
        assert!(
            after <= before + 1e-12,
            "shard {shard}: foreground band grew during rebalancing ({before:.4} -> {after:.4})"
        );
    }
}

/// Runs one full fleet scenario — parallel bulk load, a mixed open-loop
/// interval, fan-out reads, and budgeted rebalancing — under the given
/// parallelism, returning everything an observer could compare.
#[allow(clippy::type_complexity)]
fn fleet_scenario(
    kind: StoreKind,
    parallelism: FleetParallelism,
) -> (
    Vec<lor_core::Completion>,
    Vec<lor_shard::FanoutCompletion>,
    SimDuration,
    Vec<f64>,
    usize,
    u64,
    String,
) {
    let config = small_config(512 << 10, 96 << 20).with_fleet_parallelism(parallelism);
    let mut fleet = ShardedStore::new(
        kind,
        &config,
        3,
        RouterPolicy::ConsistentHash { vnodes: 16 },
    )
    .expect("fleet");
    let (obs, trace) = Obs::trace(1 << 14);
    fleet.set_obs(obs);
    let mut generator = WorkloadGenerator::new(config.workload());
    fleet.load(generator.bulk_load()).expect("bulk load");
    let reads = generator.read_sample(96);
    let writes = generator.safe_write_sample(48);
    let load = MixedOpenLoop {
        read_ops_per_sec: 40.0,
        write_ops_per_sec: 20.0,
        seed: 9,
    };
    let completions = fleet.run(mixed(load, reads, writes)).expect("mixed run");
    let keys: Vec<ObjectKey> = generator.live_keys().collect();
    let groups: Vec<Vec<ObjectKey>> = (0..48)
        .map(|group| {
            (0..3)
                .map(|part| keys[(group * 5 + part * 11) % keys.len()])
                .collect()
        })
        .collect();
    let fanout = fleet
        .run_fanout_reads(
            groups,
            OpenLoop {
                ops_per_sec: 25.0,
                seed: 13,
            },
        )
        .expect("fan-out run");
    for _ in 0..8 {
        fleet.run_rebalance_slice(8 << 20);
    }
    let frag: Vec<f64> = fleet
        .per_shard_fragmentation()
        .iter()
        .map(|summary| summary.fragments_per_object)
        .collect();
    (
        completions,
        fanout,
        fleet.elapsed(),
        frag,
        fleet.object_count(),
        fleet.migration_refusals(),
        trace.to_chrome_json(),
    )
}

#[test]
fn parallel_fleet_is_bit_identical_to_serial_on_every_substrate() {
    for kind in [
        StoreKind::Filesystem,
        StoreKind::Database,
        StoreKind::LogStructured,
    ] {
        let serial = fleet_scenario(kind, FleetParallelism::Serial);
        // One thread per shard, and a smaller work-stealing pool (2 workers
        // over 3 shards) — both must match the serial reference exactly,
        // down to the spliced trace.
        for threads in [2u32, 8] {
            let parallel = fleet_scenario(kind, FleetParallelism::Threads(threads));
            assert_eq!(
                serial.0, parallel.0,
                "{kind}/threads({threads}): completions diverged from serial"
            );
            assert_eq!(
                serial.1, parallel.1,
                "{kind}/threads({threads}): fan-out completions diverged"
            );
            assert_eq!(
                serial.2, parallel.2,
                "{kind}/threads({threads}): fleet clock diverged"
            );
            assert_eq!(
                serial.3, parallel.3,
                "{kind}/threads({threads}): per-shard fragmentation diverged"
            );
            assert_eq!(serial.4, parallel.4, "{kind}/threads({threads}): objects");
            assert_eq!(
                serial.5, parallel.5,
                "{kind}/threads({threads}): migration refusals diverged"
            );
            assert_eq!(
                serial.6, parallel.6,
                "{kind}/threads({threads}): spliced traces diverged"
            );
        }
    }
}

#[test]
fn concurrent_rebalancing_reduces_skew_while_load_is_in_flight() {
    let make_fleet = |parallelism: FleetParallelism| {
        let mut config = small_config(1 << 20, 512 << 20).with_fleet_parallelism(parallelism);
        config.placement = PlacementPolicy::banded(0.7);
        let fleet = ShardedStore::new(
            StoreKind::Filesystem,
            &config,
            4,
            RouterPolicy::ConsistentHash { vnodes: 16 },
        )
        .expect("fleet");
        (config, fleet)
    };
    let churn = |generator: &mut WorkloadGenerator| {
        let reads = generator.zipf_read_sample(40, 1.1);
        let mut seen = std::collections::HashSet::new();
        let writes: Vec<_> = generator
            .zipf_safe_write_sample(160, 1.1)
            .into_iter()
            .filter(|op| match op {
                WorkloadOp::SafeWrite { key, .. } => seen.insert(*key),
                _ => true,
            })
            .collect();
        (reads, writes)
    };
    let load = MixedOpenLoop {
        read_ops_per_sec: 20.0,
        write_ops_per_sec: 80.0,
        seed: 3,
    };

    // Baseline: identical churn with no rebalancing at all.
    let (config, mut idle) = make_fleet(FleetParallelism::Serial);
    let mut generator = WorkloadGenerator::new(config.workload());
    idle.load(generator.bulk_load()).expect("bulk load");
    for _ in 0..4 {
        let (reads, writes) = churn(&mut generator);
        idle.run(mixed(load, reads, writes)).expect("churn");
    }
    let idle_skew = idle.fragmentation_skew();
    assert!(
        idle_skew > 1.02,
        "Zipfian churn must skew the fleet (got {idle_skew:.3})"
    );

    // Concurrent: the same churn intervals, with budgeted rebalance slices
    // interleaved between arrival-time windows *inside* each interval —
    // run under both serial and threaded drainage, which must agree.
    let mut outcomes = Vec::new();
    for parallelism in [FleetParallelism::Serial, FleetParallelism::Threads(3)] {
        let (config, mut fleet) = make_fleet(parallelism);
        let mut generator = WorkloadGenerator::new(config.workload());
        fleet.load(generator.bulk_load()).expect("bulk load");
        let mut completions = Vec::new();
        for _ in 0..4 {
            let (reads, writes) = churn(&mut generator);
            completions.extend(
                fleet
                    .run_with_rebalance(mixed(load, reads, writes), 16 << 20, 8)
                    .expect("concurrent churn"),
            );
        }
        outcomes.push((
            completions,
            fleet.fragmentation_skew(),
            fleet.objects_migrated(),
            fleet.elapsed(),
        ));
    }
    assert_eq!(
        outcomes[0], outcomes[1],
        "concurrent rebalancing must be bit-identical under threaded drainage"
    );
    let (_, skew, migrated, _) = &outcomes[0];
    assert!(
        *migrated >= 1,
        "rebalancing under load must have migrated something"
    );
    assert!(
        *skew < idle_skew,
        "load-concurrent rebalancing must beat no rebalancing ({idle_skew:.3} -> {skew:.3})"
    );
}

#[test]
fn unknown_key_reads_and_deletes_are_a_typed_miss() {
    let config = small_config(512 << 10, 64 << 20);
    let mut fleet = ShardedStore::new(
        StoreKind::Filesystem,
        &config,
        4,
        RouterPolicy::ConsistentHash { vnodes: 16 },
    )
    .expect("fleet");
    let mut generator = WorkloadGenerator::new(config.workload());
    fleet.load(generator.bulk_load()).expect("bulk load");

    // A key the fleet has never seen: the directory, not the router, says
    // where an object lives, so a key it lacks is a typed miss rather than
    // a request sent to the shard the router would pick for a new object.
    let ghost = ObjectKey(u64::MAX - 7);
    let load = OpenLoop {
        ops_per_sec: 10.0,
        seed: 1,
    };
    for op in [
        WorkloadOp::Get { key: ghost },
        WorkloadOp::Delete { key: ghost },
    ] {
        let result = fleet.run(load.schedule(SimDuration::ZERO, vec![op]).unwrap());
        assert!(
            matches!(result, Err(StoreError::NoSuchObject(ref key)) if key == &ghost.to_string()),
            "unknown-key {op:?} must surface as a typed miss, got {result:?}"
        );
    }

    // Known keys still route through the directory and succeed.
    let known = generator.live_keys().next().unwrap();
    let known_read = vec![WorkloadOp::Get { key: known }];
    let completions = fleet
        .run(load.schedule(SimDuration::ZERO, known_read).unwrap())
        .expect("known-key read");
    assert_eq!(completions.len(), 1);
}
