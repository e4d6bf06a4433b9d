//! The experiment loop folds completions in sinks and keeps none; these
//! tests show that every number it reports is the one the collected
//! completions gave, bit for bit.  The oracles below are the loops as they
//! were written over [`StoreServer::run_closed_loop`]'s vector, run on a
//! twin store built from the same configuration.

use lor_core::lor_disksim::{throughput_mb_per_sec, SimDuration};
use lor_core::{
    age_store, calibrate_mixed_load, run_aging_experiment, serial_capacity, AgePoint,
    ExperimentConfig, LatencyHistogram, LatencySummary, MaintenanceConfig, SizeDistribution,
    StorageAgeTracker, StoreKind, StoreServer, WorkloadGenerator, WorkloadOp,
};

const MB: u64 = 1 << 20;

/// A small aged store of 1 MB objects at half of 96 MB, aged by 4 clients
/// with think time under a fixed-budget maintenance drive, so the latency,
/// queue and background fields of every point are non-trivial.
fn small_config() -> ExperimentConfig {
    let mut config = ExperimentConfig::paper_default(SizeDistribution::Constant(MB))
        .with_maintenance(MaintenanceConfig::fixed_budget(16));
    config.volume_bytes = 96 * MB;
    config.seed = 7;
    config.read_sample = Some(16);
    config.think_time_ms = 2.0;
    config
}

#[test]
fn calibrated_capacity_is_the_mean_over_the_collected_completions() {
    const AGE: u32 = 1;
    const OPS: usize = 40;
    let config = small_config();
    for kind in StoreKind::ALL {
        for write_fraction in [0.3, 1.0] {
            let calibration =
                calibrate_mixed_load(kind, &config, AGE, write_fraction, OPS).expect("calibrates");
            // The formula the calibration replaced, over the same mix drawn
            // the same way on a twin store.
            let (mut twin, mut generator) = age_store(kind, &config, AGE).expect("twin ages");
            let writes = ((OPS as f64) * write_fraction).round() as usize;
            let mut mix = generator.read_sample(OPS - writes);
            mix.extend(generator.safe_write_sample(writes));
            let completions = StoreServer::new(twin.as_mut())
                .run_closed_loop(mix, 1, SimDuration::ZERO)
                .expect("serial mix runs");
            assert_eq!(completions.len(), OPS);
            let collected = 1e3 / LatencySummary::of(&completions).mean_ms.max(1e-6);
            assert_eq!(
                calibration.capacity_ops_per_sec.to_bits(),
                collected.to_bits(),
                "{kind} at write fraction {write_fraction}: {} vs {collected}",
                calibration.capacity_ops_per_sec
            );
        }
    }
    // No operation at all: the zero mean an empty summary reports, floored.
    let (mut store, _) = age_store(StoreKind::Database, &config, 0).expect("store builds");
    let empty = serial_capacity(&mut StoreServer::new(store.as_mut()), Vec::new()).unwrap();
    let collected = 1e3 / LatencySummary::of(&[]).mean_ms.max(1e-6);
    assert_eq!(empty.to_bits(), collected.to_bits());
}

#[test]
fn aging_points_are_those_of_the_collected_completions() {
    const AGES: [u32; 3] = [0, 1, 3];
    let config = small_config();
    for kind in StoreKind::ALL {
        let folded = run_aging_experiment(kind, &config, &AGES, true).expect("ages");
        assert_eq!(
            folded.points,
            collected_aging_points(kind, &config, &AGES),
            "{kind}"
        );
    }
}

/// `run_aging_experiment`'s points as its loop computed them from collected
/// completions: the bulk load's exact summary over its completion vector, each
/// round's completions recorded into the interval histogram after the round,
/// and each read pass's payload summed over its vector.  `ages` must be
/// sorted and distinct.
fn collected_aging_points(
    kind: StoreKind,
    config: &ExperimentConfig,
    ages: &[u32],
) -> Vec<AgePoint> {
    let mut store = config.build_store(kind).expect("store builds");
    let mut generator = WorkloadGenerator::new(config.workload());
    let mut tracker = StorageAgeTracker::new();
    let mut server = StoreServer::new(store.as_mut());
    let serve = |server: &mut StoreServer<'_>, ops, clients, think_time| {
        server
            .run_closed_loop(ops, clients, think_time)
            .expect("schedule runs")
    };

    server.store_mut().reset_measurements();
    server.reset_queue_stats();
    let completions = serve(&mut server, generator.bulk_load(), 1, SimDuration::ZERO);
    let mut bulk_bytes = 0;
    for completion in &completions {
        if let WorkloadOp::Put { size, .. } = completion.request.op {
            tracker.record_put(size);
            bulk_bytes += size;
        }
    }
    let elapsed = server.store().elapsed();
    let mut throughput = throughput_mb_per_sec(bulk_bytes, elapsed);
    let mut latency = elapsed
        .checked_div_int(completions.len().max(1) as u64)
        .as_millis_f64();
    let mut summary = LatencySummary::of(&completions);
    let mut queue = server.queue_stats();

    let think_time = SimDuration::from_millis_f64(config.think_time_ms);
    let mut age = 0;
    let mut points = Vec::new();
    for &target in ages {
        if target > age {
            server.store_mut().reset_measurements();
            server.reset_queue_stats();
            let (mut written, mut ops) = (0, 0);
            let mut hist = LatencyHistogram::new();
            while age < target {
                let round = generator.overwrite_round();
                let completions = serve(&mut server, round, config.concurrency, think_time);
                let mut round_bytes = 0;
                for completion in &completions {
                    hist.record(completion.latency().as_nanos());
                    if let WorkloadOp::SafeWrite { size, .. } = completion.request.op {
                        round_bytes += size;
                        ops += 1;
                    }
                }
                tracker.record_safe_write(tracker.live_bytes, round_bytes);
                written += round_bytes;
                age += 1;
            }
            let elapsed = server.store().elapsed();
            throughput = throughput_mb_per_sec(written, elapsed);
            latency = elapsed.checked_div_int(ops.max(1)).as_millis_f64();
            summary = hist.summary();
            queue = server.queue_stats();
        }

        let reads = generator.read_all();
        let limit = config.read_sample.unwrap_or(reads.len()).max(1);
        let reads: Vec<WorkloadOp> = reads.into_iter().take(limit).collect();
        server.store_mut().reset_measurements();
        let completions = serve(&mut server, reads, 1, SimDuration::ZERO);
        let bytes = completions.iter().map(|c| c.receipt.payload_bytes).sum();
        let read_throughput = throughput_mb_per_sec(bytes, server.store().elapsed());
        server.store_mut().reset_measurements();

        let stats = server.store().maintenance_stats();
        let busy_s = |pick: fn(&lor_core::MaintenanceStats) -> SimDuration| {
            stats
                .as_ref()
                .map_or(0.0, |stats| pick(stats).as_secs_f64())
        };
        points.push(AgePoint {
            storage_age: tracker.storage_age(),
            fragments_per_object: server.store().fragmentation().fragments_per_object,
            write_throughput_mb_s: throughput,
            read_throughput_mb_s: Some(read_throughput),
            foreground_latency_ms: latency,
            latency_p50_ms: summary.p50_ms,
            latency_p95_ms: summary.p95_ms,
            latency_p99_ms: summary.p99_ms,
            queue_depth_mean: queue.mean_depth(),
            queue_depth_max: queue.max_depth,
            background_time_s: busy_s(|stats| stats.background_time),
            background_checkpoint_s: busy_s(|stats| stats.checkpoint.busy),
            background_ghost_s: busy_s(|stats| stats.ghost_cleanup.busy),
            background_defrag_s: busy_s(|stats| stats.defrag.busy),
            objects: server.store().object_count() as u64,
        });
    }
    points
}
