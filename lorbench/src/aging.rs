//! The benchmark's own copy of `run_aging_experiment`'s loop, shared by the
//! untraced reps of `age_*` (which need a place to sample the host-speed
//! reference every few tenths of a second) and the traced run (which needs a
//! clock around each layer's calls).  That it is the library's loop is
//! checked, not assumed: its `sim_digest` must equal the goldens, which were
//! recorded from `run_aging_experiment` itself, and a unit test compares the
//! two on all three substrates.

use std::time::Instant;

use lor_core::lor_disksim::{throughput_mb_per_sec, SimDuration};
use lor_core::lor_obs::Obs;
use lor_core::{
    AgePoint, LatencyHistogram, LatencySummary, ObjectKey, ObjectStore, StorageAgeTracker,
    StoreError, StoreServer, WorkloadGenerator, WorkloadOp,
};

use crate::spec::Params;
use crate::workloads::measure_ages;

/// Host time the benchmark's copy of the aging loop spent where.
#[derive(Debug, Default)]
pub struct LoopTimes {
    pub wall_ns: u64,
    /// Inside `StoreServer::run_closed_loop` (store calls included).
    pub server_ns: u64,
    /// Inside `WorkloadGenerator` calls.
    pub workload_ns: u64,
    /// Inside the `LatencyHistogram::record` loops.
    pub hist_ns: u64,
    /// (wall ns, ops) of each overwrite round, generation included.
    pub rounds: Vec<(u64, u64)>,
}

pub fn since(started: Instant) -> u64 {
    started.elapsed().as_nanos() as u64
}

/// The benchmark's own copy of `run_aging_experiment`'s loop (same calls in
/// the same order, so the same simulated results — checked by digest), with
/// a clock around each layer's calls.  `store` is the live store or a
/// `TimedStore` around it.  `pause` is called after the bulk load and after
/// every overwrite round, outside every clock here: the untraced rep samples
/// the host-speed reference there.
pub fn aging_loop(
    params: &Params,
    store: &mut dyn ObjectStore,
    obs: Option<Obs>,
    times: &mut LoopTimes,
    pause: &mut dyn FnMut(),
) -> Result<Vec<AgePoint>, StoreError> {
    let config = &params.config;
    let ages = measure_ages();
    let mut generator = WorkloadGenerator::new(config.workload());
    let mut tracker = StorageAgeTracker::new();
    let mut points = Vec::with_capacity(ages.len());
    let think_time = SimDuration::from_millis_f64(config.think_time_ms);
    let mut server = StoreServer::new(store);
    if let Some(obs) = obs {
        server.set_obs(obs, SimDuration::ZERO);
    }

    server.store_mut().reset_measurements();
    server.reset_queue_stats();
    let started = Instant::now();
    let bulk = generator.bulk_load();
    times.workload_ns += since(started);
    let started = Instant::now();
    let completions = server.run_closed_loop(bulk, 1, SimDuration::ZERO)?;
    times.server_ns += since(started);
    let mut bulk_bytes = 0u64;
    let mut bulk_ops = 0u64;
    for completion in &completions {
        if let WorkloadOp::Put { size, .. } = completion.request.op {
            tracker.record_put(size);
            bulk_bytes += size;
            bulk_ops += 1;
        }
    }
    let mut interval_throughput = throughput_mb_per_sec(bulk_bytes, server.store().elapsed());
    let mut interval_latency = server
        .store()
        .elapsed()
        .checked_div_int(bulk_ops.max(1))
        .as_millis_f64();
    let mut interval_summary = LatencySummary::of(&completions);
    let mut interval_queue = server.queue_stats();
    drop(completions);
    pause();

    let mut current_age = 0u32;
    for &target in &ages {
        if target > current_age {
            server.store_mut().reset_measurements();
            server.reset_queue_stats();
            let mut written = 0u64;
            let mut ops = 0u64;
            let mut interval_hist = LatencyHistogram::new();
            let mut key_buf = ObjectKey::buf();
            while current_age < target {
                let round_started = Instant::now();
                let started = Instant::now();
                let round_ops = generator.overwrite_round();
                times.workload_ns += since(started);
                let round: Vec<(ObjectKey, u64)> = round_ops
                    .iter()
                    .filter_map(|op| match *op {
                        WorkloadOp::SafeWrite { key, size } => Some((key, size)),
                        _ => None,
                    })
                    .collect();
                let old_sizes: Vec<u64> = round
                    .iter()
                    .map(|(key, _)| server.store().size_of(key.write_into(&mut key_buf)))
                    .collect::<Result<_, _>>()?;
                let started = Instant::now();
                let completions =
                    server.run_closed_loop(round_ops, config.concurrency.max(1), think_time)?;
                times.server_ns += since(started);
                let started = Instant::now();
                for completion in &completions {
                    interval_hist.record(completion.latency().as_nanos());
                }
                times.hist_ns += since(started);
                for (&(_, size), old) in round.iter().zip(old_sizes) {
                    tracker.record_safe_write(old, size);
                    written += size;
                    ops += 1;
                }
                current_age += 1;
                times
                    .rounds
                    .push((since(round_started), round.len() as u64));
                pause();
            }
            interval_throughput = throughput_mb_per_sec(written, server.store().elapsed());
            interval_latency = server
                .store()
                .elapsed()
                .checked_div_int(ops.max(1))
                .as_millis_f64();
            interval_summary = interval_hist.summary();
            interval_queue = server.queue_stats();
        }

        // The randomized read pass (`measure_read_pass` in the library).
        let started = Instant::now();
        let reads = generator.read_all();
        times.workload_ns += since(started);
        let limit = config.read_sample.unwrap_or(reads.len()).max(1);
        let reads: Vec<WorkloadOp> = reads.into_iter().take(limit).collect();
        server.store_mut().reset_measurements();
        let started = Instant::now();
        let completions = server.run_closed_loop(reads, 1, SimDuration::ZERO)?;
        times.server_ns += since(started);
        let bytes: u64 = completions.iter().map(|c| c.receipt.payload_bytes).sum();
        let read_throughput = throughput_mb_per_sec(bytes, server.store().elapsed());
        server.store_mut().reset_measurements();

        let maintenance = server.store().maintenance_stats();
        let background = |pick: fn(&lor_core::MaintenanceStats) -> SimDuration| {
            maintenance.as_ref().map_or(0.0, |s| pick(s).as_secs_f64())
        };
        points.push(AgePoint {
            storage_age: tracker.storage_age(),
            fragments_per_object: server.store().fragmentation().fragments_per_object,
            write_throughput_mb_s: interval_throughput,
            read_throughput_mb_s: Some(read_throughput),
            foreground_latency_ms: interval_latency,
            latency_p50_ms: interval_summary.p50_ms,
            latency_p95_ms: interval_summary.p95_ms,
            latency_p99_ms: interval_summary.p99_ms,
            queue_depth_mean: interval_queue.mean_depth(),
            queue_depth_max: interval_queue.max_depth,
            background_time_s: background(|s| s.background_time),
            background_checkpoint_s: background(|s| s.checkpoint.busy),
            background_ghost_s: background(|s| s.ghost_cleanup.busy),
            background_defrag_s: background(|s| s.defrag.busy),
            objects: server.store().object_count() as u64,
        });
    }
    Ok(points)
}
