//! The peak heap a fleet's [`ShardedStore::load`] adds per operation, pinned
//! by a test and not only by the benchmark's `peak_rss_mb`: `lor-obs`'s
//! counting allocator, installed as this binary's `#[global_allocator]` (so
//! no other test sees it), around a serial load of safe writes at two
//! stream lengths.

use lor_core::{
    ExperimentConfig, FleetParallelism, SizeDistribution, StoreKind, WorkloadGenerator, WorkloadOp,
};
use lor_obs::heap::{peak_heap, CountingAllocator};
use lor_shard::{RouterPolicy, ShardedStore};

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// The peak heap of one serial `load` of `ops` safe writes on a freshly
/// bulk-loaded four-shard database fleet.  The stream is built before the
/// count starts, so the peak is what the load adds to it.
fn load_peak(ops: usize) -> u64 {
    let mut config = ExperimentConfig::paper_default(SizeDistribution::Constant(256 << 10))
        .with_fleet_parallelism(FleetParallelism::Serial);
    config.volume_bytes = 128 << 20;
    let policy = RouterPolicy::ConsistentHash { vnodes: 16 };
    let mut fleet = ShardedStore::new(StoreKind::Database, &config, 4, policy).expect("fleet");
    let mut generator = WorkloadGenerator::new(config.workload());
    fleet.load(generator.bulk_load()).expect("bulk load");
    let writes: Vec<WorkloadOp> = generator.safe_write_sample(ops);
    let (applied, peak) = peak_heap(|| fleet.load(writes));
    assert_eq!(applied.expect("safe writes load"), ops);
    peak
}

#[test]
fn a_serial_load_holds_no_completion_per_op() {
    // What the peak grows by per extra operation is what a load holds per
    // operation.  Recorded: 30.7 bytes an op, the per-shard sub-streams the
    // stream is partitioned into (24 bytes an op, plus their growth slack)
    // while the stream's own buffer is still live; each shard's server
    // drops its completions as they complete.  At the parent every shard
    // kept its completions until the last one was drained, and the peak
    // grew by 114.5 bytes an op (116.3 in a debug build): a 128-byte
    // `Completion` each, less the stream's operations freed by then.
    const SMALL: usize = 1_000;
    const LARGE: usize = 3_000;
    let (small, large) = (load_peak(SMALL), load_peak(LARGE));
    let per_op = (large as f64 - small as f64) / (LARGE - SMALL) as f64;
    assert!(
        per_op < 80.0,
        "a serial load's peak heap grows by {per_op:.1} bytes per op \
         ({small} bytes at {SMALL} ops, {large} at {LARGE}), bound 80"
    );
}
