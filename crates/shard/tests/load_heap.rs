//! The peak heap a fleet's [`ShardedStore::load`] adds per operation, and
//! the heap a bulk-loaded fleet holds, pinned by a test and not only by the
//! benchmark's `peak_rss_mb`: `lor-obs`'s counting allocator, installed as
//! this binary's `#[global_allocator]` (so no other test sees it), around a
//! serial load of safe writes at two stream lengths and around a serial
//! bulk load.

use lor_core::{
    ExperimentConfig, FleetParallelism, SizeDistribution, StoreKind, WorkloadGenerator, WorkloadOp,
};
use lor_obs::heap::{live_bytes, peak_heap, CountingAllocator};
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

#[test]
fn a_bulk_loaded_fleet_keeps_no_key_table_over_the_whole_key_range() {
    // The heap a serially bulk-loaded 16-shard database fleet holds: the
    // shards' records, key maps and free maps, the router's directory, and
    // each shard's key table.  Recorded: 947,872 bytes for the 3,891
    // objects, against 906,592 at the parent of keyed dispatch.  The 41,280
    // between them: 16 key tables, each reserved at build for the 243 keys
    // a shard's config plans (972 bytes) plus its 24-byte `Vec`, 15,936
    // bytes; and the shards' key maps, reserved for those 243 keys where the
    // load grew some of them only to half that many buckets, 25,344.  A
    // shard's table only reaches keys below twice the objects it holds
    // (plus 64), which in a fleet stops it among the first few dozen keys.
    // Every shard sees keys from the whole range, so a table indexed by key
    // number in each shard would add about 16 × 3,891 × 4 bytes = 249,024
    // and fail (seen failing at 1,227,808 bytes with the reach check taken
    // out of `Store::note_put`).
    const SHARDS: u32 = 16;
    const BUDGET: i64 = 947_872;
    let mut config = ExperimentConfig::paper_default(SizeDistribution::Constant(64 << 10))
        .with_fleet_parallelism(FleetParallelism::Serial);
    config.volume_bytes = u64::from(SHARDS) * (32 << 20);
    let policy = RouterPolicy::ConsistentHash { vnodes: 16 };
    let mut generator = WorkloadGenerator::new(config.workload());
    let bulk = generator.bulk_load();
    assert_eq!(bulk.len(), 3_891);
    // Serial, so every shard allocates on this thread, whose live bytes the
    // counter reports.
    let before = live_bytes();
    let mut fleet = ShardedStore::new(StoreKind::Database, &config, SHARDS, policy).expect("fleet");
    assert_eq!(fleet.load(bulk).expect("bulk load"), 3_891);
    let held = live_bytes() - before;
    assert!(
        held <= BUDGET,
        "the bulk-loaded fleet holds {held} heap bytes, budget {BUDGET}"
    );
    drop(fleet);
}
