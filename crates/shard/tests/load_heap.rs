//! The peak heap a fleet's [`ShardedStore::load`] adds per operation, pinned
//! by a test and not only by the benchmark's `peak_rss_mb`: a counting
//! `#[global_allocator]` (this binary's own, so no other test sees it)
//! around a serial load of safe writes at two stream lengths.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use lor_core::{
    ExperimentConfig, FleetParallelism, SizeDistribution, StoreKind, WorkloadGenerator, WorkloadOp,
};
use lor_shard::{RouterPolicy, ShardedStore};

/// Tracks each thread's live heap bytes (allocated minus freed) and their
/// high-water mark, and forwards everything to the system allocator.
struct Counting;

thread_local! {
    /// Per thread, so what the test harness allocates on its own threads
    /// while a test runs is not counted.  Const-initialised: reading them
    /// allocates nothing.  Signed: a block freed on this thread may have
    /// been allocated on another.
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
    /// The most `LIVE_BYTES` has been since [`peak_heap`] last reset it.
    static PEAK_BYTES: Cell<i64> = const { Cell::new(0) };
}

fn add_live(bytes: i64) {
    // A thread being torn down has no counter left; nothing measures it.
    let _ = LIVE_BYTES.try_with(|live| {
        live.set(live.get() + bytes);
        let _ = PEAK_BYTES.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// contract is the one the caller upholds; the counter touches no memory the
// allocator hands out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout`, passed on as is.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            add_live(layout.size() as i64);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        add_live(-(layout.size() as i64));
        // SAFETY: `ptr` came from `System` through this allocator with
        // `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`, and `new_size` is the caller's.
        let moved = unsafe { System.realloc(ptr, layout, new_size) };
        if !moved.is_null() {
            add_live(new_size as i64 - layout.size() as i64);
        }
        moved
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The most live heap `run` held on this thread at any instant, above what
/// was live when it started.
fn peak_heap<T>(run: impl FnOnce() -> T) -> (T, u64) {
    let before = LIVE_BYTES.get();
    PEAK_BYTES.set(before);
    let out = run();
    let peak = u64::try_from(PEAK_BYTES.get() - before).expect("a peak is never below its start");
    (out, peak)
}

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
