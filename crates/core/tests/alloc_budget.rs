//! The heap-call budget of a batched safe write, pinned by a test and not
//! only by a benchmark: a counting `#[global_allocator]` (this binary's own,
//! so no other test sees it) around [`StoreServer::run_closed_loop`].
//!
//! Release only — debug builds run every substrate's `verify()` inside the
//! operations, and those allocate:
//! `cargo test --release -p lor-core --test alloc_budget`.
#![cfg(not(debug_assertions))]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use lor_core::lor_disksim::SimDuration;
use lor_core::{ExperimentConfig, ObjectKey, SizeDistribution, StoreKind, StoreServer, WorkloadOp};

/// Counts each thread's `alloc` and `realloc` calls and forwards everything
/// to the system allocator.
struct Counting;

thread_local! {
    /// Per thread, so what the test harness allocates on its own threads
    /// while a test runs is not counted.  Const-initialised: reading it
    /// allocates nothing.
    static HEAP_CALLS: Cell<u64> = const { Cell::new(0) };
}

fn count_heap_call() {
    // A thread being torn down has no counter left; nothing measures it.
    let _ = HEAP_CALLS.try_with(|calls| calls.set(calls.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// contract is the one the caller upholds; the counter touches no memory the
// allocator hands out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_heap_call();
        // SAFETY: the caller's `layout`, passed on as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with
        // `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_heap_call();
        // SAFETY: as for `dealloc`, and `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const KB: u64 = 1024;
const OBJECTS: u64 = 128;
const ROUNDS: u64 = 16;
const CLIENTS: usize = 4;

/// Heap calls of `ROUNDS` rounds of `OBJECTS` safe writes, after a bulk load
/// and one warm-up round (which sizes the server's batch buffer and the
/// substrate's own).
fn heap_calls(kind: StoreKind) -> u64 {
    let mut config = ExperimentConfig::paper_default(SizeDistribution::Constant(256 * KB));
    config.volume_bytes = 64 * 1024 * KB;
    let mut store = config.build_store(kind).expect("store builds");
    let mut server = StoreServer::new(store.as_mut());
    let round = |size: u64| -> Vec<WorkloadOp> {
        (0..OBJECTS)
            .map(|key| WorkloadOp::SafeWrite {
                key: ObjectKey(key),
                size,
            })
            .collect()
    };
    let puts = (0..OBJECTS)
        .map(|key| WorkloadOp::Put {
            key: ObjectKey(key),
            size: 256 * KB,
        })
        .collect();
    server
        .run_closed_loop(puts, 1, SimDuration::ZERO)
        .expect("bulk load");
    server
        .run_closed_loop(round(192 * KB), CLIENTS, SimDuration::ZERO)
        .expect("warm-up round");

    let mut calls = 0;
    for i in 0..ROUNDS {
        // Sizes move so that versions do not simply swap places.
        let ops = round((128 + 64 * (i % 3)) * KB);
        let before = HEAP_CALLS.get();
        let done = server.run_closed_loop(ops, CLIENTS, SimDuration::ZERO);
        calls += HEAP_CALLS.get() - before;
        assert_eq!(done.expect("round runs").len() as u64, OBJECTS);
    }
    calls
}

#[test]
fn batched_safe_writes_stay_inside_their_heap_call_budget() {
    // (substrate, calls recorded, calls at the recording PR's parent commit)
    // for the `ROUNDS * OBJECTS` = 2,048 writes above.  The database and log
    // rows are PR 23's: 8.27 / 3.57 per write against 10.52 / 5.82, the 2.25
    // that went everywhere being the batch's key strings and its item
    // vector.  The filesystem row is PR 24's, against PR 23's 7,548: 3.52
    // per write, down from 3.69 — the B-tree nodes of the file table, which
    // a safe write's insert-and-remove split and merged; the slab and its
    // index only grow to a high-water mark.  (The same table under the
    // database saves it no call: an update replaces a layout in place and
    // files nothing.)
    let budgets = [
        (StoreKind::Filesystem, 7_219, 7_548),
        (StoreKind::Database, 16_935, 21_543),
        (StoreKind::LogStructured, 7_319, 11_927),
    ];
    assert_eq!(budgets.map(|(kind, ..)| kind), StoreKind::ALL);
    for (kind, budget, parent) in budgets {
        let calls = heap_calls(kind);
        let per_op = |calls: u64| calls as f64 / (ROUNDS * OBJECTS) as f64;
        assert!(
            calls <= budget,
            "{kind}: {calls} heap calls ({:.2} per safe write), budget {budget} ({:.2})",
            per_op(calls),
            per_op(budget),
        );
        assert!(
            budget < parent,
            "{kind}: the budget is not below the parent's"
        );
    }
}
