//! A counting global allocator for tests that pin heap calls and heap bytes.
//!
//! [`CountingAllocator`] forwards every call to the system allocator and
//! counts, per thread, the `alloc` and `realloc` calls, the live heap bytes
//! (allocated minus freed) and their high-water mark.  Nothing in the
//! workspace installs it; a test binary that wants the counts does, as its
//! own `#[global_allocator]`, so no other binary pays for it.  Per thread,
//! so what a test harness allocates on its own threads is not counted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::thread::LocalKey;

/// Counts each thread's heap calls and live heap bytes, and forwards
/// everything to [`System`].
pub struct CountingAllocator;

thread_local! {
    /// Const-initialised: reading them allocates nothing.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static REALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Signed: a block freed on this thread may have been allocated on
    /// another.
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
    /// The most `LIVE_BYTES` has been since [`peak_heap`] last reset it.
    static PEAK_BYTES: Cell<i64> = const { Cell::new(0) };
}

fn count(calls: &'static LocalKey<Cell<u64>>) {
    // A thread being torn down has no counter left; nothing measures it.
    let _ = calls.try_with(|calls| calls.set(calls.get() + 1));
}

fn add_live(bytes: i64) {
    let _ = LIVE_BYTES.try_with(|live| {
        live.set(live.get() + bytes);
        let _ = PEAK_BYTES.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// contract is the one the caller upholds; the counters touch no memory the
// allocator hands out.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(&ALLOCS);
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
        count(&REALLOCS);
        // SAFETY: as for `dealloc`, and `new_size` is the caller's.
        let moved = unsafe { System.realloc(ptr, layout, new_size) };
        if !moved.is_null() {
            add_live(new_size as i64 - layout.size() as i64);
        }
        moved
    }
}

/// Runs `run` and returns its result with the `[alloc, realloc]` calls it
/// made on this thread.
pub fn counted<T>(run: impl FnOnce() -> T) -> (T, [u64; 2]) {
    let calls = || [ALLOCS.get(), REALLOCS.get()];
    let before = calls();
    let out = run();
    let after = calls();
    (out, [after[0] - before[0], after[1] - before[1]])
}

/// Runs `run` and returns its result with the most live heap it held on
/// this thread at any instant, above what was live when it started.
pub fn peak_heap<T>(run: impl FnOnce() -> T) -> (T, u64) {
    let before = LIVE_BYTES.get();
    PEAK_BYTES.set(before);
    let out = run();
    let peak = u64::try_from(PEAK_BYTES.get() - before).expect("a peak is never below its start");
    (out, peak)
}

/// Bytes allocated minus bytes freed on this thread since it started.
pub fn live_bytes() -> i64 {
    LIVE_BYTES.get()
}
