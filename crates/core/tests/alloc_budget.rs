//! The heap-call budgets of a bulk load, of a batched safe write, of a get
//! and of a safe write issued alone, of the name look-ups that only read
//! (`size_of`, `contains`), of a bare segment log's emergency
//! vacates and background cleaning, the heap bytes an aged store holds,
//! and the peak heap a mixed-load calibration adds per operation, pinned by
//! a test and not only by a benchmark: `lor-obs`'s counting allocator,
//! installed as this binary's `#[global_allocator]` (so no other test sees
//! it), around [`StoreServer::run_closed_loop`] and [`calibrate_mixed_load`].
//!
//! Release only — debug builds run every substrate's `verify()` inside the
//! operations, and those allocate:
//! `cargo test --release -p lor-core --test alloc_budget`.
#![cfg(not(debug_assertions))]

use lor_core::lor_disksim::SimDuration;
use lor_core::lor_logstore::{LogConfig, SegmentLog};
use lor_core::{
    calibrate_mixed_load, ExperimentConfig, ObjectKey, SizeDistribution, StoreKind, StoreServer,
    WorkloadOp,
};
use lor_obs::heap::{counted, live_bytes, peak_heap, CountingAllocator};

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

const KB: u64 = 1024;
const OBJECTS: u64 = 128;
const ROUNDS: u64 = 16;
const CLIENTS: usize = 4;

/// Heap calls (`alloc` plus `realloc`) of one run on a fresh store of
/// `kind`, and the heap bytes the store holds at its end.
struct HeapCalls {
    /// The bulk load: `OBJECTS` puts, one client.
    puts: u64,
    /// `ROUNDS` rounds of `OBJECTS` safe writes, after the bulk load and one
    /// warm-up round (which sizes the substrate's buffers).
    safe_writes: u64,
    /// The `realloc` calls among `safe_writes`: a buffer grown in steady
    /// state is one that was not reused.
    safe_write_reallocs: u64,
    /// Heap bytes the store holds after the `ROUNDS` rounds: live bytes
    /// then, less live bytes before it was built, with the server dropped.
    live_bytes: u64,
}

/// A store of `kind` on a 64 MiB volume, 256 KB objects.
fn small_store(kind: StoreKind) -> Box<dyn lor_core::ObjectStore> {
    let mut config = ExperimentConfig::paper_default(SizeDistribution::Constant(256 * KB));
    config.volume_bytes = 64 * 1024 * KB;
    config.build_store(kind).expect("store builds")
}

/// The bulk load: a put of every object.
fn puts() -> Vec<WorkloadOp> {
    (0..OBJECTS)
        .map(|key| WorkloadOp::Put {
            key: ObjectKey(key),
            size: 256 * KB,
        })
        .collect()
}

/// A safe write of every object at `size`.
fn round(size: u64) -> Vec<WorkloadOp> {
    (0..OBJECTS)
        .map(|key| WorkloadOp::SafeWrite {
            key: ObjectKey(key),
            size,
        })
        .collect()
}

/// The version size of round `i`: sizes move so that versions do not
/// simply swap places.
fn round_size(i: u64) -> u64 {
    (128 + 64 * (i % 3)) * KB
}

fn heap_calls(kind: StoreKind) -> HeapCalls {
    let live_before = live_bytes();
    let mut store = small_store(kind);
    let mut server = StoreServer::new(store.as_mut());
    let ops = puts();
    let (loaded, [allocs, reallocs]) =
        counted(|| server.run_closed_loop(ops, 1, SimDuration::ZERO));
    let puts = allocs + reallocs;
    assert_eq!(loaded.expect("bulk load").len() as u64, OBJECTS);
    server
        .run_closed_loop(round(192 * KB), CLIENTS, SimDuration::ZERO)
        .expect("warm-up round");

    let mut safe_writes = 0;
    let mut safe_write_reallocs = 0;
    for i in 0..ROUNDS {
        let ops = round(round_size(i));
        let (done, [allocs, reallocs]) =
            counted(|| server.run_closed_loop(ops, CLIENTS, SimDuration::ZERO));
        safe_writes += allocs + reallocs;
        safe_write_reallocs += reallocs;
        assert_eq!(done.expect("round runs").len() as u64, OBJECTS);
    }
    drop(server);
    let live_bytes = u64::try_from(live_bytes() - live_before).expect("the store holds bytes");
    drop(store);
    HeapCalls {
        puts,
        safe_writes,
        safe_write_reallocs,
        live_bytes,
    }
}

/// Heap calls of the operations one client issues alone: `[gets, safe
/// writes]` over `ROUNDS` read passes and `ROUNDS` rounds of safe writes,
/// each write a batch of one, on a fresh store after its bulk load and one
/// warm-up pass and round.
fn lone_calls(kind: StoreKind) -> [u64; 2] {
    let mut store = small_store(kind);
    let mut server = StoreServer::new(store.as_mut());
    server
        .run_closed_loop(puts(), 1, SimDuration::ZERO)
        .expect("bulk load");
    let mut calls = [0; 2];
    for i in 0..=ROUNDS {
        let reads = (0..OBJECTS)
            .map(|key| WorkloadOp::Get {
                key: ObjectKey(key),
            })
            .collect();
        let (read, gets) = counted(|| server.run_closed_loop(reads, 1, SimDuration::ZERO));
        assert_eq!(read.expect("read pass runs").len() as u64, OBJECTS);
        let ops = round(round_size(i));
        let (done, writes) = counted(|| server.run_closed_loop(ops, 1, SimDuration::ZERO));
        assert_eq!(done.expect("round runs").len() as u64, OBJECTS);
        // Pass and round 0 size the server's buffers and the substrate's.
        if i > 0 {
            calls[0] += gets.iter().sum::<u64>();
            calls[1] += writes.iter().sum::<u64>();
        }
    }
    calls
}

#[test]
fn batched_safe_writes_stay_inside_their_heap_call_budget() {
    // (substrate, calls recorded, calls at the recording PR's parent commit)
    // for the `ROUNDS * OBJECTS` = 2,048 writes above, in batches of
    // `CLIENTS`.  Keyed dispatch, against its parent's 7,219 / 13,780 /
    // 7,319: the server reuses its batch, receipt and completion buffers
    // (the dispatch's `Vec<Completion>` and the store's receipt vector
    // went, 2 calls a batch), the store resolves the batch's handles into
    // a buffer on its stack, and the volume and the engine take them by id
    // (the substrate's borrowed-name vector and the engine's id vector
    // went, 1 call a batch).  Before that, the database's 6.73 per write
    // against 16,935: a version is built in a buffer the engine reuses and
    // committed as one exact-size copy; the log's 3.57 against 5.82: the
    // batch's key strings and its item vector are reused; the filesystem's
    // 3.52 against 3.69: the file table lost the B-tree nodes a safe
    // write's insert-and-remove split and merged.
    check_budgets(
        "safe write",
        ROUNDS * OBJECTS,
        [
            (StoreKind::Filesystem, 5_683, 7_219),
            (StoreKind::Database, 11_732, 13_780),
            (StoreKind::LogStructured, 6_295, 7_319),
        ],
        |kind| heap_calls(kind).safe_writes,
    );
}

#[test]
fn batched_safe_writes_stay_inside_their_realloc_budget() {
    // (substrate, `realloc`s recorded, `realloc`s at the recording PR's
    // parent) among the heap calls of the safe writes above: a buffer grown
    // in steady state is one that is not reused.  The database's 1,555 (0.76
    // per write) were its version layouts, grown run by run and shrunk at
    // commit; built in the engine's reused buffers and committed as exact
    // copies they leave 4.  Nothing on the volume's or the log's path
    // changed, so their rows are first recordings, equal to their parents.
    let budgets = [
        (StoreKind::Filesystem, 3, 3),
        (StoreKind::Database, 4, 1_555),
        (StoreKind::LogStructured, 9, 9),
    ];
    check_counts(
        "safe write",
        ROUNDS * OBJECTS,
        budgets.map(|(kind, budget, _)| (kind, budget)),
        |kind| heap_calls(kind).safe_write_reallocs,
    );
    check_saved("realloc", budgets, &[StoreKind::Database]);
}

#[test]
fn aged_stores_hold_no_more_heap_than_their_budget() {
    // (substrate, live heap bytes recorded, bytes at the recording PR's
    // parent) that each store holds after the bulk load, the warm-up round
    // and the `ROUNDS` rounds above: its records, key map, free maps and
    // buffers.  The log's 26,072 against 27,816: its object table is an
    // `IdTable` (242 slots of 32 bytes and 242 index entries of 4, reserved
    // for the 121 objects `ExperimentConfig::object_count` plans and doubled
    // once by the 122nd of the 128 puts) where a hashed map held 256
    // buckets of 40-byte entries.  Before that, keyed dispatch raised every
    // row by its key table, reserved and doubled the same way: 242 × 4
    // bytes, plus the 24 bytes of its `Vec` in the boxed store, 992 bytes
    // (at `age_db`'s 36,239 objects it is 145 kB, reserved at build); the
    // database's 27,128 against 30,360 (8-byte page runs) and the
    // filesystem's 35,704 against 37,752 (`lor_alloc::RunList`).
    let budgets = [
        (StoreKind::Filesystem, 36_696, 36_696),
        (StoreKind::Database, 28_120, 28_120),
        (StoreKind::LogStructured, 26_072, 27_816),
    ];
    for (kind, budget, _) in budgets {
        let bytes = heap_calls(kind).live_bytes;
        assert!(
            bytes <= budget,
            "{kind}: the aged store holds {bytes} heap bytes ({:.1} per object), budget {budget}",
            bytes as f64 / OBJECTS as f64,
        );
    }
    check_saved("live-bytes", budgets, &[StoreKind::LogStructured]);
}

#[test]
fn bulk_loads_stay_inside_their_heap_call_budget() {
    // (substrate, calls recorded, calls at the parent of the commit that
    // recorded them) for the `OBJECTS` = 128 puts above.  The log's 399
    // against 404: its object table, an `IdTable` reserved at build for the
    // 121 objects the config plans, grows its two buffers once, at the
    // 122nd put, where the hashed map it replaced regrew seven times.
    // Before that, keyed dispatch, against its parent's 537 / 662 / 666: a put pushes its receipt into
    // the server's buffer (no `vec![receipt]`) and its completion into
    // another (no `Vec<Completion>` a dispatch), 2 calls a put saved; the
    // engine's name map, reserved at build for the 121 objects the config
    // plans, no longer regrows during the load (7 calls), and the key
    // table, reserved for as many, doubles once, at the 122nd put.  Before
    // that, the
    // database's 5.17 per put against 6.16 (an exact-size copy of each
    // layout), and an inline `lor_alloc::Name`: the volume's 4.20 against
    // 6.20, the log's 5.20 against 6.20.
    check_budgets(
        "put",
        OBJECTS,
        [
            (StoreKind::Filesystem, 275, 537),
            (StoreKind::Database, 400, 662),
            (StoreKind::LogStructured, 399, 404),
        ],
        |kind| heap_calls(kind).puts,
    );
}

#[test]
fn gets_stay_inside_their_heap_call_budget() {
    // (substrate, calls recorded, calls at the recording PR's parent) for
    // the `ROUNDS * OBJECTS` = 2,048 gets of one client above.  Keyed
    // dispatch: 1.02 calls a get on every substrate, against 3.02 — the
    // server's `vec![receipt]` and its `Vec<Completion>` a dispatch went.
    // Left: the read plan's run list (`ReadPlan::runs`), one a get, and the
    // runs' own buffers, 48 for the 16 runs.
    check_budgets(
        "get",
        ROUNDS * OBJECTS,
        [
            (StoreKind::Filesystem, 2_096, 6_192),
            (StoreKind::Database, 2_096, 6_192),
            (StoreKind::LogStructured, 2_096, 6_192),
        ],
        |kind| lone_calls(kind)[0],
    );
}

#[test]
fn lone_safe_writes_stay_inside_their_heap_call_budget() {
    // (substrate, calls recorded, calls at the recording PR's parent) for
    // the `ROUNDS * OBJECTS` = 2,048 safe writes of one client above, each
    // a batch of one.  Keyed dispatch: 5.02 / 8.92 / 3.08 per write, against
    // 8.02 / 12.92 / 5.08 — the receipt and completion vectors of the
    // dispatch (2 a write) on every substrate, and the vector the volume's
    // and the engine's name-addressed batch built (1 more there).
    check_budgets(
        "lone safe write",
        ROUNDS * OBJECTS,
        [
            (StoreKind::Filesystem, 10_289, 16_433),
            (StoreKind::Database, 18_273, 26_465),
            (StoreKind::LogStructured, 6_299, 10_395),
        ],
        |kind| lone_calls(kind)[1],
    );
}

/// Heap calls of `size_of` of every live object's name, then of `contains`
/// of `OBJECTS` absent names (half in key form past the population, half
/// not), on a fresh store after its bulk load and one round.
fn lookup_calls(kind: StoreKind) -> u64 {
    let mut store = small_store(kind);
    let mut server = StoreServer::new(store.as_mut());
    server
        .run_closed_loop(puts(), 1, SimDuration::ZERO)
        .expect("bulk load");
    server
        .run_closed_loop(round(192 * KB), CLIENTS, SimDuration::ZERO)
        .expect("warm-up round");
    drop(server);
    let live: Vec<String> = (0..OBJECTS).map(|key| ObjectKey(key).to_string()).collect();
    let absent: Vec<String> = (0..OBJECTS / 2)
        .map(|i| ObjectKey(OBJECTS + i).to_string())
        .chain((0..OBJECTS / 2).map(|i| format!("photos/IMG_{i:04}.jpg")))
        .collect();
    let ((sizes, misses), [allocs, reallocs]) = counted(|| {
        let sizes: u64 = live
            .iter()
            .filter_map(|name| store.size_of(name).ok())
            .sum();
        let misses = absent.iter().filter(|name| !store.contains(name)).count();
        (sizes, misses)
    });
    assert_eq!(
        sizes,
        OBJECTS * 192 * KB,
        "{kind}: every live name has its size"
    );
    assert_eq!(misses as u64, OBJECTS, "{kind}: every absent name misses");
    allocs + reallocs
}

#[test]
fn name_lookups_that_only_read_make_no_heap_call() {
    // (substrate, calls recorded, calls at the commit before the one that
    // recorded them) for `OBJECTS` = 128 `size_of`s and 128 `contains`
    // misses.  A name in key form is its key: it reaches the object through
    // the key table, and any other name through the engine's name map,
    // whose miss builds no error.  Before, each `contains` miss built the
    // `NoSuchObject` error it discarded, one `String` a miss.
    check_budgets(
        "look-up",
        2 * OBJECTS,
        [
            (StoreKind::Filesystem, 0, 128),
            (StoreKind::Database, 0, 128),
            (StoreKind::LogStructured, 0, 128),
        ],
        lookup_calls,
    );
}

/// Heap calls of `ROUNDS` rounds of updates on a bare segment log kept
/// 80 % live, every object once a round in a fresh random order, after one
/// round of warm-up: the free pool runs dry, so appends vacate victims
/// through the foreground head, as on `age_log`.  Returns `[updates, calls,
/// vacates, residents moved]`.
fn vacating_updates() -> [u64; 4] {
    const SEGMENT: u64 = 4 * 1024 * KB;
    const SIZE: u64 = 192 * KB;
    let mut log = SegmentLog::new(LogConfig::new(64 * SEGMENT)).expect("log formats");
    let objects = log.data_capacity_bytes() * 8 / 10 / SIZE;
    for id in 1..=objects {
        log.insert(id, SIZE).expect("fits");
    }
    let mut order: Vec<u64> = (1..=objects).collect();
    let mut state = 42u64;
    let mut calls = 0;
    let before = log.emergency_totals();
    for round in 0..=ROUNDS {
        for i in (1..order.len()).rev() {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            order.swap(i, (state >> 33) as usize % (i + 1));
        }
        let ((), [allocs, reallocs]) = counted(|| {
            for &id in &order {
                log.update(id, SIZE)
                    .expect("an 80 % live log takes an update");
            }
        });
        // Round 0 sizes the log's buffers.
        if round > 0 {
            calls += allocs + reallocs;
        }
    }
    let after = log.emergency_totals();
    [
        ROUNDS * objects,
        calls,
        after.segments_freed - before.segments_freed,
        after.objects_moved - before.objects_moved,
    ]
}

#[test]
fn emergency_vacates_stay_inside_their_heap_call_budget() {
    // (calls recorded, calls at the recording PR's parent) for the 16,928
    // updates above, which make 2,069 vacates moving 27,054 residents.  An
    // update allocates its version's extents and their copy in its
    // outcome, and each resident a vacate moves its rebuilt extents: 3.72
    // calls an update.  At the parent a vacate also cloned the victim's
    // resident list, and per resident built a vector of the fresh pieces
    // and one per extent it split, and per selection one of the block
    // bounds: 7.12 calls an update, 27.8 more a vacate.
    const BUDGET: u64 = 63_045;
    const PARENT: u64 = 120_530;
    let [updates, calls, vacates, moved] = vacating_updates();
    assert!(
        vacates > 1_000 && moved > vacates,
        "{vacates} vacates moving {moved} residents"
    );
    assert!(
        calls <= BUDGET,
        "{calls} heap calls ({:.2} per update) for {updates} updates, {vacates} vacates \
         moving {moved} residents, budget {BUDGET}",
        calls as f64 / updates as f64,
    );
    assert!(
        BUDGET < PARENT,
        "the vacate budget is not below the parent's"
    );
}

/// Heap calls of budgeted background cleaning on a bare segment log kept
/// 60 % live: each of `ROUNDS` rounds (after one of warm-up) updates every
/// object once in a fresh random order, uncounted, then runs `STEPS`
/// counted `clean_step`s of one segment's budget each.  Returns `[steps,
/// calls, victims, survivors moved]`.
fn cleaning_steps() -> [u64; 4] {
    const SEGMENT: u64 = 4 * 1024 * KB;
    const SIZE: u64 = 192 * KB;
    const STEPS: u64 = 8;
    let mut log = SegmentLog::new(LogConfig::new(64 * SEGMENT)).expect("log formats");
    let objects = log.data_capacity_bytes() * 6 / 10 / SIZE;
    for id in 1..=objects {
        log.insert(id, SIZE).expect("fits");
    }
    let mut order: Vec<u64> = (1..=objects).collect();
    let mut state = 7u64;
    let mut calls = 0;
    let before = log.cleaner_totals();
    for round in 0..=ROUNDS {
        for i in (1..order.len()).rev() {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            order.swap(i, (state >> 33) as usize % (i + 1));
        }
        for &id in &order {
            log.update(id, SIZE)
                .expect("a 60 % live log takes an update");
        }
        let ((), [allocs, reallocs]) = counted(|| {
            for _ in 0..STEPS {
                log.clean_step(SEGMENT).expect("the cleaner has room");
            }
        });
        // Round 0 sizes the log's buffers.
        if round > 0 {
            calls += allocs + reallocs;
        }
    }
    let after = log.cleaner_totals();
    [
        ROUNDS * STEPS,
        calls,
        after.segments_freed - before.segments_freed,
        after.objects_moved - before.objects_moved,
    ]
}

#[test]
fn background_cleaning_stays_inside_its_heap_call_budget() {
    // (calls recorded, calls at the recording change's parent) for the 128
    // counted steps above; all 136 steps clean 458 victims moving 2,135
    // survivors.  A survivor moved allocates the extents of its fresh
    // copy.  At the parent each victim with survivors also cloned its
    // resident list: 260 calls more.
    const BUDGET: u64 = 2_040;
    const PARENT: u64 = 2_300;
    let [steps, calls, victims, moved] = cleaning_steps();
    assert!(
        victims > steps && moved > victims,
        "{victims} victims moving {moved} survivors"
    );
    assert!(
        calls <= BUDGET,
        "{calls} heap calls ({:.2} per step) for {steps} steps, {victims} victims \
         moving {moved} survivors, budget {BUDGET}",
        calls as f64 / steps as f64,
    );
    assert!(
        BUDGET < PARENT,
        "the cleaning budget is not below the parent's"
    );
}

#[test]
fn a_mixed_load_calibration_holds_no_completion_per_op() {
    // The peak heap of a calibration on an aged database, at two mix sizes:
    // what it grows by per extra operation is what it holds per operation.
    // Recorded: 57.7 bytes an op, the mix alone (the read and write samples
    // the calibration returns and the serial copy it runs, 24 bytes an op
    // each, plus their growth slack).  The serial run folds its completions
    // into a sum and a count.  At the parent it collected them, and the
    // peak grew by 185.7 bytes an op: a 128-byte `Completion` and the 8-byte
    // latency `LatencySummary::of` sorts, with the two samples still live.
    const SMALL: usize = 4_000;
    const LARGE: usize = 16_000;
    let mut config = ExperimentConfig::paper_default(SizeDistribution::Constant(256 * KB));
    config.volume_bytes = 64 * 1024 * KB;
    let peak = |ops| {
        let (calibration, bytes) =
            peak_heap(|| calibrate_mixed_load(StoreKind::Database, &config, 1, 0.3, ops));
        assert!(calibration.expect("calibrates").capacity_ops_per_sec > 0.0);
        bytes
    };
    let (small, large) = (peak(SMALL), peak(LARGE));
    let per_op = (large as f64 - small as f64) / (LARGE - SMALL) as f64;
    assert!(
        per_op < 100.0,
        "the calibration's peak heap grows by {per_op:.1} bytes per op \
         ({small} bytes at {SMALL} ops, {large} at {LARGE}), bound 100"
    );
}

/// Checks each `(substrate, budget, parent)` row: the count is within the
/// budget, and the budget is below the count of the commit before it was
/// recorded, so every row is a saving someone measured.
fn check_budgets(
    what: &str,
    ops: u64,
    budgets: [(StoreKind, u64, u64); 3],
    count: impl Fn(StoreKind) -> u64,
) {
    check_counts(
        what,
        ops,
        budgets.map(|(kind, budget, _)| (kind, budget)),
        count,
    );
    for (kind, budget, parent) in budgets {
        assert!(
            budget < parent,
            "{kind}: the {what} budget is not below the parent's"
        );
    }
}

/// Checks each `(substrate, budget, parent)` row of a budget that only the
/// substrates in `saved` changed: their rows are below their parents', and
/// every other row equals its parent's.
fn check_saved(what: &str, budgets: [(StoreKind, u64, u64); 3], saved: &[StoreKind]) {
    for (kind, budget, parent) in budgets {
        assert!(
            if saved.contains(&kind) {
                budget < parent
            } else {
                budget == parent
            },
            "{kind}: the {what} budget is not where its parent puts it"
        );
    }
}

/// Checks that each substrate's count is within its budget.
fn check_counts(
    what: &str,
    ops: u64,
    budgets: [(StoreKind, u64); 3],
    count: impl Fn(StoreKind) -> u64,
) {
    assert_eq!(budgets.map(|(kind, _)| kind), StoreKind::ALL);
    for (kind, budget) in budgets {
        let calls = count(kind);
        let per_op = |calls: u64| calls as f64 / ops as f64;
        assert!(
            calls <= budget,
            "{kind}: {calls} calls ({:.2} per {what}), budget {budget} ({:.2})",
            per_op(calls),
            per_op(budget),
        );
    }
}
