//! Differential test of the run-native engine against the page-at-a-time
//! reference model (`reference/mod.rs`), plus the failure paths and corner
//! cases of the same code: out of space mid-batch, a key named twice in one
//! batch, a cleanup budget that ends in the middle of a run.

mod reference;

use lor_alloc::{AllocationPolicy, Extent, FreeSpace, PlacementPolicy};
use lor_blobkit::{Database, DbError, EngineConfig, PageId};
use proptest::prelude::*;
use reference::RefDatabase;

const KB: u64 = 1 << 10;
const MB: u64 = 1 << 20;

#[derive(Debug, Clone)]
enum Op {
    Insert {
        size: u64,
    },
    InsertAsMaintenance {
        size: u64,
    },
    Update {
        index: usize,
        size: u64,
    },
    /// Indexes may repeat: the same key twice in one batch is legal.
    UpdateBatch {
        items: Vec<(usize, u64)>,
        chunk: u64,
    },
    Delete {
        index: usize,
    },
    CleanupLimited {
        pages: u64,
    },
    Compact {
        page_budget: u64,
    },
}

fn arb_op() -> impl Strategy<Value = Op> {
    let size = || 1u64..400 * KB;
    prop_oneof![
        5 => size().prop_map(|size| Op::Insert { size }),
        1 => size().prop_map(|size| Op::InsertAsMaintenance { size }),
        3 => (0usize..64, size()).prop_map(|(index, size)| Op::Update { index, size }),
        4 => (
            prop::collection::vec((0usize..64, size()), 1..5),
            prop_oneof![Just(8 * KB), Just(64 * KB), Just(MB)],
        )
            .prop_map(|(items, chunk)| Op::UpdateBatch { items, chunk }),
        2 => (0usize..64).prop_map(|index| Op::Delete { index }),
        2 => (0u64..96).prop_map(|pages| Op::CleanupLimited { pages }),
        2 => (0u64..128).prop_map(|page_budget| Op::Compact { page_budget }),
    ]
}

/// Everything observable about the two engines must agree.
fn assert_same_state(db: &Database, model: &RefDatabase) -> Result<(), TestCaseError> {
    let layouts: Vec<(String, Vec<PageId>)> = db
        .iter_blobs()
        .map(|blob| (blob.key.clone(), blob.pages().collect()))
        .collect();
    prop_assert_eq!(layouts, model.layouts());
    prop_assert_eq!(db.stats(), model.stats());
    prop_assert_eq!(db.ghost_page_count(), model.ghost_page_count());
    prop_assert_eq!(
        db.lob_unit().free_space().free_runs(),
        model.lob_free_runs()
    );
    prop_assert_eq!(db.gam().free_space().free_runs(), model.gam_free_runs());
    prop_assert_eq!(db.verify(), Ok(()));
    Ok(())
}

/// Drives one op sequence through both engines under one configuration.
fn run_differential(config: EngineConfig, ops: &[Op]) -> Result<(), TestCaseError> {
    let mut db = Database::create(config.clone()).unwrap();
    let mut model = RefDatabase::create(config);
    let mut live: Vec<String> = Vec::new();
    let mut next_key = 0u64;

    for op in ops {
        match op {
            Op::Insert { size } | Op::InsertAsMaintenance { size } => {
                let key = format!("k{next_key}");
                next_key += 1;
                let (got, want) = if matches!(op, Op::Insert { .. }) {
                    (db.insert(&key, *size), model.insert(&key, *size))
                } else {
                    (
                        db.insert_as_maintenance(&key, *size),
                        model.insert_as_maintenance(&key, *size),
                    )
                };
                if got.is_ok() {
                    live.push(key);
                }
                prop_assert_eq!(got, want);
            }
            Op::Update { index, size } => {
                let Some(key) = live.get(index % live.len().max(1)) else {
                    continue;
                };
                prop_assert_eq!(db.update(key, *size), model.update(key, *size));
            }
            Op::UpdateBatch { items, chunk } => {
                if live.is_empty() {
                    continue;
                }
                let batch: Vec<(&str, u64)> = items
                    .iter()
                    .map(|&(index, size)| (live[index % live.len()].as_str(), size))
                    .collect();
                prop_assert_eq!(
                    db.update_batch(&batch, *chunk),
                    model.update_batch(&batch, *chunk)
                );
            }
            Op::Delete { index } => {
                if live.is_empty() {
                    continue;
                }
                let key = live.swap_remove(index % live.len());
                prop_assert_eq!(db.delete(&key), model.delete(&key));
            }
            Op::CleanupLimited { pages } => {
                prop_assert_eq!(
                    db.ghost_cleanup_limited(*pages),
                    model.ghost_cleanup_limited(*pages)
                );
            }
            Op::Compact { page_budget } => {
                prop_assert_eq!(
                    db.compact_step(*page_budget),
                    model.compact_step(*page_budget)
                );
            }
        }
        assert_same_state(&db, &model)?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The run-native engine is the page-at-a-time engine, bit for bit:
    /// identical layouts, receipts, errors, statistics and free maps after
    /// every operation, for every allocation policy (next fit's cursor
    /// included — a divergent cursor would show in the next layout) under
    /// every placement policy.  The 3 MB data file is small enough that
    /// forced cleanups, refused migrations and out-of-space batch rollbacks
    /// happen in most sequences (about one batch in ten fails).
    #[test]
    fn run_native_engine_matches_the_page_at_a_time_reference(
        ops in prop::collection::vec(arb_op(), 1..70),
        interval in prop_oneof![Just(0u64), Just(3), Just(16)],
    ) {
        for policy in AllocationPolicy::ALL {
            for placement in [
                PlacementPolicy::Unrestricted,
                PlacementPolicy::banded(0.75),
                PlacementPolicy::Reserve,
            ] {
                let mut config = EngineConfig::new(3 * MB);
                config.allocation_policy = policy;
                config.placement = placement;
                config.ghost_cleanup_interval_ops = interval;
                config.rows_per_page = 4;
                run_differential(config, &ops)?;
            }
        }
    }
}

fn manual_cleanup_db(bytes: u64) -> Database {
    let mut config = EngineConfig::new(bytes);
    config.ghost_cleanup_interval_ops = 0;
    Database::create(config).unwrap()
}

#[test]
fn out_of_space_mid_batch_restores_both_free_maps_and_keeps_old_versions() {
    let mut db = manual_cleanup_db(16 * MB);
    // Age the file a little so the free maps are not one trivial run each.
    for i in 0..6 {
        db.insert(&format!("o{i}"), 2 * MB).unwrap();
    }
    db.update("o1", MB).unwrap();
    db.delete("o4").unwrap();
    db.ghost_cleanup();
    let unit_before = db.lob_unit().free_space().free_runs();
    let gam_before = db.gam().free_space().free_runs();
    assert!(
        unit_before.len() + gam_before.len() > 2,
        "fixture too clean"
    );
    let layouts_before: Vec<_> = db.iter_blobs().cloned().collect();
    let stats_before = *db.stats();

    // Old and new versions of all four (9 MB live + 8 MB new) cannot
    // coexist, and there are no ghosts to reclaim: the batch dies after
    // allocating most of its chunks.
    let batch = [
        ("o0", 2 * MB),
        ("o2", 2 * MB),
        ("o3", 2 * MB),
        ("o5", 2 * MB),
    ];
    let err = db.update_batch(&batch, 64 * KB).unwrap_err();
    assert!(matches!(err, DbError::OutOfSpace { .. }));

    assert_eq!(db.lob_unit().free_space().free_runs(), unit_before);
    assert_eq!(db.gam().free_space().free_runs(), gam_before);
    assert_eq!(*db.stats(), stats_before);
    assert_eq!(db.iter_blobs().cloned().collect::<Vec<_>>(), layouts_before);
    for record in &layouts_before {
        let plan = db.read_plan(&record.key).unwrap();
        assert_eq!(
            plan.iter().map(|run| run.len).sum::<u64>(),
            record.page_count() * db.config().page_size,
            "{} must still read back in full",
            record.key
        );
    }
    assert_eq!(db.verify(), Ok(()));
    // The rolled-back space is genuinely reusable.
    db.update("o0", MB).unwrap();
}

#[test]
fn the_same_key_twice_in_a_batch_commits_both_in_order() {
    let mut db = manual_cleanup_db(64 * MB);
    db.insert("a", MB).unwrap();
    db.insert("b", MB).unwrap();
    let original: Vec<PageId> = db.get("a").unwrap().pages().collect();

    let receipts = db
        .update_batch(&[("a", 2 * MB), ("b", MB), ("a", 3 * MB)], 64 * KB)
        .unwrap();
    assert_eq!(receipts.len(), 3);
    assert_eq!(receipts[0].blob_id, receipts[2].blob_id);
    assert_eq!(receipts[0].bytes_written, 2 * MB);
    assert_eq!(receipts[2].bytes_written, 3 * MB);
    assert_eq!(db.stats().updates, 3, "both replacements of `a` count");

    // The last writer wins, and its receipt is the stored layout.
    let record = db.get("a").unwrap();
    assert_eq!(record.size_bytes, 3 * MB);
    assert_eq!(
        receipts[2].runs,
        record.byte_runs(db.config().page_size, db.config().base_offset)
    );
    // The original and the first replacement are both ghosts now.
    let pages_for = |size| db.config().pages_for(size);
    assert_eq!(
        db.ghost_page_count(),
        pages_for(MB) + pages_for(2 * MB) + pages_for(MB)
    );
    assert_eq!(db.stats().bytes_deleted, MB + 2 * MB + MB);
    assert_eq!(db.verify(), Ok(()));
    db.ghost_cleanup();
    assert!(
        original
            .iter()
            .all(|page| !db.get("a").unwrap().pages().any(|live| live == *page)),
        "the live version shares no page with the original"
    );
    assert_eq!(db.verify(), Ok(()));
}

#[test]
fn a_budget_ending_mid_run_releases_exactly_the_highest_pages() {
    let mut db = manual_cleanup_db(64 * MB);
    db.insert("low", MB).unwrap();
    db.insert("keep", MB).unwrap();
    db.insert("high", MB).unwrap();
    let low: Vec<PageId> = db.get("low").unwrap().pages().collect();
    let high: Vec<PageId> = db.get("high").unwrap().pages().collect();
    assert_eq!(db.get("high").unwrap().fragment_count(), 1);
    db.delete("low").unwrap();
    db.delete("high").unwrap();
    let backlog = db.ghost_page_count();
    assert_eq!(backlog, (low.len() + high.len()) as u64);
    let free_before = db.lob_unit().available_pages(db.gam());

    // Ten pages: a budget that ends in the middle of `high`'s single run.
    assert_eq!(db.ghost_cleanup_limited(10), 10);
    assert_eq!(db.ghost_page_count(), backlog - 10);
    assert_eq!(db.lob_unit().available_pages(db.gam()), free_before + 10);
    let is_free = |db: &Database, page: &PageId| {
        db.lob_unit().free_space().is_free(Extent::new(page.0, 1))
            || db.gam().is_free(page.extent())
    };
    let (kept, released) = high.split_at(high.len() - 10);
    assert!(
        released.iter().all(|page| is_free(&db, page)),
        "the ten highest pages are free"
    );
    assert!(
        !kept.iter().any(|page| is_free(&db, page)),
        "the rest of the run stays ghosted"
    );
    assert!(
        !low.iter().any(|page| is_free(&db, page)),
        "lower runs are untouched"
    );
    assert_eq!(db.verify(), Ok(()));

    // A budget larger than what is left drains it and says how much it was.
    assert_eq!(db.ghost_cleanup_limited(10_000), backlog - 10);
    assert_eq!(db.ghost_page_count(), 0);
    assert!(low.iter().chain(&high).all(|page| is_free(&db, page)));
}
