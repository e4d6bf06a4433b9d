//! Differential test of the run-native engine against the page-at-a-time
//! reference model (`reference/mod.rs`), plus the failure paths and corner
//! cases of the same code: out of space mid-batch, a key named twice in one
//! batch, a cleanup budget that ends in the middle of a run, budgeted passes
//! interleaved with ghosting.
//!
//! **Mutation-checked** (PR 22, each against the tier-1 proptest and the
//! long script): skipping the flush before `compact_step` reads the
//! candidate index, skipping `delete`'s eager removal of the entry its
//! record is indexed under, inverting the extent-bit test that replaced the
//! continuation probe in `allocate_pages`, leaving the `fresh` list out of a
//! budgeted ghost pass, and copying in hash-map order instead of key order
//! in the rebuild — each fails both.  Against the in-place walk of
//! `compact_step` (PR 25): letting the walk examine a blob it re-filed this
//! step, and re-opening the walk at the top of the index after a commit
//! instead of below the entry it was on — each fails both, and the engine's
//! `a_compact_step_examines_each_candidate_once_in_index_order`.
//!
//! Against the one-take GAM adoption: not releasing the adopted pages the
//! caller does not take fails every test in this file, the long script
//! included, and 29 allocation and engine unit tests, in debug and release
//! builds alike.  Not continuing a GAM-cut adoption into the unit's free
//! pages after it fails
//! `an_adoption_the_gam_cuts_short_continues_into_the_free_pages_after_it`
//! in both builds, and nine engine unit tests in debug through
//! `adopt_and_take_at`'s `debug_assert!`; the long script passes in release,
//! since under first fit the next pick is those same pages.  A first-run
//! shortcut in `RunIndexMap`'s position search that also answers its
//! successor's start fails the alloc crate's differential and a dozen of
//! its unit tests.  The long script counts the batches and compaction steps
//! that adopted from the GAM, so a change that stops reaching either fails
//! it.
//!
//! Since a single-run free withdraws the extents it empties inside the page
//! map's own release (`RunIndexMap::release_coalesced` with a granule), the
//! long script also counts the compaction steps and the partial ghost passes
//! — the two callers that free run by run — that handed an extent back to
//! the GAM (seeds 22 / 23 reach 1,228 / 1,365 steps and 1,990 / 2,226
//! passes); each must reach 1,000.

mod reference;

use lor_alloc::{AllocationPolicy, Extent, FreeSpace, PlacementPolicy};
use lor_blobkit::{Database, DbError, EngineConfig, ExtentId, PageId};
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
    /// The only reader of the key order: keys are `k0`, `k1`, …, `k10`, so
    /// key order is neither id order nor any hash order.
    Rebuild,
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
        1 => Just(Op::Rebuild),
    ]
}

/// Everything observable about the two engines must agree.
fn assert_same_state(db: &Database, model: &RefDatabase) -> Result<(), TestCaseError> {
    let layouts: Vec<(String, Vec<PageId>)> = db
        .iter_blobs()
        .map(|blob| (blob.key.as_str().to_string(), blob.pages().collect()))
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

/// What a script reached, so the long one can prove it went where it was
/// aimed.
#[derive(Debug, Default)]
struct Reached {
    /// Batches naming a key more than once that committed.
    duplicate_key_batches: u64,
    /// Batches that ran out of space and rolled back.
    failed_batches: u64,
    /// Budgeted ghost passes that left part of the backlog queued.
    partial_passes: u64,
    /// Compaction steps that moved at least one blob.
    moving_steps: u64,
    /// Batches during which the GAM's free extent count fell: streaming
    /// allocations that adopted fresh extents.
    adopting_batches: u64,
    /// Compaction steps that left the unit owning an extent the GAM held
    /// free before the step: relocations that adopted from the GAM.
    adopting_steps: u64,
    /// Compaction steps after which the GAM holds free an extent the unit
    /// owned before the step: frees that emptied an extent.
    emptying_steps: u64,
    /// Partial ghost passes (see `partial_passes`) that emptied an extent,
    /// in the same sense.
    emptying_passes: u64,
    /// Deletes of a blob replaced since the last compaction step or rebuild
    /// (its id is still on the engine's stale list).
    stale_deletes: u64,
    /// Most objects alive at once.
    peak_objects: usize,
}

/// `true` if the GAM now holds free one of the extents the unit `owned`.
fn returned_any(db: &Database, owned: &[ExtentId]) -> bool {
    owned.iter().any(|&extent| db.gam().is_free(extent))
}

/// Drives one op sequence through both engines under one configuration.
fn run_differential(config: EngineConfig, ops: &[Op]) -> Result<Reached, TestCaseError> {
    let mut db = Database::create(config.clone()).unwrap();
    let mut model = RefDatabase::create(config);
    let mut live: Vec<String> = Vec::new();
    let mut next_key = 0u64;
    let mut reached = Reached::default();
    // Keys written since anything last flushed the engine's stale list.
    let mut written = std::collections::BTreeSet::new();

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
                    written.insert(key.clone());
                    live.push(key);
                }
                prop_assert_eq!(got, want);
            }
            Op::Update { index, size } => {
                let Some(key) = live.get(index % live.len().max(1)) else {
                    continue;
                };
                let got = db.update(key, *size);
                if got.is_ok() {
                    written.insert(key.clone());
                }
                prop_assert_eq!(got, model.update(key, *size));
            }
            Op::UpdateBatch { items, chunk } => {
                if live.is_empty() {
                    continue;
                }
                let batch: Vec<(&str, u64)> = items
                    .iter()
                    .map(|&(index, size)| (live[index % live.len()].as_str(), size))
                    .collect();
                let gam_free = db.gam().free_extent_count();
                let got = db.update_batch(&batch, *chunk);
                reached.adopting_batches += u64::from(db.gam().free_extent_count() < gam_free);
                let keys: std::collections::BTreeSet<&str> =
                    batch.iter().map(|(key, _)| *key).collect();
                match &got {
                    Ok(_) => {
                        reached.duplicate_key_batches += u64::from(keys.len() < batch.len());
                        written.extend(keys.into_iter().map(str::to_string));
                    }
                    Err(_) => reached.failed_batches += 1,
                }
                prop_assert_eq!(got, model.update_batch(&batch, *chunk));
            }
            Op::Delete { index } => {
                if live.is_empty() {
                    continue;
                }
                let key = live.swap_remove(index % live.len());
                reached.stale_deletes += u64::from(written.remove(&key));
                prop_assert_eq!(db.delete(&key), model.delete(&key));
            }
            Op::CleanupLimited { pages } => {
                let owned: Vec<ExtentId> = db.lob_unit().extents().collect();
                prop_assert_eq!(
                    db.ghost_cleanup_limited(*pages),
                    model.ghost_cleanup_limited(*pages)
                );
                if db.ghost_page_count() > 0 {
                    reached.partial_passes += 1;
                    reached.emptying_passes += u64::from(returned_any(&db, &owned));
                }
            }
            Op::Compact { page_budget } => {
                let gam_free = db.gam().free_space().free_runs();
                let owned: Vec<ExtentId> = db.lob_unit().extents().collect();
                let report = db.compact_step(*page_budget);
                reached.moving_steps += u64::from(report.blobs_moved > 0);
                reached.adopting_steps += u64::from(
                    db.lob_unit()
                        .extents()
                        .any(|extent| gam_free.iter().any(|run| run.contains(extent.0))),
                );
                reached.emptying_steps += u64::from(returned_any(&db, &owned));
                written.clear();
                prop_assert_eq!(report, model.compact_step(*page_budget));
            }
            Op::Rebuild => {
                prop_assert_eq!(
                    db.rebuild_into_new_filegroup(),
                    model.rebuild_into_new_filegroup()
                );
                written.clear();
            }
        }
        reached.peak_objects = reached.peak_objects.max(db.object_count());
        assert_same_state(&db, &model)?;
    }
    Ok(reached)
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

/// SplitMix64: a seeded stream, the same on every host.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`.
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// A script shaped like a served store: mostly interleaved batches (keys
/// drawn from a live set small enough to repeat within a batch), with
/// budgeted ghost passes and compaction steps between them so the ghost heap
/// and the stale list are long-held and half-drained most of the time,
/// deletes that land on records still stale, and a rare rebuild.  Inserts
/// turn into deletes once about `target_objects` are alive, which keeps the
/// data file nearly full: most batches commit, some run out of space.
fn long_script(ops: usize, seed: u64, target_objects: u64) -> Vec<Op> {
    let mut rng = Rng(seed);
    let size = |rng: &mut Rng| 1 + rng.below(160 * KB);
    // Counts every insert as a success, so it runs ahead of the truth when
    // the file is full — which only makes the deletes come sooner.
    let mut alive = 0u64;
    (0..ops)
        .map(|_| match rng.below(200) {
            0..=34 if alive >= target_objects => {
                alive -= 1;
                Op::Delete {
                    index: rng.below(64) as usize,
                }
            }
            0..=29 => {
                alive += 1;
                Op::Insert {
                    size: size(&mut rng),
                }
            }
            30..=34 => {
                alive += 1;
                Op::InsertAsMaintenance {
                    size: size(&mut rng),
                }
            }
            35..=44 => Op::Update {
                index: rng.below(64) as usize,
                size: size(&mut rng),
            },
            45..=119 => Op::UpdateBatch {
                items: (0..1 + rng.below(5))
                    .map(|_| (rng.below(64) as usize, size(&mut rng)))
                    .collect(),
                chunk: [8 * KB, 64 * KB, MB][rng.below(3) as usize],
            },
            120..=139 => {
                alive = alive.saturating_sub(1);
                Op::Delete {
                    index: rng.below(64) as usize,
                }
            }
            // A budget of 0 is a full pass.
            140..=169 => Op::CleanupLimited {
                pages: rng.below(48),
            },
            170..=198 => Op::Compact {
                page_budget: rng.below(64),
            },
            _ => Op::Rebuild,
        })
        .collect()
}

/// The long one (CI runs it with `--ignored`, in release): 24,000 operations
/// under each of two configurations — ghosts released only by the script's
/// own budgeted and full passes (so the backlog's heap and fresh list both
/// stay populated) with compaction free to go anywhere, and the engine's
/// interval cleanup with compaction confined to a band (so steps skip and
/// the candidate index is re-read unchanged).
#[test]
#[ignore = "long: run with --release -- --ignored"]
fn long_script_matches_the_page_at_a_time_reference() {
    for (seed, interval, placement) in [
        (22, 0, PlacementPolicy::Unrestricted),
        (23, 16, PlacementPolicy::banded(0.75)),
    ] {
        let ops = long_script(24_000, seed, 64);
        let batches = ops
            .iter()
            .filter(|op| matches!(op, Op::UpdateBatch { .. }))
            .count();
        assert!(batches > 8_000, "{batches} batches");
        let mut config = EngineConfig::new(5 * MB);
        config.placement = placement;
        config.ghost_cleanup_interval_ops = interval;
        config.rows_per_page = 4;
        let reached = run_differential(config, &ops)
            .unwrap_or_else(|err| panic!("seed {seed}, {placement:?}: {err}"));
        // The script went where it was aimed (hundreds of each at least).
        assert!(reached.duplicate_key_batches >= 500, "{reached:?}");
        assert!(reached.failed_batches >= 50, "{reached:?}");
        assert!(reached.partial_passes >= 2_000, "{reached:?}");
        assert!(reached.moving_steps >= 2_000, "{reached:?}");
        assert!(reached.adopting_batches >= 1_000, "{reached:?}");
        assert!(reached.adopting_steps >= 1_000, "{reached:?}");
        assert!(reached.emptying_steps >= 1_000, "{reached:?}");
        assert!(reached.emptying_passes >= 1_000, "{reached:?}");
        assert!(reached.stale_deletes >= 500, "{reached:?}");
        assert!(reached.peak_objects >= 50, "{reached:?}");
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
        let plan = db.read_plan(record.key.as_str()).unwrap();
        assert_eq!(
            plan.iter().map(|run| run.len).sum::<u64>(),
            record.page_count() * db.config().page_size,
            "{} must still read back in full",
            record.key.as_str()
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

#[test]
fn a_budgeted_pass_after_interleaved_ghosting_releases_exactly_the_highest_pages() {
    // extend / budgeted / extend / budgeted / full: the second budgeted pass
    // must weigh what the first left ordered against what was ghosted since.
    let mut db = manual_cleanup_db(64 * MB);
    for name in ["a", "b", "c", "d", "e"] {
        db.insert(name, MB).unwrap();
    }
    let pages_of = |db: &Database, key: &str| -> Vec<u64> {
        db.get(key).unwrap().pages().map(|page| page.0).collect()
    };
    let is_free = |db: &Database, page: u64| {
        db.lob_unit().free_space().is_free(Extent::new(page, 1))
            || db.gam().is_free(PageId(page).extent())
    };
    // The ghost pages a tail-first engine must still hold, kept by hand.
    let mut ghosts = std::collections::BTreeSet::new();
    let budgeted = |db: &mut Database, ghosts: &mut std::collections::BTreeSet<u64>, n: u64| {
        assert_eq!(db.ghost_cleanup_limited(n), n);
        for _ in 0..n {
            let highest = ghosts.pop_last().unwrap();
            assert!(is_free(db, highest), "page {highest} is among the highest");
        }
        assert_eq!(db.ghost_page_count(), ghosts.len() as u64);
        assert!(
            !ghosts.iter().any(|&page| is_free(db, page)),
            "nothing below the budget was released"
        );
        assert_eq!(db.verify(), Ok(()));
    };

    // Ghost a low and a high object; a budget ending inside the high one.
    ghosts.extend(pages_of(&db, "a"));
    ghosts.extend(pages_of(&db, "d"));
    db.delete("a").unwrap();
    db.delete("d").unwrap();
    budgeted(&mut db, &mut ghosts, 40);
    // Ghost one above everything left ordered and one between: the pass has
    // to take all of `e`, then the rest of `d`, then start on `c`.
    ghosts.extend(pages_of(&db, "e"));
    ghosts.extend(pages_of(&db, "c"));
    db.delete("e").unwrap();
    db.delete("c").unwrap();
    let blob_pages = db.config().pages_for(MB);
    budgeted(&mut db, &mut ghosts, blob_pages + (blob_pages - 40) + 7);
    // And once more with nothing new, from the ordered part alone.
    budgeted(&mut db, &mut ghosts, 5);

    // A full pass takes the ordered rest and what was ghosted since alike.
    ghosts.extend(pages_of(&db, "b"));
    db.delete("b").unwrap();
    assert_eq!(db.ghost_cleanup_limited(0), ghosts.len() as u64);
    assert_eq!(db.ghost_page_count(), 0);
    assert!(ghosts.iter().all(|&page| is_free(&db, page)));
    assert_eq!(db.object_count(), 0);
    assert_eq!(db.verify(), Ok(()));
}
