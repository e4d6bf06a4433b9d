//! Property tests for the BLOB storage engine: random operation sequences
//! must preserve the engine's structural invariants.

use std::collections::BTreeMap;

use lor_alloc::RunList;
use lor_blobkit::{AllocationUnit, Database, EngineConfig, Gam, PAGES_PER_EXTENT};
use lor_core_free_space_oracle::combined_free_runs;
use proptest::prelude::*;

/// Helpers for cross-validating the engine's run-indexed free-space maps
/// against the exhaustive bitmap oracle.
mod lor_core_free_space_oracle {
    use lor_alloc::{Extent, FreeSpace, RunList};
    use lor_blobkit::{AllocationUnit, Gam, PAGES_PER_EXTENT};

    /// The engine's page-granular free space, merged across its two levels:
    /// free pages inside the unit's assigned extents, plus every page of
    /// every unassigned extent in the GAM.  Returned sorted and coalesced,
    /// i.e. in the same canonical form `FreeSpace::free_runs` uses.
    pub fn combined_free_runs(unit: &AllocationUnit, gam: &Gam) -> Vec<Extent> {
        let mut runs: Vec<Extent> = unit.free_space().free_runs();
        runs.extend(
            gam.free_space()
                .free_runs()
                .into_iter()
                .map(|run| Extent::new(run.start * PAGES_PER_EXTENT, run.len * PAGES_PER_EXTENT)),
        );
        runs.sort_by_key(|run| run.start);
        runs.into_iter().collect::<RunList>().runs().collect()
    }
}

const MB: u64 = 1 << 20;
const FILE_BYTES: u64 = 64 * MB;

#[derive(Debug, Clone)]
enum DbOp {
    /// Insert a new object of `size` bytes.
    Insert { size: u64 },
    /// Replace the live object at this modular index with a new version.
    Update { index: usize, size: u64 },
    /// Delete the live object at this modular index.
    Delete { index: usize },
    /// Run ghost cleanup now.
    Cleanup,
    /// Rebuild the table into a new filegroup.
    Rebuild,
}

fn arb_op() -> impl Strategy<Value = DbOp> {
    prop_oneof![
        4 => (1u64..2 * MB).prop_map(|size| DbOp::Insert { size }),
        3 => (0usize..64, 1u64..2 * MB).prop_map(|(index, size)| DbOp::Update { index, size }),
        2 => (0usize..64).prop_map(|index| DbOp::Delete { index }),
        1 => Just(DbOp::Cleanup),
        1 => Just(DbOp::Rebuild),
    ]
}

/// Verifies the engine against a shadow model (key -> size) and against its
/// own structural invariants ([`Database::verify`]: page accounting, no page
/// with two owners, extent bitmaps vs maps, incremental indexes vs rescan).
fn check_invariants(db: &Database, live: &BTreeMap<String, u64>) -> Result<(), TestCaseError> {
    prop_assert_eq!(db.object_count(), live.len());
    for (key, &size) in live {
        let record = db.get(key).expect("live key resolves");
        prop_assert_eq!(record.size_bytes, size);
        prop_assert_eq!(record.page_count(), db.config().pages_for(size));
        // The read plan covers exactly the object's pages.
        let plan = db.read_plan(key).unwrap();
        let plan_bytes: u64 = plan.iter().map(|r| r.len).sum();
        prop_assert_eq!(plan_bytes, record.page_count() * db.config().page_size);
    }
    prop_assert_eq!(db.verify(), Ok(()));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn random_workloads_preserve_engine_invariants(ops in prop::collection::vec(arb_op(), 1..60)) {
        let mut config = EngineConfig::new(FILE_BYTES);
        config.ghost_cleanup_interval_ops = 4;
        let mut db = Database::create(config).unwrap();
        let mut live: BTreeMap<String, u64> = BTreeMap::new();
        let mut counter = 0u64;

        for op in ops {
            match op {
                DbOp::Insert { size } => {
                    let key = format!("obj-{counter}");
                    counter += 1;
                    match db.insert(&key, size) {
                        Ok(receipt) => {
                            prop_assert_eq!(receipt.bytes_written, size);
                            prop_assert_eq!(receipt.pages_written, db.config().pages_for(size));
                            live.insert(key, size);
                        }
                        Err(_) => {
                            prop_assert!(db.get(&key).is_err(), "failed insert must leave no trace");
                        }
                    }
                }
                DbOp::Update { index, size } => {
                    if live.is_empty() { continue; }
                    let key = live.keys().nth(index % live.len()).unwrap().clone();
                    match db.update(&key, size) {
                        Ok(_) => { live.insert(key, size); }
                        Err(_) => {
                            // The old version must survive a failed update.
                            prop_assert!(db.get(&key).is_ok());
                            prop_assert_eq!(db.get(&key).unwrap().size_bytes, live[&key]);
                        }
                    }
                }
                DbOp::Delete { index } => {
                    if live.is_empty() { continue; }
                    let key = live.keys().nth(index % live.len()).unwrap().clone();
                    db.delete(&key).unwrap();
                    live.remove(&key);
                }
                DbOp::Cleanup => db.ghost_cleanup(),
                DbOp::Rebuild => {
                    let copied = db.rebuild_into_new_filegroup().unwrap();
                    prop_assert_eq!(copied, live.values().sum::<u64>());
                    // A rebuild leaves every object contiguous.
                    for key in live.keys() {
                        prop_assert_eq!(db.get(key).unwrap().fragment_count(), 1);
                    }
                }
            }
            check_invariants(&db, &live)?;
        }

        // Teardown: delete everything, clean up, and the whole file is free again.
        let keys: Vec<String> = live.keys().cloned().collect();
        for key in keys {
            db.delete(&key).unwrap();
        }
        db.ghost_cleanup();
        prop_assert_eq!(db.object_count(), 0);
        prop_assert_eq!(db.ghost_page_count(), 0);
    }

    /// Storage accounting never loses pages: live + ghost + free == capacity.
    #[test]
    fn page_accounting_is_exact(sizes in prop::collection::vec(1u64..MB, 1..40)) {
        let mut config = EngineConfig::new(FILE_BYTES);
        config.ghost_cleanup_interval_ops = 1_000_000; // manual only
        let mut db = Database::create(config).unwrap();
        let mut inserted = Vec::new();
        for (i, size) in sizes.iter().enumerate() {
            let key = format!("k{i}");
            if db.insert(&key, *size).is_ok() {
                inserted.push(key);
            }
        }
        // Delete half of them (ghosts accumulate).
        for key in inserted.iter().step_by(2) {
            db.delete(key).unwrap();
        }
        let live_pages: u64 = db.iter_blobs().map(|b| b.page_count()).sum();
        prop_assert_eq!(
            db.stats().pages_allocated,
            live_pages + db.ghost_page_count(),
            "every allocated page is either live or a ghost before cleanup"
        );
        db.ghost_cleanup();
        prop_assert_eq!(db.ghost_page_count(), 0);
    }

    /// Bulk loads are laid out contiguously regardless of object size mix.
    #[test]
    fn bulk_load_is_contiguous(sizes in prop::collection::vec((64u64 * 1024)..MB, 1..32)) {
        let mut db = Database::create(EngineConfig::new(FILE_BYTES)).unwrap();
        for (i, size) in sizes.iter().enumerate() {
            db.insert(&format!("k{i}"), *size).unwrap();
        }
        let summary = db.fragmentation();
        prop_assert!(
            summary.fragments_per_object <= 1.0 + 1e-9,
            "bulk load produced {} fragments/object",
            summary.fragments_per_object
        );
    }
}

/// One operation of the engine's space-management workload, expressed at the
/// GAM/allocation-unit level so the same sequence can drive a [`BitmapMap`]
/// oracle in lock-step.
#[derive(Debug, Clone)]
enum SpaceOp {
    /// Insert: allocate pages for a new object.
    Insert { pages: u64 },
    /// Update: allocate pages for the replacement version first (as the
    /// transactional update must), then ghost-free the old version's pages.
    Update { index: usize, pages: u64 },
    /// Ghost cleanup of a deleted object: free its pages.
    Cleanup { index: usize },
}

fn arb_space_op() -> impl Strategy<Value = SpaceOp> {
    prop_oneof![
        4 => (1u64..48).prop_map(|pages| SpaceOp::Insert { pages }),
        3 => (0usize..64, 1u64..48).prop_map(|(index, pages)| SpaceOp::Update { index, pages }),
        2 => (0usize..64).prop_map(|index| SpaceOp::Cleanup { index }),
    ]
}

/// Drives one GAM + allocation unit under `policy` through an op sequence in
/// lock-step with the exhaustive [`BitmapMap`] oracle (see the proptest
/// below).
fn check_against_oracle(
    policy: lor_alloc::AllocationPolicy,
    ops: &[SpaceOp],
) -> Result<(), TestCaseError> {
    use lor_alloc::{BitmapMap, Extent, FreeSpace};

    const TOTAL_EXTENTS: u64 = 64;
    const TOTAL_PAGES: u64 = TOTAL_EXTENTS * PAGES_PER_EXTENT;

    let mut gam = Gam::with_policy(TOTAL_EXTENTS, policy);
    let mut unit = AllocationUnit::with_policy(lor_blobkit::PageKind::LobData, TOTAL_PAGES, policy);
    let mut oracle = BitmapMap::new_free(TOTAL_PAGES);
    let mut live: Vec<RunList> = Vec::new();

    // One streamed allocation, mirrored into the oracle run by run.
    let allocate = |unit: &mut AllocationUnit, gam: &mut Gam, oracle: &mut BitmapMap, pages| {
        let mut layout = RunList::new();
        unit.allocate_pages(gam, pages, &mut layout).ok()?;
        for run in layout.runs() {
            oracle.reserve(run).expect("oracle agrees the run was free");
        }
        Some(layout)
    };
    // Ghost cleanup of one version, alternating between the two free paths.
    let free =
        |unit: &mut AllocationUnit, gam: &mut Gam, oracle: &mut BitmapMap, ghosts: RunList| {
            if ghosts.units().is_multiple_of(2) {
                unit.free_runs(gam, ghosts.runs());
            } else {
                for page in ghosts.runs().flat_map(|run| run.start..run.end()) {
                    unit.free_run(gam, Extent::new(page, 1));
                }
            }
            for run in ghosts.runs() {
                oracle.release(run).expect("oracle agrees the run was used");
            }
        };

    for op in ops.iter().cloned() {
        match op {
            SpaceOp::Insert { pages } => {
                if let Some(allocated) = allocate(&mut unit, &mut gam, &mut oracle, pages) {
                    prop_assert_eq!(allocated.units(), pages);
                    live.push(allocated);
                }
            }
            SpaceOp::Update { index, pages } => {
                if live.is_empty() {
                    continue;
                }
                let slot = index % live.len();
                if let Some(allocated) = allocate(&mut unit, &mut gam, &mut oracle, pages) {
                    let ghosts = std::mem::replace(&mut live[slot], allocated);
                    free(&mut unit, &mut gam, &mut oracle, ghosts);
                }
            }
            SpaceOp::Cleanup { index } => {
                if live.is_empty() {
                    continue;
                }
                let ghosts = live.swap_remove(index % live.len());
                free(&mut unit, &mut gam, &mut oracle, ghosts);
            }
        }
        prop_assert_eq!(unit.verify(&gam), Ok(()));

        // The two run-indexed levels, merged, must agree exactly with the
        // exhaustive bitmap.
        prop_assert_eq!(
            unit.free_page_count() + gam.free_extent_count() * PAGES_PER_EXTENT,
            oracle.free_clusters(),
            "free-page accounting diverged from the oracle"
        );
        prop_assert_eq!(combined_free_runs(&unit, &gam), oracle.free_runs());
        // Structural invariant of the split: a unit page is free only
        // inside an assigned extent, never in a GAM-free one.
        for run in unit.free_space().free_runs() {
            for extent in gam.free_space().free_runs() {
                let extent_pages = Extent::new(
                    extent.start * PAGES_PER_EXTENT,
                    extent.len * PAGES_PER_EXTENT,
                );
                prop_assert!(
                    !run.overlaps(&extent_pages),
                    "unit and GAM both claim pages free"
                );
            }
        }
    }

    // Teardown: free everything and both levels drain back to fully free.
    for object in live.drain(..) {
        free(&mut unit, &mut gam, &mut oracle, object);
    }
    prop_assert_eq!(gam.free_extent_count(), TOTAL_EXTENTS);
    prop_assert_eq!(unit.free_page_count(), 0);
    prop_assert_eq!(oracle.free_runs(), vec![Extent::new(0, TOTAL_PAGES)]);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The run-indexed maps the engine's space management now sits on stay
    /// equivalent to the exhaustive [`BitmapMap`] oracle under blobkit's
    /// insert / update / ghost-cleanup sequences — under every selectable
    /// allocation policy, not just the native lowest-first one.
    #[test]
    fn unit_free_space_matches_bitmap_oracle(ops in prop::collection::vec(arb_space_op(), 1..80)) {
        for policy in lor_alloc::AllocationPolicy::ALL {
            check_against_oracle(policy, &ops)?;
        }
    }
}

/// Operations for the placement proptest: the foreground workload plus
/// explicit budgeted compaction steps.
#[derive(Debug, Clone)]
enum PlacedOp {
    /// Insert a new object of `size` bytes.
    Insert { size: u64 },
    /// Replace the live object at this modular index with a new version.
    Update { index: usize, size: u64 },
    /// Delete the live object at this modular index.
    Delete { index: usize },
    /// Run ghost cleanup now.
    Cleanup,
    /// Run one budgeted compaction step.
    Compact { page_budget: u64 },
}

fn arb_placed_op() -> impl Strategy<Value = PlacedOp> {
    prop_oneof![
        4 => (1u64..2 * MB).prop_map(|size| PlacedOp::Insert { size }),
        4 => (0usize..64, 1u64..2 * MB).prop_map(|(index, size)| PlacedOp::Update { index, size }),
        2 => (0usize..64).prop_map(|index| PlacedOp::Delete { index }),
        2 => Just(PlacedOp::Cleanup),
        3 => (0u64..256).prop_map(|page_budget| PlacedOp::Compact { page_budget }),
    ]
}

/// The largest free run (in pages) inside the foreground band, measured on
/// the combined page-level availability (unit free pages plus unassigned GAM
/// extents) clipped to `[0, boundary_page)`.
fn foreground_band_largest(db: &Database, boundary_page: u64) -> u64 {
    combined_free_runs(db.lob_unit(), db.gam())
        .into_iter()
        .filter_map(|run| {
            let end = run.end().min(boundary_page);
            end.checked_sub(run.start).filter(|len| *len > 0)
        })
        .max()
        .unwrap_or(0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Under [`lor_alloc::PlacementPolicy::Banded`], a compaction step never
    /// shrinks the foreground band's largest free run, whatever
    /// insert/update/ghost-cleanup/compact sequence surrounds it: the
    /// compactor reserves only inside the maintenance band (refusing rather
    /// than spilling) and its frees can only grow the foreground band.
    #[test]
    fn banded_compaction_never_shrinks_the_foreground_band(
        ops in prop::collection::vec(arb_placed_op(), 1..60),
        boundary in prop_oneof![Just(0.5f64), Just(0.75), Just(0.9)],
    ) {
        let placement = lor_alloc::PlacementPolicy::banded(boundary);
        let mut config = EngineConfig::new(FILE_BYTES);
        config.ghost_cleanup_interval_ops = 0; // cleanup only when the script says so
        config.placement = placement;
        let boundary_page =
            placement.boundary_cluster(config.total_extents()) * PAGES_PER_EXTENT;
        let mut db = Database::create(config).unwrap();
        let mut live: Vec<String> = Vec::new();
        let mut next_key = 0u64;
        for op in ops {
            match op {
                PlacedOp::Insert { size } => {
                    let key = format!("k{next_key}");
                    next_key += 1;
                    if db.insert(&key, size).is_ok() {
                        live.push(key);
                    }
                }
                PlacedOp::Update { index, size } => {
                    if !live.is_empty() {
                        let key = live[index % live.len()].clone();
                        let _ = db.update(&key, size);
                    }
                }
                PlacedOp::Delete { index } => {
                    if !live.is_empty() {
                        let key = live.remove(index % live.len());
                        db.delete(&key).unwrap();
                    }
                }
                PlacedOp::Cleanup => db.ghost_cleanup(),
                PlacedOp::Compact { page_budget } => {
                    let before = foreground_band_largest(&db, boundary_page);
                    db.compact_step(page_budget);
                    let after = foreground_band_largest(&db, boundary_page);
                    prop_assert!(
                        after >= before,
                        "compact step shrank the foreground band's largest \
                         free run ({before} -> {after} pages, boundary {boundary})"
                    );
                }
            }
        }
        // Every surviving object still reads back in full.
        for key in &live {
            let plan = db.read_plan(key).unwrap();
            prop_assert!(plan.iter().map(|r| r.len).sum::<u64>() > 0);
        }
    }
}

/// One operation of the incremental-fragmentation equivalence workload: the
/// foreground mutation mix plus every maintenance path that rewrites layouts
/// behind the tracker's back if a bookkeeping site is missed.
#[derive(Debug, Clone)]
enum FragOp {
    Insert { size: u64 },
    Update { index: usize, size: u64 },
    Delete { index: usize },
    CleanupLimited { pages: u64 },
    Compact { page_budget: u64 },
    Rebuild,
}

fn arb_frag_op() -> impl Strategy<Value = FragOp> {
    prop_oneof![
        4 => (1u64..2 * MB).prop_map(|size| FragOp::Insert { size }),
        4 => (0usize..64, 1u64..2 * MB).prop_map(|(index, size)| FragOp::Update { index, size }),
        2 => (0usize..64).prop_map(|index| FragOp::Delete { index }),
        2 => (1u64..64).prop_map(|pages| FragOp::CleanupLimited { pages }),
        2 => (1u64..64).prop_map(|page_budget| FragOp::Compact { page_budget }),
        1 => Just(FragOp::Rebuild),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// After any sequence of inserts, updates, deletes, budgeted ghost
    /// cleanups, budgeted compaction steps and filegroup rebuilds, the
    /// engine's O(1)-observable [`Database::fragmentation`] is bit-identical
    /// to [`Database::fragmentation_rescan`], the full walk over every live
    /// blob it replaced.
    #[test]
    fn incremental_fragmentation_matches_full_rescan(
        ops in prop::collection::vec(arb_frag_op(), 1..80)
    ) {
        let mut config = EngineConfig::new(FILE_BYTES);
        config.ghost_cleanup_interval_ops = 1_000_000; // cleanups only where the op says
        let mut db = Database::create(config).unwrap();
        let mut keys: Vec<String> = Vec::new();
        let mut counter = 0u64;

        for op in ops {
            match op {
                FragOp::Insert { size } => {
                    let key = format!("obj-{counter}");
                    counter += 1;
                    if db.insert(&key, size).is_ok() {
                        keys.push(key);
                    }
                }
                FragOp::Update { index, size } => {
                    if keys.is_empty() { continue; }
                    let key = keys[index % keys.len()].clone();
                    let _ = db.update(&key, size);
                }
                FragOp::Delete { index } => {
                    if keys.is_empty() { continue; }
                    let key = keys.swap_remove(index % keys.len());
                    db.delete(&key).unwrap();
                }
                FragOp::CleanupLimited { pages } => {
                    db.ghost_cleanup_limited(pages);
                }
                FragOp::Compact { page_budget } => {
                    db.compact_step(page_budget);
                }
                FragOp::Rebuild => {
                    db.rebuild_into_new_filegroup().unwrap();
                }
            }
            prop_assert_eq!(db.fragmentation(), db.fragmentation_rescan());
        }
    }
}

/// A unit and its GAM with objects of `sizes` pages allocated in turn, each
/// one flagged `true` freed again before the next is allocated (so later
/// objects fill the holes and come out in several runs): the layouts still
/// live.
fn fragmented_unit(sizes: &[(u64, bool)]) -> (AllocationUnit, Gam, Vec<RunList>) {
    const TOTAL_EXTENTS: u64 = 64;
    let mut gam = Gam::new(TOTAL_EXTENTS);
    let mut unit = AllocationUnit::new(
        lor_blobkit::PageKind::LobData,
        TOTAL_EXTENTS * PAGES_PER_EXTENT,
    );
    let mut live = Vec::new();
    for &(pages, early) in sizes {
        let mut layout = RunList::new();
        if unit.allocate_pages(&mut gam, pages, &mut layout).is_err() {
            continue;
        }
        if early {
            unit.free_runs(&mut gam, layout.runs());
        } else {
            live.push(layout);
        }
    }
    (unit, gam, live)
}

/// Frees `backlog` (ascending) in one batch on one copy and one run at a
/// time, in the order `order` shuffles it into, on the other: the unit's
/// free runs, the GAM's and the unit's extents must agree, and both must
/// verify.
fn check_batch_free(
    unit: &AllocationUnit,
    gam: &Gam,
    backlog: &[lor_alloc::Extent],
    order: &[usize],
) -> Result<(), TestCaseError> {
    use lor_alloc::FreeSpace;

    let (mut batch_unit, mut batch_gam) = (unit.clone(), gam.clone());
    batch_unit.free_sorted_runs(&mut batch_gam, backlog.iter().copied());
    let (mut one_unit, mut one_gam) = (unit.clone(), gam.clone());
    let mut runs = backlog.to_vec();
    for (k, &swap) in order.iter().enumerate().take(runs.len()) {
        let other = swap % runs.len();
        runs.swap(k, other);
    }
    for run in runs {
        one_unit.free_run(&mut one_gam, run);
    }
    prop_assert_eq!(batch_unit.verify(&batch_gam), Ok(()));
    prop_assert_eq!(one_unit.verify(&one_gam), Ok(()));
    prop_assert_eq!(
        batch_unit.free_space().free_runs(),
        one_unit.free_space().free_runs()
    );
    prop_assert_eq!(
        batch_gam.free_space().free_runs(),
        one_gam.free_space().free_runs()
    );
    prop_assert_eq!(
        batch_unit.extents().collect::<Vec<_>>(),
        one_unit.extents().collect::<Vec<_>>()
    );
    prop_assert_eq!(batch_unit.extent_count(), one_unit.extent_count());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// A full ghost pass — the whole backlog freed ascending in one merge
    /// per map — ends exactly where one `free_run` per run ends, in any
    /// order: the unit's page runs, the GAM's extent runs and the unit's
    /// extent set.  The backlog is the runs of some live layouts, each cut
    /// into touching pieces at random points.  Mutation-checked (PR 25): a
    /// coalesced run that forgets it took in a freed run once an old free
    /// run extends it (a missed cut), and the extent span rounded outwards,
    /// each fail this test and the test below.
    #[test]
    fn a_batched_free_equals_one_free_per_run(
        sizes in prop::collection::vec((1u64..40, any::<bool>()), 1..48),
        ghosted in prop::collection::vec(any::<bool>(), 48),
        cuts in prop::collection::vec(0u64..24, 0..64),
        order in prop::collection::vec(0usize..256, 256),
    ) {
        let (unit, gam, live) = fragmented_unit(&sizes);
        let mut backlog: Vec<lor_alloc::Extent> = Vec::new();
        let mut cuts = cuts.into_iter();
        for (layout, _) in live.iter().zip(&ghosted).filter(|(_, &ghost)| ghost) {
            for run in layout.runs() {
                // Cut at `cut` pages in, when that is inside the run.
                match cuts.next().filter(|&cut| cut > 0 && cut < run.len) {
                    Some(cut) => {
                        backlog.push(lor_alloc::Extent::new(run.start, cut));
                        backlog.push(lor_alloc::Extent::new(run.start + cut, run.len - cut));
                    }
                    None => backlog.push(run),
                }
            }
        }
        backlog.sort_unstable();
        check_batch_free(&unit, &gam, &backlog, &order)?;
    }
}

/// The extents a batch empties only together: two touching runs, and two
/// runs either side of a page freed earlier and before another.
#[test]
fn a_batched_free_returns_extents_only_its_runs_together_empty() {
    use lor_alloc::{Extent, FreeSpace};

    let (mut unit, mut gam, live) = fragmented_unit(&[(4 * PAGES_PER_EXTENT, false)]);
    assert_eq!(
        live[0].runs().collect::<Vec<_>>(),
        [Extent::new(0, 4 * PAGES_PER_EXTENT)]
    );
    // Extent 1 keeps two pages freed earlier, the second its last page.
    unit.free_run(&mut gam, Extent::new(PAGES_PER_EXTENT + 3, 1));
    unit.free_run(&mut gam, Extent::new(2 * PAGES_PER_EXTENT - 1, 1));
    let backlog = [
        Extent::new(0, 4),
        Extent::new(4, 4),
        Extent::new(PAGES_PER_EXTENT, 3),
        Extent::new(PAGES_PER_EXTENT + 4, 3),
        // Longer than an extent, yet no whole one.
        Extent::new(2 * PAGES_PER_EXTENT + 1, PAGES_PER_EXTENT + 1),
    ];
    check_batch_free(&unit, &gam, &backlog, &[]).unwrap();
    unit.free_sorted_runs(&mut gam, backlog);
    assert_eq!(
        unit.extents().collect::<Vec<_>>(),
        [lor_blobkit::ExtentId(2), lor_blobkit::ExtentId(3)],
        "extents 0 and 1 emptied, extents 2 and 3 not"
    );
    assert_eq!(
        unit.free_space().free_runs(),
        [Extent::new(2 * PAGES_PER_EXTENT + 1, PAGES_PER_EXTENT + 1)]
    );
    assert_eq!(gam.free_space().free_runs()[0], Extent::new(0, 2));
}
