//! Property tests for the allocation substrate.
//!
//! The central technique is cross-validation: the run-indexed free-space map
//! is driven in lock-step with the exhaustive bitmap oracle, and the
//! allocator is checked under every policy and placement against a handful of
//! global invariants (no overlap, exact accounting, failures that leave no
//! trace, placement constraints kept, full restoration after freeing
//! everything).

use lor_alloc::{
    AllocError, AllocRequest, AllocationPolicy, BitmapMap, Extent, ExtentListExt, FitPolicy,
    FragmentationSummary, FreeSpace, PlacementConsumer, PlacementPolicy, RunIndexMap,
    SelectableAllocator,
};
use proptest::prelude::*;

const VOLUME: u64 = 4_096;

/// A random script of reserve/release operations, expressed abstractly so the
/// same script can drive both free-space structures.
#[derive(Debug, Clone)]
enum MapOp {
    Reserve(Extent),
    Release(Extent),
}

prop_compose! {
    fn arb_extent()(start in 0u64..VOLUME, len in 1u64..256) -> Extent {
        Extent::new(start, len.min(VOLUME - start))
    }
}

fn arb_map_op() -> impl Strategy<Value = MapOp> {
    prop_oneof![
        arb_extent().prop_map(MapOp::Reserve),
        arb_extent().prop_map(MapOp::Release)
    ]
}

proptest! {
    /// The run-indexed map and the bitmap oracle accept/reject exactly the
    /// same operations and agree on the resulting free runs.
    #[test]
    fn run_index_map_matches_bitmap_oracle(ops in prop::collection::vec(arb_map_op(), 1..200)) {
        let mut runs = RunIndexMap::new_free(VOLUME);
        let mut bitmap = BitmapMap::new_free(VOLUME);
        for op in ops {
            let (a, b) = match op {
                MapOp::Reserve(e) => (runs.reserve(e), bitmap.reserve(e)),
                MapOp::Release(e) => (runs.release(e), bitmap.release(e)),
            };
            prop_assert_eq!(a.is_ok(), b.is_ok(), "acceptance must agree");
            prop_assert_eq!(runs.free_clusters(), bitmap.free_clusters());
        }
        prop_assert_eq!(runs.free_runs(), bitmap.free_runs());
    }

    /// Free runs reported by the run-indexed map are sorted, non-empty,
    /// non-overlapping and never adjacent (i.e. maximally coalesced).
    #[test]
    fn free_runs_are_canonical(ops in prop::collection::vec(arb_map_op(), 1..200)) {
        let mut map = RunIndexMap::new_free(VOLUME);
        for op in ops {
            let _ = match op {
                MapOp::Reserve(e) => map.reserve(e),
                MapOp::Release(e) => map.release(e),
            };
        }
        let runs = map.free_runs();
        for window in runs.windows(2) {
            prop_assert!(window[0].end() < window[1].start, "sorted, disjoint, coalesced");
        }
        prop_assert!(runs.iter().all(|r| !r.is_empty()));
        prop_assert_eq!(runs.iter().map(|r| r.len).sum::<u64>(), map.free_clusters());
    }

    /// Freeing the tiles of a fully allocated map in random order meets all
    /// four coalescing cases of `release` (no free neighbour, the left one,
    /// the right one, both).  After each, the run map's offset order and its
    /// size summary agree with the bitmap oracle, and a double free or a free reaching past
    /// either edge of the tile is `NotAllocated` and leaves no trace.
    #[test]
    fn release_coalesces_like_the_bitmap_and_rejects_bad_frees(
        tiles in prop::collection::vec((1u64..48, any::<u64>()), 48..64)
    ) {
        let mut order: Vec<(u64, Extent)> = Vec::new();
        let mut total = 0;
        for (len, key) in tiles {
            order.push((key, Extent::new(total, len)));
            total += len;
        }
        order.sort_unstable_by_key(|(key, _)| *key);

        let mut runs = RunIndexMap::new_allocated(total);
        let mut bitmap = BitmapMap::new_allocated(total);
        let mut cases_met = [false; 4];
        for (_, tile) in order {
            let left = tile.start > 0 && bitmap.is_free(Extent::new(tile.start - 1, 1));
            let right = tile.end() < total && bitmap.is_free(Extent::new(tile.end(), 1));
            cases_met[usize::from(left) + 2 * usize::from(right)] = true;
            runs.release(tile).unwrap();
            bitmap.release(tile).unwrap();

            let expected = bitmap.free_runs();
            let mut lens: Vec<u64> = expected.iter().map(|run| run.len).collect();
            lens.sort_unstable_by(|a, b| b.cmp(a));
            for bad in [
                tile,
                Extent::new(tile.start.saturating_sub(1), tile.len + 1),
                Extent::new(tile.start, (tile.len + 1).min(total - tile.start)),
                Extent::new(tile.end() - 1, 1),
            ] {
                let not_allocated = AllocError::NotAllocated {
                    start: bad.start,
                    len: bad.len,
                };
                prop_assert_eq!(runs.release(bad), Err(not_allocated));
                prop_assert!(bitmap.release(bad).is_err());
                prop_assert_eq!(runs.free_runs(), expected.clone());
                prop_assert_eq!(runs.run_lens_desc().collect::<Vec<_>>(), lens.clone());
                prop_assert_eq!(runs.free_clusters(), bitmap.free_clusters());
            }
        }
        prop_assert_eq!(cases_met, [true; 4]);
        prop_assert_eq!(runs.free_runs(), vec![Extent::new(0, total)]);
    }

    /// Counting fragments agrees with building the coalesced list, empty
    /// extents and accidental adjacency included.
    #[test]
    fn fragment_count_matches_the_coalesced_list(
        extents in prop::collection::vec((0u64..64, 0u64..4), 0..40)
    ) {
        let extents: Vec<Extent> = extents
            .into_iter()
            .map(|(start, len)| Extent::new(start, len))
            .collect();
        prop_assert_eq!(extents.fragment_count(), extents.coalesced().len());
    }
}

/// A random script of allocate/free operations sized so that some allocations
/// fail (the volume is small) and plenty of churn happens.
#[derive(Debug, Clone)]
enum AllocOp {
    /// Allocate this many clusters — best effort or as one run, with or
    /// without a hint at the end of the most recently allocated object, for
    /// the foreground or for maintenance under the given watermark.
    Allocate {
        clusters: u64,
        hinted: bool,
        contiguous: bool,
        maintenance: Option<u64>,
    },
    /// Free the live object at this (modular) index.
    Free(usize),
}

fn arb_alloc_op() -> impl Strategy<Value = AllocOp> {
    let allocate = (
        1u64..512,
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
        0u64..600,
    );
    prop_oneof![
        allocate.prop_map(|(clusters, hinted, contiguous, maintenance, watermark)| {
            AllocOp::Allocate {
                clusters,
                hinted,
                contiguous,
                maintenance: maintenance.then_some(watermark),
            }
        }),
        (0usize..64).prop_map(AllocOp::Free),
    ]
}

/// Runs a script against the allocator and checks global invariants: exact
/// accounting, no cluster handed out twice, a failed request leaving no trace
/// in the map or in the caller's buffer, and maintenance extents inside the
/// placement constraint.
fn run_script(mut allocator: SelectableAllocator, ops: Vec<AllocOp>) -> Result<(), TestCaseError> {
    let total = allocator.free_space().total_clusters();
    let placement = allocator.placement();
    let earlier = Extent::new(total, 7); // the caller's own entry in `out`
    let mut live: Vec<Vec<Extent>> = Vec::new();
    for op in ops {
        match op {
            AllocOp::Allocate {
                clusters,
                hinted,
                contiguous,
                maintenance,
            } => {
                let mut request = if contiguous {
                    AllocRequest::contiguous(clusters)
                } else {
                    AllocRequest::best_effort(clusters)
                };
                if hinted {
                    request.hint = live.last().and_then(|o| o.last()).map(|e| e.end());
                }
                let consumer = match maintenance {
                    Some(foreground_watermark) => PlacementConsumer::Maintenance {
                        foreground_watermark,
                    },
                    None => PlacementConsumer::Foreground,
                };
                let runs_before = allocator.free_space().free_runs();
                let mut out = vec![earlier];
                if allocator
                    .allocate_into(&request, consumer, &mut out)
                    .is_err()
                {
                    // Failure is allowed (the volume is small, maintenance
                    // may be refused); it must leave no trace.
                    prop_assert_eq!(out, vec![earlier]);
                    prop_assert_eq!(allocator.free_space().free_runs(), runs_before);
                    continue;
                }
                prop_assert_eq!(out[0], earlier);
                let extents = out.split_off(1);
                prop_assert_eq!(extents.total_clusters(), clusters);
                prop_assert!(extents.is_disjoint());
                prop_assert!(extents.iter().all(|e| e.end() <= total), "within bounds");
                prop_assert!(!contiguous || extents.len() == 1, "one run when required");
                for object in &live {
                    for a in object {
                        for b in &extents {
                            prop_assert!(!a.overlaps(b), "allocator handed out {b:?} twice");
                        }
                    }
                }
                let band = placement.primary_band(total, consumer);
                if let Some((lo, _)) = band.filter(|_| consumer.is_maintenance()) {
                    prop_assert!(
                        extents.iter().all(|e| e.start >= lo),
                        "maintenance extents {extents:?} below the band boundary {lo}"
                    );
                }
                if let Some(cap) = placement.run_cap(consumer) {
                    for e in &extents {
                        let run = runs_before.iter().find(|run| run.contains(e.start));
                        prop_assert!(
                            run.is_some_and(|run| run.len <= cap),
                            "{e:?} carved from {run:?}, longer than the watermark {cap}"
                        );
                    }
                }
                live.push(extents);
            }
            AllocOp::Free(index) => {
                if !live.is_empty() {
                    let object = live.swap_remove(index % live.len());
                    allocator
                        .free(&object)
                        .expect("freeing a live object must succeed");
                }
            }
        }
        let live_clusters: u64 = live.iter().map(|o| o.total_clusters()).sum();
        prop_assert_eq!(
            allocator.free_space().allocated_clusters(),
            live_clusters,
            "exact accounting"
        );
    }
    // Tear-down: freeing everything restores a fully free volume.
    for object in live.drain(..) {
        allocator.free(&object).expect("free at teardown");
    }
    prop_assert_eq!(allocator.free_space().free_clusters(), total);
    Ok(())
}

fn unplaced(policy: AllocationPolicy) -> SelectableAllocator {
    SelectableAllocator::new(policy, VOLUME)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn first_fit_invariants(ops in prop::collection::vec(arb_alloc_op(), 1..120)) {
        run_script(unplaced(AllocationPolicy::Fit(FitPolicy::FirstFit)), ops)?;
    }

    #[test]
    fn best_fit_invariants(ops in prop::collection::vec(arb_alloc_op(), 1..120)) {
        run_script(unplaced(AllocationPolicy::Fit(FitPolicy::BestFit)), ops)?;
    }

    #[test]
    fn worst_fit_invariants(ops in prop::collection::vec(arb_alloc_op(), 1..120)) {
        run_script(unplaced(AllocationPolicy::Fit(FitPolicy::WorstFit)), ops)?;
    }

    #[test]
    fn next_fit_invariants(ops in prop::collection::vec(arb_alloc_op(), 1..120)) {
        run_script(unplaced(AllocationPolicy::Fit(FitPolicy::NextFit)), ops)?;
    }

    #[test]
    fn run_cache_invariants(ops in prop::collection::vec(arb_alloc_op(), 1..120)) {
        run_script(unplaced(AllocationPolicy::Native), ops)?;
    }

    /// The type `Volume` embeds, under every allocation policy and every
    /// placement — the banded fit policies' foreground spill and the
    /// restricted maintenance consumer included.
    #[test]
    fn selectable_allocator_invariants(ops in prop::collection::vec(arb_alloc_op(), 1..120)) {
        for policy in AllocationPolicy::ALL {
            for placement in [
                PlacementPolicy::Unrestricted,
                PlacementPolicy::banded(0.9),
                PlacementPolicy::Reserve,
            ] {
                let allocator = SelectableAllocator::with_placement(policy, VOLUME, placement);
                run_script(allocator, ops.clone())?;
            }
        }
    }

    /// The fragmentation summary is scale-invariant in the obvious ways.
    #[test]
    fn fragmentation_summary_sanity(counts in prop::collection::vec(1u64..64, 1..100)) {
        let summary = FragmentationSummary::from_counts(&counts);
        prop_assert_eq!(summary.objects, counts.len());
        prop_assert!(summary.fragments_per_object >= summary.min_fragments as f64);
        prop_assert!(summary.fragments_per_object <= summary.max_fragments as f64);
        prop_assert!(summary.median_fragments >= summary.min_fragments as f64);
        prop_assert!(summary.median_fragments <= summary.max_fragments as f64);
        prop_assert!((0.0..=1.0).contains(&summary.contiguous_fraction));
    }
}
