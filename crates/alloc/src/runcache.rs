//! The NTFS-style run-cache pick strategy.
//!
//! The paper (Section 2) describes NTFS's file-data allocator as follows:
//!
//! > NTFS allocates space for file stream data from a run-based lookup cache.
//! > Runs of contiguous free clusters are ordered in decreasing size and
//! > volume offset.  NTFS attempts to satisfy a new space allocation from the
//! > outer band.  If that fails, large extents within the free space cache are
//! > used.  If that fails, the file is fragmented.
//!
//! That is a *pick order* over one run cache, and it is all this module
//! holds; [`crate::SelectableAllocator`] owns the loop that carves the picked
//! runs (and, being common to every strategy, the first step):
//!
//! 1. **Extension** — if the caller provides a hint (the cluster right after
//!    the file's current last extent) and that cluster begins a free run, the
//!    allocation continues the file contiguously.  This models NTFS
//!    "aggressively attempting to allocate contiguous space when sequential
//!    appends are detected" (Section 5.4).
//! 2. **Outer band** — the lowest-offset free run within the outer band that
//!    can hold the entire request.
//! 3. **Large cached extents** — the largest free run on the volume, if it can
//!    hold the entire request.
//! 4. **Fragmentation** — otherwise the request is split across the largest
//!    remaining runs, biggest first.

use crate::extent::Extent;
use crate::freespace::{FreeSpace, RunIndexMap};

/// Fraction of the volume (measured from cluster 0) considered the "outer
/// band" that new allocations prefer.  NTFS favours outer tracks both because
/// they are faster and because metadata bands live there.
const OUTER_BAND_FRACTION: f64 = 0.35;

/// Last cluster (exclusive) of the outer band of a `total_clusters` volume.
fn outer_band_end(total_clusters: u64) -> u64 {
    (total_clusters as f64 * OUTER_BAND_FRACTION).round() as u64
}

/// Steps 2–4: the run the next piece of a request still missing `len`
/// clusters is carved from.  Only the first piece tries the outer band; once
/// fragmented, the pieces should be as few and as large as possible.  Steps 3
/// and 4 are the same run — the largest either holds all of `len` or is the
/// biggest piece on offer — and the carve loop clips it to `len`.
pub(crate) fn pick(map: &RunIndexMap, first_carve: bool, len: u64) -> Option<Extent> {
    let outer = if first_carve {
        map.first_fit_starting_in(len, 0, outer_band_end(map.total_clusters()))
    } else {
        None
    };
    outer.or_else(|| map.largest())
}

#[cfg(test)]
mod tests {
    //! The run cache as the native strategy of the one allocator.

    use super::*;
    use crate::error::AllocError;
    use crate::extent::ExtentListExt;
    use crate::placement::PlacementConsumer::Foreground;
    use crate::policy::{AllocRequest, AllocationPolicy};
    use crate::select::SelectableAllocator;

    fn run_cache(total_clusters: u64) -> SelectableAllocator {
        SelectableAllocator::new(AllocationPolicy::Native, total_clusters)
    }

    #[test]
    fn prefers_the_outer_band_on_a_clean_volume() {
        let mut allocator = run_cache(10_000);
        let extents = allocator
            .allocate_as(&AllocRequest::best_effort(100), Foreground)
            .unwrap();
        assert_eq!(extents, vec![Extent::new(0, 100)]);
    }

    #[test]
    fn extension_hint_keeps_appends_contiguous() {
        let mut allocator = run_cache(10_000);
        let mut file: Vec<Extent> = allocator
            .allocate_as(&AllocRequest::best_effort(16), Foreground)
            .unwrap();
        for _ in 0..15 {
            let hint = file.last().unwrap().end();
            let mut next = allocator
                .allocate_as(&AllocRequest::best_effort(16).with_hint(hint), Foreground)
                .unwrap();
            file.append(&mut next);
        }
        assert_eq!(file.total_clusters(), 256);
        assert_eq!(
            file.fragment_count(),
            1,
            "sequential appends must stay contiguous"
        );
    }

    #[test]
    fn falls_back_to_large_extents_outside_the_outer_band() {
        let mut allocator = run_cache(1_000);
        // Fill the outer band (first 350 clusters) completely.
        let outer_band = outer_band_end(1_000);
        assert_eq!(outer_band, 350);
        allocator.reserve_exact(Extent::new(0, outer_band)).unwrap();
        let extents = allocator
            .allocate_as(&AllocRequest::best_effort(50), Foreground)
            .unwrap();
        assert_eq!(extents.len(), 1);
        assert!(
            extents[0].start >= outer_band,
            "must come from beyond the exhausted outer band"
        );
    }

    /// The outer-band step stops at the band end: a fitting run past it is
    /// no outer-band pick, so the request goes to the largest run instead of
    /// the lowest fitting one.
    #[test]
    fn a_fitting_run_past_the_outer_band_is_not_an_outer_band_pick() {
        let mut map = RunIndexMap::new_allocated(1_000);
        assert_eq!(outer_band_end(1_000), 350);
        for run in [
            Extent::new(10, 10),
            Extent::new(349, 20),
            Extent::new(400, 50),
            Extent::new(600, 100),
        ] {
            map.release(run).unwrap();
        }
        // Inside the band the lowest fitting run wins, even one that starts
        // on the band's last cluster and extends past it.
        assert_eq!(pick(&map, true, 8), Some(Extent::new(10, 10)));
        assert_eq!(pick(&map, true, 15), Some(Extent::new(349, 20)));
        // [400, 450) is the lowest run holding 30 clusters, but it starts
        // past the band.
        assert_eq!(map.first_fit(30, 0), Some(Extent::new(400, 50)));
        assert_eq!(pick(&map, true, 30), Some(Extent::new(600, 100)));
        // The only fitting run lies past the band.
        assert_eq!(pick(&map, true, 60), Some(Extent::new(600, 100)));
        // Later pieces never try the band.
        assert_eq!(pick(&map, false, 8), Some(Extent::new(600, 100)));
    }

    #[test]
    fn fragments_only_when_no_run_is_large_enough() {
        let mut allocator = run_cache(1_000);
        // Carve the volume into free runs of at most 30 clusters.
        for start in (0..1_000).step_by(40) {
            allocator.reserve_exact(Extent::new(start, 10)).unwrap();
        }
        let extents = allocator
            .allocate_as(&AllocRequest::best_effort(100), Foreground)
            .unwrap();
        assert_eq!(extents.total_clusters(), 100);
        assert!(extents.len() >= 4, "must fragment across 30-cluster holes");
        assert!(extents.is_disjoint());
        // Pieces are carved biggest-first, so each piece is at most 30.
        assert!(extents.iter().all(|e| e.len <= 30));
    }

    #[test]
    fn contiguous_requirement_is_honoured() {
        let mut allocator = run_cache(100);
        for start in (0..100).step_by(20) {
            allocator.reserve_exact(Extent::new(start, 10)).unwrap();
        }
        assert!(matches!(
            allocator.allocate_as(&AllocRequest::contiguous(15), Foreground),
            Err(AllocError::NoContiguousRun { .. })
        ));
        assert!(allocator
            .allocate_as(&AllocRequest::contiguous(10), Foreground)
            .is_ok());
    }

    #[test]
    fn accounting_matches_after_allocate_free_cycles() {
        let mut allocator = run_cache(5_000);
        let mut live: Vec<Vec<Extent>> = Vec::new();
        for round in 0..50u64 {
            let extents = allocator
                .allocate_as(&AllocRequest::best_effort(17 + round % 13), Foreground)
                .unwrap();
            live.push(extents);
            if round % 3 == 0 {
                let victim = live.swap_remove((round as usize * 7) % live.len());
                allocator.free(&victim).unwrap();
            }
        }
        let live_total: u64 = live.iter().map(|e| e.total_clusters()).sum();
        assert_eq!(allocator.free_space().allocated_clusters(), live_total);
        for object in live {
            allocator.free(&object).unwrap();
        }
        assert_eq!(allocator.free_space().free_clusters(), 5_000);
        assert_eq!(
            allocator.free_space().free_runs(),
            vec![Extent::new(0, 5_000)]
        );
    }

    #[test]
    fn out_of_space_is_reported_and_rolls_back() {
        let mut allocator = run_cache(100);
        allocator.reserve_exact(Extent::new(0, 60)).unwrap();
        let before = allocator.free_space().free_runs();
        assert!(matches!(
            allocator.allocate_as(&AllocRequest::best_effort(50), Foreground),
            Err(AllocError::OutOfSpace {
                requested: 50,
                available: 40
            })
        ));
        assert_eq!(allocator.free_space().free_runs(), before);
    }
}
