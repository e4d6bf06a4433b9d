//! The NTFS-style run-cache allocation policy.
//!
//! The paper (Section 2) describes NTFS's file-data allocator as follows:
//!
//! > NTFS allocates space for file stream data from a run-based lookup cache.
//! > Runs of contiguous free clusters are ordered in decreasing size and
//! > volume offset.  NTFS attempts to satisfy a new space allocation from the
//! > outer band.  If that fails, large extents within the free space cache are
//! > used.  If that fails, the file is fragmented.
//!
//! [`RunCacheAllocator`] models exactly that pipeline:
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
//!
//! [`RunCacheAllocator::allocate_into`] is that pipeline; it appends to a
//! vector the caller owns, so a volume appending four write requests per
//! object reuses one buffer instead of allocating one per request.

use serde::{Deserialize, Serialize};

use crate::error::AllocError;
use crate::extent::Extent;
use crate::freespace::{FreeSpace, RunIndexMap};
use crate::policy::{AllocRequest, Allocator, Contiguity};

/// Fraction of the volume (measured from cluster 0) considered the "outer
/// band" that new allocations prefer.  NTFS favours outer tracks both because
/// they are faster and because metadata bands live there.
const OUTER_BAND_FRACTION: f64 = 0.35;

/// NTFS-like allocator (see module docs).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunCacheAllocator {
    map: RunIndexMap,
}

impl RunCacheAllocator {
    /// Creates an allocator over `total_clusters` fully free clusters.
    pub fn new(total_clusters: u64) -> Self {
        RunCacheAllocator {
            map: RunIndexMap::new_free(total_clusters),
        }
    }

    /// Read-only access to the underlying free-space map.
    pub fn free_space(&self) -> &RunIndexMap {
        &self.map
    }

    /// Marks a specific extent allocated, bypassing policy.  Used by the
    /// filesystem simulator to reserve metadata bands (the MFT zone) and by
    /// the pathological-fragmentation injector.
    pub fn reserve_exact(&mut self, extent: Extent) -> Result<(), AllocError> {
        self.map.reserve(extent)
    }

    /// Last cluster (exclusive) of the outer band.
    fn outer_band_end(&self) -> u64 {
        (self.map.total_clusters() as f64 * OUTER_BAND_FRACTION).round() as u64
    }

    /// Step 1: contiguous extension at the hint.
    fn try_extension(&self, hint: u64, len: u64) -> Option<Extent> {
        let run = self.map.run_at(hint)?;
        if run.start != hint {
            return None;
        }
        Some(Extent::new(hint, run.len.min(len)))
    }

    /// Step 2: lowest-offset run in the outer band that holds the whole
    /// request.
    fn try_outer_band(&self, len: u64) -> Option<Extent> {
        let run = self.map.first_fit(len, 0)?;
        if run.start < self.outer_band_end() {
            Some(Extent::new(run.start, len.min(run.len)))
        } else {
            None
        }
    }

    /// Step 3: the largest cached run, if it holds the whole request.
    fn try_large_extent(&self, len: u64) -> Option<Extent> {
        let run = self.map.largest()?;
        if run.len >= len {
            Some(Extent::new(run.start, len))
        } else {
            None
        }
    }

    /// Step 4: the largest remaining run, whatever its size.
    fn fragment_source(&self) -> Option<Extent> {
        self.map.largest().filter(|run| !run.is_empty())
    }

    /// Allocates space for `request`, appending the extents to `out` — the
    /// allocation routine ([`Allocator::allocate`] wraps it with a fresh
    /// vector).  On failure every cluster reserved so far is released and
    /// `out` is truncated back to the length it had on entry, so entries the
    /// caller pushed earlier survive untouched.
    pub fn allocate_into(
        &mut self,
        request: &AllocRequest,
        out: &mut Vec<Extent>,
    ) -> Result<(), AllocError> {
        if request.clusters == 0 {
            return Err(AllocError::EmptyRequest);
        }
        if request.clusters > self.map.free_clusters() {
            return Err(AllocError::OutOfSpace {
                requested: request.clusters,
                available: self.map.free_clusters(),
            });
        }
        if request.contiguity == Contiguity::Required
            && self.map.best_fit(request.clusters).is_none()
        {
            return Err(AllocError::NoContiguousRun {
                requested: request.clusters,
                largest_run: self.map.largest_free_run(),
            });
        }

        let base = out.len();
        let mut remaining = request.clusters;
        while remaining > 0 {
            let candidate = if out.len() == base {
                request
                    .hint
                    .and_then(|hint| self.try_extension(hint, remaining))
                    .or_else(|| self.try_outer_band(remaining))
                    .or_else(|| self.try_large_extent(remaining))
                    .or_else(|| self.fragment_source())
            } else {
                // Once fragmented, keep carving from the largest runs so the
                // pieces are as few and as large as possible.
                self.try_large_extent(remaining)
                    .or_else(|| self.fragment_source())
            };
            let Some(run) = candidate.filter(|run| !run.is_empty()) else {
                for extent in out.drain(base..) {
                    self.map
                        .release(extent)
                        .expect("rollback of freshly reserved extent");
                }
                return Err(AllocError::OutOfSpace {
                    requested: request.clusters,
                    available: self.map.free_clusters(),
                });
            };
            let take = Extent::new(run.start, run.len.min(remaining));
            self.map.reserve(take)?;
            remaining -= take.len;
            out.push(take);
        }
        Ok(())
    }
}

impl Allocator for RunCacheAllocator {
    fn allocate(&mut self, request: &AllocRequest) -> Result<Vec<Extent>, AllocError> {
        let mut out = Vec::new();
        self.allocate_into(request, &mut out)?;
        Ok(out)
    }

    fn free(&mut self, extents: &[Extent]) -> Result<(), AllocError> {
        for extent in extents {
            self.map.release(*extent)?;
        }
        Ok(())
    }

    fn total_clusters(&self) -> u64 {
        self.map.total_clusters()
    }

    fn free_clusters(&self) -> u64 {
        self.map.free_clusters()
    }

    fn free_runs(&self) -> Vec<Extent> {
        self.map.free_runs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extent::ExtentListExt;

    #[test]
    fn prefers_the_outer_band_on_a_clean_volume() {
        let mut allocator = RunCacheAllocator::new(10_000);
        let extents = allocator.allocate(&AllocRequest::best_effort(100)).unwrap();
        assert_eq!(extents, vec![Extent::new(0, 100)]);
    }

    #[test]
    fn extension_hint_keeps_appends_contiguous() {
        let mut allocator = RunCacheAllocator::new(10_000);
        let mut file: Vec<Extent> = allocator.allocate(&AllocRequest::best_effort(16)).unwrap();
        for _ in 0..15 {
            let hint = file.last().unwrap().end();
            let mut next = allocator
                .allocate(&AllocRequest::best_effort(16).with_hint(hint))
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
        let mut allocator = RunCacheAllocator::new(1_000);
        // Fill the outer band (first 350 clusters) completely.
        let outer_band = allocator.outer_band_end();
        assert_eq!(outer_band, 350);
        allocator.reserve_exact(Extent::new(0, outer_band)).unwrap();
        let extents = allocator.allocate(&AllocRequest::best_effort(50)).unwrap();
        assert_eq!(extents.len(), 1);
        assert!(
            extents[0].start >= outer_band,
            "must come from beyond the exhausted outer band"
        );
    }

    #[test]
    fn fragments_only_when_no_run_is_large_enough() {
        let mut allocator = RunCacheAllocator::new(1_000);
        // Carve the volume into free runs of at most 30 clusters.
        for start in (0..1_000).step_by(40) {
            allocator.reserve_exact(Extent::new(start, 10)).unwrap();
        }
        let extents = allocator.allocate(&AllocRequest::best_effort(100)).unwrap();
        assert_eq!(extents.total_clusters(), 100);
        assert!(extents.len() >= 4, "must fragment across 30-cluster holes");
        assert!(extents.is_disjoint());
        // Pieces are carved biggest-first, so each piece is at most 30.
        assert!(extents.iter().all(|e| e.len <= 30));
    }

    #[test]
    fn contiguous_requirement_is_honoured() {
        let mut allocator = RunCacheAllocator::new(100);
        for start in (0..100).step_by(20) {
            allocator.reserve_exact(Extent::new(start, 10)).unwrap();
        }
        assert!(matches!(
            allocator.allocate(&AllocRequest::contiguous(15)),
            Err(AllocError::NoContiguousRun { .. })
        ));
        assert!(allocator.allocate(&AllocRequest::contiguous(10)).is_ok());
    }

    #[test]
    fn accounting_matches_after_allocate_free_cycles() {
        let mut allocator = RunCacheAllocator::new(5_000);
        let mut live: Vec<Vec<Extent>> = Vec::new();
        for round in 0..50u64 {
            let extents = allocator
                .allocate(&AllocRequest::best_effort(17 + round % 13))
                .unwrap();
            live.push(extents);
            if round % 3 == 0 {
                let victim = live.swap_remove((round as usize * 7) % live.len());
                allocator.free(&victim).unwrap();
            }
        }
        let live_total: u64 = live.iter().map(|e| e.total_clusters()).sum();
        assert_eq!(allocator.allocated_clusters(), live_total);
        for object in live {
            allocator.free(&object).unwrap();
        }
        assert_eq!(allocator.free_clusters(), 5_000);
        assert_eq!(allocator.free_runs(), vec![Extent::new(0, 5_000)]);
    }

    #[test]
    fn out_of_space_is_reported_and_rolls_back() {
        let mut allocator = RunCacheAllocator::new(100);
        allocator.reserve_exact(Extent::new(0, 60)).unwrap();
        let before = allocator.free_runs();
        assert!(matches!(
            allocator.allocate(&AllocRequest::best_effort(50)),
            Err(AllocError::OutOfSpace {
                requested: 50,
                available: 40
            })
        ));
        assert_eq!(allocator.free_runs(), before);
    }
}
