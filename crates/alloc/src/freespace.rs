//! Free-space bookkeeping.
//!
//! Two implementations of the same [`FreeSpace`] interface are provided:
//!
//! * [`RunIndexMap`] — the production structure: free runs indexed both by
//!   start offset (for coalescing and first-fit scans) and by length (for
//!   best-fit / largest-run queries).  Memory is proportional to the number of
//!   free runs, i.e. to fragmentation, not to volume size, so 400 GB volumes
//!   are cheap to model.  Every substrate frees through its `release`, which
//!   probes the offset index once each way and grows an adjacent predecessor
//!   in place — an aged volume holds tens of thousands of runs between
//!   checkpoints and releases a few per replaced object.
//! * [`BitmapMap`] — a straightforward cluster bitmap used for small volumes
//!   and, above all, as an oracle in property tests that cross-validate the
//!   run-indexed structure.

use std::collections::{BTreeMap, BTreeSet};

use serde::{Deserialize, Serialize};

use crate::error::AllocError;
use crate::extent::Extent;

/// Interface shared by free-space structures.
///
/// A free-space map knows which clusters are free; it does not choose where to
/// allocate — that is the policy's job (see [`crate::FitPolicy`]).
pub trait FreeSpace {
    /// Total clusters managed by the map.
    fn total_clusters(&self) -> u64;
    /// Clusters currently free.
    fn free_clusters(&self) -> u64;
    /// Marks a range free.  Fails if any part is already free or out of
    /// bounds.
    fn release(&mut self, extent: Extent) -> Result<(), AllocError>;
    /// Marks a specific range allocated.  Fails unless the entire range is
    /// currently free.
    fn reserve(&mut self, extent: Extent) -> Result<(), AllocError>;
    /// `true` if the entire range is currently free.
    fn is_free(&self, extent: Extent) -> bool;
    /// All free runs in ascending offset order, maximally coalesced.
    fn free_runs(&self) -> Vec<Extent>;

    /// Clusters currently allocated.
    fn allocated_clusters(&self) -> u64 {
        self.total_clusters() - self.free_clusters()
    }

    /// Length of the largest free run (0 when nothing is free).
    fn largest_free_run(&self) -> u64 {
        self.free_runs().iter().map(|e| e.len).max().unwrap_or(0)
    }
}

/// Free runs indexed by offset and by size.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct RunIndexMap {
    total: u64,
    free: u64,
    /// start -> len of every free run; runs never touch (always coalesced).
    by_offset: BTreeMap<u64, u64>,
    /// (len, start) of every free run, for size-ordered queries.
    by_size: BTreeSet<(u64, u64)>,
}

impl RunIndexMap {
    /// Creates a map in which every cluster is free.
    pub fn new_free(total_clusters: u64) -> Self {
        let mut map = RunIndexMap {
            total: total_clusters,
            free: total_clusters,
            by_offset: BTreeMap::new(),
            by_size: BTreeSet::new(),
        };
        if total_clusters > 0 {
            map.by_offset.insert(0, total_clusters);
            map.by_size.insert((total_clusters, 0));
        }
        map
    }

    /// Creates a map in which every cluster is allocated.
    pub fn new_allocated(total_clusters: u64) -> Self {
        RunIndexMap {
            total: total_clusters,
            free: 0,
            by_offset: BTreeMap::new(),
            by_size: BTreeSet::new(),
        }
    }

    /// Number of free runs currently tracked.
    pub fn run_count(&self) -> usize {
        self.by_offset.len()
    }

    /// The smallest free run of at least `len` clusters; ties broken by the
    /// lowest start offset.
    pub fn best_fit(&self, len: u64) -> Option<Extent> {
        self.by_size
            .range((len, 0)..)
            .next()
            .map(|&(run_len, start)| Extent::new(start, run_len))
    }

    /// The lowest-offset free run of at least `len` clusters whose start is at
    /// or after `from`.
    pub fn first_fit(&self, len: u64, from: u64) -> Option<Extent> {
        self.by_offset
            .range(from..)
            .find(|(_, &run_len)| run_len >= len)
            .map(|(&start, &run_len)| Extent::new(start, run_len))
    }

    /// Lengths of every free run, largest first.
    ///
    /// This is the read-only view a largest-first allocation *planner* needs:
    /// since taking one run never changes any other run's length, the number
    /// of runs a largest-first allocator would consume for `n` clusters is
    /// exactly the shortest prefix of this sequence summing to at least `n` —
    /// computable without touching the map.
    pub fn run_lens_desc(&self) -> impl Iterator<Item = u64> + '_ {
        self.by_size.iter().rev().map(|&(len, _)| len)
    }

    /// The largest free run; ties broken by the highest start offset (which is
    /// irrelevant to callers — they only need *a* largest run).
    pub fn largest(&self) -> Option<Extent> {
        self.by_size
            .iter()
            .next_back()
            .map(|&(run_len, start)| Extent::new(start, run_len))
    }

    /// The highest-offset free run.  Used for allocations that grow from the
    /// back of the space (e.g. metadata pages kept away from object data).
    pub fn last_run(&self) -> Option<Extent> {
        self.by_offset
            .iter()
            .next_back()
            .map(|(&start, &len)| Extent::new(start, len))
    }

    /// The free run containing or starting at `cluster`, if `cluster` is free.
    pub fn run_at(&self, cluster: u64) -> Option<Extent> {
        self.by_offset
            .range(..=cluster)
            .next_back()
            .map(|(&start, &len)| Extent::new(start, len))
            .filter(|run| run.contains(cluster))
    }

    /// Free runs whose start lies in `[from, to)`, ascending by offset.
    pub fn runs_in(&self, from: u64, to: u64) -> Vec<Extent> {
        self.by_offset
            .range(from..to)
            .map(|(&start, &len)| Extent::new(start, len))
            .collect()
    }

    /// Free runs **clipped** to the band `[lo, hi)`, ascending by offset: a
    /// run straddling a band edge contributes exactly the portion inside the
    /// band.  This is the primitive behind the band-filtered placement
    /// queries — a clipped run is always reservable, so a placement-aware
    /// consumer can take the in-band part of a straddling run without
    /// touching the part that belongs to the other band.
    fn clipped_runs(&self, lo: u64, hi: u64) -> impl Iterator<Item = Extent> + '_ {
        let head = self
            .by_offset
            .range(..lo)
            .next_back()
            .map(|(&start, &len)| Extent::new(start, len))
            .filter(|run| run.end() > lo);
        head.into_iter()
            .chain(
                self.by_offset
                    .range(lo..hi)
                    .map(|(&start, &len)| Extent::new(start, len)),
            )
            .filter_map(move |run| {
                let start = run.start.max(lo);
                let end = run.end().min(hi);
                (end > start).then(|| Extent::new(start, end - start))
            })
    }

    /// The lowest-offset free run of at least `len` clusters inside the band
    /// `[lo, hi)` (runs clipped to the band).
    pub fn first_fit_in(&self, len: u64, lo: u64, hi: u64) -> Option<Extent> {
        self.clipped_runs(lo, hi).find(|run| run.len >= len)
    }

    /// The smallest free run of at least `len` clusters inside the band
    /// `[lo, hi)`; ties broken by the lowest start offset.
    pub fn best_fit_in(&self, len: u64, lo: u64, hi: u64) -> Option<Extent> {
        self.clipped_runs(lo, hi)
            .filter(|run| run.len >= len)
            .min_by_key(|run| (run.len, run.start))
    }

    /// The largest free run inside the band `[lo, hi)` (runs clipped to the
    /// band); ties broken by the highest start offset, matching
    /// [`RunIndexMap::largest`].
    pub fn largest_run_in(&self, lo: u64, hi: u64) -> Option<Extent> {
        self.clipped_runs(lo, hi)
            .max_by_key(|run| (run.len, run.start))
    }

    /// The largest free run of at most `max_len` clusters — the query behind
    /// the `Reserve` placement variant, under which maintenance must leave
    /// every run longer than the foreground watermark untouched.  Runs are
    /// *not* clipped: a long run is reserved in its entirety, not nibbled
    /// down to the cap.
    pub fn largest_run_at_most(&self, max_len: u64) -> Option<Extent> {
        self.by_size
            .range(..=(max_len, u64::MAX))
            .next_back()
            .map(|&(run_len, start)| Extent::new(start, run_len))
    }

    /// Internal: remove a run from both indexes.
    fn remove_run(&mut self, start: u64, len: u64) {
        self.by_offset.remove(&start);
        self.by_size.remove(&(len, start));
    }

    /// Internal: insert a run into both indexes (caller guarantees no overlap
    /// and no adjacency with existing runs).
    fn insert_run(&mut self, start: u64, len: u64) {
        debug_assert!(len > 0);
        self.by_offset.insert(start, len);
        self.by_size.insert((len, start));
    }

    fn check_bounds(&self, extent: Extent) -> Result<(), AllocError> {
        if extent.end() > self.total {
            Err(AllocError::OutOfBounds {
                start: extent.start,
                len: extent.len,
                total: self.total,
            })
        } else {
            Ok(())
        }
    }
}

impl FreeSpace for RunIndexMap {
    fn total_clusters(&self) -> u64 {
        self.total
    }

    fn free_clusters(&self) -> u64 {
        self.free
    }

    fn release(&mut self, extent: Extent) -> Result<(), AllocError> {
        if extent.is_empty() {
            return Ok(());
        }
        self.check_bounds(extent)?;
        let not_allocated = AllocError::NotAllocated {
            start: extent.start,
            len: extent.len,
        };
        // One probe each way, every check before any mutation: the first
        // free run at or after `start` must not begin inside the extent and
        // the last one at or before `start` must not reach into it.  (A run
        // beginning exactly at `start` is caught by the forward probe.)
        let next = self
            .by_offset
            .range(extent.start..)
            .next()
            .map(|(&start, &len)| Extent::new(start, len));
        if next.is_some_and(|run| run.start < extent.end()) {
            return Err(not_allocated);
        }
        let absorbed = next.filter(|run| run.start == extent.end());
        let grown = extent.len + absorbed.map_or(0, |run| run.len);

        // An adjacent predecessor grows in place in the offset index; only
        // its size-index entry is re-keyed.
        let mut merged = None;
        if let Some((&prev_start, prev_len)) = self.by_offset.range_mut(..=extent.start).next_back()
        {
            let prev_end = prev_start + *prev_len;
            if prev_end > extent.start {
                return Err(not_allocated);
            }
            if prev_end == extent.start {
                merged = Some((prev_start, *prev_len));
                *prev_len += grown;
            }
        }
        if let Some(run) = absorbed {
            self.remove_run(run.start, run.len);
        }
        match merged {
            Some((start, old_len)) => {
                self.by_size.remove(&(old_len, start));
                self.by_size.insert((old_len + grown, start));
            }
            None => self.insert_run(extent.start, grown),
        }
        self.free += extent.len;
        Ok(())
    }

    fn reserve(&mut self, extent: Extent) -> Result<(), AllocError> {
        if extent.is_empty() {
            return Ok(());
        }
        self.check_bounds(extent)?;
        let run = self
            .run_at(extent.start)
            .filter(|run| run.end() >= extent.end())
            .ok_or(AllocError::NotAllocated {
                start: extent.start,
                len: extent.len,
            })?;

        self.remove_run(run.start, run.len);
        if run.start < extent.start {
            self.insert_run(run.start, extent.start - run.start);
        }
        if extent.end() < run.end() {
            self.insert_run(extent.end(), run.end() - extent.end());
        }
        self.free -= extent.len;
        Ok(())
    }

    fn is_free(&self, extent: Extent) -> bool {
        if extent.is_empty() {
            return true;
        }
        if extent.end() > self.total {
            return false;
        }
        self.run_at(extent.start)
            .map(|run| run.end() >= extent.end())
            .unwrap_or(false)
    }

    fn free_runs(&self) -> Vec<Extent> {
        self.by_offset
            .iter()
            .map(|(&start, &len)| Extent::new(start, len))
            .collect()
    }

    /// O(1) via the size index — the trait default materializes every run.
    fn largest_free_run(&self) -> u64 {
        self.by_size
            .iter()
            .next_back()
            .map(|&(len, _)| len)
            .unwrap_or(0)
    }
}

/// Cluster bitmap: simple, exhaustive, O(volume) memory.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BitmapMap {
    /// `true` means the cluster is free.
    bits: Vec<bool>,
    free: u64,
}

impl BitmapMap {
    /// Creates a bitmap in which every cluster is free.
    pub fn new_free(total_clusters: u64) -> Self {
        BitmapMap {
            bits: vec![true; total_clusters as usize],
            free: total_clusters,
        }
    }

    /// Creates a bitmap in which every cluster is allocated.
    pub fn new_allocated(total_clusters: u64) -> Self {
        BitmapMap {
            bits: vec![false; total_clusters as usize],
            free: 0,
        }
    }
}

impl FreeSpace for BitmapMap {
    fn total_clusters(&self) -> u64 {
        self.bits.len() as u64
    }

    fn free_clusters(&self) -> u64 {
        self.free
    }

    fn release(&mut self, extent: Extent) -> Result<(), AllocError> {
        if extent.is_empty() {
            return Ok(());
        }
        if extent.end() > self.total_clusters() {
            return Err(AllocError::OutOfBounds {
                start: extent.start,
                len: extent.len,
                total: self.total_clusters(),
            });
        }
        let range = extent.start as usize..extent.end() as usize;
        if self.bits[range.clone()].iter().any(|&free| free) {
            return Err(AllocError::NotAllocated {
                start: extent.start,
                len: extent.len,
            });
        }
        for bit in &mut self.bits[range] {
            *bit = true;
        }
        self.free += extent.len;
        Ok(())
    }

    fn reserve(&mut self, extent: Extent) -> Result<(), AllocError> {
        if extent.is_empty() {
            return Ok(());
        }
        if extent.end() > self.total_clusters() {
            return Err(AllocError::OutOfBounds {
                start: extent.start,
                len: extent.len,
                total: self.total_clusters(),
            });
        }
        let range = extent.start as usize..extent.end() as usize;
        if self.bits[range.clone()].iter().any(|&free| !free) {
            return Err(AllocError::NotAllocated {
                start: extent.start,
                len: extent.len,
            });
        }
        for bit in &mut self.bits[range] {
            *bit = false;
        }
        self.free -= extent.len;
        Ok(())
    }

    fn is_free(&self, extent: Extent) -> bool {
        if extent.is_empty() {
            return true;
        }
        if extent.end() > self.total_clusters() {
            return false;
        }
        self.bits[extent.start as usize..extent.end() as usize]
            .iter()
            .all(|&free| free)
    }

    fn free_runs(&self) -> Vec<Extent> {
        let mut runs = Vec::new();
        let mut current: Option<Extent> = None;
        for (index, &free) in self.bits.iter().enumerate() {
            match (free, current.as_mut()) {
                (true, Some(run)) => run.len += 1,
                (true, None) => current = Some(Extent::new(index as u64, 1)),
                (false, Some(_)) => runs.push(current.take().expect("run in progress")),
                (false, None) => {}
            }
        }
        if let Some(run) = current {
            runs.push(run);
        }
        runs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn both(total: u64) -> (RunIndexMap, BitmapMap) {
        (RunIndexMap::new_free(total), BitmapMap::new_free(total))
    }

    #[test]
    fn new_free_and_new_allocated() {
        let map = RunIndexMap::new_free(100);
        assert_eq!(map.free_clusters(), 100);
        assert_eq!(map.free_runs(), vec![Extent::new(0, 100)]);
        let map = RunIndexMap::new_allocated(100);
        assert_eq!(map.free_clusters(), 0);
        assert!(map.free_runs().is_empty());
        assert_eq!(map.allocated_clusters(), 100);
    }

    #[test]
    fn reserve_splits_runs() {
        let (mut runs, mut bitmap) = both(100);
        for map in [
            &mut runs as &mut dyn FreeSpace,
            &mut bitmap as &mut dyn FreeSpace,
        ] {
            map.reserve(Extent::new(10, 20)).unwrap();
            assert_eq!(map.free_clusters(), 80);
            assert!(!map.is_free(Extent::new(10, 1)));
            assert!(map.is_free(Extent::new(0, 10)));
            assert!(map.is_free(Extent::new(30, 70)));
            assert_eq!(
                map.free_runs(),
                vec![Extent::new(0, 10), Extent::new(30, 70)]
            );
        }
    }

    #[test]
    fn release_coalesces_neighbours() {
        let (mut runs, mut bitmap) = both(100);
        for map in [
            &mut runs as &mut dyn FreeSpace,
            &mut bitmap as &mut dyn FreeSpace,
        ] {
            map.reserve(Extent::new(0, 100)).unwrap();
            map.release(Extent::new(10, 10)).unwrap();
            map.release(Extent::new(30, 10)).unwrap();
            // Bridge the gap: the three runs must merge into one.
            map.release(Extent::new(20, 10)).unwrap();
            assert_eq!(map.free_runs(), vec![Extent::new(10, 30)]);
            assert_eq!(map.free_clusters(), 30);
        }
    }

    #[test]
    fn double_free_and_double_reserve_are_rejected() {
        let (mut runs, mut bitmap) = both(50);
        for map in [
            &mut runs as &mut dyn FreeSpace,
            &mut bitmap as &mut dyn FreeSpace,
        ] {
            map.reserve(Extent::new(0, 10)).unwrap();
            assert!(
                map.reserve(Extent::new(5, 10)).is_err(),
                "partially allocated"
            );
            assert!(
                map.release(Extent::new(20, 5)).is_err(),
                "freeing free space"
            );
            map.release(Extent::new(0, 10)).unwrap();
            assert!(map.release(Extent::new(0, 10)).is_err(), "double free");
        }
    }

    #[test]
    fn out_of_bounds_is_rejected() {
        let (mut runs, mut bitmap) = both(50);
        for map in [
            &mut runs as &mut dyn FreeSpace,
            &mut bitmap as &mut dyn FreeSpace,
        ] {
            assert!(matches!(
                map.reserve(Extent::new(45, 10)),
                Err(AllocError::OutOfBounds { .. })
            ));
            assert!(!map.is_free(Extent::new(45, 10)));
        }
    }

    #[test]
    fn empty_extents_are_no_ops() {
        let (mut runs, mut bitmap) = both(50);
        for map in [
            &mut runs as &mut dyn FreeSpace,
            &mut bitmap as &mut dyn FreeSpace,
        ] {
            map.reserve(Extent::new(10, 0)).unwrap();
            map.release(Extent::new(10, 0)).unwrap();
            assert_eq!(map.free_clusters(), 50);
            assert!(map.is_free(Extent::new(10, 0)));
        }
    }

    #[test]
    fn fit_queries() {
        let mut map = RunIndexMap::new_free(100);
        map.reserve(Extent::new(0, 10)).unwrap(); // free: [10..100)
        map.reserve(Extent::new(20, 10)).unwrap(); // free: [10..20), [30..100)
        map.reserve(Extent::new(90, 10)).unwrap(); // free: [10..20), [30..90)

        assert_eq!(map.best_fit(5), Some(Extent::new(10, 10)));
        assert_eq!(map.best_fit(11), Some(Extent::new(30, 60)));
        assert_eq!(map.best_fit(61), None);
        assert_eq!(map.first_fit(5, 0), Some(Extent::new(10, 10)));
        assert_eq!(map.first_fit(5, 15), Some(Extent::new(30, 60)));
        assert_eq!(map.largest(), Some(Extent::new(30, 60)));
        assert_eq!(map.largest_free_run(), 60);
        assert_eq!(map.run_count(), 2);
        assert_eq!(map.run_at(35), Some(Extent::new(30, 60)));
        assert_eq!(map.run_at(25), None);
        assert_eq!(map.runs_in(0, 25), vec![Extent::new(10, 10)]);
    }

    #[test]
    fn band_filtered_queries_clip_straddling_runs() {
        let mut map = RunIndexMap::new_free(100);
        map.reserve(Extent::new(0, 10)).unwrap(); // free: [10..100)
        map.reserve(Extent::new(20, 10)).unwrap(); // free: [10..20), [30..100)
        map.reserve(Extent::new(90, 10)).unwrap(); // free: [10..20), [30..90)

        // The [30..90) run straddles a boundary at 50: each band sees its
        // clipped half.
        assert_eq!(map.largest_run_in(0, 50), Some(Extent::new(30, 20)));
        assert_eq!(map.largest_run_in(50, 100), Some(Extent::new(50, 40)));
        assert_eq!(map.first_fit_in(5, 0, 50), Some(Extent::new(10, 10)));
        assert_eq!(map.first_fit_in(15, 0, 50), Some(Extent::new(30, 20)));
        assert_eq!(map.first_fit_in(25, 0, 50), None);
        assert_eq!(map.first_fit_in(25, 50, 100), Some(Extent::new(50, 40)));
        // Best fit inside the low band prefers the snug [10..20) hole.
        assert_eq!(map.best_fit_in(8, 0, 50), Some(Extent::new(10, 10)));
        // An empty band sees nothing.
        assert_eq!(map.largest_run_in(20, 30), None);
        assert_eq!(map.first_fit_in(1, 20, 30), None);
    }

    #[test]
    fn largest_run_at_most_respects_the_cap() {
        let mut map = RunIndexMap::new_free(100);
        map.reserve(Extent::new(0, 10)).unwrap();
        map.reserve(Extent::new(20, 10)).unwrap(); // free: [10..20), [30..100)
        assert_eq!(map.largest_run_at_most(100), Some(Extent::new(30, 70)));
        assert_eq!(map.largest_run_at_most(69), Some(Extent::new(10, 10)));
        assert_eq!(map.largest_run_at_most(10), Some(Extent::new(10, 10)));
        assert_eq!(map.largest_run_at_most(9), None);
    }

    #[test]
    fn run_index_and_bitmap_agree_on_a_scenario() {
        let (mut runs, mut bitmap) = both(200);
        let script = [
            (true, Extent::new(0, 64)),
            (true, Extent::new(64, 64)),
            (false, Extent::new(16, 32)),
            (true, Extent::new(16, 8)),
            (false, Extent::new(100, 28)),
            (true, Extent::new(150, 25)),
            (true, Extent::new(24, 24)),
        ];
        for (reserve, extent) in script {
            if reserve {
                runs.reserve(extent).unwrap();
                bitmap.reserve(extent).unwrap();
            } else {
                runs.release(extent).unwrap();
                bitmap.release(extent).unwrap();
            }
            assert_eq!(runs.free_runs(), bitmap.free_runs());
            assert_eq!(runs.free_clusters(), bitmap.free_clusters());
        }
    }
}
