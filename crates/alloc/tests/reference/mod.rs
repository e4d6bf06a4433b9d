//! Test-only reference model of the free-run index: the **two-B-tree** map
//! `RunIndexMap` was until it became a blocked run list — `by_offset` for
//! coalescing and position queries, `by_size` for every size question.
//!
//! Each query is the plainest expression of its contract over an ordered
//! set, tie-break included (`largest` = max `(len, start)`, `best_fit` = min
//! `(len, start)` with `len ≥ n`, `largest_run_at_most` = max `(len, start)`
//! with `len ≤ cap`, `first_fit` = lowest start), which is what
//! `differential.rs` holds the production map to, operation by operation.

use std::collections::{BTreeMap, BTreeSet};

use lor_alloc::{AllocError, Extent};

/// Free runs indexed by offset and by size.
#[derive(Debug, Clone)]
pub struct ReferenceMap {
    total: u64,
    free: u64,
    /// start -> len of every free run; runs never touch (always coalesced).
    by_offset: BTreeMap<u64, u64>,
    /// (len, start) of every free run, for size-ordered queries.
    by_size: BTreeSet<(u64, u64)>,
}

impl ReferenceMap {
    pub fn new_allocated(total_clusters: u64) -> Self {
        ReferenceMap {
            total: total_clusters,
            free: 0,
            by_offset: BTreeMap::new(),
            by_size: BTreeSet::new(),
        }
    }

    pub fn total_clusters(&self) -> u64 {
        self.total
    }

    pub fn free_clusters(&self) -> u64 {
        self.free
    }

    pub fn run_count(&self) -> usize {
        self.by_offset.len()
    }

    pub fn best_fit(&self, len: u64) -> Option<Extent> {
        self.by_size
            .range((len, 0)..)
            .next()
            .map(|&(run_len, start)| Extent::new(start, run_len))
    }

    pub fn first_fit(&self, len: u64, from: u64) -> Option<Extent> {
        self.by_offset
            .range(from..)
            .find(|(_, &run_len)| run_len >= len)
            .map(|(&start, &run_len)| Extent::new(start, run_len))
    }

    /// `first_fit`, then the bound — the shape `runcache::pick` had.
    pub fn first_fit_starting_in(&self, len: u64, from: u64, to: u64) -> Option<Extent> {
        self.first_fit(len, from).filter(|run| run.start < to)
    }

    pub fn run_lens_desc(&self) -> impl Iterator<Item = u64> + '_ {
        self.by_size.iter().rev().map(|&(len, _)| len)
    }

    pub fn largest(&self) -> Option<Extent> {
        self.by_size
            .iter()
            .next_back()
            .map(|&(run_len, start)| Extent::new(start, run_len))
    }

    pub fn largest_free_run(&self) -> u64 {
        self.largest().map_or(0, |run| run.len)
    }

    pub fn last_run(&self) -> Option<Extent> {
        self.by_offset
            .iter()
            .next_back()
            .map(|(&start, &len)| Extent::new(start, len))
    }

    pub fn run_at(&self, cluster: u64) -> Option<Extent> {
        self.by_offset
            .range(..=cluster)
            .next_back()
            .map(|(&start, &len)| Extent::new(start, len))
            .filter(|run| run.contains(cluster))
    }

    pub fn runs_in(&self, from: u64, to: u64) -> Vec<Extent> {
        self.by_offset
            .range(from..to)
            .map(|(&start, &len)| Extent::new(start, len))
            .collect()
    }

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

    pub fn first_fit_in(&self, len: u64, lo: u64, hi: u64) -> Option<Extent> {
        self.clipped_runs(lo, hi).find(|run| run.len >= len)
    }

    pub fn best_fit_in(&self, len: u64, lo: u64, hi: u64) -> Option<Extent> {
        self.clipped_runs(lo, hi)
            .filter(|run| run.len >= len)
            .min_by_key(|run| (run.len, run.start))
    }

    pub fn largest_run_in(&self, lo: u64, hi: u64) -> Option<Extent> {
        self.clipped_runs(lo, hi)
            .max_by_key(|run| (run.len, run.start))
    }

    pub fn largest_run_at_most(&self, max_len: u64) -> Option<Extent> {
        self.by_size
            .range(..=(max_len, u64::MAX))
            .next_back()
            .map(|&(run_len, start)| Extent::new(start, run_len))
    }

    fn remove_run(&mut self, start: u64, len: u64) {
        self.by_offset.remove(&start);
        self.by_size.remove(&(len, start));
    }

    fn insert_run(&mut self, start: u64, len: u64) {
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

    /// Frees `extent` and returns the coalesced free run now around it (the
    /// extent itself when it is empty).
    pub fn release(&mut self, extent: Extent) -> Result<Extent, AllocError> {
        if extent.is_empty() {
            return Ok(extent);
        }
        self.check_bounds(extent)?;
        let not_allocated = AllocError::NotAllocated {
            start: extent.start,
            len: extent.len,
        };
        let next = self
            .by_offset
            .range(extent.start..)
            .next()
            .map(|(&start, &len)| Extent::new(start, len));
        if next.is_some_and(|run| run.start < extent.end()) {
            return Err(not_allocated);
        }
        let prev = self
            .by_offset
            .range(..=extent.start)
            .next_back()
            .map(|(&start, &len)| Extent::new(start, len));
        if prev.is_some_and(|run| run.end() > extent.start) {
            return Err(not_allocated);
        }
        let mut merged = extent;
        if let Some(run) = next.filter(|run| run.start == extent.end()) {
            self.remove_run(run.start, run.len);
            merged.len += run.len;
        }
        if let Some(run) = prev.filter(|run| run.end() == extent.start) {
            self.remove_run(run.start, run.len);
            merged = Extent::new(run.start, run.len + merged.len);
        }
        self.insert_run(merged.start, merged.len);
        self.free += extent.len;
        Ok(merged)
    }

    pub fn reserve(&mut self, extent: Extent) -> Result<(), AllocError> {
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

    /// Reserves up to `max_len` clusters starting exactly at `cluster`.
    pub fn take_at(&mut self, cluster: u64, max_len: u64) -> Option<Extent> {
        let run = self.run_at(cluster)?;
        if max_len == 0 {
            return None;
        }
        let taken = Extent::new(cluster, (run.end() - cluster).min(max_len));
        self.reserve(taken).expect("inside a free run");
        Some(taken)
    }

    pub fn is_free(&self, extent: Extent) -> bool {
        if extent.is_empty() {
            return true;
        }
        if extent.end() > self.total {
            return false;
        }
        self.run_at(extent.start)
            .is_some_and(|run| run.end() >= extent.end())
    }

    pub fn free_runs(&self) -> Vec<Extent> {
        self.by_offset
            .iter()
            .map(|(&start, &len)| Extent::new(start, len))
            .collect()
    }
}
