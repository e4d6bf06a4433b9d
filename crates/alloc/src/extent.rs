//! Extents: contiguous runs of clusters.
//!
//! Every allocator in this crate hands out space as a list of [`Extent`]s.
//! Cluster size is a property of the volume built on top of the allocator;
//! within this crate all lengths and offsets are in clusters.

use serde::{Deserialize, Serialize};

/// A contiguous run of clusters `[start, start + len)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Extent {
    /// First cluster of the run.
    pub start: u64,
    /// Number of clusters in the run.
    pub len: u64,
}

impl Extent {
    /// Creates an extent covering `len` clusters starting at `start`.
    pub const fn new(start: u64, len: u64) -> Self {
        Extent { start, len }
    }

    /// Cluster one past the end of the extent.
    pub const fn end(&self) -> u64 {
        self.start + self.len
    }

    /// `true` if the extent covers no clusters.
    pub const fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// `true` if `cluster` lies within the extent.
    pub const fn contains(&self, cluster: u64) -> bool {
        cluster >= self.start && cluster < self.end()
    }

    /// `true` if the two extents share at least one cluster.
    pub const fn overlaps(&self, other: &Extent) -> bool {
        self.start < other.end() && other.start < self.end()
    }

    /// `true` if `other` begins exactly where `self` ends.
    pub const fn is_followed_by(&self, other: &Extent) -> bool {
        self.end() == other.start
    }

    /// Splits the extent into a prefix of `prefix_len` clusters and the
    /// remainder.  Returns `None` if `prefix_len` is zero or not smaller than
    /// the extent length.
    pub fn split_at(&self, prefix_len: u64) -> Option<(Extent, Extent)> {
        if prefix_len == 0 || prefix_len >= self.len {
            return None;
        }
        Some((
            Extent::new(self.start, prefix_len),
            Extent::new(self.start + prefix_len, self.len - prefix_len),
        ))
    }

    /// Takes up to `want` clusters from the front of the extent, returning the
    /// taken prefix and the (possibly empty) remainder.
    pub fn take(&self, want: u64) -> (Extent, Extent) {
        let taken = want.min(self.len);
        (
            Extent::new(self.start, taken),
            Extent::new(self.start + taken, self.len - taken),
        )
    }
}

/// Helpers over ordered lists of extents, as stored in file records and BLOB
/// fragment trees.
pub trait ExtentListExt {
    /// Total number of clusters covered.
    fn total_clusters(&self) -> u64;
    /// Number of physically discontiguous fragments (adjacent extents in
    /// logical order that are also adjacent on disk count as one fragment).
    fn fragment_count(&self) -> usize;
    /// Returns a copy with physically adjacent extents merged (logical order
    /// is preserved; only forward-adjacent neighbours merge).
    fn coalesced(&self) -> Vec<Extent>;
    /// `true` if no two extents overlap (regardless of order).
    fn is_disjoint(&self) -> bool;
}

impl ExtentListExt for [Extent] {
    fn total_clusters(&self) -> u64 {
        self.iter().map(|e| e.len).sum()
    }

    fn fragment_count(&self) -> usize {
        // `coalesced().len()` without building the list: a fragment starts
        // wherever a non-empty extent does not begin at its predecessor's end.
        let mut count = 0;
        let mut run_end = None;
        for extent in self.iter().filter(|e| !e.is_empty()) {
            if run_end != Some(extent.start) {
                count += 1;
            }
            run_end = Some(extent.end());
        }
        count
    }

    fn coalesced(&self) -> Vec<Extent> {
        let mut out: Vec<Extent> = Vec::with_capacity(self.len());
        for extent in self.iter().filter(|e| !e.is_empty()) {
            match out.last_mut() {
                Some(last) if last.is_followed_by(extent) => last.len += extent.len,
                _ => out.push(*extent),
            }
        }
        out
    }

    fn is_disjoint(&self) -> bool {
        let mut sorted: Vec<Extent> = self.iter().copied().filter(|e| !e.is_empty()).collect();
        sorted.sort_by_key(|e| e.start);
        sorted.windows(2).all(|w| w[0].end() <= w[1].start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extent_geometry() {
        let e = Extent::new(10, 5);
        assert_eq!(e.end(), 15);
        assert!(e.contains(10));
        assert!(e.contains(14));
        assert!(!e.contains(15));
        assert!(!e.is_empty());
        assert!(Extent::new(3, 0).is_empty());
    }

    #[test]
    fn overlap_and_adjacency() {
        let a = Extent::new(0, 10);
        let b = Extent::new(10, 10);
        let c = Extent::new(5, 10);
        assert!(!a.overlaps(&b));
        assert!(a.overlaps(&c));
        assert!(b.overlaps(&c));
        assert!(a.is_followed_by(&b));
        assert!(!b.is_followed_by(&a));
    }

    #[test]
    fn split_and_take() {
        let e = Extent::new(100, 10);
        let (head, tail) = e.split_at(4).unwrap();
        assert_eq!(head, Extent::new(100, 4));
        assert_eq!(tail, Extent::new(104, 6));
        assert!(e.split_at(0).is_none());
        assert!(e.split_at(10).is_none());
        assert!(e.split_at(11).is_none());

        let (taken, rest) = e.take(3);
        assert_eq!(taken, Extent::new(100, 3));
        assert_eq!(rest, Extent::new(103, 7));
        let (taken, rest) = e.take(50);
        assert_eq!(taken, e);
        assert!(rest.is_empty());
    }

    #[test]
    fn extent_list_helpers() {
        let list = [
            Extent::new(0, 4),
            Extent::new(4, 4),
            Extent::new(16, 8),
            Extent::new(24, 8),
            Extent::new(100, 1),
        ];
        assert_eq!(list.total_clusters(), 25);
        assert_eq!(list.fragment_count(), 3);
        assert_eq!(
            list.coalesced(),
            vec![Extent::new(0, 8), Extent::new(16, 16), Extent::new(100, 1)]
        );
        assert!(list.is_disjoint());

        let overlapping = [Extent::new(0, 10), Extent::new(5, 10)];
        assert!(!overlapping.is_disjoint());
    }

    #[test]
    fn fragment_count_ignores_empty_extents() {
        let list = [Extent::new(0, 4), Extent::new(4, 0), Extent::new(4, 4)];
        assert_eq!(list.fragment_count(), 1);
    }
}
