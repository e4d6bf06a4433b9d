//! Extents and stored layouts.
//!
//! Every allocator in this crate hands out space as a list of [`Extent`]s.
//! Cluster size is a property of the volume built on top of the allocator;
//! within this crate all lengths and offsets are in clusters (the database
//! engine's units are pages).
//!
//! Files and BLOBs store their layouts as [`RunList`]s: the maximal runs in
//! logical order, whose number is the object's fragment count, the paper's
//! one metric.  A stored run takes 8 bytes ([`PackedRun`]), a 32-bit first
//! unit and a 32-bit length.  The layouts are the structure whose size
//! grows with fragmentation itself, so halving a run halves it: 5.65 MB
//! against 11.30 MB of 16-byte [`Extent`]s at the 36,239 objects and 20.44
//! fragments per object of an aged 20 GB database.  32 bits suffice because
//! the engine and the volume refuse a space of more than
//! [`RunList::MAX_UNITS`] = 2³² − 1 units: 32 TiB of 8 KB pages, 16 TiB of
//! 4 KB clusters, where the paper's 400 GB disk has 48.8 million pages.

/// A contiguous run of clusters `[start, start + len)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
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

    /// Grows `self` by `next` if `next` begins where `self` ends, and says
    /// whether it did.  This is the one rule that keeps a layout's runs
    /// maximal, so that their number is the object's fragment count: only
    /// forward adjacency merges — a run that physically precedes its
    /// logical predecessor is a seek, hence a fragment of its own.
    #[inline]
    pub fn absorb(&mut self, next: Extent) -> bool {
        let merges = self.is_followed_by(&next);
        if merges {
            self.len += next.len;
        }
        merges
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

/// Helpers over lists of extents, as allocators hand them out.
pub trait ExtentListExt {
    /// Total number of clusters covered.
    fn total_clusters(&self) -> u64;
    /// `true` if no two extents overlap (regardless of order).
    fn is_disjoint(&self) -> bool;
}

impl ExtentListExt for [Extent] {
    fn total_clusters(&self) -> u64 {
        self.iter().map(|e| e.len).sum()
    }

    fn is_disjoint(&self) -> bool {
        let mut sorted: Vec<Extent> = self.iter().copied().filter(|e| !e.is_empty()).collect();
        sorted.sort_by_key(|e| e.start);
        sorted.windows(2).all(|w| w[0].end() <= w[1].start)
    }
}

/// One run packed into 8 bytes: its first unit in the high 32 bits, its
/// length in the low 32.
///
/// Every run a [`RunList`] stores fits, because its owner refuses a space
/// of more than [`RunList::MAX_UNITS`] units.  Disjoint runs have distinct
/// starts, so comparing their words orders them by start, as comparing
/// their extents does: the database's ghost backlog keeps these words and
/// sorts them.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct PackedRun(u64);

impl PackedRun {
    /// Packs `run`.
    ///
    /// # Panics
    /// If the run does not end by unit [`RunList::MAX_UNITS`].
    #[inline]
    pub fn new(run: Extent) -> Self {
        assert!(
            run.start <= RunList::MAX_UNITS && run.len <= RunList::MAX_UNITS - run.start,
            "run {run:?} ends past unit {}",
            RunList::MAX_UNITS
        );
        PackedRun(run.start << 32 | run.len)
    }

    /// The run as an [`Extent`].
    #[inline]
    pub fn extent(self) -> Extent {
        Extent::new(self.0 >> 32, self.0 & u64::from(u32::MAX))
    }
}

impl std::fmt::Debug for PackedRun {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.extent().fmt(f)
    }
}

/// An object's physical layout: its units as maximal runs, in logical
/// order, 8 bytes a run (module docs).
///
/// Appending merges a run into its predecessor when it begins exactly where
/// the predecessor ends ([`Extent::absorb`]), so the list always holds the
/// *maximal* runs a scan of the object's units in logical order would find:
/// the number of runs is the object's fragment count (0 = empty, 1 =
/// contiguous), and each run is one disk transfer.  The unit count is kept
/// beside the runs.  [`RunList::push`] panics on a run that ends past
/// [`RunList::MAX_UNITS`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunList {
    /// Non-empty runs; no run starts where the previous one ends.
    runs: Vec<PackedRun>,
    /// Units covered: the sum of the run lengths.
    units: u64,
}

impl RunList {
    /// The most units a space may have for a [`RunList`] to hold any run of
    /// it: every unit number and run length then fits in 32 bits.
    pub const MAX_UNITS: u64 = u32::MAX as u64;

    /// An empty layout.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a run at the logical end of the layout; an empty run adds
    /// nothing.
    ///
    /// # Panics
    /// If the run ends past unit [`RunList::MAX_UNITS`].
    #[inline]
    pub fn push(&mut self, run: Extent) {
        if run.is_empty() {
            return;
        }
        self.units += run.len;
        if let Some(last) = self.runs.last_mut() {
            let mut merged = last.extent();
            if merged.absorb(run) {
                *last = PackedRun::new(merged);
                return;
            }
        }
        self.runs.push(PackedRun::new(run));
    }

    /// Empties the layout, keeping its capacity for the next one.
    #[inline]
    pub fn clear(&mut self) {
        self.runs.clear();
        self.units = 0;
    }

    /// An exact-size copy of the layout, leaving this one empty with its
    /// capacity kept: how a layout built in a reused buffer is committed (a
    /// `Vec` clone allocates exactly its length, so the copy holds no spare
    /// capacity).
    #[inline]
    pub fn take_exact(&mut self) -> RunList {
        let exact = self.clone();
        self.clear();
        exact
    }

    /// `true` if the run list holds no spare capacity, as a copy
    /// [`RunList::take_exact`] made holds none.
    pub fn is_exact(&self) -> bool {
        self.runs.capacity() == self.runs.len()
    }

    /// Removes the last `units` units of the layout, pushing the runs they
    /// occupied onto `released`, the logically last first.
    ///
    /// # Panics
    /// If the layout holds fewer than `units` units.
    pub fn trim_tail(&mut self, units: u64, released: &mut Vec<Extent>) {
        assert!(
            units <= self.units,
            "trimming {units} of {} units",
            self.units
        );
        self.units -= units;
        let mut excess = units;
        while excess > 0 {
            let last = self.runs.last_mut().expect("the units lie in the runs");
            let run = last.extent();
            let cut = run.len.min(excess);
            released.push(Extent::new(run.end() - cut, cut));
            if cut == run.len {
                self.runs.pop();
            } else {
                // The length is the low word: the start stays put.
                last.0 -= cut;
            }
            excess -= cut;
        }
    }

    /// The runs in logical order.
    #[inline]
    pub fn runs(&self) -> impl ExactSizeIterator<Item = Extent> + Clone + '_ {
        self.runs.iter().map(|run| run.extent())
    }

    /// The logically last run, if any.
    #[inline]
    pub fn last(&self) -> Option<Extent> {
        self.runs.last().map(|run| run.extent())
    }

    /// The runs in logical order, packed as stored.
    #[inline]
    pub fn packed(&self) -> &[PackedRun] {
        &self.runs
    }

    /// Units covered.
    #[inline]
    pub fn units(&self) -> u64 {
        self.units
    }

    /// Number of physically discontiguous runs: the object's fragment count
    /// (0 = empty, 1 = contiguous).
    #[inline]
    pub fn fragment_count(&self) -> usize {
        self.runs.len()
    }

    /// `true` if the layout covers no units.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }
}

impl Extend<Extent> for RunList {
    fn extend<I: IntoIterator<Item = Extent>>(&mut self, runs: I) {
        for run in runs {
            self.push(run);
        }
    }
}

impl FromIterator<Extent> for RunList {
    fn from_iter<I: IntoIterator<Item = Extent>>(runs: I) -> Self {
        let mut layout = RunList::new();
        layout.extend(runs);
        layout
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
        assert!(list.is_disjoint());

        let overlapping = [Extent::new(0, 10), Extent::new(5, 10)];
        assert!(!overlapping.is_disjoint());
    }

    #[test]
    fn fragment_count_ignores_empty_extents() {
        let layout: RunList = [Extent::new(0, 4), Extent::new(4, 0), Extent::new(4, 4)]
            .into_iter()
            .collect();
        assert_eq!(layout.fragment_count(), 1);
        let layout: RunList = [Extent::new(9, 0), Extent::new(3, 0)].into_iter().collect();
        assert!(layout.is_empty());
        assert_eq!(layout.units(), 0);
    }

    #[test]
    fn a_run_list_holds_the_maximal_runs_and_their_units() {
        let layout: RunList = [
            Extent::new(0, 4),
            Extent::new(4, 4),
            Extent::new(16, 8),
            Extent::new(24, 8),
            Extent::new(100, 1),
            Extent::new(99, 1),
        ]
        .into_iter()
        .collect();
        assert_eq!(
            layout.runs().collect::<Vec<_>>(),
            [
                Extent::new(0, 8),
                Extent::new(16, 16),
                Extent::new(100, 1),
                Extent::new(99, 1)
            ]
        );
        assert_eq!(layout.fragment_count(), 4);
        assert_eq!(layout.units(), 26);
        assert_eq!(layout.last(), Some(Extent::new(99, 1)));
        assert_eq!(
            layout
                .packed()
                .iter()
                .map(|run| run.extent())
                .collect::<RunList>(),
            layout
        );
    }

    #[test]
    fn a_tail_trim_hands_back_the_released_runs_last_first() {
        let mut layout: RunList = [Extent::new(10, 4), Extent::new(30, 2), Extent::new(50, 3)]
            .into_iter()
            .collect();
        let mut released = vec![Extent::new(7, 1)];
        layout.trim_tail(6, &mut released);
        assert_eq!(
            released,
            [
                Extent::new(7, 1),
                Extent::new(50, 3),
                Extent::new(30, 2),
                Extent::new(13, 1)
            ]
        );
        assert_eq!(layout.runs().collect::<Vec<_>>(), [Extent::new(10, 3)]);
        assert_eq!(layout.units(), 3);
        layout.trim_tail(0, &mut released);
        assert_eq!(released.len(), 4);
        layout.trim_tail(3, &mut released);
        assert!(layout.is_empty());
        assert_eq!(layout.units(), 0);
        // A trimmed run no longer absorbs the run that continued it.
        let mut layout: RunList = std::iter::once(Extent::new(0, 8)).collect();
        layout.trim_tail(2, &mut Vec::new());
        layout.push(Extent::new(8, 1));
        assert_eq!(layout.fragment_count(), 2);
    }

    #[test]
    #[should_panic(expected = "trimming 5 of 4 units")]
    fn a_tail_trim_past_the_units_panics() {
        let mut layout: RunList = std::iter::once(Extent::new(0, 4)).collect();
        layout.trim_tail(5, &mut Vec::new());
    }
}
