//! Incremental fragmentation accounting.
//!
//! A threshold maintenance policy observes the store's fragments per
//! object on every tick.  Answering that by walking every live object makes
//! maintenance cost O(ops × objects) — the superlinear
//! wall that kept experiments at report scale.  [`FragmentationTracker`]
//! removes it: each substrate updates the tracker when an object's layout
//! changes (insert, update, delete, compact, defrag) and observation
//! becomes O(1) in the object count.
//!
//! The tracker's [`FragmentationTracker::summary`] is **bit-identical** to
//! [`FragmentationSummary::from_counts`] over the same population — the
//! property tests in the substrate crates pin this against a full-scan
//! recompute oracle.

use std::collections::BTreeMap;

use crate::metrics::FragmentationSummary;

/// An ordered multiset of `u64` values.
///
/// Backed by a count-per-value `BTreeMap`, so memory and query cost scale
/// with the number of *distinct* values (for fragment counts: tens), not
/// with the population (objects).  Insert and remove are O(log d); min, max
/// and order statistics are O(d) at worst.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CountMultiset {
    counts: BTreeMap<u64, u64>,
    len: u64,
    total: u64,
}

impl CountMultiset {
    /// Creates an empty multiset.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of values in the multiset (with multiplicity).
    pub fn len(&self) -> u64 {
        self.len
    }

    /// `true` when the multiset holds no values.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Sum of all values (with multiplicity).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Smallest value, or `None` when empty.
    pub fn min(&self) -> Option<u64> {
        self.counts.keys().next().copied()
    }

    /// Largest value, or `None` when empty.
    pub fn max(&self) -> Option<u64> {
        self.counts.keys().next_back().copied()
    }

    /// Number of values `<= bound` (with multiplicity).
    pub fn count_at_most(&self, bound: u64) -> u64 {
        self.counts.range(..=bound).map(|(_, &c)| c).sum()
    }

    /// Adds one occurrence of `value`.
    pub fn insert(&mut self, value: u64) {
        *self.counts.entry(value).or_insert(0) += 1;
        self.len += 1;
        self.total += value;
    }

    /// Removes one occurrence of `value`.
    ///
    /// # Panics
    ///
    /// Panics if `value` is not present — a removal the caller never
    /// inserted means the caller's bookkeeping has already diverged.
    pub fn remove(&mut self, value: u64) {
        let count = self
            .counts
            .get_mut(&value)
            .expect("CountMultiset::remove: value not present");
        *count -= 1;
        if *count == 0 {
            self.counts.remove(&value);
        }
        self.len -= 1;
        self.total -= value;
    }

    /// Replaces one occurrence of `old` with `new`.
    pub fn replace(&mut self, old: u64, new: u64) {
        if old == new {
            return;
        }
        self.remove(old);
        self.insert(new);
    }

    /// Removes every value.
    pub fn clear(&mut self) {
        self.counts.clear();
        self.len = 0;
        self.total = 0;
    }

    /// The `k`-th smallest value (0-based, with multiplicity).
    ///
    /// # Panics
    ///
    /// Panics if `k >= len()`.
    pub fn kth(&self, k: u64) -> u64 {
        assert!(k < self.len, "CountMultiset::kth: index out of range");
        let mut seen = 0u64;
        for (&value, &count) in &self.counts {
            seen += count;
            if seen > k {
                return value;
            }
        }
        unreachable!("len is consistent with bucket counts")
    }
}

/// Incremental per-object fragment-count accounting behind
/// [`FragmentationSummary`].
///
/// The population is the set of live objects; each object contributes its
/// current fragment count.  Substrates call [`record_insert`], [`record_remove`]
/// and [`record_replace`] at every layout mutation, and [`summary`] answers in
/// O(distinct fragment counts) — independent of the object count.
///
/// [`record_insert`]: FragmentationTracker::record_insert
/// [`record_remove`]: FragmentationTracker::record_remove
/// [`record_replace`]: FragmentationTracker::record_replace
/// [`summary`]: FragmentationTracker::summary
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FragmentationTracker {
    counts: CountMultiset,
}

impl FragmentationTracker {
    /// Creates a tracker over an empty population.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of live objects tracked.
    pub fn objects(&self) -> u64 {
        self.counts.len()
    }

    /// Total fragments across all tracked objects.
    pub fn total_fragments(&self) -> u64 {
        self.counts.total()
    }

    /// A new object entered the population with `fragments` fragments.
    pub fn record_insert(&mut self, fragments: u64) {
        self.counts.insert(fragments);
    }

    /// An object with `fragments` fragments left the population.
    pub fn record_remove(&mut self, fragments: u64) {
        self.counts.remove(fragments);
    }

    /// An object's layout changed from `old` to `new` fragments.
    pub fn record_replace(&mut self, old: u64, new: u64) {
        self.counts.replace(old, new);
    }

    /// Forgets the whole population (e.g. a filegroup rebuild re-inserts
    /// every record).
    pub fn clear(&mut self) {
        self.counts.clear();
    }

    /// The summary over the tracked population, bit-identical to
    /// [`FragmentationSummary::from_counts`] over the same fragment counts.
    pub fn summary(&self) -> FragmentationSummary {
        let n = self.counts.len();
        if n == 0 {
            return FragmentationSummary::from_counts(&[]);
        }
        let total = self.counts.total();
        // Same arithmetic as `from_counts`: for even n the two middle values
        // are summed in u64 *before* the cast.
        let median = if n % 2 == 1 {
            self.counts.kth(n / 2) as f64
        } else {
            (self.counts.kth(n / 2 - 1) + self.counts.kth(n / 2)) as f64 / 2.0
        };
        FragmentationSummary {
            objects: n as usize,
            total_fragments: total,
            fragments_per_object: total as f64 / n as f64,
            min_fragments: self.counts.min().expect("non-empty"),
            max_fragments: self.counts.max().expect("non-empty"),
            median_fragments: median,
            contiguous_fraction: self.counts.count_at_most(1) as f64 / n as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn multiset_basics() {
        let mut set = CountMultiset::new();
        assert!(set.is_empty());
        assert_eq!(set.min(), None);
        assert_eq!(set.max(), None);
        set.insert(3);
        set.insert(1);
        set.insert(3);
        assert_eq!(set.len(), 3);
        assert_eq!(set.total(), 7);
        assert_eq!(set.min(), Some(1));
        assert_eq!(set.max(), Some(3));
        assert_eq!(set.kth(0), 1);
        assert_eq!(set.kth(1), 3);
        assert_eq!(set.kth(2), 3);
        assert_eq!(set.count_at_most(1), 1);
        set.remove(3);
        assert_eq!(set.len(), 2);
        assert_eq!(set.total(), 4);
        set.replace(1, 5);
        assert_eq!(set.max(), Some(5));
        set.clear();
        assert!(set.is_empty());
        assert_eq!(set.total(), 0);
    }

    #[test]
    #[should_panic(expected = "value not present")]
    fn removing_an_absent_value_panics() {
        let mut set = CountMultiset::new();
        set.insert(2);
        set.remove(3);
    }

    /// f64 bit-identity: NaN-free summaries compare exactly.
    fn assert_bit_identical(a: &FragmentationSummary, b: &FragmentationSummary) {
        assert_eq!(a.objects, b.objects);
        assert_eq!(a.total_fragments, b.total_fragments);
        assert_eq!(
            a.fragments_per_object.to_bits(),
            b.fragments_per_object.to_bits()
        );
        assert_eq!(a.min_fragments, b.min_fragments);
        assert_eq!(a.max_fragments, b.max_fragments);
        assert_eq!(a.median_fragments.to_bits(), b.median_fragments.to_bits());
        assert_eq!(
            a.contiguous_fraction.to_bits(),
            b.contiguous_fraction.to_bits()
        );
    }

    #[test]
    fn summary_matches_from_counts_on_fixed_cases() {
        for counts in [
            vec![],
            vec![1],
            vec![1, 1, 2, 4, 10],
            vec![0, 0, 1, 1],
            vec![7, 7, 7, 7, 7, 7],
        ] {
            let mut tracker = FragmentationTracker::new();
            for &c in &counts {
                tracker.record_insert(c);
            }
            assert_bit_identical(
                &tracker.summary(),
                &FragmentationSummary::from_counts(&counts),
            );
        }
    }

    proptest! {
        /// Under an arbitrary insert/remove/replace sequence the tracker's
        /// summary stays bit-identical to a full recompute over the live
        /// population.
        #[test]
        fn tracker_matches_full_recompute(ops in proptest::collection::vec((0u8..3, 0u64..20), 0..200)) {
            let mut tracker = FragmentationTracker::new();
            let mut live: Vec<u64> = Vec::new();
            for (op, value) in ops {
                match op {
                    0 => {
                        tracker.record_insert(value);
                        live.push(value);
                    }
                    1 if !live.is_empty() => {
                        let index = (value as usize) % live.len();
                        let old = live.swap_remove(index);
                        tracker.record_remove(old);
                    }
                    2 if !live.is_empty() => {
                        let index = (value as usize) % live.len();
                        let old = live[index];
                        live[index] = value;
                        tracker.record_replace(old, value);
                    }
                    _ => {}
                }
                let oracle = FragmentationSummary::from_counts(&live);
                assert_bit_identical(&tracker.summary(), &oracle);
            }
        }
    }
}
