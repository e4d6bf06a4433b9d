//! Streaming log-bucketed latency histogram.
//!
//! The aging harness used to retain every [`Completion`] of an interval so
//! [`LatencySummary::of`] could sort the latencies at checkpoint time —
//! O(interval ops) memory and an O(n log n) sort per checkpoint, which at
//! paper scale means holding hundreds of thousands of completions (each
//! carrying its request) just to read four percentiles.  This histogram
//! replaces that: latencies are recorded as they complete into
//! HDR-histogram-style buckets — each power-of-two range is split into
//! 128 linear sub-buckets — so memory is a fixed ~58 KB
//! regardless of how many operations an interval covers, and a checkpoint
//! summary is one O(buckets) walk.
//!
//! **Accuracy.**  Count, mean and max are exact (the sum and maximum are
//! tracked outside the buckets).  Percentiles are approximate: a value lands
//! in a bucket whose width is at most `value / 128`, and the reported
//! percentile is the bucket midpoint, so the relative error of any reported
//! percentile is at most `1 / 256` (< 0.4%) — values below 128 ns are exact.
//! The property tests compare against the sort-based
//! [`LatencySummary::of`] oracle and assert this bound.
//!
//! [`Completion`]: crate::server::Completion
//! [`LatencySummary::of`]: crate::server::LatencySummary::of

use crate::server::LatencySummary;

/// Linear sub-buckets per power-of-two range (the precision knob).
const SUB_BITS: u32 = 7;
/// `2^SUB_BITS`: values below this are recorded exactly.
const SUB: u64 = 1 << SUB_BITS;
/// Total bucket count covering the full `u64` range.
const BUCKETS: usize = ((64 - SUB_BITS as usize) * SUB as usize) + SUB as usize;

/// Index of the bucket holding `value`.
fn bucket_index(value: u64) -> usize {
    if value < SUB {
        value as usize
    } else {
        let exp = 63 - value.leading_zeros(); // floor(log2), >= SUB_BITS
        let level = (exp - SUB_BITS) as u64;
        let offset = (value >> level) - SUB; // [0, SUB)
        (level * SUB + SUB + offset) as usize
    }
}

/// The representative (midpoint) value of bucket `index`, used when a
/// percentile rank falls inside it.
fn bucket_midpoint(index: usize) -> u64 {
    let index = index as u64;
    if index < SUB {
        index
    } else {
        let level = (index - SUB) / SUB;
        let offset = (index - SUB) % SUB;
        let lower = (SUB + offset) << level;
        let width = 1u64 << level;
        lower + width / 2
    }
}

/// A streaming latency histogram with bounded relative error.
///
/// Record client-observed latencies in nanoseconds as completions arrive;
/// read a [`LatencySummary`] at checkpoint time.  See the module docs for
/// the accuracy contract.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyHistogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u128,
    max: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram::new()
    }
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            buckets: vec![0; BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Records one latency observation, in nanoseconds.
    pub fn record(&mut self, nanos: u64) {
        self.buckets[bucket_index(nanos)] += 1;
        self.count += 1;
        self.sum += nanos as u128;
        self.max = self.max.max(nanos);
    }

    /// Observations recorded so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Forgets every observation (cheaper than re-allocating for the next
    /// measurement interval).
    pub fn clear(&mut self) {
        self.buckets.fill(0);
        self.count = 0;
        self.sum = 0;
        self.max = 0;
    }

    /// Folds another histogram's observations into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// The nearest-rank percentile in nanoseconds (`quantile` in `[0, 1]`),
    /// or 0 when empty.  Approximate per the module accuracy contract.
    pub fn percentile_nanos(&self, quantile: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        // Nearest-rank, matching the sort-based oracle: the value at
        // 1-indexed rank ceil(q * n), clamped to [1, n].
        let rank = ((quantile * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (index, &bucket) in self.buckets.iter().enumerate() {
            seen += bucket;
            if seen >= rank {
                return bucket_midpoint(index);
            }
        }
        self.max
    }

    /// Summarises the recorded observations in the same shape the sort-based
    /// path produces.  Mean and max are exact; percentiles carry the
    /// documented < 0.4% relative error.
    pub fn summary(&self) -> LatencySummary {
        if self.count == 0 {
            return LatencySummary::default();
        }
        LatencySummary {
            count: self.count,
            mean_ms: self.sum as f64 / self.count as f64 / 1e6,
            p50_ms: self.percentile_nanos(0.50) as f64 / 1e6,
            p95_ms: self.percentile_nanos(0.95) as f64 / 1e6,
            p99_ms: self.percentile_nanos(0.99) as f64 / 1e6,
            max_ms: self.max as f64 / 1e6,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The exact nearest-rank percentile the histogram approximates.
    fn exact_percentile(sorted: &[u64], quantile: f64) -> u64 {
        let rank = ((quantile * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    #[test]
    fn buckets_partition_the_u64_range() {
        // Every bucket's midpoint maps back to that bucket, and boundaries
        // between adjacent buckets are monotone.
        for index in 0..BUCKETS {
            let mid = bucket_midpoint(index);
            assert_eq!(
                bucket_index(mid),
                index,
                "midpoint {mid} of bucket {index} must land in its own bucket"
            );
        }
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(SUB - 1), (SUB - 1) as usize);
        assert_eq!(bucket_index(SUB), SUB as usize);
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn small_values_are_exact() {
        let mut hist = LatencyHistogram::new();
        for v in 0..SUB {
            hist.record(v);
        }
        for quantile in [0.1, 0.5, 0.9, 1.0] {
            let mut sorted: Vec<u64> = (0..SUB).collect();
            sorted.sort_unstable();
            assert_eq!(
                hist.percentile_nanos(quantile),
                exact_percentile(&sorted, quantile)
            );
        }
    }

    #[test]
    fn empty_histogram_summarises_to_default() {
        let hist = LatencyHistogram::new();
        assert!(hist.is_empty());
        assert_eq!(hist.summary(), LatencySummary::default());
        assert_eq!(hist.percentile_nanos(0.99), 0);
    }

    #[test]
    fn count_mean_and_max_are_exact() {
        let mut hist = LatencyHistogram::new();
        let values = [3u64, 1_000_000, 17, 90_000_000_000, 123_456_789];
        for &v in &values {
            hist.record(v);
        }
        let summary = hist.summary();
        assert_eq!(summary.count, values.len() as u64);
        let mean = values.iter().sum::<u64>() as f64 / values.len() as f64 / 1e6;
        assert!((summary.mean_ms - mean).abs() < 1e-9);
        assert_eq!(summary.max_ms, 90_000_000_000.0 / 1e6);
    }

    #[test]
    fn merge_equals_recording_into_one() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut both = LatencyHistogram::new();
        for v in [5u64, 999, 123_456, 42_000_000_000] {
            a.record(v);
            both.record(v);
        }
        for v in [7u64, 888_888, 3] {
            b.record(v);
            both.record(v);
        }
        a.merge(&b);
        assert_eq!(a, both);
        a.clear();
        assert_eq!(a, LatencyHistogram::new());
    }

    proptest! {
        /// The histogram's percentiles stay within the documented relative
        /// error of the sort-based oracle over arbitrary latencies spanning
        /// nanoseconds to minutes.
        #[test]
        fn percentiles_match_the_sorted_oracle(
            values in prop::collection::vec(0u64..120_000_000_000, 1..400)
        ) {
            let mut hist = LatencyHistogram::new();
            for &v in &values {
                hist.record(v);
            }
            let mut sorted = values.clone();
            sorted.sort_unstable();
            for quantile in [0.0, 0.25, 0.50, 0.95, 0.99, 1.0] {
                let exact = exact_percentile(&sorted, quantile);
                let approx = hist.percentile_nanos(quantile);
                // Relative error bound: half a bucket width, i.e. 2^-8 of
                // the value; exact below SUB.
                let bound = exact / 256 + 1;
                prop_assert!(
                    approx.abs_diff(exact) <= bound,
                    "q{quantile}: approx {approx} vs exact {exact} (bound {bound})"
                );
            }
            // Mean and max are exact.
            let summary = hist.summary();
            prop_assert_eq!(summary.count, values.len() as u64);
            prop_assert_eq!(summary.max_ms, *sorted.last().unwrap() as f64 / 1e6);
            let mean = sorted.iter().map(|&v| v as u128).sum::<u128>() as f64
                / sorted.len() as f64 / 1e6;
            prop_assert!((summary.mean_ms - mean).abs() <= mean.abs() * 1e-12 + 1e-12);
        }
    }
}
