//! Fragmentation metrics.
//!
//! Two families of numbers matter to the paper:
//!
//! * **Per-object fragmentation** — how many physically discontiguous pieces
//!   an object (file or BLOB) is stored in.  The paper's figures all report
//!   *fragments per object*.
//! * **Free-space fragmentation** — how chopped-up the remaining free space
//!   is ([`FreeSpaceReport`], read by the trace's `free.*` gauges).  In this
//!   simulator it does **not** predict how badly future allocations will
//!   fragment.  Aged round by round on the report-scale Figure 2 workload
//!   (seed 42), the BLOB engine's fragments per object climbed from 146 to
//!   658 while its largest free run held about 178 objects' length and its
//!   external fragmentation stayed at or below 0.086.  The fragments come
//!   from the allocation order (lowest-first reuse of freed holes), not
//!   from a shortage of contiguous free space.

use crate::extent::{Extent, ExtentListExt};
use crate::freespace::FreeSpace;

/// Summary statistics over the fragment counts of a population of objects.
#[derive(Debug, Clone, PartialEq)]
pub struct FragmentationSummary {
    /// Number of objects measured.
    pub objects: usize,
    /// Total fragments across all objects.
    pub total_fragments: u64,
    /// Mean fragments per object (the paper's y-axis).
    pub fragments_per_object: f64,
    /// Smallest fragment count observed.
    pub min_fragments: u64,
    /// Largest fragment count observed.
    pub max_fragments: u64,
    /// Median fragment count.
    pub median_fragments: f64,
    /// Fraction of objects stored in a single fragment.
    pub contiguous_fraction: f64,
}

impl FragmentationSummary {
    /// Fragments above the contiguous minimum: the total fragment count
    /// minus the object count (every live object needs at least one
    /// fragment).
    pub fn excess_fragments(&self) -> u64 {
        self.total_fragments.saturating_sub(self.objects as u64)
    }

    /// Computes the summary from per-object fragment counts.
    pub fn from_counts(counts: &[u64]) -> Self {
        if counts.is_empty() {
            return FragmentationSummary {
                objects: 0,
                total_fragments: 0,
                fragments_per_object: 0.0,
                min_fragments: 0,
                max_fragments: 0,
                median_fragments: 0.0,
                contiguous_fraction: 0.0,
            };
        }
        let mut sorted = counts.to_vec();
        sorted.sort_unstable();
        let total: u64 = sorted.iter().sum();
        let n = sorted.len();
        let median = if n % 2 == 1 {
            sorted[n / 2] as f64
        } else {
            (sorted[n / 2 - 1] + sorted[n / 2]) as f64 / 2.0
        };
        FragmentationSummary {
            objects: n,
            total_fragments: total,
            fragments_per_object: total as f64 / n as f64,
            min_fragments: sorted[0],
            max_fragments: sorted[n - 1],
            median_fragments: median,
            contiguous_fraction: sorted.iter().filter(|&&c| c <= 1).count() as f64 / n as f64,
        }
    }

    /// Combines per-shard summaries into one fleet-wide summary.
    ///
    /// Totals (`objects`, `total_fragments`) and extrema are exact; the
    /// mean and contiguous fraction are recomputed from the totals.  The
    /// merged median is an object-weighted average of the per-shard
    /// medians — the per-object counts are gone, so the true fleet median
    /// is unrecoverable; the approximation is monotone in its inputs,
    /// which is all the skew gauges need.
    pub fn merged<'a>(summaries: impl IntoIterator<Item = &'a Self>) -> Self {
        let mut objects = 0usize;
        let mut total_fragments = 0u64;
        let mut min_fragments = u64::MAX;
        let mut max_fragments = 0u64;
        let mut weighted_median = 0.0f64;
        let mut contiguous = 0.0f64;
        for summary in summaries {
            if summary.objects == 0 {
                continue;
            }
            objects += summary.objects;
            total_fragments += summary.total_fragments;
            min_fragments = min_fragments.min(summary.min_fragments);
            max_fragments = max_fragments.max(summary.max_fragments);
            weighted_median += summary.median_fragments * summary.objects as f64;
            contiguous += summary.contiguous_fraction * summary.objects as f64;
        }
        if objects == 0 {
            return Self::from_counts(&[]);
        }
        FragmentationSummary {
            objects,
            total_fragments,
            fragments_per_object: total_fragments as f64 / objects as f64,
            min_fragments,
            max_fragments,
            median_fragments: weighted_median / objects as f64,
            contiguous_fraction: contiguous / objects as f64,
        }
    }

    /// Computes the summary directly from object extent lists.
    pub fn from_layouts<'a>(layouts: impl IntoIterator<Item = &'a [Extent]>) -> Self {
        let counts: Vec<u64> = layouts
            .into_iter()
            .map(|extents| extents.fragment_count() as u64)
            .collect();
        Self::from_counts(&counts)
    }
}

/// Headline free-space numbers: how much is free, in how many runs, and how
/// much of it the largest run holds.
#[derive(Debug, Clone, PartialEq)]
pub struct FreeSpaceReport {
    /// Total clusters on the volume.
    pub total_clusters: u64,
    /// Free clusters.
    pub free_clusters: u64,
    /// Number of distinct free runs.
    pub free_runs: usize,
    /// Largest free run, in clusters.
    pub largest_run: u64,
    /// External fragmentation: `1 - largest_run / free_clusters`.
    /// Zero when all free space is one run; approaches one as the free space
    /// shatters.  Defined as zero when nothing is free.
    pub external_fragmentation: f64,
}

impl FreeSpaceReport {
    /// Builds the report from any free-space structure.
    pub fn from_free_space<F: FreeSpace + ?Sized>(map: &F) -> Self {
        Self::from_runs(map.total_clusters(), &map.free_runs())
    }

    /// Builds the report from an explicit list of free runs.
    pub fn from_runs(total_clusters: u64, runs: &[Extent]) -> Self {
        let free_clusters: u64 = runs.iter().map(|r| r.len).sum();
        let largest = runs.iter().map(|r| r.len).max().unwrap_or(0);
        FreeSpaceReport {
            total_clusters,
            free_clusters,
            free_runs: runs.len(),
            largest_run: largest,
            external_fragmentation: if free_clusters == 0 {
                0.0
            } else {
                1.0 - largest as f64 / free_clusters as f64
            },
        }
    }
}

/// Occupancy of the two placement bands — the observability gauge behind
/// "is maintenance fighting the allocator for contiguous runs?".
///
/// The foreground band is `[0, boundary_cluster)`, the maintenance band
/// `[boundary_cluster, total_clusters)`, matching
/// [`crate::PlacementPolicy::boundary_cluster`].  Under an unrestricted
/// policy the boundary equals the volume size and the maintenance band is
/// empty (occupancy reported as zero).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BandOccupancy {
    /// First cluster of the maintenance band.
    pub boundary_cluster: u64,
    /// Total clusters on the volume.
    pub total_clusters: u64,
    /// Used fraction of the foreground band (0 when the band is empty).
    pub foreground_used: f64,
    /// Used fraction of the maintenance band (0 when the band is empty).
    pub maintenance_used: f64,
}

impl BandOccupancy {
    /// Computes band occupancy from the volume's free runs and the
    /// placement boundary.
    pub fn from_runs(total_clusters: u64, boundary_cluster: u64, runs: &[Extent]) -> Self {
        let boundary = boundary_cluster.min(total_clusters);
        let mut free_below = 0u64;
        let mut free_above = 0u64;
        for run in runs {
            // Split runs straddling the boundary between the bands.
            let below = boundary.saturating_sub(run.start).min(run.len);
            free_below += below;
            free_above += run.len - below;
        }
        let used = |band: u64, free: u64| {
            if band == 0 {
                0.0
            } else {
                1.0 - (free.min(band) as f64 / band as f64)
            }
        };
        BandOccupancy {
            boundary_cluster: boundary,
            total_clusters,
            foreground_used: used(boundary, free_below),
            maintenance_used: used(total_clusters - boundary, free_above),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::freespace::RunIndexMap;

    #[test]
    fn summary_of_empty_population() {
        let summary = FragmentationSummary::from_counts(&[]);
        assert_eq!(summary.objects, 0);
        assert_eq!(summary.fragments_per_object, 0.0);
    }

    #[test]
    fn summary_statistics() {
        let summary = FragmentationSummary::from_counts(&[1, 1, 2, 4, 10]);
        assert_eq!(summary.objects, 5);
        assert_eq!(summary.total_fragments, 18);
        assert!((summary.fragments_per_object - 3.6).abs() < 1e-9);
        assert_eq!(summary.min_fragments, 1);
        assert_eq!(summary.max_fragments, 10);
        assert_eq!(summary.median_fragments, 2.0);
        assert!((summary.contiguous_fraction - 0.4).abs() < 1e-9);
    }

    #[test]
    fn summary_from_layouts() {
        let a = vec![Extent::new(0, 4), Extent::new(4, 4)]; // contiguous -> 1 fragment
        let b = vec![Extent::new(100, 4), Extent::new(200, 4)]; // 2 fragments
        let summary = FragmentationSummary::from_layouts([a.as_slice(), b.as_slice()]);
        assert_eq!(summary.objects, 2);
        assert_eq!(summary.total_fragments, 3);
        assert!((summary.fragments_per_object - 1.5).abs() < 1e-9);
    }

    #[test]
    fn merged_summary_combines_totals_and_extrema() {
        let a = FragmentationSummary::from_counts(&[1, 1, 2, 4, 10]);
        let b = FragmentationSummary::from_counts(&[3, 3, 3]);
        let empty = FragmentationSummary::from_counts(&[]);
        let merged = FragmentationSummary::merged([&a, &b, &empty]);
        assert_eq!(merged.objects, 8);
        assert_eq!(merged.total_fragments, 27);
        assert!((merged.fragments_per_object - 27.0 / 8.0).abs() < 1e-9);
        assert_eq!(merged.min_fragments, 1);
        assert_eq!(merged.max_fragments, 10);
        // Weighted-median approximation: (2.0 * 5 + 3.0 * 3) / 8.
        assert!((merged.median_fragments - 19.0 / 8.0).abs() < 1e-9);
        assert!((merged.contiguous_fraction - 2.0 / 8.0).abs() < 1e-9);
        assert_eq!(merged.excess_fragments(), 27 - 8);

        // All-empty input degenerates to the empty summary.
        let nothing = FragmentationSummary::merged([&empty]);
        assert_eq!(nothing.objects, 0);
        assert_eq!(nothing.fragments_per_object, 0.0);
    }

    #[test]
    fn free_space_report_from_map() {
        let mut map = RunIndexMap::new_free(1_000);
        map.reserve(Extent::new(100, 100)).unwrap();
        map.reserve(Extent::new(300, 100)).unwrap();
        let report = FreeSpaceReport::from_free_space(&map);
        assert_eq!(report.total_clusters, 1_000);
        assert_eq!(report.free_clusters, 800);
        assert_eq!(report.free_runs, 3);
        assert_eq!(report.largest_run, 600);
        assert!(report.external_fragmentation > 0.0 && report.external_fragmentation < 1.0);
    }

    #[test]
    fn external_fragmentation_extremes() {
        let single = FreeSpaceReport::from_runs(100, &[Extent::new(0, 50)]);
        assert_eq!(single.external_fragmentation, 0.0);
        let none_free = FreeSpaceReport::from_runs(100, &[]);
        assert_eq!(none_free.external_fragmentation, 0.0);
        let shattered: Vec<Extent> = (0..50).map(|i| Extent::new(i * 2, 1)).collect();
        let report = FreeSpaceReport::from_runs(100, &shattered);
        assert!((report.external_fragmentation - 0.98).abs() < 1e-9);
    }

    #[test]
    fn band_occupancy_splits_at_the_boundary() {
        // 100-cluster volume, boundary at 80: foreground band 80, maint 20.
        // Free: [10, 20) in the foreground band, [75, 85) straddling, [95,
        // 100) in the maintenance band.
        let runs = [Extent::new(10, 10), Extent::new(75, 10), Extent::new(95, 5)];
        let bands = BandOccupancy::from_runs(100, 80, &runs);
        // Foreground free: 10 + 5 = 15 of 80; maintenance free: 5 + 5 = 10 of 20.
        assert!((bands.foreground_used - (1.0 - 15.0 / 80.0)).abs() < 1e-9);
        assert!((bands.maintenance_used - 0.5).abs() < 1e-9);

        // Unrestricted: boundary at (or past) the end, empty maint band.
        let whole = BandOccupancy::from_runs(100, 120, &runs);
        assert_eq!(whole.boundary_cluster, 100);
        assert_eq!(whole.maintenance_used, 0.0);
        assert!((whole.foreground_used - 0.75).abs() < 1e-9);

        // Degenerate empty volume.
        let empty = BandOccupancy::from_runs(0, 0, &[]);
        assert_eq!(empty.foreground_used, 0.0);
        assert_eq!(empty.maintenance_used, 0.0);
    }
}
