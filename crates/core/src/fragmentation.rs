//! Fragmentation measurement, including the paper's marker-based tool.
//!
//! The authors measured fragmentation by tagging each object with "a unique
//! identifier and a sequence number at 1KB intervals" and locating those
//! markers on the physical disk (Section 5.3).  Here the simulators expose
//! object layouts directly, so the marker tool is reproduced as a pure
//! computation: markers are placed every `marker_interval` logical bytes,
//! mapped to physical byte addresses through the layout, and a new fragment is
//! counted whenever two consecutive markers are not the expected distance
//! apart on disk.  The extent walk it is checked against is the disk
//! model's own rule ([`lor_disksim::merged`], which every substrate's write
//! receipt and every read's segment count use too), so the tests here check
//! the marker tool against the one way a fragment is counted, as the
//! authors validated theirs against the NTFS defragmentation report.

use lor_alloc::FragmentationSummary;
use lor_disksim::{merged, ByteRun};

use crate::error::StoreError;
use crate::store::ObjectStore;

/// Interval between markers, in bytes (the paper used 1 KB).
pub const MARKER_INTERVAL: u64 = 1024;

/// One marker: a logical offset within an object and the physical byte
/// address it landed on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Marker {
    /// Logical offset of the marker within the object.
    pub logical_offset: u64,
    /// Physical byte address of the marker on the simulated disk.
    pub physical_offset: u64,
}

/// Places markers every `interval` bytes of the object described by `layout`.
///
/// The layout must be the object's byte runs in logical order; the total run
/// length defines how much of the object is mapped.
pub fn place_markers(layout: &[ByteRun], interval: u64) -> Vec<Marker> {
    let interval = interval.max(1);
    let total: u64 = layout.iter().map(|r| r.len).sum();
    let mut markers = Vec::with_capacity((total / interval + 1) as usize);
    let mut logical = 0u64;
    while logical < total {
        // Find the run containing this logical offset.
        let mut remaining = logical;
        for run in layout {
            if remaining < run.len {
                markers.push(Marker {
                    logical_offset: logical,
                    physical_offset: run.offset + remaining,
                });
                break;
            }
            remaining -= run.len;
        }
        logical += interval;
    }
    markers
}

/// Counts fragments from a marker list: a new fragment starts whenever the
/// physical distance between consecutive markers differs from their logical
/// distance.
pub fn fragments_from_markers(markers: &[Marker]) -> u64 {
    if markers.is_empty() {
        return 0;
    }
    let mut fragments = 1u64;
    for pair in markers.windows(2) {
        let logical_delta = pair[1].logical_offset - pair[0].logical_offset;
        let physical_delta = pair[1]
            .physical_offset
            .wrapping_sub(pair[0].physical_offset);
        if physical_delta != logical_delta {
            fragments += 1;
        }
    }
    fragments
}

/// Counts fragments by walking the layout directly: the segments the disk
/// model merges it into ([`merged`]).
pub fn fragments_from_layout(layout: &[ByteRun]) -> u64 {
    merged(layout).count() as u64
}

/// A per-store fragmentation report produced by the analyzer.
#[derive(Debug, Clone, PartialEq)]
pub struct FragmentationReport {
    /// Summary over all live objects (fragments counted from layouts).
    pub summary: FragmentationSummary,
    /// Fragments per object as measured by the marker tool, for
    /// cross-validation.  Equal to `summary.fragments_per_object` unless a
    /// layout lies about adjacency.
    pub marker_fragments_per_object: f64,
    /// Total markers placed.
    pub markers_placed: u64,
}

/// Runs the marker-based analyzer over every live object of a store.
pub fn analyze_store<S: ObjectStore + ?Sized>(
    store: &S,
) -> Result<FragmentationReport, StoreError> {
    let mut counts = Vec::with_capacity(store.object_count());
    let mut marker_total = 0u64;
    let mut markers_placed = 0u64;
    for key in store.keys() {
        let layout = store.layout_of(&key)?;
        counts.push(fragments_from_layout(&layout));
        let markers = place_markers(&layout, MARKER_INTERVAL);
        markers_placed += markers.len() as u64;
        marker_total += fragments_from_markers(&markers);
    }
    let summary = FragmentationSummary::from_counts(&counts);
    let marker_fragments_per_object = if counts.is_empty() {
        0.0
    } else {
        marker_total as f64 / counts.len() as f64
    };
    Ok(FragmentationReport {
        summary,
        marker_fragments_per_object,
        markers_placed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contiguous_layouts_have_one_fragment() {
        let layout = vec![ByteRun::new(4096, 8192), ByteRun::new(12288, 4096)];
        assert_eq!(fragments_from_layout(&layout), 1);
        let markers = place_markers(&layout, MARKER_INTERVAL);
        assert_eq!(markers.len() as u64, 12288 / 1024);
        assert_eq!(fragments_from_markers(&markers), 1);
    }

    #[test]
    fn scattered_layouts_count_every_discontinuity() {
        let layout = vec![
            ByteRun::new(0, 2048),
            ByteRun::new(100_000, 2048),
            ByteRun::new(102_048, 1024),
            ByteRun::new(50_000, 1024),
        ];
        assert_eq!(fragments_from_layout(&layout), 3);
        let markers = place_markers(&layout, MARKER_INTERVAL);
        assert_eq!(fragments_from_markers(&markers), 3);
    }

    #[test]
    fn empty_layouts_have_no_fragments() {
        assert_eq!(fragments_from_layout(&[]), 0);
        assert_eq!(fragments_from_markers(&[]), 0);
        assert!(place_markers(&[], 1024).is_empty());
    }

    #[test]
    fn markers_cover_partial_tail_runs() {
        // 2.5 KB object: markers at 0, 1024, 2048.
        let layout = vec![ByteRun::new(8192, 2560)];
        let markers = place_markers(&layout, 1024);
        assert_eq!(markers.len(), 3);
        assert_eq!(markers[2].physical_offset, 8192 + 2048);
    }

    #[test]
    fn marker_interval_is_clamped() {
        let layout = vec![ByteRun::new(0, 4)];
        let markers = place_markers(&layout, 0);
        assert_eq!(markers.len(), 4, "interval 0 behaves as 1");
    }

    #[test]
    fn fragmentation_counts_sub_interval_discontinuities_conservatively() {
        // A discontinuity smaller than the marker interval: the marker tool
        // sees the jump because physical deltas no longer match logical ones.
        let layout = vec![
            ByteRun::new(0, 512),
            ByteRun::new(10_000, 512),
            ByteRun::new(10_512, 2048),
        ];
        assert_eq!(fragments_from_layout(&layout), 2);
        let markers = place_markers(&layout, 1024);
        assert_eq!(fragments_from_markers(&markers), 2);
    }

    #[test]
    fn analyzer_agrees_with_store_summaries() {
        use crate::fs_store::FsObjectStore;
        use crate::store::ObjectStore;
        let mut store = FsObjectStore::new(64 << 20).unwrap();
        for i in 0..16 {
            store.put(&format!("o{i}"), 512 * 1024).unwrap();
        }
        let report = analyze_store(&store).unwrap();
        let direct = store.fragmentation();
        assert_eq!(report.summary.objects, direct.objects);
        assert!((report.summary.fragments_per_object - direct.fragments_per_object).abs() < 1e-9);
        assert!((report.marker_fragments_per_object - direct.fragments_per_object).abs() < 1e-9);
        assert!(report.markers_placed > 0);
    }
}
