//! Artificial fragmentation, for the paper's §5.3 control experiment.
//!
//! The authors ran one experiment "on an artificially and pathologically
//! fragmented NTFS volume" and observed that fragmentation slowly *decreased*
//! over time, evidence that NTFS approaches an asymptote.  [`shatter`]
//! reproduces that starting condition: it dices the volume's free space into
//! small, regularly spaced holes so that every subsequent allocation is forced
//! to fragment.

use lor_alloc::{Extent, FreeSpace};
use serde::{Deserialize, Serialize};

use crate::error::FsError;
use crate::volume::Volume;

/// How a volume was shattered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShatterReport {
    /// Clusters pinned by the shatter operation (unavailable to files).
    pub pinned_clusters: u64,
    /// Free holes left between pinned runs.
    pub holes: u64,
    /// Size of each free hole, in clusters.
    pub hole_clusters: u64,
}

/// Dices the free space of `volume` into holes of `hole_clusters`, separated
/// by pinned runs of `pin_clusters` clusters.
///
/// The pinned runs model unmovable data (system files, already-placed
/// objects); they are taken directly from the free-space map, join the
/// volume's reserved set beside the MFT zone, and are never released.  Only currently free space is affected — live files are not
/// touched — so this can be applied to an empty volume to create a
/// pathological starting state, or to an aged volume to make matters worse.
pub fn shatter(
    volume: &mut Volume,
    hole_clusters: u64,
    pin_clusters: u64,
) -> Result<ShatterReport, FsError> {
    if hole_clusters == 0 || pin_clusters == 0 {
        return Err(FsError::BadConfig(
            "shatter hole and pin sizes must be non-zero",
        ));
    }
    // Work over a snapshot of the free runs; pinning mutates the map.
    let free_runs: Vec<Extent> = volume.free_space().free_runs();
    let mut pinned = 0u64;
    let mut holes = 0u64;
    let period = hole_clusters + pin_clusters;
    for run in free_runs {
        // Leave the first `hole_clusters` free, pin the next `pin_clusters`,
        // and repeat across the run.
        let mut offset = run.start + hole_clusters;
        while offset + pin_clusters <= run.end() {
            volume.pin(Extent::new(offset, pin_clusters))?;
            pinned += pin_clusters;
            holes += 1;
            offset += period;
        }
    }
    Ok(ShatterReport {
        pinned_clusters: pinned,
        holes,
        hole_clusters,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::volume::VolumeConfig;

    const MB: u64 = 1 << 20;

    #[test]
    fn shatter_limits_the_largest_free_run() {
        let mut config = VolumeConfig::new(64 * MB);
        config.mft_zone_fraction = 0.0;
        let mut volume = Volume::format(config).unwrap();
        let report = shatter(&mut volume, 32, 4).unwrap();
        assert!(report.holes > 100);
        assert_eq!(report.hole_clusters, 32);
        let free = volume.free_space_report();
        assert!(
            free.largest_run <= 32 + 4,
            "largest run {} should be a single hole",
            free.largest_run
        );
        // Most of the space is still free (pins are small).
        assert!(free.free_fraction() > 0.8);
    }

    #[test]
    fn files_written_after_shattering_fragment_immediately() {
        let mut config = VolumeConfig::new(64 * MB);
        config.mft_zone_fraction = 0.0;
        let mut volume = Volume::format(config).unwrap();
        shatter(&mut volume, 32, 4).unwrap();
        let receipt = volume.write_file("big", 4 * MB, 64 * 1024).unwrap();
        let fragments = volume.file(receipt.file_id).unwrap().fragment_count();
        // 4 MB over 128 KB holes: at least 30 fragments.
        assert!(
            fragments >= 30,
            "expected heavy fragmentation, got {fragments}"
        );
    }

    #[test]
    fn zero_sizes_are_rejected() {
        let mut volume = Volume::format(VolumeConfig::new(16 * MB)).unwrap();
        assert!(shatter(&mut volume, 0, 4).is_err());
        assert!(shatter(&mut volume, 4, 0).is_err());
    }

    #[test]
    fn live_files_are_untouched() {
        let mut config = VolumeConfig::new(64 * MB);
        config.mft_zone_fraction = 0.0;
        let mut volume = Volume::format(config).unwrap();
        let receipt = volume.write_file("keep", 8 * MB, 64 * 1024).unwrap();
        let extents_before = volume.file(receipt.file_id).unwrap().extents.clone();
        shatter(&mut volume, 16, 16).unwrap();
        assert_eq!(
            volume.file(receipt.file_id).unwrap().extents,
            extents_before
        );
        // And the file still reads back in full.
        let plan = volume.read_plan(receipt.file_id).unwrap();
        assert_eq!(plan.iter().map(|r| r.len).sum::<u64>(), 8 * MB);
    }
}
