//! Online defragmentation.
//!
//! The paper notes (Sections 5.3 and 6) that the Windows defragmenter supports
//! on-line partial defragmentation and that defragmentation "imposes
//! read/write performance impacts that can outweigh its benefits".  This
//! module provides a per-file defragmenter so experiments can quantify both
//! sides: the fragments removed and the bytes that had to be copied to remove
//! them.
//!
//! A pass is driven through [`Defragmenter::defragment_step`]: bounded
//! increments resumed from a [`DefragCursor`], so a background maintenance
//! scheduler (`lor-maint`) can interleave a few pages of defragmentation
//! with the foreground workload each tick.  A whole-volume pass is one step
//! with an unlimited budget on a fresh cursor; driving budgeted steps to
//! completion visits the same files in the same order and therefore
//! converges to the identical layout.

use std::collections::VecDeque;

use lor_alloc::{AllocRequest, Contiguity, PlacementConsumer};

use crate::error::FsError;
use crate::file::FileId;
use crate::volume::Volume;

/// Outcome of a defragmentation pass.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct DefragReport {
    /// Files examined.
    pub files_examined: u64,
    /// Files successfully made contiguous (or less fragmented).
    pub files_moved: u64,
    /// Files skipped because no sufficiently large free run existed.
    pub files_skipped: u64,
    /// Bytes copied while moving file data.
    pub bytes_copied: u64,
    /// Fragments before the pass, summed over examined files.
    pub fragments_before: u64,
    /// Fragments after the pass, summed over examined files.
    pub fragments_after: u64,
}

/// Resumable position inside one incremental defragmentation pass.
///
/// The cursor snapshots the candidate order (most fragmented file first)
/// the first time [`Defragmenter::defragment_step`] is called, then
/// remembers how far the pass has progressed across steps.  Once
/// [`DefragCursor::is_done`] reports `true` the pass is complete;
/// [`DefragCursor::reset`] starts a fresh pass (with a fresh candidate
/// snapshot) on the next step.
#[derive(Debug, Clone, Default)]
pub struct DefragCursor {
    /// Remaining candidates of the current pass; `None` before the pass has
    /// snapshotted its candidate order.
    queue: Option<VecDeque<FileId>>,
}

impl DefragCursor {
    /// Creates a cursor positioned at the start of a fresh pass.
    pub fn new() -> Self {
        DefragCursor::default()
    }

    /// `true` once the current pass has examined every candidate.
    pub fn is_done(&self) -> bool {
        self.queue.as_ref().is_some_and(VecDeque::is_empty)
    }

    /// Forgets the current pass so the next step starts a fresh one.
    pub fn reset(&mut self) {
        self.queue = None;
    }

    /// Files the current pass has still to examine (0 before the first step).
    pub fn remaining(&self) -> usize {
        self.queue.as_ref().map_or(0, VecDeque::len)
    }
}

/// The online defragmenter.
///
/// `Defragmenter` is deliberately stateless; all state lives in the volume so
/// a pass can be interrupted and resumed, as the Windows utility allows.
#[derive(Debug, Clone, Copy, Default)]
pub struct Defragmenter;

impl Defragmenter {
    /// Creates a defragmenter.
    pub fn new() -> Self {
        Defragmenter
    }

    /// Attempts to make a single file contiguous by copying it into a fresh
    /// single-extent allocation.  Returns `Ok(true)` if the file was moved.
    ///
    /// The allocation is made as the **maintenance consumer** under the
    /// volume's [`lor_alloc::PlacementPolicy`]: a banded volume relocates
    /// into the maintenance band (refusing when that band has no run large
    /// enough, never spilling into the foreground band), and a reserve
    /// volume refuses any run longer than the largest live file's
    /// allocation.  Either way, defragmentation can only *grow* the
    /// contiguous space foreground writes see.
    pub fn defragment_file(&self, volume: &mut Volume, id: FileId) -> Result<bool, FsError> {
        let record = volume.file(id)?;
        let clusters = record.allocated_clusters();
        if clusters == 0 || record.fragment_count() <= 1 {
            return Ok(false);
        }

        // Ask for a single contiguous run; if the volume cannot provide one
        // (within the placement constraint) we leave the file alone — a
        // partial improvement would also be possible, but the Windows
        // defragmenter's observable behaviour is per-file.
        let request = AllocRequest {
            clusters,
            hint: None,
            contiguity: Contiguity::Required,
        };
        let consumer = PlacementConsumer::Maintenance {
            foreground_watermark: volume.foreground_watermark(),
        };
        let Ok(new_extents) = volume.allocator_mut().allocate_as(&request, consumer) else {
            return Ok(false);
        };
        debug_assert_eq!(new_extents.len(), 1);

        // "Copy" the data (the simulator has no contents; the byte count is
        // what matters for the cost model), then swap the layouts and
        // release the old clusters immediately — the defragmenter runs with
        // its own transaction and the space it frees is reusable at once.
        let old = volume.replace_layout(id, new_extents.into_iter().collect())?;
        volume
            .allocator_mut()
            .free(&old.runs().collect::<Vec<_>>())?;
        Ok(true)
    }

    /// Runs one bounded increment of a volume pass: examines candidates in
    /// the pass order recorded in `cursor` (most fragmented first) and moves
    /// files until about `copy_budget_bytes` of data has been copied (0 means
    /// unlimited — the whole remaining pass runs in this step).
    ///
    /// An exhausted step budget never *skips* a candidate it cannot afford:
    /// it *defers* it to the next step, so driving steps until
    /// [`DefragCursor::is_done`] performs the complete pass.  A candidate
    /// larger than the whole step budget is still moved (the budget is a soft
    /// target, never a starvation point).  Files deleted since the pass began
    /// are skipped silently.
    ///
    /// Total fragments across the volume never increase: every committed move
    /// leaves its file fully contiguous and touches no other file's layout.
    pub fn defragment_step(
        &self,
        volume: &mut Volume,
        cursor: &mut DefragCursor,
        copy_budget_bytes: u64,
    ) -> Result<DefragReport, FsError> {
        let queue = cursor.queue.get_or_insert_with(|| {
            let mut candidates: Vec<(FileId, usize)> = volume
                .iter_files()
                .map(|record| (record.id, record.fragment_count()))
                .collect();
            candidates.sort_by_key(|(_, fragments)| std::cmp::Reverse(*fragments));
            candidates.into_iter().map(|(id, _)| id).collect()
        });

        let mut report = DefragReport::default();
        while let Some(id) = queue.pop_front() {
            // The pass snapshot may be stale: the file can have been deleted
            // (or replaced under a new id) by foreground work since.
            let Ok(record) = volume.file(id) else {
                continue;
            };
            let fragments = record.fragment_count();
            let size_bytes = record.size_bytes;
            if fragments <= 1 {
                report.files_examined += 1;
                report.fragments_before += fragments as u64;
                report.fragments_after += fragments as u64;
                continue;
            }
            if copy_budget_bytes > 0
                && report.bytes_copied > 0
                && report.bytes_copied + size_bytes > copy_budget_bytes
            {
                queue.push_front(id);
                break;
            }
            report.files_examined += 1;
            report.fragments_before += fragments as u64;
            if self.defragment_file(volume, id)? {
                report.files_moved += 1;
                report.bytes_copied += size_bytes;
                report.fragments_after += volume.file(id)?.fragment_count() as u64;
            } else {
                report.files_skipped += 1;
                report.fragments_after += fragments as u64;
            }
            if copy_budget_bytes > 0 && report.bytes_copied >= copy_budget_bytes {
                break;
            }
        }
        volume.debug_verify();
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::volume::VolumeConfig;

    const MB: u64 = 1 << 20;

    /// Builds a volume whose free space is shattered so that new files
    /// fragment badly.
    fn fragmented_volume() -> (Volume, Vec<FileId>) {
        let mut config = VolumeConfig::new(64 * MB);
        config.checkpoint_interval_ops = 1;
        let mut volume = Volume::format(config).unwrap();
        let pads: Vec<FileId> = (0..256)
            .map(|i| {
                volume
                    .write_file(&format!("pad{i}"), 128 * 1024, 64 * 1024)
                    .unwrap()
                    .file_id
            })
            .collect();
        for id in pads.iter().step_by(2) {
            volume.delete(*id).unwrap();
        }
        volume.checkpoint();
        // These large files must fragment across the 128 KB holes.
        let victims: Vec<FileId> = (0..4)
            .map(|i| {
                volume
                    .write_file(&format!("victim{i}"), 2 * MB, 64 * 1024)
                    .unwrap()
                    .file_id
            })
            .collect();
        (volume, victims)
    }

    /// A whole-volume pass: one step with an unlimited budget on a fresh
    /// cursor.
    fn whole_pass(volume: &mut Volume) -> DefragReport {
        let mut cursor = DefragCursor::new();
        let report = Defragmenter::new()
            .defragment_step(volume, &mut cursor, 0)
            .unwrap();
        assert!(cursor.is_done(), "an unlimited step finishes its pass");
        report
    }

    #[test]
    fn defragment_file_makes_it_contiguous() {
        let (mut volume, victims) = fragmented_volume();
        let id = victims[0];
        assert!(volume.file(id).unwrap().fragment_count() > 1);
        let moved = Defragmenter::new()
            .defragment_file(&mut volume, id)
            .unwrap();
        assert!(moved);
        assert_eq!(volume.file(id).unwrap().fragment_count(), 1);
        // Size and identity are unchanged.
        assert_eq!(volume.file(id).unwrap().size_bytes, 2 * MB);
    }

    #[test]
    fn defragmenting_a_contiguous_file_is_a_no_op() {
        let mut volume = Volume::format(VolumeConfig::new(64 * MB)).unwrap();
        let receipt = volume.write_file("a", MB, 64 * 1024).unwrap();
        let moved = Defragmenter::new()
            .defragment_file(&mut volume, receipt.file_id)
            .unwrap();
        assert!(!moved);
    }

    #[test]
    fn volume_pass_reduces_total_fragments() {
        let (mut volume, _) = fragmented_volume();
        let before = volume.fragmentation();
        let report = whole_pass(&mut volume);
        let after = volume.fragmentation();
        assert!(report.files_moved > 0);
        assert!(report.fragments_after < report.fragments_before);
        assert!(after.fragments_per_object < before.fragments_per_object);
        assert_eq!(report.files_examined as usize, volume.file_count());
        assert!(report.bytes_copied > 0);
    }

    #[test]
    fn copy_budget_limits_work_performed() {
        let (mut volume, _) = fragmented_volume();
        let mut cursor = DefragCursor::new();
        let report = Defragmenter::new()
            .defragment_step(&mut volume, &mut cursor, 3 * MB)
            .unwrap();
        // Each victim is 2 MB: the first fits a 3 MB budget, the second
        // would overrun it and waits for the next step.
        assert_eq!(report.files_moved, 1);
        assert_eq!(report.bytes_copied, 2 * MB);
        assert_eq!(report.files_skipped, 0);
        assert!(!cursor.is_done());
    }

    #[test]
    fn incremental_steps_converge_to_the_volume_pass_layout() {
        let (mut whole, _) = fragmented_volume();
        let (mut stepped, _) = fragmented_volume();
        let defragmenter = Defragmenter::new();

        let full = whole_pass(&mut whole);

        let mut cursor = DefragCursor::new();
        let mut steps = 0;
        let mut total_copied = 0;
        let mut previous_fragments = stepped.fragmentation().total_fragments;
        while !cursor.is_done() {
            let report = defragmenter
                .defragment_step(&mut stepped, &mut cursor, 256 * 1024)
                .unwrap();
            total_copied += report.bytes_copied;
            let now = stepped.fragmentation().total_fragments;
            assert!(now <= previous_fragments, "a step may never add fragments");
            previous_fragments = now;
            steps += 1;
            assert!(steps < 10_000, "steps must terminate");
        }
        assert!(steps > 1, "a 256 KB budget must take several steps");
        assert_eq!(total_copied, full.bytes_copied);

        // The incremental pass ends in exactly the layout of the whole pass.
        let whole_layouts: Vec<_> = whole.iter_files().map(|f| f.layout().clone()).collect();
        let stepped_layouts: Vec<_> = stepped.iter_files().map(|f| f.layout().clone()).collect();
        assert_eq!(whole_layouts, stepped_layouts);
    }

    #[test]
    fn step_budget_defers_rather_than_skips() {
        let (mut volume, _) = fragmented_volume();
        let defragmenter = Defragmenter::new();
        let mut cursor = DefragCursor::new();
        // Budget smaller than any victim: the first step still moves one file
        // (the budget is a soft target), the rest wait for later steps.
        let report = defragmenter
            .defragment_step(&mut volume, &mut cursor, 1024)
            .unwrap();
        assert_eq!(report.files_moved, 1);
        assert!(!cursor.is_done());
        assert!(cursor.remaining() > 0);
    }

    #[test]
    fn cursor_reset_starts_a_fresh_pass() {
        let (mut volume, _) = fragmented_volume();
        let defragmenter = Defragmenter::new();
        let mut cursor = DefragCursor::new();
        while !cursor.is_done() {
            defragmenter
                .defragment_step(&mut volume, &mut cursor, 0)
                .unwrap();
        }
        cursor.reset();
        assert!(!cursor.is_done());
        // A fresh pass over the defragmented volume examines everything and
        // moves nothing.
        let report = defragmenter
            .defragment_step(&mut volume, &mut cursor, 0)
            .unwrap();
        assert!(cursor.is_done());
        assert_eq!(report.files_moved, 0);
        assert_eq!(report.files_examined as usize, volume.file_count());
    }

    #[test]
    fn missing_file_is_an_error() {
        let mut volume = Volume::format(VolumeConfig::new(16 * MB)).unwrap();
        assert!(Defragmenter::new()
            .defragment_file(&mut volume, FileId(99))
            .is_err());
    }

    use lor_alloc::{Extent, FreeSpace, PlacementPolicy};

    /// Builds the [`fragmented_volume`] fixture under an explicit placement.
    fn fragmented_volume_placed(placement: PlacementPolicy) -> (Volume, Vec<FileId>) {
        let mut config = VolumeConfig::new(64 * MB);
        config.checkpoint_interval_ops = 1;
        config.placement = placement;
        let mut volume = Volume::format(config).unwrap();
        let pads: Vec<FileId> = (0..256)
            .map(|i| {
                volume
                    .write_file(&format!("pad{i}"), 128 * 1024, 64 * 1024)
                    .unwrap()
                    .file_id
            })
            .collect();
        for id in pads.iter().step_by(2) {
            volume.delete(*id).unwrap();
        }
        volume.checkpoint();
        let victims: Vec<FileId> = (0..4)
            .map(|i| {
                volume
                    .write_file(&format!("victim{i}"), 2 * MB, 64 * 1024)
                    .unwrap()
                    .file_id
            })
            .collect();
        (volume, victims)
    }

    #[test]
    fn banded_defrag_relocates_into_the_maintenance_band() {
        let placement = PlacementPolicy::banded(0.75);
        let (mut volume, victims) = fragmented_volume_placed(placement);
        let boundary = placement.boundary_cluster(volume.config().total_clusters());
        let foreground_largest_before = volume
            .free_space()
            .largest_run_in(0, boundary)
            .map_or(0, |run| run.len);

        let report = whole_pass(&mut volume);
        assert!(report.files_moved > 0);
        for id in victims {
            let record = volume.file(id).unwrap();
            if let (1, Some(run)) = (record.fragment_count(), record.layout().last()) {
                assert!(
                    run.start >= boundary,
                    "moved file must land in the maintenance band, got {run:?}"
                );
            }
        }
        // Relocation only reserves in the high band and frees the victims'
        // old extents, so the foreground band's largest free run can only
        // have grown.
        let foreground_largest_after = volume
            .free_space()
            .largest_run_in(0, boundary)
            .map_or(0, |run| run.len);
        assert!(
            foreground_largest_after >= foreground_largest_before,
            "defrag must not shrink the foreground band's largest run \
             ({foreground_largest_before} -> {foreground_largest_after})"
        );
    }

    #[test]
    fn banded_defrag_falls_back_gracefully_when_the_band_is_full() {
        let placement = PlacementPolicy::banded(0.75);
        let (mut volume, _) = fragmented_volume_placed(placement);
        let total = volume.config().total_clusters();
        let boundary = placement.boundary_cluster(total);
        // Occupy the maintenance band completely (100% band occupancy).
        for run in volume.free_space().runs_in(0, total) {
            let start = run.start.max(boundary);
            if run.end() > start {
                let pin = Extent::new(start, run.end() - start);
                volume.pin(pin).unwrap();
            }
        }
        assert_eq!(volume.free_space().largest_run_in(boundary, total), None);

        let before: Vec<_> = volume.iter_files().map(|f| f.layout().clone()).collect();
        let foreground_runs = volume.free_space().runs_in(0, boundary);
        // The pass terminates, moves nothing (no deadlock, no spill into the
        // foreground band), and leaves every layout and foreground run
        // untouched.
        let report = whole_pass(&mut volume);
        assert_eq!(report.files_moved, 0);
        assert!(report.files_skipped > 0, "fragmented files are deferred");
        let after: Vec<_> = volume.iter_files().map(|f| f.layout().clone()).collect();
        assert_eq!(before, after);
        assert_eq!(volume.free_space().runs_in(0, boundary), foreground_runs);
    }

    #[test]
    fn reserve_defrag_leaves_runs_above_the_watermark_untouched() {
        let (mut volume, _) = fragmented_volume_placed(PlacementPolicy::Reserve);
        let watermark = volume.foreground_watermark();
        assert!(watermark > 0);
        let big_runs: Vec<Extent> = volume
            .free_space()
            .free_runs()
            .into_iter()
            .filter(|run| run.len > watermark)
            .collect();
        assert!(
            !big_runs.is_empty(),
            "fixture must have a run above the watermark for the test to bite"
        );

        whole_pass(&mut volume);
        // Every run above the watermark is still (at least) free: maintenance
        // may not consume it, and frees can only enlarge it.
        for run in big_runs {
            assert!(
                volume.free_space().is_free(run),
                "run {run:?} above the watermark must survive the pass"
            );
        }
        // A 100%-eligible-space-exhausted pass still terminates cleanly.
        let again = whole_pass(&mut volume);
        assert!(again.files_examined as usize == volume.file_count());
    }

    /// Oracle: under [`PlacementPolicy::Unrestricted`] the placement-aware
    /// defragmenter reproduces the pre-placement pass bit-identically.  The
    /// replica below is the PR 4 `defragment_file` loop — a plain foreground
    /// `allocate` of one contiguous run per candidate, most fragmented first.
    #[test]
    fn unrestricted_defrag_is_bit_identical_to_the_legacy_pass() {
        let (mut new_path, _) = fragmented_volume();
        let (mut legacy, _) = fragmented_volume();

        let report = whole_pass(&mut new_path);
        assert!(report.files_moved > 0, "fixture must exercise real moves");

        let mut candidates: Vec<(FileId, usize)> = legacy
            .iter_files()
            .map(|record| (record.id, record.fragment_count()))
            .collect();
        candidates.sort_by_key(|(_, fragments)| std::cmp::Reverse(*fragments));
        for (id, fragments) in candidates {
            if fragments <= 1 {
                continue;
            }
            let (old_extents, clusters) = {
                let record = legacy.file(id).unwrap();
                let old: Vec<Extent> = record.layout().runs().collect();
                (old, record.allocated_clusters())
            };
            let request = AllocRequest {
                clusters,
                hint: None,
                contiguity: Contiguity::Required,
            };
            let Ok(new_extents) = legacy
                .allocator_mut()
                .allocate_as(&request, PlacementConsumer::Foreground)
            else {
                continue;
            };
            legacy.file_mut(id).unwrap().layout = new_extents.into_iter().collect();
            legacy.allocator_mut().free(&old_extents).unwrap();
        }

        let new_layouts: Vec<_> = new_path.iter_files().map(|f| f.layout().clone()).collect();
        let legacy_layouts: Vec<_> = legacy.iter_files().map(|f| f.layout().clone()).collect();
        assert_eq!(new_layouts, legacy_layouts);
        assert_eq!(
            new_path.free_space().free_runs(),
            legacy.free_space().free_runs()
        );
    }
}
