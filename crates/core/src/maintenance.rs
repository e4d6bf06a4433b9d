//! Binding the `lor-maint` background scheduler to the object store.
//!
//! The scheduler is substrate-agnostic: it budgets bytes and accumulates
//! time.  [`Drive`] is the one [`MaintTarget`] adapter: it maps the
//! scheduler's three duties onto whichever [`Substrate`] the store wraps,
//! which reports *what it moved*, and costs the resulting I/O with the
//! store's own disk geometry:
//!
//! | duty            | filesystem                          | database                              | segment log                          |
//! |-----------------|-------------------------------------|---------------------------------------|--------------------------------------|
//! | checkpoint      | drain the pending-free queue        | force the log (bulk-logged mode)      | force the segment-usage table        |
//! | ghost cleanup   | (folded into the checkpoint)        | reclaim ghost pages / empty extents   | none — cleaning is the only reclamation |
//! | defragmentation | `Defragmenter::defragment_step`     | `Database::compact_step`              | `SegmentLog::clean_step`             |

use lor_disksim::DiskConfig;
use lor_maint::{MaintIo, MaintSubstrate, MaintTarget};

use crate::store::CostModel;
use crate::substrate::{Moved, Substrate};

/// Bytes charged per metadata I/O when costing maintenance passes (one small
/// random read-modify-write of a bitmap / PFS / log page).
const METADATA_IO_BYTES: u64 = 4096;

/// Pages (or clusters) whose allocation state one metadata page covers, so a
/// cleanup pass over `n` units costs `1 + n / UNITS_PER_METADATA_IO` I/Os.
const UNITS_PER_METADATA_IO: u64 = 512;

/// Ticks the defragmentation task sleeps after a pass that found nothing to
/// move, so a converged store is not re-scanned (an O(objects) walk) on every
/// single tick.
const DEFRAG_BACKOFF_TICKS: u64 = 15;

/// Cost of a metadata sweep updating the allocation state of `units` pages,
/// clusters or segments (a bare log force when `units` is zero).
fn metadata_sweep_io(cost: &CostModel, units: u64) -> MaintIo {
    let ios = 1 + units / UNITS_PER_METADATA_IO;
    MaintIo::new(ios * METADATA_IO_BYTES, cost.metadata_io_time * ios)
}

/// Cost of the background copy behind `moved`: every byte is read once and
/// written once, plus its repositioning delays.
pub(crate) fn copy_io(disk: &DiskConfig, moved: &Moved) -> MaintIo {
    let bytes = moved.bytes_copied.saturating_mul(2);
    MaintIo::new(
        bytes,
        disk.background_copy_time(bytes, moved.repositionings),
    )
}

/// [`MaintTarget`] over a store's substrate, borrowed for one tick or slice.
pub(crate) struct Drive<'a, S> {
    substrate: &'a mut S,
    disk: &'a DiskConfig,
    cost: &'a CostModel,
    /// Remaining ticks of the post-convergence defragmentation back-off.
    defrag_backoff: &'a mut u64,
    /// What this drive's defragmentation steps moved.
    pub moved: Moved,
}

impl<'a, S> Drive<'a, S> {
    pub fn new(
        substrate: &'a mut S,
        disk: &'a DiskConfig,
        cost: &'a CostModel,
        defrag_backoff: &'a mut u64,
    ) -> Self {
        Drive {
            substrate,
            disk,
            cost,
            defrag_backoff,
            moved: Moved::default(),
        }
    }
}

impl<S: Substrate> MaintTarget for Drive<'_, S> {
    fn substrate(&self) -> MaintSubstrate {
        S::REUSE
    }

    fn reclaimable_bytes(&self) -> u64 {
        self.substrate.reclaimable_bytes()
    }

    fn fragments_per_object(&self) -> f64 {
        self.substrate.fragmentation().fragments_per_object
    }

    fn excess_fragments(&self) -> u64 {
        self.substrate.fragmentation().excess_fragments()
    }

    fn ghost_cleanup(&mut self, budget_bytes: u64) -> MaintIo {
        let Some((units, unit_bytes)) = self.substrate.ghost_cleanup(budget_bytes) else {
            return MaintIo::NONE;
        };
        let visit_bytes = units.saturating_mul(unit_bytes);
        let visits = self
            .disk
            .background_copy_time(visit_bytes, 1 + units / UNITS_PER_METADATA_IO);
        let sweep = metadata_sweep_io(self.cost, units);
        MaintIo::new(visit_bytes + sweep.bytes, visits + sweep.time)
    }

    fn checkpoint(&mut self) -> MaintIo {
        match self.substrate.checkpoint() {
            Some(units) => metadata_sweep_io(self.cost, units),
            None => MaintIo::NONE,
        }
    }

    fn defragment_step(&mut self, budget_bytes: u64) -> MaintIo {
        if *self.defrag_backoff > 0 {
            *self.defrag_backoff -= 1;
            return MaintIo::NONE;
        }
        let Ok(moved) = self.substrate.defragment_step(budget_bytes) else {
            return MaintIo::NONE;
        };
        if moved.is_empty() {
            // The layout is as good as the substrate can make it right now:
            // back off instead of re-scanning every tick.
            *self.defrag_backoff = DEFRAG_BACKOFF_TICKS;
            return MaintIo::NONE;
        }
        self.moved.absorb(moved);
        let io = copy_io(self.disk, &moved);
        match moved.table_units {
            Some(units) => io.combined(&metadata_sweep_io(self.cost, units)),
            None => io,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fs_store::FsSubstrate;
    use crate::log_store::LogSubstrate;
    use crate::substrate::WriteOp;
    use lor_blobkit::Database;
    use lor_fskit::VolumeConfig;

    const MB: u64 = 1 << 20;
    const WRITE_REQUEST: u64 = 64 * 1024;

    fn disk() -> DiskConfig {
        DiskConfig::seagate_400gb_2005().scaled(64 * MB)
    }

    #[test]
    fn fs_target_checkpoint_drains_the_pending_queue() {
        let mut volume = FsSubstrate::create(VolumeConfig::new(64 * MB), true).unwrap();
        volume.write(WriteOp::Put, "a", MB, WRITE_REQUEST).unwrap();
        volume.remove("a").unwrap();
        let (disk, cost, mut backoff) = (disk(), CostModel::default(), 0);
        let mut target = Drive::new(&mut volume, &disk, &cost, &mut backoff);
        assert!(target.reclaimable_bytes() >= MB);
        let io = target.checkpoint();
        assert!(!io.is_none());
        assert_eq!(target.reclaimable_bytes(), 0);
        assert!(target.checkpoint().is_none(), "nothing left to drain");
    }

    #[test]
    fn substrate_declarations_match_each_engines_reuse_behaviour() {
        let (disk, cost, mut backoff) = (disk(), CostModel::default(), 0);
        let mut volume = FsSubstrate::create(VolumeConfig::new(64 * MB), false).unwrap();
        let fs = Drive::new(&mut volume, &disk, &cost, &mut backoff);
        assert_eq!(fs.substrate(), MaintSubstrate::DeferredReuse);

        let mut db = Database::create(lor_blobkit::EngineConfig::new(64 * MB)).unwrap();
        let db_target = Drive::new(&mut db, &disk, &cost, &mut backoff);
        assert_eq!(db_target.substrate(), MaintSubstrate::EagerReuse);
    }

    #[test]
    fn db_target_cleanup_and_compaction_report_io() {
        let mut db =
            <Database as Substrate>::create(lor_blobkit::EngineConfig::new(64 * MB), true).unwrap();
        for i in 0..16 {
            db.insert(&format!("o{i}"), MB).unwrap();
        }
        for round in 0..6 {
            for i in 0..16 {
                db.update(&format!("o{}", (i * 5 + round) % 16), MB)
                    .unwrap();
            }
        }
        let (disk, cost, mut backoff) = (disk(), CostModel::default(), 0);
        let mut target = Drive::new(&mut db, &disk, &cost, &mut backoff);
        assert!(target.reclaimable_bytes() > 0);
        // A one-I/O budget reclaims at most its metadata page's worth of
        // ghosts; repeated budgeted passes drain the rest.
        let before = target.reclaimable_bytes();
        let first = target.ghost_cleanup(METADATA_IO_BYTES);
        assert!(!first.is_none());
        let after = target.reclaimable_bytes();
        assert!(after < before);
        assert!(
            before - after <= 512 * 8192,
            "a one-I/O budget reclaims at most 512 pages"
        );
        while target.reclaimable_bytes() > 0 {
            assert!(!target.ghost_cleanup(1 << 20).is_none());
        }
        assert_eq!(target.reclaimable_bytes(), 0);
        assert!(
            target.ghost_cleanup(1 << 20).is_none(),
            "an empty backlog costs nothing"
        );
        assert!(!target.checkpoint().is_none(), "log force always costs");

        let before = target.fragments_per_object();
        assert!(before > 1.0, "fixture must be fragmented");
        let mut moved = MaintIo::NONE;
        for _ in 0..256 {
            let step = target.defragment_step(512 * 1024);
            if step.is_none() {
                break;
            }
            moved = moved.combined(&step);
        }
        assert!(moved.bytes > 0);
        assert!(moved.time > lor_disksim::SimDuration::ZERO);
        assert!(target.fragments_per_object() < before);
        assert_eq!(
            moved.bytes,
            2 * target.moved.bytes_copied,
            "every moved byte is read once and written once"
        );
    }

    #[test]
    fn log_target_cleans_and_reports_io() {
        let mut config = lor_logstore::LogConfig::new(64 * MB);
        config.segment_bytes = MB;
        let mut log = LogSubstrate::create(config, true).unwrap();
        // Two half-MB objects per segment, every other one deleted: every
        // sealed segment is half dead.
        for id in 0..16 {
            log.write(WriteOp::Put, &format!("o{id}"), MB / 2, WRITE_REQUEST)
                .unwrap();
        }
        for id in (0..16).step_by(2) {
            log.remove(&format!("o{id}")).unwrap();
        }
        let (disk, cost, mut backoff) = (disk(), CostModel::default(), 0);
        let mut target = Drive::new(&mut log, &disk, &cost, &mut backoff);
        assert_eq!(target.substrate(), MaintSubstrate::LogStructured);
        assert!(target.reclaimable_bytes() > 0);
        assert!(
            target.ghost_cleanup(1 << 20).is_none(),
            "cleaning is the only reclamation"
        );
        assert!(!target.checkpoint().is_none(), "table force always costs");
        let step = target.defragment_step(4 * MB);
        assert!(!step.is_none());
        assert!(step.bytes > 0);
        while target.reclaimable_bytes() > 0 {
            if target.defragment_step(4 * MB).is_none() {
                break;
            }
        }
        assert_eq!(target.reclaimable_bytes(), 0);
        // A converged log backs the task off instead of re-scoring segments.
        assert!(target.defragment_step(4 * MB).is_none());
        assert!(*target.defrag_backoff > 0);
    }
}
