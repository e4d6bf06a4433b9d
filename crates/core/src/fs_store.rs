//! The filesystem-backed object store (one file per object, safe writes).

use lor_alloc::{BandOccupancy, FragmentationSummary, FreeSpaceReport};
use lor_disksim::{merged, DiskConfig, SimDuration};
use lor_fskit::{
    DefragCursor, DefragReport, Defragmenter, FileId, Volume, VolumeConfig, WriteReceipt,
};

use crate::error::StoreError;
use crate::store::{
    Store, StoreKind, FS_CREATE_METADATA_IOS, FS_OPEN_METADATA_IOS, FS_PER_WRITE_REQUEST_TIME,
    METADATA_IO_TIME, PAPER_WRITE_REQUEST_SIZE,
};
use crate::substrate::{Moved, ReadPlan, Replaced, Substrate, Written};

/// Configuration of a filesystem-backed store: the volume and its disk.
#[derive(Debug, Clone, PartialEq)]
pub struct FsStoreConfig {
    /// The simulated volume.
    pub volume: VolumeConfig,
    /// The simulated disk the volume lives on.
    pub disk: DiskConfig,
}

impl FsStoreConfig {
    /// A volume of `capacity_bytes` on a scaled slice of the 400 GB
    /// reference disk.
    pub fn new(capacity_bytes: u64) -> Self {
        FsStoreConfig {
            volume: VolumeConfig::new(capacity_bytes),
            disk: DiskConfig::seagate_400gb_2005().scaled(capacity_bytes),
        }
    }
}

/// Objects stored as one file each on the NTFS-like volume.
pub type FsObjectStore = Store<FsSubstrate>;

impl FsObjectStore {
    /// A store on a volume of `capacity_bytes` with the paper's 64 KB write
    /// requests and no maintenance scheduler (the volume checkpoints on its
    /// own interval).
    pub fn new(capacity_bytes: u64) -> Result<Self, StoreError> {
        let FsStoreConfig { volume, disk } = FsStoreConfig::new(capacity_bytes);
        Store::build(volume, disk, PAPER_WRITE_REQUEST_SIZE, None, 0)
    }

    /// The underlying volume (read-only), for fragmentation reports and test
    /// fixtures.
    pub fn volume(&self) -> &Volume {
        &self.substrate.volume
    }
}

/// The NTFS-like volume as a [`Substrate`].
#[derive(Debug)]
pub struct FsSubstrate {
    pub(crate) volume: Volume,
    /// Resumable position of the incremental defragmentation pass.
    cursor: DefragCursor,
}

/// What the store must service and cost for one volume write, read off
/// `volume` once the write has committed.
fn written(volume: &Volume, receipt: WriteReceipt, request: u64) -> Written {
    // The committed file's extent count, not the request's run count.
    // When one batch names the same key twice, the later duplicate's
    // commit replaces (and removes) the earlier item's just-committed
    // file — last writer wins — and the earlier receipt falls back to
    // the fragments its request physically produced.
    let fragments = match volume.file(receipt.file_id) {
        Ok(file) => file.fragment_count(),
        Err(_) => merged(&receipt.runs).count(),
    };
    Written {
        handle: receipt.file_id.0,
        runs: receipt.runs,
        payload_bytes: receipt.bytes_written,
        units: receipt.bytes_written.div_ceil(request).max(1),
        fragments: fragments as u64,
        forced_copy: Moved::default(),
    }
}

/// Moving a file costs reading it and writing it back, plus a pair of
/// positioning delays per file moved.
fn moved(report: DefragReport) -> Moved {
    Moved {
        bytes_copied: report.bytes_copied,
        repositionings: 2 * report.files_moved,
        table_units: None,
    }
}

impl Substrate for FsSubstrate {
    type Config = VolumeConfig;
    type Handle = FileId;
    const KIND: StoreKind = StoreKind::Filesystem;
    const DISK_LABEL: &'static str = "fs-store";

    fn create(mut config: VolumeConfig, scheduled: bool) -> Result<Self, StoreError> {
        if scheduled {
            config.checkpoint_interval_ops = 0;
        }
        Ok(FsSubstrate {
            volume: Volume::format(config)?,
            cursor: DefragCursor::new(),
        })
    }

    fn insert(
        &mut self,
        key: &str,
        size: u64,
        request: u64,
        migrating: bool,
    ) -> Result<Written, StoreError> {
        let receipt = if migrating {
            self.volume.ingest_as_maintenance(key, size)
        } else {
            self.volume.write_file(key, size, request)
        }?;
        Ok(written(&self.volume, receipt, request))
    }

    fn reserve(&mut self, keys: usize) {
        self.volume.reserve(keys);
    }

    fn resolve(&self, key: &str) -> Option<FileId> {
        self.volume.id_of(key)
    }

    fn replace(&mut self, items: &[(FileId, u64)], request: u64) -> Result<Replaced, StoreError> {
        let receipts = self.volume.safe_write_batch_by_id(items, request)?;
        let written = receipts
            .into_iter()
            .map(|r| written(&self.volume, r, request));
        Ok(Replaced::All(written.collect()))
    }

    fn read_plan(&self, id: FileId) -> Option<ReadPlan> {
        let record = self.volume.file(id).ok()?;
        Some(ReadPlan {
            runs: record.byte_runs(self.volume.cluster_size()),
            payload_bytes: record.size_bytes,
            units: 0,
        })
    }

    fn remove(&mut self, id: FileId, _key: &str) -> Result<(), StoreError> {
        Ok(self.volume.delete(id)?)
    }

    /// Opening and creating the file (its metadata I/Os), plus a system call
    /// per write request.
    fn write_host_time(write_requests: u64, _payload: u64) -> SimDuration {
        METADATA_IO_TIME * (FS_OPEN_METADATA_IOS + FS_CREATE_METADATA_IOS)
            + FS_PER_WRITE_REQUEST_TIME * write_requests
    }

    /// Opening the file.
    fn read_host_time(_units: u64, _payload: u64) -> SimDuration {
        METADATA_IO_TIME * FS_OPEN_METADATA_IOS
    }

    fn remove_host_time() -> SimDuration {
        METADATA_IO_TIME
    }

    fn size(&self, id: FileId) -> Option<u64> {
        Some(self.volume.file(id).ok()?.size_bytes)
    }

    fn object_count(&self) -> usize {
        self.volume.file_count()
    }

    fn keys(&self) -> Vec<String> {
        self.volume
            .iter_files()
            .map(|f| f.name.as_str().to_owned())
            .collect()
    }

    fn live_bytes(&self) -> u64 {
        self.volume.iter_files().map(|f| f.size_bytes).sum()
    }

    fn data_capacity_bytes(&self) -> u64 {
        self.volume.data_capacity_bytes()
    }

    fn fragmentation(&self) -> FragmentationSummary {
        self.volume.fragmentation()
    }

    fn free_space_report(&self) -> FreeSpaceReport {
        self.volume.free_space_report()
    }

    fn band_occupancy(&self) -> BandOccupancy {
        self.volume.band_occupancy()
    }

    // No ghost backlog: deferred frees are released by the log commit
    // below; NTFS has no separate ghost mechanism.

    fn checkpoint(&mut self) -> Option<u64> {
        let pending = self.volume.pending_clusters();
        if pending == 0 {
            return None;
        }
        self.volume.checkpoint();
        Some(pending)
    }

    fn defragment_step(&mut self, budget_bytes: u64) -> Result<Moved, StoreError> {
        if self.cursor.is_done() {
            // The previous pass finished; start a fresh one so newly aged
            // files become candidates again.
            self.cursor.reset();
        }
        // Each copied byte is read once and written once.
        let copy_budget = (budget_bytes / 2).max(1);
        let defragmenter = Defragmenter::new();
        Ok(moved(defragmenter.defragment_step(
            &mut self.volume,
            &mut self.cursor,
            copy_budget,
        )?))
    }

    /// One unlimited step on a fresh cursor: the whole pass, leaving the
    /// incremental pass's position alone.
    fn full_pass(&mut self) -> Result<Moved, StoreError> {
        Ok(moved(Defragmenter::new().defragment_step(
            &mut self.volume,
            &mut DefragCursor::new(),
            0,
        )?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{ObjectStore, OpReceipt};
    use lor_maint::{MaintenanceConfig, MaintenancePolicy};

    const MB: u64 = 1 << 20;

    crate::store::adapter_suite!(FsObjectStore, StoreKind::Filesystem);

    #[test]
    fn maintenance_reports_copied_bytes() {
        let mut store = FsObjectStore::new(256 * MB).unwrap();
        for i in 0..8 {
            store.put(&format!("o{i}"), MB).unwrap();
        }
        // A clean store has nothing to defragment.
        assert_eq!(store.maintenance().unwrap(), 0);
    }

    #[test]
    fn full_pass_moves_every_fragmented_file_of_a_fixed_fixture() {
        let mut config = VolumeConfig::new(64 * MB);
        config.checkpoint_interval_ops = 1;
        let mut substrate = FsSubstrate::create(config, false).unwrap();
        let request = 64 * 1024;
        for i in 0..256 {
            substrate
                .insert(&format!("pad{i}"), 128 * 1024, request, false)
                .unwrap();
        }
        for i in (0..256).step_by(2) {
            let key = format!("pad{i}");
            substrate
                .remove(substrate.resolve(&key).unwrap(), &key)
                .unwrap();
        }
        substrate.checkpoint();
        // Four 2 MB files scattered over the 128 KB holes.
        for i in 0..4 {
            substrate
                .insert(&format!("victim{i}"), 2 * MB, request, false)
                .unwrap();
        }
        let before = substrate.fragmentation().total_fragments;
        assert_eq!(
            substrate.full_pass().unwrap(),
            Moved {
                bytes_copied: 8 * MB,
                repositionings: 8,
                table_units: None,
            }
        );
        assert!(substrate.fragmentation().total_fragments < before);
        // A second pass finds nothing left to move.
        assert_eq!(substrate.full_pass().unwrap(), Moved::default());
    }

    /// A batch's receipts count the fragments each version was written
    /// into, taken when the batch commits, so the maintenance tick the
    /// batch's first item triggers cannot reach a later item's count.  Two
    /// stores run one script: 7 puts, then a batch whose first commit is
    /// the 8th operation, the first tick.  Under a 512-unit budget that
    /// tick defragments the batch's interleaved new files; under `Idle` it
    /// moves nothing.  While the store read each item's count off the
    /// volume after the previous item's tick, the budgeted store reported
    /// the later items as defragmented.
    #[test]
    fn a_batch_reports_the_fragments_it_wrote_before_any_tick_moves_them() {
        let receipts = |maintenance: MaintenanceConfig| {
            let FsStoreConfig { volume, disk } = FsStoreConfig::new(256 * MB);
            let mut store =
                FsObjectStore::build(volume, disk, PAPER_WRITE_REQUEST_SIZE, Some(maintenance), 0)
                    .unwrap();
            assert_eq!(store.volume().config().checkpoint_interval_ops, 0);
            for i in 0..7 {
                store.put(&format!("o{i}"), MB).unwrap();
            }
            let batch: Vec<(String, u64)> = (0..4).map(|i| (format!("o{i}"), 2 * MB)).collect();
            let receipts = store.safe_write_batch(&batch).unwrap();
            let stats = store.maintenance_stats().unwrap();
            (receipts, stats.ticks, stats.background_bytes)
        };
        let (budgeted, ticks, moved) = receipts(MaintenanceConfig::fixed_budget(512));
        let (idle, idle_ticks, idle_moved) = receipts(MaintenanceConfig::idle());
        assert_eq!(
            (ticks, idle_ticks),
            (1, 1),
            "the batch's first commit ticks"
        );
        assert!(moved > 0 && idle_moved == 0, "{moved} / {idle_moved}");
        assert!(idle.iter().all(|r| r.fragments > 1), "{idle:?}");
        let fragments =
            |receipts: &[OpReceipt]| receipts.iter().map(|r| r.fragments).collect::<Vec<_>>();
        assert_eq!(fragments(&budgeted), fragments(&idle));
    }

    #[test]
    fn substrate_aware_requires_the_server_drive() {
        // A gap-filling policy cannot be configured without the server
        // drive: put together from the bare policy, never asked for it, the
        // config still answers `server_driven`, the store builds, and the
        // server reads the config off the store.
        let FsStoreConfig { volume, disk } = FsStoreConfig::new(64 * MB);
        let bare = MaintenanceConfig::new(MaintenancePolicy::SubstrateAware {
            min_idle_ms: 5.0,
            defer_ghost_ms: 2000.0,
        });
        let store =
            FsObjectStore::build(volume, disk, PAPER_WRITE_REQUEST_SIZE, Some(bare), 0).unwrap();
        assert!(store.maintenance_config().unwrap().server_driven());
    }
}
