//! The filesystem-backed object store (one file per object, safe writes).

use lor_alloc::{BandOccupancy, FragmentationSummary, FreeSpaceReport};
use lor_disksim::{DiskConfig, SimDuration};
use lor_fskit::{
    DefragCursor, DefragReport, Defragmenter, FileId, Volume, VolumeConfig, WriteReceipt,
};

use crate::error::StoreError;
use crate::store::{
    Store, StoreKind, FS_CREATE_METADATA_IOS, FS_OPEN_METADATA_IOS, FS_PER_WRITE_REQUEST_TIME,
    METADATA_IO_TIME, PAPER_WRITE_REQUEST_SIZE,
};
use crate::substrate::{Moved, ReadPlan, Substrate, WriteOp, Written, WrittenFragments};

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
        Store::build(volume, disk, PAPER_WRITE_REQUEST_SIZE, None)
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

/// What the store must service and cost for one volume write.
fn written(receipt: WriteReceipt, request: u64) -> Written {
    Written {
        runs: receipt.runs,
        payload_bytes: receipt.bytes_written,
        units: receipt.bytes_written.div_ceil(request).max(1),
        // The committed file's extent count, not the request's run count.
        // When one batch names the same key twice, the later duplicate's
        // commit replaces (and removes) the earlier item's just-committed
        // file — last writer wins — and the earlier receipt falls back to
        // the fragments its request physically produced.
        fragments: WrittenFragments::OfRecord(receipt.file_id.0),
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

    fn write(
        &mut self,
        op: WriteOp,
        key: &str,
        size: u64,
        request: u64,
    ) -> Result<Written, StoreError> {
        let receipt = match op {
            WriteOp::Put => self.volume.write_file(key, size, request),
            WriteOp::Replace => self.volume.safe_write(key, size, request),
            WriteOp::MigrateIn => self.volume.ingest_as_maintenance(key, size),
        }?;
        Ok(written(receipt, request))
    }

    fn replace_interleaved(
        &mut self,
        items: &[(String, u64)],
        request: u64,
    ) -> Result<Option<Vec<Written>>, StoreError> {
        let borrowed: Vec<(&str, u64)> = items.iter().map(|(k, s)| (k.as_str(), *s)).collect();
        let receipts = self.volume.safe_write_batch(&borrowed, request)?;
        Ok(Some(
            receipts.into_iter().map(|r| written(r, request)).collect(),
        ))
    }

    fn read_plan(&self, key: &str) -> Result<ReadPlan, StoreError> {
        let record = self.volume.file(self.volume.lookup(key)?)?;
        Ok(ReadPlan {
            runs: record.byte_runs(self.volume.cluster_size()),
            payload_bytes: record.size_bytes,
            units: 0,
        })
    }

    fn remove(&mut self, key: &str) -> Result<(), StoreError> {
        Ok(self.volume.delete_by_name(key)?)
    }

    fn record_fragments(&self, version: u64) -> Option<u64> {
        let record = self.volume.file(FileId(version)).ok()?;
        Some(record.fragment_count() as u64)
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

    fn size_of(&self, key: &str) -> Result<u64, StoreError> {
        let id = self.volume.lookup(key)?;
        Ok(self.volume.file(id)?.size_bytes)
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
    use crate::store::ObjectStore;
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
                .write(WriteOp::Put, &format!("pad{i}"), 128 * 1024, request)
                .unwrap();
        }
        for i in (0..256).step_by(2) {
            substrate.remove(&format!("pad{i}")).unwrap();
        }
        substrate.checkpoint();
        // Four 2 MB files scattered over the 128 KB holes.
        for i in 0..4 {
            substrate
                .write(WriteOp::Put, &format!("victim{i}"), 2 * MB, request)
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
            FsObjectStore::build(volume, disk, PAPER_WRITE_REQUEST_SIZE, Some(bare)).unwrap();
        assert!(store.maintenance_config().unwrap().server_driven());
    }
}
