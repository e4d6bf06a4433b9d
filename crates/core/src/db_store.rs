//! The database-backed object store (one out-of-row BLOB per object).

use lor_alloc::{BandOccupancy, FragmentationSummary, FreeSpaceReport};
use lor_blobkit::{BlobId, Database, DbWriteReceipt, EngineConfig};
use lor_disksim::{merged, DiskConfig, SimDuration};

use crate::error::StoreError;
use crate::store::{
    Store, StoreKind, DB_CLIENT_CHUNK_BYTES, DB_LOOKUP_TIME, DB_PER_CHUNK_TIME, DB_PER_PAGE_TIME,
    PAPER_WRITE_REQUEST_SIZE,
};
use crate::substrate::{Moved, ReadPlan, Replaced, Substrate, Written};

/// Configuration of a database-backed store: the engine and its disk.
#[derive(Debug, Clone, PartialEq)]
pub struct DbStoreConfig {
    /// The storage engine and its data file.
    pub engine: EngineConfig,
    /// The simulated disk the data file lives on.
    pub disk: DiskConfig,
}

impl DbStoreConfig {
    /// A data file of `capacity_bytes` on a scaled slice of the 400 GB
    /// reference disk.
    pub fn new(capacity_bytes: u64) -> Self {
        DbStoreConfig {
            engine: EngineConfig::new(capacity_bytes),
            disk: DiskConfig::seagate_400gb_2005().scaled(capacity_bytes),
        }
    }
}

/// Objects stored as out-of-row BLOBs in the SQL-Server-like engine.
pub type DbObjectStore = Store<Database>;

impl DbObjectStore {
    /// A store with a data file of `capacity_bytes`, the paper's 64 KB
    /// client write requests and no maintenance scheduler (the engine
    /// cleans its ghosts on its own interval).
    pub fn new(capacity_bytes: u64) -> Result<Self, StoreError> {
        let DbStoreConfig { engine, disk } = DbStoreConfig::new(capacity_bytes);
        Store::build(engine, disk, PAPER_WRITE_REQUEST_SIZE, None, 0)
    }

    /// The underlying engine (read-only).
    pub fn database(&self) -> &Database {
        &self.substrate
    }
}

/// What the store must service and cost for one engine write.  The
/// receipt's runs are the version's maximal page runs, so their number is
/// its fragment count.
fn written(receipt: DbWriteReceipt) -> Written {
    let fragments = receipt.runs.len() as u64;
    debug_assert_eq!(fragments, merged(&receipt.runs).count() as u64);
    Written {
        handle: receipt.blob_id.0,
        runs: receipt.runs,
        payload_bytes: receipt.bytes_written,
        units: receipt.pages_written,
        fragments,
        forced_copy: Moved::default(),
    }
}

impl Substrate for Database {
    type Config = EngineConfig;
    type Handle = BlobId;
    const KIND: StoreKind = StoreKind::Database;
    const DISK_LABEL: &'static str = "db-store";

    fn create(mut config: EngineConfig, scheduled: bool) -> Result<Self, StoreError> {
        if scheduled {
            config.ghost_cleanup_interval_ops = 0;
        }
        Ok(Database::create(config)?)
    }

    fn insert(
        &mut self,
        key: &str,
        size: u64,
        _request: u64,
        migrating: bool,
    ) -> Result<Written, StoreError> {
        Ok(written(if migrating {
            self.insert_as_maintenance(key, size)
        } else {
            Database::insert(self, key, size)
        }?))
    }

    fn reserve(&mut self, keys: usize) {
        Database::reserve(self, keys);
    }

    fn resolve(&self, key: &str) -> Option<BlobId> {
        self.id_of(key)
    }

    fn replace(&mut self, items: &[(BlobId, u64)], request: u64) -> Result<Replaced, StoreError> {
        let receipts = self.update_batch_by_id(items, request)?;
        Ok(Replaced::All(receipts.into_iter().map(written).collect()))
    }

    fn read_plan(&self, id: BlobId) -> Option<ReadPlan> {
        let record = self.blob(id)?;
        Some(ReadPlan {
            runs: record.byte_runs(self.config().page_size, self.config().base_offset),
            payload_bytes: record.size_bytes,
            units: record.page_count(),
        })
    }

    fn remove(&mut self, id: BlobId, _key: &str) -> Result<(), StoreError> {
        Ok(self.delete_by_id(id)?)
    }

    /// Same shape as the read path; bulk-logged mode means there is no
    /// second log copy of the data.
    fn write_host_time(pages: u64, payload_bytes: u64) -> SimDuration {
        Self::read_host_time(pages, payload_bytes)
    }

    /// The lookup, per-page processing, and one round trip per client chunk.
    fn read_host_time(pages: u64, payload_bytes: u64) -> SimDuration {
        let chunks = payload_bytes.div_ceil(DB_CLIENT_CHUNK_BYTES).max(1);
        DB_LOOKUP_TIME + DB_PER_PAGE_TIME * pages + DB_PER_CHUNK_TIME * chunks
    }

    fn remove_host_time() -> SimDuration {
        DB_LOOKUP_TIME
    }

    fn size(&self, id: BlobId) -> Option<u64> {
        Some(self.blob(id)?.size_bytes)
    }

    fn object_count(&self) -> usize {
        Database::object_count(self)
    }

    fn keys(&self) -> Vec<String> {
        self.iter_blobs()
            .map(|b| b.key.as_str().to_owned())
            .collect()
    }

    fn live_bytes(&self) -> u64 {
        self.iter_blobs().map(|b| b.size_bytes).sum()
    }

    fn data_capacity_bytes(&self) -> u64 {
        Database::data_capacity_bytes(self)
    }

    fn fragmentation(&self) -> FragmentationSummary {
        Database::fragmentation(self)
    }

    fn free_space_report(&self) -> FreeSpaceReport {
        Database::free_space_report(self)
    }

    fn band_occupancy(&self) -> BandOccupancy {
        Database::band_occupancy(self)
    }

    fn reclaimable_bytes(&self) -> u64 {
        self.ghost_page_count() * self.config().page_size
    }

    fn ghost_cleanup(&mut self, budget_bytes: u64) -> Option<(u64, u64)> {
        if self.ghost_page_count() == 0 {
            return None;
        }
        let page_size = self.config().page_size.max(1);
        // The cleanup task *visits* each ghosted page (a read-modify-write
        // clearing the ghost record and its PFS/IAM bits), so a budgeted pass
        // reclaims at most the budget's worth of page visits — at least one,
        // so a pass always makes progress — and a big backlog drains over
        // several passes.  The engine releases the selected pages tail-first
        // (highest offsets), keeping the backlog's low-offset holes away from
        // its lowest-first reuse; see `ghost_cleanup_limited` and the
        // small-budget pathology recorded in EXPERIMENTS.md.
        let max_pages = (budget_bytes / page_size).max(1);
        Some((self.ghost_cleanup_limited(max_pages), page_size))
    }

    fn checkpoint(&mut self) -> Option<u64> {
        // Bulk-logged mode: the periodic checkpoint is a bare log force.
        Some(0)
    }

    fn defragment_step(&mut self, budget_bytes: u64) -> Result<Moved, StoreError> {
        let page_size = self.config().page_size.max(1);
        // Each moved page is read once and written once.
        let page_budget = (budget_bytes / (2 * page_size)).max(1);
        let report = self.compact_step(page_budget);
        Ok(Moved {
            bytes_copied: report.pages_moved * page_size,
            repositionings: 2 * report.blobs_moved,
            table_units: None,
        })
    }

    fn full_pass(&mut self) -> Result<Moved, StoreError> {
        // The rebuild reads every object and writes it back sequentially:
        // one positioning delay per object.
        let objects = Database::object_count(self) as u64;
        Ok(Moved {
            bytes_copied: self.rebuild_into_new_filegroup()?,
            repositionings: objects,
            table_units: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::ObjectStore;
    use lor_maint::MaintenanceConfig;

    const MB: u64 = 1 << 20;

    crate::store::adapter_suite!(DbObjectStore, StoreKind::Database);

    /// A store with a data file of `capacity_bytes` and the maintenance
    /// scheduler `maintenance` attached.
    fn maintained(capacity_bytes: u64, maintenance: MaintenanceConfig) -> DbObjectStore {
        let DbStoreConfig { engine, disk } = DbStoreConfig::new(capacity_bytes);
        Store::build(engine, disk, PAPER_WRITE_REQUEST_SIZE, Some(maintenance), 0).unwrap()
    }

    /// A put whose metadata row finds no page comes back `OutOfSpace` and
    /// leaves nothing behind, as `a_failed_put_leaves_nothing_behind_on_any_substrate`
    /// asks of every substrate: an 8,320 KiB data file holds 1,024 one-page
    /// objects with its last extent free and its row pages full, so the
    /// 1,025th put's page fits and its row does not.  While the engine
    /// filed the object before its row, `contains` was true after the
    /// error.
    #[test]
    fn a_put_whose_metadata_row_finds_no_page_leaves_nothing_behind() {
        let mut store = DbObjectStore::new(8_320 * 1024).unwrap();
        for i in 0..1_024 {
            store.put(&format!("k{i}"), 8_064).unwrap();
        }
        let err = store.put("last", 8_064).unwrap_err();
        assert!(matches!(err, StoreError::OutOfSpace(_)), "{err:?}");
        assert!(!store.contains("last"));
        assert_eq!(store.object_count(), 1_024);
        store.database().verify().unwrap();
        store.delete("k0").unwrap();
        store.put("last", 8_064).unwrap();
        assert_eq!(store.object_count(), 1_024);
        store.database().verify().unwrap();
    }

    #[test]
    fn substrate_aware_slices_defer_ghost_release_but_still_compact() {
        // A server-driven substrate-aware store: the store itself never
        // ticks (the request scheduler owns the drive), but budgeted slices
        // must respect the deferral — early slices may compact and
        // checkpoint while the ghost backlog is young, and the backlog is
        // only released once it has aged past the configured hold of
        // simulated time.
        let mut store = maintained(256 * MB, MaintenanceConfig::substrate_aware(5.0, 60_000.0));
        for i in 0..16 {
            store.put(&format!("o{i}"), MB).unwrap();
        }
        for round in 0..3 {
            for i in 0..16 {
                store
                    .safe_write(&format!("o{}", (i * 5 + round) % 16), MB)
                    .unwrap();
            }
        }
        let ghosts_before = store.database().ghost_page_count();
        assert!(ghosts_before > 0, "aging must leave a ghost backlog");
        // Slices within the first seconds: far younger than the 60 s hold
        // (the scheduler's own background time stays well below it too).
        for second in 1..=6u64 {
            store.maintenance_slice(1 << 22, SimDuration::from_secs(second));
            assert_eq!(
                store.database().ghost_page_count(),
                ghosts_before,
                "ghost release must be deferred while the backlog is young"
            );
        }
        // The aged backlog drains (over several budgeted passes: cleanup is
        // due every 8th tick and each 4 MB budget visits at most 512 pages).
        for second in 0..256u64 {
            if store.database().ghost_page_count() == 0 {
                break;
            }
            store.maintenance_slice(1 << 22, SimDuration::from_secs(120 + second));
        }
        assert_eq!(store.database().ghost_page_count(), 0);
        let stats = store.maintenance_stats().unwrap();
        assert!(stats.ghost_cleanup.runs > 0);
        assert!(
            stats.background_bytes > 0,
            "compaction/checkpoint work ran even while ghosts were held"
        );
    }

    #[test]
    fn maintenance_scheduler_cleans_ghosts_and_charges_the_clock() {
        let mut store = maintained(128 * MB, MaintenanceConfig::fixed_budget(16));
        assert!(store.maintenance_stats().is_some());
        assert_eq!(
            store.database().config().ghost_cleanup_interval_ops,
            0,
            "the scheduler owns ghost cleanup"
        );

        for i in 0..16 {
            store.put(&format!("o{i}"), MB).unwrap();
        }
        for round in 0..3 {
            for i in 0..16 {
                store
                    .safe_write(&format!("o{}", (i * 5 + round) % 16), MB)
                    .unwrap();
            }
        }
        let stats = store.maintenance_stats().unwrap();
        assert!(stats.ticks > 0);
        assert!(stats.ghost_cleanup.runs > 0, "ghosts must get reclaimed");
        assert!(stats.background_time > SimDuration::ZERO);
        assert!(store.elapsed() > stats.background_time);
        assert_eq!(
            store.database().stats().ghost_cleanups,
            stats.ghost_cleanup.runs,
            "every engine cleanup was scheduler-driven"
        );
    }

    #[test]
    fn maintenance_rebuild_leaves_objects_contiguous() {
        let mut store = DbObjectStore::new(256 * MB).unwrap();
        for i in 0..16 {
            store.put(&format!("o{i}"), MB).unwrap();
        }
        // Age it a little so the rebuild has something to repair.
        for round in 0..4 {
            for i in 0..16 {
                store
                    .safe_write(&format!("o{}", (i * 5 + round) % 16), MB)
                    .unwrap();
            }
        }
        let copied = store.maintenance().unwrap();
        assert_eq!(copied, 16 * MB);
        let summary = store.fragmentation();
        assert!((summary.fragments_per_object - 1.0).abs() < 1e-9);
    }
}
