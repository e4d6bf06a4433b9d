//! The database-backed object store (one out-of-row BLOB per object).

use lor_blobkit::{Database, EngineConfig};
use lor_disksim::{Disk, DiskConfig, IoRequest, ServiceTime, SimClock, SimDuration};
use lor_maint::{MaintenanceConfig, MaintenanceStats};
use lor_obs::Obs;
use serde::{Deserialize, Serialize};

use crate::error::StoreError;
use crate::maintenance::{DbMaintTarget, MaintenanceState};
use crate::store::{CostModel, ObjectStore, OpReceipt, StoreKind};

/// Configuration of a database-backed store.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DbStoreConfig {
    /// The storage engine and its data file.
    pub engine: EngineConfig,
    /// The simulated disk the data file lives on.
    pub disk: DiskConfig,
    /// Size of the client write requests used to stream object data in (the
    /// paper's experiments use 64 KB).
    pub write_request_size: u64,
    /// Host-side cost model.
    pub cost: CostModel,
    /// Background maintenance scheduler, if any.  When set, the engine's own
    /// interval-driven ghost cleanup is disabled and the `lor-maint`
    /// scheduler owns cleanup, checkpointing and incremental compaction
    /// (allocation-pressure emergency cleanups remain in the substrate).
    pub maintenance: Option<MaintenanceConfig>,
}

impl DbStoreConfig {
    /// A store with a data file of `capacity_bytes`, using the paper's
    /// defaults.
    pub fn new(capacity_bytes: u64) -> Self {
        DbStoreConfig {
            engine: EngineConfig::new(capacity_bytes),
            disk: DiskConfig::seagate_400gb_2005().scaled(capacity_bytes),
            write_request_size: 64 * 1024,
            cost: CostModel::default(),
            maintenance: None,
        }
    }
}

/// Objects stored as out-of-row BLOBs in the SQL-Server-like engine.
#[derive(Debug)]
pub struct DbObjectStore {
    db: Database,
    disk: Disk,
    cost: CostModel,
    clock: SimClock,
    write_request_size: u64,
    maintenance: Option<MaintenanceState>,
}

impl DbObjectStore {
    /// Creates a store from an explicit configuration.
    pub fn with_config(mut config: DbStoreConfig) -> Result<Self, StoreError> {
        if config.write_request_size == 0 {
            return Err(StoreError::BadConfig(
                "write request size must be non-zero".into(),
            ));
        }
        let maintenance = match config.maintenance {
            Some(maint_config) => {
                maint_config
                    .validate()
                    .map_err(|message| StoreError::BadConfig(message.into()))?;
                // The scheduler owns ghost cleanup now; only the
                // allocation-pressure emergency path stays in the engine.
                config.engine.ghost_cleanup_interval_ops = 0;
                Some(MaintenanceState::new(maint_config))
            }
            None => None,
        };
        let db = Database::create(config.engine)?;
        Ok(DbObjectStore {
            db,
            disk: Disk::new(config.disk),
            cost: config.cost,
            clock: SimClock::new(),
            write_request_size: config.write_request_size,
            maintenance,
        })
    }

    /// Creates a store with a data file of `capacity_bytes` and defaults.
    pub fn new(capacity_bytes: u64) -> Result<Self, StoreError> {
        Self::with_config(DbStoreConfig::new(capacity_bytes))
    }

    /// The underlying engine (read-only).
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// Mutable access to the underlying engine, for fixtures.
    pub fn database_mut(&mut self) -> &mut Database {
        &mut self.db
    }

    /// The underlying disk model (read-only).
    pub fn disk(&self) -> &Disk {
        &self.disk
    }

    fn charge(&mut self, disk_time: ServiceTime, host_time: SimDuration) {
        self.clock.advance(disk_time.total() + host_time);
    }

    /// Reports a completed mutating operation of duration `op_time` to the
    /// background scheduler (if any) and charges whatever background I/O it
    /// performed to the foreground clock — the single spindle serializes
    /// foreground and maintenance work.
    fn after_mutating_op(&mut self, op_time: SimDuration) {
        let Some(state) = self.maintenance.as_mut() else {
            return;
        };
        if state.scheduler.config().server_driven {
            // The request scheduler owns the drive: it calls
            // `maintenance_slice` and models the overlap itself.
            return;
        }
        let mut target = DbMaintTarget {
            db: &mut self.db,
            disk: self.disk.config(),
            cost: &self.cost,
            defrag_backoff: &mut state.defrag_backoff,
        };
        let interference = state.scheduler.on_foreground_op(op_time, &mut target);
        self.clock.advance(interference);
    }

    fn write_receipt(
        &mut self,
        runs: Vec<lor_disksim::ByteRun>,
        pages: u64,
        size_bytes: u64,
    ) -> OpReceipt {
        let request = IoRequest::write_runs(runs);
        let transferred = request.total_bytes();
        let fragments = request.coalesced().fragment_count() as u64;
        let disk_time = self.disk.service(&request);
        let host_time = self.cost.db_write_host_time(pages, size_bytes);
        self.charge(disk_time, host_time);
        let receipt = OpReceipt {
            payload_bytes: size_bytes,
            transferred_bytes: transferred,
            disk_time,
            host_time,
            fragments,
        };
        self.after_mutating_op(receipt.total_time());
        receipt
    }
}

impl ObjectStore for DbObjectStore {
    fn kind(&self) -> StoreKind {
        StoreKind::Database
    }

    fn put(&mut self, key: &str, size_bytes: u64) -> Result<OpReceipt, StoreError> {
        let receipt = self.db.insert(key, size_bytes)?;
        Ok(self.write_receipt(receipt.runs, receipt.pages_written, size_bytes))
    }

    fn get(&mut self, key: &str) -> Result<OpReceipt, StoreError> {
        let record = self.db.get(key)?;
        let size = record.size_bytes;
        let pages = record.page_count();
        let runs = record.byte_runs(self.db.config().page_size, self.db.config().base_offset);
        let request = IoRequest::read_runs(runs);
        let transferred = request.total_bytes();
        let fragments = request.coalesced().fragment_count() as u64;
        let disk_time = self.disk.service(&request);
        let host_time = self.cost.db_read_host_time(pages, size);
        self.charge(disk_time, host_time);
        Ok(OpReceipt {
            payload_bytes: size,
            transferred_bytes: transferred,
            disk_time,
            host_time,
            fragments,
        })
    }

    fn safe_write(&mut self, key: &str, size_bytes: u64) -> Result<OpReceipt, StoreError> {
        let receipt = self.db.update(key, size_bytes)?;
        Ok(self.write_receipt(receipt.runs, receipt.pages_written, size_bytes))
    }

    fn safe_write_batch(&mut self, items: &[(String, u64)]) -> Result<Vec<OpReceipt>, StoreError> {
        let borrowed: Vec<(&str, u64)> = items.iter().map(|(k, s)| (k.as_str(), *s)).collect();
        let receipts = self.db.update_batch(&borrowed, self.write_request_size)?;
        let out = receipts
            .into_iter()
            .map(|receipt| {
                self.write_receipt(receipt.runs, receipt.pages_written, receipt.bytes_written)
            })
            .collect();
        Ok(out)
    }

    fn delete(&mut self, key: &str) -> Result<OpReceipt, StoreError> {
        self.db.delete(key)?;
        let host_time = self.cost.db_lookup_time;
        self.charge(ServiceTime::default(), host_time);
        let receipt = OpReceipt {
            host_time,
            ..OpReceipt::default()
        };
        self.after_mutating_op(receipt.total_time());
        Ok(receipt)
    }

    fn migrate_in(&mut self, key: &str, size_bytes: u64) -> Result<OpReceipt, StoreError> {
        let receipt = self.db.insert_as_maintenance(key, size_bytes)?;
        let request = IoRequest::write_runs(receipt.runs);
        let transferred = request.total_bytes();
        let fragments = request.coalesced().fragment_count() as u64;
        let disk_time = self.disk.service(&request);
        let host_time = self
            .cost
            .db_write_host_time(receipt.pages_written, size_bytes);
        self.charge(disk_time, host_time);
        // No `after_mutating_op`: migration *is* maintenance, so it must not
        // tick the destination's own maintenance scheduler.
        Ok(OpReceipt {
            payload_bytes: size_bytes,
            transferred_bytes: transferred,
            disk_time,
            host_time,
            fragments,
        })
    }

    fn contains(&self, key: &str) -> bool {
        self.db.contains_key(key)
    }

    fn object_count(&self) -> usize {
        self.db.object_count()
    }

    fn keys(&self) -> Vec<String> {
        self.db.iter_blobs().map(|b| b.key.clone()).collect()
    }

    fn size_of(&self, key: &str) -> Result<u64, StoreError> {
        Ok(self.db.get(key)?.size_bytes)
    }

    fn layout_of(&self, key: &str) -> Result<Vec<lor_disksim::ByteRun>, StoreError> {
        Ok(self.db.read_plan(key)?)
    }

    fn fragmentation(&self) -> lor_alloc::FragmentationSummary {
        self.db.fragmentation()
    }

    fn data_capacity_bytes(&self) -> u64 {
        self.db.data_capacity_bytes()
    }

    fn live_bytes(&self) -> u64 {
        self.db.iter_blobs().map(|b| b.size_bytes).sum()
    }

    fn elapsed(&self) -> SimDuration {
        self.clock.now()
    }

    fn reset_measurements(&mut self) {
        self.clock.reset();
        self.disk.reset_measurements();
    }

    fn maintenance(&mut self) -> Result<u64, StoreError> {
        let objects = self.db.object_count() as u64;
        let copied = self.db.rebuild_into_new_filegroup()?;
        // The rebuild reads every object and writes it back sequentially.
        let transfer_rate = self
            .disk
            .config()
            .transfer_rate_at(self.disk.config().capacity_bytes / 2);
        let copy_time = SimDuration::from_secs_f64(2.0 * copied as f64 / transfer_rate);
        let positioning = (self
            .disk
            .config()
            .seek
            .seek_time(self.disk.config().seek.cylinders / 3)
            + self.disk.config().average_rotational_latency())
            * objects;
        self.charge(ServiceTime::default(), copy_time + positioning);
        Ok(copied)
    }

    fn write_request_size(&self) -> u64 {
        self.write_request_size
    }

    fn maintenance_stats(&self) -> Option<MaintenanceStats> {
        self.maintenance
            .as_ref()
            .map(|state| *state.scheduler.stats())
    }

    fn maintenance_config(&self) -> Option<MaintenanceConfig> {
        self.maintenance
            .as_ref()
            .map(|state| *state.scheduler.config())
    }

    fn maintenance_slice(&mut self, budget_bytes: u64, now: SimDuration) -> lor_maint::MaintIo {
        let Some(state) = self.maintenance.as_mut() else {
            return lor_maint::MaintIo::NONE;
        };
        let mut target = DbMaintTarget {
            db: &mut self.db,
            disk: self.disk.config(),
            cost: &self.cost,
            defrag_backoff: &mut state.defrag_backoff,
        };
        state
            .scheduler
            .run_budgeted_slice(&mut target, budget_bytes, now)
    }

    fn set_obs(&mut self, obs: Obs) {
        self.disk.set_obs(obs.clone(), "db-store");
        if let Some(state) = self.maintenance.as_mut() {
            state.scheduler.set_obs(obs);
        }
    }

    fn free_space_report(&self) -> Option<lor_alloc::FreeSpaceReport> {
        Some(self.db.free_space_report())
    }

    fn band_occupancy(&self) -> Option<lor_alloc::BandOccupancy> {
        Some(self.db.band_occupancy())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MB: u64 = 1 << 20;

    fn store() -> DbObjectStore {
        DbObjectStore::new(256 * MB).unwrap()
    }

    #[test]
    fn substrate_aware_slices_defer_ghost_release_but_still_compact() {
        // A server-driven substrate-aware store: the store itself never
        // ticks (the request scheduler owns the drive), but budgeted slices
        // must respect the deferral — early slices may compact and
        // checkpoint while the ghost backlog is young, and the backlog is
        // only released once it has aged past the configured hold of
        // simulated time.
        let mut config = DbStoreConfig::new(256 * MB);
        config.maintenance = Some(MaintenanceConfig::substrate_aware(5.0, 60_000.0));
        let mut store = DbObjectStore::with_config(config).unwrap();
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
        let mut config = DbStoreConfig::new(128 * MB);
        config.maintenance = Some(MaintenanceConfig::fixed_budget(16));
        let mut store = DbObjectStore::with_config(config).unwrap();
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
    fn put_get_safe_write_delete_cycle() {
        let mut store = store();
        let put = store.put("a", MB).unwrap();
        assert_eq!(put.payload_bytes, MB);
        assert!(put.transferred_bytes >= MB, "whole pages are written");
        assert!(store.contains("a"));

        let get = store.get("a").unwrap();
        assert_eq!(get.payload_bytes, MB);
        assert_eq!(get.fragments, 1);
        assert!(get.transferred_bytes >= MB);

        let rewrite = store.safe_write("a", 2 * MB).unwrap();
        assert_eq!(rewrite.payload_bytes, 2 * MB);
        assert_eq!(store.size_of("a").unwrap(), 2 * MB);

        store.delete("a").unwrap();
        assert!(!store.contains("a"));
        assert_eq!(store.object_count(), 0);
    }

    #[test]
    fn clock_accumulates_and_resets() {
        let mut store = store();
        store.put("a", MB).unwrap();
        store.get("a").unwrap();
        assert!(store.elapsed() > SimDuration::ZERO);
        store.reset_measurements();
        assert_eq!(store.elapsed(), SimDuration::ZERO);
        assert_eq!(store.disk().stats().total_requests(), 0);
    }

    #[test]
    fn maintenance_rebuild_leaves_objects_contiguous() {
        let mut store = store();
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

    #[test]
    fn errors_map_to_store_errors() {
        let mut store = store();
        assert!(matches!(
            store.get("missing"),
            Err(StoreError::NoSuchObject(_))
        ));
        store.put("a", MB).unwrap();
        assert!(matches!(
            store.put("a", MB),
            Err(StoreError::ObjectExists(_))
        ));
        let mut tiny = DbObjectStore::new(8 * MB).unwrap();
        assert!(matches!(
            tiny.put("big", 64 * MB),
            Err(StoreError::OutOfSpace(_))
        ));
    }

    #[test]
    fn kind_capacity_and_keys() {
        let mut store = store();
        assert_eq!(store.kind(), StoreKind::Database);
        assert!(store.data_capacity_bytes() > 200 * MB);
        store.put("x", MB).unwrap();
        store.put("y", MB).unwrap();
        assert_eq!(store.keys().len(), 2);
        assert_eq!(store.live_bytes(), 2 * MB);
        assert_eq!(store.write_request_size(), 64 * 1024);
        let layout = store.layout_of("x").unwrap();
        assert!(layout.iter().map(|r| r.len).sum::<u64>() >= MB);
    }
}
