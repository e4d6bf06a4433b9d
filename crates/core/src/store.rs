//! The get/put object-store abstraction and its cost model.
//!
//! The paper's applications "make use of simple get/put storage primitives"
//! (Section 4): allocate an object, read it, replace it atomically with a safe
//! write, delete it.  [`ObjectStore`] is that interface and [`Store`] its one
//! implementation, generic over the [`Substrate`] underneath
//! ([`crate::FsObjectStore`], [`crate::DbObjectStore`] and
//! [`crate::LogObjectStore`] are aliases): it charges every operation to a
//! simulated disk plus the host-side cost model below, so that throughput can
//! be measured exactly the way the paper measures it: bytes moved divided by
//! the time the storage system needed.

use lor_alloc::{BandOccupancy, FragmentationSummary, FreeSpaceReport};
use lor_disksim::{ByteRun, Disk, DiskConfig, IoRequest, ServiceTime, SimClock, SimDuration};
use lor_maint::{MaintIo, MaintenanceConfig, MaintenanceScheduler, MaintenanceStats};
use lor_obs::Obs;

use crate::error::StoreError;
use crate::maintenance::{copy_io, Drive};
use crate::substrate::{Substrate, WriteOp, Written, WrittenFragments};

/// Which storage system backs a store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StoreKind {
    /// One file per object on the NTFS-like volume ("Filesystem" in the
    /// paper's figures).
    Filesystem,
    /// One out-of-row BLOB per object in the SQL-Server-like engine
    /// ("Database" in the paper's figures).
    Database,
    /// Append-only segment log with a cost-benefit cleaner (`lor-logstore`)
    /// — the third substrate the paper's FS/DB bracket is missing.
    LogStructured,
}

impl StoreKind {
    /// Every substrate.
    pub const ALL: [StoreKind; 3] = [
        StoreKind::Filesystem,
        StoreKind::Database,
        StoreKind::LogStructured,
    ];

    /// The label the paper's figures use for this system.
    pub fn label(&self) -> &'static str {
        match self {
            StoreKind::Filesystem => "Filesystem",
            StoreKind::Database => "Database",
            StoreKind::LogStructured => "Log",
        }
    }
}

impl std::fmt::Display for StoreKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// What one store operation cost.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct OpReceipt {
    /// Application payload bytes moved (object bytes, not pages/clusters).
    pub payload_bytes: u64,
    /// Bytes physically transferred to or from the disk.
    pub transferred_bytes: u64,
    /// Mechanical disk time (seek + rotation + transfer + controller).
    pub disk_time: ServiceTime,
    /// Host-side time (opens, lookups, per-page processing, client chunking).
    pub host_time: SimDuration,
    /// Physical fragments the object's data occupied at the time of the
    /// operation (for reads) or was written into (for writes).
    pub fragments: u64,
}

impl OpReceipt {
    /// Total time charged to the operation.
    pub fn total_time(&self) -> SimDuration {
        self.disk_time.total() + self.host_time
    }
}

// The host-side cost model: everything that is not the disk mechanism, one
// simulated host as in the paper's Table 1.  Calibrated so that a clean store
// reproduces the orderings of the paper's Figure 1 and Figure 4 (database
// faster below ~1 MB and during bulk load; filesystem faster for 10 MB
// objects), on top of the `lor_disksim` mechanical model.  The formulas over
// these constants are each substrate's `Substrate::write_host_time` /
// `read_host_time` / `remove_host_time`; changing one moves every recorded
// result.

/// Metadata I/Os (directory + MFT-style record fetches) charged per file
/// open.  Each costs [`METADATA_IO_TIME`].
pub(crate) const FS_OPEN_METADATA_IOS: u64 = 2;
/// Cost of one metadata I/O (an uncached small random read).
pub(crate) const METADATA_IO_TIME: SimDuration = SimDuration::from_millis(12);
/// Extra metadata I/Os charged when a file is created or replaced (directory
/// update, MFT record allocation, log force).
pub(crate) const FS_CREATE_METADATA_IOS: u64 = 1;
/// Host CPU cost of a database lookup (the metadata table and the BLOB root
/// are assumed cached, per the paper's out-of-row setup).
pub(crate) const DB_LOOKUP_TIME: SimDuration = SimDuration::from_millis(1);
/// Per-page processing cost on the database path (buffer pool, record
/// assembly, network marshalling) — the "client interfaces are not designed
/// for large objects" folklore made concrete.
pub(crate) const DB_PER_PAGE_TIME: SimDuration = SimDuration::from_micros(50);
/// The database client streams objects in chunks of at most this many bytes;
/// each chunk costs [`DB_PER_CHUNK_TIME`].
pub(crate) const DB_CLIENT_CHUNK_BYTES: u64 = 256 * 1024;
/// Per-chunk request/response overhead on the database path.
pub(crate) const DB_PER_CHUNK_TIME: SimDuration = SimDuration::from_millis(1);
/// Per-write-request host cost on the filesystem path (system call and cache
/// management per append).
pub(crate) const FS_PER_WRITE_REQUEST_TIME: SimDuration = SimDuration::from_micros(100);

/// The constants above as Table 1's host row, every duration in plain
/// milliseconds ("0.1 ms", not `SimDuration`'s "100.000µs").
pub(crate) fn host_costs() -> String {
    let ms = |time: SimDuration| time.as_millis_f64();
    format!(
        "simulated host; fixed per-operation costs: filesystem {FS_OPEN_METADATA_IOS} metadata \
         I/Os of {} ms per open (+{FS_CREATE_METADATA_IOS} per create), {} ms per write \
         request; database {} ms per lookup, {} ms per page, {} ms per {} KB client chunk",
        ms(METADATA_IO_TIME),
        ms(FS_PER_WRITE_REQUEST_TIME),
        ms(DB_LOOKUP_TIME),
        ms(DB_PER_PAGE_TIME),
        ms(DB_PER_CHUNK_TIME),
        DB_CLIENT_CHUNK_BYTES >> 10
    )
}

/// A large-object repository with get/put semantics.
///
/// All mutating operations are charged to the store's internal clock; the
/// experiment harness resets the clock around each measurement phase and
/// computes throughput as payload bytes divided by elapsed clock time.
///
/// Stores are `Send` so a sharded fleet can drain each shard's
/// sub-stream on its own worker thread (`lor-shard`'s parallel
/// execution); each store is still driven by exactly one thread at a
/// time — nothing here is `Sync`.
pub trait ObjectStore: Send {
    /// Which system backs this store.
    fn kind(&self) -> StoreKind;

    /// Stores a new object of `size_bytes` under `key`.
    fn put(&mut self, key: &str, size_bytes: u64) -> Result<OpReceipt, StoreError>;

    /// Reads the whole object stored under `key`.
    fn get(&mut self, key: &str) -> Result<OpReceipt, StoreError>;

    /// Atomically replaces the object under `key` with a new version of
    /// `size_bytes` (safe write / wholesale BLOB replacement).
    fn safe_write(&mut self, key: &str, size_bytes: u64) -> Result<OpReceipt, StoreError>;

    /// Replaces several objects whose writes are in flight concurrently, so
    /// that their write requests interleave on disk (the behaviour of a web
    /// application serving parallel uploads).
    ///
    /// Which operations form a batch is decided in exactly one place — the
    /// request scheduler ([`crate::StoreServer`]) groups the safe writes
    /// that are queued together when the spindle frees up — so both
    /// substrates share one batching path and only implement the interleaved
    /// allocation itself.  (There is deliberately no sequential fallback
    /// implementation: a batch that did not interleave would silently
    /// under-report fragmentation.)
    fn safe_write_batch(&mut self, items: &[(String, u64)]) -> Result<Vec<OpReceipt>, StoreError>;

    /// Deletes the object stored under `key`.
    fn delete(&mut self, key: &str) -> Result<OpReceipt, StoreError>;

    /// `true` if an object with this key exists.
    fn contains(&self, key: &str) -> bool;

    /// Number of live objects.
    fn object_count(&self) -> usize;

    /// Keys of all live objects, in unspecified but deterministic order.
    fn keys(&self) -> Vec<String>;

    /// Logical size of the object under `key`.
    fn size_of(&self, key: &str) -> Result<u64, StoreError>;

    /// Physical layout (byte runs on the simulated disk) of the object under
    /// `key`, in logical order.
    fn layout_of(&self, key: &str) -> Result<Vec<ByteRun>, StoreError>;

    /// Fragments-per-object summary over all live objects.
    fn fragmentation(&self) -> FragmentationSummary;

    /// Bytes of capacity available to object data.
    fn data_capacity_bytes(&self) -> u64;

    /// Bytes of live object payload currently stored.
    fn live_bytes(&self) -> u64;

    /// Simulated time accumulated since the last [`ObjectStore::reset_measurements`].
    fn elapsed(&self) -> SimDuration;

    /// Clears the clock and disk statistics (not the stored data).
    fn reset_measurements(&mut self);

    /// Runs the store's maintenance / defragmentation procedure (the online
    /// defragmenter for the filesystem, the table rebuild for the database).
    /// Returns the payload bytes that had to be copied.
    fn maintenance(&mut self) -> Result<u64, StoreError>;

    /// The store's write-request (append chunk) size in bytes.
    fn write_request_size(&self) -> u64;

    /// Statistics of the background maintenance scheduler, when the store was
    /// built with a [`lor_maint::MaintenanceConfig`] (`None` otherwise).
    fn maintenance_stats(&self) -> Option<lor_maint::MaintenanceStats> {
        None
    }

    /// The maintenance configuration the store was built with, if any.  The
    /// request scheduler reads this to decide whether it owns the
    /// maintenance drive ([`lor_maint::MaintenanceConfig::server_driven`]).
    fn maintenance_config(&self) -> Option<lor_maint::MaintenanceConfig> {
        None
    }

    /// Runs one budgeted background-maintenance slice (the store's task
    /// queue: checkpoint, ghost cleanup, incremental defragmentation) and
    /// returns the background I/O it performed — **without** charging the
    /// store's own measurement clock.  The caller (the request scheduler)
    /// owns the interference model: it decides when the slice occupies the
    /// spindle and which foreground requests overlap it.  `now` is the
    /// caller's simulated clock at the slice, so time-based maintenance
    /// state (the substrate-aware ghost deferral) ages with the workload
    /// instead of with the slice rate.  Returns
    /// [`lor_maint::MaintIo::NONE`] when no scheduler is attached or there
    /// is nothing to do.
    fn maintenance_slice(&mut self, budget_bytes: u64, now: SimDuration) -> lor_maint::MaintIo {
        let _ = (budget_bytes, now);
        lor_maint::MaintIo::NONE
    }

    /// Stores a new object under `key` as **background migration traffic**:
    /// placement goes through the allocator's `Maintenance` consumer, so an
    /// incoming rebalanced object can only land in space the placement
    /// policy has ceded to maintenance and can never consume the contiguous
    /// runs the destination's foreground writes depend on.  Under a banded
    /// or reserve policy the write *fails* (out of space) rather than
    /// spilling into the foreground band — that refusal is the guarantee.
    ///
    /// Unlike [`ObjectStore::put`], a migration write does not count as a
    /// foreground operation: it must not tick the store's own maintenance
    /// scheduler (migration *is* maintenance).  The default implementation
    /// falls back to a plain put for stores without a placement-aware
    /// allocator.
    fn migrate_in(&mut self, key: &str, size_bytes: u64) -> Result<OpReceipt, StoreError> {
        self.put(key, size_bytes)
    }

    /// Attaches an observability handle: the store passes it down to its
    /// disk model (per-request disk spans) and maintenance scheduler
    /// (per-task spans and budget gauges).  The default store ignores it —
    /// observability is strictly opt-in and a [`lor_obs::Obs::null`] handle
    /// costs nothing.
    fn set_obs(&mut self, obs: Obs) {
        let _ = obs;
    }

    /// Free-space shape of the underlying volume / data file, for the probe
    /// tick's gauges.  `None` when the store has no meaningful free-space map.
    fn free_space_report(&self) -> Option<FreeSpaceReport> {
        None
    }

    /// Occupancy of the placement bands, for the probe tick's gauges.
    /// `None` when the store has no placement bands.
    fn band_occupancy(&self) -> Option<BandOccupancy> {
        None
    }
}

/// The size of the write requests the paper's experiments append object
/// data in (64 KB): the write request of every store
/// [`FsObjectStore::new`](crate::FsObjectStore::new) and its two siblings
/// build, and of [`crate::ExperimentConfig::paper_default`].
pub const PAPER_WRITE_REQUEST_SIZE: u64 = 64 * 1024;

/// The one object store: a [`Substrate`] plus everything the substrates
/// share — the measurement clock, the simulated disk, the optional
/// background scheduler and the tracing handle.
#[derive(Debug)]
pub struct Store<S: Substrate> {
    pub(crate) substrate: S,
    disk: Disk,
    clock: SimClock,
    write_request_size: u64,
    scheduler: Option<MaintenanceScheduler>,
    /// Remaining ticks of the post-convergence defragmentation back-off.
    defrag_backoff: u64,
    obs: Option<Obs>,
}

impl<S: Substrate> Store<S> {
    /// Builds a store over a fresh engine on a disk of its own, appending
    /// object data in requests of `write_request_size` bytes.  With a
    /// maintenance config the `lor-maint` scheduler owns the engine's
    /// background duties.  The one general constructor: the `new` of
    /// [`crate::FsObjectStore`], [`crate::DbObjectStore`] and
    /// [`crate::LogObjectStore`] and [`crate::ExperimentConfig::build_store`]
    /// all call it.  A zero write request or an invalid maintenance config
    /// is [`StoreError::BadConfig`].
    pub fn build(
        engine: S::Config,
        disk: DiskConfig,
        write_request_size: u64,
        maintenance: Option<MaintenanceConfig>,
    ) -> Result<Self, StoreError> {
        if write_request_size == 0 {
            return Err(StoreError::BadConfig(
                "write request size must be non-zero".into(),
            ));
        }
        if let Some(config) = &maintenance {
            config
                .validate()
                .map_err(|message| StoreError::BadConfig(message.into()))?;
        }
        Ok(Store {
            substrate: S::create(engine, maintenance.is_some())?,
            disk: Disk::new(disk),
            clock: SimClock::new(),
            write_request_size,
            scheduler: maintenance.map(MaintenanceScheduler::new),
            defrag_backoff: 0,
            obs: None,
        })
    }

    /// The underlying disk model (read-only).
    pub fn disk(&self) -> &Disk {
        &self.disk
    }

    fn charge(&mut self, disk_time: ServiceTime, host_time: SimDuration) {
        self.clock.advance(disk_time.total() + host_time);
    }

    /// Services and costs a completed write.  Copying the write forced
    /// inside the substrate is charged to this operation (its bytes show up
    /// in `transferred_bytes`, making the write amplification visible).
    fn write_receipt(&mut self, mut written: Written) -> OpReceipt {
        let request = IoRequest::write_runs(std::mem::take(&mut written.runs));
        let mut transferred = request.total_bytes();
        let disk_time = self.disk.service(&request);
        let mut host_time = S::write_host_time(written.units, written.payload_bytes);
        if !written.forced_copy.is_empty() {
            let io = copy_io(self.disk.config(), &written.forced_copy);
            transferred += io.bytes;
            host_time += io.time;
            if let Some(obs) = &self.obs {
                self.substrate.trace_forced_copy(obs, self.clock.now());
            }
        }
        self.charge(disk_time, host_time);
        let request_fragments = || request.merged_segments().count() as u64;
        let fragments = match written.fragments {
            WrittenFragments::Counted(fragments) => fragments,
            WrittenFragments::OfRequest => request_fragments(),
            WrittenFragments::OfRecord(version) => self
                .substrate
                .record_fragments(version)
                .unwrap_or_else(request_fragments),
        };
        OpReceipt {
            payload_bytes: written.payload_bytes,
            transferred_bytes: transferred,
            disk_time,
            host_time,
            fragments,
        }
    }

    fn write(&mut self, op: WriteOp, key: &str, size: u64) -> Result<OpReceipt, StoreError> {
        let written = self
            .substrate
            .write(op, key, size, self.write_request_size)?;
        let receipt = self.write_receipt(written);
        // Migration *is* maintenance, so it must not tick the destination's
        // own maintenance scheduler.
        Ok(match op {
            WriteOp::MigrateIn => receipt,
            WriteOp::Put | WriteOp::Replace => self.after_mutating_op(receipt),
        })
    }

    /// Reports a completed mutating operation to the background scheduler
    /// (if any) and charges whatever background I/O it performed to the
    /// foreground clock — the single spindle serializes foreground and
    /// maintenance work.
    fn after_mutating_op(&mut self, receipt: OpReceipt) -> OpReceipt {
        if let Some(scheduler) = self.scheduler.as_mut() {
            // Under the server drive the request scheduler owns the drive:
            // it calls `maintenance_slice` and models the overlap itself.
            if !scheduler.server_driven() {
                let mut drive = Drive::new(
                    &mut self.substrate,
                    self.disk.config(),
                    &mut self.defrag_backoff,
                );
                let interference = scheduler.on_foreground_op(receipt.total_time(), &mut drive);
                self.clock.advance(interference);
            }
        }
        receipt
    }
}

impl<S: Substrate> ObjectStore for Store<S> {
    fn kind(&self) -> StoreKind {
        S::KIND
    }

    fn put(&mut self, key: &str, size_bytes: u64) -> Result<OpReceipt, StoreError> {
        self.write(WriteOp::Put, key, size_bytes)
    }

    fn get(&mut self, key: &str) -> Result<OpReceipt, StoreError> {
        let plan = self.substrate.read_plan(key)?;
        let request = IoRequest::read_runs(plan.runs);
        let transferred = request.total_bytes();
        let fragments = request.merged_segments().count() as u64;
        let disk_time = self.disk.service(&request);
        let host_time = S::read_host_time(plan.units, plan.payload_bytes);
        self.charge(disk_time, host_time);
        Ok(OpReceipt {
            payload_bytes: plan.payload_bytes,
            transferred_bytes: transferred,
            disk_time,
            host_time,
            fragments,
        })
    }

    fn safe_write(&mut self, key: &str, size_bytes: u64) -> Result<OpReceipt, StoreError> {
        self.write(WriteOp::Replace, key, size_bytes)
    }

    fn safe_write_batch(&mut self, items: &[(String, u64)]) -> Result<Vec<OpReceipt>, StoreError> {
        let Some(batch) = self
            .substrate
            .replace_interleaved(items, self.write_request_size)?
        else {
            return items
                .iter()
                .map(|(key, size)| self.safe_write(key, *size))
                .collect();
        };
        let mut out = Vec::with_capacity(batch.len());
        for written in batch {
            let receipt = self.write_receipt(written);
            out.push(self.after_mutating_op(receipt));
        }
        Ok(out)
    }

    fn delete(&mut self, key: &str) -> Result<OpReceipt, StoreError> {
        self.substrate.remove(key)?;
        let host_time = S::remove_host_time();
        self.charge(ServiceTime::default(), host_time);
        Ok(self.after_mutating_op(OpReceipt {
            host_time,
            ..OpReceipt::default()
        }))
    }

    fn migrate_in(&mut self, key: &str, size_bytes: u64) -> Result<OpReceipt, StoreError> {
        self.write(WriteOp::MigrateIn, key, size_bytes)
    }

    fn contains(&self, key: &str) -> bool {
        self.substrate.size_of(key).is_ok()
    }

    fn object_count(&self) -> usize {
        self.substrate.object_count()
    }

    fn keys(&self) -> Vec<String> {
        self.substrate.keys()
    }

    fn size_of(&self, key: &str) -> Result<u64, StoreError> {
        self.substrate.size_of(key)
    }

    fn layout_of(&self, key: &str) -> Result<Vec<ByteRun>, StoreError> {
        Ok(self.substrate.read_plan(key)?.runs)
    }

    fn fragmentation(&self) -> FragmentationSummary {
        self.substrate.fragmentation()
    }

    fn data_capacity_bytes(&self) -> u64 {
        self.substrate.data_capacity_bytes()
    }

    fn live_bytes(&self) -> u64 {
        self.substrate.live_bytes()
    }

    fn elapsed(&self) -> SimDuration {
        self.clock.now()
    }

    fn reset_measurements(&mut self) {
        self.clock.reset();
        self.disk.reset_measurements();
    }

    fn maintenance(&mut self) -> Result<u64, StoreError> {
        let moved = self.substrate.full_pass()?;
        let io = copy_io(self.disk.config(), &moved);
        self.charge(ServiceTime::default(), io.time);
        Ok(moved.bytes_copied)
    }

    fn write_request_size(&self) -> u64 {
        self.write_request_size
    }

    fn maintenance_stats(&self) -> Option<MaintenanceStats> {
        self.scheduler.as_ref().map(|scheduler| *scheduler.stats())
    }

    fn maintenance_config(&self) -> Option<MaintenanceConfig> {
        self.scheduler.as_ref().map(|scheduler| *scheduler.config())
    }

    fn maintenance_slice(&mut self, budget_bytes: u64, now: SimDuration) -> MaintIo {
        let Some(scheduler) = self.scheduler.as_mut() else {
            return MaintIo::NONE;
        };
        let mut drive = Drive::new(
            &mut self.substrate,
            self.disk.config(),
            &mut self.defrag_backoff,
        );
        let io = scheduler.run_budgeted_slice(&mut drive, budget_bytes, now);
        let moved = drive.moved;
        if let Some(obs) = &self.obs {
            self.substrate.trace_slice(obs, now, io, moved);
        }
        io
    }

    fn set_obs(&mut self, obs: Obs) {
        self.disk.set_obs(obs.clone(), S::DISK_LABEL);
        if let Some(scheduler) = self.scheduler.as_mut() {
            scheduler.set_obs(obs.clone());
        }
        self.obs = Some(obs);
    }

    fn free_space_report(&self) -> Option<FreeSpaceReport> {
        Some(self.substrate.free_space_report())
    }

    fn band_occupancy(&self) -> Option<BandOccupancy> {
        Some(self.substrate.band_occupancy())
    }
}

/// The adapter tests every substrate must pass, written once and
/// instantiated inside each store module's `tests` (so a failure names its
/// substrate): `adapter_suite!(FsObjectStore, StoreKind::Filesystem)`.
/// Expects that module's `use super::*`, `ObjectStore` and `MB` in scope.
#[cfg(test)]
macro_rules! adapter_suite {
    ($Store:ident, $kind:expr) => {
        #[test]
        fn put_get_safe_write_delete_cycle() {
            let mut store = $Store::new(256 * MB).unwrap();
            let put = store.put("a", MB).unwrap();
            assert_eq!(put.payload_bytes, MB);
            assert!(put.transferred_bytes >= MB, "whole units are written");
            assert!(store.contains("a"));
            assert_eq!(store.object_count(), 1);
            assert_eq!(store.size_of("a").unwrap(), MB);

            let get = store.get("a").unwrap();
            assert_eq!(get.payload_bytes, MB);
            assert_eq!(get.fragments, 1, "a clean store keeps objects contiguous");
            assert!(get.transferred_bytes >= MB);
            assert!(get.host_time >= $crate::store::tests::read_host_floor(&store));

            let rewrite = store.safe_write("a", 2 * MB).unwrap();
            assert_eq!(rewrite.payload_bytes, 2 * MB);
            assert_eq!(store.size_of("a").unwrap(), 2 * MB);

            store.delete("a").unwrap();
            assert!(!store.contains("a"));
            assert_eq!(store.object_count(), 0);
            assert!(store.get("a").is_err());
        }

        #[test]
        fn duplicate_keys_in_one_batch_degenerate_to_last_writer_wins() {
            let mut store = $Store::new(256 * MB).unwrap();
            store.put("a", MB).unwrap();
            store.put("b", MB).unwrap();
            // Duplicates commit in batch order (last writer wins), so the
            // first "a" receipt names a version the second "a" already
            // replaced; the store must still produce a receipt for the I/O
            // it performed.
            let receipts = store
                .safe_write_batch(&[
                    ("a".to_string(), MB),
                    ("b".to_string(), 2 * MB),
                    ("a".to_string(), 3 * MB),
                ])
                .unwrap();
            assert_eq!(receipts.len(), 3);
            for receipt in &receipts {
                assert!(receipt.fragments >= 1);
                assert!(receipt.transferred_bytes >= receipt.payload_bytes);
            }
            assert_eq!(store.size_of("a").unwrap(), 3 * MB);
            assert_eq!(store.size_of("b").unwrap(), 2 * MB);
            assert_eq!(store.object_count(), 2);
            assert_eq!(store.live_bytes(), 5 * MB);
        }

        #[test]
        fn clock_accumulates_and_resets() {
            let mut store = $Store::new(256 * MB).unwrap();
            assert_eq!(store.elapsed(), SimDuration::ZERO);
            store.put("a", MB).unwrap();
            let after_put = store.elapsed();
            assert!(after_put > SimDuration::ZERO);
            store.get("a").unwrap();
            assert!(store.elapsed() > after_put);
            store.reset_measurements();
            assert_eq!(store.elapsed(), SimDuration::ZERO);
            assert_eq!(store.disk().stats().total_requests(), 0);
        }

        #[test]
        fn errors_map_to_store_errors() {
            let mut store = $Store::new(256 * MB).unwrap();
            assert!(matches!(
                store.get("missing"),
                Err(StoreError::NoSuchObject(_))
            ));
            assert!(matches!(
                store.safe_write("missing", MB),
                Err(StoreError::NoSuchObject(_))
            ));
            assert!(matches!(
                store.delete("missing"),
                Err(StoreError::NoSuchObject(_))
            ));
            store.put("a", MB).unwrap();
            assert!(matches!(
                store.put("a", MB),
                Err(StoreError::ObjectExists(_))
            ));
            let mut tiny = $Store::new(8 * MB).unwrap();
            assert!(matches!(
                tiny.put("big", 64 * MB),
                Err(StoreError::OutOfSpace(_))
            ));
            let zero_request = $crate::ExperimentConfig {
                write_request_size: 0,
                ..$crate::store::tests::paper_config(MB)
            };
            assert!(matches!(
                zero_request.build_store($kind),
                Err(StoreError::BadConfig(_))
            ));
        }

        #[test]
        fn layout_covers_the_object() {
            let mut store = $Store::new(256 * MB).unwrap();
            store.put("a", 3 * MB).unwrap();
            let layout = store.layout_of("a").unwrap();
            let covered = layout.iter().map(|r| r.len).sum::<u64>();
            if $kind == StoreKind::Database {
                // Whole pages, each carrying a header besides its payload.
                assert!((3 * MB..3 * MB + MB / 8).contains(&covered));
            } else {
                assert_eq!(covered, 3 * MB);
            }
        }

        #[test]
        fn kind_and_capacity() {
            let mut store = $Store::new(256 * MB).unwrap();
            assert_eq!(store.kind(), $kind);
            assert!(store.data_capacity_bytes() <= 256 * MB);
            assert!(store.data_capacity_bytes() > 200 * MB);
            assert_eq!(store.live_bytes(), 0);
            assert_eq!(store.write_request_size(), 64 * 1024);
            assert!(store.free_space_report().is_some());
            assert!(store.band_occupancy().is_some());
            store.put("x", MB).unwrap();
            store.put("y", MB).unwrap();
            assert_eq!(store.keys().len(), 2);
            assert_eq!(store.live_bytes(), 2 * MB);
        }

        #[test]
        fn maintenance_scheduler_runs_and_charges_the_foreground_clock() {
            use lor_maint::{MaintenanceConfig, MaintenancePolicy};
            let mut store = $crate::store::tests::paper_config(128 * MB)
                .with_maintenance(MaintenanceConfig::fixed_budget(16))
                .build_store($kind)
                .unwrap();
            assert!(store.maintenance_stats().is_some());

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
            assert!(stats.foreground_ops >= 64);
            assert!(
                stats.checkpoint.runs > 0,
                "the scheduler owns checkpointing now"
            );
            assert!(
                stats.background_bytes > 0,
                "rewrites leave reclaimable space for the budgeted tasks"
            );
            assert!(
                stats.background_time > SimDuration::ZERO,
                "background work must cost time"
            );
            // The interference was charged to the store's clock.
            assert!(store.elapsed() > stats.background_time);

            // An invalid maintenance config is rejected.
            let bad = $crate::store::tests::paper_config(64 * MB).with_maintenance(
                MaintenanceConfig::new(MaintenancePolicy::Threshold {
                    frag_per_object: 0.0,
                }),
            );
            assert!(matches!(
                bad.build_store($kind),
                Err(StoreError::BadConfig(_))
            ));
        }
    };
}
#[cfg(test)]
pub(crate) use adapter_suite;

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::fs_store::FsSubstrate;
    use crate::{ExperimentConfig, SizeDistribution};
    use lor_blobkit::Database;

    /// The paper's setup on a volume of `volume_bytes`: what the adapter
    /// suite hands [`crate::ExperimentConfig::build_store`].
    pub(crate) fn paper_config(volume_bytes: u64) -> ExperimentConfig {
        ExperimentConfig {
            volume_bytes,
            ..ExperimentConfig::paper_default(SizeDistribution::Constant(1 << 20))
        }
    }

    /// `S`'s read host time.
    fn read_host<S: Substrate>(units: u64, payload_bytes: u64) -> SimDuration {
        S::read_host_time(units, payload_bytes)
    }

    /// The least host time any read of `_store` is charged.
    pub(crate) fn read_host_floor<S: Substrate>(_store: &Store<S>) -> SimDuration {
        read_host::<S>(0, 0)
    }

    #[test]
    fn store_kind_labels_match_the_figures() {
        assert_eq!(StoreKind::Filesystem.label(), "Filesystem");
        assert_eq!(StoreKind::Database.label(), "Database");
        assert_eq!(StoreKind::LogStructured.label(), "Log");
        assert_eq!(StoreKind::Database.to_string(), "Database");
        assert_eq!(
            StoreKind::ALL.map(|kind| kind.label()),
            ["Filesystem", "Database", "Log"]
        );
    }

    /// The two ways to build a store at the paper's defaults build the same
    /// store: on every substrate, the store alias's `new(capacity)` and
    /// `build_store` from the paper's config at `volume_bytes = capacity`
    /// return equal receipts, clocks, write requests and fragmentation for
    /// one put / safe-write / get / delete script.  This pins the one 64 KB
    /// default, [`PAPER_WRITE_REQUEST_SIZE`], behind both.
    #[test]
    fn new_and_build_store_build_the_same_store_on_every_substrate() {
        use crate::{DbObjectStore, FsObjectStore, LogObjectStore};
        const MB: u64 = 1 << 20;
        const CAPACITY: u64 = 64 * MB;

        type Outcome = (Vec<OpReceipt>, SimDuration, u64, FragmentationSummary);
        fn script(store: &mut dyn ObjectStore) -> Outcome {
            let key = |i: u64| format!("o{i}");
            let mut receipts = Vec::new();
            // Sizes off the 64 KB grid, so the request size shows in the
            // host time and the layout.
            for i in 0..8 {
                receipts.push(store.put(&key(i), (i + 1) * MB / 2 + 1000).unwrap());
            }
            for i in (0..8).step_by(3) {
                receipts.push(store.safe_write(&key(i), 3 * MB / 2 + 77).unwrap());
            }
            let batch: Vec<(String, u64)> =
                (1..8).step_by(2).map(|i| (key(i), 2 * MB + 5)).collect();
            receipts.extend(store.safe_write_batch(&batch).unwrap());
            for i in 0..8 {
                receipts.push(store.get(&key(i)).unwrap());
            }
            receipts.push(store.delete(&key(2)).unwrap());
            receipts.push(store.put(&key(8), 3 * MB).unwrap());
            (
                receipts,
                store.elapsed(),
                store.write_request_size(),
                store.fragmentation(),
            )
        }

        for kind in StoreKind::ALL {
            let mut by_new: Box<dyn ObjectStore> = match kind {
                StoreKind::Filesystem => Box::new(FsObjectStore::new(CAPACITY).unwrap()),
                StoreKind::Database => Box::new(DbObjectStore::new(CAPACITY).unwrap()),
                StoreKind::LogStructured => Box::new(LogObjectStore::new(CAPACITY).unwrap()),
            };
            let mut by_config = paper_config(CAPACITY).build_store(kind).unwrap();
            let outcome = script(by_new.as_mut());
            assert_eq!(outcome, script(by_config.as_mut()), "{kind}");
            assert_eq!(outcome.2, PAPER_WRITE_REQUEST_SIZE, "{kind}");
            assert!(outcome.3.total_fragments > 0, "{kind}");
        }
    }

    /// A put that runs out of space leaves nothing behind — the same nothing
    /// on every substrate: the key is not contained, the count is unchanged,
    /// the free space is back once the substrate's log commits, and a retry
    /// of a size that fits succeeds (the volume used to keep the truncated
    /// file, so the retry failed with `ObjectExists` there and only there).
    #[test]
    fn a_failed_put_leaves_nothing_behind_on_any_substrate() {
        use crate::{DbObjectStore, FsObjectStore, LogObjectStore};
        const MB: u64 = 1 << 20;

        fn check<S: Substrate>(mut store: Store<S>) {
            let kind = S::KIND;
            store.put("a", 10 * MB).unwrap();
            let free_units = |store: &Store<S>| store.substrate.free_space_report().free_clusters;
            let free_before = free_units(&store);

            let err = store.put("b", 10 * MB).unwrap_err();
            assert!(matches!(err, StoreError::OutOfSpace(_)), "{kind}: {err:?}");
            assert!(!store.contains("b"), "{kind}");
            assert!(matches!(
                store.size_of("b"),
                Err(StoreError::NoSuchObject(_))
            ));
            assert_eq!(store.object_count(), 1, "{kind}");
            assert_eq!(store.keys(), ["a"], "{kind}");
            assert_eq!(store.live_bytes(), 10 * MB, "{kind}");
            store.substrate.checkpoint();
            assert_eq!(free_units(&store), free_before, "{kind}");

            store.put("b", 4 * MB).unwrap();
            assert_eq!(store.size_of("b").unwrap(), 4 * MB, "{kind}");
            assert_eq!(store.object_count(), 2, "{kind}");
        }

        for kind in StoreKind::ALL {
            match kind {
                StoreKind::Filesystem => check(FsObjectStore::new(16 * MB).unwrap()),
                StoreKind::Database => check(DbObjectStore::new(16 * MB).unwrap()),
                StoreKind::LogStructured => check(LogObjectStore::new(16 * MB).unwrap()),
            }
        }
    }

    /// A name too long to live in its table entry ([`lor_alloc::Name`]
    /// keeps up to `Name::INLINE` bytes inline) takes the heap path that no
    /// workload and no golden reaches.  On every substrate it goes through
    /// put, get, safe write, a batch, `keys()` and delete, the substrate's
    /// structures verify after every step, and a miss still names it in full.
    #[test]
    fn a_name_too_long_to_inline_round_trips_on_every_substrate() {
        use crate::{DbObjectStore, FsObjectStore, LogObjectStore};
        use lor_alloc::Name;
        const MB: u64 = 1 << 20;
        const LONG: &str = "photos/été/€uro-rätt-ñandú-01.jpg";

        fn check<S: Substrate>(mut store: Store<S>, verify: fn(&Store<S>) -> Result<(), String>) {
            let kind = S::KIND;
            let verified = |store: &Store<S>, step: &str| {
                if let Err(violation) = verify(store) {
                    panic!("{kind}, after {step}: {violation}");
                }
            };
            store.put("a", MB).unwrap();
            store.put(LONG, 2 * MB).unwrap();
            verified(&store, "put");
            assert_eq!(store.get(LONG).unwrap().payload_bytes, 2 * MB, "{kind}");
            verified(&store, "get");
            store.safe_write(LONG, 3 * MB).unwrap();
            assert_eq!(store.size_of(LONG).unwrap(), 3 * MB, "{kind}");
            verified(&store, "safe write");
            let batch = [(LONG.to_string(), MB), ("a".to_string(), 2 * MB)];
            store.safe_write_batch(&batch).unwrap();
            assert_eq!(store.size_of(LONG).unwrap(), MB, "{kind}");
            verified(&store, "safe write batch");
            let mut keys = store.keys();
            keys.sort_unstable();
            assert_eq!(keys, ["a", LONG], "{kind}");
            store.delete(LONG).unwrap();
            verified(&store, "delete");
            assert!(!store.contains(LONG), "{kind}");
            assert_eq!(store.keys(), ["a"], "{kind}");
            assert!(
                matches!(store.get(LONG), Err(StoreError::NoSuchObject(name)) if name == LONG),
                "{kind}"
            );
        }

        assert_eq!(LONG.len(), 40);
        assert!(!Name::new(LONG).is_inline());
        for kind in StoreKind::ALL {
            match kind {
                StoreKind::Filesystem => check(FsObjectStore::new(64 * MB).unwrap(), |store| {
                    store.volume().verify()
                }),
                StoreKind::Database => check(DbObjectStore::new(64 * MB).unwrap(), |store| {
                    store.database().verify()
                }),
                StoreKind::LogStructured => check(LogObjectStore::new(64 * MB).unwrap(), |store| {
                    store.log().verify()
                }),
            }
        }
    }

    #[test]
    fn receipt_totals_combine_disk_and_host_time() {
        let receipt = OpReceipt {
            payload_bytes: 100,
            transferred_bytes: 128,
            disk_time: ServiceTime {
                transfer: SimDuration::from_millis(2),
                ..Default::default()
            },
            host_time: SimDuration::from_millis(3),
            fragments: 1,
        };
        assert_eq!(receipt.total_time(), SimDuration::from_millis(5));
    }

    #[test]
    fn default_cost_model_favours_db_for_small_and_fs_for_large() {
        // Per-object host overhead at 256 KB: the database path is cheaper.
        let fs_small = read_host::<FsSubstrate>(0, 256 * 1024);
        let db_small = read_host::<Database>(32, 256 * 1024);
        assert!(db_small < fs_small);
        // At 10 MB the database's per-page and per-chunk costs dominate the
        // filesystem's fixed open cost.
        let fs_large = read_host::<FsSubstrate>(0, 10 << 20);
        let db_large = read_host::<Database>(1280, 10 << 20);
        assert!(db_large > fs_large);
    }

    #[test]
    fn chunk_counts_round_up() {
        let just_over = read_host::<Database>(1, DB_CLIENT_CHUNK_BYTES + 1);
        let exactly_one = read_host::<Database>(1, DB_CLIENT_CHUNK_BYTES);
        assert!(just_over > exactly_one);
        // Zero-byte objects still cost one chunk and the lookup.
        assert!(read_host::<Database>(0, 0) >= DB_LOOKUP_TIME);
    }
}
