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

use std::cell::RefCell;

use lor_alloc::{BandOccupancy, FragmentationSummary, FreeSpaceReport};
use lor_disksim::{AccessKind, ByteRun, Disk, DiskConfig, ServiceTime, SimClock, SimDuration};
use lor_maint::{MaintIo, MaintenanceConfig, MaintenanceScheduler, MaintenanceStats};
use lor_obs::Obs;

use crate::error::StoreError;
use crate::maintenance::{copy_io, Drive};
use crate::substrate::{ReadPlan, Replaced, Substrate, WriteOp, Written};
use crate::workload::ObjectKey;

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
    /// operation (for reads) or was written into (for writes, counted when
    /// the version commits, before any maintenance the write ticks).
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
/// An object is addressed by its name, a `&str`, and the name is
/// authoritative.  The workloads' objects also have a number, an
/// [`ObjectKey`]: `ObjectKey(n)` is the object named `ObjectKey(n)`'s string
/// form (`object-00000042`), and the keyed methods (`put_keyed`, `get_keyed`,
/// `delete_keyed`, `safe_write_batch_keyed`) are that name's methods, with
/// the same receipts, clock and errors.  Their defaults format the name
/// and call the `&str` method; [`Store`] overrides them to reach the engine
/// by the object's handle, without building or hashing the name.  The
/// request scheduler ([`crate::StoreServer`]) dispatches only through them.
/// The other way round, a name in key form is its key: every `&str`
/// method of [`Store`] parses the name ([`ObjectKey::parse`]) and reaches
/// such an object by handle too, so a caller that speaks only `&str` (a
/// wrapper taking the defaults) hashes only the names not in key form.
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
    /// `size_bytes` (safe write / wholesale BLOB replacement): a one-item
    /// [`ObjectStore::safe_write_batch`], with the same receipt, clock and
    /// layout, so a lone safe write is written in the same write requests
    /// as a batch's item.
    fn safe_write(&mut self, key: &str, size_bytes: u64) -> Result<OpReceipt, StoreError>;

    /// Replaces several objects whose writes are in flight concurrently, so
    /// that their write requests interleave on disk (the behaviour of a web
    /// application serving parallel uploads).
    ///
    /// Which operations form a batch is decided in exactly one place — the
    /// request scheduler ([`crate::StoreServer`]) groups the safe writes
    /// that are queued together when the spindle frees up — so the
    /// substrates share one batching path and only implement the interleaved
    /// allocation itself.  (There is deliberately no sequential fallback
    /// implementation: a batch that did not interleave would silently
    /// under-report fragmentation.)
    fn safe_write_batch(&mut self, items: &[(String, u64)]) -> Result<Vec<OpReceipt>, StoreError>;

    /// Deletes the object stored under `key`.
    fn delete(&mut self, key: &str) -> Result<OpReceipt, StoreError>;

    /// [`ObjectStore::put`] of the object `key` numbers.
    fn put_keyed(&mut self, key: ObjectKey, size_bytes: u64) -> Result<OpReceipt, StoreError> {
        self.put(key.write_into(&mut ObjectKey::buf()), size_bytes)
    }

    /// [`ObjectStore::get`] of the object `key` numbers.
    fn get_keyed(&mut self, key: ObjectKey) -> Result<OpReceipt, StoreError> {
        self.get(key.write_into(&mut ObjectKey::buf()))
    }

    /// [`ObjectStore::delete`] of the object `key` numbers.
    fn delete_keyed(&mut self, key: ObjectKey) -> Result<OpReceipt, StoreError> {
        self.delete(key.write_into(&mut ObjectKey::buf()))
    }

    /// [`ObjectStore::safe_write_batch`] of the objects `items` number,
    /// pushing one receipt per item onto `receipts`, a buffer the caller
    /// reuses.  The default writes the names into strings this thread
    /// keeps from batch to batch and rewrites in place, so a steady-state
    /// batch builds no `String`.
    fn safe_write_batch_keyed(
        &mut self,
        items: &[(ObjectKey, u64)],
        receipts: &mut Vec<OpReceipt>,
    ) -> Result<(), StoreError> {
        // Taken, not borrowed: a `safe_write_batch` that comes back here
        // finds an empty buffer and still works.
        let mut names = BATCH_NAMES.take();
        let mut buf = ObjectKey::buf();
        for (index, &(key, size)) in items.iter().enumerate() {
            let name = key.write_into(&mut buf);
            match names.get_mut(index) {
                Some((held, bytes)) => {
                    held.clear();
                    held.push_str(name);
                    *bytes = size;
                }
                None => names.push((name.to_owned(), size)),
            }
        }
        // Items past `items.len()` are left over from a longer batch.
        let written = self.safe_write_batch(&names[..items.len()]);
        BATCH_NAMES.set(names);
        receipts.extend(written?);
        Ok(())
    }

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

/// The error of a name no object is stored under.
fn missing(name: &str) -> StoreError {
    StoreError::NoSuchObject(name.to_owned())
}

/// What a `&str` method names: the key a name in key form is the string
/// form of ([`ObjectKey::parse`]), or any other name as it is.
fn target(name: &str) -> Result<ObjectKey, &str> {
    ObjectKey::parse(name).ok_or(name)
}

thread_local! {
    /// The names [`ObjectStore::safe_write_batch_keyed`]'s default hands
    /// `safe_write_batch`, kept per thread between batches.
    static BATCH_NAMES: RefCell<Vec<(String, u64)>> = const { RefCell::new(Vec::new()) };
}

/// The size of the write requests the paper's experiments append object
/// data in (64 KB): the write request of every store
/// [`FsObjectStore::new`](crate::FsObjectStore::new) and its two siblings
/// build, and of [`crate::ExperimentConfig::paper_default`].
pub const PAPER_WRITE_REQUEST_SIZE: u64 = 64 * 1024;

/// The one object store: a [`Substrate`] plus everything the substrates
/// share — the measurement clock, the simulated disk, the optional
/// background scheduler and the tracing handle — and the key table the
/// keyed methods reach the substrate's handles through.
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
    /// Key number → the handle of the object under that key, as noted by
    /// the last operation that resolved or wrote it by its key or by its
    /// key's string form (0: none); a name not in key form never reaches
    /// it.  An entry is a hint, checked live at use: a deleted object
    /// leaves its entry dead, and the volume's safe write moves an object
    /// to a new handle, but no substrate reuses a handle, so a live one
    /// still names its key.  Only a put or a migration extends it, to a key
    /// below twice the objects held plus [`TABLE_SLACK`], so a shard that
    /// sees keys from a whole fleet's range keeps no table over it.  4
    /// bytes a key.
    handles: Vec<u32>,
}

/// A key gets a table entry only while its number is below twice the
/// objects held plus this: dense workload keys always do, a fleet shard's
/// keys (one in every few of the fleet's) soon do not.
pub(crate) const TABLE_SLACK: u64 = 64;

/// Safe-write batches of up to this many items resolve their handles into
/// a buffer on the stack; a longer one (an open-loop burst) allocates one.
const STACK_BATCH: usize = 16;

impl<S: Substrate> Store<S> {
    /// Builds a store over a fresh engine on a disk of its own, appending
    /// object data in requests of `write_request_size` bytes, with its key
    /// table and its engine's name map sized for `keys` objects numbered
    /// from 0 (0 where no population is planned: both grow as keys are
    /// put).  With a maintenance
    /// config the `lor-maint` scheduler owns the engine's background
    /// duties.  The one general constructor: the `new` of
    /// [`crate::FsObjectStore`], [`crate::DbObjectStore`] and
    /// [`crate::LogObjectStore`] and [`crate::ExperimentConfig::build_store`]
    /// all call it.  A zero write request or an invalid maintenance config
    /// is [`StoreError::BadConfig`].
    pub fn build(
        engine: S::Config,
        disk: DiskConfig,
        write_request_size: u64,
        maintenance: Option<MaintenanceConfig>,
        keys: u64,
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
        // The key table and the engine's name map are sized once, before
        // the engine allocates anything else: grown by doubling through a
        // bulk load, among the engine's records, they set the peak RSS
        // (EXPERIMENTS.md, "Host cost of keyed dispatch").  The table is
        // only touched as keys are put.
        let keys = usize::try_from(keys).unwrap_or(0);
        let handles = Vec::with_capacity(keys);
        let mut substrate = S::create(engine, maintenance.is_some())?;
        substrate.reserve(keys);
        Ok(Store {
            substrate,
            disk: Disk::new(disk),
            clock: SimClock::new(),
            write_request_size,
            scheduler: maintenance.map(MaintenanceScheduler::new),
            defrag_backoff: 0,
            obs: None,
            handles,
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
    fn write_receipt(&mut self, written: Written) -> OpReceipt {
        let served = self.disk.serve(AccessKind::Write, &written.runs);
        let mut transferred = served.bytes;
        let disk_time = served.time;
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
        OpReceipt {
            payload_bytes: written.payload_bytes,
            transferred_bytes: transferred,
            disk_time,
            host_time,
            fragments: written.fragments,
        }
    }

    /// Services and costs a completed write, reporting it to the scheduler
    /// unless it was a migration: migration *is* maintenance, so it must not
    /// tick the destination's own maintenance scheduler.  Returns the handle
    /// of the version written.
    fn commit(&mut self, op: WriteOp, written: Written) -> (S::Handle, OpReceipt) {
        let handle = S::Handle::from(written.handle);
        let receipt = self.write_receipt(written);
        (
            handle,
            match op {
                WriteOp::MigrateIn => receipt,
                WriteOp::Put | WriteOp::Replace => self.after_mutating_op(receipt),
            },
        )
    }

    /// Puts (or migrates in) a new object named `name`, noting its handle
    /// under `key`, the key `name` is the string form of, if it is one
    /// ([`Store::note_put`]).
    fn insert(
        &mut self,
        op: WriteOp,
        name: &str,
        key: Option<ObjectKey>,
        size: u64,
    ) -> Result<OpReceipt, StoreError> {
        let migrating = op == WriteOp::MigrateIn;
        let written = self
            .substrate
            .insert(name, size, self.write_request_size, migrating)?;
        let (handle, receipt) = self.commit(op, written);
        if let Some(key) = key {
            self.note_put(key, handle);
        }
        Ok(receipt)
    }

    /// Safe-writes every live object of `batch`, handing each item's
    /// receipt to `receipt` and leaving in `batch` each item's handle after
    /// its write.  Each [`Substrate::replace`] is asked for the items not
    /// yet written, and each item it wrote is committed before it is asked
    /// again.
    fn replace_batch(
        &mut self,
        batch: &mut [(S::Handle, u64)],
        mut receipt: impl FnMut(OpReceipt),
    ) -> Result<(), StoreError> {
        let mut next = 0;
        while next < batch.len() {
            let (all, first) = match self
                .substrate
                .replace(&batch[next..], self.write_request_size)?
            {
                Replaced::All(written) => (written, None),
                Replaced::First(written) => (Vec::new(), Some(written)),
            };
            for written in all.into_iter().chain(first) {
                let (handle, committed) = self.commit(WriteOp::Replace, written);
                batch[next].0 = handle;
                receipt(committed);
                next += 1;
            }
        }
        Ok(())
    }

    /// The one safe-write body, behind [`ObjectStore::safe_write`],
    /// `safe_write_batch` and `safe_write_batch_keyed`: resolves every item
    /// ([`Store::resolve`] of what `target_of` says it names), replaces them as
    /// one batch ([`Store::replace_batch`]) and notes each key's new handle.
    /// A missing object fails the batch before anything is written.
    fn safe_write_items<T>(
        &mut self,
        items: &[(T, u64)],
        target_of: impl Fn(&T) -> Result<ObjectKey, &str>,
        receipt: impl FnMut(OpReceipt),
    ) -> Result<(), StoreError> {
        self.with_batch(items.len(), |store, batch| {
            for (slot, (item, size)) in batch.iter_mut().zip(items) {
                *slot = (store.resolve(target_of(item))?, *size);
            }
            store.replace_batch(batch, receipt)?;
            for ((item, _), &(handle, _)) in items.iter().zip(batch.iter()) {
                if let Ok(key) = target_of(item) {
                    store.note(key, handle);
                }
            }
            Ok(())
        })
    }

    /// Runs `serve` on a batch buffer of `len` blank items, on the stack up
    /// to [`STACK_BATCH`] items.
    fn with_batch<R>(
        &mut self,
        len: usize,
        serve: impl FnOnce(&mut Self, &mut [(S::Handle, u64)]) -> R,
    ) -> R {
        let blank = (S::Handle::from(0), 0);
        if len <= STACK_BATCH {
            serve(self, &mut [blank; STACK_BATCH][..len])
        } else {
            serve(self, &mut vec![blank; len])
        }
    }

    /// Services and costs a read of `plan`.
    fn read(&mut self, plan: ReadPlan) -> OpReceipt {
        let served = self.disk.serve(AccessKind::Read, &plan.runs);
        let host_time = S::read_host_time(plan.units, plan.payload_bytes);
        self.charge(served.time, host_time);
        OpReceipt {
            payload_bytes: plan.payload_bytes,
            transferred_bytes: served.bytes,
            disk_time: served.time,
            host_time,
            fragments: served.segments,
        }
    }

    /// Deletes the live object `handle`, stored under `key`.
    fn remove(&mut self, handle: S::Handle, key: &str) -> Result<OpReceipt, StoreError> {
        self.substrate.remove(handle, key)?;
        let host_time = S::remove_host_time();
        self.charge(ServiceTime::default(), host_time);
        Ok(self.after_mutating_op(OpReceipt {
            host_time,
            ..OpReceipt::default()
        }))
    }

    /// The table's handle for `key`, if it has one (live or not).
    fn hint(&self, key: ObjectKey) -> Option<S::Handle> {
        let slot = *self.handles.get(usize::try_from(key.0).ok()?)?;
        (slot != 0).then(|| S::Handle::from(u64::from(slot)))
    }

    /// The handle of the object `key` numbers: the table's, while it is
    /// live, else the name's, which the table then notes.  A key with no
    /// object fails as its name does.
    fn handle(&mut self, key: ObjectKey) -> Result<S::Handle, StoreError> {
        if let Some(handle) = self.hint(key).filter(|&h| self.substrate.size(h).is_some()) {
            return Ok(handle);
        }
        let mut buf = ObjectKey::buf();
        let name = key.write_into(&mut buf);
        let handle = self.substrate.resolve(name).ok_or_else(|| missing(name))?;
        self.note(key, handle);
        Ok(handle)
    }

    /// The resolver behind every method that writes or reads an object's
    /// bytes: the handle of the object `target` names ([`target`]).  A key
    /// goes through the table ([`Store::handle`]), refreshing its entry; a
    /// name not in key form goes to the engine's name map.
    fn resolve(&mut self, target: Result<ObjectKey, &str>) -> Result<S::Handle, StoreError> {
        match target {
            Ok(key) => self.handle(key),
            Err(name) => self.substrate.resolve(name).ok_or_else(|| missing(name)),
        }
    }

    /// The resolver behind the `&str` methods that only look: what `read`
    /// answers of the object named `name`.  A name in key form is asked of
    /// the table's handle for its key first, and `read`, which answers
    /// `None` for a handle that is not live, is the liveness check; a dead
    /// or missing entry and any other name go to the engine's name map.
    /// The table is only read.
    fn find<T>(&self, name: &str, read: impl Fn(&S, S::Handle) -> Option<T>) -> Option<T> {
        let hinted = ObjectKey::parse(name).and_then(|key| self.hint(key));
        hinted
            .and_then(|handle| read(&self.substrate, handle))
            .or_else(|| read(&self.substrate, self.substrate.resolve(name)?))
    }

    /// `true` when the key table holds a live handle for `key`.
    #[cfg(test)]
    pub(crate) fn covers(&self, key: ObjectKey) -> bool {
        self.hint(key)
            .is_some_and(|h| self.substrate.size(h).is_some())
    }

    /// `true` when the table's entry for `key` is stale while the key lives:
    /// the entry's handle is dead and the engine's name map files the key's
    /// name under another.
    #[cfg(test)]
    pub(crate) fn is_stale(&self, key: ObjectKey) -> bool {
        let mut buf = ObjectKey::buf();
        self.hint(key)
            .is_some_and(|h| self.substrate.size(h).is_none())
            && self.substrate.resolve(key.write_into(&mut buf)).is_some()
    }

    /// Checks the key table against the engine, naming the first entry that
    /// disagrees: every entry whose handle is live must be the handle the
    /// engine's name map files its key's name under.  A dead entry is a
    /// hint nobody may trust, and every resolver checks it.
    #[cfg(test)]
    pub(crate) fn check_table(&self) -> Result<(), String> {
        let mut buf = ObjectKey::buf();
        for (number, &slot) in self.handles.iter().enumerate() {
            let hint = self.hint(ObjectKey(number as u64));
            let Some(handle) = hint.filter(|&h| self.substrate.size(h).is_some()) else {
                continue;
            };
            let name = ObjectKey(number as u64).write_into(&mut buf);
            let named = self.substrate.resolve(name);
            if named != Some(handle) {
                return Err(format!(
                    "the key table files {name} under live handle {slot}, the name map under {named:?}"
                ));
            }
        }
        Ok(())
    }

    /// Notes `handle` as the object `key` numbers, if the table has an
    /// entry for the key.  A handle too large for an entry clears it.
    fn note(&mut self, key: ObjectKey, handle: S::Handle) {
        let entry = usize::try_from(key.0)
            .ok()
            .and_then(|index| self.handles.get_mut(index));
        if let Some(entry) = entry {
            *entry = u32::try_from(handle.into()).unwrap_or(0);
        }
    }

    /// Notes the handle a put or a migration gave `key`, first extending
    /// the table to the key if it is within reach: below twice the objects
    /// held plus [`TABLE_SLACK`].  Only they extend the table, so it
    /// follows the population, not the keys the store is asked about.
    fn note_put(&mut self, key: ObjectKey, handle: S::Handle) {
        let reach = 2 * self.substrate.object_count() as u64 + TABLE_SLACK;
        if let Ok(index) = usize::try_from(key.0) {
            if key.0 < reach && index >= self.handles.len() {
                self.handles.resize(index + 1, 0);
            }
        }
        self.note(key, handle);
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
        self.insert(WriteOp::Put, key, ObjectKey::parse(key), size_bytes)
    }

    fn get(&mut self, key: &str) -> Result<OpReceipt, StoreError> {
        let handle = self.resolve(target(key))?;
        // A handle just resolved is live.
        let plan = self
            .substrate
            .read_plan(handle)
            .expect("a resolved handle is live");
        Ok(self.read(plan))
    }

    fn safe_write(&mut self, key: &str, size_bytes: u64) -> Result<OpReceipt, StoreError> {
        let mut receipt = OpReceipt::default();
        self.safe_write_items(&[(key, size_bytes)], |name| target(name), |r| receipt = r)?;
        Ok(receipt)
    }

    fn safe_write_batch(&mut self, items: &[(String, u64)]) -> Result<Vec<OpReceipt>, StoreError> {
        let mut receipts = Vec::with_capacity(items.len());
        self.safe_write_items(items, |name| target(name), |r| receipts.push(r))?;
        Ok(receipts)
    }

    fn delete(&mut self, key: &str) -> Result<OpReceipt, StoreError> {
        let handle = self.resolve(target(key))?;
        self.remove(handle, key)
    }

    fn put_keyed(&mut self, key: ObjectKey, size_bytes: u64) -> Result<OpReceipt, StoreError> {
        let mut buf = ObjectKey::buf();
        self.insert(
            WriteOp::Put,
            key.write_into(&mut buf),
            Some(key),
            size_bytes,
        )
    }

    fn get_keyed(&mut self, key: ObjectKey) -> Result<OpReceipt, StoreError> {
        let plan = match self.hint(key).and_then(|h| self.substrate.read_plan(h)) {
            Some(plan) => plan,
            None => {
                let handle = self.handle(key)?;
                // `handle` just resolved it.
                self.substrate
                    .read_plan(handle)
                    .expect("a resolved handle is live")
            }
        };
        Ok(self.read(plan))
    }

    fn delete_keyed(&mut self, key: ObjectKey) -> Result<OpReceipt, StoreError> {
        let handle = self.handle(key)?;
        self.remove(handle, key.write_into(&mut ObjectKey::buf()))
    }

    fn safe_write_batch_keyed(
        &mut self,
        items: &[(ObjectKey, u64)],
        receipts: &mut Vec<OpReceipt>,
    ) -> Result<(), StoreError> {
        self.safe_write_items(items, |&key| Ok(key), |r| receipts.push(r))
    }

    fn migrate_in(&mut self, key: &str, size_bytes: u64) -> Result<OpReceipt, StoreError> {
        self.insert(WriteOp::MigrateIn, key, ObjectKey::parse(key), size_bytes)
    }

    fn contains(&self, key: &str) -> bool {
        self.find(key, S::size).is_some()
    }

    fn object_count(&self) -> usize {
        self.substrate.object_count()
    }

    fn keys(&self) -> Vec<String> {
        self.substrate.keys()
    }

    fn size_of(&self, key: &str) -> Result<u64, StoreError> {
        self.find(key, S::size).ok_or_else(|| missing(key))
    }

    fn layout_of(&self, key: &str) -> Result<Vec<ByteRun>, StoreError> {
        let plan = self.find(key, S::read_plan).ok_or_else(|| missing(key))?;
        Ok(plan.runs)
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
        fn a_write_receipt_counts_the_fragments_of_its_layout() {
            // Every second small object deleted leaves holes for the writes
            // to land in, and the batch interleaves its items' requests.
            let mut store = $Store::new(64 * MB).unwrap();
            for i in 0..32 {
                store.put(&format!("pad{i}"), MB / 2).unwrap();
            }
            for i in (0..32).step_by(2) {
                store.delete(&format!("pad{i}")).unwrap();
            }
            let layout_fragments = |store: &$Store, name: &str| {
                lor_disksim::merged(&store.layout_of(name).unwrap()).count() as u64
            };
            let mut counted = Vec::new();
            for name in ["a", "b", "c"] {
                let put = store.put(name, 3 * MB).unwrap();
                assert_eq!(put.fragments, layout_fragments(&store, name), "put {name}");
                counted.push(put.fragments);
            }
            let rewrite = store.safe_write("a", 2 * MB).unwrap();
            assert_eq!(rewrite.fragments, layout_fragments(&store, "a"));
            counted.push(rewrite.fragments);
            let batch = [("a", MB), ("b", 2 * MB), ("c", 3 * MB)];
            let items: Vec<(String, u64)> = batch
                .iter()
                .map(|&(name, size)| (name.to_owned(), size))
                .collect();
            let receipts = store.safe_write_batch(&items).unwrap();
            for ((name, _), receipt) in batch.iter().zip(&receipts) {
                assert_eq!(
                    receipt.fragments,
                    layout_fragments(&store, name),
                    "batch {name}"
                );
                counted.push(receipt.fragments);
            }
            // The log appends each version whole at its head; the other two
            // must have written something in pieces, or nothing was pinned.
            if $kind != StoreKind::LogStructured {
                assert!(
                    counted.iter().any(|&fragments| fragments > 1),
                    "{counted:?}"
                );
            }
        }

        /// One safe write is one operation however it arrives: by name, as a
        /// one-item batch by name or by key, or dispatched by a one-client
        /// `StoreServer`, it gives the same receipt, clock, layout and
        /// fragmentation.  The store leaves holes for the write to land in:
        /// 24 puts of 1 MiB + 3,000 B, every second one deleted, then 16
        /// puts of 100,000 B.  While a lone safe write on the database
        /// allocated its whole version in one request and a batch's item in
        /// write requests, the 3 MiB version took 4 fragments by name and 11
        /// as a batch.
        #[test]
        fn one_safe_write_is_the_same_however_it_arrives() {
            use $crate::{ObjectKey, OpReceipt, StoreServer, WorkloadOp};
            let (key, size) = (ObjectKey(1), 3 * MB);
            let name = key.to_string();
            let aged = || {
                let mut store = $Store::new(64 * MB).unwrap();
                for i in 0..24 {
                    store.put_keyed(ObjectKey(i), MB + 3_000).unwrap();
                }
                for i in (0..24).step_by(2) {
                    store.delete_keyed(ObjectKey(i)).unwrap();
                }
                for i in 24..40 {
                    store.put_keyed(ObjectKey(i), 100_000).unwrap();
                }
                store
            };
            let outcome = |store: &$Store, receipts: Vec<OpReceipt>| {
                let layout = store.layout_of(&name).unwrap();
                (receipts, store.elapsed(), layout, store.fragmentation())
            };

            let mut by_name = aged();
            let receipt = by_name.safe_write(&name, size).unwrap();
            let expected = outcome(&by_name, vec![receipt]);
            assert_eq!(by_name.size_of(&name).unwrap(), size);

            let mut batch = aged();
            let receipts = batch.safe_write_batch(&[(name.clone(), size)]).unwrap();
            assert_eq!(outcome(&batch, receipts), expected, "a one-item batch");

            let mut keyed = aged();
            let mut receipts = Vec::new();
            keyed
                .safe_write_batch_keyed(&[(key, size)], &mut receipts)
                .unwrap();
            assert_eq!(
                outcome(&keyed, receipts),
                expected,
                "a one-item keyed batch"
            );

            let mut served = aged();
            let write = vec![WorkloadOp::SafeWrite { key, size }];
            let completions = StoreServer::new(&mut served)
                .run_closed_loop(write, 1, SimDuration::ZERO)
                .unwrap();
            let receipts = completions.iter().map(|done| done.receipt).collect();
            assert_eq!(
                outcome(&served, receipts),
                expected,
                "a one-client server run"
            );
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
                StoreKind::LogStructured => check(
                    LogObjectStore::new(64 * MB).unwrap(),
                    LogObjectStore::verify,
                ),
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
