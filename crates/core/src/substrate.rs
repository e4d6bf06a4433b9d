//! The per-engine half of an object store.
//!
//! [`crate::Store`] owns everything the three stores share — clock, disk
//! charging, receipts, the maintenance drive, tracing.  [`Substrate`] is what
//! is left: where an engine puts the bytes, which host-cost formula applies,
//! and what its maintenance duties moved.  A substrate never touches the
//! clock or the disk model; it reports runs and counts and the store costs
//! them, so the three systems are measured by literally the same code.

use lor_alloc::{BandOccupancy, FragmentationSummary, FreeSpaceReport};
use lor_disksim::{ByteRun, SimDuration};
use lor_maint::MaintIo;
use lor_obs::Obs;

use crate::error::StoreError;
use crate::store::StoreKind;

/// Which write-path operation a [`crate::Store`] performs: what decides
/// whether it ticks the store's maintenance scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteOp {
    /// Store a new object.
    Put,
    /// Atomically replace an existing object (safe write).
    Replace,
    /// Store a new object through the allocator's maintenance consumer.
    MigrateIn,
}

/// What a write-path operation placed, for the store to service and cost.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Written {
    /// The handle of the version written (the substrate's id of the object
    /// now holding the data).
    pub handle: u64,
    /// Physical byte runs written, in write order.
    pub runs: Vec<ByteRun>,
    /// Object bytes written.
    pub payload_bytes: u64,
    /// What [`Substrate::write_host_time`] charges per unit of (write
    /// requests or pages).
    pub units: u64,
    /// Fragments the version was written into, counted by the engine when
    /// the version commits: the receipt's `fragments`.
    pub fragments: u64,
    /// Copying the write forced inside the substrate (the log's emergency
    /// cleaning), charged to this operation.
    pub forced_copy: Moved,
}

/// What [`Substrate::replace`] wrote of its batch.
#[derive(Debug)]
pub enum Replaced {
    /// Every item, in batch order, their write requests interleaved on disk
    /// (the volume and the BLOB engine).
    All(Vec<Written>),
    /// The first item alone (the log's group commit serialises concurrent
    /// writes): the store commits it, which may tick a store-attached
    /// maintenance drive, and then asks for the rest.
    First(Written),
}

/// Where an object's bytes are, for the store to read and cost.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadPlan {
    /// Physical byte runs in logical order.
    pub runs: Vec<ByteRun>,
    /// Object bytes returned.
    pub payload_bytes: u64,
    /// What [`Substrate::read_host_time`] charges per unit of.
    pub units: u64,
}

/// Data a maintenance action relocated.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Moved {
    /// Payload bytes copied (each is read once and written once).
    pub bytes_copied: u64,
    /// Head repositionings the copy needed.
    pub repositionings: u64,
    /// Allocation-table units updated on top of the copy, costed as a
    /// metadata sweep (`None`: the move's own I/O covers its bookkeeping).
    pub table_units: Option<u64>,
}

impl Moved {
    /// `true` when the action found nothing to do.
    pub fn is_empty(&self) -> bool {
        self.bytes_copied == 0 && self.table_units.unwrap_or(0) == 0
    }

    /// Accumulates another action into this one.
    pub fn absorb(&mut self, other: Moved) {
        self.bytes_copied += other.bytes_copied;
        self.repositionings += other.repositionings;
        if let Some(units) = other.table_units {
            *self.table_units.get_or_insert(0) += units;
        }
    }
}

/// One storage engine behind [`crate::Store`].  Used only through generics,
/// so each store monomorphises to direct calls into its engine.
///
/// An object is addressed by name only to create it, to resolve it and to
/// remove it from the engine's name map; reads, sizes and replacements take
/// its [`Substrate::Handle`], the id the engine files it under, and answer
/// `None` (or fail) for a handle that is not live.  Liveness is
/// [`Substrate::size`]: a handle is live while it has a size.  No engine
/// reuses a handle, so a handle that is still live still names the object
/// it was resolved for, and the store keeps handles as hints: its key
/// table, which every store method on a key's name goes through.  The
/// engine's name map is the authority the store falls back on.
///
/// A safe write has one method, [`Substrate::replace`], over a batch: a lone
/// safe write is a batch of one, written in the same write requests as any
/// batch's item.  The volume and the BLOB engine replace the whole batch
/// with their write requests interleaved ([`Replaced::All`]).  The log
/// replaces only the first item ([`Replaced::First`]); the store commits it
/// before it asks for the rest, so a store-attached maintenance drive ticks
/// between the log's items.
///
/// Each write hands back the fragments the version was written into,
/// counted by the engine when the version commits ([`Written::fragments`]):
/// the store services and costs the write but never counts them.
pub trait Substrate: Send + std::fmt::Debug + Sized {
    /// The engine's own configuration.
    type Config;
    /// The id the engine files an object under, as a number (`u64::from`)
    /// and back (`From<u64>`).
    type Handle: Copy + PartialEq + Send + std::fmt::Debug + From<u64> + Into<u64>;
    /// Which system this is.
    const KIND: StoreKind;
    /// Name of the store's disk in traces.
    const DISK_LABEL: &'static str;

    /// Builds the engine.  When `scheduled`, a `lor-maint` scheduler owns
    /// the background duties, so the engine's own interval-driven cleanup or
    /// checkpoint is switched off (allocation-pressure emergency paths stay).
    fn create(config: Self::Config, scheduled: bool) -> Result<Self, StoreError>;

    /// Makes room in the engine's name map for `keys` more names, so that a
    /// planned population does not regrow it.
    fn reserve(&mut self, keys: usize);

    /// Puts one new object under `key` in `request`-sized chunks, through
    /// the allocator's maintenance consumer when `migrating`.
    fn insert(
        &mut self,
        key: &str,
        size: u64,
        request: u64,
        migrating: bool,
    ) -> Result<Written, StoreError>;

    /// The handle of the object stored under `key`, if there is one: one
    /// probe of the engine's name map, which builds nothing on a miss.
    fn resolve(&self, key: &str) -> Option<Self::Handle>;

    /// Safe-writes the live objects `items` name, a batch whose writes are
    /// in flight together, and says what it wrote ([`Replaced`]; an empty
    /// batch is [`Replaced::All`] of nothing).
    fn replace(
        &mut self,
        items: &[(Self::Handle, u64)],
        request: u64,
    ) -> Result<Replaced, StoreError>;

    /// Where the bytes of the object `handle` are; `None` when it is not
    /// live.
    fn read_plan(&self, handle: Self::Handle) -> Option<ReadPlan>;

    /// Deletes the live object `handle`, stored under `key`.
    fn remove(&mut self, handle: Self::Handle, key: &str) -> Result<(), StoreError>;

    /// Host time of a write of `payload_bytes` in `units`.
    fn write_host_time(units: u64, payload_bytes: u64) -> SimDuration;
    /// Host time of a read of `payload_bytes` in `units`.
    fn read_host_time(units: u64, payload_bytes: u64) -> SimDuration;
    /// Host time of a delete.
    fn remove_host_time() -> SimDuration;

    /// Logical size of the object `handle`; `None` when it is not live,
    /// which makes it the liveness check of every handle the store holds.
    fn size(&self, handle: Self::Handle) -> Option<u64>;
    /// Number of live objects.
    fn object_count(&self) -> usize;
    /// Keys of all live objects, in deterministic order.
    fn keys(&self) -> Vec<String>;
    /// Bytes of live object payload.
    fn live_bytes(&self) -> u64;
    /// Bytes of capacity available to object data.
    fn data_capacity_bytes(&self) -> u64;
    /// Fragments-per-object summary over all live objects.
    fn fragmentation(&self) -> FragmentationSummary;
    /// Free-space shape, for the probe tick's gauges.
    fn free_space_report(&self) -> FreeSpaceReport;
    /// Occupancy of the placement bands.
    fn band_occupancy(&self) -> BandOccupancy;

    /// Bytes of ghost space [`Substrate::ghost_cleanup`] could make
    /// reusable; 0 for an engine with no ghost mechanism.
    fn reclaimable_bytes(&self) -> u64 {
        0
    }

    /// Releases ghost space within about `budget_bytes` of visits (a
    /// read-modify-write each), returning `(units reclaimed, bytes per
    /// unit)`; `None` when there is no backlog or no ghost mechanism.
    fn ghost_cleanup(&mut self, _budget_bytes: u64) -> Option<(u64, u64)> {
        None
    }

    /// Checkpoints, returning the allocation units whose state the log force
    /// released; `None` when there was nothing to force.
    fn checkpoint(&mut self) -> Option<u64>;

    /// One bounded increment of defragmentation within about `budget_bytes`
    /// of background I/O.
    fn defragment_step(&mut self, budget_bytes: u64) -> Result<Moved, StoreError>;

    /// The full offline pass (defragment everything / rebuild / clean all).
    fn full_pass(&mut self) -> Result<Moved, StoreError>;

    /// Trace hook: a foreground write just forced a copy.
    fn trace_forced_copy(&self, _obs: &Obs, _now: SimDuration) {}

    /// Trace hook: a budgeted slice at `now` performed `io`, its
    /// defragmentation steps moving `moved`.
    fn trace_slice(&self, _obs: &Obs, _now: SimDuration, _io: MaintIo, _moved: Moved) {}
}
