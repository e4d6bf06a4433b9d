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
use lor_maint::{MaintIo, MaintSubstrate};
use lor_obs::Obs;

use crate::error::StoreError;
use crate::store::{CostModel, StoreKind};

/// Which write-path operation [`Substrate::write`] performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteOp {
    /// Store a new object.
    Put,
    /// Atomically replace an existing object (safe write).
    Replace,
    /// Store a new object through the allocator's maintenance consumer.
    MigrateIn,
}

/// How the `fragments` of a write receipt are determined.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WrittenFragments {
    /// The substrate counted them as it placed the data.
    Counted(u64),
    /// The run count of the coalesced write request (what the disk saw).
    OfRequest,
    /// Read back from the substrate's record of this version
    /// ([`Substrate::record_fragments`]) once the request has been serviced;
    /// the request's run count if a later item of the same batch already
    /// replaced the record.
    OfRecord(u64),
}

/// What a write-path operation placed, for the store to service and cost.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Written {
    /// Physical byte runs written, in write order.
    pub runs: Vec<ByteRun>,
    /// Object bytes written.
    pub payload_bytes: u64,
    /// What [`Substrate::write_host_time`] charges per unit of (write
    /// requests or pages).
    pub units: u64,
    /// How to fill in the receipt's `fragments`.
    pub fragments: WrittenFragments,
    /// Copying the write forced inside the substrate (the log's emergency
    /// cleaning), charged to this operation.
    pub forced_copy: Moved,
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
pub trait Substrate: Send + std::fmt::Debug + Sized {
    /// The engine's own configuration.
    type Config;
    /// Which system this is.
    const KIND: StoreKind;
    /// Name of the store's disk in traces.
    const DISK_LABEL: &'static str;
    /// How the engine reacts to eager space release.
    const REUSE: MaintSubstrate;

    /// Builds the engine.  When `scheduled`, a `lor-maint` scheduler owns
    /// the background duties, so the engine's own interval-driven cleanup or
    /// checkpoint is switched off (allocation-pressure emergency paths stay).
    fn create(config: Self::Config, scheduled: bool) -> Result<Self, StoreError>;

    /// Puts, replaces or migrates in one object in `request`-sized chunks.
    fn write(
        &mut self,
        op: WriteOp,
        key: &str,
        size: u64,
        request: u64,
    ) -> Result<Written, StoreError>;

    /// Replaces several objects whose write requests interleave on disk, one
    /// [`Written`] per item.  `Ok(None)` when the engine serialises
    /// concurrent writes (the log's group commit): the store then replaces
    /// the items one at a time.
    fn replace_interleaved(
        &mut self,
        items: &[(String, u64)],
        request: u64,
    ) -> Result<Option<Vec<Written>>, StoreError>;

    /// Where the object's bytes are.
    fn read_plan(&self, key: &str) -> Result<ReadPlan, StoreError>;

    /// Deletes an object.
    fn remove(&mut self, key: &str) -> Result<(), StoreError>;

    /// Current fragment count of the version a write tagged
    /// [`WrittenFragments::OfRecord`], if it still exists.
    fn record_fragments(&self, _version: u64) -> Option<u64> {
        None
    }

    /// Host time of a write of `payload_bytes` in `units`.
    fn write_host_time(cost: &CostModel, units: u64, payload_bytes: u64) -> SimDuration;
    /// Host time of a read of `payload_bytes` in `units`.
    fn read_host_time(cost: &CostModel, units: u64, payload_bytes: u64) -> SimDuration;
    /// Host time of a delete.
    fn remove_host_time(cost: &CostModel) -> SimDuration;

    /// Logical size of an object.
    fn size_of(&self, key: &str) -> Result<u64, StoreError>;
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

    /// Bytes a cleanup pass could make reusable.
    fn reclaimable_bytes(&self) -> u64;

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
