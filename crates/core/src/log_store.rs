//! The log-structured object store (append-only segments, cleaner
//! reclamation).
//!
//! The third substrate next to [`crate::FsObjectStore`] and
//! [`crate::DbObjectStore`]: objects append head-first into fixed-size
//! segments of a [`SegmentLog`], updates append a fresh version and deaden the
//! old one, and space comes back **only** through the segment cleaner.
//! Background cleaning runs as the `lor-maint` defragmentation task
//! (cost-benefit victim selection, survivors compacted through the
//! maintenance placement consumer); allocation-pressure *emergency* cleaning
//! happens inside the substrate and its copy I/O is charged to the foreground
//! operation that forced it — exactly like the filesystem's emergency
//! checkpoints, but far more expensive, which is the log's trade-off.
//!
//! The log knows objects by `u64` id; the key → id index lives here and is a
//! hash map with a fixed state, as the volume's and the BLOB engine's name
//! maps are: every operation is a point look-up (one probe — a put refuses a
//! taken key and claims its slot through the same entry), nothing an
//! operation does walks the index, and `keys()`, the one reader of an order,
//! sorts on demand.  As an ordered map of strings it cost an aged run 13 %
//! of its host time in `memcmp` and as much again in the descents around
//! it (EXPERIMENTS.md, "Host cost of the key path").  Its keys are
//! [`Name`]s, whose bytes live in the bucket itself, so a probe reads no
//! second cache line and a put allocates no key.

use std::collections::hash_map::{DefaultHasher, Entry};
use std::collections::HashMap;
use std::hash::BuildHasherDefault;

use lor_alloc::{BandOccupancy, Extent, FragmentationSummary, FreeSpace, FreeSpaceReport, Name};
use lor_disksim::{ByteRun, DiskConfig, SimDuration};
use lor_logstore::{CleanReport, LogConfig, LogError, SegmentLog};
use lor_maint::MaintIo;
use lor_obs::{ArgValue, Obs, Track};

use crate::error::StoreError;
use crate::store::{
    Store, StoreKind, DB_LOOKUP_TIME, FS_PER_WRITE_REQUEST_TIME, METADATA_IO_TIME,
    PAPER_WRITE_REQUEST_SIZE,
};
use crate::substrate::{Moved, ReadPlan, Substrate, WriteOp, Written, WrittenFragments};

/// Configuration of a log-structured store: the log and its disk.
#[derive(Debug, Clone, PartialEq)]
pub struct LogStoreConfig {
    /// The simulated segment log.
    pub log: LogConfig,
    /// The simulated disk the log lives on.
    pub disk: DiskConfig,
}

impl LogStoreConfig {
    /// A log of `capacity_bytes` on a scaled slice of the 400 GB reference
    /// disk.
    pub fn new(capacity_bytes: u64) -> Self {
        LogStoreConfig {
            log: LogConfig::new(capacity_bytes),
            disk: DiskConfig::seagate_400gb_2005().scaled(capacity_bytes),
        }
    }
}

/// Objects stored as versioned records in an append-only segment log.
pub type LogObjectStore = Store<LogSubstrate>;

impl LogObjectStore {
    /// A store on a log of `capacity_bytes` with the paper's 64 KB write
    /// requests and no maintenance scheduler (only emergency cleaning
    /// reclaims space).
    pub fn new(capacity_bytes: u64) -> Result<Self, StoreError> {
        let LogStoreConfig { log, disk } = LogStoreConfig::new(capacity_bytes);
        Store::build(log, disk, PAPER_WRITE_REQUEST_SIZE, None)
    }

    /// The underlying segment log (read-only), for segment statistics and
    /// test fixtures.
    pub fn log(&self) -> &SegmentLog {
        &self.substrate.log
    }
}

/// The segment log as a [`Substrate`], plus the name index the log itself
/// does not keep.
#[derive(Debug)]
pub struct LogSubstrate {
    pub(crate) log: SegmentLog,
    /// Key-to-record index (memory-resident, like the blob index the paper's
    /// repositories keep in their metadata tier).  Hashed with a fixed
    /// state (module docs): runs stay deterministic, and keys come from the
    /// simulation's own workloads, never from an adversary.  A key's bytes
    /// live in its bucket (a [`Name`] of up to [`Name::INLINE`] bytes; a
    /// longer one on the heap), and the map is searched with
    /// `key.as_bytes()`.
    names: HashMap<Name, u64, BuildHasherDefault<DefaultHasher>>,
    next_id: u64,
}

impl LogSubstrate {
    fn lookup(&self, key: &str) -> Result<u64, StoreError> {
        self.names
            .get(key.as_bytes())
            .copied()
            .ok_or_else(|| StoreError::NoSuchObject(key.to_string()))
    }
}

fn byte_runs(extents: &[Extent]) -> Vec<ByteRun> {
    extents
        .iter()
        .map(|extent| ByteRun::new(extent.start, extent.len))
        .collect()
}

/// Cleaning a segment costs reading the survivors and writing them back (a
/// pair of positioning delays per object moved), plus the segment-table
/// updates for the freed victims.
fn moved(report: CleanReport) -> Moved {
    Moved {
        bytes_copied: report.bytes_copied,
        repositionings: 2 * report.objects_moved,
        table_units: Some(report.segments_freed),
    }
}

/// Maps a substrate error onto the store error for `key`.
fn log_err(err: LogError, key: &str) -> StoreError {
    match err {
        LogError::ObjectExists(_) => StoreError::ObjectExists(key.to_string()),
        LogError::NoSuchObject(_) => StoreError::NoSuchObject(key.to_string()),
        LogError::OutOfSpace => StoreError::OutOfSpace(format!(
            "segment log full appending {key:?} (cleaning found no dead bytes)"
        )),
        other => other.into(),
    }
}

impl Substrate for LogSubstrate {
    type Config = LogConfig;
    const KIND: StoreKind = StoreKind::LogStructured;
    const DISK_LABEL: &'static str = "log-store";

    fn create(config: LogConfig, _scheduled: bool) -> Result<Self, StoreError> {
        // Nothing to switch off: the log has no interval-driven cleaning of
        // its own, only the allocation-pressure emergency path.
        Ok(LogSubstrate {
            log: SegmentLog::new(config)?,
            names: HashMap::default(),
            next_id: 1,
        })
    }

    fn write(
        &mut self,
        op: WriteOp,
        key: &str,
        size: u64,
        request: u64,
    ) -> Result<Written, StoreError> {
        let appended = match op {
            // Append-then-deaden *is* the log's safe write: the old version
            // stays readable until the new one is fully on disk, no temp
            // file needed.
            WriteOp::Replace => self.log.update(self.lookup(key)?, size),
            WriteOp::Put | WriteOp::MigrateIn => {
                // One probe refuses a taken key and holds the slot the id
                // lands in once the append has succeeded.
                let Entry::Vacant(slot) = self.names.entry(Name::new(key)) else {
                    return Err(StoreError::ObjectExists(key.to_string()));
                };
                let id = self.next_id;
                let appended = if op == WriteOp::Put {
                    self.log.insert(id, size)
                } else {
                    self.log.insert_as_maintenance(id, size)
                };
                appended.inspect(|_| {
                    slot.insert(id);
                    self.next_id += 1;
                })
            }
        };
        let outcome = appended.map_err(|e| log_err(e, key))?;
        Ok(Written {
            runs: byte_runs(&outcome.extents),
            payload_bytes: size,
            units: size.div_ceil(request).max(1),
            fragments: WrittenFragments::Counted(outcome.fragments),
            // Any emergency cleaning the append forced is charged to it.
            forced_copy: moved(outcome.emergency),
        })
    }

    fn replace_interleaved(
        &mut self,
        _items: &[(String, u64)],
        _request: u64,
    ) -> Result<Option<Vec<Written>>, StoreError> {
        // Group commit: a log serializes appends, so concurrent safe writes
        // land whole and contiguous in batch order at the head — the log
        // never interleaves a batch the way the filesystem's round-robin
        // temp-file writes do.  (Each record is still its own version, so
        // per-item receipts fall out naturally.)
        Ok(None)
    }

    fn read_plan(&self, key: &str) -> Result<ReadPlan, StoreError> {
        let id = self.lookup(key)?;
        let extents = self.log.extents_of(id).map_err(|e| log_err(e, key))?;
        Ok(ReadPlan {
            runs: byte_runs(extents),
            payload_bytes: self.log.size_of(id).map_err(|e| log_err(e, key))?,
            units: 0,
        })
    }

    fn remove(&mut self, key: &str) -> Result<(), StoreError> {
        let id = self.lookup(key)?;
        self.log.remove(id).map_err(|e| log_err(e, key))?;
        self.names.remove(key.as_bytes());
        Ok(())
    }

    /// The index update plus per-request submission cost.
    fn write_host_time(write_requests: u64, _payload: u64) -> SimDuration {
        DB_LOOKUP_TIME + FS_PER_WRITE_REQUEST_TIME * write_requests
    }

    /// One lookup, no metadata I/O: the log's index is memory-resident
    /// (rebuilt at mount and pinned).
    fn read_host_time(_units: u64, _payload: u64) -> SimDuration {
        DB_LOOKUP_TIME
    }

    fn remove_host_time() -> SimDuration {
        METADATA_IO_TIME
    }

    fn size_of(&self, key: &str) -> Result<u64, StoreError> {
        let id = self.lookup(key)?;
        self.log.size_of(id).map_err(|e| log_err(e, key))
    }

    fn object_count(&self) -> usize {
        self.names.len()
    }

    fn keys(&self) -> Vec<String> {
        // Only analysis and tests ask, never an operation.
        let mut keys: Vec<String> = self
            .names
            .keys()
            .map(|key| key.as_str().to_owned())
            .collect();
        keys.sort_unstable();
        keys
    }

    fn live_bytes(&self) -> u64 {
        self.log.live_bytes()
    }

    fn data_capacity_bytes(&self) -> u64 {
        self.log.data_capacity_bytes()
    }

    fn fragmentation(&self) -> FragmentationSummary {
        self.log.fragmentation()
    }

    fn free_space_report(&self) -> FreeSpaceReport {
        // The log's allocation granule is the segment, so the report's
        // "clusters" are segments: `largest_run` is the longest contiguous
        // free-segment run, the resource the cleaner must replenish.
        FreeSpaceReport::from_free_space(self.log.free_map())
    }

    fn band_occupancy(&self) -> BandOccupancy {
        let map = self.log.free_map();
        let total = map.total_clusters();
        let boundary = self.log.config().placement.boundary_cluster(total);
        BandOccupancy::from_runs(total, boundary, &map.free_runs())
    }

    // No ghost backlog: cleaning is the only reclamation — dead bytes cannot
    // be released short of running the cleaner.

    fn checkpoint(&mut self) -> Option<u64> {
        // Force the segment-usage table / index log tail, like the
        // database's bulk-logged log force.
        Some(0)
    }

    fn defragment_step(&mut self, budget_bytes: u64) -> Result<Moved, StoreError> {
        // Each survivor byte is read once and written once.
        let copy_budget = (budget_bytes / 2).max(1);
        Ok(moved(self.log.clean_step(copy_budget)?))
    }

    fn full_pass(&mut self) -> Result<Moved, StoreError> {
        Ok(moved(self.log.clean_all()?))
    }

    fn trace_forced_copy(&self, obs: &Obs, now: SimDuration) {
        obs.counter(
            "cleaner.emergency_bytes",
            now.as_nanos(),
            self.log.emergency_totals().bytes_copied as f64,
        );
    }

    fn trace_slice(&self, obs: &Obs, now: SimDuration, io: MaintIo, moved: Moved) {
        let now_ns = now.as_nanos();
        let utilization = self.log.segment_stats().mean_utilization;
        obs.gauge("log.segment_utilization", now_ns, utilization);
        let total_moved = self.log.cleaner_totals().bytes_copied;
        obs.counter("cleaner.bytes_moved", now_ns, total_moved as f64);
        if moved.bytes_copied > 0 {
            let freed = moved.table_units.unwrap_or(0);
            obs.span(
                Track::Cleaner,
                "clean",
                now_ns,
                io.time.as_nanos(),
                &[
                    ("bytes_copied", ArgValue::U64(moved.bytes_copied)),
                    ("segments_freed", ArgValue::U64(freed)),
                ],
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::ObjectStore;

    const MB: u64 = 1 << 20;

    crate::store::adapter_suite!(LogObjectStore, StoreKind::LogStructured);

    #[test]
    fn maintenance_cleans_dead_segments() {
        let mut store = LogObjectStore::new(256 * MB).unwrap();
        for i in 0..8 {
            store.put(&format!("o{i}"), MB).unwrap();
        }
        // A freshly loaded log has no dead bytes: nothing to clean.
        assert_eq!(store.maintenance().unwrap(), 0);
        // Rewriting every other object leaves each original segment half
        // dead; a full clean copies the survivors out and reclaims all of it.
        for i in (0..8).step_by(2) {
            store.safe_write(&format!("o{i}"), MB).unwrap();
        }
        // The old versions' bytes are dead, waiting for the cleaner.
        assert!(store.log().dead_bytes() >= 4 * MB);
        let before = store.elapsed();
        let copied = store.maintenance().unwrap();
        assert!(copied > 0, "survivors of half-dead segments must move");
        assert_eq!(store.log().dead_bytes(), 0, "a full clean reclaims all");
        assert!(store.elapsed() > before, "cleaning costs foreground time");
    }

    /// The name index is hashed; `keys()` still lists ascending, whatever
    /// order the keys arrived in and whatever came and went in between.
    #[test]
    fn keys_list_ascending_whatever_the_insertion_order() {
        let name = |i: u32| format!("k{i:03}");
        let mut store = LogObjectStore::new(256 * MB).unwrap();
        for i in (0..40).rev() {
            store.put(&name(i), 64 * 1024).unwrap();
        }
        // 37 is coprime to 100: a fixed shuffle of 40..140.
        for i in (0..100).map(|i| 40 + i * 37 % 100) {
            store.put(&name(i), 64 * 1024).unwrap();
        }
        for i in (0..140).step_by(3) {
            store.delete(&name(i)).unwrap();
        }
        for i in (0..140).step_by(6).rev() {
            store.put(&name(i), 64 * 1024).unwrap();
        }
        let expected: Vec<String> = (0..140)
            .filter(|i| i % 3 != 0 || i % 6 == 0)
            .map(name)
            .collect();
        assert_eq!(store.keys(), expected);
    }

    #[test]
    fn migrate_in_uses_the_maintenance_head() {
        let mut store = LogObjectStore::new(256 * MB).unwrap();
        store.put("fg", MB).unwrap();
        let receipt = store.migrate_in("moved", MB).unwrap();
        assert_eq!(receipt.payload_bytes, MB);
        assert!(store.contains("moved"));
        assert_eq!(store.size_of("moved").unwrap(), MB);
        // Migration must not count as a foreground op for the scheduler.
        assert!(store.maintenance_stats().is_none());
    }
}
