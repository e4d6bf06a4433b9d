//! The volume: files, free space, deferred reuse, and the write paths.
//!
//! The behaviours the paper attributes to NTFS (Section 2 and Section 5.4)
//! are modelled explicitly:
//!
//! * File data is allocated **as it is appended**, in write-request-sized
//!   chunks, *before* the final file size is known — "there is no way to pass
//!   the (known) object size to the file system at file creation".
//! * When sequential appends are detected the allocator **aggressively tries
//!   to extend** the file's last extent (the extension hint).
//! * Allocation is satisfied from a **run-based cache** of free extents that
//!   prefers the outer band and large runs, and fragments the file only as a
//!   last resort (the native pick order of [`lor_alloc::SelectableAllocator`]).
//! * Space freed by deletion **cannot be reused until the transactional log
//!   commits**; the volume keeps a pending-free queue that is drained by
//!   [`Volume::checkpoint`] (called automatically every
//!   [`VolumeConfig::checkpoint_interval_ops`] operations, or when an
//!   allocation would otherwise fail).
//! * A small **MFT zone** is reserved for metadata so file data never starts
//!   at cluster zero, mirroring NTFS's banded metadata allocation.
//! * A **safe write** creates its temporary file *unnamed*, appends to it,
//!   and commits by swapping the target's id in the name map in place; the
//!   old record's name moves to the new one, and the new version has a new
//!   [`FileId`].  It is addressed by the target's id
//!   ([`Volume::safe_write_batch_by_id`]); the name-addressed
//!   [`Volume::safe_write`] and [`Volume::safe_write_batch`] resolve every
//!   name first and call it, so a missing target fails before any data is
//!   written.  A replace by id hashes once, at commit, formats no name, and
//!   cannot collide with a user's file.
//!
//! The hot path is sized for long aging runs (`EXPERIMENTS.md`, "Host cost of
//! the NTFS-like volume"): an append borrows its file record once, allocates
//! into a buffer the volume reuses, and settles the trackers from the counts
//! it already holds; a checkpoint hands the whole pending queue to the
//! allocator in one call.  The file table is a [`lor_alloc::IdTable`]: a
//! safe write files one record under a fresh id and retires an old one on
//! every replace, which on that table is a push and a slot handed back —
//! look-up, insert and removal by [`FileId`] are array reads, and listings
//! still come out in id order (`EXPERIMENTS.md`, "Host cost of the record
//! tables").  A file's layout is a [`RunList`], the type a BLOB's layout is
//! too: its maximal cluster runs, 8 bytes each, which is why a volume may
//! hold at most [`RunList::MAX_UNITS`] clusters (16 TiB; [`Volume::format`]
//! refuses more).  [`Volume::verify`] checks the structural invariants on the
//! type, and debug builds run it after every checkpoint, defragmentation
//! step, failed put and failed batch.
//!
//! A write that runs out of space leaves nothing behind: a failed
//! [`Volume::write_file`], [`Volume::write_file_preallocated`],
//! [`Volume::ingest_as_maintenance`], [`Volume::safe_write`] or
//! [`Volume::safe_write_batch`] deletes the file it was writing (its
//! clusters join the pending queue) and releases or never takes the name.
//!
//! The volume also implements the interface extension the paper proposes
//! (Section 6): [`Volume::write_file_preallocated`] passes the final object
//! size to the allocator up front, letting experiments quantify how much
//! fragmentation that change removes.
//!
//! ## Panics
//!
//! The volume returns [`FsError`] for everything a caller can cause (unknown
//! id or name, duplicate or empty name, out of space, bad configuration).
//! Five `expect`s are left outside the tests.  `safe_write` takes the one
//! receipt of its batch of one; the other four are each commented with
//! the [`Volume::verify`] clause that makes them unreachable: the
//! checkpoint's free of the pending queue (one owner per cluster), and the
//! three in `commit_replace` (the target was checked live before staging;
//! a live record's name is in the name map; a staged temporary lives until
//! its commit).
//! `trim_excess` trims a layout ([`RunList::trim_tail`], which panics on a
//! trim past the layout's units) by an excess it computed from that
//! layout's own unit count.
//! [`lor_alloc::IdTable::insert`] panics on an id that does not ascend, which
//! the table's own [`lor_alloc::IdTable::next_id`] — the only source of ids
//! — cannot produce.  `debug_verify` panics in debug builds naming the
//! clause a step broke: the tripwire that keeps those comments honest.

use std::collections::hash_map::Entry;

use lor_alloc::{
    AllocError, AllocRequest, AllocationPolicy, BandOccupancy, CountMultiset, Extent,
    ExtentListExt, FragmentationSummary, FragmentationTracker, FreeSpace, FreeSpaceReport, IdTable,
    Name, NameMap, PlacementConsumer, PlacementPolicy, RunList, SelectableAllocator,
};
use lor_disksim::ByteRun;

use crate::error::FsError;
use crate::file::{FileId, FileRecord};

/// Cap, in clusters, of the speculative preallocation performed for
/// sequentially growing files.
///
/// When sequential appends are detected, NTFS aggressively allocates
/// contiguous space ahead of the data; the excess is released when the file
/// is closed.  The model doubles the file's allocation on each append that
/// needs space, up to this cap, which is what keeps a file written by one
/// stream in a handful of extents even when other writes are in flight
/// concurrently.
const PREALLOCATION_CAP_CLUSTERS: u64 = 2048;

/// Cluster size in bytes (the NTFS default, and the paper's volume's).
const CLUSTER_SIZE: u64 = 4096;

/// Fraction of the volume reserved for the MFT zone (metadata band) at the
/// start of the volume.
const MFT_ZONE_FRACTION: f64 = 0.05;

/// Configuration of a simulated NTFS-like volume.
#[derive(Debug, Clone, PartialEq)]
pub struct VolumeConfig {
    /// Usable capacity in bytes: at most 2³² − 1 whole clusters, because a
    /// layout stores a cluster number in 32 bits ([`RunList`]).
    pub capacity_bytes: u64,
    /// Number of mutating operations (writes, deletes, safe writes) between
    /// automatic checkpoints that make deleted space reusable.
    ///
    /// `0` disables the interval-driven checkpoint entirely: pending-free
    /// space then accumulates until either allocation pressure forces a
    /// checkpoint or an external scheduler (the `lor-maint` background
    /// maintenance subsystem) calls [`Volume::checkpoint`] explicitly.
    pub checkpoint_interval_ops: u64,
    /// How the volume places file data.  [`AllocationPolicy::Native`] is the
    /// NTFS-style run cache; the fit policies exist for the cross-substrate
    /// ablation benches.
    pub allocation_policy: AllocationPolicy,
    /// Which region of free space each consumer may draw from.
    /// [`PlacementPolicy::Unrestricted`] reproduces the pre-placement
    /// behaviour bit-identically; the banded and reserve variants confine the
    /// online defragmenter so background relocation stops consuming the
    /// contiguous runs foreground writes need.
    pub placement: PlacementPolicy,
}

impl VolumeConfig {
    /// A volume resembling the paper's data volume: 4 KB clusters, a modest
    /// MFT zone, and deleted space becoming reusable after a handful of
    /// operations.
    pub fn new(capacity_bytes: u64) -> Self {
        VolumeConfig {
            capacity_bytes,
            checkpoint_interval_ops: 16,
            allocation_policy: AllocationPolicy::Native,
            placement: PlacementPolicy::Unrestricted,
        }
    }

    /// Total clusters on the volume.
    pub fn total_clusters(&self) -> u64 {
        self.capacity_bytes / CLUSTER_SIZE
    }

    /// Clusters reserved for the MFT zone: 5 % of the volume, at its start.
    pub fn mft_clusters(&self) -> u64 {
        (self.total_clusters() as f64 * MFT_ZONE_FRACTION).round() as u64
    }

    /// Clusters available to file data: the volume less its MFT zone.
    pub fn data_clusters(&self) -> u64 {
        self.total_clusters() - self.mft_clusters()
    }

    /// Cluster size in bytes: 4 KB on every volume.
    pub fn cluster_size(&self) -> u64 {
        CLUSTER_SIZE
    }

    fn validate(&self) -> Result<(), FsError> {
        if self.total_clusters() == 0 {
            return Err(FsError::BadConfig("capacity must be at least one cluster"));
        }
        // A layout stores a run as two 32-bit numbers (`RunList`).
        if self.total_clusters() > RunList::MAX_UNITS {
            return Err(FsError::BadConfig(
                "volume must hold at most 2^32 - 1 clusters",
            ));
        }
        self.placement.validate().map_err(FsError::BadConfig)?;
        Ok(())
    }
}

/// Counters describing everything a volume has been asked to do.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct VolumeStats {
    /// Files created (including temporary safe-write files).
    pub files_created: u64,
    /// Files deleted (including temporary safe-write files that replaced
    /// their targets).
    pub files_deleted: u64,
    /// Safe-write (atomic replace) operations completed.
    pub safe_writes: u64,
    /// Individual append (write-request) operations.
    pub appends: u64,
    /// Extent-allocation events (each may return several extents).
    pub allocation_events: u64,
    /// Total bytes ever written to files (includes rewrites).
    pub bytes_written: u64,
    /// Total bytes of deleted files.
    pub bytes_deleted: u64,
    /// Checkpoints performed (deferred frees made reusable).
    pub checkpoints: u64,
    /// Allocation retries that required an early checkpoint (allocation
    /// pressure forcing a log flush).
    pub forced_checkpoints: u64,
}

/// What a write-path operation did, so callers can charge the disk model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WriteReceipt {
    /// The file that now holds the data.
    pub file_id: FileId,
    /// Physical byte runs written, in write order (one entry per allocation,
    /// clipped to the bytes actually written into it).
    pub runs: Vec<ByteRun>,
    /// Bytes of file data written.
    pub bytes_written: u64,
}

/// Cluster ownership below the file table: the allocator, and the queue of
/// extents deletions freed that the log has not yet committed.  Kept apart
/// from the file table so an append can hold its file record while it
/// allocates — and, under allocation pressure, checkpoints.
#[derive(Debug, Clone)]
struct Space {
    allocator: SelectableAllocator,
    /// Extents freed by deletions that have not yet been checkpointed; they
    /// are unusable until [`Volume::checkpoint`] runs.
    pending_free: Vec<Extent>,
    /// Clusters in `pending_free`, kept beside the queue because the
    /// maintenance scheduler reads it every tick.
    pending_clusters: u64,
    ops_since_checkpoint: u64,
}

impl Space {
    /// Queues a deleted file's clusters until the next checkpoint.
    fn defer(&mut self, layout: &RunList) {
        self.pending_clusters += layout.units();
        self.pending_free.extend(layout.runs());
    }

    /// The log commit: every queued extent becomes reusable.
    fn checkpoint(&mut self, stats: &mut VolumeStats) {
        self.ops_since_checkpoint = 0;
        if self.pending_free.is_empty() {
            return;
        }
        // `verify` ("one owner per cluster"): the queue only ever receives
        // the extent maps of retired records, each exactly once, so none of
        // it overlaps a free run.
        self.allocator
            .free(&self.pending_free)
            .expect("pending extents were allocated and are freed exactly once");
        self.pending_free.clear();
        self.pending_clusters = 0;
        stats.checkpoints += 1;
    }

    /// Allocates into `out`, retrying once after a forced checkpoint if the
    /// volume is under allocation pressure (the log flush NTFS would
    /// perform).  On failure `out` is as it was.
    fn allocate_into(
        &mut self,
        request: &AllocRequest,
        out: &mut Vec<Extent>,
        stats: &mut VolumeStats,
    ) -> Result<(), FsError> {
        let foreground = PlacementConsumer::Foreground;
        match self.allocator.allocate_into(request, foreground, out) {
            Err(AllocError::OutOfSpace { .. }) if !self.pending_free.is_empty() => {
                stats.forced_checkpoints += 1;
                self.checkpoint(stats);
                Ok(self.allocator.allocate_into(request, foreground, out)?)
            }
            other => Ok(other?),
        }
    }
}

/// One in-flight replacement of a [`Volume::safe_write_batch`].
struct Staged {
    temp_id: FileId,
    size: u64,
    written: u64,
    runs: Vec<ByteRun>,
}

/// An NTFS-like volume.
#[derive(Debug, Clone)]
pub struct Volume {
    config: VolumeConfig,
    space: Space,
    /// Every live record, filed under the table's next id: one past the
    /// newest ever filed, so ids ascend and are never reused.
    files: IdTable<FileRecord>,
    /// Name → id of every named file.
    names: NameMap<FileId>,
    /// Unnamed temporaries of safe writes in flight (zero between
    /// operations).
    in_flight: u64,
    /// Clusters no file owns and no free run covers: the MFT zone plus
    /// whatever [`Volume::pin`] took.
    reserved_clusters: u64,
    stats: VolumeStats,
    /// Incremental per-file fragment-count accounting: updated at every
    /// layout mutation so [`Volume::fragmentation`] is O(1) in the file
    /// count (the maintenance scheduler observes it every tick).
    frag_tracker: FragmentationTracker,
    /// Allocated-cluster counts of every live file, so the foreground
    /// watermark (largest live allocation) is an O(1) max query instead of a
    /// full scan per defragmented file.
    alloc_tracker: CountMultiset,
    /// The extents of the append or trim in progress, reused across calls.
    scratch: Vec<Extent>,
}

impl Volume {
    /// Formats a new volume.
    pub fn format(config: VolumeConfig) -> Result<Self, FsError> {
        config.validate()?;
        let allocator = SelectableAllocator::with_placement(
            config.allocation_policy,
            config.total_clusters(),
            config.placement,
        );
        let mft = config.mft_clusters();
        let mut volume = Volume {
            config,
            space: Space {
                allocator,
                pending_free: Vec::new(),
                pending_clusters: 0,
                ops_since_checkpoint: 0,
            },
            files: IdTable::new(),
            names: NameMap::default(),
            in_flight: 0,
            reserved_clusters: 0,
            stats: VolumeStats::default(),
            frag_tracker: FragmentationTracker::new(),
            alloc_tracker: CountMultiset::new(),
            scratch: Vec::new(),
        };
        volume.pin(Extent::new(0, mft))?;
        Ok(volume)
    }

    /// Makes room in the name map for `files` more names.
    pub fn reserve(&mut self, files: usize) {
        self.names.reserve(files);
    }

    /// The volume configuration.
    pub fn config(&self) -> &VolumeConfig {
        &self.config
    }

    /// Capacity available to file data (total minus the MFT zone), in bytes.
    pub fn data_capacity_bytes(&self) -> u64 {
        self.config.data_clusters() * CLUSTER_SIZE
    }

    /// Clusters held in the pending-free queue.
    pub fn pending_clusters(&self) -> u64 {
        self.space.pending_clusters
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &VolumeStats {
        &self.stats
    }

    /// Number of live files.
    pub fn file_count(&self) -> usize {
        self.files.len()
    }

    /// Looks a file up by id.
    pub fn file(&self, id: FileId) -> Result<&FileRecord, FsError> {
        self.files.get(id.0).ok_or(FsError::NoSuchFile(id.0))
    }

    /// Looks a file id up by name.
    pub fn lookup(&self, name: &str) -> Result<FileId, FsError> {
        self.id_of(name)
            .ok_or_else(|| FsError::NoSuchName(name.to_string()))
    }

    /// The id of the file named `name`, if there is one: [`Volume::lookup`]
    /// without the error a miss builds.
    pub fn id_of(&self, name: &str) -> Option<FileId> {
        self.names.get(name.as_bytes()).copied()
    }

    /// Iterates over all live file records in id order.
    pub fn iter_files(&self) -> impl Iterator<Item = &FileRecord> {
        self.files.values()
    }

    /// Creates an empty file.
    pub fn create(&mut self, name: &str) -> Result<FileId, FsError> {
        if name.is_empty() {
            return Err(FsError::InvalidName(name.to_string()));
        }
        let id = FileId(self.files.next_id().max(1));
        let Entry::Vacant(slot) = self.names.entry(Name::new(name)) else {
            return Err(FsError::NameExists(name.to_string()));
        };
        let name = slot.key().clone();
        slot.insert(id);
        Ok(self.new_record(name))
    }

    /// Adds an empty record under the next id.  It counts as an object with
    /// zero fragments and zero allocated clusters.
    fn new_record(&mut self, name: Name) -> FileId {
        let id = FileId(self.files.next_id().max(1));
        self.files.insert(id.0, FileRecord::new(id, name));
        self.stats.files_created += 1;
        self.frag_tracker.record_insert(0);
        self.alloc_tracker.insert(0);
        id
    }

    /// Creates the temporary file of a safe write.  It carries no name — it
    /// inherits its target's at commit — so it can collide with no file and
    /// the name map is not touched.
    fn stage(&mut self) -> FileId {
        self.in_flight += 1;
        self.new_record(Name::default())
    }

    /// Appends `bytes` bytes to a file, allocating clusters as needed.
    ///
    /// This is the paper's append-granular allocation path: each call models
    /// one write request hitting the filesystem, which must allocate without
    /// knowing how much more data will follow.
    pub fn append(&mut self, id: FileId, bytes: u64) -> Result<Vec<ByteRun>, FsError> {
        let mut runs = Vec::new();
        self.append_into(id, bytes, &mut runs)?;
        Ok(runs)
    }

    /// [`Volume::append`], pushing the byte runs written onto `runs`.
    fn append_into(
        &mut self,
        id: FileId,
        bytes: u64,
        runs: &mut Vec<ByteRun>,
    ) -> Result<(), FsError> {
        if bytes == 0 {
            return Ok(());
        }
        let record = self.files.get_mut(id.0).ok_or(FsError::NoSuchFile(id.0))?;
        let old_fragments = record.fragment_count() as u64;
        let allocated = record.allocated_clusters();
        let write_offset = record.size_bytes;
        let new_size = write_offset + bytes;
        let needed = new_size
            .saturating_sub(allocated * CLUSTER_SIZE)
            .div_ceil(CLUSTER_SIZE);

        let new_extents = &mut self.scratch;
        new_extents.clear();
        if needed > 0 {
            // Speculative preallocation for sequentially growing files: double
            // the allocation (bounded) so that one writer's file stays in a
            // few large extents even when other writes are in flight.  The
            // excess is trimmed when the file is closed.  If the volume cannot
            // satisfy the speculative request, fall back to the exact need.
            let speculative = needed.max(allocated.min(PREALLOCATION_CAP_CLUSTERS));
            let mut request = AllocRequest::best_effort(speculative);
            request.hint = record.extension_hint();
            let stats = &mut self.stats;
            match self.space.allocate_into(&request, new_extents, stats) {
                Err(_) if speculative > needed => {
                    request.clusters = needed;
                    self.space.allocate_into(&request, new_extents, stats)?;
                }
                outcome => outcome?,
            }
            self.stats.allocation_events += 1;
        }

        record.layout.extend(new_extents.iter().copied());
        record.size_bytes = new_size;
        self.frag_tracker
            .record_replace(old_fragments, record.fragment_count() as u64);
        self.alloc_tracker
            .replace(allocated, record.allocated_clusters());
        self.stats.appends += 1;
        self.stats.bytes_written += bytes;

        // The byte runs this append physically wrote: the region from the old
        // end-of-file to the new one, walked over the updated extent map so
        // partially-filled final clusters come out right.
        Self::runs_for_range(record, write_offset, bytes, runs);
        Ok(())
    }

    /// Creates a file and writes `size_bytes` of data in `write_request_size`
    /// chunks — the workload's put path.
    pub fn write_file(
        &mut self,
        name: &str,
        size_bytes: u64,
        write_request_size: u64,
    ) -> Result<WriteReceipt, FsError> {
        let id = self.create(name)?;
        let outcome = self.fill(id, size_bytes, write_request_size);
        self.close_put(id, outcome)
    }

    /// Creates a file whose final size is declared up front, allocating all of
    /// it in a single request — the interface extension the paper proposes.
    pub fn write_file_preallocated(
        &mut self,
        name: &str,
        size_bytes: u64,
        write_request_size: u64,
    ) -> Result<WriteReceipt, FsError> {
        let id = self.create(name)?;
        let outcome = self.fill_preallocated(id, size_bytes, write_request_size);
        self.close_put(id, outcome)
    }

    /// Allocates all of `size_bytes` for the empty file `id` in one request,
    /// then writes it.
    fn fill_preallocated(
        &mut self,
        id: FileId,
        size_bytes: u64,
        write_request_size: u64,
    ) -> Result<WriteReceipt, FsError> {
        let clusters = size_bytes.div_ceil(CLUSTER_SIZE);
        if clusters > 0 {
            let mut extents = Vec::new();
            let request = AllocRequest::best_effort(clusters);
            self.space
                .allocate_into(&request, &mut extents, &mut self.stats)?;
            self.stats.allocation_events += 1;
            self.with_layout(id, |record| record.layout.extend(extents))?;
        }
        // Data is still written in write-request-sized chunks, but no further
        // allocation happens.
        self.fill(id, size_bytes, write_request_size)
    }

    /// Ends the put (or migration in) that created `id`: counts the
    /// operation, or — when the write ran out of space — deletes the partly
    /// written file, so a failed put leaves no name behind and its clusters
    /// go to the pending queue.
    fn close_put(
        &mut self,
        id: FileId,
        outcome: Result<WriteReceipt, FsError>,
    ) -> Result<WriteReceipt, FsError> {
        match outcome {
            Ok(_) => self.bump_op(),
            Err(_) => {
                let _ = self.delete(id);
                self.debug_verify();
            }
        }
        outcome
    }

    /// Creates a file for an object migrating in from another shard, placing
    /// its data as the **maintenance** consumer: under a banded or reserve
    /// [`PlacementPolicy`] the allocation is confined to the maintenance
    /// region and *fails* rather than spilling into the space foreground
    /// writes need — that refusal is the placement guarantee cross-shard
    /// rebalancing relies on.
    ///
    /// The object's size is known up front (it already exists on the source
    /// shard), so the whole allocation happens in one best-effort request,
    /// like [`Volume::write_file_preallocated`].  On allocation failure the
    /// just-created empty file is rolled back and the volume is unchanged.
    pub fn ingest_as_maintenance(
        &mut self,
        name: &str,
        size_bytes: u64,
    ) -> Result<WriteReceipt, FsError> {
        let id = self.create(name)?;
        let outcome = self.place_as_maintenance(id, size_bytes);
        self.close_put(id, outcome)
    }

    /// Allocates all of `size_bytes` for the empty file `id` in one request
    /// as the maintenance consumer, and writes it.
    fn place_as_maintenance(
        &mut self,
        id: FileId,
        size_bytes: u64,
    ) -> Result<WriteReceipt, FsError> {
        let clusters = size_bytes.div_ceil(CLUSTER_SIZE);
        let mut runs = Vec::new();
        if clusters > 0 {
            let consumer = PlacementConsumer::Maintenance {
                foreground_watermark: self.foreground_watermark(),
            };
            let request = AllocRequest::best_effort(clusters);
            let extents = self.space.allocator.allocate_as(&request, consumer)?;
            self.stats.allocation_events += 1;
            self.with_layout(id, |record| {
                record.layout.extend(extents);
                record.size_bytes = size_bytes;
                Self::runs_for_range(record, 0, size_bytes, &mut runs);
            })?;
        }
        self.stats.bytes_written += size_bytes;
        Ok(WriteReceipt {
            file_id: id,
            runs,
            bytes_written: size_bytes,
        })
    }

    /// Appends `size_bytes` in chunks to an existing file, then trims any
    /// speculative preallocation (the "close" of the write).
    fn fill(
        &mut self,
        id: FileId,
        size_bytes: u64,
        write_request_size: u64,
    ) -> Result<WriteReceipt, FsError> {
        let chunk = write_request_size.max(1);
        let mut runs = Vec::new();
        let mut written = 0;
        while written < size_bytes {
            let this = chunk.min(size_bytes - written);
            self.append_into(id, this, &mut runs)?;
            written += this;
        }
        self.trim_excess(id)?;
        Ok(WriteReceipt {
            file_id: id,
            runs,
            bytes_written: written,
        })
    }

    /// Releases clusters allocated beyond the file's logical size (undoing
    /// speculative preallocation when the file is closed).
    fn trim_excess(&mut self, id: FileId) -> Result<(), FsError> {
        let record = self.files.get_mut(id.0).ok_or(FsError::NoSuchFile(id.0))?;
        let needed = record.size_bytes.div_ceil(CLUSTER_SIZE);
        let allocated = record.allocated_clusters();
        if allocated <= needed {
            return Ok(());
        }
        let old_fragments = record.fragment_count() as u64;
        let released = &mut self.scratch;
        released.clear();
        // `allocated` is the layout's own unit count, so the layout holds
        // the excess.
        record.layout.trim_tail(allocated - needed, released);
        self.frag_tracker
            .record_replace(old_fragments, record.fragment_count() as u64);
        self.alloc_tracker.replace(allocated, needed);
        // Preallocated clusters never held committed data, so they return to
        // the free pool immediately rather than via the pending queue.
        Ok(self.space.allocator.free(released)?)
    }

    /// Deletes a file.  Its space goes onto the pending-free queue and becomes
    /// reusable at the next checkpoint.
    pub fn delete(&mut self, id: FileId) -> Result<(), FsError> {
        let record = self.files.remove(id.0).ok_or(FsError::NoSuchFile(id.0))?;
        if record.name.is_empty() {
            self.in_flight -= 1;
        } else {
            self.names.remove(record.name.as_bytes());
        }
        self.retire(record);
        self.bump_op();
        Ok(())
    }

    /// Accounts for a record just removed from the file table and queues its
    /// clusters for the next checkpoint.
    fn retire(&mut self, record: FileRecord) {
        self.frag_tracker
            .record_remove(record.fragment_count() as u64);
        self.alloc_tracker.remove(record.allocated_clusters());
        self.stats.files_deleted += 1;
        self.stats.bytes_deleted += record.size_bytes;
        self.space.defer(&record.layout);
    }

    /// Deletes a file by name.
    pub fn delete_by_name(&mut self, name: &str) -> Result<(), FsError> {
        let id = self.lookup(name)?;
        self.delete(id)
    }

    /// Atomically replaces the contents of `name` with `size_bytes` of new
    /// data, using the safe-write protocol the paper describes: write a
    /// temporary file, force it to disk, then swap it in and delete the old
    /// file.  A [`Volume::safe_write_batch`] of one item: the new version is
    /// a new file ([`WriteReceipt::file_id`]) under the same name.
    pub fn safe_write(
        &mut self,
        name: &str,
        size_bytes: u64,
        write_request_size: u64,
    ) -> Result<WriteReceipt, FsError> {
        let mut receipts = self.safe_write_batch(&[(name, size_bytes)], write_request_size)?;
        Ok(receipts
            .pop()
            .expect("a batch returns one receipt per item"))
    }

    /// ReplaceFile(): the file `target` is deleted and the temporary takes
    /// over its name.  Both copies coexisted until this point, which is what
    /// makes safe writes churn free space.
    fn commit_replace(&mut self, target: FileId, temp_id: FileId) {
        // `verify` ("unnamed records"): the batch checked every target live
        // before staging, and only a commit retires one, re-pointing later
        // items that name it at the temporary that replaced it.
        let mut old = self
            .files
            .remove(target.0)
            .expect("replace target was checked live at staging");
        // `verify` ("name map"): every named record is in the name map.
        let slot = self
            .names
            .get_mut(old.name.as_bytes())
            .expect("a live file's name is in the name map");
        *slot = temp_id;
        // `verify` ("unnamed records"): the temporaries in flight are live,
        // and one dies only on the abort paths, which never reach a commit.
        let temp = self
            .files
            .get_mut(temp_id.0)
            .expect("staged temporary lives until commit");
        temp.name = std::mem::take(&mut old.name);
        self.in_flight -= 1;
        self.retire(old);
        self.stats.safe_writes += 1;
        self.bump_op();
    }

    /// Atomically replaces several objects whose writes are in flight at the
    /// same time, as a concurrent web application does: the names resolved,
    /// then [`Volume::safe_write_batch_by_id`].  A missing name fails the
    /// batch before anything is written.
    pub fn safe_write_batch(
        &mut self,
        items: &[(&str, u64)],
        write_request_size: u64,
    ) -> Result<Vec<WriteReceipt>, FsError> {
        let targets = items
            .iter()
            .map(|&(name, size)| Ok((self.lookup(name)?, size)))
            .collect::<Result<Vec<_>, FsError>>()?;
        self.safe_write_batch_by_id(&targets, write_request_size)
    }

    /// Atomically replaces the files `items` name by id, their writes in
    /// flight at the same time.
    ///
    /// The temporary files are created together and their write requests are
    /// appended **round-robin**, so their allocations interleave on disk
    /// exactly as concurrent uploads interleave under NTFS.  This is the
    /// workload property (paper Section 3.2: "applications that concurrently
    /// process unrelated requests complicate the situation") that makes even
    /// constant-size objects fragment over time.  Every target must be live
    /// ([`FsError::NoSuchFile`] before anything is written); each new version
    /// is a new file, named as its target was.
    pub fn safe_write_batch_by_id(
        &mut self,
        items: &[(FileId, u64)],
        write_request_size: u64,
    ) -> Result<Vec<WriteReceipt>, FsError> {
        for &(id, _) in items {
            self.file(id)?;
        }
        let mut staged = Vec::with_capacity(items.len());
        if let Err(err) = self.write_staged(items, write_request_size.max(1), &mut staged) {
            // Delete the temporaries created so far, or their clusters would
            // be stranded forever.  The targets were never touched.
            for temp in &staged {
                let _ = self.delete(temp.temp_id);
            }
            self.debug_verify();
            return Err(err);
        }
        // Commit each replacement (ReplaceFile per object).  Each replaces
        // whatever holds the name *now*: when one batch names the same target
        // twice, that is the previous item's just-committed temporary, so the
        // batch degenerates to sequential replacement (last writer wins) —
        // the same semantics `update_batch` has.
        let mut receipts: Vec<WriteReceipt> = Vec::with_capacity(staged.len());
        for (&(target, _), temp) in items.iter().zip(staged) {
            let holder = items
                .iter()
                .zip(&receipts)
                .rev()
                .find(|((earlier, _), _)| *earlier == target)
                .map_or(target, |(_, receipt)| receipt.file_id);
            self.commit_replace(holder, temp.temp_id);
            receipts.push(WriteReceipt {
                file_id: temp.temp_id,
                runs: temp.runs,
                bytes_written: temp.size,
            });
        }
        Ok(receipts)
    }

    /// Everything of a batch before its commits: creates each target's
    /// temporary, round-robins the write requests across the in-flight
    /// temporaries, then closes them (trimming preallocation).  `staged`
    /// holds the temporaries created, also when this fails.
    fn write_staged(
        &mut self,
        items: &[(FileId, u64)],
        chunk: u64,
        staged: &mut Vec<Staged>,
    ) -> Result<(), FsError> {
        for &(_, size) in items {
            staged.push(Staged {
                temp_id: self.stage(),
                size,
                written: 0,
                runs: Vec::new(),
            });
        }
        let mut pending = true;
        while pending {
            pending = false;
            for temp in staged.iter_mut() {
                if temp.written < temp.size {
                    let this = chunk.min(temp.size - temp.written);
                    self.append_into(temp.temp_id, this, &mut temp.runs)?;
                    temp.written += this;
                    pending |= temp.written < temp.size;
                }
            }
        }
        for temp in staged.iter() {
            self.trim_excess(temp.temp_id)?;
        }
        Ok(())
    }

    /// The byte runs a full sequential read of the file touches.
    pub fn read_plan(&self, id: FileId) -> Result<Vec<ByteRun>, FsError> {
        Ok(self.file(id)?.byte_runs(CLUSTER_SIZE))
    }

    /// Makes all pending-deleted space reusable (models the NTFS log commit).
    pub fn checkpoint(&mut self) {
        self.space.checkpoint(&mut self.stats);
        self.debug_verify();
    }

    /// Per-object fragment counts (the paper's headline metric).
    ///
    /// Answered from the incremental tracker in O(distinct fragment counts)
    /// — independent of the number of live files, so the maintenance
    /// scheduler can observe it every tick.
    pub fn fragmentation(&self) -> FragmentationSummary {
        self.frag_tracker.summary()
    }

    /// Full-scan recompute of [`Volume::fragmentation`] — the oracle the
    /// property tests compare the incremental tracker against.
    pub fn fragmentation_rescan(&self) -> FragmentationSummary {
        let counts: Vec<u64> = self
            .files
            .values()
            .map(|record| record.fragment_count() as u64)
            .collect();
        FragmentationSummary::from_counts(&counts)
    }

    /// Free-space shape report.
    pub fn free_space_report(&self) -> FreeSpaceReport {
        FreeSpaceReport::from_free_space(self.free_space())
    }

    /// Occupancy of the placement bands over the volume's clusters — the
    /// probe-tick gauge behind "is maintenance crowding the foreground
    /// band?".  Under [`PlacementPolicy::Unrestricted`] the whole volume is
    /// the foreground band.
    pub fn band_occupancy(&self) -> BandOccupancy {
        let map = self.free_space();
        let total = map.total_clusters();
        let boundary = self.config.placement.boundary_cluster(total);
        BandOccupancy::from_runs(total, boundary, &map.free_runs())
    }

    /// Read-only access to the allocator's free-space map, for placement
    /// instrumentation (the proptests measure the foreground band's largest
    /// free run across defragmentation steps).
    pub fn free_space(&self) -> &lor_alloc::RunIndexMap {
        self.space.allocator.free_space()
    }

    /// The largest contiguous allocation (in clusters) a single foreground
    /// operation could still need: the allocation of the largest live file,
    /// since a safe write stages a complete replacement copy of its target.
    /// The [`PlacementPolicy::Reserve`] variant forbids maintenance from
    /// consuming any free run longer than this watermark.
    pub fn foreground_watermark(&self) -> u64 {
        self.alloc_tracker.max().unwrap_or(0)
    }

    /// Checks the volume's structural invariants, naming the first one
    /// violated:
    ///
    /// * every cluster has exactly one owner — a file, the pending-free
    ///   queue, a free run, or the reserved set (MFT zone and pins) — and
    ///   the pending counter equals the queue's sum;
    /// * the free-space map's own structure holds
    ///   ([`lor_alloc::RunIndexMap::verify`]);
    /// * the fragmentation and allocation trackers answer what a rescan of
    ///   every file would;
    /// * the file table's own structure holds ([`IdTable::verify`]) and every
    ///   record is filed under the id it carries;
    /// * the name map and the named records are the same set, and the only
    ///   unnamed records are the temporaries of a safe write in flight.
    ///
    /// O(extents · log extents); debug builds run it after every checkpoint,
    /// defragmentation step or pass, failed put and failed batch.
    pub fn verify(&self) -> Result<(), String> {
        self.files
            .verify()
            .map_err(|why| format!("file table: {why}"))?;
        let queued = self.space.pending_free.total_clusters();
        if queued != self.space.pending_clusters {
            return Err(format!(
                "pending counter {} but the queue holds {queued} clusters",
                self.space.pending_clusters
            ));
        }
        let live: u64 = self.files.values().map(|f| f.allocated_clusters()).sum();
        let free = self.space.allocator.free_space().free_clusters();
        let total = self.config.total_clusters();
        if live + free + queued + self.reserved_clusters != total {
            return Err(format!(
                "{live} live + {free} free + {queued} pending + {} reserved clusters != {total}",
                self.reserved_clusters
            ));
        }
        self.space.allocator.free_space().verify()?;
        // The sum matches, so one owner each means no two claims overlap.
        let mut claims: Vec<(Extent, &str)> = Vec::new();
        for record in self.files.values() {
            claims.extend(record.layout.runs().map(|run| (run, "a file")));
        }
        claims.extend(self.space.pending_free.iter().map(|e| (*e, "the queue")));
        let free_runs = self.space.allocator.free_space().free_runs();
        claims.extend(free_runs.iter().map(|e| (*e, "a free run")));
        claims.retain(|(extent, _)| !extent.is_empty());
        claims.sort_unstable_by_key(|(extent, _)| extent.start);
        if let Some(w) = claims.windows(2).find(|w| w[0].0.end() > w[1].0.start) {
            return Err(format!(
                "{:?} of {} overlaps {:?} of {}",
                w[0].0, w[0].1, w[1].0, w[1].1
            ));
        }

        if self.fragmentation() != self.fragmentation_rescan() {
            return Err(format!(
                "fragmentation tracker {:?} != rescan {:?}",
                self.fragmentation(),
                self.fragmentation_rescan()
            ));
        }
        let mut allocations = CountMultiset::new();
        for record in self.files.values() {
            allocations.insert(record.allocated_clusters());
        }
        if allocations != self.alloc_tracker {
            return Err("allocation tracker differs from a rescan of the files".to_string());
        }

        // Walking `files` (id order) and comparing counts covers the name
        // map without iterating it: every named record resolves to itself,
        // and the map holds no entry besides those.
        let mut unnamed = 0;
        for (id, record) in self.files.iter() {
            if record.id.0 != id {
                return Err(format!("file table: {} is filed under id {id}", record.id));
            }
            if record.name.is_empty() {
                unnamed += 1;
            } else if self.names.get(record.name.as_bytes()) != Some(&record.id) {
                return Err(format!(
                    "{} is named {:?} but the name map says {:?}",
                    record.id,
                    record.name,
                    self.names.get(record.name.as_bytes())
                ));
            }
        }
        if self.names.len() + unnamed != self.files.len() {
            return Err(format!(
                "{} names for {} named records",
                self.names.len(),
                self.files.len() - unnamed
            ));
        }
        if unnamed as u64 != self.in_flight {
            return Err(format!(
                "{unnamed} unnamed records but {} safe writes in flight",
                self.in_flight
            ));
        }
        Ok(())
    }

    /// Runs [`Volume::verify`] in debug builds, after the steps that move the
    /// most state around.
    pub(crate) fn debug_verify(&self) {
        #[cfg(debug_assertions)]
        if let Err(violation) = self.verify() {
            panic!("volume invariant violated: {violation}");
        }
    }

    /// Marks `extent` allocated to no file, for good: the MFT zone.
    pub(crate) fn pin(&mut self, extent: Extent) -> Result<(), FsError> {
        self.space.allocator.reserve_exact(extent)?;
        self.reserved_clusters += extent.len;
        Ok(())
    }

    /// Direct access to the allocator, for the defragmenter's relocations.
    pub(crate) fn allocator_mut(&mut self) -> &mut SelectableAllocator {
        &mut self.space.allocator
    }

    /// Mutable access to a file record, bypassing the incremental
    /// fragmentation accounting.  Only the tests use this — production
    /// layout changes go through [`Volume::replace_layout`] / `with_layout`
    /// so the trackers stay in step.
    #[cfg(test)]
    pub(crate) fn file_mut(&mut self, id: FileId) -> Result<&mut FileRecord, FsError> {
        self.files.get_mut(id.0).ok_or(FsError::NoSuchFile(id.0))
    }

    /// Replaces a file's layout with a relocated copy of the same data (the
    /// defragmenter's swap), keeping the incremental accounting in step, and
    /// returns the layout it replaced.
    pub(crate) fn replace_layout(
        &mut self,
        id: FileId,
        layout: RunList,
    ) -> Result<RunList, FsError> {
        self.with_layout(id, |record| std::mem::replace(&mut record.layout, layout))
    }

    /// Runs `mutate` over a file record and reconciles the fragmentation and
    /// allocation trackers with the record's before/after layout.  Layout
    /// changes of a live file outside the append and trim paths (which
    /// reconcile from the counts they already hold) go through here.
    fn with_layout<R>(
        &mut self,
        id: FileId,
        mutate: impl FnOnce(&mut FileRecord) -> R,
    ) -> Result<R, FsError> {
        let record = self.files.get_mut(id.0).ok_or(FsError::NoSuchFile(id.0))?;
        let old_fragments = record.fragment_count() as u64;
        let old_clusters = record.allocated_clusters();
        let result = mutate(record);
        let new_fragments = record.fragment_count() as u64;
        let new_clusters = record.allocated_clusters();
        self.frag_tracker
            .record_replace(old_fragments, new_fragments);
        self.alloc_tracker.replace(old_clusters, new_clusters);
        Ok(result)
    }

    /// Cluster size in bytes: 4 KB on every volume.
    pub fn cluster_size(&self) -> u64 {
        CLUSTER_SIZE
    }

    /// Counts a completed mutating operation and checkpoints when due.
    fn bump_op(&mut self) {
        self.space.ops_since_checkpoint += 1;
        if self.config.checkpoint_interval_ops > 0
            && self.space.ops_since_checkpoint >= self.config.checkpoint_interval_ops
        {
            self.checkpoint();
        }
    }

    /// Pushes the byte runs of the logical range `[offset, offset + len)` of
    /// a file onto `runs`.
    fn runs_for_range(record: &FileRecord, offset: u64, len: u64, runs: &mut Vec<ByteRun>) {
        if len == 0 {
            return;
        }
        let mut logical = 0u64; // logical byte position of the current extent's start
        let end = (offset + len).min(record.size_bytes);
        for extent in record.layout.runs() {
            let extent_bytes = extent.len * CLUSTER_SIZE;
            let extent_logical_end = logical + extent_bytes;
            if extent_logical_end > offset && logical < end {
                let from = offset.max(logical);
                let to = end.min(extent_logical_end);
                let physical = extent.start * CLUSTER_SIZE + (from - logical);
                runs.push(ByteRun::new(physical, to - from));
            }
            logical = extent_logical_end;
            if logical >= end {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MB: u64 = 1 << 20;

    fn small_volume() -> Volume {
        Volume::format(VolumeConfig::new(256 * MB)).unwrap()
    }

    /// Bytes free for file data, space pending checkpoint included.
    fn free_bytes(volume: &Volume) -> u64 {
        (volume.free_space().free_clusters() + volume.pending_clusters()) * CLUSTER_SIZE
    }

    #[test]
    fn format_reserves_the_mft_zone() {
        let volume = small_volume();
        let report = volume.free_space_report();
        assert_eq!(report.total_clusters, 256 * MB / 4096);
        assert!(report.free_clusters < report.total_clusters);
        assert_eq!(
            volume.data_capacity_bytes(),
            (report.total_clusters - volume.config().mft_clusters()) * 4096
        );
    }

    #[test]
    fn bad_configs_are_rejected() {
        assert!(Volume::format(VolumeConfig::new(0)).is_err());
        assert!(Volume::format(VolumeConfig::new(CLUSTER_SIZE - 1)).is_err());
        assert!(Volume::format(VolumeConfig {
            placement: PlacementPolicy::banded(1.5),
            ..VolumeConfig::new(MB)
        })
        .is_err());
    }

    #[test]
    fn a_volume_past_the_32_bit_cluster_bound_is_refused() {
        // Validation runs before anything is built, so this allocates
        // nothing for the 16 TiB volume.
        let too_large = VolumeConfig::new((RunList::MAX_UNITS + 1) * CLUSTER_SIZE);
        assert_eq!(too_large.total_clusters(), 1 << 32);
        assert_eq!(
            Volume::format(too_large).unwrap_err(),
            FsError::BadConfig("volume must hold at most 2^32 - 1 clusters")
        );
        // A partial last cluster does not count: the largest volume accepted.
        let largest = VolumeConfig::new((RunList::MAX_UNITS + 1) * CLUSTER_SIZE - 1);
        assert_eq!(largest.total_clusters(), RunList::MAX_UNITS);
        assert_eq!(largest.validate(), Ok(()));
    }

    #[test]
    fn create_write_read_delete_round_trip() {
        let mut volume = small_volume();
        let receipt = volume.write_file("object-1", MB, 64 * 1024).unwrap();
        assert_eq!(receipt.bytes_written, MB);
        let id = volume.lookup("object-1").unwrap();
        assert_eq!(id, receipt.file_id);

        let record = volume.file(id).unwrap();
        assert_eq!(record.size_bytes, MB);
        assert_eq!(record.allocated_clusters(), MB / 4096);

        let plan = volume.read_plan(id).unwrap();
        assert_eq!(plan.iter().map(|r| r.len).sum::<u64>(), MB);

        volume.delete(id).unwrap();
        assert!(volume.lookup("object-1").is_err());
        assert!(volume.read_plan(id).is_err());
    }

    #[test]
    fn duplicate_and_invalid_names_are_rejected() {
        let mut volume = small_volume();
        volume.create("a").unwrap();
        assert!(matches!(volume.create("a"), Err(FsError::NameExists(_))));
        assert!(matches!(volume.create(""), Err(FsError::InvalidName(_))));
    }

    #[test]
    fn sequential_appends_on_a_clean_volume_stay_contiguous() {
        let mut volume = small_volume();
        let receipt = volume.write_file("big", 10 * MB, 64 * 1024).unwrap();
        let record = volume.file(receipt.file_id).unwrap();
        assert_eq!(record.fragment_count(), 1);
        // The write receipt covers every byte exactly once.
        assert_eq!(receipt.runs.iter().map(|r| r.len).sum::<u64>(), 10 * MB);
    }

    #[test]
    fn append_write_receipt_covers_only_the_new_bytes() {
        let mut volume = small_volume();
        let id = volume.create("f").unwrap();
        let first = volume.append(id, 100_000).unwrap();
        let second = volume.append(id, 50_000).unwrap();
        assert_eq!(first.iter().map(|r| r.len).sum::<u64>(), 100_000);
        assert_eq!(second.iter().map(|r| r.len).sum::<u64>(), 50_000);
        // The second append's first byte sits right after the first append's
        // last byte (same cluster, no re-write of earlier data).
        let first_end = first.last().unwrap();
        let second_start = second.first().unwrap();
        assert_eq!(first_end.end(), second_start.offset);
    }

    #[test]
    fn ingest_as_maintenance_respects_the_placement_band() {
        // Banded placement: maintenance may only allocate in the top 30%.
        let mut config = VolumeConfig::new(64 * MB);
        config.placement = PlacementPolicy::banded(0.7);
        let mut volume = Volume::format(config).unwrap();

        let config = volume.config();
        let boundary = config.placement.boundary_cluster(config.total_clusters());
        let receipt = volume.ingest_as_maintenance("migrant", 2 * MB).unwrap();
        assert_eq!(receipt.bytes_written, 2 * MB);
        assert_eq!(receipt.runs.iter().map(|r| r.len).sum::<u64>(), 2 * MB);
        let record = volume.file(receipt.file_id).unwrap();
        for extent in record.layout().runs() {
            assert!(
                extent.start >= boundary,
                "migration wrote into the foreground band: extent at {} < boundary {}",
                extent.start,
                boundary
            );
        }

        // Exhaust the maintenance band: further migration must *fail*, not
        // spill into the foreground band, and must leave no file behind.
        let files_before = volume.file_count();
        let err = volume.ingest_as_maintenance("too-big", 60 * MB);
        assert!(err.is_err());
        assert_eq!(volume.file_count(), files_before);
        assert!(volume.lookup("too-big").is_err());
    }

    #[test]
    fn ingest_as_maintenance_unrestricted_matches_a_plain_write() {
        let mut volume = small_volume();
        let receipt = volume.ingest_as_maintenance("obj", MB).unwrap();
        assert_eq!(receipt.bytes_written, MB);
        let record = volume.file(receipt.file_id).unwrap();
        assert_eq!(record.size_bytes, MB);
        assert_eq!(record.allocated_clusters(), MB / 4096);
        // Size known up front → one allocation, contiguous on a clean volume.
        assert_eq!(record.fragment_count(), 1);
    }

    #[test]
    fn deleted_space_is_not_reusable_until_checkpoint() {
        let mut config = VolumeConfig::new(16 * MB);
        config.checkpoint_interval_ops = 1_000_000; // effectively manual
        let mut volume = Volume::format(config).unwrap();

        // Fill most of the volume.
        volume.write_file("a", 12 * MB, 64 * 1024).unwrap();
        volume.delete_by_name("a").unwrap();
        assert!(volume.pending_clusters() > 0);

        // Without a checkpoint the space is unavailable, so this large write
        // is forced to trigger the allocation-pressure checkpoint.
        let before = volume.stats().forced_checkpoints;
        volume.write_file("b", 12 * MB, 64 * 1024).unwrap();
        assert_eq!(volume.stats().forced_checkpoints, before + 1);
    }

    #[test]
    fn checkpoint_makes_space_reusable() {
        let mut volume = small_volume();
        let receipt = volume.write_file("a", 4 * MB, 64 * 1024).unwrap();
        let free_before = volume.free_space_report().free_clusters;
        volume.delete(receipt.file_id).unwrap();
        volume.checkpoint();
        let free_after = volume.free_space_report().free_clusters;
        assert_eq!(free_after, free_before + 4 * MB / 4096);
        assert_eq!(volume.pending_clusters(), 0);
    }

    #[test]
    fn safe_write_replaces_contents_and_keeps_the_name() {
        let mut volume = small_volume();
        volume.write_file("doc", 2 * MB, 64 * 1024).unwrap();
        let old_id = volume.lookup("doc").unwrap();
        let receipt = volume.safe_write("doc", 3 * MB, 64 * 1024).unwrap();
        let new_id = volume.lookup("doc").unwrap();
        assert_ne!(old_id, new_id);
        assert_eq!(new_id, receipt.file_id);
        assert_eq!(volume.file(new_id).unwrap().size_bytes, 3 * MB);
        assert_eq!(volume.file_count(), 1);
        assert_eq!(volume.stats().safe_writes, 1);
        // No temporary file lingers.
        assert!(volume
            .iter_files()
            .all(|f| !f.name.as_str().starts_with("~tmp.")));
    }

    #[test]
    fn batched_safe_writes_interleave_and_fragment() {
        let mut volume = Volume::format(VolumeConfig::new(128 * MB)).unwrap();
        for i in 0..16 {
            volume
                .write_file(&format!("obj-{i}"), 2 * MB, 64 * 1024)
                .unwrap();
        }
        // Several rounds of concurrent (batched) replacement.
        for _ in 0..4 {
            for group in (0..16).collect::<Vec<_>>().chunks(4) {
                let names: Vec<String> = group.iter().map(|i| format!("obj-{i}")).collect();
                let items: Vec<(&str, u64)> = names.iter().map(|n| (n.as_str(), 2 * MB)).collect();
                let receipts = volume.safe_write_batch(&items, 64 * 1024).unwrap();
                assert_eq!(receipts.len(), 4);
                for receipt in &receipts {
                    assert_eq!(receipt.bytes_written, 2 * MB);
                    assert_eq!(receipt.runs.iter().map(|r| r.len).sum::<u64>(), 2 * MB);
                }
            }
        }
        assert_eq!(volume.file_count(), 16);
        // Interleaved writes fragment even though every object has the same size.
        let summary = volume.fragmentation();
        assert!(
            summary.fragments_per_object > 1.5,
            "interleaved safe writes should fragment, got {}",
            summary.fragments_per_object
        );
        // No temporary file lingers and every object reads back in full.
        for i in 0..16 {
            let id = volume.lookup(&format!("obj-{i}")).unwrap();
            assert_eq!(
                volume
                    .read_plan(id)
                    .unwrap()
                    .iter()
                    .map(|r| r.len)
                    .sum::<u64>(),
                2 * MB
            );
        }
    }

    #[test]
    fn safe_write_of_missing_file_fails() {
        let mut volume = small_volume();
        assert!(matches!(
            volume.safe_write("ghost", MB, 64 * 1024),
            Err(FsError::NoSuchName(_))
        ));
    }

    #[test]
    fn duplicate_targets_in_a_batch_degenerate_to_sequential_replacement() {
        let mut volume = small_volume();
        volume.write_file("a", MB, 64 * 1024).unwrap();
        let receipts = volume
            .safe_write_batch(&[("a", 2 * MB), ("a", 3 * MB)], 64 * 1024)
            .unwrap();
        assert_eq!(receipts.len(), 2);
        assert_eq!(volume.file_count(), 1);
        // Last writer wins; the intermediate version's space is reclaimable.
        let id = volume.lookup("a").unwrap();
        assert_eq!(volume.file(id).unwrap().size_bytes, 3 * MB);
        assert_eq!(id, receipts[1].file_id);
        assert!(volume
            .iter_files()
            .all(|f| !f.name.as_str().starts_with("~tmp.")));
        assert_eq!(volume.stats().safe_writes, 2);
    }

    #[test]
    fn failed_batch_safe_write_strands_no_temporaries() {
        // A missing target: the second name does not exist, so the batch
        // fails before it stages any temporary.
        let mut volume = small_volume();
        volume.write_file("a", MB, 64 * 1024).unwrap();
        let free_before = free_bytes(&volume);
        let err = volume
            .safe_write_batch(&[("a", MB), ("missing", MB)], 64 * 1024)
            .unwrap_err();
        assert!(matches!(err, FsError::NoSuchName(_)));
        assert_eq!(volume.file_count(), 1, "only the original object remains");
        assert!(volume
            .iter_files()
            .all(|f| !f.name.as_str().starts_with("~tmp.")));
        assert_eq!(free_bytes(&volume), free_before, "no clusters may leak");

        // Allocation failure mid-round-robin: both replacements in flight
        // need more space than the volume has.
        let mut volume = Volume::format(VolumeConfig::new(16 * MB)).unwrap();
        volume.write_file("x", 6 * MB, 64 * 1024).unwrap();
        volume.write_file("y", 6 * MB, 64 * 1024).unwrap();
        let err = volume
            .safe_write_batch(&[("x", 6 * MB), ("y", 6 * MB)], 64 * 1024)
            .unwrap_err();
        assert!(matches!(err, FsError::Alloc(_)));
        assert_eq!(volume.file_count(), 2, "originals intact");
        assert!(volume
            .iter_files()
            .all(|f| !f.name.as_str().starts_with("~tmp.")));
        for name in ["x", "y"] {
            let id = volume.lookup(name).unwrap();
            let bytes: u64 = volume.read_plan(id).unwrap().iter().map(|r| r.len).sum();
            assert_eq!(bytes, 6 * MB, "{name} still reads back in full");
        }
    }

    #[test]
    fn a_file_named_like_a_temporary_does_not_block_the_replace() {
        // Temporaries used to be created as `~tmp.<next id>.<name>`; a user
        // file of that very name made the replace fail with `NameExists`.
        type Replace = fn(&mut Volume) -> Result<(), FsError>;
        let entry_points: [Replace; 2] = [
            |volume| volume.safe_write("a", 2 * MB, 64 * 1024).map(drop),
            |volume| {
                volume
                    .safe_write_batch(&[("a", 2 * MB)], 64 * 1024)
                    .map(drop)
            },
        ];
        for replace in entry_points {
            let mut volume = small_volume();
            volume.write_file("a", MB, 64 * 1024).unwrap();
            volume.write_file("~tmp.3.a", MB, 64 * 1024).unwrap();
            replace(&mut volume).unwrap();
            let replaced = volume.file(volume.lookup("a").unwrap()).unwrap();
            assert_eq!(replaced.size_bytes, 2 * MB);
            assert_eq!(replaced.name.as_str(), "a");
            let bystander = volume.lookup("~tmp.3.a").unwrap();
            let bytes: u64 = volume
                .read_plan(bystander)
                .unwrap()
                .iter()
                .map(|r| r.len)
                .sum();
            assert_eq!(bytes, MB);
            assert_eq!(volume.file_count(), 2);
            assert_eq!(volume.verify(), Ok(()));
        }
    }

    #[test]
    fn a_batch_that_runs_out_of_space_mid_round_changes_nothing_visible() {
        // The paper's safe write exists so that a failed replace leaves the
        // old object intact.  Three 4 MB targets on 20.9 MB of data clusters
        // (22 MB less the MFT zone), with 8.9 MB to spare, 6 MB of it a
        // deleted filler the log has not committed: the temporaries
        // get through most of their write requests (a forced checkpoint on
        // the way frees the filler) before the volume runs dry.
        let mut config = VolumeConfig::new(22 * MB);
        config.checkpoint_interval_ops = 0;
        let mut volume = Volume::format(config).unwrap();
        let names = ["x", "y", "z"];
        for name in names {
            volume.write_file(name, 4 * MB, 64 * 1024).unwrap();
        }
        volume.write_file("filler", 6 * MB, 64 * 1024).unwrap();
        volume.delete_by_name("filler").unwrap();
        assert!(volume.pending_clusters() > 0);

        let targets = |volume: &Volume| -> Vec<(FileId, Vec<ByteRun>)> {
            let plan = |name| {
                let id = volume.lookup(name).unwrap();
                (id, volume.read_plan(id).unwrap())
            };
            names.into_iter().map(plan).collect()
        };
        let before = targets(&volume);
        let stats_before = *volume.stats();
        let free_before = free_bytes(&volume);

        let items: Vec<(&str, u64)> = names.iter().map(|name| (*name, 4 * MB)).collect();
        let err = volume.safe_write_batch(&items, 64 * 1024).unwrap_err();
        assert!(matches!(err, FsError::Alloc(_)), "{err:?}");

        let stats = volume.stats();
        assert!(
            stats.appends > stats_before.appends + 3,
            "the batch must fail mid-round, not at its first request"
        );
        assert_eq!(
            stats.forced_checkpoints,
            stats_before.forced_checkpoints + 1
        );
        assert_eq!(stats.safe_writes, stats_before.safe_writes);
        assert_eq!(
            targets(&volume),
            before,
            "every target keeps its id and its layout"
        );
        assert_eq!(volume.file_count(), 3);
        assert_eq!(free_bytes(&volume), free_before, "free + pending clusters");
        assert_eq!(volume.verify(), Ok(()));

        // The space is really there: after the log commits, one replace fits.
        volume.checkpoint();
        volume.safe_write("x", 4 * MB, 64 * 1024).unwrap();
    }

    #[test]
    fn verify_names_the_violated_invariant() {
        let mut volume = small_volume();
        volume.write_file("a", MB, 64 * 1024).unwrap();
        volume.write_file("b", MB, 64 * 1024).unwrap();
        volume.delete_by_name("b").unwrap();
        assert_eq!(volume.verify(), Ok(()));
        let id = volume.lookup("a").unwrap();

        // A counter that drifted from its queue.
        let mut drifted = volume.clone();
        drifted.space.pending_clusters += 1;
        assert!(drifted.verify().unwrap_err().contains("pending counter"));

        // A live cluster handed to the free pool: the sum is off.
        let mut leaked = volume.clone();
        let first = leaked.file(id).unwrap().layout().runs().next().unwrap();
        leaked
            .allocator_mut()
            .free(&[Extent::new(first.start, 1)])
            .unwrap();
        assert!(leaked.verify().unwrap_err().contains("!="));

        // The same cluster claimed by a file and by the queue, with the sum
        // kept right by shortening the file's claim elsewhere.
        let mut shared = volume.clone();
        let stolen = shared.space.pending_free[0].start;
        let layout = &mut shared.file_mut(id).unwrap().layout;
        let mut runs: Vec<Extent> = layout.runs().collect();
        runs[0].len -= 1;
        runs.push(Extent::new(stolen, 1));
        *layout = runs.into_iter().collect();
        assert!(shared.verify().unwrap_err().contains("overlaps"));

        // A layout edited behind the trackers' back.
        let mut untracked = volume.clone();
        let layout = &mut untracked.file_mut(id).unwrap().layout;
        let tail = layout.runs().next().unwrap().split_at(1).unwrap();
        *layout = [tail.1, tail.0].into_iter().collect();
        assert!(untracked.verify().unwrap_err().contains("tracker"));

        // A name pointing at the wrong record, and a record nobody names.
        let mut misnamed = volume.clone();
        misnamed.names.insert(Name::new("a"), FileId(99));
        assert!(misnamed.verify().unwrap_err().contains("name map"));
        let mut orphaned = volume.clone();
        orphaned.file_mut(id).unwrap().name = Name::default();
        assert!(orphaned.verify().unwrap_err().contains("names for"));

        // A record filed under an id it does not carry.  (The table's own
        // clauses are broken one by one in `lor_alloc`'s `idtable` tests;
        // its fields are out of reach from here.)
        let mut misfiled = volume.clone();
        misfiled.file_mut(id).unwrap().id = FileId(99);
        assert!(misfiled.verify().unwrap_err().contains("is filed under id"));
    }

    #[test]
    fn a_put_that_runs_out_of_space_leaves_nothing_behind() {
        type Put = fn(&mut Volume, &str, u64) -> Result<WriteReceipt, FsError>;
        let puts: [Put; 2] = [
            |volume, name, size| volume.write_file(name, size, 64 * 1024),
            |volume, name, size| volume.write_file_preallocated(name, size, 64 * 1024),
        ];
        for put in puts {
            let mut config = VolumeConfig::new(16 * MB);
            config.checkpoint_interval_ops = 0;
            let mut volume = Volume::format(config).unwrap();
            put(&mut volume, "a", 10 * MB).unwrap();
            let free_before = free_bytes(&volume);
            let stats_before = *volume.stats();

            let err = put(&mut volume, "b", 10 * MB).unwrap_err();
            assert!(matches!(err, FsError::Alloc(_)), "{err:?}");
            assert!(matches!(volume.lookup("b"), Err(FsError::NoSuchName(_))));
            assert_eq!(volume.file_count(), 1);
            assert_eq!(free_bytes(&volume), free_before, "free + pending clusters");
            let stats = volume.stats();
            assert_eq!(stats.files_created, stats_before.files_created + 1);
            assert_eq!(stats.files_deleted, stats_before.files_deleted + 1);
            assert_eq!(volume.verify(), Ok(()));

            // The name and the space are free again: a put of all that is
            // left succeeds (forcing the checkpoint that commits the
            // rolled-back clusters).
            put(&mut volume, "b", free_before).unwrap();
            assert_eq!(volume.file_count(), 2);
            assert_eq!(free_bytes(&volume), 0);
            assert_eq!(volume.verify(), Ok(()));
        }
    }

    #[test]
    fn preallocated_writes_are_contiguous_even_on_a_fragmented_volume() {
        let mut config = VolumeConfig::new(64 * MB);
        config.checkpoint_interval_ops = 1;
        let mut volume = Volume::format(config).unwrap();

        // Fragment the free space: many small files, delete every other one.
        let ids: Vec<FileId> = (0..256)
            .map(|i| {
                volume
                    .write_file(&format!("pad{i}"), 128 * 1024, 64 * 1024)
                    .unwrap()
                    .file_id
            })
            .collect();
        for id in ids.iter().step_by(2) {
            volume.delete(*id).unwrap();
        }
        volume.checkpoint();

        // An incremental write of 4 MB has to fragment across the holes...
        let incremental = volume.write_file("incremental", 4 * MB, 64 * 1024).unwrap();
        let incremental_fragments = volume.file(incremental.file_id).unwrap().fragment_count();
        // ...while a preallocated write can grab the one large run at the end
        // of the volume in a single piece.
        let preallocated = volume
            .write_file_preallocated("preallocated", 4 * MB, 64 * 1024)
            .unwrap();
        let preallocated_fragments = volume.file(preallocated.file_id).unwrap().fragment_count();
        assert!(
            preallocated_fragments <= incremental_fragments,
            "preallocation must not fragment more ({preallocated_fragments} vs {incremental_fragments})"
        );
        assert_eq!(preallocated_fragments, 1);
    }

    #[test]
    fn stats_track_written_and_deleted_bytes() {
        let mut volume = small_volume();
        volume.write_file("a", MB, 64 * 1024).unwrap();
        volume.write_file("b", 2 * MB, 64 * 1024).unwrap();
        volume.safe_write("a", MB, 64 * 1024).unwrap();
        volume.delete_by_name("b").unwrap();
        let stats = volume.stats();
        assert_eq!(stats.bytes_written, 4 * MB);
        assert_eq!(stats.bytes_deleted, 3 * MB);
        assert_eq!(stats.files_created, 3); // a, b, and the safe-write temp
        assert_eq!(stats.files_deleted, 2); // old a, b
    }

    #[test]
    fn fragmentation_summary_counts_live_files_only() {
        let mut volume = small_volume();
        volume.write_file("a", MB, 64 * 1024).unwrap();
        volume.write_file("b", MB, 64 * 1024).unwrap();
        let summary = volume.fragmentation();
        assert_eq!(summary.objects, 2);
        assert!((summary.fragments_per_object - 1.0).abs() < 1e-9);
        volume.delete_by_name("a").unwrap();
        assert_eq!(volume.fragmentation().objects, 1);
    }

    #[test]
    fn runs_for_range_maps_logical_to_physical() {
        let mut record = FileRecord::new(FileId(1), "x");
        record
            .layout
            .extend([Extent::new(100, 2), Extent::new(300, 2)]);
        record.size_bytes = 4 * 4096;
        // A range spanning the extent boundary.
        let mut runs = Vec::new();
        Volume::runs_for_range(&record, 4096, 8192, &mut runs);
        assert_eq!(
            runs,
            vec![
                ByteRun::new(101 * 4096, 4096),
                ByteRun::new(300 * 4096, 4096)
            ]
        );
        // An empty range pushes nothing and leaves earlier entries alone.
        Volume::runs_for_range(&record, 0, 0, &mut runs);
        assert_eq!(runs.len(), 2);
    }

    #[test]
    fn write_receipt_runs_are_within_the_allocated_extents() {
        let mut volume = small_volume();
        let receipt = volume.write_file("a", 3 * MB + 12345, 64 * 1024).unwrap();
        let record = volume.file(receipt.file_id).unwrap();
        let cluster = volume.cluster_size();
        for run in &receipt.runs {
            let covered = record
                .layout()
                .runs()
                .any(|e| run.offset >= e.start * cluster && run.end() <= e.end() * cluster);
            assert!(covered, "write run {run:?} outside allocated extents");
        }
        assert_eq!(
            record.layout().units(),
            (3 * MB + 12345u64).div_ceil(cluster)
        );
    }
}
