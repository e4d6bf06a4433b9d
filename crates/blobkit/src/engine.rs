//! The storage engine: a pre-sized data file, a metadata table with a
//! clustered index, and out-of-row BLOB storage.
//!
//! The engine reproduces the aspects of SQL Server's behaviour the paper
//! holds responsible for its fragmentation curve:
//!
//! * BLOBs are stored **out of row** on dedicated LOB pages so the metadata
//!   table stays small and cached (Section 4.2);
//! * inserts run in **bulk-logged mode**: new pages are written to the data
//!   file and forced at commit — there is no second (log) copy of the BLOB;
//! * updates are **wholesale replacements** (the workload's safe-write
//!   equivalent): the new version is written to freshly allocated pages and
//!   the old version's pages become ghosts;
//! * **ghost cleanup** runs asynchronously (here: every few operations or
//!   under allocation pressure) and returns pages — and, once empty, whole
//!   extents — to the free pool, where the GAM's lowest-extent-first reuse
//!   gradually interleaves objects and drives the near-linear growth of
//!   fragments per object;
//! * the only supported "defragmentation" is copying the table into a new
//!   filegroup ([`Database::rebuild_into_new_filegroup`]), exactly what the
//!   paper reports Microsoft recommends.
//!
//! ## Representation
//!
//! Below its key-value API the engine moves **page runs**, never single
//! pages.  A version streams in as write-request-sized allocations that
//! append runs to a [`RunList`] buffer the engine reuses; committing it
//! swaps an exact-size copy of the buffer into the record (no `realloc` per
//! appended run, no spare capacity held by a record) and appends the old
//! layout's runs to the ghost backlog; a
//! budgeted cleanup pass takes runs off the backlog and hands each to
//! [`AllocationUnit::free_run`], and a failed batch and a compaction step
//! hand their layouts back the same way.  Fragment counts,
//! receipts and read plans are read off the runs (`fragment_count` is the
//! number of runs), so nothing on the foreground path scans a page list.
//! Work per replaced object is therefore proportional to its *fragments*
//! (about 13 on a well-aged store) rather than its pages (33 for a 256 KB
//! object, 130 for 1 MB), each take and each free being one located write in
//! the free maps (`lor-alloc`'s `RunIndexMap`: one offset-ordered run list
//! with a max-size summary).
//!
//! ## The update path touches each index once, and only those it needs
//!
//! A replacement looks its key up in a hashed map (nothing observable
//! iterates the keys; the rebuild, which copies in key order, sorts them on
//! demand), finds its record with two array reads — the record table is a
//! [`lor_alloc::IdTable`], a slab behind a direct index by id, and listings
//! still walk it in id order (EXPERIMENTS.md, "Host cost of the record
//! tables") — and updates the two O(1) trackers.
//! Two structures exist for readers the foreground never is, and are paid
//! for by those readers:
//!
//! * the **compaction-candidate index** is read by
//!   [`Database::compact_step`] alone, so a write only flags its record
//!   `stale` and notes the id on a list — once, however many versions
//!   follow — and the compactor re-indexes the noted records before it reads
//!   (`Database::flush_stale_candidates`).  The work is at most the eager
//!   version's on every schedule and zero on a store that never compacts;
//! * the **ghost backlog's order** is read by a *budgeted* cleanup pass
//!   alone (it releases the highest pages first), so ghosting appends to an
//!   unordered list and only a budgeted pass moves that list into the heap
//!   it pops from.  (A flat list re-sorted per budgeted pass is cheaper
//!   still on a store that never runs one and halves the throughput of one
//!   that holds a long backlog across many — EXPERIMENTS.md, "Host cost of
//!   the BLOB update path".)
//!
//! An item of a batch leaves the round-robin rotation when its version is
//! complete.
//!
//! ## Maintenance pays per unit of work too
//!
//! The two duties that give space back are priced by what they do, not by
//! the size of the structures they read:
//!
//! * a **full ghost pass** (`ghost_cleanup`, or a budget that covers the
//!   backlog) sorts the backlog in its own two buffers and frees it as one
//!   batch ([`AllocationUnit::free_sorted_runs`]): one streaming merge into
//!   the unit's page map that cuts out the extents it empties, which go to
//!   the GAM in sorted batches through the same merge — O(k log k) for the
//!   `k` runs plus the blocks of the maps the batch reaches, where one
//!   located release per run paid a search and a block edit each.  A
//!   budgeted pass still pops the highest runs one at a time;
//! * a **compaction step** walks the candidate index in place and examines
//!   each candidate once, in the index's order as the step found it: a
//!   committed move re-files its blob *below* the walk, which re-opens
//!   strictly below the entry it was on and passes over what this step
//!   re-filed.  It copies nothing up front — a budgeted step examines a few
//!   dozen of several hundred candidates.
//!
//! All of this is host-time engineering: layouts, statistics and free maps
//! are bit-identical to the page-at-a-time procedure, which survives as the
//! test-only reference model in `tests/reference/` and is compared
//! operation by operation in `tests/differential.rs`.  Structural invariants
//! are checkable on the type itself ([`Database::verify`]); debug builds
//! check them after every maintenance step.
//!
//! ## Panics
//!
//! The engine returns [`DbError`] for everything a caller can cause (unknown
//! or duplicate key, out of space, bad configuration).  What is left are
//! lookups of a record by an id the engine itself stored — six `expect`s,
//! in `get`, `commit_replacement`, `delete`, `rebuild_into_new_filegroup`
//! and `compact_step` (two) — each commented with the [`Database::verify`]
//! clause that makes it unreachable (the key map and the flushed candidate
//! index name live records only, and the record table files each under its
//! own id); `commit_insert`'s allocation of a metadata-row page it found
//! free before filing the record; [`lor_alloc::IdTable::insert`], which
//! panics on an id that does not ascend and is only ever handed the table's
//! own `next_id`; and `debug_verify`, which panics in debug builds naming
//! the clause a step broke.

use std::collections::{BTreeSet, BinaryHeap};

use lor_alloc::{
    in_name_order, AllocationPolicy, BandOccupancy, CountMultiset, Extent, FragmentationTracker,
    FreeSpace, FreeSpaceReport, IdTable, Name, NameMap, PackedRun, PlacementPolicy, RunList,
};
use lor_disksim::ByteRun;

use crate::allocation::{pages_of, AllocationUnit, Gam};
use crate::blob::{BlobId, BlobRecord};
use crate::error::DbError;
use crate::page::{self, PageKind, PAGES_PER_EXTENT};

/// Engine configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineConfig {
    /// Size of the (pre-created, physically contiguous) data file in bytes.
    /// It may hold at most 2³² − 1 whole pages: a layout stores a page
    /// number in 32 bits ([`RunList`]), so [`Database::create`] refuses a
    /// larger file.
    pub data_file_bytes: u64,
    /// Page size in bytes (SQL Server: 8192).
    pub page_size: u64,
    /// BLOB payload bytes stored per LOB page (page size minus headers and
    /// record overhead).
    pub lob_payload_per_page: u64,
    /// Metadata rows per clustered-index page.
    pub rows_per_page: u64,
    /// Mutating operations between automatic ghost-cleanup passes.
    ///
    /// `0` disables the interval-driven cleanup entirely: ghosts then
    /// accumulate until either allocation pressure forces a pass or an
    /// external scheduler (the `lor-maint` background maintenance subsystem)
    /// calls [`Database::ghost_cleanup`] explicitly.
    pub ghost_cleanup_interval_ops: u64,
    /// Byte offset of the data file on the underlying disk (the file is
    /// modelled as one contiguous preallocation).
    pub base_offset: u64,
    /// How the engine places pages and extents.  [`AllocationPolicy::Native`]
    /// is SQL Server's lowest-first reuse; the fit policies exist for the
    /// cross-substrate ablation benches.
    pub allocation_policy: AllocationPolicy,
    /// Which region of free space each consumer may draw from.
    /// [`PlacementPolicy::Unrestricted`] reproduces the pre-placement
    /// behaviour bit-identically; the banded and reserve variants confine
    /// [`Database::compact_step`] so background compaction stops consuming
    /// the contiguous runs the engine's allocator needs.
    pub placement: PlacementPolicy,
}

impl EngineConfig {
    /// A configuration resembling the paper's SQL Server setup for a data
    /// file of the given size.
    pub fn new(data_file_bytes: u64) -> Self {
        EngineConfig {
            data_file_bytes,
            page_size: 8192,
            lob_payload_per_page: 8064,
            rows_per_page: 128,
            ghost_cleanup_interval_ops: 16,
            base_offset: 0,
            allocation_policy: AllocationPolicy::Native,
            placement: PlacementPolicy::Unrestricted,
        }
    }

    /// Total pages in the data file.
    pub fn total_pages(&self) -> u64 {
        self.data_file_bytes / self.page_size
    }

    /// Total extents in the data file.
    pub fn total_extents(&self) -> u64 {
        self.total_pages() / PAGES_PER_EXTENT
    }

    /// LOB pages needed to store an object of `size_bytes`.
    pub fn pages_for(&self, size_bytes: u64) -> u64 {
        size_bytes.div_ceil(self.lob_payload_per_page)
    }

    fn validate(&self) -> Result<(), DbError> {
        if self.page_size == 0 {
            return Err(DbError::BadConfig("page size must be non-zero"));
        }
        if self.lob_payload_per_page == 0 || self.lob_payload_per_page > self.page_size {
            return Err(DbError::BadConfig("LOB payload must be in (0, page size]"));
        }
        if self.rows_per_page == 0 {
            return Err(DbError::BadConfig("rows per page must be non-zero"));
        }
        if self.total_extents() == 0 {
            return Err(DbError::BadConfig(
                "data file must hold at least one extent",
            ));
        }
        // A layout stores a run as two 32-bit numbers (`RunList`).
        if self.total_pages() > RunList::MAX_UNITS {
            return Err(DbError::BadConfig(
                "data file must hold at most 2^32 - 1 pages",
            ));
        }
        self.placement.validate().map_err(DbError::BadConfig)?;
        Ok(())
    }
}

/// Counters describing everything the engine has been asked to do.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct EngineStats {
    /// Objects inserted.
    pub inserts: u64,
    /// Objects replaced (wholesale update).
    pub updates: u64,
    /// Objects deleted.
    pub deletes: u64,
    /// Payload bytes written (includes rewrites).
    pub bytes_written: u64,
    /// Payload bytes of deleted or replaced versions.
    pub bytes_deleted: u64,
    /// LOB pages allocated over the engine's lifetime.
    pub pages_allocated: u64,
    /// Ghost-cleanup passes.
    pub ghost_cleanups: u64,
    /// Cleanups forced by allocation pressure.
    pub forced_cleanups: u64,
    /// Clustered-index pages currently allocated for metadata rows.
    pub row_pages: u64,
}

/// What a write-path operation did, so callers can charge the disk model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DbWriteReceipt {
    /// The stored object's identifier.
    pub blob_id: BlobId,
    /// Physical byte runs written (whole pages), in write order.
    pub runs: Vec<ByteRun>,
    /// Payload bytes written.
    pub bytes_written: u64,
    /// LOB pages written.
    pub pages_written: u64,
}

/// Outcome of one incremental compaction step ([`Database::compact_step`]).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CompactReport {
    /// Blobs whose layout was examined: candidates of the step, each once.
    pub blobs_examined: u64,
    /// Blobs rewritten into fewer fragments — the largest free runs
    /// maintenance may use, largest first, often more than one.
    pub blobs_moved: u64,
    /// Blobs examined but left where they were: planned as unimprovable
    /// from the free-run profile, refused by the placement policy (no
    /// eligible space), or allocated and rolled back because the new layout
    /// had no fewer fragments.
    pub blobs_skipped: u64,
    /// LOB pages written while moving blobs.
    pub pages_moved: u64,
    /// Payload bytes of the moved blobs.
    pub bytes_copied: u64,
    /// Fragments before the step, summed over examined blobs.
    pub fragments_before: u64,
    /// Fragments after the step, summed over examined blobs.
    pub fragments_after: u64,
}

/// The ghost backlog: pages of deleted or replaced versions that exist but
/// are not reusable until a cleanup pass frees them, kept as a set of
/// disjoint page runs.
///
/// A version is ghosted and later freed as the handful of runs it is laid
/// out in, so the backlog costs one append per *run*, not per page.  Each
/// run is kept as the one word its layout stored it in ([`PackedRun`]:
/// start in the high 32 bits, length in the low 32), 8 bytes where an
/// [`Extent`] takes 16.  The runs are disjoint, so their starts differ and
/// the words order exactly as the starts do: the heap and both sorts below
/// compare words and hand out the runs the start order would.
///
/// A budgeted tail-first pass releases the runs holding the highest pages:
/// ghosting appends to the unordered `fresh` list, and
/// [`GhostBacklog::pop_highest`] first moves that list into the max-heap by
/// start page that it then pops.  The heap is what makes a budgeted pass
/// over a long-held backlog cheap: re-sorting one flat list per pass halves
/// `serve_db`'s throughput (EXPERIMENTS.md).  A full pass frees everything,
/// ascending, as one batch ([`GhostBacklog::release_all`]): the heap's
/// buffer and the fresh list are each sorted in place and read as one
/// merged sequence.  A page can never be ghosted twice before cleanup frees
/// it, so runs never overlap ([`Database::verify`] checks).  Runs that
/// happen to touch are not merged here: the free map coalesces them on
/// release anyway.
#[derive(Debug, Clone, Default)]
struct GhostBacklog {
    /// Runs a budgeted pass has already ordered, highest start on top.
    heap: BinaryHeap<PackedRun>,
    /// Runs ghosted since the last budgeted pass, in no order.
    fresh: Vec<PackedRun>,
    pages: u64,
}

impl GhostBacklog {
    fn is_empty(&self) -> bool {
        self.pages == 0
    }

    fn page_count(&self) -> u64 {
        self.pages
    }

    /// Adds every run of a dead version's layout.
    fn extend(&mut self, layout: &RunList) {
        self.fresh.extend_from_slice(layout.packed());
        self.pages += layout.units();
    }

    /// Removes and returns the highest `max_pages` pages of the highest run
    /// (the whole run when it is no longer than that).
    fn pop_highest(&mut self, max_pages: u64) -> Option<Extent> {
        self.heap.extend(self.fresh.drain(..));
        let run = self.heap.pop()?.extent();
        let popped = if run.len <= max_pages {
            run
        } else {
            self.heap
                .push(PackedRun::new(Extent::new(run.start, run.len - max_pages)));
            Extent::new(run.end() - max_pages, max_pages)
        };
        self.pages -= popped.len;
        Some(popped)
    }

    /// Empties the backlog, handing `free` every run ascending by start: the
    /// heap's and the fresh list's runs are each sorted in their own buffer
    /// and merged as two sequences, never concatenated, and both buffers are
    /// kept for the next version ghosted.
    fn release_all(&mut self, free: impl FnOnce(Ascending<'_>)) {
        // The runs are disjoint, so their words order them by start.
        let mut ordered = std::mem::take(&mut self.heap).into_vec();
        ordered.sort_unstable();
        self.fresh.sort_unstable();
        free(Ascending {
            ordered: &ordered,
            fresh: &self.fresh,
        });
        ordered.clear();
        self.heap = BinaryHeap::from(ordered);
        self.fresh.clear();
        self.pages = 0;
    }

    /// The backlog's runs, in no particular order.
    fn runs(&self) -> impl Iterator<Item = Extent> + '_ {
        self.heap.iter().chain(&self.fresh).map(|run| run.extent())
    }
}

/// Two ascending lists of disjoint runs, read as one ascending sequence.
#[derive(Clone)]
struct Ascending<'a> {
    ordered: &'a [PackedRun],
    fresh: &'a [PackedRun],
}

impl Iterator for Ascending<'_> {
    type Item = Extent;

    fn next(&mut self) -> Option<Extent> {
        let side = match (self.ordered.first(), self.fresh.first()) {
            (Some(ordered), Some(fresh)) if fresh < ordered => &mut self.fresh,
            (Some(_), _) => &mut self.ordered,
            (None, _) => &mut self.fresh,
        };
        let (&run, rest) = side.split_first()?;
        *side = rest;
        Some(run.extent())
    }
}

/// The compactor's candidate index: `(fragment count, id)` of every blob it
/// has been told has more than one fragment, ordered so that iterating in
/// reverse yields fragment count descending, id ascending.
type CandidateIndex = BTreeSet<Candidate>;

/// An entry of the [`CandidateIndex`].
type Candidate = (u64, std::cmp::Reverse<BlobId>);

/// Ids of deleted records the stale list may carry beyond twice the object
/// count before [`Database::delete`] purges them, so a small store does not
/// purge on every delete.
const STALE_SLACK: usize = 64;

/// The BLOB storage engine.
#[derive(Debug, Clone)]
pub struct Database {
    config: EngineConfig,
    gam: Gam,
    lob_unit: AllocationUnit,
    row_unit: AllocationUnit,
    /// Every live record, one metadata row each, filed under the table's
    /// next id (`commit_insert`).
    blobs: IdTable<BlobRecord>,
    /// Key → id of every live object.
    keys: NameMap<BlobId>,
    /// Pages of deleted/replaced BLOB versions awaiting ghost cleanup.
    ghosts: GhostBacklog,
    /// LOB pages allocated for versions that have not committed yet (the
    /// chunks of a batch still streaming in).  Zero between operations; it
    /// exists so [`Database::verify`]'s page accounting also balances when a
    /// cleanup runs in the middle of a batch.
    in_flight_pages: u64,
    /// The buffers new versions are built in, one per slot of the largest
    /// batch so far (slot 0 serves every single-version path).  A version
    /// streams into its buffer and commits an exact-size copy of it
    /// ([`RunList::take_exact`]), so the buffer's capacity is reused and a
    /// record holds none to spare.  Empty between operations, on every path
    /// ([`Database::verify`] checks); lent out by `lend_scratch` while an
    /// operation runs.
    scratch: Vec<RunList>,
    ops_since_cleanup: u64,
    stats: EngineStats,
    /// Incremental per-blob fragment-count accounting: updated at every
    /// layout mutation so [`Database::fragmentation`] is O(1) in the object
    /// count (the maintenance scheduler observes it every tick).
    frag_tracker: FragmentationTracker,
    /// Page counts of every live blob, so the foreground watermark (largest
    /// live allocation) is an O(1) max query instead of a full scan per
    /// compaction step.
    page_tracker: CountMultiset,
    /// Every blob with more than one fragment *as of the last flush*: the
    /// entry `(record.indexed, id)` of every record with `indexed > 1`.
    /// Reverse iteration is the exact order the compactor's old
    /// sort-the-world scan produced, so [`Database::compact_step`] walks it
    /// in place and pays per candidate it examines (a few dozen per budgeted
    /// step) plus a re-opened range per move, instead of re-walking every
    /// page of every blob per tick.  Only a compactor reads it, so only a
    /// compactor pays to keep it
    /// current: inserts and updates mark the record `stale` and note its id
    /// on `stale_ids`; [`Database::flush_stale_candidates`] re-indexes the
    /// noted records before the set is read.
    compact_candidates: CandidateIndex,
    /// The id of every `stale` record, once each, plus ids deleted since
    /// they were noted (a flush skips those; [`Database::delete`] purges
    /// them before they outnumber the live objects two to one).  Without
    /// deletes the list is never longer than the object count.
    stale_ids: Vec<BlobId>,
}

impl Database {
    /// Creates an engine over a fresh data file.
    pub fn create(config: EngineConfig) -> Result<Self, DbError> {
        config.validate()?;
        let gam = Gam::with_placement(
            config.total_extents(),
            config.allocation_policy,
            config.placement,
        );
        Ok(Database {
            gam,
            lob_unit: AllocationUnit::with_placement(
                PageKind::LobData,
                config.total_pages(),
                config.allocation_policy,
                config.placement,
            ),
            row_unit: AllocationUnit::with_placement(
                PageKind::RowData,
                config.total_pages(),
                config.allocation_policy,
                config.placement,
            ),
            blobs: IdTable::new(),
            keys: NameMap::default(),
            ghosts: GhostBacklog::default(),
            in_flight_pages: 0,
            scratch: Vec::new(),
            ops_since_cleanup: 0,
            stats: EngineStats::default(),
            frag_tracker: FragmentationTracker::new(),
            page_tracker: CountMultiset::new(),
            compact_candidates: BTreeSet::new(),
            stale_ids: Vec::new(),
            config,
        })
    }

    /// Makes room in the key map for `objects` more keys.
    pub fn reserve(&mut self, objects: usize) {
        self.keys.reserve(objects);
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// Number of live objects.
    pub fn object_count(&self) -> usize {
        self.blobs.len()
    }

    /// Payload capacity of the data file available to BLOBs, in bytes.
    ///
    /// This is approximate (metadata pages also consume extents) but adequate
    /// for sizing workloads.
    pub fn data_capacity_bytes(&self) -> u64 {
        self.config.total_pages() * self.config.lob_payload_per_page
    }

    /// `true` if an object is stored under `key`.
    pub fn contains_key(&self, key: &str) -> bool {
        self.keys.contains_key(key.as_bytes())
    }

    /// The id of the object stored under `key`.
    pub fn lookup(&self, key: &str) -> Result<BlobId, DbError> {
        self.id_of(key)
            .ok_or_else(|| DbError::NoSuchKey(key.to_string()))
    }

    /// The id of the object stored under `key`, if there is one:
    /// [`Database::lookup`] without the error a miss builds.
    pub fn id_of(&self, key: &str) -> Option<BlobId> {
        self.keys.get(key.as_bytes()).copied()
    }

    /// The record of the live object `id`, if there is one.
    pub fn blob(&self, id: BlobId) -> Option<&BlobRecord> {
        self.blobs.get(id.0)
    }

    /// Looks up a record by key.
    pub fn get(&self, key: &str) -> Result<&BlobRecord, DbError> {
        let id = self.lookup(key)?;
        // `verify`: as in `commit_replacement`.
        Ok(self.blob(id).expect("key map and blob map are consistent"))
    }

    /// Iterates over live records in id order.
    pub fn iter_blobs(&self) -> impl Iterator<Item = &BlobRecord> {
        self.blobs.values()
    }

    /// Inserts a new object of `size_bytes` under `key`.
    pub fn insert(&mut self, key: &str, size_bytes: u64) -> Result<DbWriteReceipt, DbError> {
        if self.keys.contains_key(key.as_bytes()) {
            return Err(DbError::KeyExists(key.to_string()));
        }
        let pages = self.config.pages_for(size_bytes);
        self.with_version_buffer(|db, layout| {
            db.allocate_lob_pages(pages, layout)?;
            db.commit_insert(key, size_bytes, layout)
        })
    }

    /// Inserts an object migrating in from another shard, allocating its
    /// pages as the **maintenance** consumer
    /// ([`AllocationUnit::allocate_maintenance_runs`]): under a banded or
    /// reserve [`PlacementPolicy`] the allocation is confined to the runs
    /// maintenance may touch and *fails* rather than spilling into the space
    /// foreground updates need — that refusal is the placement guarantee
    /// cross-shard rebalancing relies on.
    pub fn insert_as_maintenance(
        &mut self,
        key: &str,
        size_bytes: u64,
    ) -> Result<DbWriteReceipt, DbError> {
        if self.keys.contains_key(key.as_bytes()) {
            return Err(DbError::KeyExists(key.to_string()));
        }
        let need = self.config.pages_for(size_bytes);
        let watermark_pages = self.foreground_watermark_pages();
        self.with_version_buffer(|db, layout| {
            db.lob_unit
                .allocate_maintenance_runs(&mut db.gam, need, watermark_pages, layout)?;
            db.note_allocated(need);
            db.commit_insert(key, size_bytes, layout)
        })
    }

    /// Stores a freshly allocated (in-flight) layout as a new object, as an
    /// exact-size copy that leaves `layout` empty, with its metadata row,
    /// which takes a new clustered-index page when the current ones are
    /// full.  If no page can take the row, nothing is filed and the
    /// layout's pages go back, as a failed batch's do.
    fn commit_insert(
        &mut self,
        key: &str,
        size_bytes: u64,
        layout: &mut RunList,
    ) -> Result<DbWriteReceipt, DbError> {
        // At most one page past `row_pages`: every insert adds one row, and
        // the rebuild leaves exactly the pages its rows need.
        let rows = self.blobs.len() as u64 + 1;
        let new_row_page = rows.div_ceil(self.config.rows_per_page) > self.stats.row_pages;
        if new_row_page && self.row_unit.available_pages(&self.gam) == 0 {
            self.lob_unit.free_runs(&mut self.gam, layout.runs());
            self.stats.pages_allocated -= layout.units();
            self.in_flight_pages -= layout.units();
            layout.clear();
            self.debug_verify();
            return Err(DbError::OutOfSpace {
                requested_pages: 1,
                free_pages: 0,
            });
        }
        let id = BlobId(self.blobs.next_id().max(1));
        let receipt = Self::receipt_for(&self.config, id, layout, size_bytes);
        let fragments = layout.fragment_count() as u64;
        self.in_flight_pages -= layout.units();
        self.frag_tracker.record_insert(fragments);
        self.page_tracker.insert(layout.units());
        let key = Name::new(key);
        self.keys.insert(key.clone(), id);
        let mut record = BlobRecord::new(id, key, size_bytes, layout.take_exact());
        Self::mark_stale(&mut record, &mut self.stale_ids);
        self.blobs.insert(id.0, record);
        // Checked above, and placed only now: taking the page (through a
        // throwaway run list) before the record's allocations moved
        // `lorbench`'s `age_db` into its high peak-RSS mode.
        if new_row_page {
            self.row_unit
                .allocate_pages_high(&mut self.gam, 1, &mut RunList::new())
                .expect("the row page was found free before the record was filed");
            self.stats.row_pages += 1;
        }
        self.stats.inserts += 1;
        self.stats.bytes_written += size_bytes;
        self.bump_op();
        Ok(receipt)
    }

    /// Replaces the object stored under `key` with a new version of
    /// `size_bytes` (wholesale replacement, the BLOB analogue of a safe
    /// write), allocated in one request.  The new version is written before
    /// the old version's pages are ghosted, exactly as a transactional
    /// update must; it keeps the id.  Engine API only: no store path
    /// reaches it, because a store's safe write is a batch
    /// ([`Database::update_batch_by_id`]) that allocates in write requests.
    pub fn update(&mut self, key: &str, size_bytes: u64) -> Result<DbWriteReceipt, DbError> {
        let id = self.lookup(key)?;
        let pages = self.config.pages_for(size_bytes);
        self.with_version_buffer(|db, layout| {
            db.allocate_lob_pages(pages, layout)?;
            Ok(db.commit_replacement(id, size_bytes, layout))
        })
    }

    /// Replaces several objects whose writes are in flight at the same time,
    /// as a concurrent web application does: the keys resolved, then
    /// [`Database::update_batch_by_id`].  A missing key fails the batch
    /// before anything is allocated.
    pub fn update_batch(
        &mut self,
        items: &[(&str, u64)],
        write_request_size: u64,
    ) -> Result<Vec<DbWriteReceipt>, DbError> {
        let targets = items
            .iter()
            .map(|&(key, size)| Ok((self.lookup(key)?, size)))
            .collect::<Result<Vec<_>, DbError>>()?;
        self.update_batch_by_id(&targets, write_request_size)
    }

    /// Replaces the objects `items` name by id, their writes in flight at
    /// the same time.
    ///
    /// Page allocation for the new versions proceeds **round-robin in
    /// write-request-sized chunks**, so concurrent uploads interleave on disk
    /// just as they do under a real server.  Each object's old version is
    /// ghosted when its replacement commits; replacements commit in batch
    /// order, so an id named twice is replaced twice (the first replacement
    /// is ghosted by the second).  Every id must be live
    /// ([`DbError::NoSuchBlob`] before anything is allocated).  If the data
    /// file runs out of space mid-batch nothing commits: every page
    /// allocated so far goes back and every old version stays readable.
    pub fn update_batch_by_id(
        &mut self,
        items: &[(BlobId, u64)],
        write_request_size: u64,
    ) -> Result<Vec<DbWriteReceipt>, DbError> {
        let chunk_pages = self.config.pages_for(write_request_size.max(1));
        for &(id, _) in items {
            self.blob(id).ok_or(DbError::NoSuchBlob(id.0))?;
        }
        // Interleave page allocation across the batch: one write request's
        // worth per item per round, in batch order, an item leaving the
        // rotation when its version is complete.
        let mut scratch = self.lend_scratch(items.len());
        let layouts = &mut scratch[..items.len()];
        let targets: Vec<u64> = items
            .iter()
            .map(|(_, size)| self.config.pages_for(*size))
            .collect();
        let mut pending: Vec<usize> = (0..items.len()).filter(|&item| targets[item] > 0).collect();
        while !pending.is_empty() {
            let mut still_pending = 0;
            for slot in 0..pending.len() {
                let item = pending[slot];
                let want = chunk_pages.min(targets[item] - layouts[item].units());
                if let Err(err) = self.allocate_lob_pages(want, &mut layouts[item]) {
                    // Abort the whole batch: pages already allocated for
                    // earlier items belong to no record yet, so they must go
                    // straight back to the free pool or the data file would
                    // leak them permanently.  Every buffer goes back empty.
                    let mut rolled_back = 0;
                    for layout in layouts.iter_mut() {
                        self.lob_unit.free_runs(&mut self.gam, layout.runs());
                        rolled_back += layout.units();
                        layout.clear();
                    }
                    self.stats.pages_allocated -= rolled_back;
                    self.in_flight_pages -= rolled_back;
                    self.scratch = scratch;
                    self.debug_verify();
                    return Err(err);
                }
                if layouts[item].units() < targets[item] {
                    pending[still_pending] = item;
                    still_pending += 1;
                }
            }
            pending.truncate(still_pending);
        }

        // Commit: swap layouts, ghost old versions.
        let receipts = items
            .iter()
            .zip(layouts.iter_mut())
            .map(|(&(id, size), layout)| self.commit_replacement(id, size, layout))
            .collect();
        self.scratch = scratch;
        Ok(receipts)
    }

    /// Makes a freshly allocated (in-flight) layout the object's current
    /// version, as an exact-size copy that leaves `layout` empty, and ghosts
    /// the version it replaces.
    fn commit_replacement(
        &mut self,
        id: BlobId,
        size_bytes: u64,
        layout: &mut RunList,
    ) -> DbWriteReceipt {
        let receipt = Self::receipt_for(&self.config, id, layout, size_bytes);
        let new_fragments = layout.fragment_count() as u64;
        let new_pages = layout.units();
        self.in_flight_pages -= new_pages;
        // `verify`: every id in the key map names a record ("does not map
        // back" / "keys, blobs") filed under that id ("blob table"),
        // and ids are never reused.
        let record = self
            .blobs
            .get_mut(id.0)
            .expect("key map and blob map are consistent");
        let old_layout = record.replace_layout(layout.take_exact());
        let old_size = std::mem::replace(&mut record.size_bytes, size_bytes);
        Self::mark_stale(record, &mut self.stale_ids);
        self.frag_tracker
            .record_replace(old_layout.fragment_count() as u64, new_fragments);
        self.page_tracker.replace(old_layout.units(), new_pages);
        self.ghosts.extend(&old_layout);
        self.stats.updates += 1;
        self.stats.bytes_written += size_bytes;
        self.stats.bytes_deleted += old_size;
        self.bump_op();
        receipt
    }

    /// Deletes the object stored under `key`: [`Database::delete_by_id`] of
    /// the id `key` resolves to.
    pub fn delete(&mut self, key: &str) -> Result<(), DbError> {
        let id = self.lookup(key)?;
        self.delete_by_id(id)
    }

    /// Deletes the object `id`.  Its pages become ghosts until the next
    /// cleanup pass.
    pub fn delete_by_id(&mut self, id: BlobId) -> Result<(), DbError> {
        let mut record = self.blobs.remove(id.0).ok_or(DbError::NoSuchBlob(id.0))?;
        // `verify` ("keys, blobs"): every live record's key is in the
        // key map.
        self.keys.remove(record.key.as_bytes());
        self.frag_tracker
            .record_remove(record.fragment_count() as u64);
        self.page_tracker.remove(record.page_count());
        // The entry goes now; if the record was stale its id stays on the
        // list, naming nothing, until a flush or the purge below drops it.
        Self::index_under(&mut self.compact_candidates, &mut record, 0);
        if self.stale_ids.len() > 2 * self.blobs.len() + STALE_SLACK {
            self.stale_ids.retain(|id| self.blobs.contains(id.0));
        }
        self.ghosts.extend(record.layout());
        self.stats.deletes += 1;
        self.stats.bytes_deleted += record.size_bytes;
        self.bump_op();
        Ok(())
    }

    /// The byte runs a full read of the object touches (whole LOB pages, in
    /// logical order).
    pub fn read_plan(&self, key: &str) -> Result<Vec<ByteRun>, DbError> {
        Ok(self
            .get(key)?
            .byte_runs(self.config.page_size, self.config.base_offset))
    }

    /// Reclaims all ghost pages, returning fully empty extents to the GAM.
    pub fn ghost_cleanup(&mut self) {
        self.ghost_cleanup_limited(0);
    }

    /// Reclaims up to `max_pages` ghost pages (0 means all), returning fully
    /// empty extents to the GAM.  Returns the pages reclaimed.
    ///
    /// The bounded form is what a budgeted background scheduler uses: a huge
    /// ghost backlog is then drained over several passes instead of charging
    /// one unbounded sweep to a single tick.  A bounded pass releases ghosts
    /// **tail-first** (exactly the `max_pages` highest page offsets):
    /// releasing *low* pages feeds the engine's lowest-first reuse with
    /// scattered mid-file holes and accelerates interleaving, which is
    /// exactly the small-budget-worse-than-idle pathology EXPERIMENTS.md
    /// records.  High pages sit near the allocation frontier, so returning
    /// them keeps the free space the allocator sees as contiguous as
    /// possible while the low-offset backlog keeps aging towards a rare bulk
    /// drop.
    pub fn ghost_cleanup_limited(&mut self, max_pages: u64) -> u64 {
        if self.ghosts.is_empty() {
            self.ops_since_cleanup = 0;
            return 0;
        }
        let backlog = self.ghosts.page_count();
        let take = if max_pages == 0 {
            backlog
        } else {
            max_pages.min(backlog)
        };
        if take < backlog {
            // Partial pass: pop the highest runs off the backlog (splitting
            // the last one where the budget ends), keep the rest queued.
            let mut left = take;
            while left > 0 {
                let Some(run) = self.ghosts.pop_highest(left) else {
                    break;
                };
                self.lob_unit.free_run(&mut self.gam, run);
                left -= run.len;
            }
        } else {
            // Full pass: the whole backlog, ascending, in one merge per map.
            self.ghosts
                .release_all(|runs| self.lob_unit.free_sorted_runs(&mut self.gam, runs));
        }
        self.ops_since_cleanup = 0;
        self.stats.ghost_cleanups += 1;
        self.debug_verify();
        take
    }

    /// Pages currently awaiting ghost cleanup.
    pub fn ghost_page_count(&self) -> u64 {
        self.ghosts.page_count()
    }

    /// Per-object fragment counts (the paper's headline metric).
    ///
    /// Answered from the incremental tracker in O(distinct fragment counts)
    /// — independent of the number of live objects, so the maintenance
    /// scheduler can observe it every tick.
    pub fn fragmentation(&self) -> lor_alloc::FragmentationSummary {
        self.frag_tracker.summary()
    }

    /// Notes that `record`'s layout changed under the candidate index: the
    /// foreground half of the deferred index, one flag test and at most one
    /// push however often the record is replaced between two flushes.
    fn mark_stale(record: &mut BlobRecord, stale_ids: &mut Vec<BlobId>) {
        if !record.stale {
            record.stale = true;
            stale_ids.push(record.id);
        }
    }

    /// Moves `record`'s entry in the candidate index to where a blob of
    /// `fragments` fragments belongs (nowhere, unless it has more than one).
    fn index_under(candidates: &mut CandidateIndex, record: &mut BlobRecord, fragments: u64) {
        if record.indexed == fragments {
            return;
        }
        if record.indexed > 1 {
            candidates.remove(&(record.indexed, std::cmp::Reverse(record.id)));
        }
        if fragments > 1 {
            candidates.insert((fragments, std::cmp::Reverse(record.id)));
        }
        record.indexed = fragments;
    }

    /// Brings the candidate index up to date: re-indexes every record noted
    /// on the stale list under its current fragment count (at most one
    /// remove and one insert each, however many versions it went through)
    /// and empties the list, keeping its buffer.  Everything that reads
    /// `compact_candidates` calls this first.
    fn flush_stale_candidates(&mut self) {
        for id in self.stale_ids.drain(..) {
            // Deleted since it was noted: `delete` took its entry along.
            let Some(record) = self.blobs.get_mut(id.0) else {
                continue;
            };
            record.stale = false;
            let fragments = record.fragment_count() as u64;
            Self::index_under(&mut self.compact_candidates, record, fragments);
        }
    }

    /// Free page runs a LOB allocation can draw from: the unit's free page
    /// runs plus whole unassigned GAM extents (in pages), sorted by start.
    fn free_page_runs(&self) -> Vec<Extent> {
        let mut runs = self.lob_unit.free_space().free_runs();
        runs.extend(self.gam.free_space().free_runs().into_iter().map(pages_of));
        runs.sort_unstable_by_key(|run| run.start);
        runs
    }

    /// Free-space shape report over LOB pages.
    pub fn free_space_report(&self) -> FreeSpaceReport {
        FreeSpaceReport::from_runs(self.config.total_pages(), &self.free_page_runs())
    }

    /// Occupancy of the placement bands over the engine's pages — the
    /// probe-tick gauge behind "is the compactor crowding the foreground
    /// band?".  Under [`PlacementPolicy::Unrestricted`] the whole filegroup
    /// is the foreground band.
    pub fn band_occupancy(&self) -> BandOccupancy {
        let total = self.config.total_pages();
        let boundary = self.config.placement.boundary_cluster(total);
        BandOccupancy::from_runs(total, boundary, &self.free_page_runs())
    }

    /// Full-scan recompute of [`Database::fragmentation`] — the oracle the
    /// property tests compare the incremental tracker against.
    pub fn fragmentation_rescan(&self) -> lor_alloc::FragmentationSummary {
        let counts: Vec<u64> = self
            .blobs
            .values()
            .map(|b| b.fragment_count() as u64)
            .collect();
        lor_alloc::FragmentationSummary::from_counts(&counts)
    }

    /// Rebuilds the table into a new filegroup: every object is copied, in
    /// key order, into freshly allocated sequential extents, and the old
    /// allocation state is discarded.  Returns the payload bytes copied.
    ///
    /// This is the defragmentation procedure the paper reports Microsoft
    /// recommending for LOB data ("create a new table in a new file group,
    /// copy the old records to the new table and drop the old table").
    pub fn rebuild_into_new_filegroup(&mut self) -> Result<u64, DbError> {
        let mut new_gam = Gam::with_placement(
            self.config.total_extents(),
            self.config.allocation_policy,
            self.config.placement,
        );
        let mut new_lob = AllocationUnit::with_placement(
            PageKind::LobData,
            self.config.total_pages(),
            self.config.allocation_policy,
            self.config.placement,
        );
        let mut new_row = AllocationUnit::with_placement(
            PageKind::RowData,
            self.config.total_pages(),
            self.config.allocation_policy,
            self.config.placement,
        );

        // Row pages for the clustered index of the copied table.
        let row_pages_needed = (self.blobs.len() as u64).div_ceil(self.config.rows_per_page);
        if row_pages_needed > 0 {
            new_row.allocate_pages_high(&mut new_gam, row_pages_needed, &mut RunList::new())?;
        }

        self.flush_stale_candidates();
        let copied = self.with_version_buffer(|db, layout| {
            let mut copied = 0u64;
            // Copy in key order (a clustered-index scan of the old table):
            // the one reader of that order, so the one place that pays for
            // it.
            for (_, id) in in_name_order(&db.keys) {
                // `verify`: as in `commit_replacement`.
                let record = db
                    .blobs
                    .get_mut(id.0)
                    .expect("key map and blob map are consistent");
                new_lob.allocate_pages(&mut new_gam, record.page_count(), layout)?;
                let new_fragments = layout.fragment_count() as u64;
                let old_layout = record.replace_layout(layout.take_exact());
                copied += record.size_bytes;
                db.frag_tracker
                    .record_replace(old_layout.fragment_count() as u64, new_fragments);
                Self::index_under(&mut db.compact_candidates, record, new_fragments);
            }
            Ok(copied)
        })?;

        self.gam = new_gam;
        self.lob_unit = new_lob;
        self.row_unit = new_row;
        self.ghosts = GhostBacklog::default();
        self.stats.row_pages = row_pages_needed;
        self.debug_verify();
        Ok(copied)
    }

    /// Runs one bounded increment of online compaction: rewrites the most
    /// fragmented blobs into fewer fragments, stopping once about
    /// `page_budget` LOB pages have been moved (0 means unlimited).
    ///
    /// The candidates are the blobs with more than one fragment, examined
    /// most fragmented first (ties by ascending id), each at most once per
    /// step: the walk is in the order of the candidate index as the step
    /// found it, even though a committed move re-files its blob under its
    /// new count.
    ///
    /// This is the incremental middle ground between doing nothing and the
    /// offline [`Database::rebuild_into_new_filegroup`]: a background
    /// maintenance scheduler can spend a few pages per tick and keep
    /// fragments/object bounded without ever taking the table offline.  Each
    /// candidate is rewritten into the largest free runs *the engine's
    /// placement policy lets maintenance touch*
    /// ([`AllocationUnit::allocate_maintenance_runs`]): under
    /// [`PlacementPolicy::Unrestricted`] that is any run (the pre-placement
    /// behaviour, bit-identical); under [`PlacementPolicy::Banded`] the
    /// compactor relocates into the maintenance band and skips candidates
    /// the band cannot hold, and under [`PlacementPolicy::Reserve`] it
    /// leaves every run longer than the largest live blob's allocation to
    /// the foreground — so compaction strictly grows the contiguous space
    /// foreground writes can draw from instead of racing them for it.  The
    /// move commits only if it strictly reduces the blob's fragment count,
    /// and rolls back otherwise — so a step never makes any blob worse.
    /// Old pages are freed immediately: compaction runs in its own
    /// transaction.  At least one candidate is examined per call even when
    /// `page_budget` is smaller than the blob, so compaction never starves.
    pub fn compact_step(&mut self, page_budget: u64) -> CompactReport {
        self.flush_stale_candidates();
        let watermark_pages = self.foreground_watermark_pages();

        // Under the unrestricted placement the relocation allocator is
        // largest-first, so how many fragments it would hand a candidate is
        // decidable read-only from the free-run size profile (see
        // `planned_fragments`).  Most candidates in a churning store are
        // *unimprovable* — their fragment count already matches what the
        // free space can offer — and without the plan each of them costs a
        // full speculative allocate-then-roll-back cycle.  The profile stays
        // valid across skips and rollbacks (both leave free space untouched)
        // and is rebuilt lazily after a committed move.
        let planned = self.config.placement.is_unrestricted();
        let mut profile: Option<Vec<u64>> = None;
        // Each relocation is built in the first version buffer.
        let mut scratch = self.lend_scratch(1);
        let layout = &mut scratch[0];

        // The flushed candidate index, walked in place in reverse: fragment
        // count descending, id ascending, the order the sort-every-blob scan
        // produced.  A committed move re-files its blob under fewer
        // fragments, i.e. *below* the walk's position, so the walk re-opens
        // strictly below the entry it was on and passes over the entries
        // this step re-filed: every blob is examined at most once, in the
        // order of the index as the step found it.
        let mut walk = self.compact_candidates.range(..).rev();
        let mut refiled: BinaryHeap<Candidate> = BinaryHeap::new();
        let mut report = CompactReport::default();
        while let Some(&entry) = walk.next() {
            let (fragments, std::cmp::Reverse(id)) = entry;
            // Re-filed entries lie below the walk, so the highest one left is
            // the next the walk can meet.
            if refiled.peek() == Some(&entry) {
                refiled.pop();
                continue;
            }
            if page_budget > 0 && report.pages_moved >= page_budget {
                break;
            }
            report.blobs_examined += 1;
            report.fragments_before += fragments;
            let (need, size_bytes) = {
                // `verify`: the flushed index holds entries of live records
                // only ("candidate index"), and this loop deletes none.
                let record = self.blobs.get(id.0).expect("candidate ids are live blobs");
                (record.page_count(), record.size_bytes)
            };
            if planned {
                // Any candidate's need is bounded by the largest live blob,
                // so the profile never has to look past the watermark.
                let profile = profile.get_or_insert_with(|| {
                    Self::free_run_profile(&self.lob_unit, &self.gam, watermark_pages.max(1))
                });
                if Self::planned_fragments(profile, need) >= fragments {
                    report.blobs_skipped += 1;
                    report.fragments_after += fragments;
                    continue;
                }
            }
            if self
                .lob_unit
                .allocate_maintenance_runs(&mut self.gam, need, watermark_pages, layout)
                .is_err()
            {
                // Refused: nothing was allocated and the buffer is empty.
                report.blobs_skipped += 1;
                report.fragments_after += fragments;
                continue;
            }
            let new_fragments = layout.fragment_count() as u64;
            if new_fragments >= fragments {
                // Not an improvement: roll the speculative allocation back.
                self.lob_unit.free_runs(&mut self.gam, layout.runs());
                layout.clear();
                report.blobs_skipped += 1;
                report.fragments_after += fragments;
                continue;
            }
            // `verify`: as above.
            let record = self
                .blobs
                .get_mut(id.0)
                .expect("candidate ids are live blobs");
            let old_layout = record.replace_layout(layout.take_exact());
            self.frag_tracker.record_replace(fragments, new_fragments);
            Self::index_under(&mut self.compact_candidates, record, new_fragments);
            if new_fragments > 1 {
                refiled.push((new_fragments, std::cmp::Reverse(id)));
            }
            walk = self.compact_candidates.range(..entry).rev();
            self.lob_unit.free_runs(&mut self.gam, old_layout.runs());
            profile = None;
            self.stats.pages_allocated += need;
            report.blobs_moved += 1;
            report.pages_moved += need;
            report.bytes_copied += size_bytes;
            report.fragments_after += new_fragments;
        }
        self.scratch = scratch;
        self.debug_verify();
        report
    }

    /// Prefix sums of the free-run sizes a maintenance relocation can draw
    /// from — the unit's free page runs and whole unassigned GAM runs (in
    /// pages) — merged largest first, truncated once the sum reaches
    /// `cap_pages` (no candidate needs more, so further runs cannot change
    /// any planning answer).
    ///
    /// Because taking one run leaves every other run's length unchanged, the
    /// largest-first allocator consumes runs exactly in this order, so the
    /// prefix sums answer "how many fragments would `need` pages cost"
    /// without mutating anything (see [`Database::planned_fragments`]).
    fn free_run_profile(lob_unit: &AllocationUnit, gam: &Gam, cap_pages: u64) -> Vec<u64> {
        let mut unit = lob_unit.free_space().run_lens_desc().peekable();
        let mut gam_runs = gam
            .free_space()
            .run_lens_desc()
            .map(|extents| extents * PAGES_PER_EXTENT)
            .peekable();
        let mut prefix = Vec::new();
        let mut sum = 0u64;
        while sum < cap_pages {
            // Prefer the unit run on ties, as the allocator does (the tie
            // order cannot change the *count*, only which equal-sized run is
            // consumed first).
            let next = match (unit.peek(), gam_runs.peek()) {
                (Some(&u), Some(&g)) if u >= g => unit.next(),
                (Some(_), Some(_)) => gam_runs.next(),
                (Some(_), None) => unit.next(),
                (None, Some(_)) => gam_runs.next(),
                (None, None) => None,
            };
            let Some(len) = next else { break };
            sum += len;
            prefix.push(sum);
        }
        prefix
    }

    /// Fragments a largest-first relocation of `need` pages would produce
    /// given [`Database::free_run_profile`], or `u64::MAX` when the free
    /// space cannot supply `need` pages at all.
    ///
    /// This is an upper bound on the resulting `fragment_count`: in the rare
    /// case where two consumed runs happen to be page-adjacent (a unit run
    /// ending exactly where a freshly adopted extent begins) the real count
    /// comes out lower, so a skip based on this bound can at worst postpone
    /// an improvable candidate to a later tick — it never commits a move the
    /// old allocate-then-check path would have rolled back.
    fn planned_fragments(profile: &[u64], need: u64) -> u64 {
        if need == 0 {
            return 0;
        }
        let takes = profile.partition_point(|&total| total < need);
        if takes == profile.len() {
            return u64::MAX;
        }
        takes as u64 + 1
    }

    /// The largest contiguous allocation (in LOB pages) a single foreground
    /// operation could still need: the page count of the largest live blob,
    /// since a wholesale update writes a complete replacement version.  The
    /// [`PlacementPolicy::Reserve`] variant forbids the compactor from
    /// consuming any free run longer than this watermark.
    pub fn foreground_watermark_pages(&self) -> u64 {
        self.page_tracker.max().unwrap_or(0)
    }

    /// Read-only access to the Global Allocation Map, for placement
    /// instrumentation (the proptests measure the foreground band's largest
    /// free run across compaction steps).
    pub fn gam(&self) -> &Gam {
        &self.gam
    }

    /// Read-only access to the LOB allocation unit (see [`Database::gam`]).
    pub fn lob_unit(&self) -> &AllocationUnit {
        &self.lob_unit
    }

    /// Lends out the version buffers, at least `slots` of them, each empty
    /// with its capacity kept.  The caller hands them back (`self.scratch =
    /// ...`) empty — every version committed with [`RunList::take_exact`],
    /// every aborted one cleared — on every path out of the operation.
    fn lend_scratch(&mut self, slots: usize) -> Vec<RunList> {
        let mut scratch = std::mem::take(&mut self.scratch);
        if scratch.len() < slots {
            scratch.resize_with(slots, RunList::new);
        }
        for layout in &mut scratch[..slots] {
            layout.clear();
        }
        scratch
    }

    /// Runs `build` on the first version buffer and hands the buffers back,
    /// whether `build` commits its version or fails before it allocated
    /// anything.
    fn with_version_buffer<T>(
        &mut self,
        build: impl FnOnce(&mut Self, &mut RunList) -> Result<T, DbError>,
    ) -> Result<T, DbError> {
        let mut scratch = self.lend_scratch(1);
        let built = build(self, &mut scratch[0]);
        self.scratch = scratch;
        built
    }

    /// Allocates `pages` LOB pages for a version streaming in, appending
    /// them to `layout`, forcing a ghost cleanup first if the free pool is
    /// exhausted but ghosts exist (allocation pressure).
    fn allocate_lob_pages(&mut self, pages: u64, layout: &mut RunList) -> Result<(), DbError> {
        if pages > self.lob_unit.available_pages(&self.gam) && !self.ghosts.is_empty() {
            self.stats.forced_cleanups += 1;
            self.ghost_cleanup();
        }
        self.lob_unit.allocate_pages(&mut self.gam, pages, layout)?;
        self.note_allocated(pages);
        Ok(())
    }

    /// Counts `pages` freshly allocated LOB pages of a version about to
    /// commit.
    fn note_allocated(&mut self, pages: u64) {
        self.stats.pages_allocated += pages;
        self.in_flight_pages += pages;
    }

    fn receipt_for(
        config: &EngineConfig,
        id: BlobId,
        layout: &RunList,
        size_bytes: u64,
    ) -> DbWriteReceipt {
        DbWriteReceipt {
            blob_id: id,
            runs: page::byte_runs(layout, config.page_size, config.base_offset),
            bytes_written: size_bytes,
            pages_written: layout.units(),
        }
    }

    fn bump_op(&mut self) {
        self.ops_since_cleanup += 1;
        if self.config.ghost_cleanup_interval_ops > 0
            && self.ops_since_cleanup >= self.config.ghost_cleanup_interval_ops
        {
            self.ghost_cleanup();
        }
    }

    /// Checks every structural invariant of the engine against a full
    /// rescan, naming the first one that does not hold:
    ///
    /// * **page accounting** — every extent of the data file is unassigned in
    ///   the GAM or assigned to exactly one unit, and inside the LOB unit's
    ///   extents live + in-flight + ghost + free pages add up exactly (the
    ///   row unit's used pages are the clustered-index pages);
    /// * **no page has two owners** — the runs of all live layouts and of the
    ///   ghost backlog are pairwise disjoint, allocated in the LOB unit's
    ///   map, and inside the data file;
    /// * **the extent bitmaps agree with the maps**
    ///   ([`AllocationUnit::verify`]), and the three free maps with a
    ///   recomputation of what they cache (`RunIndexMap::verify`);
    /// * **the record table holds together** ([`IdTable::verify`]) and every
    ///   record is filed under the id it carries;
    /// * **the incremental indexes agree with a rescan** — the fragment
    ///   tracker, the page-count multiset behind the foreground watermark,
    ///   the key map and the row count;
    /// * **the deferred candidate index is what its records say** — the set
    ///   is exactly `{(indexed, id) : indexed > 1}`, a record that is not
    ///   `stale` is indexed under its true fragment count, and a record is
    ///   `stale` exactly when its id is on the stale list, once;
    /// * **the ghost backlog adds up** — its ordered heap and its fresh list
    ///   together hold the pages it counts (and, being owned runs, are
    ///   disjoint);
    /// * **the version buffers are empty** — between operations none holds a
    ///   version being built, as none holds an in-flight page.
    ///
    /// O(extents + runs · log runs); debug builds run it after every ghost
    /// cleanup, compaction step, rebuild and failed batch.
    pub fn verify(&self) -> Result<(), String> {
        self.lob_unit.verify(&self.gam)?;
        self.row_unit.verify(&self.gam)?;
        self.gam
            .free_space()
            .verify()
            .map_err(|why| format!("GAM: {why}"))?;

        // Page accounting.
        let lob_extents = self.lob_unit.extent_count();
        let row_extents = self.row_unit.extent_count();
        let free_extents = self.gam.free_extent_count();
        if lob_extents + row_extents + free_extents != self.config.total_extents() {
            return Err(format!(
                "extents: {lob_extents} LOB + {row_extents} row + {free_extents} unassigned \
                 != {} in the data file",
                self.config.total_extents()
            ));
        }
        if let Some(shared) = self
            .row_unit
            .extents()
            .find(|&extent| self.lob_unit.owns_extent(extent))
        {
            return Err(format!("{shared} assigned to both units"));
        }
        let live_pages: u64 = self.blobs.values().map(BlobRecord::page_count).sum();
        let ghost_pages = self.ghosts.page_count();
        let free_pages = self.lob_unit.free_page_count();
        if live_pages + self.in_flight_pages + ghost_pages + free_pages
            != lob_extents * PAGES_PER_EXTENT
        {
            return Err(format!(
                "LOB pages: {live_pages} live + {} in flight + {ghost_pages} ghost + \
                 {free_pages} free != {lob_extents} extents x {PAGES_PER_EXTENT}",
                self.in_flight_pages
            ));
        }
        if self.row_unit.used_pages() != self.stats.row_pages {
            return Err(format!(
                "row unit holds {} pages but stats.row_pages = {}",
                self.row_unit.used_pages(),
                self.stats.row_pages
            ));
        }

        // No page has two owners.  The backlog's ordered heap and its fresh
        // list are disjoint because every owned run is (checked below).
        let backlog: Vec<Extent> = self.ghosts.runs().collect();
        if backlog.iter().map(|run| run.len).sum::<u64>() != ghost_pages {
            return Err(format!(
                "ghost backlog counts {ghost_pages} pages but its heap and fresh list \
                 hold a different number"
            ));
        }
        let mut owned: Vec<Extent> = backlog;
        for record in self.blobs.values() {
            if record.runs().map(|run| run.len).sum::<u64>() != record.page_count() {
                return Err(format!("{}: cached page count is stale", record.id));
            }
            if record.page_count() != self.config.pages_for(record.size_bytes) {
                return Err(format!(
                    "{}: {} pages for {} bytes",
                    record.id,
                    record.page_count(),
                    record.size_bytes
                ));
            }
            owned.extend(record.runs());
        }
        owned.sort_unstable_by_key(|run| run.start);
        if let Some(pair) = owned.windows(2).find(|pair| pair[0].overlaps(&pair[1])) {
            return Err(format!(
                "pages of {:?} and {:?} have two owners",
                pair[0], pair[1]
            ));
        }
        for run in &owned {
            if run.is_empty() || run.end() > self.config.total_pages() {
                return Err(format!("run {run:?} is empty or outside the data file"));
            }
            if !self.lob_unit.holds_data(*run) {
                return Err(format!(
                    "run {run:?} is owned but free or outside the LOB unit's extents"
                ));
            }
        }

        self.blobs
            .verify()
            .map_err(|why| format!("blob table: {why}"))?;
        if let Some((id, record)) = self.blobs.iter().find(|(id, record)| record.id.0 != *id) {
            return Err(format!("blob table: {} is filed under id {id}", record.id));
        }

        // Incremental indexes against a rescan.
        if self.fragmentation() != self.fragmentation_rescan() {
            return Err(format!(
                "fragment tracker {:?} != rescan {:?}",
                self.fragmentation(),
                self.fragmentation_rescan()
            ));
        }
        let mut page_counts = CountMultiset::new();
        let mut candidates = CandidateIndex::new();
        let mut stale = BTreeSet::new();
        for record in self.blobs.values() {
            page_counts.insert(record.page_count());
            if record.indexed > 1 {
                candidates.insert((record.indexed, std::cmp::Reverse(record.id)));
            }
            if record.stale {
                stale.insert(record.id);
            } else if record.indexed != record.fragment_count() as u64 {
                return Err(format!(
                    "{}: not stale, yet the candidate index holds it under {} fragments \
                     and it has {}",
                    record.id,
                    record.indexed,
                    record.fragment_count()
                ));
            }
            if self.keys.get(record.key.as_bytes()) != Some(&record.id) {
                return Err(format!(
                    "{}: key {:?} does not map back",
                    record.id, record.key
                ));
            }
        }
        if page_counts != self.page_tracker {
            return Err("page-count multiset differs from a rescan".to_string());
        }
        if candidates != self.compact_candidates {
            return Err(
                "compaction candidate index differs from the entries its records name".to_string(),
            );
        }
        // The stale list names every stale record exactly once; whatever
        // else is on it names no record at all (deleted since it was noted).
        let mut listed = BTreeSet::new();
        for id in &self.stale_ids {
            if self.blobs.contains(id.0) && !listed.insert(*id) {
                return Err(format!("{id} is on the stale list twice"));
            }
        }
        if listed != stale {
            return Err(format!(
                "stale list names {} live records but {} records are flagged stale",
                listed.len(),
                stale.len()
            ));
        }
        if self.keys.len() != self.blobs.len() {
            return Err(format!(
                "{} keys, {} blobs",
                self.keys.len(),
                self.blobs.len()
            ));
        }
        if let Some((slot, layout)) = self
            .scratch
            .iter()
            .enumerate()
            .find(|(_, layout)| !layout.is_empty())
        {
            return Err(format!(
                "version buffer {slot} holds {} pages between operations",
                layout.units()
            ));
        }
        Ok(())
    }

    /// Runs [`Database::verify`] in debug builds, after the steps that move
    /// the most state around.
    ///
    /// # Panics
    /// In debug builds, with the violated clause, if the engine corrupted
    /// its own state: the tripwire that keeps the `expect`s above honest.
    fn debug_verify(&self) {
        #[cfg(debug_assertions)]
        if let Err(violation) = self.verify() {
            panic!("engine invariant violated: {violation}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lor_alloc::FreeSpace;

    const MAX_PAGES: u64 = RunList::MAX_UNITS;

    const MB: u64 = 1 << 20;

    fn small_db() -> Database {
        Database::create(EngineConfig::new(256 * MB)).unwrap()
    }

    #[test]
    fn bad_configs_are_rejected() {
        assert!(Database::create(EngineConfig {
            page_size: 0,
            ..EngineConfig::new(MB)
        })
        .is_err());
        assert!(Database::create(EngineConfig {
            lob_payload_per_page: 0,
            ..EngineConfig::new(MB)
        })
        .is_err());
        assert!(Database::create(EngineConfig {
            lob_payload_per_page: 9000,
            ..EngineConfig::new(MB)
        })
        .is_err());
        assert!(Database::create(EngineConfig {
            rows_per_page: 0,
            ..EngineConfig::new(MB)
        })
        .is_err());
        assert!(Database::create(EngineConfig::new(1000)).is_err());
    }

    #[test]
    fn a_data_file_past_the_32_bit_page_bound_is_refused() {
        // Validation runs before anything is built, so this allocates
        // nothing for the 32 TiB file.
        let too_large = EngineConfig::new((MAX_PAGES + 1) * 8192);
        assert_eq!(too_large.total_pages(), 1 << 32);
        assert_eq!(
            Database::create(too_large).unwrap_err(),
            DbError::BadConfig("data file must hold at most 2^32 - 1 pages")
        );
        // A partial last page does not count: the largest file accepted.
        let largest = EngineConfig::new((MAX_PAGES + 1) * 8192 - 1);
        assert_eq!(largest.total_pages(), MAX_PAGES);
        assert_eq!(largest.validate(), Ok(()));
    }

    /// The ghost backlog as it kept its runs before they were packed: one
    /// 16-byte [`Extent`] each, heap and sorts keyed on the extent.
    #[derive(Default)]
    struct ExtentBacklog {
        heap: BinaryHeap<Extent>,
        fresh: Vec<Extent>,
    }

    impl ExtentBacklog {
        fn pop_highest(&mut self, max_pages: u64) -> Option<Extent> {
            self.heap.extend(self.fresh.drain(..));
            let run = self.heap.pop()?;
            if run.len <= max_pages {
                return Some(run);
            }
            self.heap.push(Extent::new(run.start, run.len - max_pages));
            Some(Extent::new(run.end() - max_pages, max_pages))
        }

        fn release_all(&mut self) -> Vec<Extent> {
            let mut ordered = std::mem::take(&mut self.heap).into_vec();
            ordered.sort_unstable_by_key(|run| run.start);
            self.fresh.sort_unstable_by_key(|run| run.start);
            let mut merged = Vec::new();
            let (mut a, mut b) = (ordered.as_slice(), self.fresh.as_slice());
            while let Some(side) = match (a.first(), b.first()) {
                (Some(x), Some(y)) if y.start < x.start => Some(&mut b),
                (Some(_), _) => Some(&mut a),
                (None, Some(_)) => Some(&mut b),
                (None, None) => None,
            } {
                merged.push(side[0]);
                *side = &side[1..];
            }
            self.fresh.clear();
            merged
        }
    }

    #[test]
    fn the_packed_ghost_backlog_hands_out_what_the_extent_backlog_did() {
        for seed in 1..=8u64 {
            let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let mut next = |bound: u64| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state % bound
            };
            // Disjoint runs spread over the whole 32-bit page range, the
            // last one ending at the bound.  A run handed out returns to the
            // pool, so the backlog never holds two that overlap.
            let slot = MAX_PAGES / 512;
            let mut pool: Vec<Extent> = (0..512)
                .map(|i| {
                    let len = 1 + next(64);
                    let start = if i == 511 {
                        MAX_PAGES - len
                    } else {
                        i * slot + next(slot - 64)
                    };
                    Extent::new(start, len)
                })
                .collect();
            let (mut packed, mut reference) = (GhostBacklog::default(), ExtentBacklog::default());
            let mut handed_out = 0;
            for _ in 0..4_000 {
                match next(8) {
                    0..=3 if !pool.is_empty() => {
                        let mut layout = RunList::new();
                        for _ in 0..1 + next(6).min(pool.len() as u64 - 1) {
                            let run = pool.swap_remove(next(pool.len() as u64) as usize);
                            layout.push(run);
                        }
                        packed.extend(&layout);
                        reference.fresh.extend(layout.runs());
                    }
                    0..=6 => {
                        let max_pages = 1 + next(48);
                        let run = packed.pop_highest(max_pages);
                        assert_eq!(run, reference.pop_highest(max_pages), "seed {seed}");
                        pool.extend(run);
                        handed_out += 1;
                    }
                    _ => {
                        let mut released = Vec::new();
                        packed.release_all(|runs| released.extend(runs));
                        assert_eq!(released, reference.release_all(), "seed {seed}");
                        assert!(packed.is_empty());
                        pool.extend(released);
                    }
                }
                let mut held: Vec<Extent> = packed.runs().collect();
                let mut expected: Vec<Extent> = reference
                    .heap
                    .iter()
                    .chain(&reference.fresh)
                    .copied()
                    .collect();
                held.sort_unstable();
                expected.sort_unstable();
                assert_eq!(held, expected, "seed {seed}");
                assert_eq!(
                    packed.page_count(),
                    held.iter().map(|run| run.len).sum::<u64>()
                );
            }
            assert!(handed_out > 1_000, "seed {seed}: {handed_out} pops");
        }
    }

    #[test]
    fn insert_get_delete_round_trip() {
        let mut db = small_db();
        let receipt = db.insert("obj-1", MB).unwrap();
        assert_eq!(receipt.bytes_written, MB);
        assert_eq!(receipt.pages_written, db.config().pages_for(MB));

        let record = db.get("obj-1").unwrap();
        assert_eq!(record.size_bytes, MB);
        assert_eq!(record.id, receipt.blob_id);
        assert_eq!(db.object_count(), 1);
        assert!(db.blobs.get(receipt.blob_id.0).is_some());

        let plan = db.read_plan("obj-1").unwrap();
        let transferred: u64 = plan.iter().map(|r| r.len).sum();
        assert!(transferred >= MB, "whole pages are read");

        db.delete("obj-1").unwrap();
        assert!(db.get("obj-1").is_err());
        assert_eq!(db.object_count(), 0);
        assert!(db.ghost_page_count() > 0, "deleted pages await cleanup");
    }

    #[test]
    fn duplicate_keys_and_missing_keys_error() {
        let mut db = small_db();
        db.insert("a", 1000).unwrap();
        assert!(matches!(db.insert("a", 1000), Err(DbError::KeyExists(_))));
        assert!(matches!(
            db.update("ghost", 1000),
            Err(DbError::NoSuchKey(_))
        ));
        assert!(matches!(db.delete("ghost"), Err(DbError::NoSuchKey(_))));
        assert!(matches!(db.read_plan("ghost"), Err(DbError::NoSuchKey(_))));
    }

    #[test]
    fn insert_as_maintenance_respects_the_placement_band() {
        let placement = PlacementPolicy::banded(0.7);
        let mut config = EngineConfig::new(64 * MB);
        config.placement = placement;
        let mut db = Database::create(config).unwrap();
        let boundary_page =
            placement.boundary_cluster(db.config().total_extents()) * PAGES_PER_EXTENT;

        let receipt = db.insert_as_maintenance("migrant", 2 * MB).unwrap();
        assert_eq!(receipt.bytes_written, 2 * MB);
        let record = db.get("migrant").unwrap();
        for run in record.runs() {
            assert!(
                run.start >= boundary_page,
                "migration wrote into the foreground band: page {} < boundary {}",
                run.start,
                boundary_page
            );
        }

        // A migration the maintenance band cannot hold must fail outright
        // rather than spill into the foreground band, leaving no object.
        let before = db.object_count();
        assert!(matches!(
            db.insert_as_maintenance("too-big", 60 * MB),
            Err(DbError::OutOfSpace { .. })
        ));
        assert_eq!(db.object_count(), before);
        assert!(db.get("too-big").is_err());
    }

    #[test]
    fn bulk_load_lays_objects_out_contiguously() {
        let mut db = small_db();
        for i in 0..32 {
            db.insert(&format!("obj-{i}"), 512 * 1024).unwrap();
        }
        let summary = db.fragmentation();
        assert_eq!(summary.objects, 32);
        assert!(
            summary.fragments_per_object < 1.5,
            "clean bulk load should be nearly contiguous, got {}",
            summary.fragments_per_object
        );
    }

    #[test]
    fn update_replaces_the_version_and_ghosts_the_old_pages() {
        let mut db = small_db();
        db.insert("doc", 2 * MB).unwrap();
        let old_layout = db.get("doc").unwrap().layout().clone();
        let receipt = db.update("doc", 3 * MB).unwrap();
        let record = db.get("doc").unwrap();
        assert_eq!(record.size_bytes, 3 * MB);
        assert_eq!(record.page_count(), receipt.pages_written);
        assert_ne!(record.layout(), &old_layout);
        assert_eq!(db.ghost_page_count(), old_layout.units());
        assert_eq!(db.object_count(), 1);
        assert_eq!(db.stats().updates, 1);
    }

    #[test]
    fn batched_updates_interleave_and_fragment() {
        let mut db = Database::create(EngineConfig::new(128 * MB)).unwrap();
        for i in 0..16 {
            db.insert(&format!("obj-{i}"), 2 * MB).unwrap();
        }
        for _ in 0..4 {
            for group in (0..16).collect::<Vec<_>>().chunks(4) {
                let names: Vec<String> = group.iter().map(|i| format!("obj-{i}")).collect();
                let items: Vec<(&str, u64)> = names.iter().map(|n| (n.as_str(), 2 * MB)).collect();
                let receipts = db.update_batch(&items, 64 * 1024).unwrap();
                assert_eq!(receipts.len(), 4);
                for receipt in &receipts {
                    assert_eq!(receipt.bytes_written, 2 * MB);
                    assert_eq!(receipt.pages_written, db.config().pages_for(2 * MB));
                }
            }
        }
        assert_eq!(db.object_count(), 16);
        let summary = db.fragmentation();
        assert!(
            summary.fragments_per_object > 1.5,
            "interleaved updates should fragment, got {}",
            summary.fragments_per_object
        );
        // Every object still reads back in full and no page is shared.
        let mut seen = std::collections::HashSet::new();
        for blob in db.iter_blobs() {
            for page in blob.pages() {
                assert!(seen.insert(page));
            }
        }
    }

    #[test]
    fn failed_batch_update_leaks_no_pages() {
        let mut config = EngineConfig::new(16 * MB);
        config.ghost_cleanup_interval_ops = 1_000_000; // manual
        let mut db = Database::create(config).unwrap();
        db.insert("a", 5 * MB).unwrap();
        db.insert("b", 5 * MB).unwrap();
        // Ghost pages count as free: they exist, they are just not reusable yet.
        let free_pages =
            |db: &Database| db.lob_unit.available_pages(&db.gam) + db.ghost_page_count();
        let free_before = free_pages(&db);
        let pages_before = db.stats().pages_allocated;

        // Replacing both concurrently needs old + new versions simultaneously
        // (~20 MB in a 16 MB file, no ghosts to reclaim): the batch fails
        // mid-allocation and must roll every already-allocated page back.
        let err = db
            .update_batch(&[("a", 5 * MB), ("b", 5 * MB)], 64 * 1024)
            .unwrap_err();
        assert!(matches!(err, DbError::OutOfSpace { .. }));
        assert_eq!(free_pages(&db), free_before, "no pages may leak");
        assert_eq!(db.stats().pages_allocated, pages_before);
        assert_eq!(
            db.get("a").unwrap().size_bytes,
            5 * MB,
            "originals untouched"
        );
        assert_eq!(db.get("b").unwrap().size_bytes, 5 * MB);
        assert_eq!(db.stats().updates, 0);

        // The rolled-back space is genuinely reusable.
        db.update("a", 4 * MB).unwrap();
        assert_eq!(db.get("a").unwrap().size_bytes, 4 * MB);
    }

    /// A batch that runs out of space hands every version buffer back
    /// empty, and the next batch on the same engine builds its versions
    /// from nothing left over.
    ///
    /// Mutation-checked: without the `clear` of the abort path in
    /// `update_batch`, the debug build panics at the failed batch itself
    /// ("version buffer 0 holds 131 pages between operations": `c`'s
    /// complete version, from the abort's own `debug_verify`), and the
    /// release build fails the `scratch` assertion below — and, with that
    /// assertion taken out, the `verify()` after it with the same message.
    #[test]
    fn a_failed_batch_hands_its_version_buffers_back_empty() {
        let mut config = EngineConfig::new(16 * MB);
        config.ghost_cleanup_interval_ops = 0;
        let mut db = Database::create(config).unwrap();
        for (key, size) in [("a", 5 * MB), ("b", 5 * MB), ("c", MB), ("d", 100 * 1024)] {
            db.insert(key, size).unwrap();
        }
        let versions = |db: &Database| -> Vec<(u64, Vec<Extent>)> {
            db.iter_blobs()
                .map(|blob| (blob.size_bytes, blob.runs().collect()))
                .collect()
        };
        let before = versions(&db);

        // `c` completes its version in the first rounds; `a` and `b` run
        // out of space part-way through theirs.
        let err = db
            .update_batch(&[("c", MB), ("a", 5 * MB), ("b", 5 * MB)], 64 * 1024)
            .unwrap_err();
        assert!(matches!(err, DbError::OutOfSpace { .. }));
        assert_eq!(versions(&db), before, "every old version is intact");
        assert!(
            db.scratch.iter().all(RunList::is_empty),
            "no run is left over from the aborted batch"
        );
        assert_eq!(db.verify(), Ok(()));

        let items = [("c", 2 * MB), ("d", 300 * 1024), ("c", MB / 2)];
        let receipts = db.update_batch(&items, 64 * 1024).unwrap();
        for ((_, size), receipt) in items.iter().zip(&receipts) {
            assert_eq!(receipt.pages_written, db.config.pages_for(*size));
        }
        for key in ["c", "d"] {
            let blob = db.get(key).unwrap();
            assert_eq!(blob.page_count(), db.config.pages_for(blob.size_bytes));
        }
        assert!(
            db.iter_blobs().all(|blob| blob.layout().is_exact()),
            "a committed layout holds no spare capacity"
        );
        assert_eq!(db.verify(), Ok(()));
    }

    #[test]
    fn ghost_cleanup_returns_whole_extents_to_the_gam() {
        let mut config = EngineConfig::new(64 * MB);
        config.ghost_cleanup_interval_ops = 1_000_000; // manual
        let mut db = Database::create(config).unwrap();
        db.insert("a", 4 * MB).unwrap();
        let free_before = db.lob_unit.available_pages(&db.gam);
        db.delete("a").unwrap();
        assert_eq!(
            db.lob_unit.available_pages(&db.gam),
            free_before,
            "ghosts are not yet free"
        );
        db.ghost_cleanup();
        assert!(db.lob_unit.available_pages(&db.gam) > free_before);
        assert_eq!(db.ghost_page_count(), 0);
    }

    #[test]
    fn bounded_ghost_cleanup_releases_the_tail_first() {
        let mut config = EngineConfig::new(64 * MB);
        config.ghost_cleanup_interval_ops = 1_000_000; // manual
        let mut db = Database::create(config).unwrap();
        for i in 0..8 {
            db.insert(&format!("o{i}"), MB).unwrap();
        }
        // Delete in insertion order so the ghost list's *oldest* entries are
        // the *lowest* offsets.
        for i in 0..8 {
            db.delete(&format!("o{i}")).unwrap();
        }
        let backlog = db.ghost_page_count();
        assert!(backlog > 16);

        let pages_of_a_blob = db.config().pages_for(MB);
        let reclaimed = db.ghost_cleanup_limited(pages_of_a_blob);
        assert_eq!(reclaimed, pages_of_a_blob);
        assert_eq!(
            db.ghost_page_count(),
            backlog - reclaimed,
            "only the budgeted pages were released"
        );
        // A second bounded pass keeps eating from the (new) tail.
        let ghost_pages = |db: &Database| -> Vec<u64> {
            db.ghosts
                .runs()
                .flat_map(|run| run.start..run.end())
                .collect()
        };
        let before = ghost_pages(&db);
        db.ghost_cleanup_limited(pages_of_a_blob);
        let after = ghost_pages(&db);
        let released: Vec<_> = before.iter().filter(|p| !after.contains(p)).collect();
        assert_eq!(released.len() as u64, pages_of_a_blob);
        let kept_max = after.iter().max().unwrap();
        assert!(
            released.iter().all(|p| *p > kept_max),
            "released ghosts ({released:?}) must all sit above the kept backlog (max {kept_max:?})"
        );
        // An unbounded pass drains the rest.
        db.ghost_cleanup();
        assert_eq!(db.ghost_page_count(), 0);
    }

    #[test]
    fn allocation_pressure_forces_a_cleanup() {
        let mut config = EngineConfig::new(16 * MB);
        config.ghost_cleanup_interval_ops = 1_000_000;
        let mut db = Database::create(config).unwrap();
        db.insert("a", 12 * MB).unwrap();
        db.delete("a").unwrap();
        let before = db.stats().forced_cleanups;
        db.insert("b", 12 * MB).unwrap();
        assert_eq!(db.stats().forced_cleanups, before + 1);
    }

    #[test]
    fn out_of_space_is_reported() {
        let mut db = Database::create(EngineConfig::new(4 * MB)).unwrap();
        assert!(matches!(
            db.insert("too-big", 16 * MB),
            Err(DbError::OutOfSpace { .. })
        ));
        // The failed insert leaves no trace.
        assert_eq!(db.object_count(), 0);
        assert!(db.get("too-big").is_err());
    }

    #[test]
    fn metadata_rows_allocate_clustered_index_pages() {
        let mut config = EngineConfig::new(64 * MB);
        config.rows_per_page = 4;
        let mut db = Database::create(config).unwrap();
        for i in 0..9 {
            db.insert(&format!("k{i}"), 1000).unwrap();
        }
        assert_eq!(
            db.stats().row_pages,
            3,
            "9 rows at 4 rows/page need 3 pages"
        );
    }

    /// An insert whose metadata row finds no page fails whole: its pages go
    /// back and nothing is filed, through either insert path.  Each case
    /// fills a data file so that the last LOB extent is free and the row
    /// pages are full, then inserts once more: the LOB pages fit, the row
    /// page does not.  Deleting one object then makes room for the row, so
    /// an insert succeeds again.  While the row was placed after the record
    /// was filed, the failed insert kept the object: 1,025 objects after
    /// 1,024 inserts in the first case.
    #[test]
    fn an_insert_whose_metadata_row_finds_no_page_leaves_nothing_behind() {
        // (data file KiB, object bytes, objects that fit)
        let cases = [
            (8_320, 8_064, 1_024),
            (16_512, 16_128, 1_024),
            (16_576, 8_064, 2_048),
        ];
        for (file_kib, size, fits) in cases {
            for maintenance in [false, true] {
                let case = format!("{file_kib} KiB, {size} B, maintenance {maintenance}");
                let mut db = Database::create(EngineConfig::new(file_kib * 1024)).unwrap();
                for i in 0..fits {
                    db.insert(&format!("k{i}"), size).unwrap();
                }
                let free_before = db.lob_unit.available_pages(&db.gam);
                let pages_before = db.stats().pages_allocated;
                let insert = |db: &mut Database| {
                    if maintenance {
                        db.insert_as_maintenance("last", size)
                    } else {
                        db.insert("last", size)
                    }
                };
                let err = insert(&mut db).unwrap_err();
                assert!(matches!(err, DbError::OutOfSpace { .. }), "{case}: {err:?}");
                assert!(!db.contains_key("last"), "{case}");
                assert_eq!(db.object_count(), fits, "{case}");
                assert_eq!(db.stats().inserts, fits as u64, "{case}");
                assert_eq!(db.stats().pages_allocated, pages_before, "{case}");
                assert_eq!(db.lob_unit.available_pages(&db.gam), free_before, "{case}");
                assert!(db.scratch.iter().all(RunList::is_empty), "{case}");
                assert_eq!(db.verify(), Ok(()), "{case}");

                db.delete("k0").unwrap();
                insert(&mut db).unwrap_or_else(|err| panic!("{case}: {err:?}"));
                assert_eq!(db.object_count(), fits, "{case}");
                assert_eq!(db.verify(), Ok(()), "{case}");
            }
        }
    }

    #[test]
    fn aged_database_fragments_and_rebuild_repairs_it() {
        let mut db = Database::create(EngineConfig::new(64 * MB)).unwrap();
        let object = MB;
        let count = 24; // ~24 MB live in a 64 MB file
        for i in 0..count {
            db.insert(&format!("obj-{i}"), object).unwrap();
        }
        // Age the store: several rounds of wholesale replacement in a
        // scattered order.
        for round in 0..8 {
            for i in 0..count {
                let key = format!("obj-{}", (i * 7 + round) % count);
                db.update(&key, object).unwrap();
            }
        }
        let aged = db.fragmentation();
        assert!(
            aged.fragments_per_object > 1.2,
            "aging must fragment the store, got {}",
            aged.fragments_per_object
        );

        let copied = db.rebuild_into_new_filegroup().unwrap();
        assert_eq!(copied, count * object);
        let rebuilt = db.fragmentation();
        assert!(
            rebuilt.fragments_per_object < aged.fragments_per_object,
            "rebuild must reduce fragmentation ({} -> {})",
            aged.fragments_per_object,
            rebuilt.fragments_per_object
        );
        // Every object still reads back in full.
        for i in 0..count {
            let plan = db.read_plan(&format!("obj-{i}")).unwrap();
            assert!(plan.iter().map(|r| r.len).sum::<u64>() >= object);
        }
    }

    /// Ages a small engine so several blobs end up fragmented.
    fn aged_db() -> Database {
        let mut db = Database::create(EngineConfig::new(64 * MB)).unwrap();
        let count = 24;
        for i in 0..count {
            db.insert(&format!("obj-{i}"), MB).unwrap();
        }
        for round in 0..8 {
            for i in 0..count {
                db.update(&format!("obj-{}", (i * 7 + round) % count), MB)
                    .unwrap();
            }
        }
        db.ghost_cleanup();
        db
    }

    #[test]
    fn compact_steps_reduce_fragmentation_incrementally() {
        let mut db = aged_db();
        let before = db.fragmentation();
        assert!(before.fragments_per_object > 1.2, "fixture must be aged");

        let mut steps = 0;
        let mut previous = before.total_fragments;
        loop {
            let report = db.compact_step(32);
            let now = db.fragmentation().total_fragments;
            assert!(now <= previous, "a step may never add fragments");
            previous = now;
            steps += 1;
            assert!(steps < 10_000, "compaction must terminate");
            if report.blobs_moved == 0 {
                break;
            }
            assert!(
                report.pages_moved <= 32 + db.config().pages_for(MB),
                "budget is a soft cap: at most one blob of overshoot"
            );
        }
        let after = db.fragmentation();
        assert!(
            after.fragments_per_object < before.fragments_per_object,
            "compaction must reduce fragmentation ({} -> {})",
            before.fragments_per_object,
            after.fragments_per_object
        );
        // Every object still reads back in full and no page is shared.
        let mut seen = std::collections::HashSet::new();
        for blob in db.iter_blobs() {
            assert_eq!(blob.page_count(), db.config().pages_for(MB));
            for page in blob.pages() {
                assert!(seen.insert(page));
            }
        }
    }

    /// Ages a small engine under an explicit placement policy.
    fn aged_db_placed(placement: PlacementPolicy) -> Database {
        let mut config = EngineConfig::new(64 * MB);
        config.placement = placement;
        let mut db = Database::create(config).unwrap();
        let count = 24;
        for i in 0..count {
            db.insert(&format!("obj-{i}"), MB).unwrap();
        }
        for round in 0..8 {
            for i in 0..count {
                db.update(&format!("obj-{}", (i * 7 + round) % count), MB)
                    .unwrap();
            }
        }
        db.ghost_cleanup();
        db
    }

    /// The largest free run (in pages) the foreground band offers, over the
    /// *combined* page-level availability: free pages inside assigned
    /// extents plus every page of every unassigned GAM extent, coalesced.
    /// (The two maps individually are not monotone under compaction — a
    /// fully drained extent migrates from the unit map to the GAM — but
    /// their union below the boundary only ever grows.)
    fn foreground_band_largest(db: &Database) -> u64 {
        let boundary_page = db
            .config()
            .placement
            .boundary_cluster(db.config().total_extents())
            * PAGES_PER_EXTENT;
        let mut runs: Vec<lor_alloc::Extent> = db
            .lob_unit()
            .free_space()
            .free_runs()
            .into_iter()
            .chain(db.gam().free_space().free_runs().into_iter().map(|run| {
                lor_alloc::Extent::new(run.start * PAGES_PER_EXTENT, run.len * PAGES_PER_EXTENT)
            }))
            .collect();
        runs.sort_by_key(|run| run.start);
        let mut largest = 0u64;
        let mut current: Option<lor_alloc::Extent> = None;
        for run in runs {
            match current.as_mut() {
                Some(open) if run.start <= open.end() => {
                    open.len = open.len.max(run.end() - open.start);
                }
                _ => {
                    current = Some(run);
                }
            }
            let open = current.expect("just set");
            largest = largest.max(open.end().min(boundary_page).saturating_sub(open.start));
        }
        largest
    }

    #[test]
    fn banded_compaction_relocates_into_the_maintenance_band() {
        let placement = PlacementPolicy::banded(0.75);
        let mut db = aged_db_placed(placement);
        let boundary_page =
            placement.boundary_cluster(db.config().total_extents()) * PAGES_PER_EXTENT;
        let before = db.fragmentation();
        assert!(before.fragments_per_object > 1.2, "fixture must be aged");

        let mut moved_any = false;
        for _ in 0..256 {
            let largest_before = foreground_band_largest(&db);
            let report = db.compact_step(32);
            let largest_after = foreground_band_largest(&db);
            // Compaction reserves only in the maintenance band and frees
            // anywhere, so the foreground band's largest free run can only
            // grow.
            assert!(
                largest_after >= largest_before,
                "a compact step shrank the foreground band \
                 ({largest_before} -> {largest_after})"
            );
            if report.blobs_moved == 0 {
                break;
            }
            moved_any = true;
        }
        assert!(moved_any, "the banded compactor must make progress");
        let after = db.fragmentation();
        assert!(
            after.fragments_per_object < before.fragments_per_object,
            "banded compaction must still repair fragmentation ({} -> {})",
            before.fragments_per_object,
            after.fragments_per_object
        );
        // At least one moved blob physically sits in the maintenance band.
        assert!(
            db.iter_blobs()
                .any(|blob| blob.runs().all(|run| run.start >= boundary_page)),
            "no blob ended up in the maintenance band"
        );
    }

    #[test]
    fn banded_compaction_skips_gracefully_when_the_band_cannot_hold_a_blob() {
        // Boundary at 99%: the maintenance band (~80 pages) is smaller than
        // any 1 MB blob (130 pages), so every candidate must be refused —
        // without deadlock, spill-over, or foreground-band damage.
        let placement = PlacementPolicy::banded(0.99);
        let mut db = aged_db_placed(placement);
        assert!(db.fragmentation().fragments_per_object > 1.2);

        let largest_before = foreground_band_largest(&db);
        let layouts_before: Vec<_> = db.iter_blobs().map(|b| b.layout().clone()).collect();
        for _ in 0..4 {
            let report = db.compact_step(0);
            assert_eq!(report.blobs_moved, 0, "no candidate fits the band");
            assert!(report.blobs_skipped > 0, "candidates are skipped, not lost");
        }
        let layouts_after: Vec<_> = db.iter_blobs().map(|b| b.layout().clone()).collect();
        assert_eq!(layouts_before, layouts_after, "layouts untouched");
        assert_eq!(foreground_band_largest(&db), largest_before);
    }

    #[test]
    fn reserve_compaction_leaves_gam_runs_above_the_watermark_untouched() {
        let mut db = aged_db_placed(PlacementPolicy::Reserve);
        let watermark_extents = db.foreground_watermark_pages() / PAGES_PER_EXTENT;
        let big_runs: Vec<_> = db
            .gam()
            .free_space()
            .free_runs()
            .into_iter()
            .filter(|run| run.len > watermark_extents)
            .collect();
        assert!(
            !big_runs.is_empty(),
            "fixture must offer a GAM run above the watermark"
        );
        loop {
            if db.compact_step(64).blobs_moved == 0 {
                break;
            }
        }
        for run in big_runs {
            assert!(
                db.gam().free_space().is_free(run),
                "GAM run {run:?} above the watermark must survive compaction"
            );
        }
    }

    /// Oracle: under [`PlacementPolicy::Unrestricted`] the placement-aware
    /// compactor reproduces the pre-placement `compact_step` bit-identically.
    /// The replica below is the PR 4 loop — candidates most fragmented
    /// first, `allocate_largest_runs`, commit only on strict improvement.
    #[test]
    fn unrestricted_compaction_is_bit_identical_to_the_legacy_step() {
        let mut new_path = aged_db();
        let mut legacy = new_path.clone();

        loop {
            if new_path.compact_step(32).blobs_moved == 0 {
                break;
            }
        }

        loop {
            let mut candidates: Vec<(BlobId, usize)> = legacy
                .blobs
                .values()
                .filter(|record| record.fragment_count() > 1)
                .map(|record| (record.id, record.fragment_count()))
                .collect();
            candidates.sort_by_key(|(_, fragments)| std::cmp::Reverse(*fragments));
            let mut moved = 0;
            let mut pages_moved = 0;
            for (id, fragments) in candidates {
                if pages_moved >= 32 {
                    break;
                }
                let need = legacy.blobs.get(id.0).unwrap().page_count();
                let mut new_layout = RunList::new();
                if legacy
                    .lob_unit
                    .allocate_largest_runs(&mut legacy.gam, need, &mut new_layout)
                    .is_err()
                {
                    continue;
                }
                if new_layout.fragment_count() >= fragments {
                    for page in page::pages(&new_layout) {
                        legacy
                            .lob_unit
                            .free_run(&mut legacy.gam, Extent::new(page.0, 1));
                    }
                    continue;
                }
                let record = legacy.blobs.get_mut(id.0).unwrap();
                let old_layout = record.replace_layout(new_layout);
                for page in page::pages(&old_layout) {
                    legacy
                        .lob_unit
                        .free_run(&mut legacy.gam, Extent::new(page.0, 1));
                }
                moved += 1;
                pages_moved += need;
            }
            if moved == 0 {
                break;
            }
        }

        let new_layouts: Vec<_> = new_path.iter_blobs().map(|b| b.layout().clone()).collect();
        let legacy_layouts: Vec<_> = legacy.iter_blobs().map(|b| b.layout().clone()).collect();
        assert_eq!(new_layouts, legacy_layouts);
        assert_eq!(
            new_path.gam().free_space().free_runs(),
            legacy.gam().free_space().free_runs()
        );
        assert_eq!(
            new_path.lob_unit().free_space().free_runs(),
            legacy.lob_unit().free_space().free_runs()
        );
    }

    #[test]
    fn compact_step_on_a_clean_store_is_a_no_op() {
        let mut db = small_db();
        for i in 0..8 {
            db.insert(&format!("obj-{i}"), MB).unwrap();
        }
        let report = db.compact_step(0);
        assert_eq!(report.blobs_examined, 0);
        assert_eq!(report.pages_moved, 0);
    }

    /// The walk examines exactly the candidates the index held when the step
    /// began, each once, in its order — also when a move re-files a blob
    /// that stays fragmented below the walk, and when a commit follows
    /// candidates the walk had already passed over.
    #[test]
    fn a_compact_step_examines_each_candidate_once_in_index_order() {
        // Mixed sizes in a file three quarters full: moves land in several
        // runs, and some candidates cannot be improved.
        let mut config = EngineConfig::new(12 * MB);
        config.ghost_cleanup_interval_ops = 0;
        let mut db = Database::create(config).unwrap();
        let size = |i: u64| MB / 2 + (i % 3) * MB / 4;
        let count = 12;
        for i in 0..count {
            db.insert(&format!("obj-{i}"), size(i)).unwrap();
        }
        for round in 0..8 {
            for i in 0..count {
                let key = format!("obj-{}", (i * 7 + round) % count);
                db.update(&key, size(i + round)).unwrap();
            }
            db.ghost_cleanup();
        }
        db.flush_stale_candidates();
        // The index as the step finds it, in walk order, with each layout.
        let snapshot: Vec<(u64, BlobId, RunList)> = db
            .compact_candidates
            .iter()
            .rev()
            .map(|&(fragments, std::cmp::Reverse(id))| {
                (fragments, id, db.blobs.get(id.0).unwrap().layout().clone())
            })
            .collect();

        let report = db.compact_step(0);
        let moved: Vec<bool> = snapshot
            .iter()
            .map(|(_, id, layout)| db.blobs.get(id.0).unwrap().layout() != layout)
            .collect();
        assert_eq!(report.blobs_examined, snapshot.len() as u64);
        assert_eq!(
            report.fragments_before,
            snapshot
                .iter()
                .map(|(fragments, ..)| fragments)
                .sum::<u64>()
        );
        let moves = moved.iter().filter(|&&yes| yes).count() as u64;
        assert_eq!(report.blobs_moved, moves);
        assert_eq!(report.blobs_skipped, report.blobs_examined - moves);
        // What would expose a walk that meets a re-filed blob again or
        // re-opens from the top: a moved blob still fragmented, and a commit
        // after a candidate the walk passed over.
        assert!(
            snapshot
                .iter()
                .zip(&moved)
                .any(|((_, id, _), &yes)| yes && db.blobs.get(id.0).unwrap().fragment_count() > 1),
            "fixture: some moved blob must stay fragmented"
        );
        let passed_over = moved.iter().position(|&yes| !yes);
        let last_move = moved.iter().rposition(|&yes| yes);
        assert!(
            matches!((passed_over, last_move), (Some(p), Some(m)) if p < m),
            "fixture: a commit must follow a candidate the walk passed over"
        );
        assert_eq!(db.verify(), Ok(()));
    }

    #[test]
    fn zero_ghost_cleanup_interval_disables_automatic_cleanup() {
        let mut config = EngineConfig::new(64 * MB);
        config.ghost_cleanup_interval_ops = 0;
        let mut db = Database::create(config).unwrap();
        db.insert("a", MB).unwrap();
        for _ in 0..20 {
            db.update("a", MB).unwrap();
        }
        assert!(db.ghost_page_count() > 0, "ghosts must accumulate");
        assert_eq!(db.stats().ghost_cleanups, 0);
        assert_eq!(db.stats().forced_cleanups, 0);
        db.ghost_cleanup();
        assert_eq!(db.ghost_page_count(), 0);
    }

    #[test]
    fn verify_names_the_violated_invariant() {
        let mut db = aged_db();
        db.update("obj-3", MB).unwrap();
        assert_eq!(db.verify(), Ok(()));
        let live = db.get("obj-0").unwrap().runs().next().unwrap();

        // A live page handed to the free pool: the accounting is off by one.
        let mut freed = db.clone();
        freed
            .lob_unit
            .free_run(&mut freed.gam, Extent::new(live.start, 1));
        let violation = freed.verify().unwrap_err();
        assert!(violation.contains("LOB pages"), "{violation}");

        // A live page ghosted as well: it has two owners.
        let mut ghosted = db.clone();
        let mut page = RunList::new();
        page.push(Extent::new(live.start, 1));
        ghosted.ghosts.extend(&page);
        let violation = ghosted.verify().unwrap_err();
        assert!(
            violation.contains("LOB pages") || violation.contains("two owners"),
            "{violation}"
        );

        // An index that missed an update.
        let mut stale = db.clone();
        stale.frag_tracker.record_insert(1);
        let violation = stale.verify().unwrap_err();
        assert!(violation.contains("fragment tracker"), "{violation}");
        // The candidate index is deferred: until a flush it holds nothing of
        // the aged store and `verify` accepts that.
        assert!(db.compact_candidates.is_empty());
        let mut stale = db.clone();
        stale.flush_stale_candidates();
        assert_eq!(stale.verify(), Ok(()));
        assert!(stale.stale_ids.is_empty() && !stale.compact_candidates.is_empty());
        stale.compact_candidates.clear();
        let violation = stale.verify().unwrap_err();
        assert!(violation.contains("candidate index"), "{violation}");

        // The deferred index's own state.  A record flagged stale that the
        // list does not name would never be re-indexed ...
        let fragmented = db
            .iter_blobs()
            .find(|blob| blob.fragment_count() > 1)
            .map(|blob| blob.id)
            .expect("fixture must be aged");
        let mut unlisted = db.clone();
        unlisted.stale_ids.retain(|&id| id != fragmented);
        let violation = unlisted.verify().unwrap_err();
        assert!(violation.contains("stale list names"), "{violation}");
        // ... one named twice would be, twice ...
        let mut twice = db.clone();
        twice.stale_ids.push(fragmented);
        let violation = twice.verify().unwrap_err();
        assert!(violation.contains("stale list twice"), "{violation}");
        // ... and one that lost its flag keeps an index entry that is wrong.
        let mut unflagged = db.clone();
        unflagged.blobs.get_mut(fragmented.0).unwrap().stale = false;
        let violation = unflagged.verify().unwrap_err();
        assert!(violation.contains("not stale"), "{violation}");

        // A record filed under an id it does not carry.  (The table's own
        // clauses are broken one by one in `lor_alloc`'s `idtable` tests;
        // its fields are out of reach from here.)
        let mut misfiled = db.clone();
        misfiled.blobs.get_mut(fragmented.0).unwrap().id = BlobId(u64::MAX);
        let violation = misfiled.verify().unwrap_err();
        assert!(violation.contains("is filed under id"), "{violation}");

        // A ghost run the backlog does not count, in its heap or fresh.
        let spare = Extent::new(db.config().total_pages() - 1, 1);
        let mut uncounted = db.clone();
        uncounted.ghosts.fresh.push(PackedRun::new(spare));
        let violation = uncounted.verify().unwrap_err();
        assert!(violation.contains("heap and fresh list"), "{violation}");
        let mut uncounted = db.clone();
        uncounted.ghosts.heap.push(PackedRun::new(spare));
        let violation = uncounted.verify().unwrap_err();
        assert!(violation.contains("heap and fresh list"), "{violation}");

        let mut stale = db;
        stale.page_tracker.insert(7);
        let violation = stale.verify().unwrap_err();
        assert!(violation.contains("page-count multiset"), "{violation}");
    }

    #[test]
    fn a_store_that_never_compacts_keeps_the_stale_list_within_its_object_count() {
        let mut db = Database::create(EngineConfig::new(64 * MB)).unwrap();
        let count = 24;
        for i in 0..count {
            db.insert(&format!("obj-{i}"), MB).unwrap();
        }
        // Many versions of every object, singly and in batches naming a key
        // twice: each id is noted once, the first time.
        for round in 0..12 {
            for i in (0..count).step_by(3) {
                let names: Vec<String> = [i, i + 1, i + 2, i]
                    .iter()
                    .map(|i| format!("obj-{}", (i * 7 + round) % count))
                    .collect();
                let items: Vec<(&str, u64)> = names.iter().map(|n| (n.as_str(), MB)).collect();
                db.update_batch(&items, 64 * 1024).unwrap();
                db.update(&names[1], MB).unwrap();
                assert!(db.stale_ids.len() <= db.object_count());
            }
        }
        assert_eq!(db.stale_ids.len(), count);
        assert!(db.fragmentation().fragments_per_object > 1.2);
        assert!(
            db.compact_candidates.is_empty(),
            "nobody asked for the candidate index, so nobody paid for it"
        );
        assert_eq!(db.verify(), Ok(()));

        // Churn: ids of deleted records stay on the list only until they
        // would outnumber the live ones two to one.
        for i in 0..2_000 {
            let key = format!("churn-{i}");
            db.insert(&key, 64 * 1024).unwrap();
            db.delete(&key).unwrap();
            assert!(db.stale_ids.len() <= 2 * db.object_count() + STALE_SLACK + 1);
        }
        assert_eq!(db.verify(), Ok(()));

        // The first compactor to ask gets the index a rescan would build.
        db.flush_stale_candidates();
        assert!(db.stale_ids.is_empty());
        let rescan: CandidateIndex = db
            .iter_blobs()
            .filter(|blob| blob.fragment_count() > 1)
            .map(|blob| (blob.fragment_count() as u64, std::cmp::Reverse(blob.id)))
            .collect();
        assert!(!rescan.is_empty());
        assert_eq!(db.compact_candidates, rescan);
        assert_eq!(db.verify(), Ok(()));
    }

    #[test]
    fn a_failed_batch_leaves_no_record_stale_that_did_not_commit() {
        let mut config = EngineConfig::new(16 * MB);
        config.ghost_cleanup_interval_ops = 0;
        let mut db = Database::create(config).unwrap();
        db.insert("a", 5 * MB).unwrap();
        db.insert("b", 5 * MB).unwrap();
        db.insert("c", MB).unwrap();
        db.compact_step(0);
        assert!(db.stale_ids.is_empty());

        // `c` commits on its own; the batch after it dies mid-allocation.
        db.update("c", MB).unwrap();
        let err = db
            .update_batch(&[("a", 5 * MB), ("b", 5 * MB), ("c", MB)], 64 * 1024)
            .unwrap_err();
        assert!(matches!(err, DbError::OutOfSpace { .. }));
        let c = db.get("c").unwrap().id;
        assert_eq!(db.stale_ids, [c], "only the committed write is noted");
        for blob in db.iter_blobs() {
            assert_eq!(blob.stale, blob.id == c, "{}", blob.key.as_str());
        }
        assert_eq!(db.verify(), Ok(()));

        // The next batch commits, noting nothing twice.
        let receipts = db
            .update_batch(&[("c", MB), ("c", 2 * MB)], 64 * 1024)
            .unwrap();
        assert_eq!(receipts.len(), 2);
        assert_eq!(db.stale_ids, [c]);
        assert_eq!(db.get("c").unwrap().size_bytes, 2 * MB);
        assert_eq!(db.verify(), Ok(()));
    }

    #[test]
    fn stats_accumulate() {
        let mut db = small_db();
        db.insert("a", MB).unwrap();
        db.insert("b", MB).unwrap();
        db.update("a", 2 * MB).unwrap();
        db.delete("b").unwrap();
        let stats = db.stats();
        assert_eq!(stats.inserts, 2);
        assert_eq!(stats.updates, 1);
        assert_eq!(stats.deletes, 1);
        assert_eq!(stats.bytes_written, 4 * MB);
        assert_eq!(stats.bytes_deleted, 2 * MB);
        assert!(stats.pages_allocated > 0);
    }
}
