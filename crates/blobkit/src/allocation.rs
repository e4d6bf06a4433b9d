//! GAM/IAM-style space management for the data file, on the shared
//! `lor-alloc` mechanism/policy split.
//!
//! SQL Server tracks which 64 KB extents of a data file are allocated (the
//! Global Allocation Map) and which extents belong to each allocation unit
//! (the Index Allocation Map chain).  The reproduction keeps the same
//! two-level structure because it is what produces the database's
//! characteristic fragmentation behaviour:
//!
//! * space is reused **lowest page first** (first fit over the page space), so
//!   pages freed by deleted BLOBs anywhere in the file are filled before the
//!   file's tail is touched — which is what gradually interleaves objects as
//!   the store ages;
//! * an object being streamed in keeps **appending to the page that follows
//!   its previous one** whenever that page is free (or its extent can be
//!   assigned), so a bulk load onto a clean file lays every object out
//!   contiguously;
//! * pages freed inside an extent are only reusable by the same allocation
//!   unit until the whole extent empties, at which point the extent returns to
//!   the GAM.
//!
//! ## Representation: runs all the way down
//!
//! Every structure here stores and moves **runs**, never single pages or
//! single extents:
//!
//! * the [`Gam`] is a [`RunIndexMap`] at extent granularity (free =
//!   unassigned); extents are assigned and released a run at a time
//!   ([`Gam::assign_run`], [`Gam::release_run`]);
//! * an [`AllocationUnit`] holds a [`RunIndexMap`] at page granularity in
//!   which exactly the data-free pages *inside the unit's assigned extents*
//!   are free, plus its IAM chain as a dense bitmap over the file's extents
//!   (one bit each — 38 KB for a 20 GB file), so "is this extent mine?" is a
//!   bit test on the allocation and free paths rather than a probe of an
//!   ordered set with one node per extent;
//! * allocations return [`PageRuns`] — the object's layout as maximal page
//!   runs — and frees take runs back ([`AllocationUnit::free_run`]).
//!
//! Two transitions cross the levels, each in one step.  A **fresh-tail
//! adoption** — an object streaming past the unit's last extent into
//! unassigned territory — assigns as many consecutive GAM extents as the
//! request needs in one GAM reservation and one page-map release.  An
//! **emptying release** hands every extent a freed run emptied back to the
//! GAM as one aligned span.  Both leave exactly the state the one-extent-at-
//! a-time procedure would (the free maps are canonical: a function of the
//! free set alone), which `tests/differential.rs` pins against a
//! page-at-a-time reference model.
//!
//! A whole backlog of freed runs — the engine's full ghost-cleanup pass — is
//! one **batched release** ([`AllocationUnit::free_sorted_runs`]): the
//! sorted runs go into the page map in one merge
//! ([`RunIndexMap::release_batch`]) that cuts out the whole extents of every
//! coalesced run it grew as it goes, and those extents go to the GAM in
//! sorted batches through the same method ([`Gam::release_runs`]).  The end
//! state is the one a
//! [`AllocationUnit::free_run`] per run leaves, in any order
//! (`tests/proptests.rs` compares the two).
//!
//! The streaming allocator ([`AllocationUnit::allocate_pages`]) asks the
//! page map only questions that can have an answer.  A take that came up
//! short of what was asked ended because the free run did, so the page after
//! it is not free in the unit map: continuing the run there can only mean
//! growing into an unassigned extent, which is one test of the IAM bitmap —
//! not a search of the map that cannot hit (on an aged store nearly half of
//! all probes were of that kind).
//!
//! Where a run must be *chosen* (a fresh extent from the GAM, the start of a
//! new page run inside the unit) the choice is delegated to the shared
//! [`FitPolicy`] implementation, selected through [`AllocationPolicy`]: the
//! paper-faithful native behaviour is [`FitPolicy::FirstFit`] — lowest first
//! — at both granularities, and the ablation benches can swap in any other
//! fit without touching the mechanism.
//!
//! ## Panics
//!
//! The `expect`s below each state the structural invariant that makes them
//! unreachable; [`AllocationUnit::verify`] (and `Database::verify` above it)
//! checks those invariants, and debug builds run it after every maintenance
//! step.  Freeing space that is not allocated is an engine bug and panics.

use lor_alloc::{
    AllocationPolicy, Extent, FitPicker, FitPolicy, FreeSpace, PlacementConsumer, PlacementPolicy,
    RunIndexMap,
};
use serde::{Deserialize, Serialize};

use crate::error::DbError;
use crate::page::{ExtentId, PageId, PageKind, PageRuns, PAGES_PER_EXTENT};

/// The fit the database's native policy applies: SQL Server reuses the lowest
/// free page / extent first.
const NATIVE_FIT: FitPolicy = FitPolicy::FirstFit;

/// Most emptied extent spans [`AllocationUnit::free_sorted_runs`] holds
/// before handing them to the GAM.  A full ghost pass on an aged store
/// empties up to 15,000 spans; collecting them all in one buffer (up to
/// 256 KB) read ≈ 0.2 MB more peak RSS on `serve_db` than this one of 4 KB
/// (EXPERIMENTS.md, "Host cost of the maintenance slice").
const EMPTIED_BATCH: usize = 256;

/// The pages of a run of extents.
pub(crate) const fn pages_of(extents: Extent) -> Extent {
    Extent::new(
        extents.start * PAGES_PER_EXTENT,
        extents.len * PAGES_PER_EXTENT,
    )
}

/// The extents a non-empty run of pages touches.
const fn extents_touched(pages: Extent) -> Extent {
    let first = pages.start / PAGES_PER_EXTENT;
    let last = (pages.end() - 1) / PAGES_PER_EXTENT;
    Extent::new(first, last - first + 1)
}

/// The Global Allocation Map: which extents of the data file are unassigned.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Gam {
    /// Extent-granular free-space map; free means unassigned.
    map: RunIndexMap,
    /// Shared policy/next-fit-cursor implementation, in extent units.
    picker: FitPicker,
}

impl Gam {
    /// Creates a GAM over a data file of `total_extents` extents, all free,
    /// applying the native lowest-first policy.
    pub fn new(total_extents: u64) -> Self {
        Self::with_policy(total_extents, AllocationPolicy::Native)
    }

    /// Creates a GAM with an explicit allocation policy and unrestricted
    /// placement.
    pub fn with_policy(total_extents: u64, policy: AllocationPolicy) -> Self {
        Self::with_placement(total_extents, policy, PlacementPolicy::Unrestricted)
    }

    /// Creates a GAM with explicit allocation and placement policies.
    pub fn with_placement(
        total_extents: u64,
        policy: AllocationPolicy,
        placement: PlacementPolicy,
    ) -> Self {
        Gam {
            map: RunIndexMap::new_free(total_extents),
            picker: FitPicker::with_placement(policy, NATIVE_FIT, placement),
        }
    }

    /// Total extents in the data file.
    pub fn total_extents(&self) -> u64 {
        self.map.total_clusters()
    }

    /// Unassigned extents remaining.
    pub fn free_extent_count(&self) -> u64 {
        self.map.free_clusters()
    }

    /// The policy in effect.
    pub fn policy(&self) -> AllocationPolicy {
        self.picker.policy()
    }

    /// Read-only access to the extent-granular free-space map.
    pub fn free_space(&self) -> &RunIndexMap {
        &self.map
    }

    /// Assigns a specific extent if it is free.  Used to continue an object's
    /// layout into the physically next extent.
    pub fn assign_specific(&mut self, extent: ExtentId) -> bool {
        self.assign_run(Extent::new(extent.0, 1))
    }

    /// Assigns a run of consecutive extents if every one of them is free
    /// (all or nothing), leaving the policy's cursor where assigning them
    /// one by one, ascending, would.
    pub fn assign_run(&mut self, extents: Extent) -> bool {
        let taken = !extents.is_empty() && self.map.reserve(extents).is_ok();
        if taken {
            self.picker.advance(extents);
        }
        taken
    }

    /// The free extent the policy picks next (for the native policy: the
    /// lowest-numbered one, i.e. first fit at extent granularity), without
    /// assigning it.
    pub fn peek_next(&self) -> Option<ExtentId> {
        self.picker
            .pick(&self.map, 1)
            .map(|run| ExtentId(run.start))
    }

    /// Assigns the highest-numbered free extent.  Used for metadata pages so
    /// that the clustered index does not decluster the BLOB data it describes
    /// (the paper's out-of-row rationale, Section 4.2).
    pub fn assign_highest(&mut self) -> Option<ExtentId> {
        let run = self.map.last_run()?;
        let extent = ExtentId(run.end() - 1);
        let taken = self.map.reserve(Extent::new(extent.0, 1)).is_ok();
        debug_assert!(taken, "the last run's final extent must be reservable");
        Some(extent)
    }

    /// Returns an extent to the free pool.
    ///
    /// # Panics
    /// Panics if the extent is already free (double release is an engine bug).
    pub fn release(&mut self, extent: ExtentId) {
        self.release_run(Extent::new(extent.0, 1));
    }

    /// Returns a run of consecutive extents to the free pool.
    ///
    /// # Panics
    /// Panics if any of them is outside the data file or already free
    /// (double release is an engine bug).
    pub fn release_run(&mut self, extents: Extent) {
        assert!(
            extents.end() <= self.total_extents(),
            "extents {extents:?} outside the data file"
        );
        self.map
            .release(extents)
            .unwrap_or_else(|_| panic!("extents {extents:?} released twice"));
    }

    /// Returns runs of consecutive extents — ascending, disjoint — to the
    /// free pool in one merge ([`RunIndexMap::release_batch`]).
    ///
    /// # Panics
    /// As [`Gam::release_run`], naming the first offending run.
    pub(crate) fn release_runs(&mut self, runs: &[Extent]) {
        self.map
            .release_batch(runs.iter().copied(), None)
            .unwrap_or_else(|err| panic!("extents released twice or outside the data file: {err}"));
    }

    /// `true` if the extent is currently unassigned.
    pub fn is_free(&self, extent: ExtentId) -> bool {
        self.map.is_free(Extent::new(extent.0, 1))
    }
}

/// Which extents of the data file belong to one allocation unit: a dense
/// bitmap (one bit per extent) plus the population count.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct ExtentBitmap {
    words: Vec<u64>,
    count: u64,
}

impl ExtentBitmap {
    fn new(total_extents: u64) -> Self {
        ExtentBitmap {
            words: vec![0; total_extents.div_ceil(64) as usize],
            count: 0,
        }
    }

    /// `true` if the extent is in the set (`false` for any extent past the
    /// end of the data file).
    fn contains(&self, extent: u64) -> bool {
        self.words
            .get((extent / 64) as usize)
            .is_some_and(|word| (word >> (extent % 64)) & 1 == 1)
    }

    fn contains_all(&self, extents: Extent) -> bool {
        (extents.start..extents.end()).all(|extent| self.contains(extent))
    }

    /// Adds a run of extents, none of which is in the set.
    fn insert_run(&mut self, extents: Extent) {
        for extent in extents.start..extents.end() {
            debug_assert!(!self.contains(extent), "extent {extent} assigned twice");
            self.words[(extent / 64) as usize] |= 1 << (extent % 64);
        }
        self.count += extents.len;
    }

    /// Removes a run of extents, all of which are in the set.
    fn remove_run(&mut self, extents: Extent) {
        for extent in extents.start..extents.end() {
            debug_assert!(self.contains(extent), "extent {extent} was not assigned");
            self.words[(extent / 64) as usize] &= !(1 << (extent % 64));
        }
        self.count -= extents.len;
    }

    fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.words.iter().enumerate().flat_map(|(index, &word)| {
            (0..64)
                .filter(move |bit| (word >> bit) & 1 == 1)
                .map(move |bit| index as u64 * 64 + bit)
        })
    }
}

/// One allocation unit (e.g. the LOB_DATA unit of the object table).
///
/// The unit and the [`Gam`] it is used with must describe the same data
/// file (`total_pages` = the GAM's extents × [`PAGES_PER_EXTENT`], plus at
/// most a partial trailing extent nobody can assign).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AllocationUnit {
    kind: PageKind,
    /// Extents assigned to this unit (the IAM chain).
    extents: ExtentBitmap,
    /// Page-granular free-space map over the whole data file in which exactly
    /// the data-free pages of assigned extents are free; pages of unassigned
    /// extents count as allocated until the extent joins the unit.  No
    /// assigned extent is ever wholly free: the release that would empty it
    /// returns it to the GAM instead.
    map: RunIndexMap,
    /// Shared policy/next-fit-cursor implementation, in page units.
    picker: FitPicker,
}

impl AllocationUnit {
    /// Creates an empty allocation unit over a data file of `total_pages`
    /// pages, applying the native lowest-first policy.
    pub fn new(kind: PageKind, total_pages: u64) -> Self {
        Self::with_policy(kind, total_pages, AllocationPolicy::Native)
    }

    /// Creates an empty allocation unit with an explicit allocation policy
    /// and unrestricted placement.
    pub fn with_policy(kind: PageKind, total_pages: u64, policy: AllocationPolicy) -> Self {
        Self::with_placement(kind, total_pages, policy, PlacementPolicy::Unrestricted)
    }

    /// Creates an empty allocation unit with explicit allocation and
    /// placement policies.
    pub fn with_placement(
        kind: PageKind,
        total_pages: u64,
        policy: AllocationPolicy,
        placement: PlacementPolicy,
    ) -> Self {
        AllocationUnit {
            kind,
            extents: ExtentBitmap::new(total_pages / PAGES_PER_EXTENT),
            map: RunIndexMap::new_allocated(total_pages),
            // The page space overlays the GAM's extent space: aligning the
            // band boundary to whole extents keeps the two granularities in
            // exact agreement on where the maintenance band starts (rounding
            // the fraction independently per granularity could let the
            // foreground and maintenance bands overlap by a few pages).
            picker: FitPicker::with_placement(policy, NATIVE_FIT, placement)
                .with_band_granule(PAGES_PER_EXTENT),
        }
    }

    /// The page kind stored in this unit.
    pub fn kind(&self) -> PageKind {
        self.kind
    }

    /// Number of extents assigned to the unit.
    pub fn extent_count(&self) -> u64 {
        self.extents.count
    }

    /// Pages holding data.
    pub fn used_pages(&self) -> u64 {
        self.extent_count() * PAGES_PER_EXTENT - self.free_page_count()
    }

    /// Free pages inside assigned extents.
    pub fn free_page_count(&self) -> u64 {
        self.map.free_clusters()
    }

    /// Read-only access to the page-granular free-space map (free = data-free
    /// page inside an assigned extent).
    pub fn free_space(&self) -> &RunIndexMap {
        &self.map
    }

    /// Pages the caller could still allocate without growing the file:
    /// free pages in assigned extents plus every page of every unassigned
    /// extent in the GAM.
    pub fn available_pages(&self, gam: &Gam) -> u64 {
        self.free_page_count() + gam.free_extent_count() * PAGES_PER_EXTENT
    }

    fn out_of_space(&self, gam: &Gam, requested_pages: u64) -> DbError {
        DbError::OutOfSpace {
            requested_pages,
            free_pages: self.available_pages(gam),
        }
    }

    /// Allocates `count` pages for one object streamed into the store,
    /// appending them to `layout`; on error nothing is allocated or appended.
    ///
    /// Strategy (see module docs): keep extending the run this call took
    /// last — taking the free pages that follow it, or assigning the
    /// physically next extents when they are still unassigned — and when the
    /// run cannot be extended, start a new run at the policy-chosen free page
    /// in the file (natively: the lowest, first fit), assigning a fresh
    /// extent from the GAM only when the unit has no free page of its own.
    /// Pages already in `layout` are never continued from: every call is one
    /// write request's worth of streaming, which is how concurrent uploads
    /// come to interleave.
    pub fn allocate_pages(
        &mut self,
        gam: &mut Gam,
        count: u64,
        layout: &mut PageRuns,
    ) -> Result<(), DbError> {
        if count > self.available_pages(gam) {
            return Err(self.out_of_space(gam, count));
        }
        let mut remaining = count;
        let mut next: Option<PageId> = None;
        while remaining > 0 {
            let taken = next
                // 1. Try to continue the current run.  The take before came
                //    up short of what was asked, so the free run it drew
                //    from ended at `next`: that page is not free in the unit
                //    map, and probing the map for it would be a search that
                //    cannot hit.  What is left is an unassigned extent to
                //    grow into.
                .and_then(|page| self.adopt_and_take_at(gam, page, remaining))
                // 2. Start a new run.  Free pages inside already-assigned
                //    extents are consumed before any fresh extent is
                //    assigned (the engine does not waste partially used
                //    extents), at the policy-chosen position — natively the
                //    lowest page first; only when no such page exists is a
                //    policy-chosen unassigned extent taken from the GAM.
                //    This ordering is what seeds the paper's "constant-size
                //    objects still fragment" behaviour: the partially used
                //    extents left at object boundaries are soaked up by
                //    later allocations, which therefore start away from the
                //    extents that hold their bulk.
                .or_else(|| {
                    let start = self
                        .pick_page()
                        .or_else(|| gam.peek_next().map(ExtentId::first_page))?;
                    self.take_run_at(gam, start, remaining)
                })
                // `remaining <= available_pages()`, so the unit map or the
                // GAM holds a free run (their free counters match their runs
                // — `verify`), a one-page foreground pick always finds it
                // (foreground placement spills across bands), and a picked
                // position is free or adoptable by construction.
                .expect("free space counted by available_pages() is pickable");
            layout.push(taken);
            remaining -= taken.len;
            next = Some(PageId(taken.end()));
        }
        Ok(())
    }

    /// Allocates `count` pages from the high end of the file: free pages in
    /// assigned extents highest-first, then the highest unassigned extents.
    ///
    /// Used for the metadata table's clustered-index pages so that the small,
    /// cached metadata structures never interrupt the BLOB data laid out from
    /// the front of the file.
    pub fn allocate_pages_high(&mut self, gam: &mut Gam, count: u64) -> Result<PageRuns, DbError> {
        if count > self.available_pages(gam) {
            return Err(self.out_of_space(gam, count));
        }
        let mut layout = PageRuns::new();
        while layout.page_count() < count {
            if let Some(run) = self.map.last_run() {
                let page = Extent::new(run.end() - 1, 1);
                self.reserve_free(page);
                layout.push(page);
                continue;
            }
            // `count <= available_pages()` and the unit map is empty, so the
            // GAM has a free extent.
            let extent = gam
                .assign_highest()
                .expect("free space counted by available_pages() is assignable");
            self.adopt_run(Extent::new(extent.0, 1));
        }
        Ok(layout)
    }

    /// Allocates `count` pages greedily from the largest free runs (the
    /// unit's own free space and unassigned GAM extent runs, whichever is
    /// larger), minimizing the number of physical runs in the result.
    ///
    /// This is the engine compaction's best-effort mode: when no single run
    /// can hold a whole blob, the largest-first allocation still yields far
    /// fewer runs than the native lowest-first reuse, so an incremental
    /// compactor keeps making progress instead of stalling until cleanup
    /// happens to coalesce a big run.  Returns `None` — leaving all state
    /// untouched — only when the unit plus GAM cannot supply `count` pages
    /// at all.
    pub fn allocate_largest_runs(&mut self, gam: &mut Gam, count: u64) -> Option<PageRuns> {
        self.allocate_eligible_runs(gam, count, PlacementPolicy::Unrestricted, 0)
    }

    /// Allocates `count` pages for a **maintenance relocation** (the
    /// engine's incremental compactor) under the unit's placement policy.
    ///
    /// * [`PlacementPolicy::Unrestricted`] is exactly
    ///   [`AllocationUnit::allocate_largest_runs`] — the pre-placement
    ///   behaviour, bit-identical (the oracle tests pin this).
    /// * [`PlacementPolicy::Banded`] runs the same largest-first greedy loop
    ///   but only over runs inside the maintenance band, at both
    ///   granularities (unit pages and unassigned GAM extents).  It never
    ///   spills into the foreground band: when the band cannot supply
    ///   `count` pages the allocation is refused.
    /// * [`PlacementPolicy::Reserve`] considers only runs no longer than
    ///   `foreground_watermark_pages` (for GAM runs, in page terms), leaving
    ///   every larger run reserved for foreground writes.
    ///
    /// Returns `None` — rolling back any partial progress — when the
    /// placement-eligible runs cannot supply `count` pages.
    pub fn allocate_maintenance_runs(
        &mut self,
        gam: &mut Gam,
        count: u64,
        foreground_watermark_pages: u64,
    ) -> Option<PageRuns> {
        let placement = self.picker.placement();
        self.allocate_eligible_runs(gam, count, placement, foreground_watermark_pages)
    }

    /// The largest-first greedy loop behind both maintenance allocators:
    /// repeatedly takes the larger of the largest `placement`-eligible unit
    /// run and the largest eligible run of unassigned GAM extents.
    fn allocate_eligible_runs(
        &mut self,
        gam: &mut Gam,
        count: u64,
        placement: PlacementPolicy,
        foreground_watermark_pages: u64,
    ) -> Option<PageRuns> {
        if count > self.available_pages(gam) {
            return None;
        }
        let consumer = PlacementConsumer::Maintenance {
            foreground_watermark: foreground_watermark_pages,
        };
        let mut layout = PageRuns::new();
        while layout.page_count() < count {
            let remaining = count - layout.page_count();
            // The band boundary is aligned to whole extents so the page and
            // extent granularities agree on it.
            let unit_run = placement.largest_eligible(&self.map, consumer, PAGES_PER_EXTENT);
            let gam_run = Self::maintenance_gam_candidate(gam, placement, consumer);
            let gam_pages = gam_run.map_or(0, |run| run.len * PAGES_PER_EXTENT);
            let taken = match (unit_run, gam_run) {
                (Some(run), _) if run.len >= gam_pages => {
                    Extent::new(run.start, run.len.min(remaining))
                }
                (_, Some(run)) => {
                    let extents = remaining.div_ceil(PAGES_PER_EXTENT).min(run.len);
                    let adopted = Extent::new(run.start, extents);
                    let assigned = gam.assign_run(adopted);
                    debug_assert!(assigned, "extents of a free GAM run are assignable");
                    self.adopt_run(adopted);
                    Extent::new(
                        pages_of(adopted).start,
                        pages_of(adopted).len.min(remaining),
                    )
                }
                (_, None) => {
                    // The placement-eligible runs are exhausted (under the
                    // unrestricted placement `count <= available_pages()`
                    // rules this out): refuse rather than violate the
                    // placement, undoing any partial progress (frees restore
                    // both maps exactly — they are canonical).
                    self.free_runs(gam, layout.runs());
                    return None;
                }
            };
            self.reserve_free(taken);
            self.picker.advance(taken);
            layout.push(taken);
        }
        Some(layout)
    }

    /// The largest placement-eligible free run of unassigned GAM extents for
    /// a maintenance allocation, if any.  This is the one consumer that
    /// cannot use [`PlacementPolicy::largest_eligible`] verbatim: the
    /// watermark arrives in pages but GAM runs are measured in extents, so
    /// the `Reserve` cap must be converted — and a watermark below one
    /// extent admits no GAM run at all (rather than rounding up to one).
    fn maintenance_gam_candidate(
        gam: &Gam,
        placement: PlacementPolicy,
        consumer: PlacementConsumer,
    ) -> Option<Extent> {
        if let Some(cap_pages) = placement.run_cap(consumer) {
            // A GAM run of L extents is L × PAGES_PER_EXTENT contiguous
            // pages; it is eligible only if that stays within the watermark.
            let cap_extents = cap_pages / PAGES_PER_EXTENT;
            if cap_extents == 0 {
                return None;
            }
            return gam.free_space().largest_run_at_most(cap_extents);
        }
        placement.largest_eligible(gam.free_space(), consumer, 1)
    }

    /// The policy-chosen free page at which to start a new run, if the unit
    /// has any free page.
    fn pick_page(&self) -> Option<PageId> {
        self.picker.pick(&self.map, 1).map(|run| PageId(run.start))
    }

    /// Withdraws a run the unit map itself just reported free (a run
    /// returned by one of its queries, or part of one, with no release or
    /// reserve in between), so the reservation cannot fail.
    fn reserve_free(&mut self, run: Extent) {
        self.map
            .reserve(run)
            .expect("a run the map just reported free is reservable");
    }

    /// Registers freshly assigned extents with the unit, marking their pages
    /// free for data.
    fn adopt_run(&mut self, extents: Extent) {
        self.extents.insert_run(extents);
        // Unit-map free pages lie only inside the unit's own extents
        // (`verify`), and these were unassigned until now.
        self.map
            .release(pages_of(extents))
            .expect("pages of an unassigned extent are not free in the unit map");
    }

    /// Takes up to `max_len` contiguous free pages starting exactly at
    /// `page`.  When the page's extent is still unassigned, first adopts it
    /// from the GAM together with as many of the unassigned extents
    /// physically following it as `max_len` pages need — one GAM reservation
    /// and one page-map release however long the fresh tail is.  Returns the
    /// run taken, or `None` when the position is neither free nor adoptable.
    ///
    /// Taking `n` pages this way leaves the unit, GAM and both pickers in
    /// exactly the state `n` single-page takes of consecutive pages, each
    /// adopting its own extent, would.
    fn take_run_at(&mut self, gam: &mut Gam, page: PageId, max_len: u64) -> Option<Extent> {
        match self.map.take_at(page.0, max_len) {
            Some(taken) => {
                self.picker.advance(taken);
                Some(taken)
            }
            None => self.adopt_and_take_at(gam, page, max_len),
        }
    }

    /// [`AllocationUnit::take_run_at`] for a `page` known not to be free in
    /// the unit map: the take succeeds only by adopting the page's extent,
    /// so an extent the unit already owns (one bit) settles it.
    fn adopt_and_take_at(&mut self, gam: &mut Gam, page: PageId, max_len: u64) -> Option<Extent> {
        debug_assert!(
            !self.map.is_free(Extent::new(page.0, 1)),
            "{page} is free in the unit map"
        );
        let extent = page.extent();
        if self.extents.contains(extent.0) {
            return None;
        }
        let unassigned = gam.free_space().run_at(extent.0)?;
        let wanted = (page.slot_in_extent() + max_len).div_ceil(PAGES_PER_EXTENT);
        let adopted = Extent::new(extent.0, wanted.min(unassigned.end() - extent.0));
        let assigned = gam.assign_run(adopted);
        debug_assert!(assigned, "extents of a free GAM run are assignable");
        self.adopt_run(adopted);
        let taken = self
            .map
            .take_at(page.0, max_len)
            .expect("pages of a just-adopted extent are free");
        self.picker.advance(taken);
        Some(taken)
    }

    /// Frees one page, returning its extent to the GAM if the extent is now
    /// completely empty.
    pub fn free_page(&mut self, gam: &mut Gam, page: PageId) {
        self.free_run(gam, Extent::new(page.0, 1));
    }

    /// Frees a contiguous run of pages in one free-map release, returning
    /// the extents the run empties to the GAM as one span.
    ///
    /// The end state is identical to freeing the run's pages one
    /// [`AllocationUnit::free_page`] at a time, in any order: both free maps
    /// are canonical, and an extent goes back exactly when its last page is
    /// freed.
    ///
    /// # Panics
    /// Panics if any page of the run lies outside the unit's extents or is
    /// already free (double free is an engine bug).
    pub fn free_run(&mut self, gam: &mut Gam, run: Extent) {
        if run.is_empty() {
            return;
        }
        assert!(
            self.extents.contains_all(extents_touched(run)),
            "run {run:?} freed outside the unit's extents"
        );
        // No assigned extent was wholly free before this release (`verify`),
        // so the extents it emptied are exactly the whole extents inside the
        // coalesced free run now surrounding `run` — one aligned span.
        let around = self
            .map
            .release_coalesced(run)
            .unwrap_or_else(|_| panic!("run {run:?} freed twice"));
        let first_empty = around.start.div_ceil(PAGES_PER_EXTENT);
        let end_empty = around.end() / PAGES_PER_EXTENT;
        if end_empty > first_empty {
            let emptied = Extent::new(first_empty, end_empty - first_empty);
            self.reserve_free(pages_of(emptied));
            self.extents.remove_run(emptied);
            gam.release_run(emptied);
        }
    }

    /// Frees every run of a layout (see [`AllocationUnit::free_run`]).
    pub fn free_runs(&mut self, gam: &mut Gam, runs: &[Extent]) {
        for &run in runs {
            self.free_run(gam, run);
        }
    }

    /// Frees a batch of page runs — ascending by start, disjoint, possibly
    /// touching — as one merge into the page map, which cuts out every
    /// extent the batch empties as it goes; the emptied extents go to the
    /// GAM in sorted batches of at most `EMPTIED_BATCH` (256) spans through
    /// the same merge ([`RunIndexMap::release_batch`]), handed over while
    /// the unit's merge runs.
    ///
    /// The end state is identical to one [`AllocationUnit::free_run`] per
    /// run, in any order: both free maps are canonical, and the extents
    /// emptied are the whole extents of the coalesced runs that took in a
    /// freed page — the same set however the pages came back.
    ///
    /// # Panics
    /// As [`AllocationUnit::free_run`], for any run of the batch.
    pub fn free_sorted_runs<I>(&mut self, gam: &mut Gam, runs: I)
    where
        I: IntoIterator<Item = Extent>,
        I::IntoIter: Clone,
    {
        let runs = runs.into_iter();
        for run in runs.clone().filter(|run| !run.is_empty()) {
            assert!(
                self.extents.contains_all(extents_touched(run)),
                "run {run:?} freed outside the unit's extents"
            );
        }
        let mut emptied = Vec::with_capacity(EMPTIED_BATCH);
        let mut cut = |pages: Extent| {
            let extents = Extent::new(pages.start / PAGES_PER_EXTENT, pages.len / PAGES_PER_EXTENT);
            self.extents.remove_run(extents);
            emptied.push(extents);
            if emptied.len() == EMPTIED_BATCH {
                gam.release_runs(&emptied);
                emptied.clear();
            }
        };
        self.map
            .release_batch(runs, Some((PAGES_PER_EXTENT, &mut cut)))
            .unwrap_or_else(|err| panic!("runs freed twice: {err}"));
        gam.release_runs(&emptied);
    }

    /// The extents currently assigned to this unit, ascending.
    pub fn extents(&self) -> impl Iterator<Item = ExtentId> + '_ {
        self.extents.iter().map(ExtentId)
    }

    /// `true` if the extent is assigned to this unit.
    pub(crate) fn owns_extent(&self, extent: ExtentId) -> bool {
        self.extents.contains(extent.0)
    }

    /// `true` if every page of the (non-empty) run holds data: it lies inside
    /// the unit's extents and no page of it is free.
    pub(crate) fn holds_data(&self, run: Extent) -> bool {
        let first = PageId(run.start).extent().0;
        let last = PageId(run.end() - 1).extent().0;
        self.extents
            .contains_all(Extent::new(first, last - first + 1))
            && self.map.run_at(run.start).is_none()
            && self.map.runs_in(run.start, run.end()).is_empty()
    }

    /// Checks the unit's structural invariants against the GAM it is used
    /// with: the extent count matches the bitmap; the page map's own
    /// structure holds ([`RunIndexMap::verify`]); every free page of the
    /// unit map lies inside an assigned extent; no assigned extent is wholly
    /// free (it would belong to the GAM) or unassigned in the GAM.
    pub fn verify(&self, gam: &Gam) -> Result<(), String> {
        let kind = self.kind;
        let assigned = self.extents.iter().count() as u64;
        if assigned != self.extents.count {
            return Err(format!(
                "{kind:?} unit: extent count {} but {assigned} bits set",
                self.extents.count
            ));
        }
        self.map
            .verify()
            .map_err(|why| format!("{kind:?} unit: {why}"))?;
        for run in self.map.free_runs() {
            let first = PageId(run.start).extent().0;
            let last = PageId(run.end() - 1).extent().0;
            if !self
                .extents
                .contains_all(Extent::new(first, last - first + 1))
            {
                return Err(format!(
                    "{kind:?} unit: free run {run:?} outside the assigned extents"
                ));
            }
            if run.start.div_ceil(PAGES_PER_EXTENT) < run.end() / PAGES_PER_EXTENT {
                return Err(format!(
                    "{kind:?} unit: free run {run:?} covers a whole extent the GAM should hold"
                ));
            }
        }
        for extent in self.extents() {
            if gam.is_free(extent) {
                return Err(format!(
                    "{kind:?} unit: {extent} assigned but free in the GAM"
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TEST_PAGES: u64 = 100 * PAGES_PER_EXTENT;

    /// One streamed allocation as a layout of its own.
    fn allocate(unit: &mut AllocationUnit, gam: &mut Gam, count: u64) -> Result<PageRuns, DbError> {
        let mut layout = PageRuns::new();
        unit.allocate_pages(gam, count, &mut layout)?;
        Ok(layout)
    }

    fn pages(layout: &PageRuns) -> Vec<PageId> {
        layout.pages().collect()
    }

    /// Assigns the extent the policy picks next.
    fn assign_next(gam: &mut Gam) -> Option<ExtentId> {
        let extent = gam.peek_next()?;
        assert!(gam.assign_specific(extent), "a picked extent is free");
        Some(extent)
    }

    #[test]
    fn gam_assigns_lowest_first() {
        let mut gam = Gam::new(10);
        assert_eq!(gam.free_extent_count(), 10);
        assert_eq!(assign_next(&mut gam), Some(ExtentId(0)));
        assert_eq!(assign_next(&mut gam), Some(ExtentId(1)));
        gam.release(ExtentId(0));
        assert_eq!(
            assign_next(&mut gam),
            Some(ExtentId(0)),
            "freed extents are reused before the file grows"
        );
        assert!(gam.is_free(ExtentId(5)));
        assert!(!gam.is_free(ExtentId(1)));
        assert_eq!(gam.peek_next(), Some(ExtentId(2)));
        assert_eq!(gam.policy(), AllocationPolicy::Native);
    }

    #[test]
    fn gam_policies_choose_different_extents() {
        // Free runs of different lengths: assign everything then free
        // [2, 3) (length 1) and [5, 8) (length 3).
        let fragmented_gam = |policy| {
            let mut gam = Gam::with_policy(10, policy);
            for extent in 0..10 {
                assert!(gam.assign_specific(ExtentId(extent)));
            }
            gam.release(ExtentId(2));
            for extent in 5..8 {
                gam.release(ExtentId(extent));
            }
            gam
        };
        assert_eq!(
            fragmented_gam(AllocationPolicy::Fit(FitPolicy::FirstFit)).peek_next(),
            Some(ExtentId(2))
        );
        assert_eq!(
            fragmented_gam(AllocationPolicy::Fit(FitPolicy::BestFit)).peek_next(),
            Some(ExtentId(2)),
            "the snuggest hole is the single extent"
        );
        assert_eq!(
            fragmented_gam(AllocationPolicy::Fit(FitPolicy::WorstFit)).peek_next(),
            Some(ExtentId(5)),
            "the largest hole starts at extent 5"
        );
        let mut next_fit = fragmented_gam(AllocationPolicy::Fit(FitPolicy::NextFit));
        assert_eq!(assign_next(&mut next_fit), Some(ExtentId(2)));
        assert_eq!(
            assign_next(&mut next_fit),
            Some(ExtentId(5)),
            "the cursor moved past extent 2"
        );
    }

    #[test]
    fn gam_assign_specific() {
        let mut gam = Gam::new(10);
        assert!(gam.assign_specific(ExtentId(4)));
        assert!(!gam.assign_specific(ExtentId(4)), "already assigned");
        assert!(!gam.is_free(ExtentId(4)));
    }

    #[test]
    fn gam_runs_assign_all_or_nothing_and_move_the_cursor_to_their_end() {
        let mut gam = Gam::with_policy(10, AllocationPolicy::Fit(FitPolicy::NextFit));
        assert!(gam.assign_specific(ExtentId(4)));
        assert!(!gam.assign_run(Extent::new(2, 3)), "extent 4 is taken");
        assert_eq!(gam.free_extent_count(), 9, "nothing was assigned");
        assert!(!gam.assign_run(Extent::new(8, 3)), "past the data file");
        assert!(
            !gam.assign_run(Extent::new(2, 0)),
            "an empty run assigns nothing"
        );
        assert!(gam.assign_run(Extent::new(0, 3)));
        assert_eq!(gam.peek_next(), Some(ExtentId(3)), "next fit resumes at 3");
        gam.release_run(Extent::new(0, 3));
        assert_eq!(gam.free_extent_count(), 9);
    }

    #[test]
    #[should_panic(expected = "released twice")]
    fn gam_double_release_panics() {
        let mut gam = Gam::new(4);
        gam.release(ExtentId(0));
    }

    #[test]
    fn clean_file_allocations_are_contiguous() {
        let mut gam = Gam::new(100);
        let mut unit = AllocationUnit::new(PageKind::LobData, TEST_PAGES);
        let a = allocate(&mut unit, &mut gam, 20).unwrap();
        assert_eq!(a.page_count(), 20);
        assert_eq!(a.fragment_count(), 1);
        // The next object continues right after the previous one, sharing its
        // partially used extent.
        let b = allocate(&mut unit, &mut gam, 20).unwrap();
        assert_eq!(b.fragment_count(), 1);
        assert!(a.runs()[0].is_followed_by(&b.runs()[0]));
        assert_eq!(unit.used_pages(), 40);
        // 40 pages span extents 0..=4.
        assert_eq!(unit.extent_count(), 5);
    }

    #[test]
    fn freed_low_pages_are_reused_before_the_tail() {
        let mut gam = Gam::new(100);
        let mut unit = AllocationUnit::new(PageKind::LobData, TEST_PAGES);
        let a = allocate(&mut unit, &mut gam, 16).unwrap();
        let _b = allocate(&mut unit, &mut gam, 16).unwrap();
        // Delete `a`: its two extents return to the GAM.
        for page in a.pages() {
            unit.free_page(&mut gam, page);
        }
        // A new 8-page object lands in the freed low extent, not at the tail.
        let c = allocate(&mut unit, &mut gam, 8).unwrap();
        assert_eq!(c.runs(), [Extent::new(0, 8)]);
    }

    #[test]
    fn scattered_free_pages_fragment_new_objects() {
        let mut gam = Gam::new(100);
        let mut unit = AllocationUnit::new(PageKind::LobData, TEST_PAGES);
        let a = pages(&allocate(&mut unit, &mut gam, 64).unwrap());
        // Free every other 4-page group of `a`, leaving 4-page holes.
        for chunk in a.chunks(8).map(|c| &c[..4]) {
            for page in chunk {
                unit.free_page(&mut gam, *page);
            }
        }
        // A 16-page object must span at least four of those holes.
        let b = allocate(&mut unit, &mut gam, 16).unwrap();
        assert!(
            b.fragment_count() >= 4,
            "got {} fragments",
            b.fragment_count()
        );
        // And it fills the lowest holes first.
        assert_eq!(b.runs()[0], Extent::new(0, 4));
    }

    #[test]
    fn freeing_a_whole_extent_returns_it_to_the_gam() {
        let mut gam = Gam::new(10);
        let mut unit = AllocationUnit::new(PageKind::LobData, 10 * PAGES_PER_EXTENT);
        let layout = allocate(&mut unit, &mut gam, 8).unwrap();
        assert_eq!(unit.extent_count(), 1);
        let before = gam.free_extent_count();
        for page in layout.pages() {
            unit.free_page(&mut gam, page);
        }
        assert_eq!(unit.extent_count(), 0);
        assert_eq!(unit.used_pages(), 0);
        assert_eq!(gam.free_extent_count(), before + 1);
    }

    #[test]
    fn a_fresh_tail_is_adopted_in_one_step_up_to_the_next_assigned_extent() {
        let mut gam = Gam::new(100);
        let mut unit = AllocationUnit::new(PageKind::LobData, TEST_PAGES);
        // Someone else holds extent 2: the tail run stops there, and the
        // object continues in the next policy-chosen extent.
        assert!(gam.assign_specific(ExtentId(2)));
        let layout = allocate(&mut unit, &mut gam, 20).unwrap();
        assert_eq!(layout.runs(), [Extent::new(0, 16), Extent::new(24, 4)]);
        assert_eq!(
            unit.extents().collect::<Vec<_>>(),
            [ExtentId(0), ExtentId(1), ExtentId(3)]
        );
        assert_eq!(unit.free_space().free_runs(), [Extent::new(28, 4)]);
        assert_eq!(gam.free_space().free_runs(), [Extent::new(4, 96)]);
        assert_eq!(unit.verify(&gam), Ok(()));
        // Exactly as many extents as the pages need, never one more.
        let more = allocate(&mut unit, &mut gam, 4 + 3 * PAGES_PER_EXTENT).unwrap();
        assert_eq!(more.runs(), [Extent::new(28, 28)]);
        assert_eq!(unit.extent_count(), 6);
        assert_eq!(unit.free_page_count(), 0);
    }

    #[test]
    fn a_release_returns_every_extent_it_empties_as_one_span() {
        let mut gam = Gam::new(10);
        let mut unit = AllocationUnit::new(PageKind::LobData, 10 * PAGES_PER_EXTENT);
        allocate(&mut unit, &mut gam, 40).unwrap();
        // Pages 4..36 cover extents 1-3 wholly and extents 0 and 4 in part.
        unit.free_run(&mut gam, Extent::new(4, 32));
        assert_eq!(
            unit.extents().collect::<Vec<_>>(),
            [ExtentId(0), ExtentId(4)]
        );
        assert_eq!(
            unit.free_space().free_runs(),
            [Extent::new(4, 4), Extent::new(32, 4)]
        );
        assert_eq!(
            gam.free_space().free_runs(),
            [Extent::new(1, 3), Extent::new(5, 5)]
        );
        assert_eq!(unit.verify(&gam), Ok(()));
        // Freeing the rest of extent 0 joins it to the span already returned.
        unit.free_run(&mut gam, Extent::new(0, 4));
        assert_eq!(
            gam.free_space().free_runs(),
            [Extent::new(0, 4), Extent::new(5, 5)]
        );
        assert_eq!(unit.free_space().free_runs(), [Extent::new(32, 4)]);
    }

    #[test]
    #[should_panic(expected = "outside the unit's extents")]
    fn freeing_pages_of_a_returned_extent_panics() {
        let mut gam = Gam::new(4);
        let mut unit = AllocationUnit::new(PageKind::LobData, 4 * PAGES_PER_EXTENT);
        allocate(&mut unit, &mut gam, 8).unwrap();
        unit.free_run(&mut gam, Extent::new(0, 8));
        unit.free_page(&mut gam, PageId(3));
    }

    #[test]
    fn partially_freed_extents_stay_with_the_unit() {
        let mut gam = Gam::new(10);
        let mut unit = AllocationUnit::new(PageKind::LobData, 10 * PAGES_PER_EXTENT);
        let first = allocate(&mut unit, &mut gam, 8).unwrap().runs()[0];
        unit.free_page(&mut gam, PageId(first.start));
        assert_eq!(unit.extent_count(), 1);
        assert_eq!(unit.free_page_count(), 1);
        // The freed page is reused before any new extent is assigned.
        let next = allocate(&mut unit, &mut gam, 1).unwrap();
        assert_eq!(next.runs(), [Extent::new(first.start, 1)]);
    }

    #[test]
    fn out_of_space_is_detected() {
        let mut gam = Gam::new(2); // 16 pages total
        let mut unit = AllocationUnit::new(PageKind::LobData, 2 * PAGES_PER_EXTENT);
        assert!(allocate(&mut unit, &mut gam, 17).is_err());
        let layout = allocate(&mut unit, &mut gam, 10).unwrap();
        assert_eq!(layout.page_count(), 10);
        let err = allocate(&mut unit, &mut gam, 7).unwrap_err();
        assert!(matches!(
            err,
            DbError::OutOfSpace {
                requested_pages: 7,
                free_pages: 6
            }
        ));
        // The failed allocation must not have leaked anything.
        assert_eq!(unit.used_pages(), 10);
        assert_eq!(unit.available_pages(&gam), 6);
    }

    #[test]
    #[should_panic(expected = "freed twice")]
    fn double_free_panics() {
        let mut gam = Gam::new(2);
        let mut unit = AllocationUnit::new(PageKind::LobData, 2 * PAGES_PER_EXTENT);
        let first = allocate(&mut unit, &mut gam, 4).unwrap().runs()[0].start;
        unit.free_page(&mut gam, PageId(first));
        unit.free_page(&mut gam, PageId(first));
    }

    #[test]
    fn zero_page_allocations_are_empty() {
        let mut gam = Gam::new(2);
        let mut unit = AllocationUnit::new(PageKind::RowData, 2 * PAGES_PER_EXTENT);
        assert!(allocate(&mut unit, &mut gam, 0).unwrap().is_empty());
        assert_eq!(unit.kind(), PageKind::RowData);
        assert_eq!(unit.extents().count(), 0);
    }

    #[test]
    fn best_fit_starts_new_runs_in_the_snuggest_hole() {
        let mut gam = Gam::with_policy(100, AllocationPolicy::Fit(FitPolicy::BestFit));
        let mut unit = AllocationUnit::with_policy(
            PageKind::LobData,
            TEST_PAGES,
            AllocationPolicy::Fit(FitPolicy::BestFit),
        );
        let a = pages(&allocate(&mut unit, &mut gam, 32).unwrap());
        // Carve two holes: a 1-page hole at page 5 and a 3-page hole at 16..19.
        unit.free_page(&mut gam, a[5]);
        for page in &a[16..19] {
            unit.free_page(&mut gam, *page);
        }
        // A 1-page object goes to the snuggest hole (page 5), not the lowest
        // eligible position of first fit.
        let b = allocate(&mut unit, &mut gam, 1).unwrap();
        assert_eq!(pages(&b), vec![PageId(5)]);
    }

    #[test]
    fn allocate_largest_runs_is_contiguous_when_a_run_fits() {
        let mut gam = Gam::new(100);
        let mut unit = AllocationUnit::new(PageKind::LobData, TEST_PAGES);
        let a = pages(&allocate(&mut unit, &mut gam, 16).unwrap());
        // Free a 6-page hole inside the unit's extents.
        for page in &a[4..10] {
            unit.free_page(&mut gam, *page);
        }
        // The GAM's unassigned tail (98 extents) dwarfs the 6-page hole, so a
        // 4-page request lands contiguously in fresh extents...
        let from_gam = unit.allocate_largest_runs(&mut gam, 4).unwrap();
        assert_eq!(
            from_gam.runs(),
            [Extent::new(ExtentId(2).first_page().0, 4)]
        );
        // ...and a 20-page one is a single run of consecutive fresh extents.
        let bigger = unit.allocate_largest_runs(&mut gam, 20).unwrap();
        assert_eq!(bigger.fragment_count(), 1);
        assert_eq!(bigger.page_count(), 20);
        assert!(unit.allocate_largest_runs(&mut gam, 0).unwrap().is_empty());
    }

    #[test]
    fn allocate_largest_runs_falls_back_to_several_runs() {
        let mut gam = Gam::new(2); // 16 pages
        let mut unit = AllocationUnit::new(PageKind::LobData, 2 * PAGES_PER_EXTENT);
        let pages = pages(&allocate(&mut unit, &mut gam, 16).unwrap());
        // Free pages in two separated runs of 3 and 2.
        unit.free_run(&mut gam, Extent::new(pages[2].0, 3));
        unit.free_run(&mut gam, Extent::new(pages[8].0, 2));
        // No single 5-page run exists anywhere; the largest-first fallback
        // uses exactly the two runs, biggest first.
        let scattered = unit.allocate_largest_runs(&mut gam, 5).unwrap();
        assert_eq!(
            scattered.runs(),
            [Extent::new(pages[2].0, 3), Extent::new(pages[8].0, 2)],
            "the 3-page run is taken first"
        );
        // More than the free pool refuses cleanly.
        assert!(unit.allocate_largest_runs(&mut gam, 1).is_none());
    }

    fn banded_pair(total_extents: u64, boundary: f64) -> (Gam, AllocationUnit) {
        let placement = PlacementPolicy::banded(boundary);
        (
            Gam::with_placement(total_extents, AllocationPolicy::Native, placement),
            AllocationUnit::with_placement(
                PageKind::LobData,
                total_extents * PAGES_PER_EXTENT,
                AllocationPolicy::Native,
                placement,
            ),
        )
    }

    #[test]
    fn maintenance_runs_come_from_the_maintenance_band() {
        let (mut gam, mut unit) = banded_pair(100, 0.6);
        let boundary_page = 60 * PAGES_PER_EXTENT;
        // Foreground allocations fill from the front as before...
        let foreground = allocate(&mut unit, &mut gam, 16).unwrap();
        assert_eq!(foreground.runs(), [Extent::new(0, 16)]);
        // ...while maintenance relocations land beyond the boundary.
        let moved = unit.allocate_maintenance_runs(&mut gam, 16, 0).unwrap();
        assert!(
            moved.runs().iter().all(|run| run.start >= boundary_page),
            "maintenance pages {moved:?} must sit at or above page {boundary_page}"
        );
        assert_eq!(moved.fragment_count(), 1);
    }

    #[test]
    fn banded_maintenance_refuses_at_full_band_occupancy_and_rolls_back() {
        let (mut gam, mut unit) = banded_pair(100, 0.6);
        // Occupy the entire maintenance band (100% band occupancy): every
        // high extent is assigned away.
        for extent in 60..100 {
            assert!(gam.assign_specific(ExtentId(extent)));
        }
        let free_before = gam.free_extent_count();
        let used_before = unit.used_pages();
        // Plenty of low-band space exists, but maintenance may not touch it.
        assert_eq!(unit.allocate_maintenance_runs(&mut gam, 8, 0), None);
        assert_eq!(gam.free_extent_count(), free_before, "no partial progress");
        assert_eq!(unit.used_pages(), used_before);
        // A band with *some* space still refuses (and rolls back) when the
        // request exceeds it.
        gam.release(ExtentId(60));
        assert_eq!(
            unit.allocate_maintenance_runs(&mut gam, 2 * PAGES_PER_EXTENT, 0),
            None,
            "one free high extent cannot hold two extents' worth"
        );
        assert_eq!(gam.free_extent_count(), free_before + 1);
        assert_eq!(unit.used_pages(), used_before);
        assert_eq!(unit.extent_count(), 0, "adopted extents were returned");
        // The partial band still serves requests it can hold.
        let fits = unit
            .allocate_maintenance_runs(&mut gam, PAGES_PER_EXTENT, 0)
            .unwrap();
        assert_eq!(fits.pages().next(), Some(ExtentId(60).first_page()));
    }

    #[test]
    fn foreground_band_boundary_is_extent_aligned() {
        // 100 extents / 800 pages at boundary 0.603: raw page-granular
        // rounding would end the foreground band at page 482, but the
        // extent-granular boundary is extent 60 = page 480.  The page space
        // must use the extent-aligned boundary, or the two consumers' bands
        // would overlap on pages [480, 482): here a best-fit *foreground*
        // pick must treat the snug 1-page hole at 480 as maintenance
        // territory and place in its own band instead.
        let placement = PlacementPolicy::banded(0.603);
        let policy = AllocationPolicy::Fit(FitPolicy::BestFit);
        let mut gam = Gam::with_placement(100, policy, placement);
        let mut unit =
            AllocationUnit::with_placement(PageKind::LobData, TEST_PAGES, policy, placement);
        let all = allocate(&mut unit, &mut gam, 800).unwrap();
        assert_eq!(all.runs(), [Extent::new(0, 800)]);
        unit.free_page(&mut gam, PageId(480));
        unit.free_page(&mut gam, PageId(100));
        unit.free_page(&mut gam, PageId(101));
        let pick = allocate(&mut unit, &mut gam, 1).unwrap();
        assert_eq!(
            pages(&pick),
            vec![PageId(100)],
            "page 480 sits in the maintenance band under the aligned boundary"
        );
        // The maintenance side agrees: its candidate is exactly the hole at
        // the aligned boundary.
        let moved = unit.allocate_maintenance_runs(&mut gam, 1, 0).unwrap();
        assert_eq!(pages(&moved), vec![PageId(480)]);
    }

    #[test]
    fn reserve_maintenance_refuses_runs_above_the_watermark() {
        let placement = PlacementPolicy::Reserve;
        let mut gam = Gam::with_placement(100, AllocationPolicy::Native, placement);
        let mut unit = AllocationUnit::with_placement(
            PageKind::LobData,
            TEST_PAGES,
            AllocationPolicy::Native,
            placement,
        );
        // The whole file is one 100-extent run; watermark 4 extents' worth
        // of pages means no GAM run is eligible at all.
        assert_eq!(
            unit.allocate_maintenance_runs(&mut gam, 8, 4 * PAGES_PER_EXTENT),
            None,
            "a 100-extent run exceeds the watermark and must be refused"
        );
        assert_eq!(gam.free_extent_count(), 100);
        // Carve an eligible 3-extent run: [10, 13) free between assignments.
        for extent in (0..10).chain(13..100) {
            assert!(gam.assign_specific(ExtentId(extent)));
        }
        let pages = unit
            .allocate_maintenance_runs(&mut gam, 8, 4 * PAGES_PER_EXTENT)
            .unwrap();
        assert_eq!(pages.pages().next(), Some(ExtentId(10).first_page()));
        // A watermark below one extent admits no GAM run.
        assert_eq!(
            unit.allocate_maintenance_runs(&mut gam, 8, PAGES_PER_EXTENT - 1),
            None
        );
    }

    #[test]
    fn unrestricted_maintenance_is_exactly_allocate_largest_runs() {
        let mut gam_a = Gam::new(20);
        let mut unit_a = AllocationUnit::new(PageKind::LobData, 20 * PAGES_PER_EXTENT);
        let mut gam_b = gam_a.clone();
        let mut unit_b = unit_a.clone();
        let seed_a = allocate(&mut unit_a, &mut gam_a, 30).unwrap();
        let seed_b = allocate(&mut unit_b, &mut gam_b, 30).unwrap();
        assert_eq!(seed_a, seed_b);
        for page in seed_a.pages().skip(4).step_by(3) {
            unit_a.free_page(&mut gam_a, page);
            unit_b.free_page(&mut gam_b, page);
        }
        let via_maintenance = unit_a.allocate_maintenance_runs(&mut gam_a, 12, 7);
        let via_largest = unit_b.allocate_largest_runs(&mut gam_b, 12);
        assert_eq!(via_maintenance, via_largest);
        assert_eq!(gam_a.free_extent_count(), gam_b.free_extent_count());
    }

    #[test]
    fn allocate_pages_high_takes_the_tail_of_the_file() {
        let mut gam = Gam::new(10);
        let mut unit = AllocationUnit::new(PageKind::RowData, 10 * PAGES_PER_EXTENT);
        let pages = unit.allocate_pages_high(&mut gam, 3).unwrap();
        let last = 10 * PAGES_PER_EXTENT - 1;
        assert_eq!(
            pages.pages().collect::<Vec<_>>(),
            vec![PageId(last), PageId(last - 1), PageId(last - 2)]
        );
        assert_eq!(unit.extent_count(), 1);
        assert!(!gam.is_free(ExtentId(9)));
    }
}
