//! Free-space bookkeeping.
//!
//! Two implementations of the same [`FreeSpace`] interface are provided:
//!
//! * [`RunIndexMap`] — the production structure, described below.  Memory is
//!   proportional to the number of free runs, i.e. to fragmentation, not to
//!   volume size, so 400 GB volumes are cheap to model.
//! * [`BitmapMap`] — a straightforward cluster bitmap used for small volumes
//!   and, above all, as an oracle in property tests that cross-validate the
//!   run-indexed structure.
//!
//! ## `RunIndexMap`: one offset-ordered run list with a max-size summary
//!
//! Every substrate allocates and frees through this map, and an aged store
//! asks it a dozen questions per replaced object, so its shape is the host
//! cost of the allocation layer.  There is **one** ordered structure:
//!
//! * the free runs, ascending by start, in contiguous **blocks** of at most
//!   `BLOCK_CAP` (64) runs — a full block splits in half on the next insert
//!   (a B-tree leaf's "insert sorted, split when full"), and neighbouring
//!   blocks merge when they hold at most half a block between them, so
//!   however the runs come and go **any two neighbouring blocks hold more
//!   than `BLOCK_CAP / 2` runs** and the list has fewer than `4 × runs /
//!   BLOCK_CAP + 2` blocks;
//! * an array of each block's first offset, so a position is two binary
//!   searches (blocks, then runs in the block) — or none, for a position in
//!   the first run or the gap after it, which is where first fit's pick and
//!   the take that follows it land;
//! * a **tournament tree** over each block's largest `(len, start)` — the
//!   only size summary.
//!
//! A position query (`run_at`, `reserve`, `release`, `first_fit` from a
//! cursor) never touches the summary's interior.  The three edits an ordered
//! *set* can only express as remove-and-reinsert — carving a prefix, carving
//! a suffix, growing into a freed neighbour — change a run's key but not its
//! place, so each is one located write, plus a walk up the summary only when
//! the block's maximum moved.  `largest()` is the summary's root; `first_fit`
//! scans the rest of one block and lets the summary name the next block that
//! holds a run long enough; `run_lens_desc` yields the root as its first
//! length and walks the summary best-first only when asked for a second,
//! paying per run yielded from then on — a compaction planner whose profile
//! one run of either map covers never builds the walk's heap.
//! `best_fit` and `largest_run_at_most` are scans, which only the best-fit
//! and `Reserve`-placement ablations pay.
//!
//! A single-run release ([`RunIndexMap::release_coalesced`]; the trait's
//! `release` is the same call) is one located edit too.  The one search
//! that checks the freed extent finds the runs it touches; the coalesced run
//! is computed from them, and what stays free of it is written over those
//! runs in place.  Given a granule, the release also withdraws the
//! coalesced run's whole granule-aligned span and returns it, writing only
//! the head and tail pieces either side of it — how an allocation unit
//! hands the extents a free empties back to the GAM without a second search
//! to cut them out (the single-run twin of the batched release's withdraw,
//! below).
//!
//! Many frees at once — a BLOB engine's full ghost-cleanup pass hands back
//! thousands of runs — are one **batched release**
//! ([`RunIndexMap::release_batch`]) rather than one located release each:
//! the sorted batch is checked in one forward walk and merged with the run
//! list in one streaming pass, blocks it does not reach are moved into the
//! new list untouched, blocks it does reach are rebuilt in their own
//! buffers, and `firsts` and the summary are rebuilt once.  For `k` runs the
//! cost is O(k + touched blocks × `BLOCK_CAP` + blocks), never O(runs).  The
//! release can also withdraw the whole aligned spans of every coalesced run
//! it grew, which is how an allocation unit cuts out the extents a batch
//! empties without a second pass.
//!
//! Which block holds which run depends on the order of past operations;
//! every query's answer — tie-breaks included — depends on the free set
//! alone.  The two-B-tree map this replaced survives as the test-only
//! reference model in `tests/reference/`, compared query by query in
//! `tests/differential.rs`; [`RunIndexMap::verify`] recomputes everything
//! the structure caches.
//!
//! `BLOCK_CAP` was chosen by measurement (EXPERIMENTS.md, "Host cost of the
//! free-space index"): 32 cost 7–9 % of `ops_per_s` on the workloads whose
//! maps hold tens of thousands of runs, 128 read the same as 64.  Blocks
//! grow on demand rather than reserving their capacity up front, since most
//! maps hold far fewer than 64 runs.

use std::collections::BinaryHeap;

use crate::error::AllocError;
use crate::extent::Extent;

/// Interface shared by free-space structures.
///
/// A free-space map knows which clusters are free; it does not choose where to
/// allocate — that is the policy's job (see [`crate::FitPolicy`]).
pub trait FreeSpace {
    /// Total clusters managed by the map.
    fn total_clusters(&self) -> u64;
    /// Clusters currently free.
    fn free_clusters(&self) -> u64;
    /// Marks a range free.  Fails if any part is already free or out of
    /// bounds.
    fn release(&mut self, extent: Extent) -> Result<(), AllocError>;
    /// Marks a specific range allocated.  Fails unless the entire range is
    /// currently free.
    fn reserve(&mut self, extent: Extent) -> Result<(), AllocError>;
    /// `true` if the entire range is currently free.
    fn is_free(&self, extent: Extent) -> bool;
    /// All free runs in ascending offset order, maximally coalesced.
    fn free_runs(&self) -> Vec<Extent>;

    /// Clusters currently allocated.
    fn allocated_clusters(&self) -> u64 {
        self.total_clusters() - self.free_clusters()
    }

    /// Length of the largest free run (0 when nothing is free).
    fn largest_free_run(&self) -> u64 {
        self.free_runs().iter().map(|e| e.len).max().unwrap_or(0)
    }
}

/// Most runs one block holds; a full block splits in half on the next
/// insert.  The module docs say what the neighbouring sizes measured.
const BLOCK_CAP: usize = 64;

/// Neighbouring blocks holding at most this many runs between them merge.
/// Half a block, so a fresh merge is as far from the next split as a fresh
/// split is from the next merge.
const MERGE_AT: usize = BLOCK_CAP / 2;

/// A run as the size summary orders it: `(len, start)`.
type SizeKey = (u64, u64);

/// The summary entry of a block that does not exist (every run is longer).
const NO_RUN: SizeKey = (0, 0);

fn size_key(run: Extent) -> SizeKey {
    (run.len, run.start)
}

fn run_of((len, start): SizeKey) -> Option<Extent> {
    (len > 0).then(|| Extent::new(start, len))
}

/// The whole `granule`-aligned span of `run`, if it holds one.
fn aligned_span(run: Extent, granule: u64) -> Option<Extent> {
    // A run shorter than a granule holds no whole one: most freed runs,
    // spared two divisions each.
    if run.len < granule {
        return None;
    }
    let start = run.start.div_ceil(granule) * granule;
    let end = run.end() / granule * granule;
    (start < end).then(|| Extent::new(start, end - start))
}

fn block_max(block: &[Extent]) -> SizeKey {
    block.iter().copied().map(size_key).max().unwrap_or(NO_RUN)
}

/// Where a run sits: `(block, index in the block)`.
type Position = (usize, usize);

/// Free runs in one offset-ordered blocked list, with a max-size summary
/// (see the module docs).
#[derive(Debug, Clone)]
pub struct RunIndexMap {
    total: u64,
    free: u64,
    /// Number of free runs (Σ block lengths).
    runs: usize,
    /// Every free run, ascending by start across and within the blocks;
    /// runs never touch (always coalesced).  Blocks are non-empty, hold at
    /// most [`BLOCK_CAP`] runs, and any two neighbours more than
    /// [`MERGE_AT`] between them.
    blocks: Vec<Vec<Extent>>,
    /// `firsts[b]` is the start of `blocks[b][0]`.
    firsts: Vec<u64>,
    /// Tournament tree over the blocks' largest `(len, start)`: `2 × leaves`
    /// entries (`leaves` the block count rounded up to a power of two, at
    /// least one), the root at 1, the children of `n` at `2n` and `2n + 1`,
    /// block `b` at `leaves + b`, [`NO_RUN`] where there is no block.
    summary: Vec<SizeKey>,
}

impl Default for RunIndexMap {
    /// A map over no clusters at all (the summary is never empty, so this
    /// cannot be derived).
    fn default() -> Self {
        Self::new_allocated(0)
    }
}

impl RunIndexMap {
    /// Creates a map in which every cluster is free.
    pub fn new_free(total_clusters: u64) -> Self {
        let mut map = Self::new_allocated(total_clusters);
        if total_clusters > 0 {
            map.insert_run((0, 0), Extent::new(0, total_clusters));
            map.free = total_clusters;
        }
        map
    }

    /// Creates a map in which every cluster is allocated.
    pub fn new_allocated(total_clusters: u64) -> Self {
        RunIndexMap {
            total: total_clusters,
            free: 0,
            runs: 0,
            blocks: Vec::new(),
            firsts: Vec::new(),
            summary: vec![NO_RUN; 2],
        }
    }

    /// Number of free runs currently tracked.
    pub fn run_count(&self) -> usize {
        self.runs
    }

    /// The smallest free run of at least `len` clusters; ties broken by the
    /// lowest start offset.  A scan of every block that holds a run long
    /// enough — only the best-fit ablation asks.
    pub fn best_fit(&self, len: u64) -> Option<Extent> {
        let mut best: Option<Extent> = None;
        for (block, max) in self.blocks.iter().zip(self.leaves()) {
            if max.0 < len {
                continue;
            }
            for &run in block.iter().filter(|run| run.len >= len) {
                if run.len == len {
                    // Ascending by start: nothing later can be snugger.
                    return Some(run);
                }
                if best.is_none_or(|best| size_key(run) < size_key(best)) {
                    best = Some(run);
                }
            }
        }
        best
    }

    /// The lowest-offset free run of at least `len` clusters whose start is at
    /// or after `from`.
    pub fn first_fit(&self, len: u64, from: u64) -> Option<Extent> {
        self.first_fit_starting_in(len, from, u64::MAX)
    }

    /// The lowest-offset free run of at least `len` clusters whose start lies
    /// in `[from, to)`.  The run is not clipped: it may extend past `to`.
    ///
    /// The rest of `from`'s block is scanned; after it the summary names the
    /// next block holding a run long enough, so the walk costs O(log n +
    /// block) however few runs fit, and never looks at a block at or past
    /// `to`.
    pub fn first_fit_starting_in(&self, len: u64, from: u64, to: u64) -> Option<Extent> {
        // Every run holds a cluster; asking for one keeps the summary's
        // `NO_RUN` entries from matching.
        let len = len.max(1);
        let fits = |run: &&Extent| run.len >= len;
        let (b, i) = self.lower_bound(from);
        let in_first = self
            .blocks
            .get(b)
            .filter(|_| self.summary[self.leaf(b)].0 >= len)
            .and_then(|block| block[i..].iter().find(fits));
        let run = match in_first {
            Some(run) => run,
            None => {
                let next = self.next_block_fitting(len, b + 1)?;
                if self.firsts[next] >= to {
                    return None;
                }
                // The summary says this block holds such a run.
                self.blocks[next].iter().find(fits)?
            }
        };
        (run.start < to).then_some(*run)
    }

    /// Lengths of every free run, largest first.
    ///
    /// This is the read-only view a largest-first allocation *planner* needs:
    /// since taking one run never changes any other run's length, the number
    /// of runs a largest-first allocator would consume for `n` clusters is
    /// exactly the shortest prefix of this sequence summing to at least `n` —
    /// computable without touching the map.
    ///
    /// The first length is the summary's root, O(1); only a second one
    /// starts a best-first walk of the summary, each further length costing
    /// O(log n + block), so a planner that stops after `k` runs pays for
    /// `k`, not for the map — and one that stops after the first, nothing.
    pub fn run_lens_desc(&self) -> impl Iterator<Item = u64> + '_ {
        RunLensDesc {
            map: self,
            root_yielded: false,
            frontier: None,
        }
    }

    /// The largest free run; ties broken by the highest start offset (which is
    /// irrelevant to callers — they only need *a* largest run).  O(1): the
    /// root of the summary.
    pub fn largest(&self) -> Option<Extent> {
        run_of(self.summary[1])
    }

    /// The highest-offset free run.  Used for allocations that grow from the
    /// back of the space (e.g. metadata pages kept away from object data).
    pub fn last_run(&self) -> Option<Extent> {
        self.blocks.last().and_then(|block| block.last()).copied()
    }

    /// The free run containing or starting at `cluster`, if `cluster` is free.
    pub fn run_at(&self, cluster: u64) -> Option<Extent> {
        self.predecessor(cluster)
            .map(|at| self.run(at))
            .filter(|run| run.contains(cluster))
    }

    /// Free runs whose start lies in `[from, to)`, ascending by offset.
    pub fn runs_in(&self, from: u64, to: u64) -> Vec<Extent> {
        self.runs_from(self.lower_bound(from))
            .take_while(|run| run.start < to)
            .collect()
    }

    /// Free runs **clipped** to the band `[lo, hi)`, ascending by offset: a
    /// run straddling a band edge contributes exactly the portion inside the
    /// band.  This is the primitive behind the band-filtered placement
    /// queries — a clipped run is always reservable, so a placement-aware
    /// consumer can take the in-band part of a straddling run without
    /// touching the part that belongs to the other band.
    fn clipped_runs(&self, lo: u64, hi: u64) -> impl Iterator<Item = Extent> + '_ {
        // The run before `lo` may reach into the band; one that does not is
        // clipped to nothing.
        self.runs_from(self.predecessor(lo).unwrap_or((0, 0)))
            .take_while(move |run| run.start < hi)
            .filter_map(move |run| {
                let start = run.start.max(lo);
                let end = run.end().min(hi);
                (end > start).then(|| Extent::new(start, end - start))
            })
    }

    /// The lowest-offset free run of at least `len` clusters inside the band
    /// `[lo, hi)` (runs clipped to the band).
    pub fn first_fit_in(&self, len: u64, lo: u64, hi: u64) -> Option<Extent> {
        self.clipped_runs(lo, hi).find(|run| run.len >= len)
    }

    /// The smallest free run of at least `len` clusters inside the band
    /// `[lo, hi)`; ties broken by the lowest start offset.
    pub fn best_fit_in(&self, len: u64, lo: u64, hi: u64) -> Option<Extent> {
        self.clipped_runs(lo, hi)
            .filter(|run| run.len >= len)
            .min_by_key(|&run| size_key(run))
    }

    /// The largest free run inside the band `[lo, hi)` (runs clipped to the
    /// band); ties broken by the highest start offset, matching
    /// [`RunIndexMap::largest`].
    pub fn largest_run_in(&self, lo: u64, hi: u64) -> Option<Extent> {
        self.clipped_runs(lo, hi).max_by_key(|&run| size_key(run))
    }

    /// The largest free run of at most `max_len` clusters — the query behind
    /// the `Reserve` placement variant, under which maintenance must leave
    /// every run longer than the foreground watermark untouched.  Runs are
    /// *not* clipped: a long run is reserved in its entirety, not nibbled
    /// down to the cap.  Ties broken by the highest start offset.  A scan of
    /// every run unless the largest one is already within the cap.
    pub fn largest_run_at_most(&self, max_len: u64) -> Option<Extent> {
        if self.summary[1].0 <= max_len {
            return self.largest();
        }
        self.runs_from((0, 0))
            .filter(|run| run.len <= max_len)
            .max_by_key(|&run| size_key(run))
    }

    /// Frees `extent`, coalescing it with whichever neighbours it touches.
    /// Given a (non-zero) `granule`, the whole `granule`-aligned span of the
    /// coalesced run is withdrawn again and returned — how a caller that
    /// hands whole granules back elsewhere (an allocation unit returning the
    /// extents a free emptied) learns what to hand back.  `None` when no
    /// granule was given, when the coalesced run holds no whole granule, and
    /// for an empty extent, which frees nothing.  Fails, changing nothing,
    /// if any part of the extent is already free or out of bounds.
    ///
    /// One located edit: the search that checks the extent also finds the
    /// runs it coalesces with, and the pieces of the coalesced run either
    /// side of the span are written over those runs in place — never a
    /// release followed by a second search to cut the span out.
    /// [`FreeSpace::release`] is this call without a granule.
    pub fn release_coalesced(
        &mut self,
        extent: Extent,
        granule: Option<u64>,
    ) -> Result<Option<Extent>, AllocError> {
        if extent.is_empty() {
            return Ok(None);
        }
        self.check_bounds(extent)?;
        // One search, every check before any mutation: the last free run
        // starting at or before the extent must not reach into it, and the
        // run after that one must not begin inside it.
        let before = self.predecessor(extent.start);
        let after = before.map_or((0, 0), |at| self.successor(at));
        let after = self.blocks.get(after.0).map(|_| after);
        if before.is_some_and(|at| self.run(at).end() > extent.start)
            || after.is_some_and(|at| self.run(at).start < extent.end())
        {
            return Err(AllocError::NotAllocated {
                start: extent.start,
                len: extent.len,
            });
        }
        let grown = before.filter(|&at| self.run(at).end() == extent.start);
        let absorbed = after.filter(|&at| self.run(at).start == extent.end());
        let start = grown.map_or(extent.start, |at| self.run(at).start);
        let end = absorbed.map_or(extent.end(), |at| self.run(at).end());
        let coalesced = Extent::new(start, end - start);
        let span = granule.and_then(|granule| aligned_span(coalesced, granule));
        // What stays free: the coalesced run's head and tail around the span
        // (either may be empty), or the whole run.
        let (head, tail) = match span {
            Some(span) => (
                Extent::new(start, span.start - start),
                Extent::new(span.end(), end - span.end()),
            ),
            None => (coalesced, Extent::new(end, 0)),
        };
        self.free = self.free + extent.len - span.map_or(0, |span| span.len);
        // The pieces go over the runs they coalesced, in offset order.
        match (grown, absorbed) {
            (Some(low), Some(high)) => match (head.is_empty(), tail.is_empty()) {
                (false, false) => {
                    self.replace_run(low, head);
                    self.replace_run(high, tail);
                }
                (true, true) => {
                    let low = self.remove_run(high).expect("the grown run precedes it");
                    self.remove_run(low);
                }
                (false, true) | (true, false) => {
                    self.replace_run(low, if head.is_empty() { tail } else { head });
                    self.remove_run(high);
                }
            },
            (Some(at), None) | (None, Some(at)) => self.rewrite(at, head, tail),
            (None, None) => {
                let mut at = before.map_or((0, 0), |(b, i)| (b, i + 1));
                for run in [head, tail].into_iter().filter(|run| !run.is_empty()) {
                    let (b, i) = self.insert_run(at, run);
                    at = (b, i + 1);
                }
            }
        }
        Ok(span)
    }

    /// Frees every run of `batch` in one pass: the runs ascending by start,
    /// disjoint, possibly touching (empty ones are skipped).  The map ends
    /// exactly as releasing them one at a time would leave it, since the map
    /// is a function of the free set alone.
    ///
    /// With `withdraw = Some((granule, cut))`, every whole `granule`-aligned
    /// span of a coalesced run that absorbed a released run is taken back out
    /// of the map and handed to `cut`, ascending — the spans one
    /// [`RunIndexMap::release_coalesced`] per run with the same granule would
    /// return.
    ///
    /// One streaming merge of the map's runs with the batch: a block no
    /// batch run reaches is moved into the new list as it is; a block one
    /// reaches is rebuilt in its own buffer from a copy of its runs on the
    /// stack, overflowing into a further block only past `BLOCK_CAP` (as an
    /// insert splits a full block), and neighbours left holding half a block
    /// or less between them merge; `firsts` and the summary are rebuilt
    /// once.  Blocks are not repacked: freeing the buffers repacking empties
    /// scatters holes through the allocator's heap, which cost more peak RSS
    /// than the slack they held.  For `k` batch runs the cost is O(k +
    /// touched blocks × `BLOCK_CAP` + blocks) — never O(runs in the map).
    ///
    /// Fails, changing nothing, on the first run that is out of bounds,
    /// overlaps a free run or the batch run before it
    /// ([`AllocError::NotAllocated`]), or starts below the run before it
    /// ([`AllocError::UnsortedBatch`]) — for a sorted batch, exactly the
    /// error the one-at-a-time releases would stop at.
    pub fn release_batch<I>(
        &mut self,
        batch: I,
        withdraw: Option<(u64, &mut dyn FnMut(Extent))>,
    ) -> Result<(), AllocError>
    where
        I: IntoIterator<Item = Extent>,
        I::IntoIter: Clone,
    {
        let batch = batch.into_iter().filter(|run| !run.is_empty());
        let released = self.check_batch(batch.clone())?;
        if released == 0 {
            return Ok(());
        }

        let old_leaves = self.leaf(0);
        let mut merge = BatchMerge {
            blocks: Vec::with_capacity(self.blocks.len() + 1),
            maxima: Vec::with_capacity(self.blocks.len() + 1),
            filling: Vec::new(),
            spare: Vec::new(),
            open: None,
            absorbed: false,
            withdraw,
            withdrawn: 0,
        };
        let mut batch = batch.peekable();
        let mut merging = [Extent::new(0, 0); BLOCK_CAP];
        for (b, mut block) in std::mem::take(&mut self.blocks).into_iter().enumerate() {
            // Batch runs below the next block's first run merge into this
            // one's; so does an open run that this block's first run extends.
            let end = self.firsts.get(b + 1).copied().unwrap_or(u64::MAX);
            let reached = merge.open.is_some_and(|open| open.end() == block[0].start)
                || batch.peek().is_some_and(|run| run.start < end);
            if !reached {
                merge.push_block(block, self.summary[old_leaves + b]);
                continue;
            }
            let runs = &mut merging[..block.len()];
            runs.copy_from_slice(&block);
            block.clear();
            merge.filling = block;
            for &run in runs.iter() {
                while let Some(freed) = batch.next_if(|freed| freed.start < run.start) {
                    merge.push(freed, true);
                }
                merge.push(run, false);
            }
            while let Some(freed) = batch.next_if(|freed| freed.start < end) {
                merge.push(freed, true);
            }
            // The open run stays open only for the next block's first run.
            if merge.open.is_some_and(|open| open.end() != end) {
                merge.close();
            }
            merge.finish_block();
        }
        for freed in batch {
            merge.push(freed, true);
        }
        merge.close();
        merge.finish_block();

        self.free = self.free + released - merge.withdrawn;
        self.blocks = merge.blocks;
        self.runs = self.blocks.iter().map(Vec::len).sum();
        self.firsts.clear();
        self.firsts
            .extend(self.blocks.iter().map(|block| block[0].start));
        let leaves = self.blocks.len().next_power_of_two();
        self.summary.clear();
        self.summary.resize(leaves, NO_RUN);
        self.summary.extend_from_slice(&merge.maxima);
        self.summary.resize(2 * leaves, NO_RUN);
        for node in (1..leaves).rev() {
            self.summary[node] = self.summary[2 * node].max(self.summary[2 * node + 1]);
        }
        Ok(())
    }

    /// Reserves up to `max_len` clusters starting exactly at `cluster` — as
    /// many as the free run there still holds from `cluster` on — and returns
    /// what was taken; `None`, changing nothing, when `cluster` is not free
    /// or `max_len` is 0.  One search where [`RunIndexMap::run_at`] followed
    /// by [`FreeSpace::reserve`] is two.
    pub fn take_at(&mut self, cluster: u64, max_len: u64) -> Option<Extent> {
        let at = self.predecessor(cluster)?;
        let run = self.run(at);
        if !run.contains(cluster) || max_len == 0 {
            return None;
        }
        let taken = Extent::new(cluster, (run.end() - cluster).min(max_len));
        self.carve(at, taken);
        Some(taken)
    }

    /// Checks the structure against a recomputation of everything it
    /// caches, returning the first violated invariant: the block list's
    /// shape (non-empty blocks within the cap, neighbours above the merge
    /// threshold), the runs (ascending, non-empty, never touching, inside
    /// the space), the first-offset array, every summary node, and the two
    /// counters.
    pub fn verify(&self) -> Result<(), String> {
        if self.firsts.len() != self.blocks.len() {
            return Err(format!(
                "free map: {} first offsets for {} blocks",
                self.firsts.len(),
                self.blocks.len()
            ));
        }
        let mut free = 0;
        let mut runs = 0;
        let mut previous: Option<Extent> = None;
        for (b, block) in self.blocks.iter().enumerate() {
            if block.is_empty() || block.len() > BLOCK_CAP {
                return Err(format!(
                    "free map: block {b} holds {} runs, outside 1..={BLOCK_CAP}",
                    block.len()
                ));
            }
            if let Some(lower) = b.checked_sub(1) {
                let pair = self.blocks[lower].len() + block.len();
                if pair <= MERGE_AT {
                    return Err(format!(
                        "free map: blocks {lower} and {b} hold {pair} runs between them, \
                         at most {MERGE_AT} must have merged"
                    ));
                }
            }
            if self.firsts[b] != block[0].start {
                return Err(format!(
                    "free map: first offset {} recorded for block {b}, which starts at {}",
                    self.firsts[b], block[0].start
                ));
            }
            for &run in block {
                if run.is_empty() || run.end() > self.total {
                    return Err(format!(
                        "free map: run {run:?} empty or outside the {} clusters",
                        self.total
                    ));
                }
                if let Some(previous) = previous.filter(|p| p.end() >= run.start) {
                    return Err(format!(
                        "free map: run {run:?} not after and apart from its predecessor {previous:?}"
                    ));
                }
                previous = Some(run);
                free += run.len;
            }
            runs += block.len();
        }
        if free != self.free {
            return Err(format!(
                "free map: free counter {} but the runs hold {free} clusters",
                self.free
            ));
        }
        if runs != self.runs {
            return Err(format!(
                "free map: run counter {} but the blocks hold {runs} runs",
                self.runs
            ));
        }
        let leaves = self.blocks.len().next_power_of_two();
        if self.summary.len() != 2 * leaves {
            return Err(format!(
                "free map: summary of {} entries over {} blocks",
                self.summary.len(),
                self.blocks.len()
            ));
        }
        for node in (1..2 * leaves).rev() {
            let expected = if node >= leaves {
                self.blocks
                    .get(node - leaves)
                    .map_or(NO_RUN, |b| block_max(b))
            } else {
                self.summary[2 * node].max(self.summary[2 * node + 1])
            };
            if self.summary[node] != expected {
                return Err(format!(
                    "free map: summary node {node} holds {:?}, recomputed {expected:?}",
                    self.summary[node]
                ));
            }
        }
        Ok(())
    }

    fn check_bounds(&self, extent: Extent) -> Result<(), AllocError> {
        if extent.end() > self.total {
            Err(AllocError::OutOfBounds {
                start: extent.start,
                len: extent.len,
                total: self.total,
            })
        } else {
            Ok(())
        }
    }

    fn run(&self, (b, i): Position) -> Extent {
        self.blocks[b][i]
    }

    /// Checks a batch for [`RunIndexMap::release_batch`] — each run inside
    /// the space, at or past the end of the one before it, and clear of
    /// every free run — and returns the clusters it frees.  One walk: the
    /// first free run that ends past a batch run's start is the only one that
    /// can overlap it, and it only moves forward, a block at a time through
    /// `firsts` and a run at a time inside a block.
    fn check_batch(&self, batch: impl Iterator<Item = Extent>) -> Result<u64, AllocError> {
        let mut released = 0;
        let mut previous: Option<Extent> = None;
        let (mut b, mut i) = (0, 0);
        for run in batch {
            self.check_bounds(run)?;
            let (start, len) = (run.start, run.len);
            if let Some(previous) = previous {
                if run.start < previous.start {
                    return Err(AllocError::UnsortedBatch { start, len });
                }
                if run.start < previous.end() {
                    return Err(AllocError::NotAllocated { start, len });
                }
            }
            // Every run of a block ends before the next block's first run.
            while self
                .firsts
                .get(b + 1)
                .is_some_and(|&first| first <= run.start)
            {
                (b, i) = (b + 1, 0);
            }
            let next = match self.blocks.get(b) {
                Some(block) => {
                    while block.get(i).is_some_and(|free| free.end() <= run.start) {
                        i += 1;
                    }
                    block
                        .get(i)
                        .or_else(|| self.blocks.get(b + 1).map(|next| &next[0]))
                }
                None => None,
            };
            if next.is_some_and(|free| free.start < run.end()) {
                return Err(AllocError::NotAllocated { start, len });
            }
            released += run.len;
            previous = Some(run);
        }
        Ok(released)
    }

    /// The last run starting at or before `cluster`.
    ///
    /// The first run is answered before any search: first fit's pick is that
    /// run, and the take right after the pick asks for it again.
    fn predecessor(&self, cluster: u64) -> Option<Position> {
        let first = self.blocks.first()?;
        if cluster < first[0].start {
            return None;
        }
        let second = first
            .get(1)
            .map(|run| run.start)
            .or_else(|| self.firsts.get(1).copied());
        if second.is_none_or(|second| cluster < second) {
            return Some((0, 0));
        }
        // Block 0 starts at or before `cluster`, and so does the found
        // block's first run.
        let b = self.firsts.partition_point(|&first| first <= cluster) - 1;
        let i = self.blocks[b].partition_point(|run| run.start <= cluster);
        Some((b, i - 1))
    }

    /// Where the first run starting at or after `cluster` sits or, if it is
    /// the first run of the next block (or there is none), one past the end
    /// of the block before — a position [`RunIndexMap::runs_from`] walks on
    /// from either way.
    fn lower_bound(&self, cluster: u64) -> Position {
        let b = self.firsts.partition_point(|&first| first <= cluster);
        match b.checked_sub(1) {
            None => (0, 0),
            Some(b) => (b, self.blocks[b].partition_point(|run| run.start < cluster)),
        }
    }

    /// The position after `at`: the next run, or one past the last block.
    fn successor(&self, (b, i): Position) -> Position {
        if i + 1 < self.blocks[b].len() {
            (b, i + 1)
        } else {
            (b + 1, 0)
        }
    }

    /// Every run from position `from` on, ascending.
    fn runs_from(&self, (b, i): Position) -> impl Iterator<Item = Extent> + '_ {
        let (head, tail): (&[Extent], &[Vec<Extent>]) = match self.blocks.get(b) {
            Some(block) => (&block[i..], &self.blocks[b + 1..]),
            None => (&[], &[]),
        };
        head.iter().chain(tail.iter().flatten()).copied()
    }

    /// Index of block `b`'s entry in the summary.
    fn leaf(&self, b: usize) -> usize {
        self.summary.len() / 2 + b
    }

    /// The blocks' summary entries, in block order.
    fn leaves(&self) -> &[SizeKey] {
        &self.summary[self.leaf(0)..self.leaf(self.blocks.len())]
    }

    /// The first block at or after `from` holding a run of at least `len`
    /// (≥ 1) clusters: up from `from`'s leaf to the first subtree on the
    /// right whose maximum is long enough, then down to its leftmost leaf
    /// that is.
    fn next_block_fitting(&self, len: u64, from: usize) -> Option<usize> {
        if from >= self.blocks.len() {
            return None;
        }
        let leaves = self.leaf(0);
        let mut node = leaves + from;
        while self.summary[node].0 < len {
            // Leave every subtree that ends here, then step right.
            while node & 1 == 1 {
                if node == 1 {
                    return None;
                }
                node >>= 1;
            }
            node += 1;
        }
        while node < leaves {
            node *= 2;
            if self.summary[node].0 < len {
                node += 1;
            }
        }
        Some(node - leaves)
    }

    /// Records that a run of block `b` changed its summary key from `old` to
    /// `new` ([`NO_RUN`] for a run that did not exist before / is gone now),
    /// the block itself already edited.  The block is rescanned only when
    /// the run that was its maximum shrank or left.
    fn rekey(&mut self, b: usize, old: SizeKey, new: SizeKey) {
        let mut node = self.leaf(b);
        let max = self.summary[node];
        let key = if new >= max {
            new
        } else if old == max {
            block_max(&self.blocks[b])
        } else {
            return;
        };
        self.summary[node] = key;
        while node > 1 {
            node >>= 1;
            let top = self.summary[2 * node].max(self.summary[2 * node + 1]);
            if self.summary[node] == top {
                break;
            }
            self.summary[node] = top;
        }
    }

    /// Rebuilds the summary after the block list changed shape: the
    /// `removed` blocks from `b` on gave way to blocks with the maxima
    /// `inserted` (`blocks` already edited).  O(blocks), which a split or a
    /// merge — a shift of `blocks` and `firsts` — costs anyway; in place, so
    /// a map that keeps crossing a block boundary (the segment log's holds
    /// zero to two runs) allocates nothing for it.
    fn splice_leaves(&mut self, b: usize, removed: usize, inserted: &[SizeKey]) {
        let count = self.blocks.len();
        let leaves = count.next_power_of_two();
        // Cut down to the old leaf level, edit it, pad it to the new width
        // and put the levels above it back in front.
        self.summary.drain(..self.summary.len() / 2);
        self.summary.truncate(count + removed - inserted.len());
        self.summary
            .splice(b..b + removed, inserted.iter().copied());
        self.summary.resize(leaves, NO_RUN);
        self.summary
            .splice(0..0, std::iter::repeat_n(NO_RUN, leaves));
        for node in (1..leaves).rev() {
            self.summary[node] = self.summary[2 * node].max(self.summary[2 * node + 1]);
        }
    }

    /// Overwrites the run at `at` with one that keeps its place in the
    /// offset order — a carved prefix or suffix, a run grown into a freed
    /// neighbour: the key changes, the position does not.
    fn replace_run(&mut self, (b, i): Position, run: Extent) {
        let old = size_key(std::mem::replace(&mut self.blocks[b][i], run));
        if i == 0 {
            self.firsts[b] = run.start;
        }
        self.rekey(b, old, size_key(run));
    }

    /// Inserts `run` at index `i` (at most the block's length) of block `b`
    /// — `(0, 0)` when there is no block yet — splitting the block first if
    /// it is full, and returns where the run went.  The caller guarantees
    /// the run belongs there and touches no neighbour.
    fn insert_run(&mut self, (mut b, mut i): Position, run: Extent) -> Position {
        self.runs += 1;
        if self.blocks.is_empty() {
            self.blocks.push(vec![run]);
            self.firsts.push(run.start);
            self.splice_leaves(0, 0, &[size_key(run)]);
            return (0, 0);
        }
        if self.blocks[b].len() == BLOCK_CAP {
            let upper = self.blocks[b].split_off(BLOCK_CAP / 2);
            let maxima = [block_max(&self.blocks[b]), block_max(&upper)];
            self.firsts.insert(b + 1, upper[0].start);
            self.blocks.insert(b + 1, upper);
            self.splice_leaves(b, 1, &maxima);
            if i > BLOCK_CAP / 2 {
                (b, i) = (b + 1, i - BLOCK_CAP / 2);
            }
        }
        self.blocks[b].insert(i, run);
        if i == 0 {
            self.firsts[b] = run.start;
        }
        self.rekey(b, NO_RUN, size_key(run));
        (b, i)
    }

    /// Removes the run at `at`, dropping its block if that empties it and
    /// merging the block into a neighbour if that leaves the pair within
    /// [`MERGE_AT`] — without which an adversarial free pattern (fill every
    /// block, then empty each down to one run) would leave a block per run.
    /// Returns where the run before it now is, if there is one.
    fn remove_run(&mut self, (b, i): Position) -> Option<Position> {
        let run = self.blocks[b].remove(i);
        self.runs -= 1;
        let mut previous = match i.checked_sub(1) {
            Some(i) => Some((b, i)),
            None => b
                .checked_sub(1)
                .map(|lower| (lower, self.blocks[lower].len() - 1)),
        };
        if self.blocks[b].is_empty() {
            self.blocks.remove(b);
            self.firsts.remove(b);
            self.splice_leaves(b, 1, &[]);
            return previous;
        }
        if i == 0 {
            self.firsts[b] = self.blocks[b][0].start;
        }
        self.rekey(b, size_key(run), NO_RUN);
        // Left first, so `lower` is where the block now is for the right.
        let mut lower = b;
        if let Some(left) = b.checked_sub(1) {
            let offset = self.blocks[left].len();
            if self.merge_if_underfull(left) {
                lower = left;
                // The block's runs now follow the left one's.
                previous = previous.map(|(pb, pi)| {
                    if pb == b {
                        (left, offset + pi)
                    } else {
                        (pb, pi)
                    }
                });
            }
        }
        self.merge_if_underfull(lower);
        previous
    }

    /// Merges block `lower + 1` into `lower` if both exist and hold at most
    /// [`MERGE_AT`] runs between them.
    fn merge_if_underfull(&mut self, lower: usize) -> bool {
        let mergeable = self
            .blocks
            .get(lower + 1)
            .is_some_and(|upper| self.blocks[lower].len() + upper.len() <= MERGE_AT);
        if mergeable {
            let max = self.summary[self.leaf(lower)].max(self.summary[self.leaf(lower + 1)]);
            let upper = self.blocks.remove(lower + 1);
            self.firsts.remove(lower + 1);
            self.blocks[lower].extend(upper);
            self.splice_leaves(lower, 2, &[max]);
        }
        mergeable
    }

    /// Takes the non-empty `extent` out of the free run at `at`, which
    /// contains all of it.
    fn carve(&mut self, at: Position, extent: Extent) {
        let run = self.run(at);
        let head = Extent::new(run.start, extent.start - run.start);
        let tail = Extent::new(extent.end(), run.end() - extent.end());
        self.free -= extent.len;
        self.rewrite(at, head, tail);
    }

    /// Writes `head` and `tail` — ascending, either possibly empty — over
    /// the run at `at`, which held their place in the offset order.
    fn rewrite(&mut self, at: Position, head: Extent, tail: Extent) {
        match (head.is_empty(), tail.is_empty()) {
            (true, true) => {
                self.remove_run(at);
            }
            (false, true) => self.replace_run(at, head),
            (true, false) => self.replace_run(at, tail),
            (false, false) => {
                self.replace_run(at, head);
                self.insert_run((at.0, at.1 + 1), tail);
            }
        }
    }
}

/// The new block list [`RunIndexMap::release_batch`] streams runs into.
struct BatchMerge<'a> {
    /// The blocks so far, each with its largest `(len, start)`.
    blocks: Vec<Vec<Extent>>,
    maxima: Vec<SizeKey>,
    /// The block being rebuilt, and a buffer emptied by a merge of two
    /// blocks, for a block that overflows.
    filling: Vec<Extent>,
    spare: Vec<Extent>,
    /// The last run, which the next one may still extend, and whether a
    /// released run went into it.
    open: Option<Extent>,
    absorbed: bool,
    withdraw: Option<(u64, &'a mut dyn FnMut(Extent))>,
    /// Clusters of the spans handed to `withdraw`.
    withdrawn: u64,
}

impl BatchMerge<'_> {
    /// Appends the next run in offset order, coalescing it with the open
    /// run when the two touch.
    fn push(&mut self, run: Extent, released: bool) {
        match &mut self.open {
            Some(open) if open.end() == run.start => {
                open.len += run.len;
                self.absorbed |= released;
            }
            _ => {
                self.close();
                self.open = Some(run);
                self.absorbed = released;
            }
        }
    }

    /// Emits the open run, minus its whole aligned span when it absorbed a
    /// released run and the caller withdraws spans.
    fn close(&mut self) {
        let Some(run) = self.open.take() else {
            return;
        };
        let span = match &self.withdraw {
            Some((granule, _)) if self.absorbed => aligned_span(run, *granule),
            _ => None,
        };
        let Some(span) = span else {
            self.emit(run);
            return;
        };
        self.emit(Extent::new(run.start, span.start - run.start));
        if let Some((_, cut)) = &mut self.withdraw {
            cut(span);
        }
        self.withdrawn += span.len;
        self.emit(Extent::new(span.end(), run.end() - span.end()));
    }

    fn emit(&mut self, run: Extent) {
        if run.is_empty() {
            return;
        }
        if self.filling.len() == BLOCK_CAP {
            self.finish_block();
        }
        if self.filling.capacity() == 0 {
            // A block past a full one (or the first of an empty map): room
            // for a whole block at once, not a doubling per few runs.
            self.filling = std::mem::take(&mut self.spare);
            self.filling.reserve(BLOCK_CAP);
        }
        self.filling.push(run);
    }

    /// Appends the block being rebuilt, unless nothing was left in it.
    fn finish_block(&mut self) {
        let block = std::mem::take(&mut self.filling);
        if block.is_empty() {
            self.recycle(block);
        } else {
            let max = block_max(&block);
            self.push_block(block, max);
        }
    }

    /// Appends a whole block, merging it into the last one when the two hold
    /// at most [`MERGE_AT`] runs between them — so any two neighbours hold
    /// more: when a block is appended its pair is above the threshold, and
    /// only the last block ever grows.
    fn push_block(&mut self, block: Vec<Extent>, max: SizeKey) {
        match self.blocks.last_mut() {
            Some(last) if last.len() + block.len() <= MERGE_AT => {
                last.extend_from_slice(&block);
                let last_max = self.maxima.last_mut().expect("one maximum per block");
                *last_max = max.max(*last_max);
                self.recycle(block);
            }
            _ => {
                self.blocks.push(block);
                self.maxima.push(max);
            }
        }
    }

    /// Keeps the larger of an emptied block's buffer and the spare one.
    fn recycle(&mut self, mut block: Vec<Extent>) {
        if block.capacity() > self.spare.capacity() {
            block.clear();
            self.spare = block;
        }
    }
}

/// [`RunIndexMap::run_lens_desc`]: the summary's root, then the summary
/// nodes not yet expanded, keyed by the largest run not yet yielded below
/// them.
struct RunLensDesc<'a> {
    map: &'a RunIndexMap,
    root_yielded: bool,
    /// `(key, summary node)`; a leaf's key is the next run of its block.
    /// Built when the second length is asked for.
    frontier: Option<BinaryHeap<(SizeKey, usize)>>,
}

/// Pops the largest run below `frontier`, which its successors in the walk
/// replace there: the children of each summary node it expands, and the
/// next run down of the run's block.
fn descend(map: &RunIndexMap, frontier: &mut BinaryHeap<(SizeKey, usize)>) -> Option<SizeKey> {
    let leaves = map.leaf(0);
    loop {
        let (key, node) = frontier.pop()?;
        if node < leaves {
            let children = [2 * node, 2 * node + 1];
            frontier.extend(
                children
                    .into_iter()
                    .map(|child| (map.summary[child], child))
                    .filter(|&(max, _)| max != NO_RUN),
            );
            continue;
        }
        // `key` is a run of this block: queue the block's next one down.
        let below = map.blocks[node - leaves]
            .iter()
            .map(|&run| size_key(run))
            .filter(|&other| other < key)
            .max();
        frontier.extend(below.map(|next| (next, node)));
        return Some(key);
    }
}

impl Iterator for RunLensDesc<'_> {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        let map = self.map;
        let root = map.summary[1];
        if root == NO_RUN {
            return None;
        }
        if !self.root_yielded {
            self.root_yielded = true;
            return Some(root.0);
        }
        let frontier = self.frontier.get_or_insert_with(|| {
            // The first run found leaves a sibling per level of the summary
            // and the leaf on the frontier; room for twice that lets a
            // planner's next lengths go by without the heap regrowing.
            let depth = map.leaf(0).trailing_zeros() as usize;
            let mut frontier = BinaryHeap::with_capacity(2 * (depth + 1));
            frontier.push((root, 1));
            // The walk finds the root's run first: yielded already.
            descend(map, &mut frontier);
            frontier
        });
        descend(map, frontier).map(|(len, _)| len)
    }
}

impl FreeSpace for RunIndexMap {
    fn total_clusters(&self) -> u64 {
        self.total
    }

    fn free_clusters(&self) -> u64 {
        self.free
    }

    fn release(&mut self, extent: Extent) -> Result<(), AllocError> {
        self.release_coalesced(extent, None).map(drop)
    }

    fn reserve(&mut self, extent: Extent) -> Result<(), AllocError> {
        if extent.is_empty() {
            return Ok(());
        }
        self.check_bounds(extent)?;
        let at = self
            .predecessor(extent.start)
            .filter(|&at| self.run(at).end() >= extent.end())
            .ok_or(AllocError::NotAllocated {
                start: extent.start,
                len: extent.len,
            })?;
        self.carve(at, extent);
        Ok(())
    }

    fn is_free(&self, extent: Extent) -> bool {
        if extent.is_empty() {
            return true;
        }
        if extent.end() > self.total {
            return false;
        }
        self.run_at(extent.start)
            .is_some_and(|run| run.end() >= extent.end())
    }

    fn free_runs(&self) -> Vec<Extent> {
        self.runs_from((0, 0)).collect()
    }

    /// O(1) via the size summary — the trait default materializes every run.
    fn largest_free_run(&self) -> u64 {
        self.summary[1].0
    }
}

/// Cluster bitmap: simple, exhaustive, O(volume) memory.
#[derive(Debug, Clone)]
pub struct BitmapMap {
    /// `true` means the cluster is free.
    bits: Vec<bool>,
    free: u64,
}

impl BitmapMap {
    /// Creates a bitmap in which every cluster is free.
    pub fn new_free(total_clusters: u64) -> Self {
        BitmapMap {
            bits: vec![true; total_clusters as usize],
            free: total_clusters,
        }
    }

    /// Creates a bitmap in which every cluster is allocated.
    pub fn new_allocated(total_clusters: u64) -> Self {
        BitmapMap {
            bits: vec![false; total_clusters as usize],
            free: 0,
        }
    }
}

impl FreeSpace for BitmapMap {
    fn total_clusters(&self) -> u64 {
        self.bits.len() as u64
    }

    fn free_clusters(&self) -> u64 {
        self.free
    }

    fn release(&mut self, extent: Extent) -> Result<(), AllocError> {
        if extent.is_empty() {
            return Ok(());
        }
        if extent.end() > self.total_clusters() {
            return Err(AllocError::OutOfBounds {
                start: extent.start,
                len: extent.len,
                total: self.total_clusters(),
            });
        }
        let range = extent.start as usize..extent.end() as usize;
        if self.bits[range.clone()].iter().any(|&free| free) {
            return Err(AllocError::NotAllocated {
                start: extent.start,
                len: extent.len,
            });
        }
        for bit in &mut self.bits[range] {
            *bit = true;
        }
        self.free += extent.len;
        Ok(())
    }

    fn reserve(&mut self, extent: Extent) -> Result<(), AllocError> {
        if extent.is_empty() {
            return Ok(());
        }
        if extent.end() > self.total_clusters() {
            return Err(AllocError::OutOfBounds {
                start: extent.start,
                len: extent.len,
                total: self.total_clusters(),
            });
        }
        let range = extent.start as usize..extent.end() as usize;
        if self.bits[range.clone()].iter().any(|&free| !free) {
            return Err(AllocError::NotAllocated {
                start: extent.start,
                len: extent.len,
            });
        }
        for bit in &mut self.bits[range] {
            *bit = false;
        }
        self.free -= extent.len;
        Ok(())
    }

    fn is_free(&self, extent: Extent) -> bool {
        if extent.is_empty() {
            return true;
        }
        if extent.end() > self.total_clusters() {
            return false;
        }
        self.bits[extent.start as usize..extent.end() as usize]
            .iter()
            .all(|&free| free)
    }

    fn free_runs(&self) -> Vec<Extent> {
        let mut runs = Vec::new();
        let mut current: Option<Extent> = None;
        for (index, &free) in self.bits.iter().enumerate() {
            match (free, current.as_mut()) {
                (true, Some(run)) => run.len += 1,
                (true, None) => current = Some(Extent::new(index as u64, 1)),
                (false, Some(_)) => runs.push(current.take().expect("run in progress")),
                (false, None) => {}
            }
        }
        if let Some(run) = current {
            runs.push(run);
        }
        runs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn both(total: u64) -> (RunIndexMap, BitmapMap) {
        (RunIndexMap::new_free(total), BitmapMap::new_free(total))
    }

    #[test]
    fn new_free_and_new_allocated() {
        let map = RunIndexMap::new_free(100);
        assert_eq!(map.free_clusters(), 100);
        assert_eq!(map.free_runs(), vec![Extent::new(0, 100)]);
        let map = RunIndexMap::new_allocated(100);
        assert_eq!(map.free_clusters(), 0);
        assert!(map.free_runs().is_empty());
        assert_eq!(map.allocated_clusters(), 100);
    }

    #[test]
    fn reserve_splits_runs() {
        let (mut runs, mut bitmap) = both(100);
        for map in [
            &mut runs as &mut dyn FreeSpace,
            &mut bitmap as &mut dyn FreeSpace,
        ] {
            map.reserve(Extent::new(10, 20)).unwrap();
            assert_eq!(map.free_clusters(), 80);
            assert!(!map.is_free(Extent::new(10, 1)));
            assert!(map.is_free(Extent::new(0, 10)));
            assert!(map.is_free(Extent::new(30, 70)));
            assert_eq!(
                map.free_runs(),
                vec![Extent::new(0, 10), Extent::new(30, 70)]
            );
        }
    }

    #[test]
    fn release_coalesces_neighbours() {
        let (mut runs, mut bitmap) = both(100);
        for map in [
            &mut runs as &mut dyn FreeSpace,
            &mut bitmap as &mut dyn FreeSpace,
        ] {
            map.reserve(Extent::new(0, 100)).unwrap();
            map.release(Extent::new(10, 10)).unwrap();
            map.release(Extent::new(30, 10)).unwrap();
            // Bridge the gap: the three runs must merge into one.
            map.release(Extent::new(20, 10)).unwrap();
            assert_eq!(map.free_runs(), vec![Extent::new(10, 30)]);
            assert_eq!(map.free_clusters(), 30);
        }
    }

    #[test]
    fn double_free_and_double_reserve_are_rejected() {
        let (mut runs, mut bitmap) = both(50);
        for map in [
            &mut runs as &mut dyn FreeSpace,
            &mut bitmap as &mut dyn FreeSpace,
        ] {
            map.reserve(Extent::new(0, 10)).unwrap();
            assert!(
                map.reserve(Extent::new(5, 10)).is_err(),
                "partially allocated"
            );
            assert!(
                map.release(Extent::new(20, 5)).is_err(),
                "freeing free space"
            );
            map.release(Extent::new(0, 10)).unwrap();
            assert!(map.release(Extent::new(0, 10)).is_err(), "double free");
        }
    }

    #[test]
    fn out_of_bounds_is_rejected() {
        let (mut runs, mut bitmap) = both(50);
        for map in [
            &mut runs as &mut dyn FreeSpace,
            &mut bitmap as &mut dyn FreeSpace,
        ] {
            assert!(matches!(
                map.reserve(Extent::new(45, 10)),
                Err(AllocError::OutOfBounds { .. })
            ));
            assert!(!map.is_free(Extent::new(45, 10)));
        }
    }

    #[test]
    fn empty_extents_are_no_ops() {
        let (mut runs, mut bitmap) = both(50);
        for map in [
            &mut runs as &mut dyn FreeSpace,
            &mut bitmap as &mut dyn FreeSpace,
        ] {
            map.reserve(Extent::new(10, 0)).unwrap();
            map.release(Extent::new(10, 0)).unwrap();
            assert_eq!(map.free_clusters(), 50);
            assert!(map.is_free(Extent::new(10, 0)));
        }
    }

    #[test]
    fn fit_queries() {
        let mut map = RunIndexMap::new_free(100);
        map.reserve(Extent::new(0, 10)).unwrap(); // free: [10..100)
        map.reserve(Extent::new(20, 10)).unwrap(); // free: [10..20), [30..100)
        map.reserve(Extent::new(90, 10)).unwrap(); // free: [10..20), [30..90)

        assert_eq!(map.best_fit(5), Some(Extent::new(10, 10)));
        assert_eq!(map.best_fit(11), Some(Extent::new(30, 60)));
        assert_eq!(map.best_fit(61), None);
        assert_eq!(map.first_fit(5, 0), Some(Extent::new(10, 10)));
        assert_eq!(map.first_fit(5, 15), Some(Extent::new(30, 60)));
        assert_eq!(map.largest(), Some(Extent::new(30, 60)));
        assert_eq!(map.largest_free_run(), 60);
        assert_eq!(map.run_count(), 2);
        assert_eq!(map.run_at(35), Some(Extent::new(30, 60)));
        assert_eq!(map.run_at(25), None);
        assert_eq!(map.runs_in(0, 25), vec![Extent::new(10, 10)]);
    }

    #[test]
    fn band_filtered_queries_clip_straddling_runs() {
        let mut map = RunIndexMap::new_free(100);
        map.reserve(Extent::new(0, 10)).unwrap(); // free: [10..100)
        map.reserve(Extent::new(20, 10)).unwrap(); // free: [10..20), [30..100)
        map.reserve(Extent::new(90, 10)).unwrap(); // free: [10..20), [30..90)

        // The [30..90) run straddles a boundary at 50: each band sees its
        // clipped half.
        assert_eq!(map.largest_run_in(0, 50), Some(Extent::new(30, 20)));
        assert_eq!(map.largest_run_in(50, 100), Some(Extent::new(50, 40)));
        assert_eq!(map.first_fit_in(5, 0, 50), Some(Extent::new(10, 10)));
        assert_eq!(map.first_fit_in(15, 0, 50), Some(Extent::new(30, 20)));
        assert_eq!(map.first_fit_in(25, 0, 50), None);
        assert_eq!(map.first_fit_in(25, 50, 100), Some(Extent::new(50, 40)));
        // Best fit inside the low band prefers the snug [10..20) hole.
        assert_eq!(map.best_fit_in(8, 0, 50), Some(Extent::new(10, 10)));
        // An empty band sees nothing.
        assert_eq!(map.largest_run_in(20, 30), None);
        assert_eq!(map.first_fit_in(1, 20, 30), None);
    }

    #[test]
    fn largest_run_at_most_respects_the_cap() {
        let mut map = RunIndexMap::new_free(100);
        map.reserve(Extent::new(0, 10)).unwrap();
        map.reserve(Extent::new(20, 10)).unwrap(); // free: [10..20), [30..100)
        assert_eq!(map.largest_run_at_most(100), Some(Extent::new(30, 70)));
        assert_eq!(map.largest_run_at_most(69), Some(Extent::new(10, 10)));
        assert_eq!(map.largest_run_at_most(10), Some(Extent::new(10, 10)));
        assert_eq!(map.largest_run_at_most(9), None);
    }

    /// `runs` two-cluster free runs a cluster apart, freed in ascending order.
    fn comb(runs: u64) -> RunIndexMap {
        let mut map = RunIndexMap::new_allocated(3 * runs);
        for k in 0..runs {
            map.release(Extent::new(3 * k, 2)).unwrap();
        }
        map.verify().unwrap();
        map
    }

    #[test]
    fn the_default_map_is_a_valid_empty_map() {
        let mut map = RunIndexMap::default();
        assert_eq!(map.verify(), Ok(()));
        assert_eq!(map.total_clusters(), 0);
        assert_eq!(map.free_clusters(), 0);
        assert_eq!(map.run_count(), 0);
        assert_eq!(map.largest(), None);
        assert_eq!(map.largest_free_run(), 0);
        assert_eq!(map.last_run(), None);
        assert_eq!(map.best_fit(0), None);
        assert_eq!(map.first_fit(0, 0), None);
        assert_eq!(map.first_fit_starting_in(1, 0, 10), None);
        assert_eq!(map.run_at(0), None);
        assert_eq!(map.runs_in(0, u64::MAX), vec![]);
        assert_eq!(map.first_fit_in(0, 0, 10), None);
        assert_eq!(map.best_fit_in(0, 0, 10), None);
        assert_eq!(map.largest_run_in(0, 10), None);
        assert_eq!(map.largest_run_at_most(u64::MAX), None);
        assert_eq!(map.run_lens_desc().next(), None);
        assert_eq!(map.free_runs(), vec![]);
        assert!(map.is_free(Extent::new(0, 0)));
        assert!(!map.is_free(Extent::new(0, 1)));
        assert_eq!(map.take_at(0, 1), None);
        assert_eq!(map.release_coalesced(Extent::new(0, 0), Some(8)), Ok(None));
        assert!(matches!(
            map.release(Extent::new(0, 1)),
            Err(AllocError::OutOfBounds { .. })
        ));
        assert!(matches!(
            map.reserve(Extent::new(0, 1)),
            Err(AllocError::OutOfBounds { .. })
        ));
        assert_eq!(map.verify(), Ok(()));
    }

    #[test]
    fn release_coalesced_withdraws_the_aligned_span_of_the_run_around_the_extent() {
        let mut map = RunIndexMap::new_allocated(100);
        // No granule: the extent joins whichever neighbours it touches.
        for (freed, around) in [
            (Extent::new(10, 5), Extent::new(10, 5)),
            (Extent::new(20, 5), Extent::new(20, 5)),
            (Extent::new(15, 2), Extent::new(10, 7)),
            (Extent::new(18, 2), Extent::new(18, 7)),
            (Extent::new(17, 1), Extent::new(10, 15)),
        ] {
            assert_eq!(map.release_coalesced(freed, None), Ok(None));
            assert_eq!(map.run_at(freed.start), Some(around));
        }
        assert_eq!(map.free_runs(), vec![Extent::new(10, 15)]);
        assert!(map.release_coalesced(Extent::new(24, 2), Some(5)).is_err());
        // In granules of 8: what is left of [10, 25) around [16, 24).
        assert_eq!(
            map.release_coalesced(Extent::new(25, 1), Some(8)),
            Ok(Some(Extent::new(16, 8)))
        );
        assert_eq!(map.free_runs(), [Extent::new(10, 6), Extent::new(24, 2)]);
        assert_eq!(map.free_clusters(), 8);
        // A run holding no whole granule stays; an aligned one goes whole.
        assert_eq!(map.release_coalesced(Extent::new(30, 5), Some(8)), Ok(None));
        assert_eq!(
            map.release_coalesced(Extent::new(26, 4), Some(5)),
            Ok(Some(Extent::new(25, 10)))
        );
        assert_eq!(map.free_runs(), [Extent::new(10, 6), Extent::new(24, 1)]);
        assert_eq!(
            map.release_coalesced(Extent::new(0, 10), Some(2)),
            Ok(Some(Extent::new(0, 16)))
        );
        assert_eq!(map.free_runs(), [Extent::new(24, 1)]);
        assert_eq!(map.free_clusters(), 1);
        assert_eq!(map.verify(), Ok(()));
    }

    /// A release with a granule that joins the last run of one block to the
    /// first of the next: the tail left over the first one is that block's
    /// new first offset, and when both runs go, removing the upper one may
    /// merge its block into the one below — the lower run is found where
    /// the merge moved it.
    #[test]
    fn withdrawing_across_and_inside_blocks_keeps_the_block_list_whole() {
        let lens = |map: &RunIndexMap| map.blocks.iter().map(Vec::len).collect::<Vec<_>>();
        // Four-cluster runs at 10k + 5: blocks of 32 and 33 runs.
        let mut map = wide_comb(BLOCK_CAP as u64 + 1);
        assert_eq!(map.firsts[1], 325);
        // [315, 319) + [319, 325) + [325, 329) around [316, 328).
        assert_eq!(
            map.release_coalesced(Extent::new(319, 6), Some(4)),
            Ok(Some(Extent::new(316, 12)))
        );
        assert_eq!(lens(&map), [32, 33]);
        assert_eq!(map.firsts[1], 328);
        assert_eq!(map.run_at(328), Some(Extent::new(328, 1)));
        assert_eq!(map.run_at(315), Some(Extent::new(315, 1)));
        assert_eq!(map.verify(), Ok(()));

        // Two-cluster runs at 3k, down to blocks of 1 and 32 runs.
        let mut map = comb(BLOCK_CAP as u64 + 1);
        for k in (1..32).chain([64]) {
            map.reserve(Extent::new(3 * k, 2)).unwrap();
        }
        assert_eq!(lens(&map), [1, 32]);
        let mut expected = map.free_runs();
        expected.retain(|run| run.start != 105 && run.start != 108);
        // [105, 107) + 107 + [108, 110): five clusters, aligned on 5.
        assert_eq!(
            map.release_coalesced(Extent::new(107, 1), Some(5)),
            Ok(Some(Extent::new(105, 5)))
        );
        assert_eq!(lens(&map), [31]);
        assert_eq!(map.free_runs(), expected);
        assert_eq!(map.verify(), Ok(()));
    }

    #[test]
    fn take_at_takes_what_the_run_holds_from_the_cluster_on() {
        let mut map = RunIndexMap::new_allocated(100);
        map.release(Extent::new(10, 10)).unwrap();
        assert_eq!(map.take_at(9, 4), None);
        assert_eq!(map.take_at(20, 4), None);
        assert_eq!(map.take_at(12, 0), None);
        assert_eq!(map.take_at(12, 3), Some(Extent::new(12, 3)));
        assert_eq!(map.take_at(15, 99), Some(Extent::new(15, 5)));
        assert_eq!(map.take_at(10, 2), Some(Extent::new(10, 2)));
        assert_eq!(map.free_clusters(), 0);
        assert_eq!(map.verify(), Ok(()));
    }

    /// The first run is found without a search up to the next run's start,
    /// which is in block 0 or — the first run alone in its block — block 1.
    #[test]
    fn positions_around_the_first_run_hand_over_to_the_search_at_the_next_run() {
        let check = |map: &RunIndexMap| {
            let runs = map.free_runs();
            let (first, second) = (runs[0], runs[1]);
            assert_eq!(map.run_at(first.start), Some(first));
            assert_eq!(map.run_at(first.end() - 1), Some(first));
            assert_eq!(map.run_at(first.end()), None, "the gap after it");
            assert_eq!(map.run_at(second.start), Some(second));
            assert_eq!(map.run_at(second.end()), None);
            assert_eq!(map.run_at(runs[2].start), Some(runs[2]));
            let mut taken = map.clone();
            assert_eq!(
                taken.take_at(second.start, 1),
                Some(Extent::new(second.start, 1))
            );
            assert_eq!(taken.verify(), Ok(()));
        };
        // A full block splits into 32 + 33 runs on the 65th insert.
        let mut map = comb(BLOCK_CAP as u64 + 1);
        let lens = |map: &RunIndexMap| map.blocks.iter().map(Vec::len).collect::<Vec<_>>();
        assert_eq!(lens(&map), [32, 33]);
        check(&map);
        for k in 1..32 {
            map.reserve(Extent::new(3 * k, 2)).unwrap();
        }
        assert_eq!(lens(&map), [1, 33]);
        check(&map);
    }

    #[test]
    fn a_full_block_splits_and_the_summary_follows() {
        let mut map = comb(10 * BLOCK_CAP as u64);
        assert!(map.blocks.len() >= 10);
        // Make one run in the middle the largest by freeing the gap after it.
        map.release(Extent::new(3 * 300 + 2, 1)).unwrap();
        assert_eq!(map.largest(), Some(Extent::new(900, 5)));
        assert_eq!(map.first_fit(5, 0), Some(Extent::new(900, 5)));
        assert_eq!(map.first_fit(5, 901), None);
        assert_eq!(map.first_fit(2, 901), Some(Extent::new(906, 2)));
        assert_eq!(map.first_fit_starting_in(5, 0, 900), None);
        assert_eq!(map.run_lens_desc().take(3).collect::<Vec<_>>(), [5, 2, 2]);
        // The first length is the root; the walk that yields the rest must
        // not yield it again, nor lose a second run of its length in another
        // block.
        let mut tie = map.clone();
        tie.release(Extent::new(3 * 500 + 2, 1)).unwrap();
        let block_of =
            |map: &RunIndexMap, start| map.firsts.partition_point(|&first| first <= start);
        assert_ne!(block_of(&tie, 900), block_of(&tie, 1500));
        let mut lens = tie.run_lens_desc();
        assert_eq!(lens.next(), Some(5));
        assert_eq!(lens.next(), Some(5));
        assert_eq!(lens.next(), Some(2));
        let all: Vec<u64> = tie.run_lens_desc().collect();
        assert_eq!(all.len(), tie.run_count());
        assert_eq!(all.iter().filter(|&&len| len == 5).count(), 2);
        let one = RunIndexMap::new_free(10);
        assert_eq!(one.run_lens_desc().collect::<Vec<_>>(), [10]);
        let mut lens = one.run_lens_desc();
        assert_eq!(
            (lens.next(), lens.next(), lens.next()),
            (Some(10), None, None)
        );
        let none = RunIndexMap::new_allocated(10);
        assert_eq!(none.run_lens_desc().collect::<Vec<_>>(), []);
        // Carve its prefix: the largest is now a three-cluster run, and the
        // highest-offset one of the two-cluster runs loses the tie to it.
        map.reserve(Extent::new(900, 2)).unwrap();
        assert_eq!(map.largest(), Some(Extent::new(902, 3)));
        map.reserve(Extent::new(902, 1)).unwrap();
        assert_eq!(map.largest(), Some(Extent::new(3 * 639, 2)));
        assert_eq!(map.verify(), Ok(()));
    }

    /// Fill every block, then empty each down to one run: without merging,
    /// the list would keep a block per run.
    #[test]
    fn blocks_emptied_down_to_one_run_each_merge() {
        let runs = 40 * BLOCK_CAP as u64;
        let mut map = comb(runs);
        let blocks_when_full = map.blocks.len();
        for k in (0..runs).filter(|k| k % 32 != 0) {
            map.reserve(Extent::new(3 * k, 2)).unwrap();
        }
        assert_eq!(map.run_count() as u64, runs / 32);
        assert_eq!(map.verify(), Ok(()));
        assert!(blocks_when_full >= 40);
        assert!(
            map.blocks.len() < 4 * map.run_count() / BLOCK_CAP + 2,
            "{} blocks for {} runs",
            map.blocks.len(),
            map.run_count()
        );
        // And down to nothing: the last block goes too.
        for run in map.free_runs() {
            map.reserve(run).unwrap();
        }
        assert!(map.blocks.is_empty());
        assert_eq!(map.largest(), None);
        assert_eq!(map.verify(), Ok(()));
    }

    /// A rejected `release` or `reserve` changes nothing — not the runs, not
    /// the first-offset array, not a summary node — wherever it lands
    /// relative to a block boundary.
    #[test]
    fn rejected_operations_at_block_boundaries_leave_no_trace() {
        let mut map = comb(5 * BLOCK_CAP as u64);
        let total = map.total_clusters();
        let before = format!("{map:?}");
        let (runs_before, largest_before) = (map.free_runs(), map.largest());
        assert!(map.blocks.len() >= 5);
        for b in 0..map.blocks.len() - 1 {
            let last = *map.blocks[b].last().unwrap();
            let first = map.blocks[b + 1][0];
            let bad_frees = [
                last,
                first,
                Extent::new(last.end() - 1, 2),
                // Reaching into the first run of the next block.
                Extent::new(last.end(), first.start - last.end() + 1),
                Extent::new(first.start - 1, 2),
                Extent::new(last.start, first.end() - last.start),
            ];
            for (bad, granule) in bad_frees
                .into_iter()
                .zip([None, Some(2)].into_iter().cycle())
            {
                assert_eq!(
                    map.release_coalesced(bad, granule),
                    Err(AllocError::NotAllocated {
                        start: bad.start,
                        len: bad.len
                    })
                );
                assert_eq!(format!("{map:?}"), before, "after freeing {bad:?}");
            }
            let bad_takes = [
                Extent::new(last.start, last.len + 1),
                Extent::new(last.end(), 1),
                Extent::new(first.start - 1, 2),
                Extent::new(first.start, first.len + 1),
                Extent::new(last.start, first.end() - last.start),
            ];
            for bad in bad_takes {
                assert!(matches!(
                    map.reserve(bad),
                    Err(AllocError::NotAllocated { .. })
                ));
                assert_eq!(format!("{map:?}"), before, "after reserving {bad:?}");
            }
            assert_eq!(map.take_at(last.end(), 1), None);
        }
        let past_the_end = Extent::new(total - 1, 2);
        assert!(matches!(
            map.release(past_the_end),
            Err(AllocError::OutOfBounds { .. })
        ));
        assert!(matches!(
            map.reserve(past_the_end),
            Err(AllocError::OutOfBounds { .. })
        ));
        assert_eq!(format!("{map:?}"), before);
        assert_eq!(map.verify(), Ok(()));
        assert_eq!(map.free_runs(), runs_before);
        assert_eq!(map.largest(), largest_before);
    }

    /// `runs` four-cluster free runs ten clusters apart: six-cluster gaps.
    fn wide_comb(runs: u64) -> RunIndexMap {
        let mut map = RunIndexMap::new_allocated(10 * runs + 10);
        for k in 0..runs {
            map.release(Extent::new(10 * k + 5, 4)).unwrap();
        }
        map
    }

    /// What `release_batch` must leave: one release per run, then, with a
    /// granule, the whole aligned span of every coalesced run a released run
    /// went into cut out again.
    fn one_by_one(
        map: &RunIndexMap,
        batch: &[Extent],
        granule: Option<u64>,
    ) -> (RunIndexMap, Vec<Extent>) {
        let mut map = map.clone();
        for &run in batch {
            map.release(run).unwrap();
        }
        let mut grown: Vec<Extent> = batch
            .iter()
            .filter_map(|run| map.run_at(run.start))
            .collect();
        grown.dedup();
        let mut spans = Vec::new();
        for run in grown {
            let Some(granule) = granule else { break };
            let (start, end) = (
                run.start.div_ceil(granule) * granule,
                run.end() / granule * granule,
            );
            if start < end {
                let span = Extent::new(start, end - start);
                map.reserve(span).unwrap();
                spans.push(span);
            }
        }
        (map, spans)
    }

    fn assert_batch_matches(map: &RunIndexMap, batch: &[Extent], granule: Option<u64>) {
        let (expected, expected_spans) = one_by_one(map, batch, granule);
        let mut map = map.clone();
        let mut spans = Vec::new();
        let mut cut = |span| spans.push(span);
        let withdraw = granule.map(|granule| (granule, &mut cut as &mut dyn FnMut(Extent)));
        map.release_batch(batch.iter().copied(), withdraw).unwrap();
        assert_eq!(map.verify(), Ok(()), "{batch:?}");
        assert_eq!(map.free_runs(), expected.free_runs(), "{batch:?}");
        assert_eq!(map.free_clusters(), expected.free_clusters());
        assert_eq!(map.run_count(), expected.run_count());
        assert_eq!(map.largest(), expected.largest());
        assert_eq!(
            spans, expected_spans,
            "{batch:?} in granules of {granule:?}"
        );
    }

    #[test]
    fn a_batch_release_leaves_what_one_release_per_run_leaves() {
        let map = wide_comb(20 * BLOCK_CAP as u64);
        let gap = |k: u64| 10 * k + 9; // six clusters, from 10k + 9 to 10k + 15
        let batches: Vec<Vec<Extent>> = vec![
            vec![],
            vec![Extent::new(gap(300), 1)],
            // Touching the run below, the run above, neither; a whole gap.
            (0..40)
                .map(|k| match k % 4 {
                    0 => Extent::new(gap(k), 2),
                    1 => Extent::new(gap(k) + 4, 2),
                    2 => Extent::new(gap(k) + 2, 1),
                    _ => Extent::new(gap(k), 6),
                })
                .collect(),
            // Touching each other, in and out of empty runs.
            vec![
                Extent::new(gap(7) + 1, 1),
                Extent::new(gap(7) + 2, 0),
                Extent::new(gap(7) + 2, 2),
                Extent::new(gap(8), 6),
                Extent::new(gap(9), 6),
            ],
            // Every gap of a stretch of blocks, every third gap of all.
            (100..100 + 3 * BLOCK_CAP as u64)
                .map(|k| Extent::new(gap(k), 6))
                .collect(),
            (0..20 * BLOCK_CAP as u64)
                .step_by(3)
                .map(|k| Extent::new(gap(k) + 1, 3))
                .collect(),
            // Below the first run and past the last.
            vec![
                Extent::new(0, 5),
                Extent::new(10 * 20 * BLOCK_CAP as u64 + 9, 1),
            ],
        ];
        for batch in &batches {
            for granule in [None, Some(1), Some(8), Some(10)] {
                assert_batch_matches(&map, batch, granule);
            }
        }
        // Into a map with no free run at all, and into a full one's gaps.
        let empty = RunIndexMap::new_allocated(1_000);
        let spread: Vec<Extent> = (0..150).map(|k| Extent::new(6 * k + 1, 4)).collect();
        for granule in [None, Some(8)] {
            assert_batch_matches(&empty, &spread, granule);
            assert_batch_matches(&empty, &[Extent::new(0, 1_000)], granule);
        }
    }

    /// Blocks the batch does not reach are moved into the new list, not
    /// copied, and a block it reaches is rebuilt in its own buffer: no
    /// buffer changes hands unless a block overflows or two merge.
    #[test]
    fn a_batch_release_keeps_every_block_in_its_own_buffer() {
        let mut map = wide_comb(20 * BLOCK_CAP as u64);
        let buffers: Vec<*const Extent> = map.blocks.iter().map(|block| block.as_ptr()).collect();
        let batch = [
            Extent::new(10 * 600 + 9, 6),
            Extent::new(10 * 601 + 10, 2),
            Extent::new(10 * 900 + 9, 1),
        ];
        map.release_batch(batch, None).unwrap();
        assert_eq!(map.verify(), Ok(()));
        let now: Vec<*const Extent> = map.blocks.iter().map(|block| block.as_ptr()).collect();
        assert_eq!(now, buffers);
    }

    /// A rejected batch changes nothing, not even the blocks' layout; the
    /// error names the first offending run.
    #[test]
    fn a_rejected_batch_leaves_no_trace() {
        let mut map = wide_comb(5 * BLOCK_CAP as u64);
        let before = format!("{map:?}");
        let good = Extent::new(19, 2);
        let cases = [
            (
                vec![good, Extent::new(28, 3)],
                AllocError::NotAllocated { start: 28, len: 3 },
            ),
            (
                vec![good, Extent::new(20, 2)],
                AllocError::NotAllocated { start: 20, len: 2 },
            ),
            (
                vec![Extent::new(29, 1), good],
                AllocError::UnsortedBatch { start: 19, len: 2 },
            ),
            (
                vec![good, Extent::new(map.total_clusters() - 1, 2)],
                AllocError::OutOfBounds {
                    start: map.total_clusters() - 1,
                    len: 2,
                    total: map.total_clusters(),
                },
            ),
        ];
        for (batch, error) in cases {
            let mut cut = |_| panic!("nothing is withdrawn from a rejected batch");
            assert_eq!(
                map.release_batch(batch.iter().copied(), Some((8, &mut cut))),
                Err(error)
            );
            assert_eq!(format!("{map:?}"), before, "after {batch:?}");
        }
    }

    #[test]
    fn verify_names_the_violated_invariant() {
        let map = comb(3 * BLOCK_CAP as u64);
        assert_eq!(map.verify(), Ok(()));

        // Counters that drifted from the runs.
        let mut drifted = map.clone();
        drifted.free += 1;
        assert!(drifted.verify().unwrap_err().contains("free counter"));
        let mut drifted = map.clone();
        drifted.runs -= 1;
        assert!(drifted.verify().unwrap_err().contains("run counter"));

        // Runs that touch, overlap or fall out of order; an empty one.
        let mut touching = map.clone();
        touching.blocks[0][1].start -= 1;
        assert!(touching.verify().unwrap_err().contains("apart from"));
        let mut unordered = map.clone();
        unordered.blocks[1].swap(2, 3);
        assert!(unordered.verify().unwrap_err().contains("apart from"));
        let mut hollow = map.clone();
        hollow.blocks[1][4].len = 0;
        assert!(hollow.verify().unwrap_err().contains("empty or outside"));

        // A block list out of shape.
        let mut gaping = map.clone();
        gaping.blocks[1].clear();
        assert!(gaping.verify().unwrap_err().contains("outside 1..=64"));
        let mut sparse = map.clone();
        let moved = sparse.blocks[0].split_off(1);
        sparse.blocks[1].splice(0..0, moved);
        sparse.blocks[1].truncate(MERGE_AT - 1);
        assert!(sparse.verify().unwrap_err().contains("must have merged"));

        // A first offset or a summary node nobody updated.
        let mut stale = map.clone();
        stale.firsts[1] += 1;
        assert!(stale.verify().unwrap_err().contains("first offset"));
        let mut stale = map.clone();
        let leaf = stale.leaf(1);
        stale.summary[leaf].0 += 1;
        assert!(stale.verify().unwrap_err().contains("summary node"));
        let mut stale = map.clone();
        stale.summary[1] = NO_RUN;
        assert!(stale.verify().unwrap_err().contains("summary node 1 "));
    }

    #[test]
    fn run_index_and_bitmap_agree_on_a_scenario() {
        let (mut runs, mut bitmap) = both(200);
        let script = [
            (true, Extent::new(0, 64)),
            (true, Extent::new(64, 64)),
            (false, Extent::new(16, 32)),
            (true, Extent::new(16, 8)),
            (false, Extent::new(100, 28)),
            (true, Extent::new(150, 25)),
            (true, Extent::new(24, 24)),
        ];
        for (reserve, extent) in script {
            if reserve {
                runs.reserve(extent).unwrap();
                bitmap.reserve(extent).unwrap();
            } else {
                runs.release(extent).unwrap();
                bitmap.release(extent).unwrap();
            }
            assert_eq!(runs.free_runs(), bitmap.free_runs());
            assert_eq!(runs.free_clusters(), bitmap.free_clusters());
        }
    }
}
