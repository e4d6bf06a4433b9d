//! The segment log proper: append-head bookkeeping, extent maps, and the
//! cleaner.  All offsets handed out are absolute device byte offsets (the
//! metadata slice at the front of the volume is skipped), so a wrapping store
//! can feed them straight into a disk model.
//!
//! # How the cleaner finds its victim
//!
//! A *candidate* is a sealed segment (`written == segment_bytes`, so not an
//! open head and not free) with at least one dead byte.  The victim is the
//! candidate with the highest [`CleanerSelector`] score, ties to the lowest
//! index.  An aged log calls for one on every append that finds the free
//! pool dry, so scoring every segment each time was most of the log's host
//! cost (EXPERIMENTS.md, "Host cost of the segment log").
//!
//! Instead the log keeps, per block of `SUMMARY_BLOCK` segments, the minimum
//! `live` and the minimum `youngest_seq` among the block's candidates.  Both
//! selectors are monotone non-increasing in each of the two, and every
//! floating-point step of the score (integer → float, `+`, `·`, `/` on
//! non-negative operands) rounds monotonically, so the score *expression*
//! evaluated at a block's two minima is ≥ the score of every member **as a
//! float** — an upper bound that needs no error term.  A selection evaluates
//! that bound once per block, scores the members of the best-bounded block,
//! and then of every other block whose bound is `≥` the best score so far
//! (`≥`, not `>`: a tie may hide a lower index).  A block it skips holds
//! nothing that could win or tie, so the victim is the full scan's victim for
//! every input.
//!
//! The summary is kept **exact**, not conservative, and cheaply so because a
//! sealed segment's `live` only falls and its `youngest_seq` never changes:
//! a segment that becomes a candidate (a head seals with dead bytes, or a
//! fully-live sealed segment loses its first byte) or a candidate that loses
//! bytes can only lower its block's minima — one O(1) `min` fold — and the
//! only way out of candidacy is being freed as a victim, which recomputes
//! that one block.  [`SegmentLog::verify`] recomputes every block.
//!
//! Cost of a selection over `n` segments in blocks of `B`: `n/B` bounds plus
//! the blocks scored.  On the aged single-size benchmark log every selection
//! scores exactly one block (at most 145 + 64 evaluations against 9,238);
//! the worst case — every bound tied with the best score — is `n + n/B`,
//! 1.6 % over the scan it replaced.
//!
//! # Why a cleaning pass ends
//!
//! A pass rewrites each survivor *in full*, so a survivor straddling the
//! victim also dies in the segment it straddled into — often the pass's own
//! output, and the cleaner then chases itself round the log.  So a pass,
//! which lasts from a [`SegmentLog::clean_step`] to the next insert, update
//! or remove, never selects a segment opened after it began: each segment is
//! a victim at most once per pass, [`SegmentLog::clean_all`] ends within
//! [`SegmentLog::segment_count`] victims, and a second one frees nothing.
//! (Stamping a segment's *last* append instead also excludes the cleaner
//! head a pass inherits, and moved the log's adaptive frontier.)  Stopping
//! once a round frees nothing net was rejected: it bounds no pass by the
//! segment count, as a victim whose straddlers nearly fill a segment still
//! frees a few bytes.
//!
//! # The object table
//!
//! Objects are found by the caller's `u64` id in a hash table with a fixed
//! state — ids are the caller's to choose, so sparse and unbounded, and no
//! `Vec` can index them.  Every use on an operation's path is a point
//! look-up; the cleaner takes its order from the per-segment resident lists
//! (ascending, and that order decides the layout), never from the table, so
//! the table's own order reaches no simulated result.  [`SegmentLog::ids`]
//! sorts on demand and [`SegmentLog::verify`] needs no order.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::fmt;
use std::hash::BuildHasherDefault;
use std::mem;

use lor_alloc::{
    Extent, ExtentListExt, FragmentationSummary, FragmentationTracker, FreeSpace,
    PlacementConsumer, RunIndexMap,
};

use crate::config::{CleanerSelector, LogConfig};

/// Errors the log can raise.  Object identity is a caller-assigned `u64`; the
/// wrapping store owns the name-to-id map, mirroring how the filesystem
/// substrate owns its directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LogError {
    /// Insert of an id that is already live.
    ObjectExists(u64),
    /// Update/remove of an id that is not live.
    NoSuchObject(u64),
    /// No eligible free segment (for the foreground: even after emergency
    /// cleaning; for the cleaner: placement refused, it never spills).
    OutOfSpace,
    /// Rejected configuration.
    BadConfig(&'static str),
}

impl fmt::Display for LogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LogError::ObjectExists(id) => write!(f, "object {id} already exists"),
            LogError::NoSuchObject(id) => write!(f, "no such object {id}"),
            LogError::OutOfSpace => write!(f, "log is out of eligible free segments"),
            LogError::BadConfig(message) => write!(f, "bad log config: {message}"),
        }
    }
}

impl std::error::Error for LogError {}

/// What one cleaning pass (or one emergency vacate) did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CleanReport {
    /// Live payload bytes copied out of victim segments.
    pub bytes_copied: u64,
    /// Surviving objects (re)written.
    pub objects_moved: u64,
    /// Victim segments returned to the free pool.
    pub segments_freed: u64,
}

impl CleanReport {
    /// `true` when the pass found nothing to do.
    pub fn is_empty(&self) -> bool {
        self.segments_freed == 0 && self.bytes_copied == 0
    }

    /// Accumulates another report into this one.
    pub fn absorb(&mut self, other: CleanReport) {
        self.bytes_copied += other.bytes_copied;
        self.objects_moved += other.objects_moved;
        self.segments_freed += other.segments_freed;
    }
}

/// The result of a mutating append: where the bytes landed, how fragmented
/// the object now is, and any emergency cleaning the append forced (the
/// wrapping store charges that I/O to the foreground operation).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppendOutcome {
    /// The new version's extents, in object byte order (absolute offsets).
    pub extents: Vec<Extent>,
    /// Coalesced fragment count of the new version.
    pub fragments: u64,
    /// Emergency cleaning performed to make room for this append.
    pub emergency: CleanReport,
}

/// Point-in-time view of segment occupancy for gauges and figures.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SegmentStats {
    /// Data segments on the volume.
    pub total_segments: u64,
    /// Segments in the free pool.
    pub free_segments: u64,
    /// Segments holding data (open heads included).
    pub occupied_segments: u64,
    /// Mean live fraction over occupied segments (1.0 = fully live).
    pub mean_utilization: f64,
    /// Occupied-segment count per utilization decile (`[0.0,0.1) .. [0.9,1.0]`).
    pub utilization_deciles: [u64; 10],
}

/// One victim selection: the segment chosen and the work choosing it took.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Selection {
    /// The winning segment; `None` when no candidate qualifies.
    pub victim: Option<u64>,
    /// Evaluations of the selector's score expression the selection made —
    /// block bounds and segment scores alike.  Tests pin it so that a
    /// regression to scoring every segment fails a test, not a benchmark.
    pub evaluations: u64,
}

/// Segments per block of the cleaner's summary.  A selection on the aged
/// 9,238-segment benchmark log costs `n/B + B` evaluations; measured there,
/// 32 to 256 read the same and 16 a few per cent behind (EXPERIMENTS.md,
/// "Host cost of the segment log").
const SUMMARY_BLOCK: usize = 64;

/// Room each segment's resident list is formatted with.  Lists that start
/// empty and grow with the log cost the benchmark 16 % of its peak RSS for
/// 1.2 MB of ids — their first, smallest allocations interleave with the
/// extent vectors of the objects being written; any of 8, 16 or 32 up front
/// reads at or under the ordered-set form (EXPERIMENTS.md, "Host cost of the
/// segment log").
const RESIDENTS_AT_FORMAT: usize = 8;

/// The minima over one block's candidates; what makes them an upper bound on
/// the block's scores, and exact, is argued in the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct BlockSummary {
    min_live: u64,
    min_youngest_seq: u64,
}

impl BlockSummary {
    /// A block without candidates: `min_live` is over any segment size.
    const EMPTY: Self = BlockSummary {
        min_live: u64::MAX,
        min_youngest_seq: u64::MAX,
    };

    fn fold(&mut self, candidate: &Segment) {
        self.min_live = self.min_live.min(candidate.live);
        self.min_youngest_seq = self.min_youngest_seq.min(candidate.youngest_seq);
    }
}

/// The selector's score of a candidate with `live` bytes whose last append
/// was at `youngest_seq` — the one expression behind both a segment's score
/// and a block's bound.
fn victim_score(
    selector: CleanerSelector,
    segment_bytes: u64,
    now_seq: u64,
    live: u64,
    youngest_seq: u64,
) -> f64 {
    let free_bytes = segment_bytes - live;
    match selector {
        CleanerSelector::CostBenefit => {
            let age = (now_seq - youngest_seq + 1) as f64;
            let utilization = live as f64 / segment_bytes as f64;
            free_bytes as f64 * age / (1.0 + utilization)
        }
        CleanerSelector::Greedy => free_bytes as f64,
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Segment {
    /// Bytes appended so far (the head offset while open; the full segment
    /// once sealed; 0 when free).
    written: u64,
    /// Bytes still live.
    live: u64,
    /// Sequence number of the most recent append into this segment — the
    /// cleaner's age reference.
    youngest_seq: u64,
    /// Sequence number of the append that opened it: a cleaning pass never
    /// selects a segment it opened.
    opened_seq: u64,
}

#[derive(Debug, Clone)]
struct ObjectRecord {
    size: u64,
    extents: Vec<Extent>,
}

/// The append-only segment log.  See the crate docs for the model.
#[derive(Debug, Clone)]
pub struct SegmentLog {
    config: LogConfig,
    /// First data byte (the metadata slice lies below it).
    base_offset: u64,
    /// Free-segment map, one cluster per segment: the same structure the
    /// other substrates allocate clusters from, so placement policies apply
    /// to segment selection unchanged.
    free: RunIndexMap,
    free_count: u64,
    segments: Vec<Segment>,
    /// One entry per `SUMMARY_BLOCK` segments, always equal to its
    /// recomputation (`block_summary`).
    summary: Vec<BlockSummary>,
    /// Object ids with at least one live extent in each segment — the
    /// cleaner's reverse index.  Each list strictly ascending: a victim's
    /// survivors are moved in that order, and the order decides the layout.
    residents: Vec<Vec<u64>>,
    /// Every live object by id, hashed with a fixed state; no simulated
    /// result reads its order (module docs, "The object table").
    objects: HashMap<u64, ObjectRecord, BuildHasherDefault<DefaultHasher>>,
    tracker: FragmentationTracker,
    /// Open foreground append head.
    fg_head: Option<u64>,
    /// Open cleaner append head (maintenance placement consumer).
    maint_head: Option<u64>,
    /// Logical clock: bumped once per append operation.
    seq: u64,
    /// `seq` when the cleaning pass under way began; `None` outside a pass
    /// (module docs, "Why a cleaning pass ends").
    pass_start: Option<u64>,
    live_bytes: u64,
    dead_bytes: u64,
    cleaned: CleanReport,
    emergency: CleanReport,
}

/// Pushes `piece` onto `extents`, merging with the last when contiguous.
fn push_coalesced(extents: &mut Vec<Extent>, piece: Extent) {
    if piece.is_empty() {
        return;
    }
    match extents.last_mut() {
        Some(last) if last.end() == piece.start => last.len += piece.len,
        _ => extents.push(piece),
    }
}

impl SegmentLog {
    /// Formats a fresh log.
    pub fn new(config: LogConfig) -> Result<Self, LogError> {
        config.validate().map_err(LogError::BadConfig)?;
        let total = config.total_segments();
        let meta = (total / 32).max(1);
        let data = total - meta;
        Ok(SegmentLog {
            base_offset: meta * config.segment_bytes,
            free: RunIndexMap::new_free(data),
            free_count: data,
            segments: vec![Segment::default(); data as usize],
            summary: vec![BlockSummary::EMPTY; (data as usize).div_ceil(SUMMARY_BLOCK)],
            residents: (0..data)
                .map(|_| Vec::with_capacity(RESIDENTS_AT_FORMAT))
                .collect(),
            objects: HashMap::default(),
            tracker: FragmentationTracker::new(),
            fg_head: None,
            maint_head: None,
            seq: 0,
            pass_start: None,
            live_bytes: 0,
            dead_bytes: 0,
            cleaned: CleanReport::default(),
            emergency: CleanReport::default(),
            config,
        })
    }

    /// The configuration the log was formatted with.
    pub fn config(&self) -> &LogConfig {
        &self.config
    }

    /// First data byte on the device.
    pub fn base_offset(&self) -> u64 {
        self.base_offset
    }

    /// Data segments on the volume.
    pub fn segment_count(&self) -> u64 {
        self.segments.len() as u64
    }

    /// Bytes the data segments can hold.
    pub fn data_capacity_bytes(&self) -> u64 {
        self.segment_count() * self.config.segment_bytes
    }

    /// Total live payload bytes.
    pub fn live_bytes(&self) -> u64 {
        self.live_bytes
    }

    /// Dead (deadened, not yet cleaned) bytes across occupied segments —
    /// what the cleaner could reclaim.
    pub fn dead_bytes(&self) -> u64 {
        self.dead_bytes
    }

    /// Live object count.
    pub fn object_count(&self) -> usize {
        self.objects.len()
    }

    /// `true` when `id` is live.
    pub fn contains(&self, id: u64) -> bool {
        self.objects.contains_key(&id)
    }

    /// Live object ids, ascending (sorted on demand: the object table is
    /// hashed, and only tests and reports ask).
    pub fn ids(&self) -> impl Iterator<Item = u64> + '_ {
        let mut ids: Vec<u64> = self.objects.keys().copied().collect();
        ids.sort_unstable();
        ids.into_iter()
    }

    /// Size of a live object.
    pub fn size_of(&self, id: u64) -> Result<u64, LogError> {
        self.objects
            .get(&id)
            .map(|record| record.size)
            .ok_or(LogError::NoSuchObject(id))
    }

    /// The object's extents in byte order (absolute device offsets).
    pub fn extents_of(&self, id: u64) -> Result<&[Extent], LogError> {
        self.objects
            .get(&id)
            .map(|record| record.extents.as_slice())
            .ok_or(LogError::NoSuchObject(id))
    }

    /// Fragment summary over all live objects.
    pub fn fragmentation(&self) -> FragmentationSummary {
        self.tracker.summary()
    }

    /// The free-segment map (one cluster per segment), for free-space
    /// reports and band occupancy.
    pub fn free_map(&self) -> &RunIndexMap {
        &self.free
    }

    /// Cumulative background-cleaner totals.
    pub fn cleaner_totals(&self) -> CleanReport {
        self.cleaned
    }

    /// Cumulative emergency (allocation-pressure) cleaning totals.
    pub fn emergency_totals(&self) -> CleanReport {
        self.emergency
    }

    /// Segment-occupancy snapshot.
    pub fn segment_stats(&self) -> SegmentStats {
        let segment_bytes = self.config.segment_bytes;
        let total = self.segment_count();
        let occupied = total - self.free_count;
        let mut deciles = [0u64; 10];
        // Unwritten is free ([`SegmentLog::verify`] holds the two equal).
        for segment in self.segments.iter().filter(|segment| segment.written > 0) {
            let utilization = segment.live as f64 / segment_bytes as f64;
            let bucket = ((utilization * 10.0) as usize).min(9);
            deciles[bucket] += 1;
        }
        let mean_utilization = if occupied == 0 {
            1.0
        } else {
            self.live_bytes as f64 / (occupied * segment_bytes) as f64
        };
        SegmentStats {
            total_segments: total,
            free_segments: self.free_count,
            occupied_segments: occupied,
            mean_utilization,
            utilization_deciles: deciles,
        }
    }

    /// Checks the log's structural invariants, naming the first one violated:
    ///
    /// * the two heads are distinct, open (`0 < written < segment_bytes`) and
    ///   every other occupied segment is sealed;
    /// * per segment `live ≤ written ≤ segment_bytes`, and `live` is the sum
    ///   of the live extents' bytes inside it;
    /// * the segment totals add up to `live_bytes` and `dead_bytes`;
    /// * the free map holds exactly the unwritten segments, `free_segments`
    ///   counts them, and the map's own structure holds
    ///   ([`lor_alloc::RunIndexMap::verify`]);
    /// * `residents[s]` is exactly the objects with an extent in `s`;
    /// * every object's extents add up to its size, and the fragmentation
    ///   tracker answers what a recount of every object would;
    /// * every block of the cleaner's summary equals its recomputation.
    ///
    /// O(extents + segments); debug builds run it after every emergency
    /// vacate, cleaner rewrite and failed append.
    pub fn verify(&self) -> Result<(), String> {
        let segment_bytes = self.config.segment_bytes;
        if self.fg_head.is_some() && self.fg_head == self.maint_head {
            return Err(format!("both heads are segment {:?}", self.fg_head));
        }
        for (name, head) in [
            ("foreground", self.fg_head),
            ("maintenance", self.maint_head),
        ] {
            let Some(idx) = head else { continue };
            let written = self.segments[idx as usize].written;
            if written == 0 || written >= segment_bytes {
                return Err(format!(
                    "{name} head {idx} is not open: {written} of {segment_bytes} bytes written"
                ));
            }
        }

        let mut live = vec![0u64; self.segments.len()];
        let mut resident_objects = vec![0usize; self.segments.len()];
        let mut recount = FragmentationTracker::new();
        let data_end = self.base_offset + self.data_capacity_bytes();
        let mut covered = Vec::new();
        for (id, record) in &self.objects {
            let total: u64 = record.extents.iter().map(|extent| extent.len).sum();
            if total != record.size {
                return Err(format!(
                    "object {id} is {} bytes but its extents hold {total}",
                    record.size
                ));
            }
            recount.record_insert(record.extents.fragment_count() as u64);
            for extent in &record.extents {
                if extent.start < self.base_offset || extent.end() > data_end {
                    return Err(format!("object {id} has {extent:?} outside the data area"));
                }
                for (idx, part) in self.parts(*extent) {
                    live[idx] += part;
                    covered.push(idx);
                }
            }
            covered.sort_unstable();
            covered.dedup();
            for idx in covered.drain(..) {
                if self.residents[idx].binary_search(id).is_err() {
                    return Err(format!(
                        "object {id} has bytes in segment {idx} but is not resident there"
                    ));
                }
                resident_objects[idx] += 1;
            }
        }

        let mut in_free_map = vec![false; self.segments.len()];
        for run in self.free.free_runs() {
            in_free_map[run.start as usize..run.end() as usize].fill(true);
        }
        let (mut live_sum, mut dead_sum, mut unwritten) = (0, 0, 0);
        for (idx, segment) in self.segments.iter().enumerate() {
            if segment.live > segment.written || segment.written > segment_bytes {
                return Err(format!(
                    "segment {idx}: live {} <= written {} <= {segment_bytes} does not hold",
                    segment.live, segment.written
                ));
            }
            if segment.live != live[idx] {
                return Err(format!(
                    "segment {idx} counts {} live bytes but live extents cover {}",
                    segment.live, live[idx]
                ));
            }
            if !self.residents[idx].windows(2).all(|pair| pair[0] < pair[1]) {
                return Err(format!(
                    "segment {idx}'s residents are not strictly ascending"
                ));
            }
            // Every object was found in the lists above, so equal counts mean
            // the lists hold nothing else.
            if self.residents[idx].len() != resident_objects[idx] {
                return Err(format!(
                    "segment {idx} lists {} residents but {} objects have extents there",
                    self.residents[idx].len(),
                    resident_objects[idx]
                ));
            }
            let is_head = [self.fg_head, self.maint_head].contains(&Some(idx as u64));
            if segment.written > 0 && segment.written < segment_bytes && !is_head {
                return Err(format!(
                    "segment {idx} is open ({} bytes written) but is no head",
                    segment.written
                ));
            }
            if in_free_map[idx] != (segment.written == 0) {
                return Err(format!(
                    "segment {idx} has {} bytes written but the free map disagrees",
                    segment.written
                ));
            }
            live_sum += segment.live;
            dead_sum += segment.written - segment.live;
            unwritten += u64::from(segment.written == 0);
        }
        if live_sum != self.live_bytes {
            return Err(format!(
                "segments hold {live_sum} live bytes but live_bytes is {}",
                self.live_bytes
            ));
        }
        if dead_sum != self.dead_bytes {
            return Err(format!(
                "segments hold {dead_sum} dead bytes but dead_bytes is {}",
                self.dead_bytes
            ));
        }
        if unwritten != self.free_count || self.free.free_clusters() != self.free_count {
            return Err(format!(
                "free_segments is {} but {unwritten} segments are unwritten and the map holds {}",
                self.free_count,
                self.free.free_clusters()
            ));
        }
        self.free.verify()?;
        if self.tracker.summary() != recount.summary() {
            return Err(format!(
                "fragmentation tracker {:?} != recount {:?}",
                self.tracker.summary(),
                recount.summary()
            ));
        }
        for (block, kept) in self.summary.iter().enumerate() {
            let recomputed = self.block_summary(block);
            if *kept != recomputed {
                return Err(format!(
                    "summary of block {block} is {kept:?} but its candidates give {recomputed:?}"
                ));
            }
        }
        Ok(())
    }

    /// Runs [`SegmentLog::verify`] in debug builds, after the steps that move
    /// the most state around.
    fn debug_verify(&self) {
        #[cfg(debug_assertions)]
        if let Err(violation) = self.verify() {
            panic!("segment log invariant violated: {violation}");
        }
    }

    /// Inserts a new object of `size` bytes at the foreground head.
    pub fn insert(&mut self, id: u64, size: u64) -> Result<AppendOutcome, LogError> {
        self.pass_start = None;
        if self.objects.contains_key(&id) {
            return Err(LogError::ObjectExists(id));
        }
        let emergency = self.ensure_space_for(size)?;
        let extents = self.append_bytes(size, PlacementConsumer::Foreground)?;
        let fragments = extents.fragment_count() as u64;
        self.replace_residents(id, &[], &extents);
        self.tracker.record_insert(fragments);
        self.objects.insert(
            id,
            ObjectRecord {
                size,
                extents: extents.clone(),
            },
        );
        Ok(AppendOutcome {
            extents,
            fragments,
            emergency,
        })
    }

    /// Inserts a new object through the *maintenance* head — shard
    /// migration and other background ingest are placed like cleaner output,
    /// so the foreground head's locality is undisturbed.  Never triggers
    /// emergency cleaning: if the placement policy refuses the cleaner's band
    /// the space, the caller gets [`LogError::OutOfSpace`].
    pub fn insert_as_maintenance(&mut self, id: u64, size: u64) -> Result<AppendOutcome, LogError> {
        self.pass_start = None;
        if self.objects.contains_key(&id) {
            return Err(LogError::ObjectExists(id));
        }
        let extents = self.append_bytes(size, Self::maintenance_consumer())?;
        let fragments = extents.fragment_count() as u64;
        self.replace_residents(id, &[], &extents);
        self.tracker.record_insert(fragments);
        self.objects.insert(
            id,
            ObjectRecord {
                size,
                extents: extents.clone(),
            },
        );
        Ok(AppendOutcome {
            extents,
            fragments,
            emergency: CleanReport::default(),
        })
    }

    /// Writes a new version of a live object (append-then-deaden: the old
    /// copy stays live until the new one is fully on disk, so the transient
    /// footprint is both versions — the log's safe write).
    pub fn update(&mut self, id: u64, size: u64) -> Result<AppendOutcome, LogError> {
        self.pass_start = None;
        if !self.objects.contains_key(&id) {
            return Err(LogError::NoSuchObject(id));
        }
        let emergency = self.ensure_space_for(size)?;
        let extents = self.append_bytes(size, PlacementConsumer::Foreground)?;
        let fragments = extents.fragment_count() as u64;
        let record = self.record_mut(id);
        record.size = size;
        let old = mem::replace(&mut record.extents, extents.clone());
        self.deaden(&old);
        self.replace_residents(id, &old, &extents);
        self.tracker
            .record_replace(old.fragment_count() as u64, fragments);
        Ok(AppendOutcome {
            extents,
            fragments,
            emergency,
        })
    }

    /// Deadens and forgets a live object; its bytes wait for the cleaner.
    pub fn remove(&mut self, id: u64) -> Result<u64, LogError> {
        self.pass_start = None;
        let record = self.objects.remove(&id).ok_or(LogError::NoSuchObject(id))?;
        self.deaden(&record.extents);
        self.replace_residents(id, &record.extents, &[]);
        self.tracker
            .record_remove(record.extents.fragment_count() as u64);
        Ok(record.size)
    }

    /// One budgeted background cleaning pass: picks victims with the
    /// configured selector and rewrites each survivor *in full* through the
    /// maintenance placement consumer (compacting it), until `copy_budget`
    /// live bytes have moved or nothing is worth cleaning.  The first victim
    /// always completes once started (progress guarantee); fully-dead
    /// segments are reclaimed for free and do not count against the budget.
    /// Begins a cleaning pass unless one is under way (module docs).
    pub fn clean_step(&mut self, copy_budget: u64) -> Result<CleanReport, LogError> {
        self.pass_start.get_or_insert(self.seq);
        let mut report = CleanReport::default();
        while let Some(victim) = self.next_victim(None).victim {
            let survivors = self.residents[victim as usize].clone();
            let survivor_bytes: u64 = survivors.iter().map(|id| self.objects[id].size).sum();
            if report.bytes_copied > 0 && report.bytes_copied + survivor_bytes > copy_budget {
                break;
            }
            match self.rewrite_segment(victim, survivors, survivor_bytes) {
                Ok(cleaned) => report.absorb(cleaned),
                // Placement refused the cleaner a destination: maintenance
                // never spills, so the pass ends here.
                Err(LogError::OutOfSpace) => break,
                Err(other) => return Err(other),
            }
            if report.bytes_copied >= copy_budget {
                break;
            }
        }
        self.cleaned.absorb(report);
        Ok(report)
    }

    /// Cleans until nothing is worth cleaning, within
    /// [`SegmentLog::segment_count`] victims (the full-rebuild analogue of
    /// the filesystem's offline defragmentation).
    pub fn clean_all(&mut self) -> Result<CleanReport, LogError> {
        self.clean_step(u64::MAX)
    }

    /// Space the foreground could append right now: the open head's spare
    /// plus every free segment (the foreground spills across bands).
    fn foreground_available(&self) -> u64 {
        let spare = self.fg_head.map_or(0, |idx| {
            self.config.segment_bytes - self.segments[idx as usize].written
        });
        spare + self.free_count * self.config.segment_bytes
    }

    /// Space the cleaner could append right now under the placement policy.
    fn maintenance_available(&self) -> u64 {
        let segment_bytes = self.config.segment_bytes;
        let consumer = Self::maintenance_consumer();
        let spare = self
            .maint_head
            .map_or(0, |idx| segment_bytes - self.segments[idx as usize].written);
        let eligible_segments = if let Some(cap) = self.config.placement.run_cap(consumer) {
            self.free
                .free_runs()
                .iter()
                .filter(|run| run.len <= cap)
                .map(|run| run.len)
                .sum()
        } else if let Some((lo, hi)) = self
            .config
            .placement
            .primary_band(self.segment_count(), consumer)
        {
            self.free
                .free_runs()
                .iter()
                .map(|run| run.end().min(hi).saturating_sub(run.start.max(lo)))
                .sum()
        } else {
            self.free_count
        };
        spare + eligible_segments * segment_bytes
    }

    /// The one maintenance consumer the log ever presents: an append needs at
    /// most one free segment at a time, so the foreground watermark is a
    /// single segment.  Under `Reserve` the cleaner is thereby confined to
    /// isolated single-segment holes — the long runs stay with the
    /// foreground.
    fn maintenance_consumer() -> PlacementConsumer {
        PlacementConsumer::Maintenance {
            foreground_watermark: 1,
        }
    }

    /// Frees enough space for a `size`-byte foreground append, vacating
    /// victims through the foreground head under allocation pressure.  Keeps
    /// one segment of slack so the emergency path itself never wedges.
    fn ensure_space_for(&mut self, size: u64) -> Result<CleanReport, LogError> {
        let mut report = CleanReport::default();
        loop {
            let available = self.foreground_available();
            if available >= size + self.config.segment_bytes {
                break;
            }
            // Without dead bytes a vacate frees nothing it does not refill.
            let victim = if self.dead_bytes > 0 {
                self.next_victim(Some(available)).victim
            } else {
                None
            };
            let Some(victim) = victim else {
                if available >= size {
                    break;
                }
                self.debug_verify();
                return Err(LogError::OutOfSpace);
            };
            report.absorb(self.vacate_segment(victim)?);
        }
        self.emergency.absorb(report);
        Ok(report)
    }

    /// The victim the cleaner would take next under the configured selector
    /// (`max_live` caps the survivors the emergency path can afford to copy),
    /// with the work the selection took.  While a cleaning pass is under
    /// way, the segments it opened are not candidates.
    pub fn next_victim(&self, max_live: Option<u64>) -> Selection {
        self.select_victim(self.config.selector, max_live)
    }

    /// The best victim under `selector` among the candidates with at most
    /// `max_live` live bytes that the pass under way, if any, did not open.
    /// Deterministic: ties keep the lowest index.
    /// Block bounds first, then only the blocks that could hold the winner
    /// (module docs).
    fn select_victim(&self, selector: CleanerSelector, max_live: Option<u64>) -> Selection {
        let segment_bytes = self.config.segment_bytes;
        let affordable = |live: u64| max_live.is_none_or(|cap| live <= cap);
        let eligible = |segment: &Segment| {
            affordable(segment.live) && self.pass_start.is_none_or(|at| segment.opened_seq <= at)
        };
        let score = |live, youngest_seq| {
            victim_score(selector, segment_bytes, self.seq, live, youngest_seq)
        };
        let mut evaluations = 0;

        let bounds: Vec<Option<f64>> = self
            .summary
            .iter()
            .map(|block| {
                (block.min_live < segment_bytes && affordable(block.min_live)).then(|| {
                    evaluations += 1;
                    score(block.min_live, block.min_youngest_seq)
                })
            })
            .collect();
        let mut first: Option<(f64, usize)> = None;
        for (block, bound) in bounds.iter().enumerate() {
            if let Some(bound) = *bound {
                if first.is_none_or(|(best, _)| bound > best) {
                    first = Some((bound, block));
                }
            }
        }

        let mut best: Option<(f64, usize)> = None;
        let mut score_block = |block: usize, best: &mut Option<(f64, usize)>| {
            for (idx, segment) in (block * SUMMARY_BLOCK..).zip(self.block_members(block)) {
                if !self.is_candidate(segment) || !eligible(segment) {
                    continue;
                }
                evaluations += 1;
                let value = score(segment.live, segment.youngest_seq);
                // Blocks are not visited in index order, so the tie-break
                // cannot lean on it.
                let better = best.is_none_or(|(best_value, best_idx)| {
                    value > best_value || (value == best_value && idx < best_idx)
                });
                if better {
                    *best = Some((value, idx));
                }
            }
        };
        if let Some((_, first)) = first {
            score_block(first, &mut best);
            for (block, bound) in bounds.iter().enumerate() {
                let could_win = bound
                    .is_some_and(|bound| best.is_none_or(|(best_score, _)| bound >= best_score));
                if could_win && block != first {
                    score_block(block, &mut best);
                }
            }
        }
        Selection {
            victim: best.map(|(_, idx)| idx as u64),
            evaluations,
        }
    }

    /// `true` for a sealed segment with dead bytes — what the cleaner may
    /// pick.  (An open head is short of `segment_bytes`; a free segment has
    /// nothing written.)
    fn is_candidate(&self, segment: &Segment) -> bool {
        segment.written == self.config.segment_bytes && segment.live < segment.written
    }

    /// The segments of summary block `block` (the last may be short).
    fn block_members(&self, block: usize) -> &[Segment] {
        let start = block * SUMMARY_BLOCK;
        &self.segments[start..(start + SUMMARY_BLOCK).min(self.segments.len())]
    }

    /// The summary entry `block` must hold: the minima over its candidates.
    fn block_summary(&self, block: usize) -> BlockSummary {
        let mut summary = BlockSummary::EMPTY;
        for segment in self.block_members(block) {
            if self.is_candidate(segment) {
                summary.fold(segment);
            }
        }
        summary
    }

    /// The record of a live object.  Every caller has either checked `id`
    /// against `objects` itself or read it from `residents`, whose entries
    /// [`SegmentLog::verify`] holds to live objects.
    fn record_mut(&mut self, id: u64) -> &mut ObjectRecord {
        self.objects.get_mut(&id).expect("id is a live object")
    }

    /// Background cleaning of one victim: every survivor (`survivors`, its
    /// residents in ascending order, `need` bytes in all) is rewritten *in
    /// full* through the maintenance head (healing its fragmentation), then
    /// the victim returns to the free pool.  Refused whole — nothing moved —
    /// when placement leaves the cleaner less than `need`.
    fn rewrite_segment(
        &mut self,
        victim: u64,
        survivors: Vec<u64>,
        need: u64,
    ) -> Result<CleanReport, LogError> {
        if need > self.maintenance_available() {
            return Err(LogError::OutOfSpace);
        }
        let mut report = CleanReport::default();
        for id in survivors {
            let size = self.objects[&id].size;
            let extents = self.append_bytes(size, Self::maintenance_consumer())?;
            let old = mem::take(&mut self.record_mut(id).extents);
            self.deaden(&old);
            self.replace_residents(id, &old, &extents);
            self.tracker
                .record_replace(old.fragment_count() as u64, extents.fragment_count() as u64);
            report.bytes_copied += size;
            report.objects_moved += 1;
            self.record_mut(id).extents = extents;
        }
        self.release_victim(victim);
        report.segments_freed += 1;
        self.debug_verify();
        Ok(report)
    }

    /// Emergency cleaning of one victim: only the live pieces *inside* the
    /// victim are copied (to the foreground head, interleaving with incoming
    /// writes — this is where an uncleaned log's fragmentation comes from);
    /// extents elsewhere stay put.
    fn vacate_segment(&mut self, victim: u64) -> Result<CleanReport, LogError> {
        let ids = self.residents[victim as usize].clone();
        let span = self.segment_span(victim);
        let mut report = CleanReport::default();
        for id in ids {
            let inside_need: u64 = self.objects[&id]
                .extents
                .iter()
                .map(|extent| Self::overlap_len(extent, &span))
                .sum();
            let fresh = self.append_bytes(inside_need, PlacementConsumer::Foreground)?;
            let record = self.record_mut(id);
            // The fresh extents stand in, byte for byte and in order, for the
            // pieces inside the victim; `append_bytes` returned exactly
            // `inside_need` bytes, so the supply cannot run out.
            let mut supply = fresh.iter().copied();
            let mut head = Extent::new(0, 0);
            let mut rebuilt: Vec<Extent> = Vec::with_capacity(record.extents.len());
            for extent in &record.extents {
                for piece in Self::split_by_span(extent, &span) {
                    if !span.contains(piece.start) {
                        push_coalesced(&mut rebuilt, piece);
                        continue;
                    }
                    let mut want = piece.len;
                    while want > 0 {
                        if head.is_empty() {
                            head = supply.next().expect("fresh extents cover the need");
                        }
                        let (taken, rest) = head.take(want);
                        want -= taken.len;
                        head = rest;
                        push_coalesced(&mut rebuilt, taken);
                    }
                }
            }
            let fragments = (
                record.extents.fragment_count() as u64,
                rebuilt.fragment_count() as u64,
            );
            record.extents = rebuilt;
            self.tracker.record_replace(fragments.0, fragments.1);
            // Every piece inside the victim died; the rest did not move.
            self.deaden_part(victim as usize, inside_need);
            self.replace_residents(id, &[span], &fresh);
            report.bytes_copied += inside_need;
            report.objects_moved += u64::from(inside_need > 0);
        }
        self.release_victim(victim);
        report.segments_freed += 1;
        self.debug_verify();
        Ok(report)
    }

    /// Appends `remaining` bytes through `consumer`'s head, sealing and
    /// opening segments as needed.  Fails atomically: availability is
    /// checked up front, so no bytes land unless all do.
    fn append_bytes(
        &mut self,
        mut remaining: u64,
        consumer: PlacementConsumer,
    ) -> Result<Vec<Extent>, LogError> {
        let available = if consumer.is_maintenance() {
            self.maintenance_available()
        } else {
            self.foreground_available()
        };
        if remaining > available {
            self.debug_verify();
            return Err(LogError::OutOfSpace);
        }
        let segment_bytes = self.config.segment_bytes;
        self.seq += 1;
        let mut extents: Vec<Extent> = Vec::new();
        while remaining > 0 {
            let idx = self.ensure_head(consumer)?;
            let segment = &mut self.segments[idx as usize];
            let take = (segment_bytes - segment.written).min(remaining);
            let start = self.base_offset + idx * segment_bytes + segment.written;
            segment.written += take;
            segment.live += take;
            segment.youngest_seq = self.seq;
            let sealed = segment.written == segment_bytes;
            self.live_bytes += take;
            remaining -= take;
            if sealed {
                if segment.live < segment_bytes {
                    // Sealed with bytes already dead: a candidate from now on.
                    self.summary[idx as usize / SUMMARY_BLOCK].fold(segment);
                }
                if consumer.is_maintenance() {
                    self.maint_head = None;
                } else {
                    self.fg_head = None;
                }
            }
            push_coalesced(&mut extents, Extent::new(start, take));
        }
        Ok(extents)
    }

    /// The consumer's open head, opening a fresh segment when none is open
    /// or the current one is sealed.
    fn ensure_head(&mut self, consumer: PlacementConsumer) -> Result<u64, LogError> {
        let current = if consumer.is_maintenance() {
            self.maint_head
        } else {
            self.fg_head
        };
        if let Some(idx) = current {
            if self.segments[idx as usize].written < self.config.segment_bytes {
                return Ok(idx);
            }
        }
        let idx = self
            .pick_free_segment(consumer)
            .ok_or(LogError::OutOfSpace)?;
        self.free
            .reserve(Extent::new(idx, 1))
            .map_err(|_| LogError::OutOfSpace)?;
        self.free_count -= 1;
        self.segments[idx as usize] = Segment {
            written: 0,
            live: 0,
            youngest_seq: self.seq,
            opened_seq: self.seq,
        };
        if consumer.is_maintenance() {
            self.maint_head = Some(idx);
        } else {
            self.fg_head = Some(idx);
        }
        Ok(idx)
    }

    /// The next free segment `consumer` may open: the foreground walks its
    /// band first-fit and spills; the cleaner takes what
    /// [`lor_alloc::PlacementPolicy::largest_eligible`] permits and refuses
    /// otherwise.
    fn pick_free_segment(&self, consumer: PlacementConsumer) -> Option<u64> {
        if consumer.is_maintenance() {
            return self
                .config
                .placement
                .largest_eligible(&self.free, consumer, 1)
                .map(|run| run.start);
        }
        match self
            .config
            .placement
            .primary_band(self.segment_count(), consumer)
        {
            Some((lo, hi)) => self
                .free
                .first_fit_in(1, lo, hi)
                .or_else(|| self.free.first_fit(1, 0))
                .map(|run| run.start),
            None => self.free.first_fit(1, 0).map(|run| run.start),
        }
    }

    /// Marks extents dead, crediting their segments.
    fn deaden(&mut self, extents: &[Extent]) {
        for extent in extents {
            for (idx, part) in self.parts(*extent) {
                self.deaden_part(idx, part);
            }
        }
    }

    /// Marks `part` (> 0) live bytes of segment `idx` dead.
    fn deaden_part(&mut self, idx: usize, part: u64) {
        let segment = &mut self.segments[idx];
        debug_assert!(segment.live >= part);
        segment.live -= part;
        self.live_bytes -= part;
        self.dead_bytes += part;
        if segment.written == self.config.segment_bytes {
            // A sealed segment with a dead byte is a candidate, new or old;
            // either way its `live` just fell, so a fold keeps the block exact.
            self.summary[idx / SUMMARY_BLOCK].fold(segment);
        }
    }

    /// Returns an emptied victim to the free pool.
    fn release_victim(&mut self, victim: u64) {
        let segment = &mut self.segments[victim as usize];
        debug_assert_eq!(segment.live, 0, "victim must be fully vacated");
        debug_assert!(self.residents[victim as usize].is_empty());
        self.dead_bytes -= segment.written;
        *segment = Segment::default();
        // The one way out of candidacy, and the one place a block's minima
        // can rise.
        let block = victim as usize / SUMMARY_BLOCK;
        self.summary[block] = self.block_summary(block);
        // Victims are occupied segments, which `ensure_head` reserved when it
        // opened them (`verify`: the free map holds exactly the unwritten).
        self.free
            .release(Extent::new(victim, 1))
            .expect("victim segment was reserved");
        self.free_count += 1;
    }

    /// Moves `id`'s residency from the segments `old` touches to the segments
    /// `new` touches.  Walks the two lists; builds nothing.
    fn replace_residents(&mut self, id: u64, old: &[Extent], new: &[Extent]) {
        for extent in old {
            for (idx, _) in self.parts(*extent) {
                let span = self.segment_span(idx as u64);
                if !new.iter().any(|kept| kept.overlaps(&span)) {
                    if let Ok(at) = self.residents[idx].binary_search(&id) {
                        self.residents[idx].remove(at);
                    }
                }
            }
        }
        for extent in new {
            for (idx, _) in self.parts(*extent) {
                if let Err(at) = self.residents[idx].binary_search(&id) {
                    self.residents[idx].insert(at, id);
                }
            }
        }
    }

    /// The segments `extent` touches with the bytes it has in each, in
    /// address order.  Borrows nothing, so callers may mutate while walking.
    fn parts(&self, extent: Extent) -> impl Iterator<Item = (usize, u64)> {
        let (base, segment_bytes) = (self.base_offset, self.config.segment_bytes);
        let (mut cursor, end) = (extent.start, extent.end());
        std::iter::from_fn(move || {
            if cursor >= end {
                return None;
            }
            let idx = (cursor - base) / segment_bytes;
            let part = (base + (idx + 1) * segment_bytes).min(end) - cursor;
            cursor += part;
            Some((idx as usize, part))
        })
    }

    /// The device byte span of a segment.
    fn segment_span(&self, idx: u64) -> Extent {
        Extent::new(
            self.base_offset + idx * self.config.segment_bytes,
            self.config.segment_bytes,
        )
    }

    /// Bytes of `extent` inside `span`.
    fn overlap_len(extent: &Extent, span: &Extent) -> u64 {
        extent
            .end()
            .min(span.end())
            .saturating_sub(extent.start.max(span.start))
    }

    /// Splits an extent at `span`'s boundaries, preserving byte order.
    fn split_by_span(extent: &Extent, span: &Extent) -> Vec<Extent> {
        let mut pieces = Vec::with_capacity(3);
        let mut cursor = extent.start;
        let end = extent.end();
        for boundary in [span.start, span.end()] {
            if boundary > cursor && boundary < end {
                pieces.push(Extent::new(cursor, boundary - cursor));
                cursor = boundary;
            }
        }
        if end > cursor {
            pieces.push(Extent::new(cursor, end - cursor));
        }
        pieces
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lor_alloc::PlacementPolicy;

    const MB: u64 = 1 << 20;

    fn log_with(capacity: u64, segment: u64) -> SegmentLog {
        let mut config = LogConfig::new(capacity);
        config.segment_bytes = segment;
        SegmentLog::new(config).unwrap()
    }

    #[test]
    fn inserts_append_head_first_and_stay_contiguous() {
        let mut log = log_with(64 * MB, 4 * MB);
        let a = log.insert(1, MB).unwrap();
        let b = log.insert(2, MB).unwrap();
        assert_eq!(a.fragments, 1);
        assert_eq!(b.fragments, 1);
        assert_eq!(a.extents[0].start, log.base_offset());
        assert_eq!(b.extents[0].start, log.base_offset() + MB);
        assert_eq!(log.live_bytes(), 2 * MB);
        assert_eq!(log.dead_bytes(), 0);
        assert_eq!(log.object_count(), 2);
        assert_eq!(log.fragmentation().fragments_per_object, 1.0);
    }

    #[test]
    fn objects_spanning_adjacent_segments_stay_coalesced() {
        let mut log = log_with(64 * MB, MB);
        let outcome = log.insert(1, 3 * MB / 2).unwrap();
        // Head-first into segment 0, sealed, continues in segment 1 — the
        // fresh log hands out adjacent segments, so the pieces coalesce.
        assert_eq!(outcome.fragments, 1);
        assert_eq!(
            outcome.extents.iter().map(|e| e.len).sum::<u64>(),
            3 * MB / 2
        );
        let spanning = log.insert(2, MB).unwrap();
        assert_eq!(spanning.fragments, 1);
        assert_eq!(spanning.extents.iter().map(|e| e.len).sum::<u64>(), MB);
    }

    #[test]
    fn updates_deaden_the_old_version() {
        let mut log = log_with(64 * MB, 4 * MB);
        log.insert(1, MB).unwrap();
        let updated = log.update(1, 2 * MB).unwrap();
        assert_eq!(updated.fragments, 1);
        assert_eq!(log.size_of(1).unwrap(), 2 * MB);
        assert_eq!(log.live_bytes(), 2 * MB);
        assert_eq!(log.dead_bytes(), MB);
        assert!(log.update(9, MB).is_err());
    }

    #[test]
    fn removes_deaden_everything_and_cleaning_reclaims() {
        let mut log = log_with(64 * MB, MB);
        for id in 0..8 {
            log.insert(id, MB / 2).unwrap();
        }
        for id in 0..8 {
            log.remove(id).unwrap();
        }
        assert_eq!(log.live_bytes(), 0);
        assert_eq!(log.dead_bytes(), 4 * MB);
        let free_before = log.free_count;
        let report = log.clean_all().unwrap();
        assert_eq!(report.bytes_copied, 0, "fully dead segments copy nothing");
        assert!(report.segments_freed >= 3);
        assert!(log.free_count > free_before);
        assert_eq!(log.dead_bytes(), 0);
    }

    #[test]
    fn cleaning_compacts_survivors_and_heals_fragmentation() {
        let mut log = log_with(64 * MB, MB);
        // Two half-MB objects per segment; deleting every other object
        // leaves every segment half dead.
        for id in 0..16 {
            log.insert(id, MB / 2).unwrap();
        }
        for id in (0..16).step_by(2) {
            log.remove(id).unwrap();
        }
        assert_eq!(log.dead_bytes(), 4 * MB);
        let report = log.clean_all().unwrap();
        assert!(report.segments_freed > 0);
        assert!(report.bytes_copied > 0, "survivors must be copied");
        assert_eq!(log.dead_bytes(), 0);
        // Survivors were rewritten in full, contiguously.
        for id in (1..16).step_by(2) {
            assert_eq!(log.extents_of(id).unwrap().fragment_count(), 1);
        }
        assert_eq!(log.cleaner_totals().bytes_copied, report.bytes_copied);
    }

    #[test]
    fn cost_benefit_prefers_old_dead_segments_over_young_ones() {
        let mut log = log_with(64 * MB, MB);
        // Segment 0: half-dead, then aged by twenty later appends.
        log.insert(1, MB / 2).unwrap();
        log.insert(2, MB / 2).unwrap();
        log.remove(1).unwrap();
        for id in 10..30 {
            log.insert(id, MB / 4).unwrap(); // fills segments 1..=5
        }
        // Segment 6: *more* dead but freshly written.
        log.insert(3, MB / 4).unwrap();
        log.insert(4, 3 * MB / 4).unwrap();
        log.remove(4).unwrap();
        let cost_benefit = log.select_victim(CleanerSelector::CostBenefit, None).victim;
        let greedy = log.select_victim(CleanerSelector::Greedy, None).victim;
        assert_eq!(greedy, Some(6), "greedy takes the most-dead segment");
        assert_eq!(
            cost_benefit,
            Some(0),
            "age must outweigh the younger segment's extra free space"
        );
    }

    #[test]
    fn allocation_pressure_vacates_victims_through_the_foreground_head() {
        // 16 data segments (1 of 16+1... capacity 18MB/1MB => 18 total, 1
        // meta, 17 data).  Fill most of the log, then keep updating: the
        // emergency path must keep the log writable indefinitely.
        let mut log = log_with(18 * MB, MB);
        let data = log.segment_count();
        assert!(data >= 16);
        for id in 0..10 {
            log.insert(id, MB).unwrap();
        }
        for round in 0..6 {
            for id in 0..10 {
                log.update((id + round) % 10, MB).unwrap();
            }
        }
        assert!(
            log.emergency_totals().segments_freed > 0,
            "churn past the free pool must trigger emergency cleaning"
        );
        assert!(
            log.cleaner_totals().is_empty(),
            "emergency vacates are not cleaner work: only `clean_step` and `clean_all` copy for it"
        );
        assert_eq!(log.object_count(), 10);
        assert_eq!(log.live_bytes(), 10 * MB);
        // Accounting stayed consistent: dead + live never exceeds capacity.
        assert!(log.dead_bytes() + log.live_bytes() <= log.data_capacity_bytes());
    }

    #[test]
    fn out_of_space_is_an_error_not_a_wedge() {
        let mut log = log_with(8 * MB, MB);
        let capacity = log.data_capacity_bytes();
        assert!(log.insert(1, capacity + MB).is_err());
        // The failed insert left nothing behind.
        assert_eq!(log.live_bytes(), 0);
        assert_eq!(log.object_count(), 0);
    }

    #[test]
    fn banded_placement_confines_the_cleaner_to_its_band() {
        let mut config = LogConfig::new(34 * MB);
        config.segment_bytes = MB;
        config.placement = PlacementPolicy::banded(0.5);
        let mut log = SegmentLog::new(config).unwrap();
        let total = log.segment_count();
        let boundary = config.placement.boundary_cluster(total);
        // Make one segment half dead, then clean it.
        log.insert(1, MB / 2).unwrap();
        log.insert(2, MB / 2).unwrap();
        log.remove(1).unwrap();
        log.insert(3, MB).unwrap(); // seal nothing; just age
        let report = log.clean_step(u64::MAX).unwrap();
        assert!(report.bytes_copied > 0);
        // The survivor landed in the maintenance band.
        let extents = log.extents_of(2).unwrap();
        let segment = (extents[0].start - log.base_offset()) / MB;
        assert!(
            segment >= boundary,
            "survivor segment {segment} must sit at or above the band boundary {boundary}"
        );
    }

    #[test]
    fn segment_stats_track_utilization() {
        let mut log = log_with(64 * MB, MB);
        for id in 0..4 {
            log.insert(id, MB).unwrap();
        }
        log.remove(0).unwrap();
        let stats = log.segment_stats();
        assert_eq!(stats.total_segments, log.segment_count());
        assert_eq!(
            stats.occupied_segments,
            stats.total_segments - stats.free_segments
        );
        assert!(stats.mean_utilization < 1.0);
        assert!(stats.mean_utilization > 0.5);
        assert_eq!(
            stats.utilization_deciles.iter().sum::<u64>(),
            stats.occupied_segments
        );
    }

    #[test]
    fn runs_are_deterministic() {
        let build = || {
            let mut log = log_with(32 * MB, MB);
            for id in 0..12 {
                log.insert(id, 3 * MB / 4).unwrap();
            }
            for round in 0u64..4 {
                for id in 0..12 {
                    log.update((id * 5 + round) % 12, 3 * MB / 4).unwrap();
                }
            }
            log.clean_step(4 * MB).unwrap();
            log
        };
        let a = build();
        let b = build();
        assert_eq!(a.live_bytes(), b.live_bytes());
        assert_eq!(a.dead_bytes(), b.dead_bytes());
        assert_eq!(a.cleaner_totals(), b.cleaner_totals());
        assert_eq!(a.emergency_totals(), b.emergency_totals());
        for id in a.ids() {
            assert_eq!(a.extents_of(id).unwrap(), b.extents_of(id).unwrap());
        }
    }

    const KB: u64 = 1024;

    /// A log of `blocks` summary blocks of `KB`-sized segments.
    fn blocks_of_kb_segments(blocks: usize, selector: CleanerSelector) -> SegmentLog {
        let data = (blocks * SUMMARY_BLOCK) as u64;
        // `new` sets 1/32 of the volume aside; ask for that much more.
        let mut config = LogConfig::new((data + data / 31 + 1) * KB);
        config.segment_bytes = KB;
        config.selector = selector;
        let log = SegmentLog::new(config).unwrap();
        assert!(log.summary.len() >= blocks);
        log
    }

    #[test]
    fn verify_names_the_violated_invariant() {
        let mut log = log_with(18 * MB, MB);
        for id in 0..20 {
            log.insert(id, MB / 2).unwrap();
        }
        for id in 0..20 {
            log.update((id * 7) % 20, 3 * MB / 4).unwrap();
        }
        log.remove(3).unwrap();
        log.insert(20, MB / 4).unwrap();
        assert!(log.emergency_totals().segments_freed > 0);
        assert_eq!(log.verify(), Ok(()));
        let breaks = |edit: &dyn Fn(&mut SegmentLog), names: &str| {
            let mut broken = log.clone();
            edit(&mut broken);
            let violation = broken.verify().unwrap_err();
            assert!(violation.contains(names), "{violation:?} lacks {names:?}");
        };
        let head = log.fg_head.expect("the last append left its head open");
        let sealed = (0..log.segments.len())
            .find(|idx| log.is_candidate(&log.segments[*idx]) && log.segments[*idx].live > 0)
            .expect("a sealed segment with survivors");
        let resident = *log.residents[sealed].first().unwrap();

        breaks(&|log| log.maint_head = log.fg_head, "both heads");
        breaks(&|log| log.fg_head = Some(sealed as u64), "is not open");
        breaks(&|log| log.fg_head = None, "is no head");
        breaks(&|log| log.live_bytes += 1, "live_bytes is");
        breaks(&|log| log.dead_bytes += 1, "dead_bytes is");
        breaks(&|log| log.free_count += 1, "free_segments is");
        breaks(&|log| log.segments[sealed].live -= 1, "live extents cover");
        breaks(
            &|log| log.free.release(Extent::new(head, 1)).unwrap(),
            "the free map disagrees",
        );
        breaks(
            &|log| {
                log.residents[sealed].retain(|id| *id != resident);
            },
            "is not resident there",
        );
        breaks(
            &|log| {
                log.residents[sealed].push(u64::MAX);
            },
            "residents but",
        );
        breaks(
            &|log| log.residents[sealed].insert(0, u64::MAX),
            "ascending",
        );
        breaks(&|log| log.record_mut(resident).size += 1, "extents hold");
        breaks(&|log| log.tracker.record_insert(3), "fragmentation tracker");
        breaks(
            &|log| log.summary[sealed / SUMMARY_BLOCK].min_live -= 1,
            "summary of block",
        );
        breaks(
            &|log| log.summary.last_mut().unwrap().min_youngest_seq = 0,
            "summary of block",
        );
    }

    /// The benchmark's aging loop in miniature: one object size, every object
    /// overwritten once per round in a fresh random order, the free pool dry
    /// from the third round on.  Every selection the updates could trigger
    /// scores one block, not the log.
    #[test]
    fn an_aged_single_size_log_scores_one_block_per_selection() {
        let mut log = blocks_of_kb_segments(12, CleanerSelector::CostBenefit);
        let segments = log.segment_count();
        let objects = segments * 8 * 4 / 10;
        for id in 0..objects {
            log.insert(id, KB / 8).unwrap();
        }
        let budget = log.summary.len() as u64 + SUMMARY_BLOCK as u64;
        let mut order: Vec<u64> = (0..objects).collect();
        let mut state = 42u64;
        let mut selections = 0;
        for round in 0..5 {
            for i in (1..order.len()).rev() {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                order.swap(i, (state >> 33) as usize % (i + 1));
            }
            for id in &order {
                if log.free_count < 2 {
                    let pick = log.next_victim(Some(log.foreground_available()));
                    assert!(pick.victim.is_some());
                    assert!(
                        pick.evaluations <= budget,
                        "round {round}: {} evaluations on {segments} segments",
                        pick.evaluations
                    );
                    selections += 1;
                }
                log.update(*id, KB / 8).unwrap();
            }
        }
        assert!(
            selections > 500,
            "only {selections} selections under pressure"
        );
        assert!(log.emergency_totals().segments_freed > 500);
        assert_eq!(log.verify(), Ok(()));
    }

    /// The stated worst case: every candidate has the same score, so every
    /// block's bound ties with the best score and every block is scored —
    /// `n + n/B` evaluations, and the lowest index still wins.
    #[test]
    fn an_all_tied_log_costs_one_scan_plus_the_bounds() {
        let mut log = blocks_of_kb_segments(12, CleanerSelector::Greedy);
        let segments = log.segment_count();
        // Two halves per segment, then the first half of each removed.
        for id in 0..2 * (segments - 1) {
            log.insert(id, KB / 2).unwrap();
        }
        for id in (0..2 * (segments - 1)).step_by(2) {
            log.remove(id).unwrap();
        }
        let candidates = segments - 1;
        let pick = log.next_victim(None);
        assert_eq!(pick.victim, Some(0));
        assert!(pick.evaluations >= candidates, "every tied block is scored");
        assert!(pick.evaluations <= candidates + log.summary.len() as u64);
        // A cap below every candidate's survivors rules all of them out
        // without scoring one.
        assert_eq!(
            log.next_victim(Some(KB / 2 - 1)),
            Selection {
                victim: None,
                evaluations: 0
            }
        );
    }

    /// A tie between blocks where the higher block has the looser (larger)
    /// bound and is scored first: the lower block's bound *equals* the best
    /// score, and skipping it on `>` would keep the higher index.
    #[test]
    fn a_tie_with_a_lower_block_is_not_skipped() {
        let mut log = blocks_of_kb_segments(3, CleanerSelector::CostBenefit);
        let border = SUMMARY_BLOCK as u64;
        // One whole-segment object per segment up to two short of the border,
        // four in the hole the tie will fill, then two halves: an old,
        // half-dead segment in the higher block.
        for id in 0..border + 2 {
            log.insert(id, KB).unwrap();
        }
        log.insert(1_000, KB / 2).unwrap();
        log.insert(1_001, KB / 2).unwrap();
        log.insert(1_002, KB).unwrap();
        for id in border - 2..border + 2 {
            log.remove(id).unwrap();
        }
        assert_eq!(log.clean_step(1).unwrap().segments_freed, 4);
        log.remove(1_000).unwrap();
        // One append over the four freed segments, two on each side of the
        // border, dead at once: same `live`, same `youngest_seq`.
        let tied = log.insert(2_000, 4 * KB).unwrap();
        assert_eq!(
            tied.extents,
            [Extent::new(log.base_offset + (border - 2) * KB, 4 * KB)]
        );
        log.remove(2_000).unwrap();
        // Age the log until the young dead segments outscore the old
        // half-dead one.
        for id in 3_000..3_400 {
            log.insert(id, 1).unwrap();
        }
        let [lower, higher] = [log.summary[0], log.summary[1]];
        assert_eq!(lower.min_live, 0);
        assert_eq!(higher.min_live, 0);
        assert!(higher.min_youngest_seq < lower.min_youngest_seq);
        assert_eq!(log.next_victim(None).victim, Some(border - 2));
    }

    #[test]
    fn a_failed_update_leaves_the_old_version_intact() {
        let mut log = log_with(18 * MB, MB);
        for id in 0..10 {
            log.insert(id, MB).unwrap();
        }
        for id in 0..3 {
            log.update(id, MB).unwrap();
        }
        let free_before = log.free_count;
        let before: Vec<_> = log
            .ids()
            .map(|id| (log.size_of(id), log.extents_of(id).unwrap().to_vec()))
            .collect();
        let fragmentation = log.fragmentation();
        // Vacating the three dead segments is not enough for this one.
        assert_eq!(
            log.update(5, log.data_capacity_bytes() - 9 * MB),
            Err(LogError::OutOfSpace)
        );
        assert_eq!(log.free_count, free_before + 3, "the vacates ran");
        assert_eq!(log.dead_bytes(), 0);
        let after: Vec<_> = log
            .ids()
            .map(|id| (log.size_of(id), log.extents_of(id).unwrap().to_vec()))
            .collect();
        assert_eq!(after, before);
        assert_eq!(log.fragmentation(), fragmentation);
        assert_eq!(log.live_bytes(), 10 * MB);
        assert_eq!(log.verify(), Ok(()));
        // And the log is not wedged: what fits still goes in.
        log.update(5, 2 * MB).unwrap();
        assert_eq!(log.verify(), Ok(()));
    }

    #[test]
    fn a_rewrite_refused_by_placement_leaves_the_victim_untouched() {
        let mut config = LogConfig::new(34 * MB);
        config.segment_bytes = MB;
        config.placement = PlacementPolicy::banded(0.5);
        let mut log = SegmentLog::new(config).unwrap();
        let segments = log.segment_count();
        // Fill every segment, the cleaner's band included (the foreground
        // spills), with two halves each.
        for id in 0..2 * segments {
            log.insert(id, MB / 2).unwrap();
        }
        assert_eq!(log.free_count, 0);
        // Segment 0 half dead; segments 1 and 2, in the foreground's band,
        // fully dead.
        for id in [0, 2, 3, 4, 5] {
            log.remove(id).unwrap();
        }
        let survivor = log.extents_of(1).unwrap().to_vec();
        let report = log.clean_step(u64::MAX).unwrap();
        // The dead pair came back for free; the survivor had nowhere to go
        // that placement allows, though two segments are free.
        assert_eq!(report.segments_freed, 2);
        assert_eq!(report.bytes_copied, 0);
        assert_eq!(log.free_count, 2);
        assert_eq!(log.maintenance_available(), 0);
        assert_eq!(log.extents_of(1).unwrap(), survivor);
        assert_eq!(log.residents[0], [1]);
        assert_eq!(log.next_victim(None).victim, Some(0));
        assert_eq!(log.dead_bytes(), MB / 2);
        assert_eq!(log.verify(), Ok(()));
    }

    #[test]
    fn a_cleaner_without_a_victim_does_and_scores_nothing() {
        let nothing = Selection {
            victim: None,
            evaluations: 0,
        };
        // No dead byte anywhere.
        let mut log = log_with(18 * MB, MB);
        for id in 0..8 {
            log.insert(id, MB / 2).unwrap();
        }
        assert_eq!(log.dead_bytes(), 0);
        assert_eq!(log.next_victim(None), nothing);
        assert!(log.clean_step(u64::MAX).unwrap().is_empty());
        // Dead bytes, but every candidate holds more survivors than the
        // emergency path could copy: the append fails clean.
        for id in 8..2 * log.segment_count() {
            log.insert(id, MB / 2).unwrap();
        }
        for id in (0..2 * log.segment_count()).step_by(8) {
            log.remove(id).unwrap();
        }
        assert!(log.dead_bytes() > 0);
        assert_eq!(log.foreground_available(), 0);
        assert_eq!(log.next_victim(Some(0)), nothing);
        let emergency = log.emergency_totals();
        assert_eq!(log.insert(9_999, MB / 4), Err(LogError::OutOfSpace));
        assert_eq!(log.emergency_totals(), emergency);
        assert_eq!(log.verify(), Ok(()));
        // The background cleaner, which may copy, still finds its victim.
        assert!(log.next_victim(None).victim.is_some());
    }
}
