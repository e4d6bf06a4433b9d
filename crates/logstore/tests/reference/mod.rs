//! Test-only reference model of the segment log: `SegmentLog` as it was
//! before its cleaner got a block summary and its update path stopped
//! building temporaries (PR 20) — `select_victim` scores **every** segment
//! with a float division, an update clones the record it replaces, and the
//! segments an extent list covers are collected into a `BTreeSet` per call.
//!
//! Kept verbatim apart from its imports (the public result types are the
//! production crate's, so outcomes compare with `==`), the accessors no test
//! calls, `next_victim`, the window `differential.rs` compares selections
//! through, and the cleaning-pass stamp both logs gained together
//! (`pass_start` and `opened_seq`: a pass never selects a segment it
//! opened, so `clean_all` ends on logs whose objects straddle segments).

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use lor_alloc::{
    Extent, FragmentationSummary, FragmentationTracker, FreeSpace, PlacementConsumer, RunIndexMap,
};
use lor_logstore::{
    AppendOutcome, CleanReport, CleanerSelector, LogConfig, LogError, SegmentStats,
};

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
pub struct ReferenceLog {
    config: LogConfig,
    /// First data byte (the metadata slice lies below it).
    base_offset: u64,
    /// Free-segment map, one cluster per segment: the same structure the
    /// other substrates allocate clusters from, so placement policies apply
    /// to segment selection unchanged.
    free: RunIndexMap,
    free_count: u64,
    segments: Vec<Segment>,
    /// Object ids with at least one live extent in each segment — the
    /// cleaner's reverse index.
    residents: Vec<BTreeSet<u64>>,
    objects: BTreeMap<u64, ObjectRecord>,
    tracker: FragmentationTracker,
    /// Open foreground append head.
    fg_head: Option<u64>,
    /// Open cleaner append head (maintenance placement consumer).
    maint_head: Option<u64>,
    /// Logical clock: bumped once per append operation.
    seq: u64,
    /// `seq` when the cleaning pass under way began; `None` outside a pass.
    pass_start: Option<u64>,
    live_bytes: u64,
    dead_bytes: u64,
    cleaned: CleanReport,
    emergency: CleanReport,
}

/// Coalesced fragment count of an extent list in object byte order: adjacent
/// pieces that are also physically contiguous read as one fragment.
fn fragment_count(extents: &[Extent]) -> u64 {
    let mut count = 0;
    let mut prev_end = None;
    for extent in extents {
        if extent.is_empty() {
            continue;
        }
        if prev_end != Some(extent.start) {
            count += 1;
        }
        prev_end = Some(extent.end());
    }
    count
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

impl ReferenceLog {
    /// Formats a fresh log.
    pub fn new(config: LogConfig) -> Result<Self, LogError> {
        config.validate().map_err(LogError::BadConfig)?;
        let total = config.total_segments();
        let meta = (total / 32).max(1);
        let data = total - meta;
        Ok(ReferenceLog {
            base_offset: meta * config.segment_bytes,
            free: RunIndexMap::new_free(data),
            free_count: data,
            segments: vec![Segment::default(); data as usize],
            residents: vec![BTreeSet::new(); data as usize],
            objects: BTreeMap::new(),
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

    /// Data segments on the volume.
    pub fn segment_count(&self) -> u64 {
        self.segments.len() as u64
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

    /// Live object ids, ascending.
    pub fn ids(&self) -> impl Iterator<Item = u64> + '_ {
        self.objects.keys().copied()
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
        for (idx, segment) in self.segments.iter().enumerate() {
            if self.free.run_at(idx as u64).is_some() {
                continue;
            }
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

    /// Inserts a new object of `size` bytes at the foreground head.
    pub fn insert(&mut self, id: u64, size: u64) -> Result<AppendOutcome, LogError> {
        self.pass_start = None;
        if self.objects.contains_key(&id) {
            return Err(LogError::ObjectExists(id));
        }
        let emergency = self.ensure_space_for(size)?;
        let extents = self.append_bytes(size, PlacementConsumer::Foreground)?;
        let fragments = fragment_count(&extents);
        self.add_residents(id, &extents);
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
        let fragments = fragment_count(&extents);
        self.add_residents(id, &extents);
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
        let fragments = fragment_count(&extents);
        let old = self.objects.get(&id).cloned().expect("checked above");
        self.deaden(&old.extents);
        self.remove_residents(id, &old.extents, &extents);
        self.add_residents(id, &extents);
        self.tracker
            .record_replace(fragment_count(&old.extents), fragments);
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

    /// Deadens and forgets a live object; its bytes wait for the cleaner.
    pub fn remove(&mut self, id: u64) -> Result<u64, LogError> {
        self.pass_start = None;
        let record = self.objects.remove(&id).ok_or(LogError::NoSuchObject(id))?;
        self.deaden(&record.extents);
        self.remove_residents(id, &record.extents, &[]);
        self.tracker.record_remove(fragment_count(&record.extents));
        Ok(record.size)
    }

    /// One budgeted background cleaning pass: picks victims with the
    /// configured selector and rewrites each survivor *in full* through the
    /// maintenance placement consumer (compacting it), until `copy_budget`
    /// live bytes have moved or nothing is worth cleaning.  The first victim
    /// always completes once started (progress guarantee); fully-dead
    /// segments are reclaimed for free and do not count against the budget.
    /// A pass lasts until the next insert, update or remove and never
    /// selects a segment it opened.
    pub fn clean_step(&mut self, copy_budget: u64) -> Result<CleanReport, LogError> {
        self.pass_start.get_or_insert(self.seq);
        let mut report = CleanReport::default();
        while let Some(victim) = self.select_victim(self.config.selector, None) {
            let survivor_bytes: u64 = self.residents[victim as usize]
                .iter()
                .map(|id| self.objects[id].size)
                .sum();
            if report.bytes_copied > 0 && report.bytes_copied + survivor_bytes > copy_budget {
                break;
            }
            match self.rewrite_segment(victim) {
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
            let Some(victim) = self
                .select_victim(self.config.selector, Some(available))
                .filter(|_| self.dead_bytes > 0)
            else {
                if available >= size {
                    break;
                }
                return Err(LogError::OutOfSpace);
            };
            report.absorb(self.vacate_segment(victim)?);
        }
        self.emergency.absorb(report);
        Ok(report)
    }

    /// What the cleaner would take next — the reference's side of
    /// `SegmentLog::next_victim`.
    pub fn next_victim(&self, max_live: Option<u64>) -> Option<u64> {
        self.select_victim(self.config.selector, max_live)
    }

    /// The best victim under `selector` among sealed, partially-dead
    /// segments (`max_live` caps the survivors the emergency path can
    /// afford to copy).  Deterministic: ties keep the lowest index.
    fn select_victim(&self, selector: CleanerSelector, max_live: Option<u64>) -> Option<u64> {
        let segment_bytes = self.config.segment_bytes;
        let mut best: Option<(f64, u64)> = None;
        for (idx, segment) in self.segments.iter().enumerate() {
            let idx = idx as u64;
            if Some(idx) == self.fg_head || Some(idx) == self.maint_head {
                continue;
            }
            if segment.written == 0 {
                continue; // free
            }
            let free_bytes = segment_bytes - segment.live;
            if free_bytes == 0 {
                continue; // fully live: nothing to gain
            }
            if max_live.is_some_and(|cap| segment.live > cap) {
                continue;
            }
            if self.pass_start.is_some_and(|at| segment.opened_seq > at) {
                continue; // opened by the cleaning pass under way
            }
            let score = match selector {
                CleanerSelector::CostBenefit => {
                    let age = (self.seq - segment.youngest_seq + 1) as f64;
                    let utilization = segment.live as f64 / segment_bytes as f64;
                    free_bytes as f64 * age / (1.0 + utilization)
                }
                CleanerSelector::Greedy => free_bytes as f64,
            };
            if best.is_none_or(|(best_score, _)| score > best_score) {
                best = Some((score, idx));
            }
        }
        best.map(|(_, idx)| idx)
    }

    /// Background cleaning of one victim: every survivor is rewritten *in
    /// full* through the maintenance head (healing its fragmentation), then
    /// the victim returns to the free pool.
    fn rewrite_segment(&mut self, victim: u64) -> Result<CleanReport, LogError> {
        let ids: Vec<u64> = self.residents[victim as usize].iter().copied().collect();
        let need: u64 = ids.iter().map(|id| self.objects[id].size).sum();
        if need > self.maintenance_available() {
            return Err(LogError::OutOfSpace);
        }
        let mut report = CleanReport::default();
        for id in ids {
            let record = self.objects.get(&id).cloned().expect("resident is live");
            let extents = self.append_bytes(record.size, Self::maintenance_consumer())?;
            let fragments = fragment_count(&extents);
            self.deaden(&record.extents);
            self.remove_residents(id, &record.extents, &extents);
            self.add_residents(id, &extents);
            self.tracker
                .record_replace(fragment_count(&record.extents), fragments);
            report.bytes_copied += record.size;
            report.objects_moved += 1;
            self.objects.insert(
                id,
                ObjectRecord {
                    size: record.size,
                    extents,
                },
            );
        }
        self.release_victim(victim);
        report.segments_freed += 1;
        Ok(report)
    }

    /// Emergency cleaning of one victim: only the live pieces *inside* the
    /// victim are copied (to the foreground head, interleaving with incoming
    /// writes — this is where an uncleaned log's fragmentation comes from);
    /// extents elsewhere stay put.
    fn vacate_segment(&mut self, victim: u64) -> Result<CleanReport, LogError> {
        let ids: Vec<u64> = self.residents[victim as usize].iter().copied().collect();
        let span = self.segment_span(victim);
        let mut report = CleanReport::default();
        for id in ids {
            let record = self.objects.get(&id).cloned().expect("resident is live");
            let inside_need: u64 = record
                .extents
                .iter()
                .map(|extent| Self::overlap_len(extent, &span))
                .sum();
            let fresh = self.append_bytes(inside_need, PlacementConsumer::Foreground)?;
            let mut queue: VecDeque<Extent> = fresh.into_iter().collect();
            let mut rebuilt: Vec<Extent> = Vec::with_capacity(record.extents.len());
            for extent in &record.extents {
                for piece in Self::split_by_span(extent, &span) {
                    if span.contains(piece.start) {
                        self.deaden(&[piece]);
                        let mut want = piece.len;
                        while want > 0 {
                            let head = queue.pop_front().expect("fresh extents cover the need");
                            let (taken, rest) = head.take(want);
                            want -= taken.len;
                            if !rest.is_empty() {
                                queue.push_front(rest);
                            }
                            push_coalesced(&mut rebuilt, taken);
                        }
                    } else {
                        push_coalesced(&mut rebuilt, piece);
                    }
                }
            }
            self.tracker
                .record_replace(fragment_count(&record.extents), fragment_count(&rebuilt));
            self.remove_residents(id, &record.extents, &rebuilt);
            self.add_residents(id, &rebuilt);
            report.bytes_copied += inside_need;
            report.objects_moved += u64::from(inside_need > 0);
            self.objects.insert(
                id,
                ObjectRecord {
                    size: record.size,
                    extents: rebuilt,
                },
            );
        }
        self.release_victim(victim);
        report.segments_freed += 1;
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
        let segment_bytes = self.config.segment_bytes;
        for extent in extents {
            let mut cursor = extent.start;
            let end = extent.end();
            while cursor < end {
                let idx = (cursor - self.base_offset) / segment_bytes;
                let seg_end = self.base_offset + (idx + 1) * segment_bytes;
                let part = seg_end.min(end) - cursor;
                let segment = &mut self.segments[idx as usize];
                debug_assert!(segment.live >= part);
                segment.live -= part;
                self.live_bytes -= part;
                self.dead_bytes += part;
                cursor += part;
            }
        }
    }

    /// Returns an emptied victim to the free pool.
    fn release_victim(&mut self, victim: u64) {
        let segment = &mut self.segments[victim as usize];
        debug_assert_eq!(segment.live, 0, "victim must be fully vacated");
        debug_assert!(self.residents[victim as usize].is_empty());
        self.dead_bytes -= segment.written;
        *segment = Segment::default();
        self.free
            .release(Extent::new(victim, 1))
            .expect("victim segment was reserved");
        self.free_count += 1;
    }

    /// Registers `id` as resident in every segment its extents touch.
    fn add_residents(&mut self, id: u64, extents: &[Extent]) {
        for segment in self.segments_covered(extents) {
            self.residents[segment as usize].insert(id);
        }
    }

    /// Drops `id` from segments covered by `old` that no extent in `keep`
    /// still touches.
    fn remove_residents(&mut self, id: u64, old: &[Extent], keep: &[Extent]) {
        let kept: BTreeSet<u64> = self.segments_covered(keep).into_iter().collect();
        for segment in self.segments_covered(old) {
            if !kept.contains(&segment) {
                self.residents[segment as usize].remove(&id);
            }
        }
    }

    /// The distinct segments an extent list touches, ascending.
    fn segments_covered(&self, extents: &[Extent]) -> Vec<u64> {
        let segment_bytes = self.config.segment_bytes;
        let mut covered = BTreeSet::new();
        for extent in extents {
            if extent.is_empty() {
                continue;
            }
            let first = (extent.start - self.base_offset) / segment_bytes;
            let last = (extent.end() - 1 - self.base_offset) / segment_bytes;
            covered.extend(first..=last);
        }
        covered.into_iter().collect()
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
