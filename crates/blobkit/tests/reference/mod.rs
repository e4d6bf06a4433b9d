//! Test-only reference model of the BLOB engine in its **page-at-a-time**
//! representation: the IAM chain as an ordered set of extents, layouts as
//! page lists, the ghost backlog as an ordered set of pages, every take and
//! every free one page (and one extent) at a time.
//!
//! This is what the engine stored before it went run-native, reduced to the
//! plainest procedure that defines its behaviour — no run batching, no
//! incremental indexes, no candidate cache, an ordered key map.
//! `differential.rs` drives it in lock-step with the real
//! [`lor_blobkit::Database`] and demands identical layouts, receipts,
//! statistics and free maps after every operation, which is what "host-time
//! change only" means.
//!
//! It shares the [`Gam`] type with the engine (through the single-extent
//! calls only) and the `lor-alloc` mechanism both sit on.

use std::collections::{BTreeMap, BTreeSet};

use lor_alloc::{
    Extent, FitPicker, FitPolicy, FreeSpace, PlacementConsumer, PlacementPolicy, RunIndexMap,
};
use lor_blobkit::{
    BlobId, CompactReport, DbError, DbWriteReceipt, EngineConfig, EngineStats, ExtentId, Gam,
    PageId, PAGES_PER_EXTENT,
};
use lor_disksim::ByteRun;

/// Runs of physically consecutive pages in a logical page list.
fn page_runs(pages: &[PageId]) -> Vec<(PageId, u64)> {
    let mut runs: Vec<(PageId, u64)> = Vec::new();
    for &page in pages {
        match runs.last_mut() {
            Some((first, count)) if first.0 + *count == page.0 => *count += 1,
            _ => runs.push((page, 1)),
        }
    }
    runs
}

fn fragment_count(pages: &[PageId]) -> u64 {
    page_runs(pages).len() as u64
}

/// One allocation unit, page at a time.
#[derive(Debug, Clone)]
struct RefUnit {
    extents: BTreeSet<ExtentId>,
    map: RunIndexMap,
    picker: FitPicker,
}

impl RefUnit {
    fn new(config: &EngineConfig) -> Self {
        RefUnit {
            extents: BTreeSet::new(),
            map: RunIndexMap::new_allocated(config.total_pages()),
            picker: FitPicker::with_placement(
                config.allocation_policy,
                FitPolicy::FirstFit,
                config.placement,
            )
            .with_band_granule(PAGES_PER_EXTENT),
        }
    }

    fn available_pages(&self, gam: &Gam) -> u64 {
        self.map.free_clusters() + gam.free_extent_count() * PAGES_PER_EXTENT
    }

    fn adopt_extent(&mut self, extent: ExtentId) {
        assert!(self.extents.insert(extent));
        self.map
            .release(Extent::new(extent.first_page().0, PAGES_PER_EXTENT))
            .unwrap();
    }

    /// Takes exactly `page` if it is free, or if its extent can be assigned.
    fn take_page_at(&mut self, gam: &mut Gam, page: PageId) -> bool {
        let one = Extent::new(page.0, 1);
        if !self.map.is_free(one) {
            let extent = page.extent();
            if self.extents.contains(&extent) || !gam.assign_specific(extent) {
                return false;
            }
            self.adopt_extent(extent);
        }
        self.map.reserve(one).unwrap();
        self.picker.advance(one);
        true
    }

    fn allocate_pages(&mut self, gam: &mut Gam, count: u64) -> Result<Vec<PageId>, DbError> {
        if count > self.available_pages(gam) {
            return Err(DbError::OutOfSpace {
                requested_pages: count,
                free_pages: self.available_pages(gam),
            });
        }
        let mut pages: Vec<PageId> = Vec::new();
        while (pages.len() as u64) < count {
            if let Some(&last) = pages.last() {
                let next = PageId(last.0 + 1);
                if self.take_page_at(gam, next) {
                    pages.push(next);
                    continue;
                }
            }
            let start = self
                .picker
                .pick(&self.map, 1)
                .map(|run| PageId(run.start))
                .or_else(|| gam.peek_next().map(|extent| extent.first_page()))
                .unwrap();
            assert!(self.take_page_at(gam, start));
            pages.push(start);
        }
        Ok(pages)
    }

    fn allocate_pages_high(&mut self, gam: &mut Gam, count: u64) -> Result<Vec<PageId>, DbError> {
        if count > self.available_pages(gam) {
            return Err(DbError::OutOfSpace {
                requested_pages: count,
                free_pages: self.available_pages(gam),
            });
        }
        let mut pages = Vec::new();
        while (pages.len() as u64) < count {
            if let Some(run) = self.map.last_run() {
                let page = PageId(run.end() - 1);
                self.map.reserve(Extent::new(page.0, 1)).unwrap();
                pages.push(page);
                continue;
            }
            let extent = gam.assign_highest().unwrap();
            self.adopt_extent(extent);
        }
        Ok(pages)
    }

    fn gam_candidate(
        gam: &Gam,
        placement: PlacementPolicy,
        watermark_pages: u64,
    ) -> Option<Extent> {
        let consumer = PlacementConsumer::Maintenance {
            foreground_watermark: watermark_pages,
        };
        if placement.run_cap(consumer).is_some() {
            let cap_extents = watermark_pages / PAGES_PER_EXTENT;
            if cap_extents == 0 {
                return None;
            }
            return gam.free_space().largest_run_at_most(cap_extents);
        }
        placement.largest_eligible(gam.free_space(), consumer, 1)
    }

    /// Largest-first greedy allocation for a maintenance relocation under
    /// the unit's placement, refusing (and rolling back) when the eligible
    /// runs cannot supply `count` pages.
    fn allocate_maintenance_runs(
        &mut self,
        gam: &mut Gam,
        count: u64,
        watermark_pages: u64,
    ) -> Option<Vec<PageId>> {
        let placement = self.picker.placement();
        if count > self.available_pages(gam) {
            return None;
        }
        let consumer = PlacementConsumer::Maintenance {
            foreground_watermark: watermark_pages,
        };
        let mut pages: Vec<PageId> = Vec::new();
        while (pages.len() as u64) < count {
            let remaining = count - pages.len() as u64;
            let unit_run = placement.largest_eligible(&self.map, consumer, PAGES_PER_EXTENT);
            let gam_run = Self::gam_candidate(gam, placement, watermark_pages);
            let unit_pages = unit_run.map_or(0, |run| run.len);
            let gam_pages = gam_run.map_or(0, |run| run.len * PAGES_PER_EXTENT);
            if unit_pages == 0 && gam_pages == 0 {
                for page in pages {
                    self.free_page(gam, page);
                }
                return None;
            }
            let taken = if unit_pages >= gam_pages {
                let run = unit_run.unwrap();
                Extent::new(run.start, run.len.min(remaining))
            } else {
                let run = gam_run.unwrap();
                let extents = remaining.div_ceil(PAGES_PER_EXTENT).min(run.len);
                for index in 0..extents {
                    let extent = ExtentId(run.start + index);
                    assert!(gam.assign_specific(extent));
                    self.adopt_extent(extent);
                }
                Extent::new(
                    ExtentId(run.start).first_page().0,
                    (extents * PAGES_PER_EXTENT).min(remaining),
                )
            };
            self.map.reserve(taken).unwrap();
            self.picker.advance(taken);
            pages.extend((taken.start..taken.end()).map(PageId));
        }
        Some(pages)
    }

    fn free_page(&mut self, gam: &mut Gam, page: PageId) {
        let extent = page.extent();
        assert!(
            self.extents.contains(&extent),
            "{page} freed outside the unit"
        );
        self.map.release(Extent::new(page.0, 1)).unwrap();
        let extent_pages = Extent::new(extent.first_page().0, PAGES_PER_EXTENT);
        if self.map.is_free(extent_pages) {
            self.map.reserve(extent_pages).unwrap();
            self.extents.remove(&extent);
            gam.release(extent);
        }
    }
}

#[derive(Debug, Clone)]
struct RefBlob {
    key: String,
    size_bytes: u64,
    pages: Vec<PageId>,
}

/// The engine, page at a time.
#[derive(Debug, Clone)]
pub struct RefDatabase {
    config: EngineConfig,
    gam: Gam,
    lob_unit: RefUnit,
    row_unit: RefUnit,
    blobs: BTreeMap<BlobId, RefBlob>,
    keys: BTreeMap<String, BlobId>,
    next_id: u64,
    ghost_pages: BTreeSet<PageId>,
    ops_since_cleanup: u64,
    row_count: u64,
    stats: EngineStats,
}

impl RefDatabase {
    pub fn create(config: EngineConfig) -> Self {
        RefDatabase {
            gam: Gam::with_placement(
                config.total_extents(),
                config.allocation_policy,
                config.placement,
            ),
            lob_unit: RefUnit::new(&config),
            row_unit: RefUnit::new(&config),
            blobs: BTreeMap::new(),
            keys: BTreeMap::new(),
            next_id: 1,
            ghost_pages: BTreeSet::new(),
            ops_since_cleanup: 0,
            row_count: 0,
            stats: EngineStats::default(),
            config,
        }
    }

    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    pub fn ghost_page_count(&self) -> u64 {
        self.ghost_pages.len() as u64
    }

    pub fn lob_free_runs(&self) -> Vec<Extent> {
        self.lob_unit.map.free_runs()
    }

    pub fn gam_free_runs(&self) -> Vec<Extent> {
        self.gam.free_space().free_runs()
    }

    /// Every live object's key and page list, in id order.
    pub fn layouts(&self) -> Vec<(String, Vec<PageId>)> {
        self.blobs
            .values()
            .map(|blob| (blob.key.clone(), blob.pages.clone()))
            .collect()
    }

    fn receipt(&self, id: BlobId, pages: &[PageId], size_bytes: u64) -> DbWriteReceipt {
        DbWriteReceipt {
            blob_id: id,
            runs: page_runs(pages)
                .into_iter()
                .map(|(first, count)| {
                    ByteRun::new(
                        self.config.base_offset + first.0 * self.config.page_size,
                        count * self.config.page_size,
                    )
                })
                .collect(),
            bytes_written: size_bytes,
            pages_written: pages.len() as u64,
        }
    }

    fn allocate_lob_pages(&mut self, pages: u64) -> Result<Vec<PageId>, DbError> {
        if pages > self.lob_unit.available_pages(&self.gam) && !self.ghost_pages.is_empty() {
            self.stats.forced_cleanups += 1;
            self.ghost_cleanup_limited(0);
        }
        let allocated = self.lob_unit.allocate_pages(&mut self.gam, pages)?;
        self.stats.pages_allocated += allocated.len() as u64;
        Ok(allocated)
    }

    fn bump_op(&mut self) {
        self.ops_since_cleanup += 1;
        if self.config.ghost_cleanup_interval_ops > 0
            && self.ops_since_cleanup >= self.config.ghost_cleanup_interval_ops
        {
            self.ghost_cleanup_limited(0);
        }
    }

    fn store_new(
        &mut self,
        key: &str,
        size_bytes: u64,
        pages: Vec<PageId>,
    ) -> Result<DbWriteReceipt, DbError> {
        let id = BlobId(self.next_id);
        self.next_id += 1;
        let receipt = self.receipt(id, &pages, size_bytes);
        self.keys.insert(key.to_string(), id);
        self.blobs.insert(
            id,
            RefBlob {
                key: key.to_string(),
                size_bytes,
                pages,
            },
        );
        self.row_count += 1;
        let needed = self.row_count.div_ceil(self.config.rows_per_page);
        while self.stats.row_pages < needed {
            self.row_unit.allocate_pages_high(&mut self.gam, 1)?;
            self.stats.row_pages += 1;
        }
        self.stats.inserts += 1;
        self.stats.bytes_written += size_bytes;
        self.bump_op();
        Ok(receipt)
    }

    pub fn insert(&mut self, key: &str, size_bytes: u64) -> Result<DbWriteReceipt, DbError> {
        if self.keys.contains_key(key) {
            return Err(DbError::KeyExists(key.to_string()));
        }
        let pages = self.allocate_lob_pages(self.config.pages_for(size_bytes))?;
        self.store_new(key, size_bytes, pages)
    }

    pub fn insert_as_maintenance(
        &mut self,
        key: &str,
        size_bytes: u64,
    ) -> Result<DbWriteReceipt, DbError> {
        if self.keys.contains_key(key) {
            return Err(DbError::KeyExists(key.to_string()));
        }
        let need = self.config.pages_for(size_bytes);
        let watermark = self.watermark_pages();
        let Some(pages) = self
            .lob_unit
            .allocate_maintenance_runs(&mut self.gam, need, watermark)
        else {
            return Err(DbError::OutOfSpace {
                requested_pages: need,
                free_pages: self.lob_unit.available_pages(&self.gam),
            });
        };
        self.stats.pages_allocated += need;
        self.store_new(key, size_bytes, pages)
    }

    fn replace(&mut self, id: BlobId, size_bytes: u64, pages: Vec<PageId>) -> DbWriteReceipt {
        let receipt = self.receipt(id, &pages, size_bytes);
        let blob = self.blobs.get_mut(&id).unwrap();
        let old_pages = std::mem::replace(&mut blob.pages, pages);
        let old_size = std::mem::replace(&mut blob.size_bytes, size_bytes);
        for page in old_pages {
            assert!(self.ghost_pages.insert(page), "{page} ghosted twice");
        }
        self.stats.updates += 1;
        self.stats.bytes_written += size_bytes;
        self.stats.bytes_deleted += old_size;
        self.bump_op();
        receipt
    }

    pub fn update(&mut self, key: &str, size_bytes: u64) -> Result<DbWriteReceipt, DbError> {
        let id = *self
            .keys
            .get(key)
            .ok_or_else(|| DbError::NoSuchKey(key.to_string()))?;
        let pages = self.allocate_lob_pages(self.config.pages_for(size_bytes))?;
        Ok(self.replace(id, size_bytes, pages))
    }

    pub fn update_batch(
        &mut self,
        items: &[(&str, u64)],
        write_request_size: u64,
    ) -> Result<Vec<DbWriteReceipt>, DbError> {
        let chunk_pages = self.config.pages_for(write_request_size.max(1));
        let mut ids = Vec::new();
        for (key, _) in items {
            ids.push(
                *self
                    .keys
                    .get(*key)
                    .ok_or_else(|| DbError::NoSuchKey(key.to_string()))?,
            );
        }
        let mut new_pages: Vec<Vec<PageId>> = vec![Vec::new(); items.len()];
        let targets: Vec<u64> = items
            .iter()
            .map(|(_, size)| self.config.pages_for(*size))
            .collect();
        let mut pending = true;
        while pending {
            pending = false;
            for (index, target) in targets.iter().enumerate() {
                let have = new_pages[index].len() as u64;
                if have < *target {
                    let want = chunk_pages.min(target - have);
                    match self.allocate_lob_pages(want) {
                        Ok(pages) => new_pages[index].extend(pages),
                        Err(err) => {
                            for page in new_pages.iter().flatten() {
                                self.lob_unit.free_page(&mut self.gam, *page);
                            }
                            self.stats.pages_allocated -= new_pages
                                .iter()
                                .map(|pages| pages.len() as u64)
                                .sum::<u64>();
                            return Err(err);
                        }
                    }
                    if (new_pages[index].len() as u64) < *target {
                        pending = true;
                    }
                }
            }
        }
        Ok(items
            .iter()
            .zip(ids)
            .zip(new_pages)
            .map(|(((_, size), id), pages)| self.replace(id, *size, pages))
            .collect())
    }

    pub fn delete(&mut self, key: &str) -> Result<(), DbError> {
        let id = self
            .keys
            .remove(key)
            .ok_or_else(|| DbError::NoSuchKey(key.to_string()))?;
        let blob = self.blobs.remove(&id).unwrap();
        for page in blob.pages {
            assert!(self.ghost_pages.insert(page), "{page} ghosted twice");
        }
        self.row_count -= 1;
        self.stats.deletes += 1;
        self.stats.bytes_deleted += blob.size_bytes;
        self.bump_op();
        Ok(())
    }

    /// Frees the `max_pages` highest ghost pages (0 = all), highest first.
    pub fn ghost_cleanup_limited(&mut self, max_pages: u64) -> u64 {
        if self.ghost_pages.is_empty() {
            self.ops_since_cleanup = 0;
            return 0;
        }
        let backlog = self.ghost_pages.len() as u64;
        let take = if max_pages == 0 {
            backlog
        } else {
            max_pages.min(backlog)
        };
        for _ in 0..take {
            let page = self.ghost_pages.pop_last().unwrap();
            self.lob_unit.free_page(&mut self.gam, page);
        }
        self.ops_since_cleanup = 0;
        self.stats.ghost_cleanups += 1;
        take
    }

    /// Copies every object, in key order, into a fresh filegroup — the one
    /// place the engine's behaviour depends on the order of its keys, which
    /// the ordered key map here supplies for free.
    pub fn rebuild_into_new_filegroup(&mut self) -> Result<u64, DbError> {
        let mut gam = Gam::with_placement(
            self.config.total_extents(),
            self.config.allocation_policy,
            self.config.placement,
        );
        let mut lob_unit = RefUnit::new(&self.config);
        let mut row_unit = RefUnit::new(&self.config);
        let row_pages = self.row_count.div_ceil(self.config.rows_per_page);
        if row_pages > 0 {
            row_unit.allocate_pages_high(&mut gam, row_pages)?;
        }
        let mut copied = 0;
        for id in self.keys.values() {
            let blob = self.blobs.get_mut(id).unwrap();
            blob.pages = lob_unit.allocate_pages(&mut gam, blob.pages.len() as u64)?;
            copied += blob.size_bytes;
        }
        self.gam = gam;
        self.lob_unit = lob_unit;
        self.row_unit = row_unit;
        self.ghost_pages.clear();
        self.stats.row_pages = row_pages;
        Ok(copied)
    }

    fn watermark_pages(&self) -> u64 {
        self.blobs
            .values()
            .map(|blob| blob.pages.len() as u64)
            .max()
            .unwrap_or(0)
    }

    /// Prefix sums of the free-run sizes a relocation can draw from (unit
    /// runs and GAM runs in pages), largest first, up to `cap_pages`.
    fn free_run_profile(&self, cap_pages: u64) -> Vec<u64> {
        let mut lens: Vec<u64> = self.lob_unit.map.run_lens_desc().collect();
        lens.extend(
            self.gam
                .free_space()
                .run_lens_desc()
                .map(|extents| extents * PAGES_PER_EXTENT),
        );
        lens.sort_unstable_by(|a, b| b.cmp(a));
        let mut prefix = Vec::new();
        let mut sum = 0;
        for len in lens {
            if sum >= cap_pages {
                break;
            }
            sum += len;
            prefix.push(sum);
        }
        prefix
    }

    pub fn compact_step(&mut self, page_budget: u64) -> CompactReport {
        let mut candidates: Vec<(BlobId, u64)> = self
            .blobs
            .iter()
            .map(|(&id, blob)| (id, fragment_count(&blob.pages)))
            .filter(|&(_, fragments)| fragments > 1)
            .collect();
        // Most fragmented first, ties by ascending id (the sort is stable
        // over the id-ordered scan).
        candidates.sort_by_key(|&(_, fragments)| std::cmp::Reverse(fragments));
        let watermark = self.watermark_pages();
        let planned = self.config.placement.is_unrestricted();
        let mut profile: Option<Vec<u64>> = None;

        let mut report = CompactReport::default();
        for (id, fragments) in candidates {
            if page_budget > 0 && report.pages_moved >= page_budget {
                break;
            }
            report.blobs_examined += 1;
            report.fragments_before += fragments;
            let need = self.blobs[&id].pages.len() as u64;
            let size_bytes = self.blobs[&id].size_bytes;
            let mut skip = false;
            if planned {
                let profile =
                    profile.get_or_insert_with(|| self.free_run_profile(watermark.max(1)));
                let takes = profile.partition_point(|&total| total < need);
                let planned_fragments = if takes == profile.len() {
                    u64::MAX
                } else {
                    takes as u64 + 1
                };
                skip = planned_fragments >= fragments;
            }
            let new_pages = if skip {
                None
            } else {
                self.lob_unit
                    .allocate_maintenance_runs(&mut self.gam, need, watermark)
            };
            let Some(new_pages) = new_pages else {
                report.blobs_skipped += 1;
                report.fragments_after += fragments;
                continue;
            };
            let new_fragments = fragment_count(&new_pages);
            if new_fragments >= fragments {
                for page in new_pages {
                    self.lob_unit.free_page(&mut self.gam, page);
                }
                report.blobs_skipped += 1;
                report.fragments_after += fragments;
                continue;
            }
            let blob = self.blobs.get_mut(&id).unwrap();
            let old_pages = std::mem::replace(&mut blob.pages, new_pages);
            for page in old_pages {
                self.lob_unit.free_page(&mut self.gam, page);
            }
            profile = None;
            self.stats.pages_allocated += need;
            report.blobs_moved += 1;
            report.pages_moved += need;
            report.bytes_copied += size_bytes;
            report.fragments_after += new_fragments;
        }
        report
    }
}
