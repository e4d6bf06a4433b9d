//! Differential test of [`RunIndexMap`] against the two-B-tree map it
//! replaced (`reference/`), at the sizes where the blocked list has
//! structure: hundreds of blocks, splits, merges, emptied blocks, summary
//! rebuilds.
//!
//! Both maps are driven in lock-step through a seeded random script of
//! `reserve` / `release` / `release_coalesced` / `take_at` calls — blind ones
//! (mostly rejected: double frees, frees reaching into a neighbour, out of
//! bounds) and aimed ones (a whole run, a prefix, a suffix, a middle, the gap
//! between two runs, and a share of the `take_at`, `run_at` and
//! `release_coalesced` calls at the first run, its last cluster, the gap
//! after it or the run after that — where the position search answers
//! without searching, or must not) — and of `release_batch` calls, which the reference
//! answers by releasing the same runs one at a time (and, given a granule,
//! reserving the whole aligned span of every coalesced run a released run
//! went into); after every operation every `Result` and every query is
//! compared, tie-breaks included, and a rejected operation must leave the
//! production map exactly as it was.
//!
//! **Mutation-checked** (PR 19, each against `tier1_sized…`; the first three
//! fail within ten operations): flipping the size order's tie-break to
//! the lowest start (`size_key` = `(len, !start)`) fails `largest` on the
//! first two runs of equal length; dropping the `rekey` call from
//! `replace_run` (one skipped summary update) fails `largest` on the first
//! run grown into a freed neighbour; dropping the `firsts` update from
//! `replace_run` fails `run_at` on the first release that grows a block's
//! first run downwards; and, past the first block, keeping the old maximum
//! for the lower half of a split block fails `run_lens_desc` at the first
//! split (operation 128).  Against the batched release (PR 25, each
//! against both scripts): a coalesced run that forgets it took in a released
//! run once the next run extends it, the aligned span rounded outwards, and a
//! block the batch does not reach copied instead of moved (the last caught
//! by the unit test that compares block buffers) — each fails.
//!
//! Against the first-run shortcut of the position search: answering the
//! next run's start with the first run fails `tier1_sized…` (a run it just
//! freed is not found) and a dozen unit tests; answering a cluster of the
//! gap after the first run with "no run" fails it at operation 7.  Dropping
//! the next block's first run as the bound, when the first run is alone in
//! its block, passes `tier1_sized…` (which rarely leaves block 0 holding
//! one run), fails the long script at operation 107,481 (a `run_at` while
//! the map shrinks) and fails two unit tests, among them the one built for
//! that shape,
//! `positions_around_the_first_run_hand_over_to_the_search_at_the_next_run`.
//!
//! Half the single releases pass a granule (`release_coalesced`'s in-place
//! withdraw; the reference releases, then reserves the aligned span of the
//! coalesced run), and the long script must reach each of the 16 shapes of
//! the edit at least 50 times (the rarest, an isolated extent keeping a head
//! and a tail, about 100).  Against that edit: rounding the span outwards
//! fails `tier1_sized…` at its first such release and three unit tests;
//! keeping the absorbed run when the tail is empty fails `tier1_sized…` at
//! operation 106 (`run_count`) and five unit tests; leaving `firsts` alone
//! when the tail replaces a block's first run passes `tier1_sized…` (the
//! shape needs the two runs either side of a block boundary), fails the
//! long script at operation 94,896 (`verify`: a stale first offset) and
//! fails the unit test built for it,
//! `withdrawing_across_and_inside_blocks_keeps_the_block_list_whole`, as
//! does not following the lower run through the block merge that removing
//! the upper one can cause (long script: operation 63,808).  Yielding the
//! summary's root again from the walk after `run_lens_desc` yielded it
//! lazily fails `tier1_sized…` at operation 1 and
//! `a_full_block_splits_and_the_summary_follows`.

mod reference;

use lor_alloc::{AllocError, Extent, FreeSpace, RunIndexMap};
use reference::ReferenceMap;

/// SplitMix64: a seeded stream, the same on every host.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`; 0 when `n` is 0.
    fn below(&mut self, n: u64) -> u64 {
        if n == 0 {
            0
        } else {
            self.next() % n
        }
    }
}

/// How often the expensive comparisons run (1 = after every operation).
struct Cadence {
    /// Queries that scan: `best_fit`, `largest_run_at_most`, wide bands.
    scans: u64,
    /// Whole-map comparisons: `free_runs`, all of `run_lens_desc`, `verify`.
    full: u64,
    /// Snapshots taken to prove a rejected operation left no trace.
    snapshot: u64,
}

struct Pair {
    map: RunIndexMap,
    model: ReferenceMap,
    rng: Rng,
    total: u64,
    ops: u64,
    peak_runs: usize,
    /// Batched releases accepted, and the most runs one of them held.
    batches: u64,
    widest_batch: usize,
    /// Accepted releases with a granule, by the shape of the edit: the bits
    /// (high to low) say whether the extent grew a run below it, absorbed
    /// the run above it, and left no head and no tail around the span.
    shapes: [u64; 16],
}

impl Pair {
    fn new(total: u64, seed: u64) -> Self {
        Pair {
            map: RunIndexMap::new_allocated(total),
            model: ReferenceMap::new_allocated(total),
            rng: Rng(seed),
            total,
            ops: 0,
            peak_runs: 0,
            batches: 0,
            widest_batch: 0,
            shapes: [0; 16],
        }
    }

    fn cluster(&mut self) -> u64 {
        self.rng.below(self.total)
    }

    /// A request length: mostly small, sometimes around the largest run,
    /// sometimes beyond it.
    fn len(&mut self, any: bool) -> u64 {
        let largest = self.model.largest_free_run();
        // A length few runs fit makes the reference walk its whole offset
        // index: `any` says whether this operation can afford that.
        let choice = if any { self.rng.below(8) } else { 7 };
        match choice {
            0 => 0,
            1 => largest,
            2 => largest + 1,
            3 => self.rng.below(largest + 2),
            _ => 1 + self.rng.below(6),
        }
    }

    /// The first free run starting at or after a random cluster, wrapping.
    fn some_run(&mut self) -> Option<Extent> {
        let from = self.cluster();
        self.model
            .first_fit(1, from)
            .or_else(|| self.model.first_fit(1, 0))
    }

    /// A position around the first run, where the map answers a position
    /// search without searching and must hand over to the search past it:
    /// the run's start, a cluster inside it, its last cluster, a cluster of
    /// the gap after it, or the start of the run after that gap (the end of
    /// the space when there is none).
    fn near_first_run(&mut self) -> Option<u64> {
        let first = self.model.first_fit(1, 0)?;
        let next = self
            .model
            .first_fit(1, first.end())
            .map_or(self.total, |run| run.start);
        Some(match self.rng.below(5) {
            0 => first.start,
            1 => first.start + self.rng.below(first.len),
            2 => first.end() - 1,
            3 => first.end() + self.rng.below(next - first.end()),
            _ => next,
        })
    }

    /// One operation on both maps; every `Result` compared, and a rejection
    /// must leave no trace.
    fn step(&mut self, free_bias: u64, cadence: &Cadence) {
        self.ops += 1;
        let before = self
            .ops
            .is_multiple_of(cadence.snapshot)
            .then(|| self.map.clone());
        let freeing = self.rng.below(100) < free_bias;
        let accepted = match (freeing, self.rng.below(8)) {
            // Blind: mostly rejected once the map is mixed.
            (true, 0..=3) => {
                let start = self.cluster();
                let extent = Extent::new(start, 1 + self.rng.below(3));
                self.release(extent)
            }
            (false, 0) => {
                let start = self.cluster();
                let extent = Extent::new(start, 1 + self.rng.below(3));
                self.reserve(extent)
            }
            // Out of bounds, by one or by far.
            (_, 4) if self.rng.below(16) == 0 => {
                let extent = Extent::new(self.total - self.rng.below(3), 3 + self.rng.below(5));
                if freeing {
                    self.release(extent)
                } else {
                    self.reserve(extent)
                }
            }
            (true, 7) if self.rng.below(4) == 0 => self.release_batch(cadence),
            // Around the first run: mostly double frees, sometimes a free
            // that grows it or the run after it.
            (true, 6) if self.rng.below(2) == 0 => match self.near_first_run() {
                None => self.release(Extent::new(self.total / 2, 1)),
                Some(at) => {
                    let extent = Extent::new(at, (1 + self.rng.below(3)).min(self.total - at));
                    self.release(extent)
                }
            },
            // Aimed frees: around and between existing runs.
            (true, _) => match self.some_run() {
                None => self.release(Extent::new(self.total / 2, 1)),
                Some(run) => {
                    let next = self.model.first_fit(1, run.end());
                    let gap_end = next.map_or(self.total, |next| next.start);
                    let gap = gap_end - run.end();
                    // Short frees, so the map fills with runs rather than
                    // collapsing into a few long ones.
                    let short = gap.min(4);
                    let extent = match self.rng.below(6) {
                        // The whole gap: coalesces both neighbours.
                        0 if gap <= 8 => Extent::new(run.end(), gap),
                        // Touching the run below / the run above / neither.
                        0 | 1 => Extent::new(run.end(), 1 + self.rng.below(short)),
                        2 => {
                            let len = (1 + self.rng.below(short)).min(gap);
                            Extent::new(gap_end - len, len)
                        }
                        3 if gap >= 3 => {
                            Extent::new(run.end() + 1, 1 + self.rng.below(short.min(gap - 2)))
                        }
                        // Reaching into the next run, or a double free.
                        4 => Extent::new(run.end(), gap + 1),
                        _ => Extent::new(run.start + self.rng.below(run.len), 1),
                    };
                    self.release(extent)
                }
            },
            // Aimed takes: whole run, prefix, suffix, middle, `take_at`.
            (false, _) => match self.some_run() {
                None => self.reserve(Extent::new(self.total / 2, 1)),
                Some(run) => match self.rng.below(6) {
                    0 | 1 => self.reserve(run),
                    2 => {
                        let len = 1 + self.rng.below(run.len);
                        self.reserve(Extent::new(run.start, len))
                    }
                    3 => {
                        let len = 1 + self.rng.below(run.len);
                        self.reserve(Extent::new(run.end() - len, len))
                    }
                    4 if run.len >= 3 => {
                        let len = 1 + self.rng.below(run.len - 2);
                        self.reserve(Extent::new(run.start + 1, len))
                    }
                    4 => self.reserve(Extent::new(run.start, run.len + 1)),
                    _ => {
                        let at = match self.rng.below(3) {
                            0 => self.near_first_run().unwrap_or(run.start),
                            _ => run.start + self.rng.below(run.len + 1),
                        };
                        let max_len = self.rng.below(run.len + 2);
                        let taken = self.map.take_at(at, max_len);
                        assert_eq!(taken, self.model.take_at(at, max_len), "take_at");
                        taken.is_some()
                    }
                },
            },
        };
        if let Some(before) = before.filter(|_| !accepted) {
            assert_same_map(&self.map, &before, self.ops);
        }
        self.peak_runs = self.peak_runs.max(self.map.run_count());
    }

    /// A release through `FreeSpace::release` half the time, through
    /// `release_coalesced` with a granule the other half; the reference
    /// releases, then reserves the aligned span of the coalesced run.
    fn release(&mut self, extent: Extent) -> bool {
        // Small granules, so every shape of the in-place edit comes up: a
        // granule of 1 withdraws the whole run, the others leave a head, a
        // tail, both or neither.
        let granule = [None, None, None, None, Some(1), Some(2), Some(3), Some(8)]
            [self.rng.below(8) as usize];
        let got = match granule {
            None => self.map.release(extent).map(|()| None),
            Some(granule) => self.map.release_coalesced(extent, Some(granule)),
        };
        let expected = self.model.release(extent).map(|coalesced| {
            let span = granule.and_then(|granule| aligned_span(coalesced, granule));
            if let Some(span) = span {
                self.model.reserve(span).expect("inside the run just freed");
            }
            (coalesced, span)
        });
        assert_eq!(
            got,
            expected.map(|(_, span)| span),
            "op {}: release {extent:?} in granules of {granule:?}",
            self.ops
        );
        let Some((run, span)) = expected.ok().filter(|_| !extent.is_empty()) else {
            return got.is_ok();
        };
        if granule.is_none() {
            let op = self.ops;
            assert_eq!(
                self.map.run_at(extent.start),
                Some(run),
                "op {op}: coalesced"
            );
        } else {
            let (head, tail) = match span {
                Some(span) => (span.start - run.start, run.end() - span.end()),
                None => (run.len, 0),
            };
            let shape = [
                run.start < extent.start,
                run.end() > extent.end(),
                head == 0,
                tail == 0,
            ];
            let index = shape
                .iter()
                .fold(0, |index, &bit| 2 * index + usize::from(bit));
            self.shapes[index] += 1;
        }
        got.is_ok()
    }

    /// A batch walking up the space from a random cluster: in each gap it
    /// meets, a run touching the free run below, the one above, neither, or
    /// filling the gap, sometimes touching the batch run before it; now and
    /// then one that is rejected (reaching into a free run or into the batch
    /// run before it, out of order, out of bounds).
    fn batch(&mut self) -> Vec<Extent> {
        let runs = match self.rng.below(32) {
            0..=7 => 1,
            8 => 64 + self.rng.below(512),
            _ => 1 + self.rng.below(8),
        };
        let mut at = self.cluster();
        let mut batch = Vec::new();
        for _ in 0..runs {
            // The gap at or after `at`: where the free run there ends.
            let start = self.model.run_at(at).map_or(at, |run| run.end());
            if start >= self.total {
                break;
            }
            let end = self
                .model
                .first_fit(1, start)
                .map_or(self.total, |run| run.start);
            let gap = end - start;
            let len = 1 + self.rng.below(gap.min(4));
            // Mostly runs that leave part of the gap allocated, so batches
            // add runs as single frees do instead of only joining them.
            let run = match self.rng.below(16) {
                0 => Extent::new(start, gap),
                1..=4 => Extent::new(start, len),
                5..=8 => Extent::new(end - len, len),
                9..=12 if gap >= 3 => Extent::new(start + 1, 1 + self.rng.below(gap.min(6) - 2)),
                _ => Extent::new(start + self.rng.below(gap), 0),
            };
            batch.push(run);
            // Touching the run just added, in the next gap or further up.
            at = run.end() + self.rng.below(4) * self.rng.below(self.total / 2_000);
        }
        if self.rng.below(8) == 0 && !batch.is_empty() {
            let k = self.rng.below(batch.len() as u64) as usize;
            let bad = batch[k];
            match self.rng.below(4) {
                0 => batch[k].len += self.rng.below(6) + 1,
                1 => batch.insert(k + 1, Extent::new(bad.start + bad.len / 2, 1)),
                2 => batch.push(Extent::new(bad.start.saturating_sub(1), 1)),
                _ => batch.push(Extent::new(self.total - 1, 2)),
            }
        }
        batch
    }

    fn release_batch(&mut self, cadence: &Cadence) -> bool {
        let batch = self.batch();
        let before = self
            .ops
            .is_multiple_of(cadence.snapshot)
            .then(|| format!("{:?}", self.map));
        let granule = [None, Some(1), Some(8), Some(13)][self.rng.below(4) as usize];

        // The reference: the same runs released one at a time; at the first
        // failure (an unsorted run is one the batch must refuse) the ones
        // already released are reserved again.
        let mut expected = Ok(());
        let mut released: Vec<Extent> = Vec::new();
        for &run in batch.iter().filter(|run| !run.is_empty()) {
            let unsorted = run.end() <= self.total
                && released.last().is_some_and(|last| run.start < last.start);
            let result = if unsorted {
                Err(AllocError::UnsortedBatch {
                    start: run.start,
                    len: run.len,
                })
            } else {
                self.model.release(run).map(drop)
            };
            if let Err(error) = result {
                expected = Err(error);
                for &run in released.iter().rev() {
                    self.model.reserve(run).expect("just released");
                }
                break;
            }
            released.push(run);
        }
        let mut expected_spans = Vec::new();
        if let (Ok(()), Some(granule)) = (expected, granule) {
            let mut grown: Vec<Extent> = released
                .iter()
                .filter_map(|run| self.model.run_at(run.start))
                .collect();
            grown.dedup();
            for span in grown
                .into_iter()
                .filter_map(|run| aligned_span(run, granule))
            {
                self.model.reserve(span).expect("inside a free run");
                expected_spans.push(span);
            }
        }

        let mut spans = Vec::new();
        let mut cut = |span| spans.push(span);
        let withdraw = granule.map(|granule| (granule, &mut cut as &mut dyn FnMut(Extent)));
        let got = self.map.release_batch(batch.iter().copied(), withdraw);
        assert_eq!(got, expected, "op {}: release_batch {batch:?}", self.ops);
        assert_eq!(spans, expected_spans, "op {}: withdrawn", self.ops);
        if got.is_ok() {
            self.batches += 1;
            self.widest_batch = self.widest_batch.max(batch.len());
        } else if let Some(before) = before {
            // Down to the blocks' layout.
            assert_eq!(format!("{:?}", self.map), before, "op {}", self.ops);
        }
        got.is_ok()
    }

    fn reserve(&mut self, extent: Extent) -> bool {
        let got = self.map.reserve(extent);
        assert_eq!(
            got,
            self.model.reserve(extent),
            "op {}: reserve {extent:?}",
            self.ops
        );
        got.is_ok()
    }

    /// Every query, with fresh random arguments.
    fn compare(&mut self, cadence: &Cadence) {
        let (map, model, op) = (&self.map, &self.model, self.ops);
        assert_eq!(map.largest(), model.largest(), "op {op}: largest");
        assert_eq!(map.largest_free_run(), model.largest_free_run(), "op {op}");
        assert_eq!(map.last_run(), model.last_run(), "op {op}: last_run");
        assert_eq!(map.run_count(), model.run_count(), "op {op}: run_count");
        assert_eq!(map.free_clusters(), model.free_clusters(), "op {op}: free");
        assert_eq!(map.total_clusters(), model.total_clusters(), "op {op}");
        assert_eq!(
            map.allocated_clusters(),
            model.total_clusters() - model.free_clusters()
        );

        let scans = op.is_multiple_of(cadence.scans);
        let (len, from, at) = (self.len(scans), self.cluster(), self.cluster());
        let at = match self.rng.below(4) {
            0 => self.near_first_run().unwrap_or(at),
            _ => at,
        };
        let to = from + self.rng.below(self.total / 4);
        let (map, model) = (&self.map, &self.model);
        assert_eq!(
            map.first_fit(len, 0),
            model.first_fit(len, 0),
            "op {op}: first_fit({len}, 0)"
        );
        assert_eq!(
            map.first_fit(len, from),
            model.first_fit(len, from),
            "op {op}: first_fit({len}, {from})"
        );
        assert_eq!(
            map.first_fit_starting_in(len, from, to),
            model.first_fit_starting_in(len, from, to),
            "op {op}: first_fit_starting_in({len}, {from}, {to})"
        );
        assert_eq!(map.run_at(at), model.run_at(at), "op {op}: run_at({at})");
        let probe = Extent::new(at, len.min(self.total - at));
        assert_eq!(map.is_free(probe), model.is_free(probe), "op {op}: is_free");
        assert_eq!(
            map.run_lens_desc().take(8).collect::<Vec<_>>(),
            model.run_lens_desc().take(8).collect::<Vec<_>>(),
            "op {op}: run_lens_desc prefix"
        );

        // Band queries: a narrow band every time, a wide one with the scans.
        let width = if scans { self.total } else { 512 };
        let lo = self.cluster();
        let hi = lo + self.rng.below(width);
        let (map, model) = (&self.map, &self.model);
        assert_eq!(
            map.runs_in(lo, hi),
            model.runs_in(lo, hi),
            "op {op}: runs_in"
        );
        assert_eq!(
            map.first_fit_in(len, lo, hi),
            model.first_fit_in(len, lo, hi),
            "op {op}: first_fit_in({len}, {lo}, {hi})"
        );
        assert_eq!(
            map.best_fit_in(len, lo, hi),
            model.best_fit_in(len, lo, hi),
            "op {op}: best_fit_in({len}, {lo}, {hi})"
        );
        assert_eq!(
            map.largest_run_in(lo, hi),
            model.largest_run_in(lo, hi),
            "op {op}: largest_run_in({lo}, {hi})"
        );
        if scans {
            assert_eq!(
                map.best_fit(len),
                model.best_fit(len),
                "op {op}: best_fit({len})"
            );
            assert_eq!(
                map.largest_run_at_most(len),
                model.largest_run_at_most(len),
                "op {op}: largest_run_at_most({len})"
            );
        }
        if op.is_multiple_of(cadence.full) {
            assert_eq!(map.free_runs(), model.free_runs(), "op {op}: free_runs");
            assert_eq!(
                map.run_lens_desc().collect::<Vec<_>>(),
                model.run_lens_desc().collect::<Vec<_>>(),
                "op {op}: run_lens_desc"
            );
            map.verify().unwrap_or_else(|why| panic!("op {op}: {why}"));
        }
    }

    /// `ops` operations of which `free_bias` percent free.
    fn phase(&mut self, ops: u64, free_bias: u64, cadence: &Cadence) {
        for _ in 0..ops {
            self.step(free_bias, cadence);
            self.compare(cadence);
        }
    }
}

/// The whole `granule`-aligned span of `run`, if it holds one.
fn aligned_span(run: Extent, granule: u64) -> Option<Extent> {
    let start = run.start.div_ceil(granule) * granule;
    let end = run.end() / granule * granule;
    (start < end).then(|| Extent::new(start, end - start))
}

/// `map` answers exactly as `before` did — summary included.
fn assert_same_map(map: &RunIndexMap, before: &RunIndexMap, op: u64) {
    map.verify().unwrap_or_else(|why| panic!("op {op}: {why}"));
    assert_eq!(map.largest(), before.largest(), "op {op}: rejected, yet");
    assert_eq!(map.free_clusters(), before.free_clusters(), "op {op}");
    assert_eq!(map.run_count(), before.run_count(), "op {op}");
    assert_eq!(
        map.free_runs(),
        before.free_runs(),
        "op {op}: rejected, yet"
    );
}

/// A few thousand operations over more than ten blocks, every query compared
/// after each one (the whole map after every eighth); grows, shrinks to
/// nothing, grows again.
#[test]
fn tier1_sized_script_matches_the_two_btree_reference() {
    let every_op = Cadence {
        scans: 1,
        full: 8,
        snapshot: 1,
    };
    let mut pair = Pair::new(8_000, 42);
    pair.phase(4_000, 88, &every_op);
    assert!(pair.peak_runs > 10 * 64, "{} runs", pair.peak_runs);
    assert!(pair.batches >= 100, "{} batches", pair.batches);
    pair.phase(1_500, 15, &every_op);
    pair.phase(1_000, 70, &every_op);
    pair.phase(500, 50, &every_op);
}

/// The long one (CI runs it with `--ignored`, in release): past 30,000 runs,
/// down to a handful — block after block merged or emptied — and up again,
/// the summary re-laid at every power of two on the way, with thousands of
/// batched releases among the frees.
#[test]
#[ignore = "long: run with --release -- --ignored"]
fn long_script_to_30k_runs_matches_the_two_btree_reference() {
    let cadence = Cadence {
        scans: 64,
        full: 4_096,
        snapshot: 16,
    };
    let mut pair = Pair::new(600_000, 7);
    pair.phase(100_000, 90, &cadence);
    assert!(pair.peak_runs >= 30_000, "{} runs", pair.peak_runs);
    pair.phase(120_000, 8, &cadence);
    assert!(pair.map.run_count() < 2_000, "{}", pair.map.run_count());
    pair.phase(40_000, 75, &cadence);
    pair.phase(20_000, 50, &cadence);
    pair.ops = 0;
    pair.compare(&cadence);
    // Batched releases went through every stage, some spanning hundreds of
    // runs.
    assert!(pair.batches >= 2_000, "{} batches", pair.batches);
    assert!(pair.widest_batch >= 256, "{} runs", pair.widest_batch);
    // Single releases with a granule took every shape of the edit, the
    // rarest (an isolated extent keeping a head and a tail) about a hundred
    // times.
    assert!(pair.shapes.iter().all(|&n| n >= 50), "{:?}", pair.shapes);
}
