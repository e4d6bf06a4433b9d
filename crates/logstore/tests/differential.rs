//! Differential test of [`SegmentLog`] against the log it was before PR 20
//! (`reference/`): a cleaner that scores every segment, an update path that
//! clones records and collects covered segments into sets.
//!
//! Both logs are driven in lock-step through a seeded random script of
//! `insert` / `insert_as_maintenance` / `update` / `remove` / `clean_step`
//! calls on logs of more than ten summary blocks, kept 80–92 % live so the
//! free pool runs dry and appends vacate victims through the foreground head;
//! sizes run from a sliver of a segment to four segments, so victims hold
//! survivors that straddle them and vacates copy live bytes; cleaning
//! budgets run from one byte to unbounded (`clean_all`) on every size mix.
//! After every
//! operation the two `Result`s must be equal (extents, fragment counts and
//! emergency reports included), the byte counters and the free-segment runs
//! must agree — a different victim anywhere inside the operation frees a
//! different segment — and `next_victim` must name the same segment uncapped
//! and under a random `max_live` cap.  On a cadence every object's extents,
//! the totals and `segment_stats` are compared and `verify()` must hold;
//! debug builds also run it inside the log after every vacate and rewrite.
//!
//! **Mutation-checked** (PR 20, each against the two tier-1 tests): dropping
//! the summary fold where `append_bytes` seals a head fails `verify`
//! ("summary of block 11 …") at operation 1,056 of the first mixed script, the
//! first full comparison after a head sealed with dead bytes in it; dropping
//! the fold in `deaden_part` fails `next_victim` just past the fill
//! (operations 917 and 2,481 of the two tests); dropping the block
//! recomputation in `release_victim` fails the log's own debug-build `verify`
//! at the first victim freed; breaking score ties towards the higher index
//! fails `next_victim` in both tests as soon as two segments tie (operations
//! 942 and 2,484); and `>` for `≥` in `select_victim`'s block test fails
//! `tied_scores…` at operation 560 of the cost-benefit spans script, inside an
//! update whose emergency vacate took the higher of two tied segments either
//! side of a block border.  That last one needs the higher block to hold the
//! *looser* bound, which greedy's bounds never are (a block's least `live` is
//! one member's score exactly) — hence the spans script, and the directed
//! `a_tie_with_a_lower_block_is_not_skipped` in `src/log.rs`.
//!
//! Since PR 23 the log's object table is hashed and the reference's is still
//! the ordered map, so `ids()` ≡ `ids()` in every full comparison is what
//! holds the sort-on-demand; one script draws its ids from both ends of
//! `u64`.  Mutation-checked: `ids()` returned unsorted fails all three
//! tier-1 tests at their first full comparison.

mod reference;

use lor_alloc::{FreeSpace, PlacementPolicy};
use lor_logstore::{CleanerSelector, LogConfig, SegmentLog};
use reference::ReferenceLog;

const KB: u64 = 1024;
const SEGMENT: u64 = 64 * KB;

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

#[derive(Clone, Copy)]
enum Sizes {
    /// A sliver of a segment up to four segments.
    Mixed,
    /// One size: whole runs of segments tie on either selector's score.
    Single(u64),
    /// Half a segment to four, in halves: the segments one append fills
    /// share its sequence number, and dead ones tie across block borders.
    Spans,
}

struct Pair {
    log: SegmentLog,
    model: ReferenceLog,
    rng: Rng,
    sizes: Sizes,
    /// Live ids, in no particular order.
    ids: Vec<u64>,
    /// Fresh ids issued so far, plus one; `id_of` turns the count into the id.
    next_id: u64,
    id_of: fn(u64) -> u64,
    ops: u64,
    /// Whole-log comparison and `verify()` every this many operations.
    full_every: u64,
    capped_differs: u64,
}

impl Pair {
    fn new(
        segments: u64,
        selector: CleanerSelector,
        placement: PlacementPolicy,
        sizes: Sizes,
        seed: u64,
        full_every: u64,
    ) -> Self {
        let mut config = LogConfig::new(segments * SEGMENT);
        config.segment_bytes = SEGMENT;
        config.selector = selector;
        config.placement = placement;
        Pair {
            log: SegmentLog::new(config).unwrap(),
            model: ReferenceLog::new(config).unwrap(),
            rng: Rng(seed),
            sizes,
            ids: Vec::new(),
            next_id: 1,
            id_of: |n| n,
            ops: 0,
            full_every,
            capped_differs: 0,
        }
    }

    /// Ids from both ends of `u64` towards the middle — `0`, `u64::MAX`,
    /// `1`, `u64::MAX - 1`, … — so the top half arrives descending and no
    /// dense structure could index them.
    fn with_sparse_ids(mut self) -> Self {
        self.id_of = |n| {
            if n % 2 == 1 {
                n / 2
            } else {
                u64::MAX - (n / 2 - 1)
            }
        };
        self
    }

    fn size(&mut self) -> u64 {
        match self.sizes {
            Sizes::Single(bytes) => bytes,
            Sizes::Spans => (1 + self.rng.below(8)) * SEGMENT / 2,
            Sizes::Mixed => match self.rng.below(10) {
                0 => 100 * KB + self.rng.below(156 * KB),
                1..=4 => 16 * KB + self.rng.below(84 * KB),
                _ => 1 + self.rng.below(16 * KB),
            },
        }
    }

    fn some_id(&mut self) -> Option<(usize, u64)> {
        let at = self.rng.below(self.ids.len() as u64) as usize;
        self.ids.get(at).map(|id| (at, *id))
    }

    /// One operation on both logs, steered to keep the log 80–92 % live.
    fn step(&mut self) {
        self.ops += 1;
        let op = self.ops;
        let fill = self.log.live_bytes() * 100 / self.log.data_capacity_bytes();
        let roll = self.rng.below(100);
        let grow = fill < 80 || (fill < 92 && roll < 8);
        if grow || self.ids.is_empty() {
            let (id, size) = ((self.id_of)(self.next_id), self.size());
            let (got, expected) = if roll % 8 == 7 {
                (
                    self.log.insert_as_maintenance(id, size),
                    self.model.insert_as_maintenance(id, size),
                )
            } else {
                (self.log.insert(id, size), self.model.insert(id, size))
            };
            assert_eq!(got, expected, "op {op}: insert {id} of {size}");
            if got.is_ok() {
                self.ids.push(id);
                self.next_id += 1;
            }
        } else if fill >= 92 || roll < 14 {
            let (at, id) = self.some_id().expect("ids is not empty");
            assert_eq!(self.log.remove(id), self.model.remove(id), "op {op}");
            self.ids.swap_remove(at);
        } else if roll < 16 {
            // Unbounded on every size mix: `clean_all` ends once no victim
            // is left that the pass did not open itself, straddlers or not.
            let budget = match self.rng.below(32) {
                0 => u64::MAX,
                1..=7 => 1,
                _ => self.rng.below(8 * SEGMENT),
            };
            assert_eq!(
                self.log.clean_step(budget),
                self.model.clean_step(budget),
                "op {op}: clean_step({budget})"
            );
        } else if roll < 18 {
            // Ids that are not there, or already are.
            let (_, id) = self.some_id().expect("ids is not empty");
            assert_eq!(self.log.insert(id, KB), self.model.insert(id, KB));
            let absent = (self.id_of)(self.next_id + 5);
            assert_eq!(self.log.update(absent, KB), self.model.update(absent, KB));
            assert_eq!(self.log.remove(absent), self.model.remove(absent));
        } else {
            let (_, id) = self.some_id().expect("ids is not empty");
            let size = self.size();
            assert_eq!(
                self.log.update(id, size),
                self.model.update(id, size),
                "op {op}: update {id} to {size}"
            );
        }
    }

    fn compare(&mut self) {
        let op = self.ops;
        let cap = self.rng.below(SEGMENT + 1);
        let (log, model) = (&self.log, &self.model);
        let uncapped = log.next_victim(None).victim;
        let capped = log.next_victim(Some(cap)).victim;
        assert_eq!(uncapped, model.next_victim(None), "op {op}: next_victim");
        assert_eq!(
            capped,
            model.next_victim(Some(cap)),
            "op {op}: next_victim under cap {cap}"
        );
        self.capped_differs += u64::from(capped != uncapped);
        assert_eq!(log.live_bytes(), model.live_bytes(), "op {op}: live");
        assert_eq!(log.dead_bytes(), model.dead_bytes(), "op {op}: dead");
        assert_eq!(log.object_count(), model.object_count(), "op {op}");
        assert_eq!(
            log.free_map().free_runs(),
            model.free_map().free_runs(),
            "op {op}: a different segment was freed or opened"
        );
        if op.is_multiple_of(self.full_every) {
            self.compare_everything();
        }
    }

    fn compare_everything(&self) {
        let (log, model, op) = (&self.log, &self.model, self.ops);
        log.verify().unwrap_or_else(|why| panic!("op {op}: {why}"));
        assert!(log.ids().eq(model.ids()), "op {op}: ids");
        for id in log.ids() {
            assert_eq!(log.extents_of(id), model.extents_of(id), "op {op}: {id}");
            assert_eq!(log.size_of(id), model.size_of(id), "op {op}: {id}");
        }
        assert_eq!(log.fragmentation(), model.fragmentation(), "op {op}");
        assert_eq!(log.cleaner_totals(), model.cleaner_totals(), "op {op}");
        assert_eq!(log.emergency_totals(), model.emergency_totals(), "op {op}");
        assert_eq!(log.segment_stats(), model.segment_stats(), "op {op}");
    }

    fn run(mut self, ops: u64) -> Self {
        for _ in 0..ops {
            self.step();
            self.compare();
        }
        self.compare_everything();
        self
    }
}

fn placements() -> [PlacementPolicy; 3] {
    [
        PlacementPolicy::Unrestricted,
        PlacementPolicy::banded(0.8),
        PlacementPolicy::Reserve,
    ]
}

/// Both selectors × three placements on 13 blocks, mixed sizes: a few
/// thousand operations each, everything compared after every thirty-second.
#[test]
fn tier1_sized_scripts_match_the_linear_scan_reference() {
    let mut emergency_copied = 0;
    let mut cleaner_copied = 0;
    let mut capped_differs = 0;
    for (case, selector) in CleanerSelector::ALL.into_iter().enumerate() {
        for placement in placements() {
            let seed = 42 + case as u64;
            let pair = Pair::new(800, selector, placement, Sizes::Mixed, seed, 32).run(2_000);
            assert!(pair.log.segment_count() > 10 * 64);
            emergency_copied += pair.log.emergency_totals().bytes_copied;
            cleaner_copied += pair.log.cleaner_totals().bytes_copied;
            capped_differs += pair.capped_differs;
        }
    }
    // The scripts went where the bookkeeping is: vacates that copy survivors,
    // cleaner rewrites, and caps that change the answer.
    assert!(
        emergency_copied > 0,
        "no emergency vacate copied live bytes"
    );
    assert!(cleaner_copied > 0, "the cleaner rewrote nothing");
    assert!(capped_differs > 100, "max_live rarely mattered");
}

/// Scripts built to tie.  One size — a quarter segment, so heads seal
/// exactly — leaves whole runs of fully-dead and equally-dead segments with
/// the same greedy score, within a block and across blocks; sizes in half
/// segments up to four leave the segments one append filled with the same
/// sequence number, so dead ones tie under cost-benefit too, across block
/// borders, the higher block often holding the looser bound.  Only the lowest
/// index is right.
#[test]
fn tied_scores_break_to_the_lowest_index() {
    let unrestricted = PlacementPolicy::Unrestricted;
    let sizes = Sizes::Single(SEGMENT / 4);
    let pair = Pair::new(800, CleanerSelector::Greedy, unrestricted, sizes, 9, 32).run(5_000);
    let freed = pair.log.emergency_totals().segments_freed;
    assert!(freed > 100, "{freed} emergency vacates");
    for selector in CleanerSelector::ALL {
        let pair = Pair::new(800, selector, unrestricted, Sizes::Spans, 0, 32).run(1_500);
        let freed = pair.log.emergency_totals().segments_freed;
        assert!(freed > 100, "{selector:?}: {freed} emergency vacates");
    }
}

/// Ids the caller picks: sparse, extreme, half of them inserted descending.
/// The object table is hashed, so `ids()` sorts on demand; the reference's
/// ordered map says what ascending is.
#[test]
fn sparse_and_extreme_ids_list_ascending() {
    let greedy = CleanerSelector::Greedy;
    let pair = Pair::new(
        800,
        greedy,
        PlacementPolicy::Unrestricted,
        Sizes::Mixed,
        5,
        32,
    )
    .with_sparse_ids()
    .run(2_000);
    let ids: Vec<u64> = pair.log.ids().collect();
    assert!(ids.windows(2).all(|pair| pair[0] < pair[1]));
    let top_half = ids.iter().filter(|&&id| id > u64::MAX / 2).count();
    assert!(top_half > 100 && ids.len() - top_half > 100);
    assert!(pair.log.emergency_totals().segments_freed > 0);
}

/// The long one (CI runs it with `--ignored`, in release): 63 blocks, both
/// selectors × three placements with mixed sizes, the two tying scripts and
/// a sparse-id script.
#[test]
#[ignore = "long: run with --release -- --ignored"]
fn long_scripts_match_the_linear_scan_reference() {
    for (case, selector) in CleanerSelector::ALL.into_iter().enumerate() {
        for placement in placements() {
            let seed = 7 + case as u64;
            let pair = Pair::new(4_000, selector, placement, Sizes::Mixed, seed, 512).run(40_000);
            assert!(pair.log.emergency_totals().bytes_copied > 0);
            // 990 to 6,649 across the six: an unbounded pass on mixed sizes
            // leaves the least for the cap to decide.
            assert!(pair.capped_differs > 500);
        }
        for sizes in [Sizes::Single(SEGMENT / 2), Sizes::Spans] {
            Pair::new(
                4_000,
                selector,
                PlacementPolicy::Unrestricted,
                sizes,
                3,
                512,
            )
            .run(20_000);
        }
        Pair::new(
            4_000,
            selector,
            PlacementPolicy::Unrestricted,
            Sizes::Mixed,
            11,
            512,
        )
        .with_sparse_ids()
        .run(20_000);
    }
}
