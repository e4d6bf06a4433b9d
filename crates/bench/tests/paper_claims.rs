//! The paper's claims, each written once as a predicate over the figures
//! `figures` prints and checked on the goldens CI regenerates and diffs on
//! every push: `golden/figures_paper_full.txt` (Figures 1–6 at the paper's
//! 40 GB / 400 GB volumes) and `golden/figures_report.txt` (every family at
//! a tenth of that).  Each test is one claim, checked on every golden that
//! carries its figure, except that volume size does not matter at 50 %
//! occupancy only at paper scale: report scale's Figure 6 volumes are 4 GB
//! and 40 GB, and on the 4 GB one the database shows §5.4's small-pool
//! caveat.  Report scale's 40 GB series equal the paper's point for point.
//! The scenario families (maintenance, queueing, idle-detect, mixed load,
//! cleaner and placement frontiers, latency anatomy, shard sweep)
//! are only in the report golden, so their claims hold at report scale and
//! are stated there; at smaller volumes several do not (the cleaner
//! frontier's selector order flips on the smoke golden).  A missing figure,
//! series or point fails the claim; nothing passes vacuously.
//!
//! Every figure of both goldens is read by at least one claim:
//! `every_figure_is_read_by_a_claim` runs the claims on one reading of the
//! goldens, which records each figure a claim looks up, and names any
//! figure none did.  A new figure therefore fails it until a claim reads it.
//!
//! Mutation-checked on scratch copies of the goldens; each edit fails the
//! claim named and no other: Fig. 4's Database bulk load set below the
//! Filesystem's (`database_wins_bulk_load_and_writes_slow_with_age`); one
//! Fig. 2 Database point lowered below its predecessor
//! (`database_fragments_keep_growing_and_filesystem_levels_off_far_below`);
//! Fig. 6.3's 97.5 % columns swapped with the 90 % ones
//! (`a_small_free_pool_fragments_faster`); the `idle-detect` and
//! `fixed-budget(64)` columns of "Idle-detect p99 latency (filesystem)"
//! swapped (`idle_detect_buys_fixed_budget_fragmentation_at_lower_tail_latency`);
//! one "0% writes" cell of "Mixed load sweep frag growth (database)" set to
//! 0.010 (`mixed_sweep_hockey_stick_shifts_with_write_fraction`); the
//! Database point at budget 256 of "Maintenance latency" lowered below the
//! one at budget 64 (`background_budget_buys_fragments_with_foreground_latency`);
//! the `worst-fit` and `best-fit` columns of "Policy ablation (database)"
//! swapped (`worst_fit_fragments_least_and_best_fit_most`); the database's
//! `rebalance phased` point at 16 shards raised above `rebalance off`'s
//! (`rebalancing_never_leaves_the_worst_shard_worse`); one `maintenance`
//! cell of "Latency anatomy (filesystem, substrate-aware + banded)" set to 0
//! (`maintenance_reaches_the_filesystem_tail_directly_and_the_database_tail_as_queueing`);
//! the `cost-benefit` and `greedy` columns of "Cleaner frontier (log)"
//! swapped (`greedy_cleaning_fragments_less_than_cost_benefit`); the
//! cost-benefit point at round 10 of "Cleaner aging (log)" lowered below
//! round 9's (`an_uncleaned_log_fragments_with_every_round`); greedy's
//! budget-256 point of "Cleaner p99 (log)" set below its budget-0 point
//! (`cleaning_holds_the_log_below_idle_and_a_lavish_budget_costs_the_tail`).
//! A fake figure block appended to the report golden fails only
//! `every_figure_is_read_by_a_claim`, which names it; so does the database
//! block of the deleted rate-adaptive frontier family, pasted back into it.
//! The one claim no figure carries, 8 MB objects, is
//! `large_objects_favour_the_filesystem_even_when_clean` in the root crate's
//! `tests/end_to_end.rs`.

use std::cell::RefCell;
use std::collections::BTreeSet;

use lor_core::{Figure, Series};

/// The cells of a line `Figure::to_text` wrote: runs of two or more spaces
/// separate them, and a label holds single spaces at most.
fn cells(line: &str) -> Vec<&str> {
    let cells = line.split("  ").map(str::trim);
    cells.filter(|cell| !cell.is_empty()).collect()
}

/// Every figure of a `figures` output: the inverse of `Figure::to_text`.
/// Blocks are separated by a blank line, and a block without a `(y vs x)`
/// line (Table 1) is not a figure.  `-` marks a series with no point at
/// that row's x.
fn read_figures(text: &str) -> Vec<Figure> {
    let number = |cell: &str| -> f64 { cell.parse().expect("a figure cell is a number") };
    let mut figures = Vec::new();
    for block in text.split("\n\n") {
        let mut lines = block.lines();
        let Some((id, title)) = lines.next().and_then(|line| line.split_once(" — ")) else {
            continue;
        };
        let axes = lines.next().map(str::trim);
        let Some(axes) = axes.and_then(|line| line.strip_prefix('(')?.strip_suffix(')')) else {
            continue;
        };
        let (y_label, x_label) = axes.split_once(" vs ").expect("axes read (y vs x)");
        let header = cells(lines.next().expect("a figure has a header row"));
        let mut figure = Figure::new(id, title, x_label, y_label);
        for label in &header[1..] {
            figure.series.push(Series::new(*label, Vec::new()));
        }
        for line in lines {
            let row = cells(line);
            assert_eq!(row.len(), header.len(), "{id}: row {line:?}");
            for (series, cell) in figure.series.iter_mut().zip(&row[1..]) {
                if *cell != "-" {
                    series.points.push((number(row[0]), number(cell)));
                }
            }
        }
        figures.push(figure);
    }
    figures
}

/// One golden, read back.
struct Golden {
    file: &'static str,
    figures: Vec<Figure>,
    /// The ids of the figures the claims have looked up.
    read: RefCell<BTreeSet<String>>,
    /// Whether a claim that does not hold fails; `false` only while the
    /// coverage test runs the claims to learn which figures they read.
    checks: bool,
}

/// Both goldens, read back.
struct Goldens {
    paper: Golden,
    report: Golden,
}

impl Goldens {
    fn read(checks: bool) -> Self {
        let golden = |file, text| Golden {
            file,
            figures: read_figures(text),
            read: RefCell::default(),
            checks,
        };
        Goldens {
            paper: golden(
                "figures_paper_full.txt",
                include_str!("../golden/figures_paper_full.txt"),
            ),
            report: golden(
                "figures_report.txt",
                include_str!("../golden/figures_report.txt"),
            ),
        }
    }

    /// The paper-scale golden, then the report-scale one.
    fn both(&self) -> [&Golden; 2] {
        [&self.paper, &self.report]
    }
}

impl Golden {
    /// The points of series `label` in figure `id`, in x order; a missing
    /// figure or series, or an empty one, fails.
    fn points(&self, id: &str, label: &str) -> &[(f64, f64)] {
        self.read.borrow_mut().insert(id.to_string());
        let figure = self.figures.iter().find(|figure| figure.id == id);
        let series = figure.and_then(|figure| figure.series.iter().find(|s| s.label == label));
        let points = series.map_or(&[][..], |series| series.points.as_slice());
        let file = self.file;
        assert!(!points.is_empty(), "{file}: no series {label:?} in {id}");
        points
    }

    /// The series' y values, in x order.
    fn ys(&self, id: &str, label: &str) -> Vec<f64> {
        self.points(id, label).iter().map(|&(_, y)| y).collect()
    }

    /// The series' y at exactly `x`; a missing point fails.
    fn at(&self, id: &str, label: &str, x: f64) -> f64 {
        let point = self.points(id, label).iter().find(|&&(px, _)| px == x);
        let missing = || panic!("{}: {id} {label:?} has no point at {x}", self.file);
        point.unwrap_or_else(missing).1
    }

    /// The series' y at each of `xs`, in that order; a missing point fails.
    fn ys_at(&self, id: &str, label: &str, xs: &[f64]) -> Vec<f64> {
        xs.iter().map(|&x| self.at(id, label, x)).collect()
    }

    /// Fails the claim under test unless `holds`, showing the values read.
    fn check(&self, figure: &str, holds: bool, values: String) {
        let file = self.file;
        assert!(
            holds || !self.checks,
            "{file}, {figure}: the claim fails: {values}"
        );
    }
}

fn strictly_falls(ys: &[f64]) -> bool {
    ys.windows(2).all(|pair| pair[1] < pair[0])
}

fn strictly_rises(ys: &[f64]) -> bool {
    ys.windows(2).all(|pair| pair[1] > pair[0])
}

fn never_falls(ys: &[f64]) -> bool {
    ys.windows(2).all(|pair| pair[1] >= pair[0])
}

/// The storage ages the report golden's maintenance, idle-detect and
/// placement families measure.
const AGES: [f64; 11] = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0];

/// The ages of the families that skip the bulk load (latency percentiles
/// and anatomy).
const AGED: [f64; 10] = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0];

/// The offered loads of both load sweeps, as fractions of capacity.
const LOADS: [f64; 5] = [0.2, 0.4, 0.6, 0.8, 0.95];

/// The fleet sizes of the report golden's shard sweep.
const FLEETS: [f64; 6] = [2.0, 4.0, 8.0, 16.0, 32.0, 64.0];

/// The background budgets of the report golden's cleaner frontier.
const CLEANER_BUDGETS: [f64; 4] = [0.0, 16.0, 64.0, 256.0];

/// The log's victim selectors, in the cleaner figures' series order.
const SELECTORS: [&str; 2] = ["cost-benefit", "greedy"];

/// The idle-detect policy's label in the idle-detect figures.
const IDLE_DETECT: &str = "idle-detect(5.0 ms)";

/// One `#[test]` per claim of [`claim`], of the claim's own name and run on a
/// fresh reading of the goldens, and `CLAIMS`, every claim, which
/// `every_figure_is_read_by_a_claim` runs to learn which figures the claims
/// read.  A claim left off the list is dead code, which the build rejects.
macro_rules! claims {
    ($($name:ident),+ $(,)?) => {
        $(#[test] fn $name() { claim::$name(&Goldens::read(true)) })+
        const CLAIMS: &[fn(&Goldens)] = &[$(claim::$name),+];
    };
}

/// Every figure of both goldens is read by at least one claim, and each
/// golden holds the figures it should: the paper's Figures 1.1 to 6.3, and
/// every family at report scale.  Whether the claims hold is their own
/// tests' business, so a claim that does not fails only its own test.
#[test]
fn every_figure_is_read_by_a_claim() {
    let goldens = Goldens::read(false);
    for claim in CLAIMS {
        claim(&goldens);
    }
    for golden in goldens.both() {
        let read = golden.read.borrow();
        let unread: Vec<&str> = golden
            .figures
            .iter()
            .map(|figure| figure.id.as_str())
            .filter(|id| !read.contains(*id))
            .collect();
        assert!(
            unread.is_empty(),
            "{}: no claim reads {unread:?}",
            golden.file
        );
        let ids: BTreeSet<&str> = golden.figures.iter().map(|f| f.id.as_str()).collect();
        assert_eq!(
            ids.len(),
            golden.figures.len(),
            "{}: a repeated id",
            golden.file
        );
    }
    assert_eq!(goldens.paper.figures.len(), 11, "Figures 1.1 to 6.3");
    assert_eq!(goldens.report.figures.len(), 45, "every family");
}

/// The claims, one function each.
mod claim {
    use super::*;

    /// Fig. 1.1: on a clean store the database reads 256 KB objects faster.
    pub fn a_clean_store_favours_the_database_for_small_objects(goldens: &Goldens) {
        for golden in goldens.both() {
            let db = golden.at("Figure 1.1", "Database", 256.0);
            let fs = golden.at("Figure 1.1", "Filesystem", 256.0);
            let values = format!("256 KB reads: Database {db} vs Filesystem {fs} MB/s");
            golden.check("Figure 1.1", db > fs, values);
        }
    }

    /// Fig. 1.2: after two overwrites the filesystem reads faster than the
    /// database at every object size, 256 KB included — the aged end of
    /// "To BLOB or Not To BLOB"'s band, where the filesystem wins.
    pub fn two_overwrites_favour_the_filesystem_at_every_size(goldens: &Goldens) {
        for golden in goldens.both() {
            for &(size, db) in golden.points("Figure 1.2", "Database") {
                let fs = golden.at("Figure 1.2", "Filesystem", size);
                let values = format!("{size} KB reads: Database {db} vs Filesystem {fs} MB/s");
                golden.check("Figure 1.2", fs > db, values);
            }
        }
    }

    /// Figs. 1.1 → 1.3: four overwrites divide the database's read
    /// throughput by a larger factor than the filesystem's, at every object
    /// size.
    pub fn aging_erodes_database_reads_more_than_filesystem_reads(goldens: &Goldens) {
        for golden in goldens.both() {
            for &(size, _) in golden.points("Figure 1.1", "Database") {
                let drop = |kind| {
                    golden.at("Figure 1.1", kind, size) / golden.at("Figure 1.3", kind, size)
                };
                let (db, fs) = (drop("Database"), drop("Filesystem"));
                let values = format!("{size} KB: Database ÷{db:.2}, Filesystem ÷{fs:.2}");
                golden.check("Figures 1.1 → 1.3", db > fs, values);
            }
        }
    }

    /// Figs. 2 and 3: the database's fragments/object rise at every age and
    /// more than double after age 1; the filesystem's grow less than 10 %
    /// after age 1 and end at least five times lower.
    pub fn database_fragments_keep_growing_and_filesystem_levels_off_far_below(goldens: &Goldens) {
        for golden in goldens.both() {
            for id in ["Figure 2", "Figure 3"] {
                let growth = |kind| golden.at(id, kind, 10.0) / golden.at(id, kind, 1.0);
                let (db_growth, fs_growth) = (growth("Database"), growth("Filesystem"));
                let gap = golden.at(id, "Database", 10.0) / golden.at(id, "Filesystem", 10.0);
                let db = golden.ys(id, "Database");
                let values = format!(
                    "Database {db:?}; age 10 / age 1: Database {db_growth:.2}, Filesystem \
                     {fs_growth:.2}; Database / Filesystem at age 10: {gap:.1}"
                );
                let holds = strictly_rises(&db) && db_growth > 2.0 && fs_growth < 1.1 && gap > 5.0;
                golden.check(id, holds, values);
            }
        }
    }

    /// Fig. 4: the database fills a clean volume faster, and both systems'
    /// write throughput falls with age — the database's much further.
    pub fn database_wins_bulk_load_and_writes_slow_with_age(goldens: &Goldens) {
        for golden in goldens.both() {
            let kept = |kind| golden.at("Figure 4", kind, 4.0) / golden.at("Figure 4", kind, 0.0);
            let (db_kept, fs_kept) = (kept("Database"), kept("Filesystem"));
            let db = golden.ys("Figure 4", "Database");
            let fs = golden.ys("Figure 4", "Filesystem");
            let values = format!(
                "Database {db:?}, Filesystem {fs:?} MB/s; age 4 / bulk load: Database \
                 {db_kept:.3}, Filesystem {fs_kept:.3}"
            );
            let falls = strictly_falls(&db) && strictly_falls(&fs) && db_kept < fs_kept;
            golden.check("Figure 4", db[0] > fs[0] && falls, values);
        }
    }

    /// Figs. 5.1 and 5.2: constant-size objects fragment like uniformly
    /// sized ones with the same mean — within 20 % of each other at the last
    /// age.
    pub fn constant_and_uniform_sizes_fragment_alike(goldens: &Goldens) {
        for golden in goldens.both() {
            for id in ["Figure 5.1", "Figure 5.2"] {
                let last = |label| *golden.ys(id, label).last().expect("not empty");
                let ratio = last("Constant") / last("Uniform");
                let values = format!("constant / uniform at the last age: {ratio:.3}");
                golden.check(id, (0.8..1.25).contains(&ratio), values);
            }
        }
    }

    /// Figs. 6.1 and 6.2, paper scale only: at 50 % occupancy a 40 GB and a
    /// 400 GB volume fragment alike — within 10 % at every age.
    pub fn volume_size_does_not_matter_at_half_occupancy(goldens: &Goldens) {
        let paper = &goldens.paper;
        for id in ["Figure 6.1", "Figure 6.2"] {
            let small = paper.ys(id, "50% full - 40G");
            let large = paper.ys(id, "50% full - 400G");
            let ratios: Vec<f64> = small.iter().zip(&large).map(|(s, l)| s / l).collect();
            let holds = ratios.len() == 6 && ratios.iter().all(|r| (0.9..1.1).contains(r));
            paper.check(id, holds, format!("40G / 400G at ages 0-5: {ratios:.3?}"));
        }
    }

    /// Figs. 6.1 and 6.2: report scale's larger volume is the paper's
    /// smaller one, and its series equal the paper golden's 40G series point
    /// for point — a run depends on the volume simulated, not on the scale
    /// that asked for it.
    pub fn the_same_40_gb_volume_fragments_alike_at_both_scales(goldens: &Goldens) {
        let label = "50% full - 40G";
        for id in ["Figure 6.1", "Figure 6.2"] {
            let paper = goldens.paper.points(id, label);
            let report = goldens.report.points(id, label);
            let values = format!("{label}: report {report:?}, paper {paper:?}");
            goldens.report.check(id, report == paper, values);
        }
    }

    /// Fig. 6.3: on either volume, a 97.5 %-full filesystem — a small free
    /// pool — ends more fragmented than a 90 %-full one.
    pub fn a_small_free_pool_fragments_faster(goldens: &Goldens) {
        for golden in goldens.both() {
            let id = "Figure 6.3";
            let figure = golden.figures.iter().find(|figure| figure.id == id);
            let series = figure.map_or(&[][..], |figure| figure.series.as_slice());
            let volumes: BTreeSet<&str> = series
                .iter()
                .filter_map(|series| series.label.split_once(" - ").map(|(_, volume)| volume))
                .collect();
            golden.check(id, volumes.len() == 2, format!("volumes {volumes:?}"));
            for volume in volumes {
                let last = |full| golden.at(id, &format!("{full}% full - {volume}"), 5.0);
                let (crowded, roomy) = (last("97.5"), last("90.0"));
                let values = format!("{volume} at age 5: 97.5 % {crowded} vs 90 % {roomy}");
                golden.check(id, crowded > roomy, values);
            }
        }
    }

    /// The write-request sweep (report scale, 256 KB objects at age 4): every
    /// step up from 16 KB to 256 KB requests leaves fewer fragments per
    /// object, on both systems.
    pub fn larger_write_requests_fragment_less(goldens: &Goldens) {
        let report = &goldens.report;
        for kind in ["Database", "Filesystem"] {
            let fragments = report.ys("Write-request sweep", kind);
            let holds = fragments.len() == 5 && strictly_falls(&fragments);
            let values = format!("{kind} at 16, 32, 64, 128, 256 KB: {fragments:?}");
            report.check("Write-request sweep", holds, values);
        }
    }

    /// Maintenance ablation (report scale, 2 MB objects aged to storage age
    /// 4): one full pass of each system's own maintenance — the volume's
    /// defragmenter, the database's table rebuild — leaves exactly one
    /// fragment per object, from a fragmented start.
    pub fn one_maintenance_pass_restores_contiguity(goldens: &Goldens) {
        let report = &goldens.report;
        let id = "Maintenance ablation";
        for kind in ["Database", "Filesystem"] {
            let [before, after] = [0.0, 1.0].map(|x| report.at(id, kind, x));
            let values = format!("{kind}: {before} fragments/object before, {after} after");
            report.check(id, before > 1.5 && after == 1.0, values);
        }
    }

    /// Policy ablation (report scale, 256 KB objects): the theoretically
    /// good policies behave poorly in practice.  `worst-fit` ends the least
    /// fragmented on both systems and `best-fit` the most on the database,
    /// whose `native` lowest-first policy is `first-fit` at every age.
    pub fn worst_fit_fragments_least_and_best_fit_most(goldens: &Goldens) {
        let report = &goldens.report;
        let policies = ["native", "first-fit", "best-fit", "worst-fit", "next-fit"];
        for kind in ["database", "filesystem"] {
            let id = &format!("Policy ablation ({kind})");
            let aged = policies.map(|policy| report.at(id, policy, 10.0));
            let [.., best_fit, worst_fit, _] = aged;
            let fewest = aged.iter().copied().fold(f64::INFINITY, f64::min);
            let most = aged.iter().copied().fold(0.0, f64::max);
            let values = format!("at age 10, {policies:?}: {aged:?}");
            let lowest = worst_fit == fewest && aged.iter().filter(|&&f| f == fewest).count() == 1;
            report.check(
                id,
                lowest && (kind == "filesystem" || best_fit == most),
                values,
            );
        }
        let id = "Policy ablation (database)";
        let native = report.ys_at(id, "native", &AGES);
        let first_fit = report.ys_at(id, "first-fit", &AGES);
        let values = format!("native {native:?}, first-fit {first_fit:?}");
        report.check(id, native == first_fit, values);
    }

    /// Maintenance policies (report scale, 2 MB objects, serial drive): with
    /// no maintenance the fragments/object never fall more than 5 % from one
    /// age to the next and grow by more than 0.2, and both active policies
    /// end below that.
    pub fn maintenance_policies_hold_fragmentation_below_idle(goldens: &Goldens) {
        let report = &goldens.report;
        for kind in ["database", "filesystem"] {
            let id = &format!("Maintenance policies ({kind})");
            let idle = report.ys_at(id, "idle", &AGES);
            let budget = report.at(id, "fixed-budget(512 io/tick)", 10.0);
            let threshold = report.at(id, "threshold(1.50 frags/obj)", 10.0);
            let (first, last) = (idle[0], idle[10]);
            let holds = idle.windows(2).all(|pair| pair[1] >= pair[0] * 0.95)
                && last > first + 0.2
                && last > budget
                && last > threshold;
            let values = format!(
                "idle {idle:?}; at age 10 fixed-budget(512) {budget}, threshold(1.5) {threshold}"
            );
            report.check(id, holds, values);
        }
    }

    /// Maintenance latency and steady state (report scale, storage age 4,
    /// serial drive, so background I/O is charged to the foreground): mean
    /// safe-write latency never falls as the budget grows and every budget
    /// costs more than 2 % over idle; budget 64 stays within 1.15× idle's
    /// fragments/object, and budget 1024 leaves the fewest.
    pub fn background_budget_buys_fragments_with_foreground_latency(goldens: &Goldens) {
        let report = &goldens.report;
        let budgets = [0.0, 64.0, 256.0, 1024.0];
        for kind in ["Database", "Filesystem"] {
            let latency = report.ys_at("Maintenance latency", kind, &budgets);
            let fragments = report.ys_at("Maintenance steady state", kind, &budgets);
            let fewest = fragments.iter().copied().fold(f64::INFINITY, f64::min);
            let holds = never_falls(&latency)
                && latency[1..].iter().all(|&ms| ms > latency[0] * 1.02)
                && fragments[1] <= fragments[0] * 1.15
                && fragments[3] == fewest;
            let values = format!(
                "{kind} at budgets 0, 64, 256, 1024: latency {latency:?} ms, \
                 fragments/object {fragments:?}"
            );
            report.check("Maintenance latency / steady state", holds, values);
        }
    }

    /// Latency percentiles (report scale, 1 MB objects, 8 closed-loop
    /// clients): the database's p50, p95 and p99 safe-write latency rise at
    /// every age, while the filesystem's p99 stays within 1.2× its age-1
    /// value; at age 10 the database's median is more than 4× the
    /// filesystem's.
    pub fn database_client_latency_grows_with_age_and_filesystem_latency_holds(goldens: &Goldens) {
        let report = &goldens.report;
        let db = "Latency percentiles (database)";
        for percentile in ["p50", "p95", "p99"] {
            let ms = report.ys_at(db, &format!("Database {percentile}"), &AGED);
            report.check(db, strictly_rises(&ms), format!("{percentile} {ms:?} ms"));
        }
        let fs = "Latency percentiles (filesystem)";
        let p99 = report.ys_at(fs, "Filesystem p99", &AGED);
        let worst = p99.iter().copied().fold(0.0, f64::max) / p99[0];
        let values = format!("p99 {p99:?} ms, worst / age 1 {worst:.3}");
        report.check(fs, worst <= 1.2, values);
        let gap = report.at(db, "Database p50", 10.0) / report.at(fs, "Filesystem p50", 10.0);
        report.check(
            db,
            gap > 4.0,
            format!("Database / Filesystem p50 at age 10: {gap:.2}"),
        );
    }

    /// Load sweep (report scale, open-loop reads on a store aged two
    /// rounds): on every substrate p99 never falls as offered load rises, at
    /// 0.95 of capacity it is more than 1.5× p50, and the mean queue depth
    /// rises with load.
    pub fn open_loop_tail_latency_grows_with_offered_load(goldens: &Goldens) {
        let report = &goldens.report;
        let id = "Load sweep (latency)";
        for kind in ["Database", "Filesystem", "Log"] {
            let p99 = report.ys_at(id, &format!("{kind} p99"), &LOADS);
            let tail = p99[4] / report.at(id, &format!("{kind} p50"), 0.95);
            let depth = report.ys_at("Load sweep (queue depth)", kind, &LOADS);
            let holds = never_falls(&p99) && tail > 1.5 && strictly_rises(&depth);
            let values = format!(
                "{kind}: p99 {p99:?} ms, p99 / p50 at 0.95 {tail:.2}, queue depth {depth:?}"
            );
            report.check("Load sweep", holds, values);
        }
    }

    /// Idle-detect (report scale, 3 clients with 400 ms think time, server
    /// drive).  On the filesystem, maintenance in the observed idle gaps
    /// ends at a lower p99 than `fixed-budget(64)` for no more than 1.15×
    /// its fragments/object, and `substrate-aware`, whose 2 s ghost hold the
    /// filesystem has no use for, is the same policy there.  On both
    /// substrates `fixed-budget(64)` and `idle-detect` end away from
    /// `idle`'s fragments/object: the runs differ only in policy, so both
    /// did background work.  On the database the eager ghost cleanup feeds
    /// the engine's lowest-first reuse, and `idle-detect` ends more
    /// fragmented than no maintenance at all.
    pub fn idle_detect_buys_fixed_budget_fragmentation_at_lower_tail_latency(goldens: &Goldens) {
        let report = &goldens.report;
        let fragments = "Idle-detect fragmentation (filesystem)";
        let p99 = "Idle-detect p99 latency (filesystem)";
        let fixed = "fixed-budget(64 io/tick)";
        let (detect_p99, fixed_p99) = (
            report.at(p99, IDLE_DETECT, 10.0),
            report.at(p99, fixed, 10.0),
        );
        let detect = report.at(fragments, IDLE_DETECT, 10.0);
        let budget = report.at(fragments, fixed, 10.0);
        let values = format!(
            "at age 10: idle-detect {detect} fragments/object, p99 {detect_p99} ms; \
             fixed-budget(64) {budget}, {fixed_p99} ms"
        );
        let holds = detect_p99 < fixed_p99 && detect <= budget * 1.15;
        report.check(p99, holds, values);
        for id in [fragments, p99] {
            let detect = report.ys_at(id, IDLE_DETECT, &AGES);
            let aware = report.ys_at(id, "substrate-aware(5.0 ms, defer 2000 ms)", &AGES);
            let values = format!("idle-detect {detect:?}, substrate-aware {aware:?}");
            report.check(id, detect == aware, values);
        }

        for kind in ["database", "filesystem"] {
            let id = &format!("Idle-detect fragmentation ({kind})");
            let idle = report.at(id, "idle", 10.0);
            let [budget, detect] = [fixed, IDLE_DETECT].map(|label| report.at(id, label, 10.0));
            let values = format!(
                "at age 10: idle {idle}, fixed-budget(64) {budget}, idle-detect {detect} \
                 fragments/object"
            );
            let worked = budget != idle && detect != idle;
            report.check(
                id,
                worked && (kind == "filesystem" || detect > idle),
                values,
            );
        }
    }

    /// Mixed load sweep (report scale, open-loop reads and safe writes on a
    /// store aged two rounds, load relative to each mix's own capacity):
    /// each mix's p99 never falls as load rises, and at 0.95 the 50 %-write
    /// mix's p99 is more than 2 % away from the read-only mix's, because the
    /// write class rewrites the layout while the sweep runs.  Reads alone
    /// never move it; writes always do, and on the database the half-write
    /// mix goes from healing the layout at 0.2 to fragmenting it at 0.95.
    pub fn mixed_sweep_hockey_stick_shifts_with_write_fraction(goldens: &Goldens) {
        let report = &goldens.report;
        for kind in ["database", "filesystem"] {
            let id = &format!("Mixed load sweep p99 ({kind})");
            for mix in ["0% writes", "25% writes", "50% writes"] {
                let p99 = report.ys_at(id, mix, &LOADS);
                report.check(id, never_falls(&p99), format!("{mix}: p99 {p99:?} ms"));
            }
            let shift = report.at(id, "50% writes", 0.95) / report.at(id, "0% writes", 0.95);
            let values = format!("p99 at 0.95, 50 % writes / 0 % writes: {shift:.3}");
            report.check(id, (shift - 1.0).abs() > 0.02, values);

            let id = &format!("Mixed load sweep frag growth ({kind})");
            let reads = report.ys_at(id, "0% writes", &LOADS);
            let writes = report.ys_at(id, "50% writes", &LOADS);
            let holds = reads.iter().all(|&grown| grown == 0.0)
                && writes.iter().all(|&grown| grown != 0.0)
                && (kind == "filesystem" || (writes[0] < 0.0 && writes[4] > 0.0));
            let values = format!("growth at 0 % writes {reads:?}, at 50 % writes {writes:?}");
            report.check(id, holds, values);
        }
    }

    /// Cleaner aging (report scale, uniform 1 MB objects on the 4 GB log,
    /// Zipf(1.0) safe writes to half the population per round, no background
    /// cleaning): the bulk-loaded log is contiguous, the free half of the
    /// volume absorbs the first two rounds, and from round 2 on every round
    /// ends more fragmented than the one before, under either selector —
    /// the allocation-pressure vacates scatter the survivors they move.
    pub fn an_uncleaned_log_fragments_with_every_round(goldens: &Goldens) {
        let report = &goldens.report;
        let id = "Cleaner aging (log)";
        let rounds: Vec<f64> = (0..=16).map(f64::from).collect();
        for selector in SELECTORS {
            let fragments = report.ys_at(id, selector, &rounds);
            let holds = fragments[0] == 1.0 && strictly_rises(&fragments[2..]);
            report.check(id, holds, format!("{selector}: {fragments:?}"));
        }
    }

    /// Cleaner frontier and p99 (report scale, the cleaner-aging workload
    /// under each background budget): every budget above 0 ends the last
    /// round less fragmented than the idle log, on both selectors, and the
    /// lavish budget 256 pays for it with a last-round p99 above the idle
    /// log's.  At the scarce budgets the idle log's own emergency copying
    /// sits in its foreground too, so no p99 cost is claimed there.
    pub fn cleaning_holds_the_log_below_idle_and_a_lavish_budget_costs_the_tail(goldens: &Goldens) {
        let report = &goldens.report;
        for selector in SELECTORS {
            let id = "Cleaner frontier (log)";
            let fragments = report.ys_at(id, selector, &CLEANER_BUDGETS);
            let holds = fragments[1..].iter().all(|&f| f < fragments[0]);
            let values = format!("{selector} at budgets 0, 16, 64, 256: {fragments:?}");
            report.check(id, holds, values);

            let id = "Cleaner p99 (log)";
            let [idle, lavish] = [0.0, 256.0].map(|budget| report.at(id, selector, budget));
            let values = format!("{selector}: p99 {lavish} ms at budget 256, {idle} ms idle");
            report.check(id, lavish > idle, values);
        }
    }

    /// Cleaner frontier (report scale): greedy victim selection ends the
    /// last round less fragmented than cost-benefit at every budget, the
    /// idle log's emergency cleaning included — Rosenblum's selector does
    /// not win this workload.
    pub fn greedy_cleaning_fragments_less_than_cost_benefit(goldens: &Goldens) {
        let report = &goldens.report;
        let id = "Cleaner frontier (log)";
        let [cost_benefit, greedy] =
            SELECTORS.map(|selector| report.ys_at(id, selector, &CLEANER_BUDGETS));
        let holds = greedy.iter().zip(&cost_benefit).all(|(g, c)| g < c);
        let values =
            format!("at budgets 0, 16, 64, 256: greedy {greedy:?}, cost-benefit {cost_benefit:?}");
        report.check(id, holds, values);
    }

    /// Placement frontier (report scale, the idle-detect workload, each
    /// gap-filling policy under five placements).  On the database,
    /// `substrate-aware` with the compactor confined to its band
    /// (`banded(0.90)`) ends below 0.85× the fragments/object of
    /// unrestricted `idle-detect` — the idle-detect family's run of the same
    /// workload — at no more than 1.05× its p99, and its background work
    /// shows as a maintenance component of that workload's p99 anatomy.  The
    /// filesystem stays at or below 1.1 fragments/object under every
    /// placement, at every age.
    pub fn placement_aware_substrate_aware_wins_the_db_gap_filling_frontier(goldens: &Goldens) {
        let report = &goldens.report;
        let detect = report.at("Idle-detect fragmentation (database)", IDLE_DETECT, 10.0);
        let detect_p99 = report.at("Idle-detect p99 latency (database)", IDLE_DETECT, 10.0);
        let banded = report.at("Placement fragmentation (database)", "banded(0.90)", 10.0);
        let id = "Placement frontier (database)";
        let banded_p99 = report.at(id, "substrate-aware", banded);
        let values = format!(
            "at age 10: substrate-aware + banded(0.90) {banded} fragments/object, p99 \
             {banded_p99} ms; unrestricted idle-detect {detect}, {detect_p99} ms"
        );
        let holds = banded < detect * 0.85 && banded_p99 <= detect_p99 * 1.05;
        report.check(id, holds, values);
        let id = "Latency anatomy (database, substrate-aware + banded)";
        let maintenance = report.ys(id, "maintenance");
        let values = format!("maintenance in the p99 tail: {maintenance:?} ms");
        report.check(id, maintenance.iter().any(|&ms| ms > 0.0), values);

        let id = "Placement frontier (filesystem)";
        for policy in ["idle-detect", "substrate-aware"] {
            let points = report.points(id, policy);
            let holds = points.len() == 5 && points.iter().all(|&(fragments, _)| fragments <= 1.1);
            report.check(id, holds, format!("{policy} at {points:?}"));
        }
        let id = "Placement fragmentation (filesystem)";
        let placements = [
            "unrestricted",
            "banded(0.60)",
            "banded(0.75)",
            "banded(0.90)",
            "reserve",
        ];
        for placement in placements {
            let fragments = report.ys_at(id, placement, &AGES);
            let holds = fragments.iter().all(|&f| f <= 1.1);
            report.check(id, holds, format!("{placement}: {fragments:?}"));
        }
    }

    /// Latency anatomy (report scale, the idle-detect workload, the p99
    /// safe-write tail split into components): under `idle` no tail request
    /// waits for maintenance.  Under `substrate-aware + banded` maintenance
    /// reaches the filesystem's tail directly, as more than 5 % of it at
    /// every age, and the database's as under 1 %, while the database's
    /// queueing exceeds its `idle` queueing at every age: there the price is
    /// paid indirectly.
    pub fn maintenance_reaches_the_filesystem_tail_directly_and_the_database_tail_as_queueing(
        goldens: &Goldens,
    ) {
        let report = &goldens.report;
        let anatomy = |kind: &str, policy: &str| format!("Latency anatomy ({kind}, {policy})");
        for kind in ["database", "filesystem"] {
            let id = &anatomy(kind, "idle");
            let maintenance = report.ys_at(id, "maintenance", &AGED);
            let values = format!("maintenance {maintenance:?} ms");
            report.check(id, maintenance.iter().all(|&ms| ms == 0.0), values);

            let id = &anatomy(kind, "substrate-aware + banded");
            let maintenance = report.ys_at(id, "maintenance", &AGED);
            let total = report.ys_at(id, "total", &AGED);
            let shares: Vec<f64> = maintenance.iter().zip(&total).map(|(m, t)| m / t).collect();
            let holds = if kind == "filesystem" {
                shares.iter().all(|&share| share > 0.05)
            } else {
                shares.iter().all(|&share| share < 0.01)
            };
            report.check(
                id,
                holds,
                format!("maintenance share of the tail {shares:.4?}"),
            );
        }
        let id = &anatomy("database", "substrate-aware + banded");
        let queueing = report.ys_at(id, "queueing", &AGED);
        let idle = report.ys_at(&anatomy("database", "idle"), "queueing", &AGED);
        let holds = queueing.iter().zip(&idle).all(|(q, i)| q > i);
        report.check(
            id,
            holds,
            format!("queueing {queueing:?} ms, under idle {idle:?} ms"),
        );
    }

    /// Shard fan-out tail (report scale, 512 KB objects, a fixed aggregate
    /// rate of multi-object reads): on every substrate and fleet size the
    /// p99 rises strictly with the fan-out width, as a read completes at its
    /// slowest shard, and at widths 4 and 8 it falls strictly as the fleet
    /// grows and spreads the load.
    pub fn fan_out_tail_grows_with_width_and_shrinks_with_fleet_size(goldens: &Goldens) {
        let report = &goldens.report;
        let id = "Shard fan-out tail";
        let widths = [1.0, 2.0, 4.0, 8.0];
        for kind in ["database", "filesystem"] {
            let label = |shards: f64| format!("{kind} ({shards} shards)");
            for shards in FLEETS {
                let p99 = report.ys_at(id, &label(shards), &widths);
                let values = format!("{}: p99 {p99:?} ms at widths 1, 2, 4, 8", label(shards));
                report.check(id, strictly_rises(&p99), values);
            }
            for width in [4.0, 8.0] {
                let p99 = FLEETS.map(|shards| report.at(id, &label(shards), width));
                let values = format!("{kind} width {width}: p99 {p99:?} ms at 2 to 64 shards");
                report.check(id, strictly_falls(&p99), values);
            }
        }
    }

    /// Rebalance frontier (report scale, Zipfian churn on banded fleets):
    /// at every fleet size both rebalancing drives, phased and concurrent,
    /// leave the worst shard at or below the fragments/object it has with
    /// the drive off, and from 4 shards up the phased drive leaves it
    /// strictly below.
    pub fn rebalancing_never_leaves_the_worst_shard_worse(goldens: &Goldens) {
        let report = &goldens.report;
        for kind in ["database", "filesystem"] {
            let id = &format!("Rebalance frontier ({kind})");
            let [off, phased, concurrent] = ["off", "phased", "concurrent"]
                .map(|mode| report.ys_at(id, &format!("rebalance {mode}"), &FLEETS));
            let at_most = |drive: &[f64]| drive.iter().zip(&off).all(|(d, o)| d <= o);
            let below = phased[1..].iter().zip(&off[1..]).all(|(p, o)| p < o);
            let values = format!("off {off:?}, phased {phased:?}, concurrent {concurrent:?}");
            report.check(
                id,
                at_most(&phased) && at_most(&concurrent) && below,
                values,
            );
        }
    }
}

claims![
    a_clean_store_favours_the_database_for_small_objects,
    two_overwrites_favour_the_filesystem_at_every_size,
    aging_erodes_database_reads_more_than_filesystem_reads,
    database_fragments_keep_growing_and_filesystem_levels_off_far_below,
    database_wins_bulk_load_and_writes_slow_with_age,
    constant_and_uniform_sizes_fragment_alike,
    volume_size_does_not_matter_at_half_occupancy,
    the_same_40_gb_volume_fragments_alike_at_both_scales,
    a_small_free_pool_fragments_faster,
    larger_write_requests_fragment_less,
    one_maintenance_pass_restores_contiguity,
    worst_fit_fragments_least_and_best_fit_most,
    maintenance_policies_hold_fragmentation_below_idle,
    background_budget_buys_fragments_with_foreground_latency,
    database_client_latency_grows_with_age_and_filesystem_latency_holds,
    open_loop_tail_latency_grows_with_offered_load,
    idle_detect_buys_fixed_budget_fragmentation_at_lower_tail_latency,
    mixed_sweep_hockey_stick_shifts_with_write_fraction,
    an_uncleaned_log_fragments_with_every_round,
    cleaning_holds_the_log_below_idle_and_a_lavish_budget_costs_the_tail,
    greedy_cleaning_fragments_less_than_cost_benefit,
    placement_aware_substrate_aware_wins_the_db_gap_filling_frontier,
    maintenance_reaches_the_filesystem_tail_directly_and_the_database_tail_as_queueing,
    fan_out_tail_grows_with_width_and_shrinks_with_fleet_size,
    rebalancing_never_leaves_the_worst_shard_worse,
];
