//! The paper's claims, each written once as a predicate over the figures
//! `figures` prints and checked on the goldens CI regenerates and diffs on
//! every push: `golden/figures_paper_full.txt` (Figures 1–6 at the paper's
//! 40 GB / 400 GB volumes) and `golden/figures_report.txt` (every family at
//! a tenth of that).  Each test is one claim, checked on every golden that
//! carries its figure, except that volume size does not matter at 50 %
//! occupancy only at paper scale: report scale's "40G" is 4 GB, where the
//! database shows §5.4's small-pool caveat.  A missing figure, series or
//! point fails the claim; nothing passes vacuously.
//!
//! Mutation-checked on scratch copies of the goldens; each edit fails the
//! claim named and no other: Fig. 4's Database bulk load set below the
//! Filesystem's (`database_wins_bulk_load_and_writes_slow_with_age`); one
//! Fig. 2 Database point lowered below its predecessor
//! (`database_fragments_keep_growing_and_filesystem_levels_off_far_below`);
//! Fig. 6.3's 97.5 % columns swapped with the 90 % ones
//! (`a_small_free_pool_fragments_faster`).  The one claim no figure carries,
//! 8 MB objects, is `large_objects_favour_the_filesystem_even_when_clean` in
//! the root crate's `tests/end_to_end.rs`.

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
}

/// The paper-scale golden, then the report-scale one.
fn goldens() -> [Golden; 2] {
    let paper = include_str!("../golden/figures_paper_full.txt");
    let report = include_str!("../golden/figures_report.txt");
    [
        ("figures_paper_full.txt", paper),
        ("figures_report.txt", report),
    ]
    .map(|(file, text)| {
        let figures = read_figures(text);
        Golden { file, figures }
    })
}

impl Golden {
    /// The points of series `label` in figure `id`, in x order; a missing
    /// figure or series, or an empty one, fails.
    fn points(&self, id: &str, label: &str) -> &[(f64, f64)] {
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

    /// Fails the claim under test unless `holds`, showing the values read.
    fn check(&self, figure: &str, holds: bool, values: String) {
        assert!(holds, "{}, {figure}: the claim fails: {values}", self.file);
    }
}

fn strictly_falls(ys: &[f64]) -> bool {
    ys.windows(2).all(|pair| pair[1] < pair[0])
}

#[test]
fn the_goldens_read_back_whole() {
    let [paper, report] = goldens();
    assert_eq!(paper.figures.len(), 11, "Figures 1.1 to 6.3");
    assert_eq!(report.figures.len(), 50, "every family");
}

/// Fig. 1.1: on a clean store the database reads 256 KB objects faster.
#[test]
fn a_clean_store_favours_the_database_for_small_objects() {
    for golden in goldens() {
        let db = golden.at("Figure 1.1", "Database", 256.0);
        let fs = golden.at("Figure 1.1", "Filesystem", 256.0);
        let values = format!("256 KB reads: Database {db} vs Filesystem {fs} MB/s");
        golden.check("Figure 1.1", db > fs, values);
    }
}

/// Figs. 1.1 → 1.3: four overwrites divide the database's read throughput
/// by a larger factor than the filesystem's, at every object size.
#[test]
fn aging_erodes_database_reads_more_than_filesystem_reads() {
    for golden in goldens() {
        for &(size, _) in golden.points("Figure 1.1", "Database") {
            let drop =
                |kind| golden.at("Figure 1.1", kind, size) / golden.at("Figure 1.3", kind, size);
            let (db, fs) = (drop("Database"), drop("Filesystem"));
            let values = format!("{size} KB: Database ÷{db:.2}, Filesystem ÷{fs:.2}");
            golden.check("Figures 1.1 → 1.3", db > fs, values);
        }
    }
}

/// Figs. 2 and 3: the database's fragments/object rise at every age and
/// more than double after age 1; the filesystem's grow less than 10 % after
/// age 1 and end at least five times lower.
#[test]
fn database_fragments_keep_growing_and_filesystem_levels_off_far_below() {
    for golden in goldens() {
        for id in ["Figure 2", "Figure 3"] {
            let growth = |kind| golden.at(id, kind, 10.0) / golden.at(id, kind, 1.0);
            let (db_growth, fs_growth) = (growth("Database"), growth("Filesystem"));
            let gap = golden.at(id, "Database", 10.0) / golden.at(id, "Filesystem", 10.0);
            let db = golden.ys(id, "Database");
            let rising = db.windows(2).all(|pair| pair[1] > pair[0]);
            let values = format!(
                "Database {db:?}; age 10 / age 1: Database {db_growth:.2}, Filesystem \
                 {fs_growth:.2}; Database / Filesystem at age 10: {gap:.1}"
            );
            let holds = rising && db_growth > 2.0 && fs_growth < 1.1 && gap > 5.0;
            golden.check(id, holds, values);
        }
    }
}

/// Fig. 4: the database fills a clean volume faster, and both systems'
/// write throughput falls with age — the database's much further.
#[test]
fn database_wins_bulk_load_and_writes_slow_with_age() {
    for golden in goldens() {
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

/// Figs. 5.1 and 5.2: constant-size objects fragment like uniformly sized
/// ones with the same mean — within 20 % of each other at the last age.
#[test]
fn constant_and_uniform_sizes_fragment_alike() {
    for golden in goldens() {
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
#[test]
fn volume_size_does_not_matter_at_half_occupancy() {
    let [paper, _] = goldens();
    for id in ["Figure 6.1", "Figure 6.2"] {
        let small = paper.ys(id, "50% full - 40G");
        let large = paper.ys(id, "50% full - 400G");
        let ratios: Vec<f64> = small.iter().zip(&large).map(|(s, l)| s / l).collect();
        let holds = ratios.len() == 6 && ratios.iter().all(|r| (0.9..1.1).contains(r));
        paper.check(id, holds, format!("40G / 400G at ages 0-5: {ratios:.3?}"));
    }
}

/// Fig. 6.3: on either volume, a 97.5 %-full filesystem — a small free
/// pool — ends more fragmented than a 90 %-full one.
#[test]
fn a_small_free_pool_fragments_faster() {
    for golden in goldens() {
        for volume in ["40G", "400G"] {
            let last = |full| golden.at("Figure 6.3", &format!("{full}% full - {volume}"), 5.0);
            let (crowded, roomy) = (last("97.5"), last("90.0"));
            let values = format!("{volume} at age 5: 97.5 % {crowded} vs 90 % {roomy}");
            golden.check("Figure 6.3", crowded > roomy, values);
        }
    }
}

/// The write-request sweep (report scale, 256 KB objects at age 4): every
/// step up from 16 KB to 256 KB requests leaves fewer fragments per object,
/// on both systems.
#[test]
fn larger_write_requests_fragment_less() {
    let [_, report] = goldens();
    for kind in ["Database", "Filesystem"] {
        let fragments = report.ys("Write-request sweep", kind);
        let holds = fragments.len() == 5 && strictly_falls(&fragments);
        let values = format!("{kind} at 16, 32, 64, 128, 256 KB: {fragments:?}");
        report.check("Write-request sweep", holds, values);
    }
}
