//! Report types: the series and tables the paper's figures plot, in a
//! machine-readable (JSON) and a plain-text form.

use lor_obs::{json_f64, json_string};

use crate::experiment::{AgePoint, AgingResult};

/// One labelled series of (x, y) points — e.g. "Database" in Figure 2.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Legend label.
    pub label: String,
    /// (x, y) points in x order.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// Creates a series from a label and points.
    pub fn new(label: impl Into<String>, points: Vec<(f64, f64)>) -> Self {
        Series {
            label: label.into(),
            points,
        }
    }

    /// Builds one column of an aging run as a series over storage age:
    /// `pick` names the [`AgePoint`] value to plot (a checkpoint where it is
    /// `None` — read throughput when reads were not measured — is skipped),
    /// and the label is the substrate's followed by `label_suffix`
    /// (`" p99"`, or `""` for a figure with one series per substrate).
    pub fn vs_age(
        result: &AgingResult,
        label_suffix: &str,
        pick: impl Fn(&AgePoint) -> Option<f64>,
    ) -> Self {
        Series {
            label: format!("{}{label_suffix}", result.kind.label()),
            points: result
                .points
                .iter()
                .filter_map(|p| pick(p).map(|y| (p.storage_age, y)))
                .collect(),
        }
    }
}

/// A figure: a title, axis labels, and one or more series.
#[derive(Debug, Clone, PartialEq)]
pub struct Figure {
    /// Figure identifier ("Figure 2"), matching the paper.
    pub id: String,
    /// Caption / title.
    pub title: String,
    /// X-axis label.
    pub x_label: String,
    /// Y-axis label.
    pub y_label: String,
    /// The plotted series.
    pub series: Vec<Series>,
}

impl Figure {
    /// Creates an empty figure.
    pub fn new(
        id: impl Into<String>,
        title: impl Into<String>,
        x_label: impl Into<String>,
        y_label: impl Into<String>,
    ) -> Self {
        Figure {
            id: id.into(),
            title: title.into(),
            x_label: x_label.into(),
            y_label: y_label.into(),
            series: Vec::new(),
        }
    }

    /// Renders the figure as JSON: an object with the four text fields and
    /// a `series` array of `{"label", "points": [[x, y], ...]}` objects (a
    /// non-finite coordinate becomes `null`), written with the escaper and
    /// number form of [`lor_obs::json`].
    fn to_json(&self) -> String {
        let series: Vec<String> = self
            .series
            .iter()
            .map(|series| {
                let points: Vec<String> = (series.points.iter())
                    .map(|&(x, y)| format!("[{},{}]", json_f64(x), json_f64(y)))
                    .collect();
                let label = json_string(&series.label);
                format!("{{\"label\":{label},\"points\":[{}]}}", points.join(","))
            })
            .collect();
        format!(
            "{{\"id\":{},\"title\":{},\"x_label\":{},\"y_label\":{},\"series\":[{}]}}",
            json_string(&self.id),
            json_string(&self.title),
            json_string(&self.x_label),
            json_string(&self.y_label),
            series.join(",")
        )
    }

    /// Renders a list of figures as a JSON array (the `figures --json`
    /// output format).
    pub fn list_to_json(figures: &[Figure]) -> String {
        let figures: Vec<String> = figures.iter().map(Figure::to_json).collect();
        format!("[{}]", figures.join(","))
    }

    /// Renders the figure as an aligned plain-text table: one row per x value,
    /// one column per series.  A series with several points at one x (a
    /// frontier whose budgets all land on the same fragmentation) takes that
    /// many rows there, its n-th point in the n-th, so no point is dropped.
    pub fn to_text(&self) -> String {
        use std::collections::BTreeMap;
        use std::fmt::Write as _;

        let mut out = String::new();
        let _ = writeln!(out, "{} — {}", self.id, self.title);
        let _ = writeln!(out, "  ({} vs {})", self.y_label, self.x_label);

        // Collect every x value across series (keyed by a stable string to
        // avoid float-ordering pitfalls), then by occurrence within a series.
        let mut rows: BTreeMap<(String, usize), Vec<Option<f64>>> = BTreeMap::new();
        for (index, series) in self.series.iter().enumerate() {
            let mut seen: BTreeMap<String, usize> = BTreeMap::new();
            for (x, y) in &series.points {
                let x = format!("{x:>12.3}");
                let occurrence = seen.entry(x.clone()).or_default();
                let row = rows
                    .entry((x, *occurrence))
                    .or_insert_with(|| vec![None; self.series.len()]);
                row[index] = Some(*y);
                *occurrence += 1;
            }
        }

        let _ = write!(out, "  {:>12}", self.x_label);
        for series in &self.series {
            let _ = write!(out, "  {:>16}", series.label);
        }
        let _ = writeln!(out);
        for ((x, _), values) in rows {
            let _ = write!(out, "  {x:>12}");
            for value in values {
                match value {
                    Some(v) => {
                        let _ = write!(out, "  {v:>16.3}");
                    }
                    None => {
                        let _ = write!(out, "  {:>16}", "-");
                    }
                }
            }
            let _ = writeln!(out);
        }
        out
    }
}

/// A simple two-column table (used for the Table 1 substitute).
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// Table identifier ("Table 1").
    pub id: String,
    /// Caption.
    pub title: String,
    /// Rows of (name, value).
    pub rows: Vec<(String, String)>,
}

impl Table {
    /// Creates a table.
    pub fn new(
        id: impl Into<String>,
        title: impl Into<String>,
        rows: Vec<(String, String)>,
    ) -> Self {
        Table {
            id: id.into(),
            title: title.into(),
            rows,
        }
    }

    /// Renders the table as plain text.
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "{} — {}", self.id, self.title);
        let width = self.rows.iter().map(|(k, _)| k.len()).max().unwrap_or(0);
        for (key, value) in &self.rows {
            let _ = writeln!(out, "  {key:<width$}  {value}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::ExperimentConfig;
    use crate::store::StoreKind;
    use crate::workload::SizeDistribution;

    fn fake_result() -> AgingResult {
        AgingResult {
            kind: StoreKind::Database,
            config: ExperimentConfig::paper_default(SizeDistribution::Constant(1 << 20)),
            points: vec![
                AgePoint {
                    storage_age: 0.0,
                    fragments_per_object: 1.0,
                    write_throughput_mb_s: 17.7,
                    read_throughput_mb_s: Some(8.0),
                    foreground_latency_ms: 12.0,
                    latency_p50_ms: 11.0,
                    latency_p95_ms: 18.0,
                    latency_p99_ms: 25.0,
                    queue_depth_mean: 1.0,
                    queue_depth_max: 1,
                    background_time_s: 0.0,
                    background_checkpoint_s: 0.0,
                    background_ghost_s: 0.0,
                    background_defrag_s: 0.0,
                    objects: 100,
                },
                AgePoint {
                    storage_age: 2.0,
                    fragments_per_object: 2.5,
                    write_throughput_mb_s: 9.0,
                    read_throughput_mb_s: None,
                    foreground_latency_ms: 20.0,
                    latency_p50_ms: 17.0,
                    latency_p95_ms: 40.0,
                    latency_p99_ms: 55.0,
                    queue_depth_mean: 3.5,
                    queue_depth_max: 7,
                    background_time_s: 0.5,
                    background_checkpoint_s: 0.3,
                    background_ghost_s: 0.15,
                    background_defrag_s: 0.05,
                    objects: 100,
                },
            ],
        }
    }

    #[test]
    fn series_builders_extract_the_right_columns() {
        let result = fake_result();
        let fragments = Series::vs_age(&result, "", |p| Some(p.fragments_per_object));
        assert_eq!(fragments.label, "Database");
        assert_eq!(fragments.points, vec![(0.0, 1.0), (2.0, 2.5)]);

        let reads = Series::vs_age(&result, "", |p| p.read_throughput_mb_s);
        assert_eq!(
            reads.points,
            vec![(0.0, 8.0)],
            "unmeasured checkpoints are skipped"
        );

        let p99 = Series::vs_age(&result, " p99", |p| Some(p.latency_p99_ms));
        assert_eq!(p99.label, "Database p99");
        assert_eq!(p99.points, vec![(0.0, 25.0), (2.0, 55.0)]);
    }

    #[test]
    fn a_nan_coordinate_sorts_last_instead_of_panicking() {
        let mut result = fake_result();
        result.points[1].storage_age = f64::NAN;
        assert_eq!(result.at_age(3.0).map(|p| p.storage_age), Some(0.0));
        assert!(result.at_age(f64::NAN).is_none());
    }

    #[test]
    fn figure_text_rendering_includes_all_series() {
        let figure = Figure {
            series: vec![
                Series::new("Database", vec![(0.0, 1.0), (1.0, 4.0)]),
                Series::new("Filesystem", vec![(0.0, 1.0), (1.0, 2.0)]),
            ],
            ..Figure::new(
                "Figure 2",
                "Large object fragmentation",
                "Storage Age",
                "Fragments/object",
            )
        };
        let text = figure.to_text();
        assert!(text.contains("Figure 2"));
        assert!(text.contains("Database"));
        assert!(text.contains("Filesystem"));
        assert!(text.contains("4.000"));
        // Both series share x values, so there are exactly two data rows.
        assert_eq!(text.lines().count(), 2 + 1 + 2);
    }

    #[test]
    fn figure_text_handles_missing_points() {
        let figure = Figure {
            series: vec![
                Series::new("a", vec![(0.0, 1.0)]),
                Series::new("b", vec![(1.0, 2.0)]),
            ],
            ..Figure::new("F", "t", "x", "y")
        };
        let text = figure.to_text();
        assert!(text.contains('-'), "missing cells are rendered as '-'");
    }

    #[test]
    fn figure_text_keeps_every_point_at_a_repeated_x() {
        let figure = Figure {
            series: vec![
                Series::new("a", vec![(1.0, 5.0), (1.0, 6.0), (1.0, 7.0)]),
                Series::new("b", vec![(1.0, 5.0), (2.0, 8.0)]),
            ],
            ..Figure::new("F", "t", "x", "y")
        };
        let text = figure.to_text();
        let rows = text.lines().skip(3);
        let rows: Vec<Vec<&str>> = rows.map(|row| row.split_whitespace().collect()).collect();
        assert_eq!(
            rows,
            [
                ["1.000", "5.000", "5.000"],
                ["1.000", "6.000", "-"],
                ["1.000", "7.000", "-"],
                ["2.000", "-", "8.000"],
            ]
        );
    }

    #[test]
    fn table_rendering_aligns_keys() {
        let table = Table::new(
            "Table 1",
            "Configuration of the simulated test system",
            vec![
                ("Disk".into(), "400GB 7200rpm".into()),
                ("Filesystem".into(), "lor-fskit".into()),
            ],
        );
        let text = table.to_text();
        assert!(text.contains("Table 1"));
        assert!(text.contains("400GB"));
        assert!(text.lines().count() == 3);
    }

    #[test]
    fn reports_serialize_to_json() {
        let figure = Figure {
            series: vec![Series::new("Database", vec![(0.0, 1.0), (2.0, 2.5)])],
            ..Figure::new("Figure \"3\"", "t", "x", "y")
        };
        let json = figure.to_json();
        assert_eq!(
            json,
            "{\"id\":\"Figure \\\"3\\\"\",\"title\":\"t\",\"x_label\":\"x\",\"y_label\":\"y\",\
             \"series\":[{\"label\":\"Database\",\"points\":[[0,1],[2,2.5]]}]}"
        );
        let list = Figure::list_to_json(std::slice::from_ref(&figure));
        assert!(list.starts_with('[') && list.ends_with(']'));
        assert!(list.contains("\"Database\""));
    }

    #[test]
    fn figure_json_parses_with_the_shared_parser() {
        let label = "say \"hi\" \\ to\na\u{7}bell";
        let figure = Figure {
            series: vec![Series::new(label, vec![(0.0, f64::NAN), (1.0, 2.0)])],
            ..Figure::new("Figure 9", label, "x", "y")
        };
        let list = Figure::list_to_json(&[figure, Figure::new("Figure 10", "", "", "")]);
        lor_obs::json::check_syntax(&list).unwrap();
        let series = r#""label":"say \"hi\" \\ to\na\u0007bell","points":[[0,null],[1,2]]"#;
        assert!(list.contains(series), "{list}");
        lor_obs::json::check_syntax(&Figure::list_to_json(&[])).unwrap();
    }
}
