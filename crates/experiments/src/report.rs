//! Tabular and machine-readable output for regenerated figures.

use crate::json::Json;
use serde::{Deserialize, Serialize};

/// One regenerated figure (or sub-figure): an x-axis sweep with one column per series.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FigureReport {
    /// Identifier matching the paper, e.g. `"fig2a"`.
    pub id: String,
    /// Human-readable title.
    pub title: String,
    /// Label of the x axis (sweep variable).
    pub x_label: String,
    /// Label of the y axis (metric).
    pub y_label: String,
    /// Column (series) names, e.g. one per weight pair plus the benchmark.
    pub columns: Vec<String>,
    /// Rows: the x value followed by one y value per column (`f64::NAN` marks a missing
    /// point, e.g. an infeasible deadline).
    pub rows: Vec<(f64, Vec<f64>)>,
    /// Per-row feasible-sample counts behind each cell, parallel to [`Self::rows`]: one
    /// count per column. A `NaN` cell with a count of `0` is the labelled "no feasible
    /// draw" condition, not a numerical accident.
    pub counts: Vec<Vec<usize>>,
    /// Optional provenance caveat attached to the whole report — e.g. "salvaged fleet
    /// run: seeds 2..4 missing" when a `--allow-partial` merge completed with holes.
    /// `None` (the default) renders nothing, so fault-free output stays byte-identical.
    pub note: Option<String>,
}

impl FigureReport {
    /// Creates an empty report with the given metadata.
    pub fn new(id: &str, title: &str, x_label: &str, y_label: &str, columns: Vec<String>) -> Self {
        Self {
            id: id.to_string(),
            title: title.to_string(),
            x_label: x_label.to_string(),
            y_label: y_label.to_string(),
            columns,
            rows: Vec::new(),
            counts: Vec::new(),
            note: None,
        }
    }

    /// Appends one row together with the per-cell feasible-sample counts.
    ///
    /// # Panics
    ///
    /// Panics if `values` or `cell_counts` do not have one entry per column (a programming
    /// error in the harness, not a data condition).
    pub fn push_row_with_counts(&mut self, x: f64, values: Vec<f64>, cell_counts: Vec<usize>) {
        assert_eq!(values.len(), self.columns.len(), "row width must match column count");
        assert_eq!(cell_counts.len(), self.columns.len(), "count width must match column count");
        self.rows.push((x, values));
        self.counts.push(cell_counts);
    }

    /// The series names.
    pub fn series_names(&self) -> &[String] {
        &self.columns
    }

    /// Extracts one series as `(x, y)` pairs.
    pub fn series(&self, name: &str) -> Option<Vec<(f64, f64)>> {
        let idx = self.columns.iter().position(|c| c == name)?;
        Some(self.rows.iter().map(|(x, v)| (*x, v[idx])).collect())
    }

    /// Renders the report as an aligned plain-text table. `NaN` cells render as `-`, or as
    /// `n=0` when the cell's sample count is zero (every draw was infeasible). The rows are
    /// followed by one uniform `feasible draws` footer — identical in form for every report
    /// of a figure.
    pub fn to_table_string(&self) -> String {
        let mut header: Vec<String> = vec![self.x_label.clone()];
        header.extend(self.columns.iter().cloned());
        let mut table: Vec<Vec<String>> = vec![header];
        for ((x, values), counts) in self.rows.iter().zip(&self.counts) {
            let mut row = vec![format!("{x:.4}")];
            row.extend(values.iter().zip(counts).map(|(v, &count)| match (v.is_nan(), count) {
                (true, 0) => "n=0".to_string(),
                (true, _) => "-".to_string(),
                (false, _) => format!("{v:.4}"),
            }));
            table.push(row);
        }
        let widths: Vec<usize> = (0..table[0].len())
            .map(|c| table.iter().map(|r| r[c].len()).max().unwrap_or(0))
            .collect();
        let mut out = format!("# {} — {} [{}]\n", self.id, self.title, self.y_label);
        for row in &table {
            let line: Vec<String> =
                row.iter().zip(&widths).map(|(cell, w)| format!("{cell:>w$}")).collect();
            out.push_str(&line.join("  "));
            out.push('\n');
        }
        for line in self.feasible_summary_lines() {
            out.push_str(&line);
            out.push('\n');
        }
        if let Some(note) = &self.note {
            out.push_str(&format!("note: {note}\n"));
        }
        out
    }

    /// The uniform feasible-draw footer: empty without cells, one compact line when every
    /// cell saw the same number of feasible draws, otherwise one line per point listing the
    /// per-column counts.
    fn feasible_summary_lines(&self) -> Vec<String> {
        let Some(&first) = self.counts.iter().flatten().next() else {
            return Vec::new();
        };
        if self.counts.iter().flatten().all(|&n| n == first) {
            return vec![format!("feasible draws: {first} per cell")];
        }
        let mut lines = vec!["feasible draws per point (one count per column):".to_string()];
        for ((x, _), counts) in self.rows.iter().zip(&self.counts) {
            let cells: Vec<String> = counts.iter().map(|n| n.to_string()).collect();
            lines.push(format!("  {x:.4}: {}", cells.join(" ")));
        }
        lines
    }

    /// The report as a machine-readable JSON value: metadata, columns, and one object per
    /// row carrying the x value, the per-column y values (`null` for `NaN` cells) and the
    /// per-column feasible-draw counts. Member order is fixed and floats are
    /// shortest-round-trip, so the output is byte-stable (golden-file safe).
    pub fn to_json(&self) -> Json {
        let rows: Vec<Json> = self
            .rows
            .iter()
            .zip(&self.counts)
            .map(|((x, values), counts)| {
                Json::obj([
                    ("x", Json::Num(*x)),
                    (
                        "values",
                        Json::Arr(
                            values
                                .iter()
                                .map(|&v| if v.is_nan() { Json::Null } else { Json::Num(v) })
                                .collect(),
                        ),
                    ),
                    ("feasible", Json::Arr(counts.iter().map(|&n| Json::uint(n as u64)).collect())),
                ])
            })
            .collect();
        let mut members = vec![
            ("id".to_string(), Json::Str(self.id.clone())),
            ("title".to_string(), Json::Str(self.title.clone())),
            ("x_label".to_string(), Json::Str(self.x_label.clone())),
            ("y_label".to_string(), Json::Str(self.y_label.clone())),
            (
                "columns".to_string(),
                Json::Arr(self.columns.iter().map(|c| Json::Str(c.clone())).collect()),
            ),
            ("rows".to_string(), Json::Arr(rows)),
        ];
        if let Some(note) = &self.note {
            members.push(("note".to_string(), Json::Str(note.clone())));
        }
        Json::Obj(members)
    }

    /// [`FigureReport::to_json`], pretty-printed.
    pub fn to_json_string(&self) -> String {
        self.to_json().to_pretty_string()
    }

    /// Renders the report as CSV (header row, then one line per x value).
    pub fn to_csv_string(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.x_label.replace(',', ";"));
        for c in &self.columns {
            out.push(',');
            out.push_str(&c.replace(',', ";"));
        }
        out.push('\n');
        for (x, values) in &self.rows {
            out.push_str(&format!("{x}"));
            for v in values {
                out.push(',');
                if v.is_nan() {
                    out.push_str("NA");
                } else {
                    out.push_str(&format!("{v}"));
                }
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> FigureReport {
        let mut r = FigureReport::new(
            "fig2a",
            "Total energy vs p_max",
            "p_max (dBm)",
            "energy (J)",
            vec!["w1=0.9".into(), "benchmark".into()],
        );
        r.push_row_with_counts(5.0, vec![10.0, 50.0], vec![3, 3]);
        r.push_row_with_counts(6.0, vec![11.0, f64::NAN], vec![3, 3]);
        r
    }

    #[test]
    fn table_and_csv_contain_all_cells() {
        let r = sample();
        let table = r.to_table_string();
        assert!(table.contains("fig2a"));
        assert!(table.contains("benchmark"));
        assert!(table.contains("50.0000"));
        assert!(table.contains("-"));
        let csv = r.to_csv_string();
        assert!(csv.starts_with("p_max (dBm),w1=0.9,benchmark"));
        assert!(csv.contains("5,10,50"));
        assert!(csv.contains("NA"));
    }

    #[test]
    fn series_extraction_works() {
        let r = sample();
        let s = r.series("w1=0.9").unwrap();
        assert_eq!(s, vec![(5.0, 10.0), (6.0, 11.0)]);
        assert!(r.series("missing").is_none());
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_panics() {
        let mut r = sample();
        r.push_row_with_counts(7.0, vec![1.0], vec![1]);
    }

    #[test]
    fn counts_travel_with_rows_and_label_empty_cells() {
        let mut r = FigureReport::new("fig7", "t", "T (s)", "energy (J)", vec!["proposed".into()]);
        r.push_row_with_counts(100.0, vec![f64::NAN], vec![0]);
        r.push_row_with_counts(150.0, vec![42.0], vec![5]);
        assert_eq!(r.counts, vec![vec![0], vec![5]]);
        let table = r.to_table_string();
        assert!(table.contains("n=0"), "zero-sample cells must be labelled: {table}");
    }

    #[test]
    #[should_panic(expected = "count width")]
    fn mismatched_count_width_panics() {
        let mut r = sample();
        r.push_row_with_counts(7.0, vec![1.0, 2.0], vec![1]);
    }

    fn counted() -> FigureReport {
        let mut r = FigureReport::new("fig7", "t", "T (s)", "energy (J)", vec!["a".into()]);
        r.push_row_with_counts(100.0, vec![f64::NAN], vec![0]);
        r.push_row_with_counts(150.0, vec![42.5], vec![5]);
        r
    }

    #[test]
    fn feasible_footer_is_uniform_across_metrics() {
        // Uneven counts: per-point lines.
        let table = counted().to_table_string();
        assert!(
            table.contains("feasible draws per point"),
            "uneven counts need per-point lines: {table}"
        );
        assert!(table.contains("100.0000: 0"), "{table}");
        assert!(table.contains("150.0000: 5"), "{table}");

        // Uniform counts: one compact line.
        let mut r = sample();
        r.push_row_with_counts(7.0, vec![1.0, 2.0], vec![3, 3]);
        let table = r.to_table_string();
        assert!(table.contains("feasible draws: 3 per cell"), "{table}");
    }

    #[test]
    fn note_renders_only_when_set() {
        let mut r = sample();
        assert!(!r.to_table_string().contains("note:"));
        assert!(r.to_json().get("note").is_none());
        r.note = Some("salvaged fleet run: seeds 2..4 missing".to_string());
        assert!(r.to_table_string().ends_with("note: salvaged fleet run: seeds 2..4 missing\n"));
        assert_eq!(
            r.to_json().get("note").unwrap().as_str(),
            Some("salvaged fleet run: seeds 2..4 missing")
        );
    }

    #[test]
    fn json_report_round_trips_and_labels_nan_as_null() {
        let r = counted();
        let json = r.to_json();
        let text = r.to_json_string();
        assert_eq!(Json::parse(&text).unwrap(), json);
        let rows = json.get("rows").unwrap().as_array().unwrap();
        assert_eq!(rows[0].get("values").unwrap().as_array().unwrap()[0], Json::Null);
        assert_eq!(rows[0].get("feasible").unwrap().as_array().unwrap()[0].as_u64(), Some(0));
        assert_eq!(rows[1].get("values").unwrap().as_array().unwrap()[0].as_f64(), Some(42.5));
        assert_eq!(json.get("id").unwrap().as_str(), Some("fig7"));
    }
}
