//! Tabular and machine-readable output for regenerated figures.

use crate::json::Json;
use crate::spec::{section, Field, SpecError};
use std::fmt::Display;

section! {
    /// One regenerated figure (or sub-figure): an x-axis sweep with one column per series.
    /// Its `section!` rows are the members of one report of the `fedopt run --json`
    /// document, in order.
    #[derive(Debug, Clone, PartialEq)]
    pub struct FigureReport {
        /// Identifier matching the paper, e.g. `"fig2a"`.
        id: String;
        /// Human-readable title.
        title: String;
        /// Label of the x axis (sweep variable).
        x_label: String;
        /// Label of the y axis (metric).
        y_label: String;
        /// Column (series) names, e.g. one per weight pair plus the benchmark.
        columns: Vec<String>;
        /// One row per x value, in sweep order.
        rows: Vec<ReportRow>;
        /// Optional provenance caveat attached to the whole report — e.g. "salvaged fleet
        /// run: seeds 2..4 missing" when a `--allow-partial` merge completed with holes.
        /// `None` (the default) renders nothing, so fault-free output stays byte-identical.
        note: Option<String>;
    }
}

section! {
    /// One x value of a report: a y value and a feasible-sample count per column.
    #[derive(Debug, Clone, PartialEq)]
    pub struct ReportRow {
        /// The x value.
        x: f64;
        /// One y value per column.
        values: Vec<ReportValue>;
        /// The feasible-sample count behind each value. A `NaN` value with a count of `0`
        /// is the labelled "no feasible draw" condition, not a numerical accident.
        feasible: Vec<usize>;
    }
}

/// One y value of a report; `f64::NAN` marks a missing point (e.g. an infeasible
/// deadline) and is written as `null`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReportValue(pub f64);

impl Field for ReportValue {
    fn read(v: &Json, path: &dyn Display) -> Result<Self, SpecError> {
        Ok(Self(if matches!(v, Json::Null) { f64::NAN } else { f64::read(v, path)? }))
    }

    fn write(&self) -> Option<Json> {
        Some(if self.0.is_nan() { Json::Null } else { Json::Num(self.0) })
    }
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
        let values = values.into_iter().map(ReportValue).collect();
        self.rows.push(ReportRow { x, values, feasible: cell_counts });
    }

    /// Renders the report as an aligned plain-text table. `NaN` cells render as `-`, or as
    /// `n=0` when the cell's sample count is zero (every draw was infeasible). The rows are
    /// followed by one uniform `feasible draws` footer — identical in form for every report
    /// of a figure.
    pub fn to_table_string(&self) -> String {
        let mut header: Vec<String> = vec![self.x_label.clone()];
        header.extend(self.columns.iter().cloned());
        let mut table: Vec<Vec<String>> = vec![header];
        for ReportRow { x, values, feasible: counts } in &self.rows {
            let mut row = vec![format!("{x:.4}")];
            row.extend(values.iter().zip(counts).map(|(v, &count)| match (v.0.is_nan(), count) {
                (true, 0) => "n=0".to_string(),
                (true, _) => "-".to_string(),
                (false, _) => format!("{:.4}", v.0),
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
        let mut counts = self.rows.iter().flat_map(|row| &row.feasible);
        let Some(&first) = counts.next() else {
            return Vec::new();
        };
        if counts.all(|&n| n == first) {
            return vec![format!("feasible draws: {first} per cell")];
        }
        let mut lines = vec!["feasible draws per point (one count per column):".to_string()];
        for ReportRow { x, feasible, .. } in &self.rows {
            let cells: Vec<String> = feasible.iter().map(|n| n.to_string()).collect();
            lines.push(format!("  {x:.4}: {}", cells.join(" ")));
        }
        lines
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
        for ReportRow { x, values, .. } in &self.rows {
            out.push_str(&format!("{x}"));
            for &ReportValue(v) in values {
                out.push_str(&if v.is_nan() { ",NA".to_string() } else { format!(",{v}") });
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
        let counts: Vec<&[usize]> = r.rows.iter().map(|row| row.feasible.as_slice()).collect();
        assert_eq!(counts, [[0], [5]]);
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
        assert!(r.write().unwrap().get("note").is_none());
        r.note = Some("salvaged fleet run: seeds 2..4 missing".to_string());
        assert!(r.to_table_string().ends_with("note: salvaged fleet run: seeds 2..4 missing\n"));
        assert_eq!(
            r.write().unwrap().get("note").unwrap().as_str(),
            Some("salvaged fleet run: seeds 2..4 missing")
        );
    }

    #[test]
    fn json_report_round_trips_and_labels_nan_as_null() {
        let r = counted();
        let json = r.write().unwrap();
        let text = json.to_pretty_string();
        let back = FigureReport::read(&Json::parse(&text).unwrap(), &"report").unwrap();
        assert_eq!(back.write().unwrap().to_pretty_string(), text);
        assert!(back.rows[0].values[0].0.is_nan());
        assert_eq!(back.rows[1], r.rows[1]);
        let rows = json.get("rows").unwrap().as_array().unwrap();
        assert_eq!(rows[0].get("values").unwrap().as_array().unwrap()[0], Json::Null);
        assert_eq!(rows[0].get("feasible").unwrap().as_array().unwrap()[0].as_u64(), Some(0));
        assert_eq!(rows[1].get("values").unwrap().as_array().unwrap()[0].as_f64(), Some(42.5));
        assert_eq!(json.get("id").unwrap().as_str(), Some("fig7"));
    }
}
