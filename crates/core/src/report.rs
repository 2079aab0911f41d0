//! Plain-text tables and JSON records for the experiment harnesses.
//!
//! Every bench target prints the rows/series its paper counterpart
//! reports; [`Table`] keeps that output aligned and greppable, and
//! [`Table::to_json`] emits a machine-readable copy for EXPERIMENTS.md
//! tooling.

use serde::Serialize;

/// A simple column-aligned table.
///
/// # Examples
///
/// ```
/// use distserve_core::Table;
///
/// let mut t = Table::new(vec!["rate", "attainment"]);
/// t.row(vec!["1.0".into(), "0.98".into()]);
/// let text = t.render();
/// assert!(text.contains("rate"));
/// assert!(text.contains("0.98"));
/// ```
#[derive(Debug, Clone, Serialize)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    #[must_use]
    pub fn new(headers: Vec<&str>) -> Self {
        Table {
            headers: headers.into_iter().map(str::to_string).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width {} != header width {}",
            cells.len(),
            self.headers.len()
        );
        self.rows.push(cells);
    }

    /// Number of data rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table with aligned columns: numeric columns
    /// right-aligned (so magnitudes line up digit-for-digit), text
    /// columns left-aligned. Every cell is padded to the full column
    /// width, so all rendered lines have equal length.
    #[must_use]
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        // A column is numeric when every *data* cell parses as a number
        // (headers are labels and don't vote; empty columns stay text).
        let numeric: Vec<bool> = (0..cols)
            .map(|i| {
                !self.rows.is_empty() && self.rows.iter().all(|r| numeric_value(&r[i]).is_some())
            })
            .collect();
        let mut out = String::new();
        let fmt_row = |cells: &[String]| -> String {
            let mut line = String::new();
            for i in 0..cols {
                if i > 0 {
                    line.push_str("  ");
                }
                if numeric[i] {
                    line.push_str(&format!("{:>width$}", cells[i], width = widths[i]));
                } else {
                    line.push_str(&format!("{:<width$}", cells[i], width = widths[i]));
                }
            }
            line.push('\n');
            line
        };
        out.push_str(&fmt_row(&self.headers));
        let rule: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        out.push_str(&"-".repeat(rule));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
        }
        out
    }

    /// Serializes headers and rows as JSON.
    #[must_use]
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("table serializes")
    }
}

/// Parses a cell as a number, tolerating the unit suffixes the benches
/// append (`"1.23s"`, `"45ms"`, `"97%"`). Returns `None` for text.
fn numeric_value(cell: &str) -> Option<f64> {
    let t = cell.trim();
    let t = t.strip_suffix('%').unwrap_or(t);
    let t = t.trim_end_matches(|c: char| c.is_ascii_alphabetic());
    if t.is_empty() {
        return None;
    }
    t.parse::<f64>().ok().filter(|v| v.is_finite())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alignment() {
        let mut t = Table::new(vec!["a", "long_header"]);
        t.row(vec!["1".into(), "2".into()]);
        t.row(vec!["100".into(), "2000".into()]);
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
        let text = t.render();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        // All lines equal width (right-aligned columns).
        assert_eq!(lines[0].len(), lines[2].len());
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn width_mismatch_panics() {
        let mut t = Table::new(vec!["a"]);
        t.row(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn mixed_alignment_keeps_lines_equal() {
        let mut t = Table::new(vec!["policy", "p90_ttft"]);
        t.row(vec!["disaggregated".into(), "0.213s".into()]);
        t.row(vec!["vllm++".into(), "1.7s".into()]);
        let text = t.render();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        for w in lines.windows(2) {
            assert_eq!(w[0].len(), w[1].len(), "{text}");
        }
        // Text column left-aligned, numeric column right-aligned.
        assert!(lines[2].starts_with("disaggregated"));
        assert!(lines[3].starts_with("vllm++ "));
        assert!(lines[3].ends_with("  1.7s"));
    }

    #[test]
    fn numeric_detection_tolerates_units() {
        assert_eq!(numeric_value("1.23s"), Some(1.23));
        assert_eq!(numeric_value("45ms"), Some(45.0));
        assert_eq!(numeric_value("97%"), Some(97.0));
        assert_eq!(numeric_value("-3"), Some(-3.0));
        assert_eq!(numeric_value("disaggregated"), None);
        assert_eq!(numeric_value(""), None);
    }

    #[test]
    fn json_roundtrip() {
        let mut t = Table::new(vec!["k"]);
        t.row(vec!["v".into()]);
        let json = t.to_json();
        let parsed: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(parsed["headers"][0], "k");
        assert_eq!(parsed["rows"][0][0], "v");
    }
}
