//! Tabular output for the benchmark harness: one table per paper figure,
//! printed as aligned text and as markdown for EXPERIMENTS.md.

use std::fmt::Write as _;

/// A simple column-aligned table.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given title and column headers.
    pub fn new(title: &str, headers: &[&str]) -> Self {
        Table {
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header count).
    ///
    /// # Panics
    ///
    /// Panics on column-count mismatch.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "column count mismatch");
        self.rows.push(cells);
    }

    /// Convenience: a row of (label, f64 series) formatted to 1 decimal.
    pub fn row_f64(&mut self, label: impl ToString, values: &[f64]) {
        let mut cells = vec![label.to_string()];
        cells.extend(values.iter().map(|v| format!("{v:.1}")));
        self.row(cells);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The table title.
    pub fn title(&self) -> &str {
        &self.title
    }

    fn widths(&self) -> Vec<usize> {
        let mut w: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                w[i] = w[i].max(cell.len());
            }
        }
        w
    }

    /// Renders as aligned plain text.
    fn to_text(&self) -> String {
        let w = self.widths();
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let line: Vec<String> =
            self.headers.iter().zip(&w).map(|(h, w)| format!("{h:>w$}")).collect();
        let _ = writeln!(out, "{}", line.join("  "));
        for row in &self.rows {
            let line: Vec<String> = row.iter().zip(&w).map(|(c, w)| format!("{c:>w$}")).collect();
            let _ = writeln!(out, "{}", line.join("  "));
        }
        out
    }

    /// Renders as a markdown table.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "**{}**\n", self.title);
        let _ = writeln!(out, "| {} |", self.headers.join(" | "));
        let _ =
            writeln!(out, "|{}|", self.headers.iter().map(|_| "---").collect::<Vec<_>>().join("|"));
        for row in &self.rows {
            let _ = writeln!(out, "| {} |", row.join(" | "));
        }
        out
    }

    /// Prints the text rendering to stdout.
    pub fn print(&self) {
        print!("{}", self.to_text());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_rendering_aligns() {
        let mut t = Table::new("Fig X", &["size", "latency"]);
        t.row(vec!["8".into(), "12.5".into()]);
        t.row(vec!["2048".into(), "7.1".into()]);
        let s = t.to_text();
        assert!(s.contains("Fig X"));
        assert!(s.contains("2048"));
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
    }

    #[test]
    fn markdown_rendering() {
        let mut t = Table::new("Fig Y", &["a", "b"]);
        t.row_f64("x", &[1.25]);
        let md = t.to_markdown();
        assert!(md.contains("| a | b |"));
        assert!(md.contains("| x | 1.2 |") || md.contains("| x | 1.3 |"));
    }

    #[test]
    #[should_panic(expected = "column count mismatch")]
    fn row_width_checked() {
        let mut t = Table::new("t", &["only"]);
        t.row(vec!["a".into(), "b".into()]);
    }
}
