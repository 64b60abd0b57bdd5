//! Plain-text table rendering for experiment reports.

use std::fmt::Write as _;

/// A simple aligned text table.
#[derive(Clone, Debug, Default)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Self { headers: headers.iter().map(|s| s.to_string()).collect(), rows: Vec::new() }
    }

    /// Appends a row (must match the header count).
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        assert_eq!(cells.len(), self.headers.len(), "cell count mismatch");
        self.rows.push(cells.to_vec());
        self
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        for (c, h) in self.headers.iter().enumerate() {
            let _ = write!(out, "{:<width$}", h, width = widths[c] + 2);
        }
        out.push('\n');
        let total: usize = widths.iter().map(|w| w + 2).sum();
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            for (c, cell) in row.iter().enumerate().take(cols) {
                let _ = write!(out, "{:<width$}", cell, width = widths[c] + 2);
            }
            out.push('\n');
        }
        out
    }
}

/// Formats a float with 3 decimals.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Formats a float with 4 decimals.
pub fn f4(x: f64) -> String {
    format!("{x:.4}")
}

/// Wraps a report with a titled banner.
pub fn section(title: &str, body: &str) -> String {
    format!("\n=== {title} ===\n\n{body}\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new(&["name", "value"]);
        t.row(&["x".into(), "1".into()]);
        t.row(&["longer-name".into(), "2.5".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert!(lines[0].starts_with("name"));
        assert!(lines[2].starts_with("x"));
        assert!(lines[3].starts_with("longer-name"));
        // All data lines have equal prefix width up to the value column.
        let col = lines[3].find("2.5").unwrap();
        assert_eq!(lines[2].find('1').unwrap(), col);
    }

    #[test]
    #[should_panic(expected = "cell count mismatch")]
    fn rejects_ragged_rows() {
        let mut t = Table::new(&["a", "b"]);
        t.row(&["only-one".into()]);
    }
}
