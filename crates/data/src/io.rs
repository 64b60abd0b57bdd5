//! Plain-text dataset I/O.
//!
//! A deliberately small CSV dialect (comma separator, optional `#`-prefixed
//! comment lines, optional header row with attribute names) — enough to get
//! real numeric tables in and experiment outputs back out without pulling a
//! CSV dependency into the offline build.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

use crate::{overflowing_column, Dataset};

/// Errors raised while parsing a CSV table.
#[derive(Debug)]
pub enum CsvError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// A cell failed to parse as `f64`.
    BadNumber {
        /// 1-based line number.
        line: usize,
        /// The offending cell text.
        cell: String,
    },
    /// A cell parsed as `NaN` or an infinity; every fit assumes finite
    /// coordinates, so these are refused at load time.
    NonFinite {
        /// 1-based line number.
        line: usize,
        /// The offending cell text.
        cell: String,
    },
    /// Every cell is finite, but a column's values are so large that
    /// sums or squared distances over the data overflow (see
    /// [`overflowing_column`]).
    Overflow {
        /// 1-based column number.
        column: usize,
    },
    /// A row had a different number of cells than the first row.
    RaggedRow {
        /// 1-based line number.
        line: usize,
        /// Cells found.
        found: usize,
        /// Cells expected.
        expected: usize,
    },
    /// The input contained no data rows.
    Empty,
}

impl std::fmt::Display for CsvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "I/O error: {e}"),
            Self::BadNumber { line, cell } => {
                write!(f, "line {line}: cannot parse {cell:?} as a number")
            }
            Self::NonFinite { line, cell } => {
                write!(f, "line {line}: {cell:?} is not a finite number")
            }
            Self::Overflow { column } => write!(
                f,
                "column {column}: values too large, sums or squared distances over the data overflow"
            ),
            Self::RaggedRow { line, found, expected } => {
                write!(f, "line {line}: {found} cells, expected {expected}")
            }
            Self::Empty => write!(f, "no data rows"),
        }
    }
}

impl std::error::Error for CsvError {}

impl From<io::Error> for CsvError {
    fn from(e: io::Error) -> Self {
        Self::Io(e)
    }
}

/// Parses a CSV string into a [`Dataset`].
///
/// * Lines starting with `#` and blank lines are skipped.
/// * If `header` is true, the first non-comment line provides attribute
///   names.
pub fn parse_csv(text: &str, header: bool) -> Result<Dataset, CsvError> {
    let mut names: Option<Vec<String>> = None;
    let mut rows: Vec<Vec<f64>> = Vec::new();
    let mut expected: Option<usize> = None;
    let mut saw_header = false;

    for (idx, line) in text.lines().enumerate() {
        let line_no = idx + 1;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        if header && !saw_header {
            names = Some(trimmed.split(',').map(|s| s.trim().to_string()).collect());
            saw_header = true;
            continue;
        }
        let cells: Vec<&str> = trimmed.split(',').map(str::trim).collect();
        if let Some(exp) = expected {
            if cells.len() != exp {
                return Err(CsvError::RaggedRow {
                    line: line_no,
                    found: cells.len(),
                    expected: exp,
                });
            }
        } else {
            expected = Some(cells.len());
        }
        let mut row = Vec::with_capacity(cells.len());
        for cell in cells {
            let v: f64 = cell.parse().map_err(|_| CsvError::BadNumber {
                line: line_no,
                cell: cell.to_string(),
            })?;
            if !v.is_finite() {
                return Err(CsvError::NonFinite { line: line_no, cell: cell.to_string() });
            }
            row.push(v);
        }
        rows.push(row);
    }

    if rows.is_empty() {
        return Err(CsvError::Empty);
    }
    if let Some(j) = overflowing_column(rows.iter().map(Vec::as_slice)) {
        return Err(CsvError::Overflow { column: j + 1 });
    }
    let mut ds = Dataset::from_rows(&rows);
    if let Some(names) = names {
        if names.len() == ds.dims() {
            ds = ds.with_dim_names(names);
        }
    }
    Ok(ds)
}

/// Reads a CSV file from disk.
pub fn read_csv(path: &Path, header: bool) -> Result<Dataset, CsvError> {
    parse_csv(&fs::read_to_string(path)?, header)
}

/// Serialises a dataset to CSV (with a header row when attribute names are
/// present).
pub fn to_csv(ds: &Dataset) -> String {
    let mut out = String::new();
    if let Some(names) = ds.dim_names() {
        out.push_str(&names.join(","));
        out.push('\n');
    }
    for row in ds.rows() {
        for (j, x) in row.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(out, "{x}");
        }
        out.push('\n');
    }
    out
}

/// Writes a dataset to a CSV file.
pub fn write_csv(ds: &Dataset, path: &Path) -> io::Result<()> {
    fs::write(path, to_csv(ds))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_simple_table() -> Result<(), CsvError> {
        let ds = parse_csv("1,2\n3,4\n", false)?;
        assert_eq!(ds.len(), 2);
        assert_eq!(ds.row(1), &[3.0, 4.0]);
        Ok(())
    }

    #[test]
    fn parse_with_header_and_comments() -> Result<(), Box<dyn std::error::Error>> {
        let text = "# customer table\nage, income\n30, 50000\n# middle comment\n40, 60000\n";
        let ds = parse_csv(text, true)?;
        let names = ds.dim_names().ok_or("header row must yield dim names")?;
        assert_eq!(names, &["age".to_string(), "income".to_string()]);
        assert_eq!(ds.len(), 2);
        assert_eq!(ds.row(0), &[30.0, 50000.0]);
        Ok(())
    }

    #[test]
    fn ragged_row_is_error() {
        let err = parse_csv("1,2\n3\n", false).unwrap_err();
        assert!(matches!(err, CsvError::RaggedRow { line: 2, found: 1, expected: 2 }));
    }

    #[test]
    fn bad_number_is_error() {
        let err = parse_csv("1,x\n", false).unwrap_err();
        assert!(matches!(err, CsvError::BadNumber { line: 1, .. }));
    }

    #[test]
    fn non_finite_cells_are_errors() {
        for cell in ["NaN", "inf", "-inf"] {
            let err = parse_csv(&format!("1,2\n3,{cell}\n"), false).unwrap_err();
            assert!(
                matches!(&err, CsvError::NonFinite { line: 2, cell: c } if c == cell),
                "{cell}: {err:?}"
            );
            assert!(err.to_string().contains("line 2"), "{err}");
        }
    }

    #[test]
    fn overflowing_columns_are_errors() {
        // Finite cells whose range squares past f64::MAX.
        let err = parse_csv("1,1.7e308\n2,-1.7e308\n", false).unwrap_err();
        assert!(matches!(err, CsvError::Overflow { column: 2 }), "{err:?}");
        // A constant column: no range, but its sum overflows.
        let err = parse_csv("1.7e308\n1.7e308\n", false).unwrap_err();
        assert!(matches!(err, CsvError::Overflow { column: 1 }), "{err:?}");
        // Squared ranges that overflow only once added up.
        let err = parse_csv("0,0\n8e153,8e153\n", false).unwrap_err();
        assert!(matches!(err, CsvError::Overflow { column: 2 }), "{err:?}");
        // Extreme but workable scales still load.
        assert!(parse_csv("1e-300,1e80\n1e80,1e-300\n", false).is_ok());
        assert!(parse_csv("1.7e308\n", false).is_ok());
    }

    #[test]
    fn empty_input_is_error() {
        assert!(matches!(parse_csv("# only comments\n", false), Err(CsvError::Empty)));
    }

    #[test]
    fn csv_roundtrip() -> Result<(), CsvError> {
        let ds = Dataset::from_rows(&[vec![1.5, -2.0], vec![0.25, 3.0]])
            .with_dim_names(vec!["a".into(), "b".into()]);
        let text = to_csv(&ds);
        let back = parse_csv(&text, true)?;
        assert_eq!(ds, back);
        Ok(())
    }
}
