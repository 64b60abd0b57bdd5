//! Property-based tests for dataset storage and transformations.

use multiclust_data::io::{parse_csv, to_csv};
use multiclust_data::{Dataset, MultiViewDataset};
use proptest::prelude::*;

fn dataset(max_n: usize, d: usize) -> impl Strategy<Value = Dataset> {
    prop::collection::vec(prop::collection::vec(-100.0f64..100.0, d), 1..max_n)
        .prop_map(|rows| Dataset::from_rows(&rows))
}

/// One CSV cell from a raw draw: a finite number in one of several
/// spellings, a non-finite spelling (`nan`, `inf`, `1e999`, …), an empty
/// cell (a stray comma), a word, or a finite value too large to fit, with
/// optional whitespace around it.
fn csv_cell(c: u32) -> String {
    let k = c / 72;
    // Two draws in three are finite spellings.
    let cell = match c % 24 % 16 {
        0 => format!("{k}"),
        1 => format!("-{k}.25"),
        2 => format!("{k}e-3"),
        3 => format!("{:e}", f64::from(k) * 0.37),
        4 => format!("+{k}"),
        5 => ".5".to_string(),
        6 => format!("{k}."),
        7 => format!("{}", f64::from(k) / 7.0),
        8 => "nan".to_string(),
        9 => "inf".to_string(),
        10 => "-inf".to_string(),
        11 => "1e999".to_string(),
        12 => ["NaN", "-infinity", "-1e999"][k as usize % 3].to_string(),
        13 => String::new(),
        14 => "abc".to_string(),
        _ => "1e200".to_string(),
    };
    let pad = ["", " ", "\t"][(c / 24 % 3) as usize];
    format!("{pad}{cell}{pad}")
}

/// CSV text from raw draws, one line per draw: blank and whitespace-only
/// lines, comments, a header-like row of names, ragged rows and (mostly)
/// rows of `width` cells; `\n` or `\r\n` endings.
fn csv_text(lines: &[Vec<u32>], width: usize) -> String {
    let mut text = String::new();
    for line in lines {
        let kind = line.first().copied().unwrap_or(0);
        let cells = &line[line.len().min(1)..];
        let body = match kind % 12 {
            0 => String::new(),
            1 => " \t ".to_string(),
            2 => "# comment, nan,1e999".to_string(),
            3 => "  # indented comment".to_string(),
            4 => (0..width).map(|j| format!(" name{j} ")).collect::<Vec<_>>().join(","),
            5 => cells.iter().map(|&c| csv_cell(c)).collect::<Vec<_>>().join(","),
            _ => (0..width)
                .map(|j| csv_cell(cells.get(j).copied().unwrap_or(0)))
                .collect::<Vec<_>>()
                .join(","),
        };
        text.push_str(&body);
        text.push_str(if kind / 12 % 2 == 0 { "\n" } else { "\r\n" });
    }
    text
}

/// The cells of the data lines of `text` as the reader's dialect defines
/// them: blank and `#` lines skipped, the first remaining line skipped when
/// `header` is set, cells split at commas and trimmed.
fn data_cells(text: &str, header: bool) -> Vec<Vec<String>> {
    let mut rows: Vec<Vec<String>> = text
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| l.split(',').map(|c| c.trim().to_string()).collect())
        .collect();
    if header && !rows.is_empty() {
        rows.remove(0);
    }
    rows
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The CSV reader never panics on arbitrary lines. A table it accepts
    /// is rectangular, all-finite and holds exactly the data lines' cells;
    /// any non-finite data cell is an error; and `to_csv` output parses
    /// back to the same bits and names.
    #[test]
    fn csv_reader_accepts_only_finite_tables_that_round_trip(
        lines in prop::collection::vec(prop::collection::vec(0u32..100_000, 0..6), 0..12),
        width in 1usize..4,
        header in 0u8..2,
    ) {
        let header = header == 1;
        let text = csv_text(&lines, width);
        let parsed = parse_csv(&text, header);
        let cells = data_cells(&text, header);
        let non_finite = cells
            .iter()
            .flatten()
            .any(|c| c.parse::<f64>().is_ok_and(|v| !v.is_finite()));
        if non_finite {
            prop_assert!(parsed.is_err(), "non-finite cell accepted: {:?}", text);
        }
        if let Ok(ds) = parsed {
            prop_assert!(!ds.is_empty() && ds.dims() >= 1);
            prop_assert_eq!(ds.as_slice().len(), ds.len() * ds.dims());
            prop_assert!(ds.as_slice().iter().all(|x| x.is_finite()));
            prop_assert_eq!(cells.len(), ds.len());
            for (row, want) in ds.rows().zip(&cells) {
                let want: Vec<u64> =
                    want.iter().map(|c| c.parse::<f64>().map_or(0, f64::to_bits)).collect();
                let got: Vec<u64> = row.iter().map(|x| x.to_bits()).collect();
                prop_assert_eq!(got, want);
            }
            let back = parse_csv(&to_csv(&ds), ds.dim_names().is_some())
                .map_err(|e| TestCaseError::fail(format!("to_csv output refused: {e}")))?;
            prop_assert_eq!(back.len(), ds.len());
            prop_assert_eq!(back.dims(), ds.dims());
            prop_assert_eq!(back.dim_names(), ds.dim_names());
            let bits = |d: &Dataset| d.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&back), bits(&ds));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Projection keeps objects and reorders columns as requested.
    #[test]
    fn project_preserves_rows(ds in dataset(30, 4)) {
        let p = ds.project(&[3, 1]);
        prop_assert_eq!(p.len(), ds.len());
        prop_assert_eq!(p.dims(), 2);
        for i in 0..ds.len() {
            prop_assert_eq!(p.row(i)[0], ds.row(i)[3]);
            prop_assert_eq!(p.row(i)[1], ds.row(i)[1]);
        }
    }

    /// Selecting all objects in order is the identity.
    #[test]
    fn select_all_is_identity(ds in dataset(20, 3)) {
        let idx: Vec<usize> = (0..ds.len()).collect();
        prop_assert_eq!(ds.select(&idx), ds);
    }

    /// Min-max normalisation is idempotent and bounded.
    #[test]
    fn min_max_is_idempotent(ds in dataset(25, 3)) {
        let once = ds.min_max_normalized();
        let twice = once.min_max_normalized();
        for (a, b) in once.as_slice().iter().zip(twice.as_slice()) {
            prop_assert!((a - b).abs() < 1e-12);
        }
        for &x in once.as_slice() {
            prop_assert!((-1e-12..=1.0 + 1e-12).contains(&x));
        }
    }

    /// Standardisation yields zero mean; re-standardising changes nothing.
    #[test]
    fn standardize_centres_and_is_idempotent(ds in dataset(25, 3)) {
        let s = ds.standardized();
        for &m in &s.mean() {
            prop_assert!(m.abs() < 1e-9);
        }
        let again = s.standardized();
        for (a, b) in s.as_slice().iter().zip(again.as_slice()) {
            prop_assert!((a - b).abs() < 1e-9);
        }
    }

    /// Linear transformation by the identity matrix is the identity map.
    #[test]
    fn identity_transform_is_noop(ds in dataset(20, 3)) {
        let eye = [1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0];
        let t = ds.transformed(&eye, 3);
        for (a, b) in t.as_slice().iter().zip(ds.as_slice()) {
            prop_assert!((a - b).abs() < 1e-12);
        }
    }

    /// Transformation is linear: T(x) computed on concatenated data equals
    /// per-view computation.
    #[test]
    fn attribute_groups_roundtrip_through_concat(ds in dataset(20, 4)) {
        let mv = MultiViewDataset::from_attribute_groups(&ds, &[vec![0, 1], vec![2, 3]]);
        let back = mv.concatenated();
        prop_assert_eq!(back.as_slice(), ds.as_slice());
    }

    /// Bounds really bound every value.
    #[test]
    fn bounds_are_tight(ds in dataset(25, 3)) {
        let bounds = ds.bounds().expect("non-empty");
        for row in ds.rows() {
            for (x, (lo, hi)) in row.iter().zip(&bounds) {
                prop_assert!(lo <= x && x <= hi);
            }
        }
        // Tight: each bound is attained by some object.
        for (j, (lo, hi)) in bounds.iter().enumerate() {
            prop_assert!(ds.rows().any(|r| r[j] == *lo));
            prop_assert!(ds.rows().any(|r| r[j] == *hi));
        }
    }
}
