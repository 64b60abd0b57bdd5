//! Property tests of request parsing: `parse_request` reads a valid
//! inline `data` matrix straight into the dataset's flat buffer, and must
//! answer exactly as the `Value` path (`parse_request_value` over
//! `serde_json::parse_value`) does — the same dataset bit for bit on
//! valid lines, the same `(id, code, message)` on anything else.

use multiclust_serve::protocol::{parse_request, parse_request_value, DataSource, Request};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Value;

/// JSON whitespace runs, the empty one most often.
fn ws(rng: &mut StdRng) -> &'static str {
    ["", "", "", " ", "  ", "\t", "\n", "\r\n"][rng.gen_range(0..8usize)]
}

/// One number token in a spelling the codec must convert as the `Value`
/// path does: small and full-range integers, `-0`, `e`/`E` exponents,
/// integers beyond `i64` and shortest-roundtrip floats.
fn number(rng: &mut StdRng) -> String {
    match rng.gen_range(0..6u8) {
        0 => rng.gen_range(-1000i64..=1000).to_string(),
        1 => "-0".to_string(),
        2 => {
            let mantissa = if rng.gen_bool(0.5) {
                rng.gen_range(0u32..1000).to_string()
            } else {
                format!("{}.{:0>2}", rng.gen_range(0u32..100), rng.gen_range(0u32..100))
            };
            let sign = ["", "-"][rng.gen_range(0..2usize)];
            let e = ["e", "E"][rng.gen_range(0..2usize)];
            let exp_sign = ["", "+", "-"][rng.gen_range(0..3usize)];
            let exp =
                if exp_sign == "-" { rng.gen_range(0u32..=300) } else { rng.gen_range(0u32..=20) };
            format!("{sign}{mantissa}{e}{exp_sign}{exp}")
        }
        3 => {
            let beyond = rng.gen_range(i64::MAX as u64 + 1..=u64::MAX).to_string();
            let digits = format!("{beyond}{}", "0".repeat(rng.gen_range(0..6usize)));
            if rng.gen_bool(0.5) {
                format!("-{digits}")
            } else {
                digits
            }
        }
        4 => rng.gen_range(i64::MIN..=i64::MAX).to_string(),
        _ => {
            let f = rng.gen_range(-1e6..1e6) * 10f64.powi(rng.gen_range(-30..20));
            format!("{f:?}")
        }
    }
}

/// `n × d` random number tokens.
fn tokens(rng: &mut StdRng, n: usize, d: usize) -> Vec<String> {
    (0..n * d).map(|_| number(rng)).collect()
}

/// The `data` matrix over `tokens`, `d` to a row, with random whitespace.
fn matrix(rng: &mut StdRng, tokens: &[String], d: usize) -> String {
    let rows: Vec<String> = tokens
        .chunks(d)
        .map(|row| {
            let cells: Vec<String> =
                row.iter().map(|t| format!("{}{t}{}", ws(rng), ws(rng))).collect();
            format!("{}[{}]{}", ws(rng), cells.join(","), ws(rng))
        })
        .collect();
    format!("[{}]", rows.join(","))
}

/// A `fit` or `assign` line carrying `matrix` as its `data`, with the
/// fields in a random order.
fn request_line(rng: &mut StdRng, matrix: &str) -> String {
    let data = format!("{}\"data\"{}:{}{matrix}", ws(rng), ws(rng), ws(rng));
    let head = if rng.gen_bool(0.5) {
        r#""op":"fit","family":"kmeans","k":2,"given":[0,-1,1]"#
    } else {
        r#""op":"assign","model":"m""#
    };
    let id = format!(r#""id":{}"#, rng.gen_range(0u32..1000));
    match rng.gen_range(0..3u8) {
        0 => format!("{}{{{id},{head},{data}}}{}", ws(rng), ws(rng)),
        1 => format!("{{{data},{id},{head}}}"),
        // Only the first `data` field counts, on either path.
        _ => format!(r#"{{{head},{data},{id},"data":"ignored"}}"#),
    }
}

/// The `Value` path's answer for `line`.
fn value_path(line: &str) -> (Value, Result<Request, (&'static str, String)>) {
    match serde_json::parse_value(line) {
        Ok(tree) => {
            let (id, parsed) = parse_request_value(tree);
            (id, parsed.map_err(|e| (e.code, e.message)))
        }
        Err(e) => (Value::Null, Err(("bad-json", e.to_string()))),
    }
}

fn flat_path(line: &str) -> (Value, Result<Request, (&'static str, String)>) {
    let (id, parsed) = parse_request(line);
    (id, parsed.map_err(|e| (e.code, e.message)))
}

fn inline_bits(request: &Request) -> Option<(usize, Vec<u64>)> {
    let (Request::Fit { source, .. } | Request::Assign { source, .. }) = request else {
        return None;
    };
    let DataSource::Inline(data) = source else { return None };
    Some((data.dims(), data.as_slice().iter().map(|x| x.to_bits()).collect()))
}

/// The number rule: an integer token through `i64` then `as f64`, any
/// other token through `str::parse::<f64>`.
fn rule(token: &str) -> f64 {
    token.parse::<i64>().map(|i| i as f64).unwrap_or_else(|_| token.parse().expect("a number"))
}

/// Bytes a mutation writes: JSON punctuation, number characters, letters
/// of the literals and a quote.
const MUTANT_BYTES: &[u8] = b"[]{},:\"-+.eE0123456789 \tnulx";

/// Cells swapped in for a number: each makes the row ragged or empty, the
/// cell non-finite or non-numeric, a row a non-array, or the JSON bad.
const MUTANT_CELLS: &[&str] =
    &["", "1,2", "\"x\"", "1e999", "-1e999", "null", "true", "[]", "[1]", "{}", "-", "1.7e308"];

/// Whole `data` values swapped in for the matrix.
const MUTANT_DATA: &[&str] = &["[]", "[[]]", "[1,2]", "[[1],2]", "\"x\"", "{}", "null"];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Valid matrices read flat are the `Value` path's datasets, bit for
    /// bit, and every cell follows the number rule.
    #[test]
    fn valid_matrices_read_flat_as_the_value_path_reads_them(
        seed in 0u64..u64::MAX,
        n in 1usize..9,
        d in 1usize..6,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let tokens = tokens(&mut rng, n, d);
        let matrix = matrix(&mut rng, &tokens, d);
        let line = request_line(&mut rng, &matrix);
        let (id, flat) = flat_path(&line);
        let (want_id, want) = value_path(&line);
        prop_assert_eq!(&id, &want_id);
        let flat = flat.map_err(|e| TestCaseError::fail(format!("{line}: {e:?}")))?;
        let want = want.map_err(|e| TestCaseError::fail(format!("{line}: {e:?}")))?;
        let (width, bits) = inline_bits(&flat).expect("inline data");
        prop_assert_eq!(Some((width, bits.clone())), inline_bits(&want));
        prop_assert_eq!(width, d);
        let by_rule: Vec<u64> = tokens.iter().map(|t| rule(t).to_bits()).collect();
        prop_assert_eq!(bits, by_rule);
        prop_assert_eq!(format!("{flat:?}"), format!("{want:?}"));
    }

    /// Valid lines with cells or the whole `data` swapped, bytes
    /// mutated and the line cut short answer as the `Value` path does:
    /// the same id and request, or the same error code and message.
    #[test]
    fn mutated_lines_answer_as_the_value_path_does(
        seed in 0u64..u64::MAX,
        n in 1usize..5,
        d in 1usize..4,
        cell_edits in 0usize..3,
        byte_edits in 0usize..3,
        variant in 0usize..8,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut tokens = tokens(&mut rng, n, d);
        for _ in 0..cell_edits {
            let at = rng.gen_range(0..tokens.len());
            tokens[at] = MUTANT_CELLS[rng.gen_range(0..MUTANT_CELLS.len())].to_string();
        }
        let matrix = match variant {
            0 => MUTANT_DATA[rng.gen_range(0..MUTANT_DATA.len())].to_string(),
            _ => matrix(&mut rng, &tokens, d),
        };
        let mut bytes = request_line(&mut rng, &matrix).into_bytes();
        for _ in 0..byte_edits {
            let at = rng.gen_range(0..bytes.len());
            let byte = MUTANT_BYTES[rng.gen_range(0..MUTANT_BYTES.len())];
            match rng.gen_range(0..3u8) {
                0 => bytes[at] = byte,
                1 => bytes.insert(at, byte),
                _ => {
                    bytes.remove(at);
                }
            }
        }
        if variant == 1 {
            bytes.truncate(rng.gen_range(0..=bytes.len()));
        }
        let line = String::from_utf8(bytes).expect("ASCII mutants");
        let (id, flat) = flat_path(&line);
        let (want_id, want) = value_path(&line);
        prop_assert_eq!(&id, &want_id);
        match (&flat, &want) {
            (Err(got), Err(want)) => prop_assert_eq!(got, want),
            _ => prop_assert_eq!(format!("{flat:?}"), format!("{want:?}")),
        }
    }
}
