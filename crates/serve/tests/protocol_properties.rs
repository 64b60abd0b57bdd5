//! Property tests of request parsing: `parse_request` reads a valid
//! inline `data` matrix straight into the dataset's flat buffer, in
//! pieces when it is long, and must answer exactly as the `Value` path
//! (`parse_request_value` over `serde_json::parse_value`) does — the
//! same dataset bit for bit on valid lines, the same `(id, code,
//! message)` on anything else, at any thread count. The bounded line
//! reader under them splits a stream into lines as `split('\n')` does.

use std::io::{BufRead, ErrorKind, Read};

use multiclust_serve::protocol::{
    parse_request, parse_request_value, read_line_bounded, BoundedLine, DataSource, Request,
};
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

/// A `fit` line over `matrix` with `given`, `views` and `tail` (more
/// fields, possibly none) in the order `order` picks, `data` first, in
/// the middle or last.
fn fit_line(rng: &mut StdRng, matrix: &str, n: usize, tail: &str, order: u8) -> String {
    let given: Vec<String> = (0..n).map(|i| ((i % 3) as i64 - 1).to_string()).collect();
    let given = format!(r#""given":[{}]"#, given.join(","));
    let views = r#""views":[[0],[0]]"#;
    let data = format!("{}\"data\"{}:{}{matrix}{}", ws(rng), ws(rng), ws(rng), ws(rng));
    let head = format!(r#""id":{},"op":"fit","family":"kmeans","k":2"#, rng.gen_range(0u32..1000));
    match order {
        0 => format!("{{{data},{head},{given},{views}{tail}}}"),
        1 => format!("{{{head},{given},{data},{views}{tail}}}"),
        _ => format!("{{{head},{given},{views}{tail},{data}}}"),
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Lines whose matrix spans two to four pieces answer as the `Value`
    /// path does at one thread and at four: clean, with a ragged row, a
    /// non-finite or a string cell in the last piece, and with a later
    /// string field full of `[`, where a piece boundary lands after the
    /// matrix has ended.
    #[test]
    fn lines_read_in_pieces_answer_as_the_value_path_at_any_thread_count(
        seed in 0u64..u64::MAX,
        d in 1usize..20,
        fault in 0usize..5,
        order in 0u8..3,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let target = rng.gen_range(140_000..450_000usize);
        let mut tokens = Vec::new();
        let mut bytes = 0;
        while bytes < target {
            let row = self::tokens(&mut rng, 1, d);
            bytes += row.iter().map(|t| t.len() + 1).sum::<usize>() + 2;
            tokens.extend(row);
        }
        let n = tokens.len() / d;
        let mut tail = String::new();
        let late = rng.gen_range(tokens.len() - tokens.len() / 20..tokens.len());
        match fault {
            1 => tokens[late] = "1,2".to_string(),
            2 => tokens[late] = ["1e999", "-1e999"][rng.gen_range(0..2usize)].to_string(),
            3 => tokens[late] = "\"x\"".to_string(),
            4 => tail = format!(r#","note":"{}""#, "[[1,2],[3".repeat(20_000)),
            _ => {}
        }
        let matrix = matrix(&mut rng, &tokens, d);
        let line = fit_line(&mut rng, &matrix, n, &tail, order);
        let (want_id, want) = value_path(&line);
        let pieces = std::cell::Cell::new(0);
        let (_, flat) = serde_json::parse_value_with_matrix_in(&line, "data", |ps, read| {
            pieces.set(ps.len());
            ps.iter_mut().for_each(read);
        })
        .expect("valid JSON");
        prop_assert!(pieces.get() >= 2, "{} pieces", pieces.get());
        prop_assert_eq!(flat.is_some(), fault == 0 || fault == 4);
        if fault == 0 || fault == 4 {
            let want = want.as_ref().map_err(|e| TestCaseError::fail(format!("{e:?}")))?;
            let (width, bits) = inline_bits(want).expect("inline data");
            prop_assert_eq!(width, d);
            let by_rule: Vec<u64> = tokens.iter().map(|t| rule(t).to_bits()).collect();
            prop_assert_eq!(bits, by_rule);
        } else {
            prop_assert!(want.is_err());
        }
        for threads in [1, 4] {
            multiclust_parallel::set_threads(threads);
            let (id, got) = flat_path(&line);
            prop_assert_eq!(&id, &want_id);
            match (&got, &want) {
                (Ok(got), Ok(want)) => prop_assert_eq!(inline_bits(got), inline_bits(want)),
                (Err(got), Err(want)) => prop_assert_eq!(got, want),
                _ => prop_assert!(false, "{threads} threads: {:?} against {:?}", got.is_ok(), want.is_ok()),
            }
        }
        multiclust_parallel::set_threads(0);
    }
}

/// A reader that hands out its bytes in chunks of random size and
/// fails a random share of its `fill_buf` calls with `WouldBlock` or
/// `Interrupted`, as a socket with a read timeout may.
struct Choppy {
    bytes: Vec<u8>,
    pos: usize,
    chunk: usize,
    max_chunk: usize,
    rng: StdRng,
}

impl Read for Choppy {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.fill_buf()?.read(buf)?;
        self.consume(n);
        Ok(n)
    }
}

impl BufRead for Choppy {
    fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
        if self.chunk == 0 {
            match self.rng.gen_range(0..4u8) {
                0 => return Err(ErrorKind::WouldBlock.into()),
                1 => return Err(ErrorKind::Interrupted.into()),
                _ => {}
            }
            let left = self.bytes.len() - self.pos;
            self.chunk = self.rng.gen_range(1..=self.max_chunk).min(left);
        }
        Ok(&self.bytes[self.pos..self.pos + self.chunk])
    }

    fn consume(&mut self, n: usize) {
        self.pos += n;
        self.chunk -= n;
    }
}

/// What `read_line_bounded` must return line by line: `split('\n')`,
/// with every line longer than `max` `TooLong`, an unterminated tail as
/// one more line, then end of stream.
fn expected_lines(bytes: &[u8], max: usize) -> Vec<Option<Vec<u8>>> {
    let mut lines: Vec<&[u8]> = bytes.split(|&b| b == b'\n').collect();
    if lines.last().is_some_and(|tail| tail.is_empty()) {
        lines.pop();
    }
    lines.into_iter().map(|l| (l.len() <= max).then(|| l.to_vec())).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Lines come back as `split('\n')` over any chunking and any mix
    /// of `WouldBlock` and `Interrupted`: `TooLong` exactly for a line
    /// over `max`, the line after it intact, an unterminated tail as
    /// one line, then `Eof`.
    #[test]
    fn bounded_lines_are_a_split_on_newline(
        seed in 0u64..u64::MAX,
        max in 1usize..40,
        lines in 0usize..12,
        max_chunk in 1usize..90,
        terminated in 0u8..2,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut bytes = Vec::new();
        for i in 0..lines {
            let len = rng.gen_range(0..=3 * max);
            bytes.extend((0..len).map(|_| rng.gen_range(b' '..=b'~')));
            if terminated == 1 || i + 1 < lines {
                bytes.push(b'\n');
            }
        }
        let want = expected_lines(&bytes, max);
        let mut reader = Choppy { bytes, pos: 0, chunk: 0, max_chunk, rng };
        let never = || false;
        let mut got = Vec::new();
        loop {
            match read_line_bounded(&mut reader, max, &never) {
                Ok(BoundedLine::Line(l)) => got.push(Some(l)),
                Ok(BoundedLine::TooLong) => got.push(None),
                Ok(BoundedLine::Eof) => break,
                Ok(BoundedLine::Stopped) => prop_assert!(false, "stopped without a stop"),
                Err(e) => prop_assert!(false, "error {e}"),
            }
        }
        prop_assert_eq!(got, want);
    }
}
