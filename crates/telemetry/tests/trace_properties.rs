//! Property tests of the one telemetry reader, `read_trace`: a truncated
//! `--trace` file or flight dump, or arbitrary lines after a valid schema
//! line, either parse or fail with an error naming a line — never a
//! panic — and the records both producers write read back unchanged.

use std::path::PathBuf;
use std::sync::{Mutex, OnceLock};

use multiclust_telemetry::trace::{self, read_trace, Record, TraceFile};
use multiclust_telemetry::{event, flight, span};
use proptest::prelude::*;

/// The producers are process-global state; cases that record must not
/// interleave.
static LOCK: Mutex<()> = Mutex::new(());

fn tmp(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("multiclust-trace-prop-{}-{tag}.jsonl", std::process::id()))
}

/// Parses `bytes` as a telemetry file.
fn parse(tag: &str, bytes: &[u8]) -> Result<TraceFile, String> {
    let path = tmp(tag);
    std::fs::write(&path, bytes).expect("temp file writes");
    let parsed = read_trace(&path);
    let _ = std::fs::remove_file(&path);
    parsed
}

/// Runs `record` with telemetry on and a trace sink open; returns the file.
fn traced(tag: &str, record: impl FnOnce()) -> Vec<u8> {
    let path = tmp(tag);
    multiclust_telemetry::set_enabled(true);
    multiclust_telemetry::reset();
    trace::set_trace_path(Some(&path)).expect("trace sink opens");
    record();
    trace::flush_trace();
    multiclust_telemetry::set_enabled(false);
    let bytes = std::fs::read(&path).expect("trace file written");
    let _ = std::fs::remove_file(&path);
    bytes
}

/// A `--trace` file and a flight dump of one small request: nested spans,
/// events with fields and an error, made inside a request context.
fn producer_files() -> &'static [Vec<u8>; 2] {
    static FILES: OnceLock<[Vec<u8>; 2]> = OnceLock::new();
    FILES.get_or_init(|| {
        let _guard = LOCK.lock().unwrap_or_else(|p| p.into_inner());
        flight::set_flight(true);
        let trace = traced("producer", || {
            flight::set_request("req-1", 2);
            let _fit = span("serve.fit");
            for iter in 0..3 {
                let _step = span("lloyd");
                let iter = f64::from(iter);
                event("kmeans.iter", &[("iter", iter), ("inertia", 9.0 - iter)]);
            }
            event("weird", &[("inf", f64::INFINITY), ("neg", -0.0)]);
            flight::record_error("serve.fit.internal", None);
            flight::clear_request();
        });
        [trace, flight::dump_to_string().expect("recorder on").into_bytes()]
    })
}

/// Printable ASCII strings with `len` bytes.
fn ascii(len: std::ops::RangeInclusive<usize>) -> impl Strategy<Value = String> {
    prop::collection::vec(b' '..b'\x7f', len).prop_map(|b| String::from_utf8(b).expect("ASCII"))
}

/// JSON-shaped lines from the format's own vocabulary, so the reader gets
/// past the JSON parser into its own field checks; the escapes include a
/// surrogate pair and a high surrogate followed by a non-surrogate.
fn token_soup() -> impl Strategy<Value = String> {
    const TOKENS: &str = r#"{ } [ ] : , "type" "meta" "span" "event" "error" "snapshot" "end"
        "path" "name" "ns" "fields" "seq" "conn" "alloc" "paths" "counters" -1 1.5 1e999 null
        true "x" "é€😀" "\ud83d\ude00" "\ud800\u0041" "\u00e9""#;
    let tokens: Vec<&'static str> = TOKENS.split_whitespace().collect();
    prop::collection::vec(0..tokens.len(), 0..40)
        .prop_map(move |picks| picks.into_iter().map(|i| tokens[i]).collect())
}

/// Whether `err` is the reader's error for (1-based) line `line`.
fn names_line(err: &str, line: usize) -> bool {
    err.starts_with(&format!("line {line}: "))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Cutting either file after any whole line leaves a file that parses
    /// to a prefix of the full record list; cutting it at any byte either
    /// parses or fails naming the line the cut fell in.
    #[test]
    fn truncated_files_parse_or_name_a_line(which in 0usize..2, cut in 0usize..1 << 20) {
        let bytes = &producer_files()[which];
        let full = parse("full", bytes).expect("the untruncated file parses");
        let lines: Vec<&[u8]> = bytes.split_inclusive(|&b| b == b'\n').collect();
        let keep = 1 + cut % lines.len();
        let parsed = parse("lines", &lines[..keep].concat()).map_err(TestCaseError::fail)?;
        prop_assert_eq!(parsed.ended, keep == lines.len());
        // Compared through `Debug`, which prints NaN fields alike.
        let head = &full.records[..parsed.records.len()];
        prop_assert_eq!(format!("{:?}", parsed.records), format!("{head:?}"));

        let prefix = &bytes[..cut % (bytes.len() + 1)];
        if let Err(err) = parse("bytes", prefix) {
            prop_assert!(names_line(&err, prefix.split(|&b| b == b'\n').count()), "{err}");
        }
    }

    /// Arbitrary lines after a valid schema line parse or fail naming one
    /// of those lines.
    #[test]
    fn arbitrary_lines_after_the_schema_never_panic(
        noise in prop::collection::vec(ascii(0..=60), 1..6),
        soup in prop::collection::vec(token_soup(), 1..6),
    ) {
        for lines in [noise, soup] {
            let schema = format!("{{\"type\":\"meta\",\"schema\":\"{}\"}}", trace::TRACE_SCHEMA);
            let text = format!("{schema}\n{}\n", lines.join("\n"));
            if let Err(err) = parse("noise", text.as_bytes()) {
                let named = (2..=lines.len() + 1).any(|line| names_line(&err, line));
                prop_assert!(named, "{err}\n{text}");
            }
        }
    }

    /// A flight span with a request id and connection, and a traced event
    /// with fields of any bit pattern, read back as written; a non-finite
    /// field reads back NaN.
    #[test]
    fn records_round_trip_through_both_producers(
        name in ascii(0..=flight::NAME_BYTES),
        request in ascii(1..=flight::REQUEST_BYTES),
        conn in 1u64..1 << 40,
        ns in 0u64..i64::MAX as u64,
        keys in prop::collection::vec(ascii(0..=12), 0..5),
        bits in prop::collection::vec(0u64..u64::MAX, 5),
    ) {
        let _guard = LOCK.lock().unwrap_or_else(|p| p.into_inner());
        flight::set_flight(true);
        flight::set_request(&request, conn);
        flight::record_span(&name, ns);
        flight::clear_request();
        let dump = parse("span", flight::dump_to_string().expect("recorder on").as_bytes());
        let spans = dump.map_err(TestCaseError::fail)?.records;
        let us = spans.first().and_then(|r| r.us);
        let span = Record {
            seq: Some(1),
            thread: Some(0),
            kind: "span".into(),
            us,
            dur_ns: ns,
            name: name.clone(),
            request_id: Some(request),
            conn: Some(conn),
            fields: None,
        };
        prop_assert!(us.is_some());
        prop_assert_eq!(spans, vec![span]);

        let mut fields: Vec<(String, f64)> =
            keys.into_iter().zip(bits).map(|(k, b)| (k, f64::from_bits(b))).collect();
        fields.push(("non-finite".into(), f64::INFINITY));
        let refs: Vec<(&str, f64)> = fields.iter().map(|(k, v)| (k.as_str(), *v)).collect();
        let file = traced("event", || event(&name, &refs));
        let events = parse("event", &file).map_err(TestCaseError::fail)?.records;
        let fields = fields.into_iter().map(|(k, v)| (k, if v.is_finite() { v } else { f64::NAN }));
        let written = Record {
            seq: Some(0),
            kind: "event".into(),
            name,
            fields: Some(fields.collect()),
            ..Record::default()
        };
        // Compared through `Debug`: bit-exact for finite values, NaN alike.
        prop_assert_eq!(format!("{events:?}"), format!("{:?}", [written]));
    }
}
