//! Structured trace export: the `multiclust-trace/v1` JSONL sink.
//!
//! When a sink is open (via [`set_trace_path`], the CLI's `--trace`, or
//! the `MULTICLUST_TRACE` environment variable) every completed span and
//! every structured event is streamed to disk as one JSON object per
//! line, ahead of the in-memory registry's [`crate::MAX_EVENTS`] cap —
//! the file is the durable record, the registry only the live summary.
//! Counters and histograms are *not* streamed per update (they are hot);
//! their final values are appended by [`flush_trace`] together with an
//! `end` line.
//!
//! ## Line types
//!
//! ```text
//! {"type":"meta","schema":"multiclust-trace/v1"}      // always first
//! {"type":"meta","command":"kmeans","seed":42,...}    // optional, repeatable
//! {"type":"span","path":"kmeans.fit","ns":81234}      // one per completion
//! {"type":"span","path":"serve.fit","ns":91234,"request_id":"t3","conn":2}
//! {"type":"event","seq":0,"name":"kmeans.iter","fields":{...}}
//! {"type":"counter","name":"kernels.exact","value":9} // at flush
//! {"type":"hist","name":"...","count":3,"sum":7}      // at flush
//! {"type":"end","events_dropped":0,"lines":17}        // always last
//! ```
//!
//! The determinism contract of the parent crate extends to the sink:
//! writing a trace never consumes randomness or changes control flow, so
//! clustering output — and the process's stdout — is byte-identical with
//! the sink on or off (enforced by `tests/cli.rs` and the harness's
//! `trace-invariance` invariant).

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufRead, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Mutex;

use serde::Value;

use crate::{field_str, field_u64, AllocStat, Event};

/// Schema identifier written as the first line of every trace file.
pub const TRACE_SCHEMA: &str = "multiclust-trace/v1";

/// Lines the sink failed to serialize or write (full disk, closed pipe).
/// Failures stay swallowed at the call site — a full disk must not panic
/// inside a span guard's `Drop` — but they are *counted* here and
/// surfaced as the `trace.write_errors` counter in [`crate::snapshot`]
/// and as `write_errors` on the trace `end` line.
static WRITE_ERRORS: AtomicU64 = AtomicU64::new(0);

/// Sink write failures so far (serialization or I/O).
pub fn trace_write_errors() -> u64 {
    WRITE_ERRORS.load(Ordering::Relaxed)
}

/// Zeroes the write-error count (part of [`crate::reset`]).
pub(crate) fn reset_write_errors() {
    WRITE_ERRORS.store(0, Ordering::Relaxed);
}

/// 0 = no sink, 1 = sink open. Checked with one relaxed load on the hot
/// path before touching the sink mutex.
static TRACE_STATE: AtomicU8 = AtomicU8::new(0);

struct Sink {
    writer: BufWriter<File>,
    path: PathBuf,
    lines: u64,
}

static SINK: Mutex<Option<Sink>> = Mutex::new(None);

/// Whether a trace sink is currently open.
#[inline]
pub fn trace_enabled() -> bool {
    TRACE_STATE.load(Ordering::Relaxed) == 1
}

/// Runs `f` on the sink slot, surviving lock poisoning.
fn with_sink<T>(f: impl FnOnce(&mut Option<Sink>) -> T) -> T {
    let mut guard = SINK.lock().unwrap_or_else(|p| p.into_inner());
    f(&mut guard)
}

/// Opens (`Some`) or closes (`None`) the trace sink. Opening truncates
/// the file and writes the schema line; closing discards the sink
/// without an `end` line — use [`flush_trace`] for a well-formed finish.
pub fn set_trace_path(path: Option<&Path>) -> std::io::Result<()> {
    open_trace(path, false)
}

/// Path of the currently open sink, if any.
pub fn trace_path() -> Option<PathBuf> {
    with_sink(|s| s.as_ref().map(|s| s.path.clone()))
}

/// Like [`set_trace_path`], but `append = true` reopens an existing file
/// without truncating or rewriting the schema line (used to restore an
/// outer sink after a nested redirect, e.g. the harness's
/// trace-invariance check running under `--trace`).
pub fn open_trace(path: Option<&Path>, append: bool) -> std::io::Result<()> {
    match path {
        None => {
            TRACE_STATE.store(0, Ordering::Relaxed);
            with_sink(|s| *s = None);
            Ok(())
        }
        Some(p) => {
            let file = if append {
                File::options().append(true).create(true).open(p)?
            } else {
                File::create(p)?
            };
            let mut sink =
                Sink { writer: BufWriter::new(file), path: p.to_path_buf(), lines: 0 };
            if !append {
                sink.write_line(&Value::Object(vec![
                    ("type".into(), Value::String("meta".into())),
                    ("schema".into(), Value::String(TRACE_SCHEMA.into())),
                ]));
            }
            with_sink(|s| *s = Some(sink));
            TRACE_STATE.store(1, Ordering::Relaxed);
            Ok(())
        }
    }
}

impl Sink {
    /// Serializes one value as a JSONL line. I/O errors must not panic
    /// inside a span guard's `Drop`, so they are swallowed here — but
    /// counted in [`WRITE_ERRORS`] so the loss is visible in the registry
    /// and on the `end` line instead of silent.
    fn write_line(&mut self, value: &Value) {
        match serde_json::to_string(value) {
            Ok(json) => {
                let ok = self.writer.write_all(json.as_bytes()).is_ok()
                    && self.writer.write_all(b"\n").is_ok();
                if !ok {
                    WRITE_ERRORS.fetch_add(1, Ordering::Relaxed);
                }
                self.lines += 1;
            }
            Err(_) => {
                WRITE_ERRORS.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// Appends a free-form metadata line (`{"type":"meta", ...fields}`) —
/// run context such as command, seed, thread count, kernel mode, dataset
/// shape. No-op without an open sink.
pub fn trace_meta(fields: &[(&str, Value)]) {
    if !trace_enabled() {
        return;
    }
    let mut obj = vec![("type".to_string(), Value::String("meta".into()))];
    obj.extend(fields.iter().map(|(k, v)| (k.to_string(), v.clone())));
    with_sink(|s| {
        if let Some(sink) = s {
            sink.write_line(&Value::Object(obj));
        }
    });
}

/// Streams one completed span. Called from `SpanGuard::drop` after the
/// registry lock has been released — the two locks are never nested.
/// Spans completed inside a request context (see [`crate::flight`])
/// additionally carry `request_id`/`conn` fields, so a trace line joins
/// the same correlation key as the flight ring and the client transcript.
pub(crate) fn write_span(path: &str, ns: u64, ctx: Option<(&str, u64)>) {
    with_sink(|s| {
        if let Some(sink) = s {
            let mut obj = vec![
                ("type".into(), Value::String("span".into())),
                ("path".into(), Value::String(path.to_string())),
                ("ns".into(), crate::int(ns)),
            ];
            if let Some((request_id, conn)) = ctx {
                obj.push(("request_id".into(), Value::String(request_id.to_string())));
                obj.push(("conn".into(), crate::int(conn)));
            }
            sink.write_line(&Value::Object(obj));
        }
    });
}

/// Streams one structured event (including those past the in-memory cap).
pub(crate) fn write_event(seq: u64, name: &str, fields: &[(&str, f64)]) {
    with_sink(|s| {
        if let Some(sink) = s {
            let fields = Value::Object(
                fields.iter().map(|(k, v)| (k.to_string(), crate::float(*v))).collect(),
            );
            sink.write_line(&Value::Object(vec![
                ("type".into(), Value::String("event".into())),
                ("seq".into(), crate::int(seq)),
                ("name".into(), Value::String(name.to_string())),
                ("fields".into(), fields),
            ]));
        }
    });
}

/// Appends final counter and histogram values plus the `end` line, flushes
/// and closes the sink. No-op without an open sink. Call once, at the end
/// of the run being traced.
pub fn flush_trace() {
    if !trace_enabled() {
        return;
    }
    // Snapshot first (registry lock), then write (sink lock) — sequential,
    // never nested.
    let snap = crate::snapshot();
    TRACE_STATE.store(0, Ordering::Relaxed);
    with_sink(|s| {
        let Some(mut sink) = s.take() else { return };
        for (name, v) in &snap.counters {
            sink.write_line(&Value::Object(vec![
                ("type".into(), Value::String("counter".into())),
                ("name".into(), Value::String(name.clone())),
                ("value".into(), crate::int(*v)),
            ]));
        }
        for (name, h) in &snap.histograms {
            sink.write_line(&Value::Object(vec![
                ("type".into(), Value::String("hist".into())),
                ("name".into(), Value::String(name.clone())),
                ("count".into(), crate::int(h.count)),
                ("sum".into(), crate::int(h.sum)),
                ("p50".into(), crate::int(h.p50())),
                ("p90".into(), crate::int(h.p90())),
                ("p99".into(), crate::int(h.p99())),
                ("max".into(), crate::int(h.max)),
            ]));
        }
        // Per-phase allocation accounting (present only when
        // `MULTICLUST_ALLOC` was on and something allocated).
        for (path, a) in &snap.alloc {
            sink.write_line(&Value::Object(vec![
                ("type".into(), Value::String("alloc".into())),
                ("path".into(), Value::String(path.clone())),
                ("count".into(), crate::int(a.count)),
                ("bytes".into(), crate::int(a.bytes)),
                ("peak".into(), crate::int(a.peak)),
            ]));
        }
        let lines = sink.lines + 1;
        sink.write_line(&Value::Object(vec![
            ("type".into(), Value::String("end".into())),
            ("events_dropped".into(), crate::int(snap.dropped_events)),
            ("write_errors".into(), crate::int(trace_write_errors())),
            ("lines".into(), crate::int(lines)),
        ]));
        if sink.writer.flush().is_err() {
            WRITE_ERRORS.fetch_add(1, Ordering::Relaxed);
        }
    });
}

// ---- reading ---------------------------------------------------------------

/// A parsed trace file.
#[derive(Debug, Default)]
pub struct TraceFile {
    /// Schema identifier from the opening meta line.
    pub schema: Option<String>,
    /// All metadata fields, merged across meta lines in order.
    pub meta: Vec<(String, Value)>,
    /// Individual span completions in stream order.
    pub spans: Vec<(String, u64)>,
    /// Structured events in stream order.
    pub events: Vec<Event>,
    /// Final counter values from the flush.
    pub counters: BTreeMap<String, u64>,
    /// Per-span-path allocation accounting from the flush (empty unless
    /// the run had `MULTICLUST_ALLOC=1`).
    pub alloc: BTreeMap<String, AllocStat>,
    /// Whether the `end` line was present (the run flushed cleanly).
    pub ended: bool,
    /// Events dropped from the in-memory registry (the trace itself keeps
    /// streaming past the cap).
    pub events_dropped: u64,
    /// Sink write failures reported on the `end` line.
    pub write_errors: u64,
    /// Total parsed lines.
    pub lines: usize,
}

/// Parses a `multiclust-trace/v1` JSONL file. Every line must be a JSON
/// object with a known `type`; the error message carries the 1-based line
/// number of the first offence.
pub fn read_trace(path: &Path) -> Result<TraceFile, String> {
    let file = File::open(path).map_err(|e| format!("opening {}: {e}", path.display()))?;
    let reader = std::io::BufReader::new(file);
    let mut out = TraceFile::default();
    for (idx, line) in reader.lines().enumerate() {
        let lineno = idx + 1;
        let line = line.map_err(|e| format!("reading line {lineno}: {e}"))?;
        if line.trim().is_empty() {
            continue;
        }
        let value: Value = serde_json::from_str(&line)
            .map_err(|e| format!("line {lineno}: invalid JSON: {e}"))?;
        let Value::Object(obj) = value else {
            return Err(format!("line {lineno}: expected a JSON object"));
        };
        out.lines += 1;
        let ty = field_str(&obj, "type")
            .ok_or_else(|| format!("line {lineno}: missing \"type\""))?;
        match ty {
            "meta" => {
                for (k, v) in &obj {
                    match k.as_str() {
                        "type" => {}
                        "schema" => {
                            if out.schema.is_none() {
                                out.schema = Some(match v {
                                    Value::String(s) => s.clone(),
                                    _ => return Err(format!(
                                        "line {lineno}: \"schema\" must be a string"
                                    )),
                                });
                            }
                        }
                        _ => out.meta.push((k.clone(), v.clone())),
                    }
                }
            }
            "span" => {
                let path = field_str(&obj, "path")
                    .ok_or_else(|| format!("line {lineno}: span without \"path\""))?;
                let ns = field_u64(&obj, "ns")
                    .ok_or_else(|| format!("line {lineno}: span without \"ns\""))?;
                out.spans.push((path.to_string(), ns));
            }
            "event" => {
                let name = field_str(&obj, "name")
                    .ok_or_else(|| format!("line {lineno}: event without \"name\""))?;
                let seq = field_u64(&obj, "seq").unwrap_or(out.events.len() as u64);
                let fields = obj
                    .iter()
                    .find(|(k, _)| k == "fields")
                    .and_then(|(_, v)| match v {
                        Value::Object(f) => Some(f),
                        _ => None,
                    })
                    .ok_or_else(|| format!("line {lineno}: event without \"fields\""))?;
                let fields: Vec<(String, f64)> = fields
                    .iter()
                    .map(|(k, v)| {
                        let f = match v {
                            Value::Int(i) => *i as f64,
                            Value::Float(f) => *f,
                            Value::Null => f64::NAN,
                            _ => return Err(format!(
                                "line {lineno}: event field {k:?} is not numeric"
                            )),
                        };
                        Ok((k.clone(), f))
                    })
                    .collect::<Result<_, String>>()?;
                out.events.push(Event { seq, name: name.to_string(), fields });
            }
            "counter" => {
                let name = field_str(&obj, "name")
                    .ok_or_else(|| format!("line {lineno}: counter without \"name\""))?;
                let value = field_u64(&obj, "value")
                    .ok_or_else(|| format!("line {lineno}: counter without \"value\""))?;
                out.counters.insert(name.to_string(), value);
            }
            "hist" => {} // summary only; nothing to accumulate
            "alloc" => {
                let path = field_str(&obj, "path")
                    .ok_or_else(|| format!("line {lineno}: alloc without \"path\""))?;
                out.alloc.insert(
                    path.to_string(),
                    AllocStat {
                        count: field_u64(&obj, "count").unwrap_or(0),
                        bytes: field_u64(&obj, "bytes").unwrap_or(0),
                        peak: field_u64(&obj, "peak").unwrap_or(0),
                    },
                );
            }
            "end" => {
                out.ended = true;
                out.events_dropped = field_u64(&obj, "events_dropped").unwrap_or(0);
                out.write_errors = field_u64(&obj, "write_errors").unwrap_or(0);
            }
            other => return Err(format!("line {lineno}: unknown line type {other:?}")),
        }
    }
    if out.lines == 0 {
        return Err(format!("{}: empty trace", path.display()));
    }
    match &out.schema {
        None => return Err("missing schema meta line".to_string()),
        Some(s) if s != TRACE_SCHEMA => {
            return Err(format!("unsupported schema {s:?} (expected {TRACE_SCHEMA:?})"));
        }
        Some(_) => {}
    }
    Ok(out)
}

// ---- span-tree exporters ---------------------------------------------------

/// Aggregated totals per span path plus the self-time (total minus the
/// total of direct children), computed from individual completions.
fn span_totals(trace: &TraceFile) -> BTreeMap<String, (u64, u64, u64)> {
    // path → (count, total_ns, self_ns)
    let mut totals: BTreeMap<String, (u64, u64, u64)> = BTreeMap::new();
    for (path, ns) in &trace.spans {
        let e = totals.entry(path.clone()).or_insert((0, 0, 0));
        e.0 += 1;
        e.1 += ns;
    }
    let keys: Vec<String> = totals.keys().cloned().collect();
    for path in &keys {
        let child_total: u64 = keys
            .iter()
            .filter(|k| {
                k.len() > path.len()
                    && k.starts_with(path.as_str())
                    && k.as_bytes()[path.len()] == b'/'
                    && !k[path.len() + 1..].contains('/')
            })
            .map(|k| totals[k].1)
            .sum();
        let e = totals.get_mut(path).unwrap();
        e.2 = e.1.saturating_sub(child_total);
    }
    totals
}

/// Collapsed-stack export over the span tree: one `a;b;c <self_us>` line
/// per path, the input format of standard flamegraph tooling. Self time
/// is in integer microseconds; zero-self-time pure parents are kept so
/// the stack structure survives.
pub fn collapse_spans(trace: &TraceFile) -> String {
    let mut out = String::new();
    for (path, (_, _, self_ns)) in span_totals(trace) {
        let stack = path.replace('/', ";");
        out.push_str(&format!("{stack} {}\n", self_ns / 1_000));
    }
    out
}

/// Per-phase time attribution: a fixed-width table of span paths with
/// call counts, total and self milliseconds, and self-time share of the
/// trace's total self time. Traces written under `MULTICLUST_ALLOC=1`
/// additionally get per-phase `alloc.{count,bytes,peak}` columns
/// (allocations charged while the phase was innermost on its thread).
pub fn phase_summary(trace: &TraceFile) -> String {
    let totals = span_totals(trace);
    let all_self: u64 = totals.values().map(|t| t.2).sum();
    let with_alloc = !trace.alloc.is_empty();
    let mut out = String::new();
    out.push_str(&format!(
        "{:<44}  {:>6}  {:>10}  {:>10}  {:>6}",
        "phase (span path)", "count", "total_ms", "self_ms", "self%"
    ));
    if with_alloc {
        out.push_str(&format!(
            "  {:>11}  {:>12}  {:>12}",
            "alloc.count", "alloc.bytes", "alloc.peak"
        ));
    }
    out.push('\n');
    for (path, (count, total_ns, self_ns)) in &totals {
        let pct = if all_self == 0 {
            0.0
        } else {
            *self_ns as f64 * 100.0 / all_self as f64
        };
        out.push_str(&format!(
            "{:<44}  {:>6}  {:>10.3}  {:>10.3}  {:>5.1}%",
            path,
            count,
            *total_ns as f64 / 1e6,
            *self_ns as f64 / 1e6,
            pct
        ));
        if with_alloc {
            let a = trace.alloc.get(path).copied().unwrap_or_default();
            out.push_str(&format!("  {:>11}  {:>12}  {:>12}", a.count, a.bytes, a.peak));
        }
        out.push('\n');
    }
    // Allocations charged outside any span (worker threads idling, setup
    // before the first span) have no time row; list them after the table.
    if with_alloc {
        for (path, a) in &trace.alloc {
            if !totals.contains_key(path) {
                out.push_str(&format!(
                    "{:<44}  {:>6}  {:>10}  {:>10}  {:>6}  {:>11}  {:>12}  {:>12}\n",
                    path, "-", "-", "-", "-", a.count, a.bytes, a.peak
                ));
            }
        }
    }
    if totals.is_empty() && trace.alloc.is_empty() {
        out.push_str("(no spans recorded)\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("multiclust-trace-test-{}-{name}", std::process::id()))
    }

    /// Sink and registry are process-global; serialize trace tests (on
    /// the same lock as the lib tests — shared state, shared lock).
    fn serialized<T>(f: impl FnOnce() -> T) -> T {
        let _guard = crate::TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        crate::set_enabled(true);
        crate::reset();
        let out = f();
        let _ = set_trace_path(None);
        crate::reset();
        crate::set_enabled(false);
        out
    }

    #[test]
    fn sink_round_trips_spans_events_and_counters() {
        serialized(|| {
            let path = tmp("roundtrip.jsonl");
            set_trace_path(Some(&path)).unwrap();
            trace_meta(&[("command", Value::String("test".into()))]);
            {
                let _outer = crate::span("outer");
                let _inner = crate::span("inner");
            }
            crate::event("e", &[("x", 1.5)]);
            crate::counter_add("c", 7);
            flush_trace();
            let trace = read_trace(&path).expect("parseable trace");
            assert_eq!(trace.schema.as_deref(), Some(TRACE_SCHEMA));
            assert!(trace.ended);
            assert_eq!(trace.counters["c"], 7);
            assert_eq!(trace.events.len(), 1);
            assert_eq!(trace.events[0].fields[0], ("x".to_string(), 1.5));
            let paths: Vec<&str> = trace.spans.iter().map(|(p, _)| p.as_str()).collect();
            assert!(paths.contains(&"outer"));
            assert!(paths.contains(&"outer/inner"));
            assert_eq!(field_str(&trace.meta, "command"), Some("test"));
            let _ = std::fs::remove_file(&path);
        });
    }

    #[test]
    fn collapse_and_summary_attribute_self_time() {
        let mut trace = TraceFile::default();
        trace.spans = vec![
            ("fit".into(), 10_000_000),
            ("fit/assign".into(), 6_000_000),
            ("fit/assign".into(), 2_000_000),
        ];
        let collapsed = collapse_spans(&trace);
        assert!(collapsed.contains("fit 2000\n"), "{collapsed}");
        assert!(collapsed.contains("fit;assign 8000\n"), "{collapsed}");
        let summary = phase_summary(&trace);
        assert!(summary.contains("fit/assign"), "{summary}");
        assert!(summary.contains("2"), "{summary}");
    }

    #[test]
    fn read_trace_rejects_malformed_lines() {
        let path = tmp("malformed.jsonl");
        std::fs::write(&path, "{\"type\":\"meta\",\"schema\":\"multiclust-trace/v1\"}\nnot json\n").unwrap();
        let err = read_trace(&path).unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn read_trace_rejects_wrong_schema() {
        let path = tmp("schema.jsonl");
        std::fs::write(&path, "{\"type\":\"meta\",\"schema\":\"other/v9\"}\n").unwrap();
        let err = read_trace(&path).unwrap_err();
        assert!(err.contains("unsupported schema"), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn write_failures_are_counted_not_swallowed() {
        // `/dev/full` accepts opens but fails every write with ENOSPC —
        // the canonical "full sink". Skip where it doesn't exist.
        let full = Path::new("/dev/full");
        if !full.exists() {
            return;
        }
        serialized(|| {
            set_trace_path(Some(full)).expect("/dev/full opens");
            // Push well past BufWriter's internal buffer so the failure
            // surfaces mid-stream, not only at the final flush.
            for i in 0..2_000 {
                crate::event("e", &[("i", i as f64)]);
            }
            flush_trace();
            assert!(trace_write_errors() > 0, "full sink must be counted");
            let snap = crate::snapshot();
            assert!(
                snap.counters.get("trace.write_errors").copied().unwrap_or(0) > 0,
                "write errors must surface as a registry counter"
            );
        });
    }

    #[test]
    fn end_line_round_trips_write_errors_and_alloc() {
        let path = tmp("endline.jsonl");
        std::fs::write(
            &path,
            concat!(
                "{\"type\":\"meta\",\"schema\":\"multiclust-trace/v1\"}\n",
                "{\"type\":\"span\",\"path\":\"fit\",\"ns\":1000}\n",
                "{\"type\":\"alloc\",\"path\":\"fit\",\"count\":3,\"bytes\":4096,\"peak\":2048}\n",
                "{\"type\":\"end\",\"events_dropped\":0,\"write_errors\":7,\"lines\":4}\n",
            ),
        )
        .unwrap();
        let trace = read_trace(&path).expect("parseable");
        assert_eq!(trace.write_errors, 7);
        assert_eq!(trace.alloc["fit"].bytes, 4096);
        assert_eq!(trace.alloc["fit"].peak, 2048);
        let summary = phase_summary(&trace);
        assert!(summary.contains("alloc.peak"), "{summary}");
        assert!(summary.contains("2048"), "{summary}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn trace_streams_past_the_registry_event_cap() {
        serialized(|| {
            let path = tmp("cap.jsonl");
            set_trace_path(Some(&path)).unwrap();
            for i in 0..(crate::MAX_EVENTS + 10) {
                crate::event("e", &[("i", i as f64)]);
            }
            flush_trace();
            let trace = read_trace(&path).expect("parseable");
            assert_eq!(trace.events.len(), crate::MAX_EVENTS + 10);
            assert_eq!(trace.events_dropped, 10);
            let _ = std::fs::remove_file(&path);
        });
    }
}
