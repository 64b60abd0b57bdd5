//! The telemetry file format, `multiclust-trace/v2`: one JSONL codec —
//! one [`Writer`] and one reader, [`read_trace`] — for both producers.
//! They differ only in how much they keep:
//!
//! * the trace sink ([`set_trace_path`], the CLI's `--trace`) streams
//!   every completed span and every event, on past the registry's
//!   [`crate::MAX_EVENTS`] cap, and [`flush_trace`] closes it with one
//!   `snapshot` of the registry;
//! * the flight recorder's dump ([`crate::flight`]) writes the last
//!   records of each thread's ring.
//!
//! The CLI's `multiclust trace <file>` reads either: a header, the phase
//! table ([`phase_summary`]), the last errors ([`last_errors`]) and the
//! convergence report ([`crate::diagnose`]).
//!
//! ## Line types
//!
//! ```text
//! {"type":"meta","schema":"multiclust-trace/v2"}          // always line 1
//! {"type":"meta","source":"trace"}                        // producer fields, run context
//! {"type":"span","path":"serve.fit","ns":91234,"request_id":"t3","conn":2}
//! {"type":"event","seq":0,"name":"kmeans.iter","fields":{"iter":0,...}}
//! {"type":"error","seq":7,"thread":1,"us":1042,"name":"serve.fit.internal","request_id":"t3"}
//! {"type":"snapshot","seq":0,"elapsed_ms":3,"counters":{...},"quantiles":{...},
//!  "alloc":{"enabled":false,...,"paths":{...}},"events_dropped":0}
//! {"type":"end","lines":17,"write_errors":0}              // always last
//! ```
//!
//! `span`, `event` and `error` lines are [`Record`]s. Flight records add
//! `seq`, `thread` and `us`; their events carry no `fields`, and only the
//! ring writes `error` lines. `request_id`/`conn` appear on records made
//! inside a request. A `snapshot` holds every counter, one quantile
//! object per span-duration sketch (`span:<path>`) and histogram (`count`,
//! `sum`, `p50`, `p90`, `p99`, `max`), the allocation gauges with
//! per-path accounting under `paths`, and `events_dropped`.
//!
//! The determinism contract of the parent crate extends to every file:
//! writing one never consumes randomness or changes control flow, so
//! clustering output — and the process's stdout — is byte-identical with
//! any producer on or off (enforced by `tests/cli.rs`, `scripts/check.sh`
//! and the harness's `trace-invariance` invariant).

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufRead, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use serde::Value;

use crate::alloc::{alloc_enabled, alloc_totals};
use crate::{
    alloc_value, as_u64, field, field_obj, field_str, field_u64, float, int, sketch_fields,
    AllocStat, Sketch, Snapshot,
};

/// Schema identifier on the first line of every telemetry file.
pub const TRACE_SCHEMA: &str = "multiclust-trace/v2";

/// The fields of one JSONL object line, in order.
pub(crate) type Fields = Vec<(String, Value)>;

/// Lines any [`Writer`] failed to serialize or write (full disk, closed
/// pipe), surfaced as the `trace.write_errors` counter in
/// [`crate::snapshot`].
static WRITE_ERRORS: AtomicU64 = AtomicU64::new(0);

/// Telemetry file write failures so far (serialization or I/O).
pub fn trace_write_errors() -> u64 {
    WRITE_ERRORS.load(Ordering::Relaxed)
}

/// Zeroes the write-error count (part of [`crate::reset`]).
pub(crate) fn reset_write_errors() {
    WRITE_ERRORS.store(0, Ordering::Relaxed);
}

fn text(s: &str) -> Value {
    Value::String(s.to_string())
}

// ---- writing ---------------------------------------------------------------

/// The one JSONL writer of every telemetry file: the schema line first,
/// the `end` line last, and a count of lines and write failures between.
pub(crate) struct Writer<W: Write> {
    out: W,
    lines: u64,
    errors: u64,
    started: Instant,
}

impl<W: Write> Writer<W> {
    /// Starts a file: the schema line, then `meta` — the producer's
    /// fields — on a second `meta` line.
    pub(crate) fn new(out: W, meta: Fields) -> Self {
        let mut w = Self::resume(out);
        w.line("meta", vec![("schema".into(), text(TRACE_SCHEMA))]);
        w.line("meta", meta);
        w
    }

    /// Continues a file that already has its schema line (an outer trace
    /// sink reopened in append mode).
    pub(crate) fn resume(out: W) -> Self {
        Self { out, lines: 0, errors: 0, started: Instant::now() }
    }

    /// Writes `{"type":ty, ...fields}`. A failure must not panic inside a
    /// span guard's `Drop`, so it is counted instead of returned.
    pub(crate) fn line(&mut self, ty: &str, mut fields: Fields) {
        fields.insert(0, ("type".to_string(), text(ty)));
        self.object(fields);
    }

    /// Writes one object line whose first field is its `type`.
    fn object(&mut self, obj: Fields) {
        let ok = serde_json::to_string(&Value::Object(obj)).is_ok_and(|json| {
            self.out.write_all(json.as_bytes()).is_ok() && self.out.write_all(b"\n").is_ok()
        });
        self.lines += 1;
        if !ok {
            self.fail();
        }
    }

    fn fail(&mut self) {
        self.errors += 1;
        WRITE_ERRORS.fetch_add(1, Ordering::Relaxed);
    }

    /// Writes one `span`, `event` or `error` line.
    pub(crate) fn record(&mut self, r: Record) {
        let span = r.kind == "span";
        let mut obj = Fields::with_capacity(9);
        obj.push(("type".into(), Value::String(r.kind)));
        for (key, v) in [("seq", r.seq), ("thread", r.thread), ("us", r.us)] {
            if let Some(v) = v {
                obj.push((key.into(), int(v)));
            }
        }
        obj.push((if span { "path" } else { "name" }.into(), Value::String(r.name)));
        if span {
            obj.push(("ns".into(), int(r.dur_ns)));
        }
        if let Some(fields) = r.fields {
            let fields = fields.into_iter().map(|(k, v)| (k, float(v))).collect();
            obj.push(("fields".into(), Value::Object(fields)));
        }
        if let Some(id) = r.request_id {
            obj.push(("request_id".into(), Value::String(id)));
        }
        if let Some(conn) = r.conn {
            obj.push(("conn".into(), int(conn)));
        }
        self.object(obj);
    }

    /// Writes one `snapshot` line of `snap`, the producer's `seq`-th.
    pub(crate) fn snapshot(&mut self, seq: u64, snap: &Snapshot) {
        let quantiles = |s: &Sketch| Value::Object(sketch_fields(s));
        let mut sketches: Fields = snap
            .durations
            .iter()
            .map(|(path, s)| (format!("span:{path}"), quantiles(s)))
            .collect();
        sketches.extend(snap.histograms.iter().map(|(name, s)| (name.clone(), quantiles(s))));
        let paths = snap.alloc.iter().map(|(path, a)| (path.clone(), alloc_value(a))).collect();
        let gauges = alloc_totals();
        let alloc = vec![
            ("enabled".into(), Value::Bool(alloc_enabled())),
            ("count".into(), int(gauges.count)),
            ("bytes".into(), int(gauges.bytes)),
            ("live".into(), Value::Int(gauges.live)),
            ("peak".into(), int(gauges.peak)),
            ("paths".into(), Value::Object(paths)),
        ];
        let counters = snap.counters.iter().map(|(k, &v)| (k.clone(), int(v))).collect();
        let elapsed_ms = u64::try_from(self.started.elapsed().as_millis()).unwrap_or(u64::MAX);
        self.line(
            "snapshot",
            vec![
                ("seq".into(), int(seq)),
                ("elapsed_ms".into(), int(elapsed_ms)),
                ("counters".into(), Value::Object(counters)),
                ("quantiles".into(), Value::Object(sketches)),
                ("alloc".into(), Value::Object(alloc)),
                ("events_dropped".into(), int(snap.dropped_events)),
            ],
        );
    }

    pub(crate) fn flush(&mut self) {
        if self.out.flush().is_err() {
            self.fail();
        }
    }

    /// Writes the `end` line — `extra`, then the line count (the end line
    /// included) and this writer's failures so far — and flushes. Returns
    /// the output and the writer's total failure count.
    pub(crate) fn finish(mut self, mut extra: Fields) -> (W, u64) {
        extra.push(("lines".into(), int(self.lines + 1)));
        extra.push(("write_errors".into(), int(self.errors)));
        self.line("end", extra);
        self.flush();
        (self.out, self.errors)
    }
}

// ---- the trace sink --------------------------------------------------------

/// Whether a sink is open: one relaxed load on the hot path before
/// touching the sink mutex.
static TRACE_ON: AtomicBool = AtomicBool::new(false);

struct Sink {
    writer: Writer<BufWriter<File>>,
    path: PathBuf,
}

static SINK: Mutex<Option<Sink>> = Mutex::new(None);

/// Whether a trace sink is currently open.
#[inline]
pub fn trace_enabled() -> bool {
    TRACE_ON.load(Ordering::Relaxed)
}

/// Runs `f` on the sink slot, surviving lock poisoning.
fn with_sink<T>(f: impl FnOnce(&mut Option<Sink>) -> T) -> T {
    let mut guard = SINK.lock().unwrap_or_else(|p| p.into_inner());
    f(&mut guard)
}

/// Opens (`Some`) or closes (`None`) the trace sink. Opening truncates
/// the file and writes the meta lines; closing discards the sink without
/// an `end` line — use [`flush_trace`] for a well-formed finish.
pub fn set_trace_path(path: Option<&Path>) -> std::io::Result<()> {
    open_trace(path, false)
}

/// Path of the currently open sink, if any.
pub fn trace_path() -> Option<PathBuf> {
    with_sink(|s| s.as_ref().map(|s| s.path.clone()))
}

/// Like [`set_trace_path`], but `append = true` reopens an existing file
/// without truncating or rewriting the meta lines (used to restore an
/// outer sink after a nested redirect, e.g. the harness's
/// trace-invariance check running under `--trace`).
pub fn open_trace(path: Option<&Path>, append: bool) -> std::io::Result<()> {
    let sink = match path {
        None => None,
        Some(p) => {
            let writer = if append {
                Writer::resume(BufWriter::new(File::options().append(true).create(true).open(p)?))
            } else {
                let meta = vec![("source".into(), text("trace"))];
                Writer::new(BufWriter::new(File::create(p)?), meta)
            };
            Some(Sink { writer, path: p.to_path_buf() })
        }
    };
    TRACE_ON.store(sink.is_some(), Ordering::Relaxed);
    with_sink(|s| *s = sink);
    Ok(())
}

/// Runs `f` on the open sink's writer; no-op without a sink.
fn write(f: impl FnOnce(&mut Writer<BufWriter<File>>)) {
    with_sink(|s| {
        if let Some(sink) = s {
            f(&mut sink.writer);
        }
    });
}

/// Appends a free-form metadata line (`{"type":"meta", ...fields}`) —
/// run context such as command, seed, thread count, kernel mode, dataset
/// shape. No-op without an open sink.
pub fn trace_meta(fields: &[(&str, Value)]) {
    if trace_enabled() {
        let fields = fields.iter().map(|(k, v)| (k.to_string(), v.clone())).collect();
        write(|w| w.line("meta", fields));
    }
}

/// Streams one completed span, with the thread's request context if one
/// is installed (see [`crate::flight`]). Called from `SpanGuard::drop`
/// after the registry lock has been released — the two locks are never
/// nested.
pub(crate) fn write_span(path: String, ns: u64) {
    let (request_id, conn) = crate::flight::current_request().unzip();
    let kind = "span".into();
    let span = Record { kind, name: path, dur_ns: ns, request_id, conn, ..Record::default() };
    write(|w| w.record(span));
}

/// Streams one structured event (including those past the in-memory cap).
pub(crate) fn write_event(seq: u64, name: &str, fields: &[(&str, f64)]) {
    let (kind, name) = ("event".into(), name.to_string());
    let fields = Some(fields.iter().map(|(k, v)| (k.to_string(), *v)).collect());
    let event = Record { seq: Some(seq), kind, name, fields, ..Record::default() };
    write(|w| w.record(event));
}

/// Appends a final `snapshot` of the registry plus the `end` line,
/// flushes and closes the sink. No-op without an open sink. Call once, at
/// the end of the run being traced.
pub fn flush_trace() {
    if !trace_enabled() {
        return;
    }
    // Snapshot first (registry lock), then take the sink (sink lock) —
    // sequential, never nested.
    let snap = crate::snapshot();
    TRACE_ON.store(false, Ordering::Relaxed);
    let Some(mut sink) = with_sink(Option::take) else { return };
    sink.writer.snapshot(0, &snap);
    sink.writer.finish(Fields::new());
}

// ---- reading ---------------------------------------------------------------

/// One `span`, `event` or `error` line. `seq`, `thread` and `us` are set
/// on flight records; a trace-sink event has only `seq`, its registry
/// sequence number, and its `fields`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Record {
    /// Sequence number (flight: the merge order across threads).
    pub seq: Option<u64>,
    /// Flight segment id of the recording thread.
    pub thread: Option<u64>,
    /// `"span"`, `"event"` or `"error"`.
    pub kind: String,
    /// Flight: microseconds since the recorder's first record.
    pub us: Option<u64>,
    /// Span duration in nanoseconds (0 for events and errors).
    pub dur_ns: u64,
    /// Span path, event name or error label.
    pub name: String,
    /// Correlated request id, if the record was made inside a request.
    pub request_id: Option<String>,
    /// Correlated connection id.
    pub conn: Option<u64>,
    /// A trace-sink event's named numeric payload (`null` reads back as
    /// NaN); `None` on spans, errors and flight events.
    pub fields: Option<Vec<(String, f64)>>,
}

impl Record {
    /// Numeric field `key` of an event's payload.
    pub fn field(&self, key: &str) -> Option<f64> {
        self.fields.iter().flatten().find(|(k, _)| k == key).map(|&(_, v)| v)
    }
}

/// A parsed telemetry file, from either producer.
#[derive(Debug, Default)]
pub struct TraceFile {
    /// Schema identifier from the opening meta line.
    pub schema: Option<String>,
    /// The fields of every later meta line, in order: the producer's
    /// (`source`, `capacity`, …) and the run context (`command`, …).
    pub meta: Vec<(String, Value)>,
    /// Every `span`, `event` and `error` line in stream order.
    pub records: Vec<Record>,
    /// Counter values from the last snapshot.
    pub counters: BTreeMap<String, u64>,
    /// Per-span-path allocation accounting from the last snapshot (empty
    /// unless the run had `MULTICLUST_ALLOC=1`).
    pub alloc: BTreeMap<String, AllocStat>,
    /// Whether the `end` line was present (the producer finished cleanly).
    pub ended: bool,
    /// Events dropped from the in-memory registry, from the last snapshot
    /// (the trace itself keeps streaming past the cap).
    pub events_dropped: u64,
    /// Write failures reported on the `end` line.
    pub write_errors: u64,
    /// Total parsed lines.
    pub lines: usize,
}

impl TraceFile {
    /// Integer meta field `key` (e.g. a flight dump's `capacity`).
    pub fn meta_u64(&self, key: &str) -> Option<u64> {
        field_u64(&self.meta, key)
    }

    /// String meta field `key` (e.g. the producer's `source`).
    pub fn meta_str(&self, key: &str) -> Option<&str> {
        field_str(&self.meta, key)
    }

    /// The records of one kind (`"span"`, `"event"` or `"error"`).
    pub fn of_kind<'a>(&'a self, kind: &'a str) -> impl Iterator<Item = &'a Record> + 'a {
        self.records.iter().filter(move |r| r.kind == kind)
    }
}

/// Parses a `multiclust-trace/v2` JSONL file. The first line must be the
/// schema line, and every line a JSON object with a known `type`; any
/// other schema is refused. The error message names the 1-based line of
/// the first offence.
pub fn read_trace(path: &Path) -> Result<TraceFile, String> {
    let file = File::open(path).map_err(|e| format!("opening {}: {e}", path.display()))?;
    let reader = std::io::BufReader::new(file);
    let mut out = TraceFile::default();
    for (idx, line) in reader.lines().enumerate() {
        let lineno = idx + 1;
        let line = line.map_err(|e| format!("line {lineno}: unreadable: {e}"))?;
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
        let missing = |key: &str| format!("line {lineno}: {ty} without \"{key}\"");
        match ty {
            "meta" if out.schema.is_none() => {
                let schema = field_str(&obj, "schema").ok_or_else(|| missing("schema"))?;
                if schema != TRACE_SCHEMA {
                    let expected = TRACE_SCHEMA;
                    return Err(format!(
                        "line {lineno}: unsupported schema {schema:?} (expected {expected:?})"
                    ));
                }
                out.schema = Some(schema.to_string());
            }
            _ if out.schema.is_none() => {
                return Err(format!("line {lineno}: {ty} before the schema line"));
            }
            "meta" => out.meta.extend(obj.iter().filter(|(k, _)| k != "type").cloned()),
            "span" | "event" | "error" => {
                let key = if ty == "span" { "path" } else { "name" };
                let name = field_str(&obj, key).ok_or_else(|| missing(key))?;
                let dur_ns = match ty {
                    "span" => field_u64(&obj, "ns").ok_or_else(|| missing("ns"))?,
                    _ => 0,
                };
                let fields = match field(&obj, "fields") {
                    None => None,
                    Some(Value::Object(f)) if ty == "event" => Some(event_fields(f, lineno)?),
                    Some(_) => return Err(format!("line {lineno}: malformed \"fields\"")),
                };
                out.records.push(Record {
                    seq: field_u64(&obj, "seq"),
                    thread: field_u64(&obj, "thread"),
                    kind: ty.to_string(),
                    us: field_u64(&obj, "us"),
                    dur_ns,
                    name: name.to_string(),
                    request_id: field_str(&obj, "request_id").map(String::from),
                    conn: field_u64(&obj, "conn"),
                    fields,
                });
            }
            "snapshot" => {
                out.counters = field_obj(&obj, "counters")
                    .unwrap_or_default()
                    .iter()
                    .filter_map(|(name, v)| Some((name.clone(), as_u64(v)?)))
                    .collect();
                let paths = field_obj(&obj, "alloc").and_then(|a| field_obj(a, "paths"));
                out.alloc = paths
                    .unwrap_or_default()
                    .iter()
                    .filter_map(|(path, v)| {
                        let Value::Object(a) = v else { return None };
                        let stat = AllocStat {
                            count: field_u64(a, "count").unwrap_or(0),
                            bytes: field_u64(a, "bytes").unwrap_or(0),
                            peak: field_u64(a, "peak").unwrap_or(0),
                        };
                        Some((path.clone(), stat))
                    })
                    .collect();
                out.events_dropped = field_u64(&obj, "events_dropped").unwrap_or(0);
            }
            "end" => {
                out.ended = true;
                out.write_errors = field_u64(&obj, "write_errors").unwrap_or(0);
            }
            other => return Err(format!("line {lineno}: unknown line type {other:?}")),
        }
    }
    if out.schema.is_none() {
        return Err("line 1: empty file, expected the schema line".to_string());
    }
    Ok(out)
}

/// An event's named numeric fields (`null` reads back as NaN).
fn event_fields(fields: &[(String, Value)], lineno: usize) -> Result<Vec<(String, f64)>, String> {
    fields
        .iter()
        .map(|(k, v)| {
            let f = match v {
                Value::Int(i) => *i as f64,
                Value::Float(f) => *f,
                Value::Null => f64::NAN,
                _ => return Err(format!("line {lineno}: event field {k:?} is not numeric")),
            };
            Ok((k.clone(), f))
        })
        .collect()
}

// ---- span-tree exporters ---------------------------------------------------

/// Aggregated totals per span path plus the self-time (total minus the
/// total of direct children), computed from individual completions.
fn span_totals(trace: &TraceFile) -> BTreeMap<String, (u64, u64, u64)> {
    // path → (count, total_ns, self_ns)
    let mut totals: BTreeMap<String, (u64, u64, u64)> = BTreeMap::new();
    for span in trace.of_kind("span") {
        let e = totals.entry(span.name.clone()).or_insert((0, 0, 0));
        e.0 += 1;
        e.1 += span.dur_ns;
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

/// Errors listed by [`last_errors`].
const LAST_ERRORS: usize = 8;

/// The newest [`LAST_ERRORS`] `error` records, newest first, with their
/// correlated request and connection ids; empty when the file has none.
pub fn last_errors(trace: &TraceFile) -> String {
    let errors: Vec<&Record> = trace.of_kind("error").collect();
    if errors.is_empty() {
        return String::new();
    }
    let mut out = format!("last errors ({} total):\n", errors.len());
    for r in errors.iter().rev().take(LAST_ERRORS) {
        out.push_str(&format!(
            "  seq {}  {}  request_id={}  conn={}\n",
            r.seq.unwrap_or(0),
            r.name,
            r.request_id.as_deref().unwrap_or("-"),
            r.conn.map_or("-".to_string(), |c| c.to_string()),
        ));
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
            let events: Vec<&Record> = trace.of_kind("event").collect();
            assert_eq!(events.len(), 1);
            assert_eq!(events[0].field("x"), Some(1.5));
            let paths: Vec<&str> = trace.of_kind("span").map(|r| r.name.as_str()).collect();
            assert!(paths.contains(&"outer"));
            assert!(paths.contains(&"outer/inner"));
            assert_eq!(field_str(&trace.meta, "command"), Some("test"));
            let _ = std::fs::remove_file(&path);
        });
    }

    #[test]
    fn collapse_and_summary_attribute_self_time() {
        let span = |name: &str, dur_ns| Record {
            kind: "span".into(),
            name: name.into(),
            dur_ns,
            ..Record::default()
        };
        let records =
            vec![span("fit", 10_000_000), span("fit/assign", 6_000_000), span("fit/assign", 2_000_000)];
        let trace = TraceFile { records, ..TraceFile::default() };
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
        std::fs::write(&path, "{\"type\":\"meta\",\"schema\":\"multiclust-trace/v2\"}\nnot json\n").unwrap();
        let err = read_trace(&path).unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        // An empty file, or one that opens with anything but the schema
        // line, fails on line 1.
        for text in ["", "{\"type\":\"span\",\"path\":\"fit\",\"ns\":1}\n"] {
            std::fs::write(&path, text).unwrap();
            let err = read_trace(&path).unwrap_err();
            assert!(err.starts_with("line 1: "), "{err}");
        }
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
                "{\"type\":\"meta\",\"schema\":\"multiclust-trace/v2\"}\n",
                "{\"type\":\"span\",\"path\":\"fit\",\"ns\":1000}\n",
                "{\"type\":\"snapshot\",\"alloc\":{\"paths\":{\"fit\":{\"count\":3,\"bytes\":4096,\"peak\":2048}}}}\n",
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
            assert_eq!(trace.of_kind("event").count(), crate::MAX_EVENTS + 10);
            assert_eq!(trace.events_dropped, 10);
            let _ = std::fs::remove_file(&path);
        });
    }
}
