//! Flight recorder: an always-on, fixed-capacity ring buffer of recent
//! spans, events and errors, dumped on demand as `multiclust-flight/v1`
//! JSONL for post-mortem forensics.
//!
//! ## Why a second record of the same data?
//!
//! The trace sink (`--trace`) is opt-in and unbounded; nobody has it on
//! when a resident server hits its first `internal` error at 3am. The
//! flight recorder inverts both properties: it is **on by default**,
//! holds only the most recent [`DEFAULT_CAPACITY`] records per thread
//! (older ones are overwritten, and the overwrite count is reported), and
//! costs nothing until something asks for a dump.
//!
//! ## Overhead policy
//!
//! The same discipline as [`crate::alloc`]: disabling the recorder
//! (`MULTICLUST_FLIGHT=0`) reduces every record call to a single relaxed
//! atomic load. The record path itself is lock-free and allocation-free:
//! a slot is claimed with one `fetch_add` on the owning thread's segment,
//! payload words are relaxed stores, and the record's sequence word is
//! stored last with `Release` so a concurrent dump never reads a
//! half-written slot as valid. Strings are truncated to fit fixed-size
//! regions ([`NAME_BYTES`] / [`REQUEST_BYTES`]) rather than allocated.
//!
//! ## Determinism contract
//!
//! Recording never consumes randomness, never takes a lock on the hot
//! path and never touches stdout; process output is byte-identical with
//! the recorder on or off (gated in `scripts/check.sh`).
//!
//! ## Correlation context
//!
//! [`set_request`] installs a `request_id`/`conn_id` pair as the calling
//! thread's context; every record made until [`clear_request`] carries
//! it. The serve layer sets this per request, which is what lets one id
//! join a client-observed latency to its server-side span, allocation
//! attribution and flight records.
//!
//! ## Dump format
//!
//! ```text
//! {"type":"meta","schema":"multiclust-flight/v1","capacity":256,"segments":2}
//! {"type":"record","seq":7,"thread":0,"kind":"span","us":1042,"dur_ns":83120,
//!  "name":"serve.fit","request_id":"t3","conn":2}
//! {"type":"end","records":41,"overwritten":0}
//! ```
//!
//! Records are merged across per-thread segments and sorted by the global
//! sequence number; `request_id`/`conn` are `null` for records made
//! outside any request context. `multiclust flight <file>` reads this
//! back ([`read_flight`] / [`summary`]).

use std::cell::RefCell;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use serde::Value;

use crate::{field_str, field_u64};

/// Schema identifier on the first line of every flight dump.
pub const FLIGHT_SCHEMA: &str = "multiclust-flight/v1";

/// Records retained per thread segment when `MULTICLUST_FLIGHT` is unset.
pub const DEFAULT_CAPACITY: usize = 256;

/// Capacity clamp: below this the ring is useless, above it the per-thread
/// footprint stops being "negligible".
const MIN_CAPACITY: usize = 16;
const MAX_CAPACITY: usize = 1 << 16;

/// Fixed byte budget for the record name (span path, event name).
pub const NAME_BYTES: usize = 48;
/// Fixed byte budget for the request id.
pub const REQUEST_BYTES: usize = 48;

const NAME_WORDS: usize = NAME_BYTES / 8;
const REQUEST_WORDS: usize = REQUEST_BYTES / 8;
/// seq, kind, us, conn, dur_ns + the two string regions.
const RECORD_WORDS: usize = 5 + NAME_WORDS + REQUEST_WORDS;

/// Record kinds (word 1).
const KIND_SPAN: u64 = 1;
const KIND_EVENT: u64 = 2;
const KIND_ERROR: u64 = 3;

// ---- switch ----------------------------------------------------------------

/// 0 = uninitialised (read env on first use), 1 = off, 2 = on.
static FLIGHT_STATE: AtomicU8 = AtomicU8::new(0);

/// Per-thread ring capacity (records). Read at segment registration, so a
/// change applies to segments created afterwards.
static CAPACITY: AtomicUsize = AtomicUsize::new(DEFAULT_CAPACITY);

/// Global record sequence; starts at 1 so 0 can mean "empty slot".
static SEQ: AtomicU64 = AtomicU64::new(1);

/// Bumped by [`reset_flight`] / [`set_flight`] so thread-local segment
/// caches re-register instead of writing into a discarded segment table.
static EPOCH: AtomicU64 = AtomicU64::new(0);

/// All segments ever registered this epoch, by segment id. Dump reads
/// them; exited threads leave their segment (and its records) behind.
static SEGMENTS: Mutex<Vec<Arc<Segment>>> = Mutex::new(Vec::new());

/// Segment ids whose owning thread has exited, available for reuse so a
/// churn of short-lived handler threads doesn't grow the table unboundedly.
static FREE: Mutex<Vec<usize>> = Mutex::new(Vec::new());

/// Recorder epoch start; record timestamps are microseconds since this.
static START: OnceLock<Instant> = OnceLock::new();

/// Whether the flight recorder is recording (one relaxed load; the first
/// call reads `MULTICLUST_FLIGHT` once).
#[inline]
pub fn flight_enabled() -> bool {
    match FLIGHT_STATE.load(Ordering::Relaxed) {
        2 => true,
        1 => false,
        _ => init_from_env(),
    }
}

#[cold]
fn init_from_env() -> bool {
    // Unset means ON at the default capacity — the recorder exists for
    // the failure nobody anticipated. `0`/`off`/`false` disables; a
    // number sets the per-thread capacity.
    let (on, capacity) = match std::env::var("MULTICLUST_FLIGHT") {
        Err(_) => (true, DEFAULT_CAPACITY),
        Ok(v) => {
            let v = v.trim().to_ascii_lowercase();
            if v.is_empty() {
                (true, DEFAULT_CAPACITY)
            } else if v == "0" || v == "off" || v == "false" {
                (false, DEFAULT_CAPACITY)
            } else {
                match v.parse::<usize>() {
                    Ok(n) => (true, n.clamp(MIN_CAPACITY, MAX_CAPACITY)),
                    Err(_) => (true, DEFAULT_CAPACITY),
                }
            }
        }
    };
    CAPACITY.store(capacity, Ordering::Relaxed);
    // Only flip from "uninitialised" so a racing `set_flight` wins.
    let _ = FLIGHT_STATE.compare_exchange(
        0,
        if on { 2 } else { 1 },
        Ordering::Relaxed,
        Ordering::Relaxed,
    );
    FLIGHT_STATE.load(Ordering::Relaxed) == 2
}

/// Turns the recorder on (at `capacity` records per thread) or off,
/// overriding the environment. Existing records are discarded — segments
/// registered under the old capacity must not be mixed with new ones.
pub fn set_flight(capacity: Option<usize>) {
    match capacity {
        None => FLIGHT_STATE.store(1, Ordering::Relaxed),
        Some(n) => {
            CAPACITY.store(n.clamp(MIN_CAPACITY, MAX_CAPACITY), Ordering::Relaxed);
            FLIGHT_STATE.store(2, Ordering::Relaxed);
        }
    }
    reset_flight();
}

/// Discards all recorded flight data and starts a fresh epoch. Threads
/// re-register their segments lazily on the next record.
pub fn reset_flight() {
    EPOCH.fetch_add(1, Ordering::Relaxed);
    SEGMENTS.lock().unwrap_or_else(|p| p.into_inner()).clear();
    FREE.lock().unwrap_or_else(|p| p.into_inner()).clear();
    SEQ.store(1, Ordering::Relaxed);
}

// ---- per-thread segments ---------------------------------------------------

/// One thread's ring: `cap` fixed-size records of [`RECORD_WORDS`] atomic
/// words each. Only the owning thread writes; dumps read concurrently.
struct Segment {
    /// Monotonic write count; slot = head % cap, overwritten = head - cap.
    head: AtomicU64,
    cap: usize,
    words: Box<[AtomicU64]>,
}

impl Segment {
    fn new(cap: usize) -> Self {
        let words = (0..cap * RECORD_WORDS).map(|_| AtomicU64::new(0)).collect();
        Self { head: AtomicU64::new(0), cap, words }
    }

    /// Lock-free, allocation-free record write. The seq word is zeroed
    /// first and stored last (`Release`) so a racing dump treats an
    /// in-flight slot as empty rather than reading torn strings.
    fn write(&self, kind: u64, us: u64, conn: u64, dur_ns: u64, name: &str, request: &str) {
        let slot = (self.head.fetch_add(1, Ordering::Relaxed) as usize) % self.cap;
        let w = &self.words[slot * RECORD_WORDS..(slot + 1) * RECORD_WORDS];
        let seq = SEQ.fetch_add(1, Ordering::Relaxed);
        w[0].store(0, Ordering::Release);
        w[1].store(kind, Ordering::Relaxed);
        w[2].store(us, Ordering::Relaxed);
        w[3].store(conn, Ordering::Relaxed);
        w[4].store(dur_ns, Ordering::Relaxed);
        store_str(&w[5..5 + NAME_WORDS], name);
        store_str(&w[5 + NAME_WORDS..], request);
        w[0].store(seq, Ordering::Release);
    }
}

/// Packs a string into a fixed atomic-word region, little-endian,
/// NUL-padded, truncated to the region's byte budget.
fn store_str(words: &[AtomicU64], s: &str) {
    let bytes = s.as_bytes();
    for (i, w) in words.iter().enumerate() {
        let mut packed = 0u64;
        for j in 0..8 {
            if let Some(&b) = bytes.get(i * 8 + j) {
                packed |= u64::from(b) << (8 * j);
            }
        }
        w.store(packed, Ordering::Relaxed);
    }
}

/// Unpacks a fixed atomic-word string region back to a `String` (lossy:
/// truncation can split a UTF-8 sequence).
fn load_str(words: &[AtomicU64]) -> String {
    let mut bytes = Vec::with_capacity(words.len() * 8);
    for w in words {
        let packed = w.load(Ordering::Relaxed);
        for j in 0..8 {
            bytes.push((packed >> (8 * j)) as u8);
        }
    }
    let len = bytes.iter().position(|&b| b == 0).unwrap_or(bytes.len());
    bytes.truncate(len);
    String::from_utf8_lossy(&bytes).into_owned()
}

/// The thread's cached segment; returning the id to the free list on
/// thread exit keeps the table bounded by peak thread concurrency.
struct Handle {
    epoch: u64,
    id: usize,
    seg: Arc<Segment>,
}

impl Drop for Handle {
    fn drop(&mut self) {
        if self.epoch == EPOCH.load(Ordering::Relaxed) {
            FREE.lock().unwrap_or_else(|p| p.into_inner()).push(self.id);
        }
    }
}

thread_local! {
    static SEGMENT: RefCell<Option<Handle>> = const { RefCell::new(None) };
    /// The request/connection pair records on this thread are tagged with.
    static CONTEXT: RefCell<Option<(String, u64)>> = const { RefCell::new(None) };
}

/// Registers (or reuses) a segment for the calling thread. Cold: once per
/// thread per epoch; allocation and the table lock are fine here.
#[cold]
fn register(epoch: u64) -> Option<Handle> {
    let cap = CAPACITY.load(Ordering::Relaxed);
    let mut segments = SEGMENTS.lock().unwrap_or_else(|p| p.into_inner());
    let reused = FREE.lock().unwrap_or_else(|p| p.into_inner()).pop();
    let id = match reused {
        Some(id) if id < segments.len() && segments[id].cap == cap => id,
        _ => {
            segments.push(Arc::new(Segment::new(cap)));
            segments.len() - 1
        }
    };
    Some(Handle { epoch, id, seg: Arc::clone(&segments[id]) })
}

fn micros_now() -> u64 {
    u64::try_from(START.get_or_init(Instant::now).elapsed().as_micros()).unwrap_or(u64::MAX)
}

// ---- recording -------------------------------------------------------------

fn record(kind: u64, name: &str, request: Option<&str>, dur_ns: u64) {
    if !flight_enabled() {
        return;
    }
    let us = micros_now();
    // `try_with` so a record during TLS teardown is dropped, not a panic.
    let _ = SEGMENT.try_with(|slot| {
        let mut slot = slot.borrow_mut();
        let epoch = EPOCH.load(Ordering::Relaxed);
        if slot.as_ref().map_or(true, |h| h.epoch != epoch) {
            *slot = register(epoch);
        }
        let Some(handle) = slot.as_ref() else { return };
        let ctx = CONTEXT.try_with(|c| c.borrow().clone()).ok().flatten();
        let conn = ctx.as_ref().map_or(0, |(_, c)| *c);
        // An explicit request id wins but still picks up the context's conn.
        let req = request.unwrap_or_else(|| ctx.as_ref().map_or("", |(r, _)| r.as_str()));
        handle.seg.write(kind, us, conn, dur_ns, name, req);
    });
}

/// Records a completed span (called from the span guard's drop).
pub fn record_span(path: &str, ns: u64) {
    record(KIND_SPAN, path, None, ns);
}

/// Records a point event.
pub fn record_event(name: &str) {
    record(KIND_EVENT, name, None, 0);
}

/// Records an error. `request` overrides the thread context's request id
/// (e.g. when the context has already been cleared on the error path).
pub fn record_error(name: &str, request: Option<&str>) {
    record(KIND_ERROR, name, request, 0);
}

// ---- correlation context ---------------------------------------------------

/// Installs `request_id`/`conn` as the calling thread's correlation
/// context: every flight record and trace span line made on this thread
/// carries the pair until [`clear_request`].
pub fn set_request(request_id: &str, conn: u64) {
    let _ = CONTEXT.try_with(|c| *c.borrow_mut() = Some((request_id.to_string(), conn)));
}

/// Clears the thread's correlation context.
pub fn clear_request() {
    let _ = CONTEXT.try_with(|c| *c.borrow_mut() = None);
}

/// The thread's current correlation context, if any.
pub fn current_request() -> Option<(String, u64)> {
    CONTEXT.try_with(|c| c.borrow().clone()).ok().flatten()
}

// ---- dumping ---------------------------------------------------------------

fn kind_name(kind: u64) -> &'static str {
    match kind {
        KIND_SPAN => "span",
        KIND_EVENT => "event",
        KIND_ERROR => "error",
        _ => "unknown",
    }
}

struct DumpedRecord {
    seq: u64,
    thread: usize,
    kind: u64,
    us: u64,
    conn: u64,
    dur_ns: u64,
    name: String,
    request: String,
}

/// Serializes the current ring contents as `multiclust-flight/v1` JSONL.
/// Returns `None` when the recorder is disabled. Safe to call while other
/// threads record: in-flight slots read as empty, not as garbage.
pub fn dump_to_string() -> Option<String> {
    if !flight_enabled() {
        return None;
    }
    let segments: Vec<Arc<Segment>> =
        SEGMENTS.lock().unwrap_or_else(|p| p.into_inner()).clone();
    let mut records = Vec::new();
    let mut overwritten = 0u64;
    for (thread, seg) in segments.iter().enumerate() {
        overwritten += seg.head.load(Ordering::Relaxed).saturating_sub(seg.cap as u64);
        for slot in 0..seg.cap {
            let w = &seg.words[slot * RECORD_WORDS..(slot + 1) * RECORD_WORDS];
            let seq = w[0].load(Ordering::Acquire);
            if seq == 0 {
                continue;
            }
            records.push(DumpedRecord {
                seq,
                thread,
                kind: w[1].load(Ordering::Relaxed),
                us: w[2].load(Ordering::Relaxed),
                conn: w[3].load(Ordering::Relaxed),
                dur_ns: w[4].load(Ordering::Relaxed),
                name: load_str(&w[5..5 + NAME_WORDS]),
                request: load_str(&w[5 + NAME_WORDS..]),
            });
        }
    }
    records.sort_by_key(|r| r.seq);
    let mut out = String::new();
    let meta = Value::Object(vec![
        ("type".into(), Value::String("meta".into())),
        ("schema".into(), Value::String(FLIGHT_SCHEMA.into())),
        ("capacity".into(), crate::int(CAPACITY.load(Ordering::Relaxed) as u64)),
        ("segments".into(), crate::int(segments.len() as u64)),
    ]);
    out.push_str(&serde_json::to_string(&meta).expect("infallible"));
    out.push('\n');
    for r in &records {
        let request = if r.request.is_empty() {
            Value::Null
        } else {
            Value::String(r.request.clone())
        };
        let conn = if r.conn == 0 { Value::Null } else { crate::int(r.conn) };
        let line = Value::Object(vec![
            ("type".into(), Value::String("record".into())),
            ("seq".into(), crate::int(r.seq)),
            ("thread".into(), crate::int(r.thread as u64)),
            ("kind".into(), Value::String(kind_name(r.kind).into())),
            ("us".into(), crate::int(r.us)),
            ("dur_ns".into(), crate::int(r.dur_ns)),
            ("name".into(), Value::String(r.name.clone())),
            ("request_id".into(), request),
            ("conn".into(), conn),
        ]);
        out.push_str(&serde_json::to_string(&line).expect("infallible"));
        out.push('\n');
    }
    let end = Value::Object(vec![
        ("type".into(), Value::String("end".into())),
        ("records".into(), crate::int(records.len() as u64)),
        ("overwritten".into(), crate::int(overwritten)),
    ]);
    out.push_str(&serde_json::to_string(&end).expect("infallible"));
    out.push('\n');
    Some(out)
}

/// Dumps the ring to `path`, returning the record count. `Ok(None)` means
/// the recorder is disabled and nothing was written.
pub fn dump_to_file(path: &Path) -> std::io::Result<Option<u64>> {
    let Some(text) = dump_to_string() else {
        return Ok(None);
    };
    let records = text.lines().count().saturating_sub(2) as u64;
    let mut file = std::fs::File::create(path)?;
    file.write_all(text.as_bytes())?;
    file.flush()?;
    Ok(Some(records))
}

/// Where an automatic dump lands: `$MULTICLUST_FLIGHT_DIR` (if set) or
/// the system temp dir, named by pid and `tag` so concurrent processes
/// don't clobber each other.
pub fn default_dump_path(tag: &str) -> PathBuf {
    let dir = std::env::var("MULTICLUST_FLIGHT_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| std::env::temp_dir());
    dir.join(format!("multiclust-flight-{}-{tag}.jsonl", std::process::id()))
}

// ---- reading ---------------------------------------------------------------

/// One parsed flight record.
#[derive(Clone, Debug, PartialEq)]
pub struct FlightRecord {
    /// Global sequence number (merge order across threads).
    pub seq: u64,
    /// Segment id of the recording thread.
    pub thread: u64,
    /// `"span"`, `"event"` or `"error"`.
    pub kind: String,
    /// Microseconds since the recorder's first record.
    pub us: u64,
    /// Span duration in nanoseconds (0 for events/errors).
    pub dur_ns: u64,
    /// Span path, event name or error label.
    pub name: String,
    /// Correlated request id, if the record was made inside a request.
    pub request_id: Option<String>,
    /// Correlated connection id.
    pub conn: Option<u64>,
}

/// A parsed `multiclust-flight/v1` dump.
#[derive(Debug, Default)]
pub struct FlightFile {
    /// Schema identifier from the meta line.
    pub schema: Option<String>,
    /// Per-thread ring capacity at dump time.
    pub capacity: u64,
    /// Thread segments merged into the dump.
    pub segments: u64,
    /// Records in sequence order.
    pub records: Vec<FlightRecord>,
    /// Records lost to ring wraparound before the dump.
    pub overwritten: u64,
    /// Whether the `end` line was present.
    pub ended: bool,
}

/// Parses a `multiclust-flight/v1` JSONL dump; the error carries the
/// 1-based line number of the first offence.
pub fn read_flight(path: &Path) -> Result<FlightFile, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("opening {}: {e}", path.display()))?;
    let mut out = FlightFile::default();
    let mut lines = 0usize;
    for (idx, line) in text.lines().enumerate() {
        let lineno = idx + 1;
        if line.trim().is_empty() {
            continue;
        }
        lines += 1;
        let value: Value = serde_json::from_str(line)
            .map_err(|e| format!("line {lineno}: invalid JSON: {e}"))?;
        let Value::Object(obj) = value else {
            return Err(format!("line {lineno}: expected a JSON object"));
        };
        let ty = field_str(&obj, "type")
            .ok_or_else(|| format!("line {lineno}: missing \"type\""))?;
        match ty {
            "meta" => {
                if out.schema.is_none() {
                    out.schema = field_str(&obj, "schema").map(String::from);
                }
                out.capacity = field_u64(&obj, "capacity").unwrap_or(0);
                out.segments = field_u64(&obj, "segments").unwrap_or(0);
            }
            "record" => {
                let name = field_str(&obj, "name")
                    .ok_or_else(|| format!("line {lineno}: record without \"name\""))?;
                let kind = field_str(&obj, "kind")
                    .ok_or_else(|| format!("line {lineno}: record without \"kind\""))?;
                out.records.push(FlightRecord {
                    seq: field_u64(&obj, "seq").unwrap_or(0),
                    thread: field_u64(&obj, "thread").unwrap_or(0),
                    kind: kind.to_string(),
                    us: field_u64(&obj, "us").unwrap_or(0),
                    dur_ns: field_u64(&obj, "dur_ns").unwrap_or(0),
                    name: name.to_string(),
                    request_id: field_str(&obj, "request_id").map(String::from),
                    conn: field_u64(&obj, "conn"),
                });
            }
            "end" => {
                out.ended = true;
                out.overwritten = field_u64(&obj, "overwritten").unwrap_or(0);
            }
            other => return Err(format!("line {lineno}: unknown line type {other:?}")),
        }
    }
    if lines == 0 {
        return Err(format!("{}: empty flight dump", path.display()));
    }
    match &out.schema {
        None => Err("missing schema meta line".to_string()),
        Some(s) if s != FLIGHT_SCHEMA => {
            Err(format!("unsupported schema {s:?} (expected {FLIGHT_SCHEMA:?})"))
        }
        Some(_) => Ok(out),
    }
}

/// Human-readable digest of a dump: record counts by kind, the hottest
/// names, and the most recent errors with their request ids — the first
/// thing to read after an auto-dump names a file.
pub fn summary(flight: &FlightFile) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "flight dump: {} records from {} thread segments (capacity {}/thread, {} overwritten{})",
        flight.records.len(),
        flight.segments,
        flight.capacity,
        flight.overwritten,
        if flight.ended { "" } else { "; NO end line — truncated dump" },
    );
    let mut by_kind: std::collections::BTreeMap<&str, u64> = std::collections::BTreeMap::new();
    let mut by_name: std::collections::BTreeMap<&str, (u64, u64)> =
        std::collections::BTreeMap::new();
    for r in &flight.records {
        *by_kind.entry(r.kind.as_str()).or_insert(0) += 1;
        let e = by_name.entry(r.name.as_str()).or_insert((0, 0));
        e.0 += 1;
        e.1 += r.dur_ns;
    }
    if !by_kind.is_empty() {
        let kinds: Vec<String> =
            by_kind.iter().map(|(k, n)| format!("{k} {n}")).collect();
        let _ = writeln!(out, "kinds: {}", kinds.join(", "));
    }
    if !by_name.is_empty() {
        out.push_str("names (name  count  total_ms):\n");
        for (name, (count, total_ns)) in &by_name {
            let _ = writeln!(out, "  {name}  {count}  {:.3}", *total_ns as f64 / 1e6);
        }
    }
    let errors: Vec<&FlightRecord> =
        flight.records.iter().filter(|r| r.kind == "error").collect();
    if !errors.is_empty() {
        let _ = writeln!(out, "last errors ({} total):", errors.len());
        for r in errors.iter().rev().take(8) {
            let _ = writeln!(
                out,
                "  seq {}  {}  request_id={}  conn={}",
                r.seq,
                r.name,
                r.request_id.as_deref().unwrap_or("-"),
                r.conn.map_or("-".to_string(), |c| c.to_string()),
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Flight state is process-global and shared with the lib tests'
    /// span-recording; serialize on the crate-wide lock.
    fn serialized<T>(f: impl FnOnce() -> T) -> T {
        let _guard = crate::TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        set_flight(Some(MIN_CAPACITY));
        clear_request();
        let out = f();
        clear_request();
        set_flight(Some(DEFAULT_CAPACITY));
        out
    }

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "multiclust-flight-test-{}-{name}",
            std::process::id()
        ))
    }

    #[test]
    fn records_round_trip_through_a_dump() {
        serialized(|| {
            set_request("req-42", 7);
            record_span("serve.fit", 1234);
            record_event("serve.chaos.dropped");
            clear_request();
            record_error("internal", Some("req-43"));
            let path = tmp("roundtrip.jsonl");
            let records = dump_to_file(&path).unwrap().unwrap();
            assert_eq!(records, 3);
            let flight = read_flight(&path).unwrap();
            assert_eq!(flight.schema.as_deref(), Some(FLIGHT_SCHEMA));
            assert!(flight.ended);
            assert_eq!(flight.records.len(), 3);
            let span = &flight.records[0];
            assert_eq!(span.kind, "span");
            assert_eq!(span.name, "serve.fit");
            assert_eq!(span.dur_ns, 1234);
            assert_eq!(span.request_id.as_deref(), Some("req-42"));
            assert_eq!(span.conn, Some(7));
            assert_eq!(flight.records[1].kind, "event");
            let err = &flight.records[2];
            assert_eq!(err.kind, "error");
            assert_eq!(err.request_id.as_deref(), Some("req-43"));
            assert_eq!(err.conn, None);
            let text = summary(&flight);
            assert!(text.contains("req-43"), "{text}");
            let _ = std::fs::remove_file(&path);
        });
    }

    #[test]
    fn wraparound_keeps_the_most_recent_records_in_order() {
        serialized(|| {
            let extra = 5;
            for i in 0..MIN_CAPACITY + extra {
                record_event(&format!("e{i}"));
            }
            let dump = dump_to_string().unwrap();
            let path = tmp("wrap.jsonl");
            std::fs::write(&path, &dump).unwrap();
            let flight = read_flight(&path).unwrap();
            assert_eq!(flight.records.len(), MIN_CAPACITY);
            assert_eq!(flight.overwritten, extra as u64);
            let names: Vec<&str> =
                flight.records.iter().map(|r| r.name.as_str()).collect();
            let expected: Vec<String> =
                (extra..MIN_CAPACITY + extra).map(|i| format!("e{i}")).collect();
            assert_eq!(names, expected.iter().map(String::as_str).collect::<Vec<_>>());
            for pair in flight.records.windows(2) {
                assert!(pair[0].seq < pair[1].seq, "dump must be seq-sorted");
            }
            let _ = std::fs::remove_file(&path);
        });
    }

    #[test]
    fn disabled_records_nothing_and_dumps_none() {
        serialized(|| {
            set_flight(None);
            record_span("ignored", 1);
            assert!(dump_to_string().is_none());
            assert!(dump_to_file(&tmp("none.jsonl")).unwrap().is_none());
            set_flight(Some(MIN_CAPACITY));
        });
    }

    #[test]
    fn long_names_truncate_instead_of_overflowing() {
        serialized(|| {
            let long = "x".repeat(NAME_BYTES * 2);
            set_request(&"r".repeat(REQUEST_BYTES * 2), 1);
            record_event(&long);
            clear_request();
            let dump = dump_to_string().unwrap();
            let path = tmp("trunc.jsonl");
            std::fs::write(&path, &dump).unwrap();
            let flight = read_flight(&path).unwrap();
            assert_eq!(flight.records[0].name, "x".repeat(NAME_BYTES));
            assert_eq!(
                flight.records[0].request_id.as_deref(),
                Some("r".repeat(REQUEST_BYTES).as_str())
            );
            let _ = std::fs::remove_file(&path);
        });
    }

    #[test]
    fn reader_rejects_wrong_schema_and_garbage() {
        let path = tmp("badschema.jsonl");
        std::fs::write(&path, "{\"type\":\"meta\",\"schema\":\"other/v9\"}\n").unwrap();
        assert!(read_flight(&path).unwrap_err().contains("unsupported schema"));
        std::fs::write(
            &path,
            "{\"type\":\"meta\",\"schema\":\"multiclust-flight/v1\"}\nnope\n",
        )
        .unwrap();
        assert!(read_flight(&path).unwrap_err().contains("line 2"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn threads_get_their_own_segments_and_merge_by_seq() {
        serialized(|| {
            record_event("main-thread");
            std::thread::scope(|s| {
                for t in 0..3 {
                    s.spawn(move || record_event(&format!("worker-{t}")));
                }
            });
            let dump = dump_to_string().unwrap();
            let path = tmp("threads.jsonl");
            std::fs::write(&path, &dump).unwrap();
            let flight = read_flight(&path).unwrap();
            assert_eq!(flight.records.len(), 4);
            assert!(flight.segments >= 2, "workers must get their own segments");
            let _ = std::fs::remove_file(&path);
        });
    }
}
