//! Flight recorder: an always-on, fixed-capacity ring buffer of recent
//! spans, events and errors, dumped on demand as a
//! [`multiclust-trace/v2`](crate::trace) file for post-mortem forensics.
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
//! ## Dump
//!
//! The producer `meta` line carries `source`, the per-thread `capacity`,
//! the `segments` merged and the records `overwritten` by wraparound.
//! One `span`, `event` or `error` line per record follows, sorted by the
//! global `seq` and carrying `thread` and `us`; the `end` line counts the
//! `records`. `multiclust trace <file>` reads it back with
//! [`read_trace`](crate::trace::read_trace), like a `--trace` file.

use std::cell::RefCell;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use serde::Value;

use crate::int;
use crate::trace::{Record, Writer};
use crate::Switch;

/// Records retained per thread segment.
pub const DEFAULT_CAPACITY: usize = 256;

/// Fixed byte budget for the record name (span path, event name).
pub const NAME_BYTES: usize = 48;
/// Fixed byte budget for the request id.
pub const REQUEST_BYTES: usize = 48;

const NAME_WORDS: usize = NAME_BYTES / 8;
const REQUEST_WORDS: usize = REQUEST_BYTES / 8;
/// seq, kind, us, conn, dur_ns + the two string regions.
const RECORD_WORDS: usize = 5 + NAME_WORDS + REQUEST_WORDS;

/// Record kinds, stored in word 1 by index.
const KINDS: [&str; 3] = ["span", "event", "error"];
const KIND_SPAN: u64 = 0;
const KIND_EVENT: u64 = 1;
const KIND_ERROR: u64 = 2;

// ---- switch ----------------------------------------------------------------

/// The recorder switch, armed from `MULTICLUST_FLIGHT` by [`crate::init`].
pub(crate) static FLIGHT: Switch = Switch::new();

/// Global record sequence; starts at 1 so 0 can mean "empty slot".
static SEQ: AtomicU64 = AtomicU64::new(1);

/// Bumped by [`set_flight`] so thread-local segment caches re-register
/// instead of writing into a discarded segment table.
static EPOCH: AtomicU64 = AtomicU64::new(0);

/// All segments ever registered this epoch, by segment id. Dump reads
/// them; exited threads leave their segment (and its records) behind.
static SEGMENTS: Mutex<Vec<Arc<Segment>>> = Mutex::new(Vec::new());

/// Segment ids whose owning thread has exited, available for reuse so a
/// churn of short-lived handler threads doesn't grow the table unboundedly.
static FREE: Mutex<Vec<usize>> = Mutex::new(Vec::new());

/// Recorder epoch start; record timestamps are microseconds since this.
static START: OnceLock<Instant> = OnceLock::new();

/// Whether the flight recorder is recording (one relaxed load).
#[inline]
pub fn flight_enabled() -> bool {
    FLIGHT.get()
}

/// Turns the recorder on or off, overriding the environment, and
/// discards all recorded data: a fresh epoch starts, and threads
/// re-register their segments lazily on the next record.
pub fn set_flight(on: bool) {
    FLIGHT.set(on);
    EPOCH.fetch_add(1, Ordering::Relaxed);
    SEGMENTS.lock().unwrap_or_else(|p| p.into_inner()).clear();
    FREE.lock().unwrap_or_else(|p| p.into_inner()).clear();
    SEQ.store(1, Ordering::Relaxed);
}

// ---- per-thread segments ---------------------------------------------------

/// One thread's ring: [`DEFAULT_CAPACITY`] fixed-size records of
/// [`RECORD_WORDS`] atomic words each. Only the owning thread writes;
/// dumps read concurrently.
struct Segment {
    /// Monotonic write count; slot = head % capacity, overwritten =
    /// head - capacity.
    head: AtomicU64,
    words: Box<[AtomicU64]>,
}

impl Segment {
    fn new() -> Self {
        let words = (0..DEFAULT_CAPACITY * RECORD_WORDS).map(|_| AtomicU64::new(0)).collect();
        Self { head: AtomicU64::new(0), words }
    }

    /// Lock-free, allocation-free record write. The seq word is zeroed
    /// first and stored last (`Release`) so a racing dump treats an
    /// in-flight slot as empty rather than reading torn strings.
    fn write(&self, kind: u64, us: u64, conn: u64, dur_ns: u64, name: &str, request: &str) {
        let slot = (self.head.fetch_add(1, Ordering::Relaxed) as usize) % DEFAULT_CAPACITY;
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
    let mut segments = SEGMENTS.lock().unwrap_or_else(|p| p.into_inner());
    let reused = FREE.lock().unwrap_or_else(|p| p.into_inner()).pop();
    let id = match reused {
        Some(id) if id < segments.len() => id,
        _ => {
            segments.push(Arc::new(Segment::new()));
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
        if slot.as_ref().is_none_or(|h| h.epoch != epoch) {
            *slot = register(epoch);
        }
        let Some(handle) = slot.as_ref() else { return };
        // The context is borrowed for the write, never copied: the record
        // path stays allocation-free inside a request.
        let write = |ctx: Option<&(String, u64)>| {
            let conn = ctx.map_or(0, |(_, c)| *c);
            // An explicit request id wins but still picks up the context's conn.
            let req = request.unwrap_or_else(|| ctx.map_or("", |(r, _)| r.as_str()));
            handle.seg.write(kind, us, conn, dur_ns, name, req);
        };
        if CONTEXT.try_with(|c| write(c.borrow().as_ref())).is_err() {
            write(None);
        }
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

/// Writes the ring's records, merged across segments in `seq` order, as
/// a telemetry file to `out`. Returns `None` when the recorder is
/// disabled, else the output, the record count and the write failures.
/// Safe to call while other threads record: in-flight slots read as
/// empty, not as garbage.
fn dump<W: Write>(out: W) -> Option<(W, u64, u64)> {
    if !flight_enabled() {
        return None;
    }
    let segments: Vec<Arc<Segment>> =
        SEGMENTS.lock().unwrap_or_else(|p| p.into_inner()).clone();
    let mut records = Vec::new();
    let mut overwritten = 0u64;
    for (thread, seg) in segments.iter().enumerate() {
        overwritten += seg.head.load(Ordering::Relaxed).saturating_sub(DEFAULT_CAPACITY as u64);
        for w in seg.words.chunks(RECORD_WORDS) {
            let seq = w[0].load(Ordering::Acquire);
            if seq == 0 {
                continue;
            }
            let request = load_str(&w[5 + NAME_WORDS..]);
            let conn = w[3].load(Ordering::Relaxed);
            records.push(Record {
                seq: Some(seq),
                thread: Some(thread as u64),
                kind: KINDS[w[1].load(Ordering::Relaxed) as usize].to_string(),
                us: Some(w[2].load(Ordering::Relaxed)),
                dur_ns: w[4].load(Ordering::Relaxed),
                name: load_str(&w[5..5 + NAME_WORDS]),
                request_id: (!request.is_empty()).then_some(request),
                conn: (conn != 0).then_some(conn),
                fields: None,
            });
        }
    }
    records.sort_by_key(|r| r.seq);
    let count = records.len() as u64;
    let meta = vec![
        ("source".into(), Value::String("flight".into())),
        ("capacity".into(), int(DEFAULT_CAPACITY as u64)),
        ("segments".into(), int(segments.len() as u64)),
        ("overwritten".into(), int(overwritten)),
    ];
    let mut writer = Writer::new(out, meta);
    for r in records {
        writer.record(r);
    }
    let (out, errors) = writer.finish(vec![("records".into(), int(count))]);
    Some((out, count, errors))
}

/// The current ring contents as telemetry-file text; `None` when the
/// recorder is disabled.
pub fn dump_to_string() -> Option<String> {
    let (bytes, _, _) = dump(Vec::new())?;
    Some(String::from_utf8(bytes).expect("serialized JSON is UTF-8"))
}

/// Dumps the ring to `path`, returning the record count. `Ok(None)` means
/// the recorder is disabled and nothing was written.
pub fn dump_to_file(path: &Path) -> std::io::Result<Option<u64>> {
    if !flight_enabled() {
        return Ok(None);
    }
    match dump(BufWriter::new(File::create(path)?)) {
        Some((_, _, errors)) if errors > 0 => {
            Err(std::io::Error::other(format!("{errors} failed writes")))
        }
        Some((_, records, _)) => Ok(Some(records)),
        None => Ok(None),
    }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{read_trace, TRACE_SCHEMA};

    /// Flight state is process-global and shared with the lib tests'
    /// span-recording; serialize on the crate-wide lock.
    fn serialized<T>(f: impl FnOnce() -> T) -> T {
        let _guard = crate::TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        set_flight(true);
        clear_request();
        let out = f();
        clear_request();
        set_flight(true);
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
            record_event("kmeans.done");
            clear_request();
            record_error("internal", Some("req-43"));
            let path = tmp("roundtrip.jsonl");
            let records = dump_to_file(&path).unwrap().unwrap();
            assert_eq!(records, 3);
            let flight = read_trace(&path).unwrap();
            assert_eq!(flight.schema.as_deref(), Some(TRACE_SCHEMA));
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
            let text = crate::trace::last_errors(&flight);
            assert!(text.contains("seq 3  internal  request_id=req-43  conn=-"), "{text}");
            let _ = std::fs::remove_file(&path);
        });
    }

    #[test]
    fn records_inside_a_request_do_not_allocate() {
        use crate::alloc::{alloc_by_path, set_alloc_enabled, set_current_slot, swap_current_slot};
        serialized(|| {
            // Segment registration allocates, once per thread: do it first.
            record_span("warm-up", 1);
            set_request("req-7", 3);
            set_alloc_enabled(true);
            let prev = swap_current_slot(crate::alloc::slot_for_path("test.flight.record"));
            for i in 0..100 {
                record_span("serve.fit", i);
            }
            set_current_slot(prev);
            clear_request();
            let charged = alloc_by_path()
                .into_iter()
                .find(|(path, _)| path == "test.flight.record")
                .map_or(0, |(_, stat)| stat.count);
            set_alloc_enabled(false);
            crate::alloc::reset_alloc();
            assert_eq!(charged, 0, "allocations charged to the record path");
        });
    }

    #[test]
    fn wraparound_keeps_the_most_recent_records_in_order() {
        serialized(|| {
            let extra = 5;
            for i in 0..DEFAULT_CAPACITY + extra {
                record_event(&format!("e{i}"));
            }
            let dump = dump_to_string().unwrap();
            let path = tmp("wrap.jsonl");
            std::fs::write(&path, &dump).unwrap();
            let flight = read_trace(&path).unwrap();
            assert_eq!(flight.records.len(), DEFAULT_CAPACITY);
            assert_eq!(flight.meta_u64("overwritten"), Some(extra as u64));
            let names: Vec<&str> =
                flight.records.iter().map(|r| r.name.as_str()).collect();
            let expected: Vec<String> =
                (extra..DEFAULT_CAPACITY + extra).map(|i| format!("e{i}")).collect();
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
            set_flight(false);
            record_span("ignored", 1);
            assert!(dump_to_string().is_none());
            assert!(dump_to_file(&tmp("none.jsonl")).unwrap().is_none());
            set_flight(true);
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
            let flight = read_trace(&path).unwrap();
            assert_eq!(flight.records[0].name, "x".repeat(NAME_BYTES));
            assert_eq!(
                flight.records[0].request_id.as_deref(),
                Some("r".repeat(REQUEST_BYTES).as_str())
            );
            let _ = std::fs::remove_file(&path);
        });
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
            let flight = read_trace(&path).unwrap();
            assert_eq!(flight.records.len(), 4);
            assert!(
                flight.meta_u64("segments").unwrap_or(0) >= 2,
                "workers must get their own segments"
            );
            let _ = std::fs::remove_file(&path);
        });
    }
}
