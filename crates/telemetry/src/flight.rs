//! Flight recorder: an always-on, fixed-capacity ring buffer of recent
//! spans, events and errors, dumped on demand as a
//! [`multiclust-trace/v2`](crate::trace) file for post-mortem forensics.
//!
//! ## Why a second record of the same data?
//!
//! The trace sink (`--trace`) is opt-in and unbounded; nobody has it on
//! when a resident server hits its first `internal` error at 3am. The
//! flight recorder inverts both properties: it is **on by default**,
//! holds only the most recent [`DEFAULT_CAPACITY`] records of the whole
//! process (older ones are overwritten, and the overwrite count is
//! reported), and costs nothing until something asks for a dump.
//!
//! ## Overhead policy
//!
//! The same discipline as [`crate::alloc`]: disabling the recorder
//! (`MULTICLUST_FLIGHT=0`) reduces every record call to a single relaxed
//! atomic load. Switched on, a record is built on the caller's stack —
//! strings truncated at a character boundary into fixed inline regions
//! ([`NAME_BYTES`] / [`REQUEST_BYTES`]), never allocated — and copied
//! into the next slot of one process-wide ring under one mutex. The ring
//! is a static array, so recording never allocates. What the recorder
//! sees is small (a served request records one span plus any error), so
//! the lock is never contended enough to measure.
//!
//! ## Determinism contract
//!
//! Recording never consumes randomness and never touches stdout; process
//! output is byte-identical with the recorder on or off (gated in
//! `scripts/check.sh`).
//!
//! ## Correlation context
//!
//! [`set_request`] installs a `request_id`/`conn_id` pair as the calling
//! thread's context; every record made until [`clear_request`] carries
//! it. The serve layer sets this per request, which is what lets one id
//! join a client-observed latency to its server-side span, allocation
//! attribution and flight records. With telemetry on, a parallel region
//! (`multiclust-parallel`) installs its caller's context in every worker
//! it spawns.
//!
//! ## Dump
//!
//! The producer `meta` line carries `source`, the ring's `capacity` and
//! the records `overwritten` by wraparound. One `span`, `event` or
//! `error` line per surviving record follows, in `seq` (write) order and
//! carrying `us`; the `end` line counts the `records`. The slots are
//! copied out under the lock and written after it is released.
//! `multiclust trace <file>` reads the dump back with
//! [`read_trace`](crate::trace::read_trace), like a `--trace` file.

use std::cell::RefCell;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Instant;

use serde::Value;

use crate::int;
use crate::trace::{Record, Writer};
use crate::Switch;

/// Records the process-wide ring retains.
pub const DEFAULT_CAPACITY: usize = 1024;

/// Fixed byte budget for the record name (span path, event name).
pub const NAME_BYTES: usize = 48;
/// Fixed byte budget for the request id.
pub const REQUEST_BYTES: usize = 48;

/// Record kinds, stored in a slot by index.
const KINDS: [&str; 3] = ["span", "event", "error"];
const KIND_SPAN: u8 = 0;
const KIND_EVENT: u8 = 1;
const KIND_ERROR: u8 = 2;

/// The recorder switch, armed from `MULTICLUST_FLIGHT` by [`crate::init`].
pub(crate) static FLIGHT: Switch = Switch::new();

/// Recorder epoch start; record timestamps are microseconds since this.
static START: OnceLock<Instant> = OnceLock::new();

/// The ring. All-zero at start, so it costs no binary size and no
/// resident memory until slots are written.
static RING: Mutex<Ring> = Mutex::new(Ring { written: 0, slots: [Slot::EMPTY; DEFAULT_CAPACITY] });

thread_local! {
    /// The request/connection pair records on this thread are tagged with.
    static CONTEXT: RefCell<Option<(String, u64)>> = const { RefCell::new(None) };
}

/// A string truncated at a character boundary into `N` inline bytes.
#[derive(Clone, Copy)]
struct Inline<const N: usize> {
    len: u8,
    bytes: [u8; N],
}

impl<const N: usize> Inline<N> {
    const EMPTY: Self = Self { len: 0, bytes: [0; N] };

    fn new(s: &str) -> Self {
        const { assert!(N <= u8::MAX as usize, "the length must fit its u8") };
        let mut len = s.len().min(N);
        while !s.is_char_boundary(len) {
            len -= 1;
        }
        let mut bytes = [0; N];
        bytes[..len].copy_from_slice(&s.as_bytes()[..len]);
        Self { len: len as u8, bytes }
    }

    fn as_str(&self) -> &str {
        std::str::from_utf8(&self.bytes[..usize::from(self.len)])
            .expect("truncated at a character boundary")
    }
}

/// One record. Its `seq` is not stored: it is the slot's write index.
#[derive(Clone, Copy)]
struct Slot {
    kind: u8,
    us: u64,
    conn: u64,
    dur_ns: u64,
    name: Inline<NAME_BYTES>,
    request: Inline<REQUEST_BYTES>,
}

impl Slot {
    const EMPTY: Self =
        Self { kind: 0, us: 0, conn: 0, dur_ns: 0, name: Inline::EMPTY, request: Inline::EMPTY };
}

struct Ring {
    /// Records ever written; record `seq` (1-based) sits in slot
    /// `(seq - 1) % capacity`, and `written - capacity` were overwritten.
    written: u64,
    slots: [Slot; DEFAULT_CAPACITY],
}

/// The ring, locked. A poisoned lock is recovered: no update can leave
/// the ring half-written, since nothing under the lock can panic.
fn ring() -> MutexGuard<'static, Ring> {
    RING.lock().unwrap_or_else(|p| p.into_inner())
}

/// Whether the flight recorder is recording (one relaxed load).
#[inline]
pub fn flight_enabled() -> bool {
    FLIGHT.get()
}

/// Turns the recorder on or off, overriding the environment, and
/// discards all recorded data.
pub fn set_flight(on: bool) {
    FLIGHT.set(on);
    ring().written = 0;
}

fn micros_now() -> u64 {
    u64::try_from(START.get_or_init(Instant::now).elapsed().as_micros()).unwrap_or(u64::MAX)
}

// ---- recording -------------------------------------------------------------

fn record(kind: u8, name: &str, request: Option<&str>, dur_ns: u64) {
    if !flight_enabled() {
        return;
    }
    let us = micros_now();
    // The context is borrowed for the write, never copied: the record
    // path stays allocation-free inside a request.
    let write = |ctx: Option<&(String, u64)>| {
        // An explicit request id wins but still picks up the context's conn.
        let req = request.unwrap_or_else(|| ctx.map_or("", |(r, _)| r.as_str()));
        let slot = Slot {
            kind,
            us,
            conn: ctx.map_or(0, |(_, c)| *c),
            dur_ns,
            name: Inline::new(name),
            request: Inline::new(req),
        };
        let mut ring = ring();
        let i = (ring.written % DEFAULT_CAPACITY as u64) as usize;
        ring.slots[i] = slot;
        ring.written += 1;
    };
    // `try_with` so a record during TLS teardown loses its context, not a panic.
    if CONTEXT.try_with(|c| write(c.borrow().as_ref())).is_err() {
        write(None);
    }
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

/// Writes the ring's records, oldest first, as a telemetry file to
/// `out`. Returns `None` when the recorder is disabled, else the output,
/// the record count and the write failures. Safe to call while other
/// threads record: the surviving slots are copied out under the lock, and
/// the writing happens after it is released.
fn dump<W: Write>(out: W) -> Option<(W, u64, u64)> {
    if !flight_enabled() {
        return None;
    }
    // `first` records were overwritten; the survivors are copied out in
    // write order.
    let (first, slots) = {
        let ring = ring();
        let cap = DEFAULT_CAPACITY as u64;
        let first = ring.written.saturating_sub(cap);
        let slots: Vec<Slot> =
            (first..ring.written).map(|i| ring.slots[(i % cap) as usize]).collect();
        (first, slots)
    };
    let count = slots.len() as u64;
    let meta = vec![
        ("source".into(), Value::String("flight".into())),
        ("capacity".into(), int(DEFAULT_CAPACITY as u64)),
        ("overwritten".into(), int(first)),
    ];
    let mut writer = Writer::new(out, meta);
    for (seq, slot) in (first + 1..).zip(slots) {
        let request = slot.request.as_str();
        writer.record(Record {
            seq: Some(seq),
            kind: KINDS[usize::from(slot.kind)].to_string(),
            us: Some(slot.us),
            dur_ns: slot.dur_ns,
            name: slot.name.as_str().to_string(),
            request_id: (!request.is_empty()).then(|| request.to_string()),
            conn: (slot.conn != 0).then_some(slot.conn),
            fields: None,
        });
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
            // The recorder's clock starts on its first record: do it first.
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
            let _ = std::fs::remove_file(&path);
        });
    }

    #[test]
    fn truncation_keeps_whole_characters() {
        serialized(|| {
            // `é` is two bytes: after 47 ASCII bytes it does not fit in 48,
            // after 46 it does.
            set_request(&format!("{}é", "r".repeat(REQUEST_BYTES - 1)), 1);
            record_event(&format!("{}é", "n".repeat(NAME_BYTES - 2)));
            clear_request();
            let flight = crate::trace::parse_trace(dump_to_string().unwrap().as_bytes()).unwrap();
            let record = &flight.records[0];
            assert_eq!(record.name, format!("{}é", "n".repeat(NAME_BYTES - 2)));
            assert_eq!(
                record.request_id.as_deref(),
                Some("r".repeat(REQUEST_BYTES - 1).as_str())
            );
        });
    }

    #[test]
    fn dumps_taken_while_threads_record_are_never_torn() {
        use std::sync::atomic::{AtomicBool, Ordering};
        serialized(|| {
            /// Stops the recording threads even when an assertion fails.
            struct Stop<'a>(&'a AtomicBool);
            impl Drop for Stop<'_> {
                fn drop(&mut self) {
                    self.0.store(true, Ordering::Relaxed);
                }
            }
            let stop = AtomicBool::new(false);
            std::thread::scope(|s| {
                for t in 0..4u64 {
                    let stop = &stop;
                    s.spawn(move || {
                        let mut i = 0u64;
                        while !stop.load(Ordering::Relaxed) {
                            let request = format!("t{t}-{i}");
                            set_request(&request, t + 1);
                            record_event(&format!("name-of-{request}"));
                            clear_request();
                            i += 1;
                        }
                    });
                }
                let _stop = Stop(&stop);
                // Dump only once the writers are wrapping the ring.
                while ring().written < 2 * DEFAULT_CAPACITY as u64 {
                    std::thread::yield_now();
                }
                for _ in 0..50 {
                    let text = dump_to_string().unwrap();
                    let flight = crate::trace::parse_trace(text.as_bytes()).unwrap();
                    assert!(flight.records.len() <= DEFAULT_CAPACITY);
                    for r in &flight.records {
                        let request = r.request_id.as_deref().unwrap_or("");
                        assert_eq!(r.name, format!("name-of-{request}"), "torn record");
                    }
                    for pair in flight.records.windows(2) {
                        assert!(pair[0].seq < pair[1].seq, "dump must be seq-sorted");
                    }
                }
            });
        });
    }
}
