//! Std-only telemetry for the `multiclust` workspace: hierarchical spans
//! with wall-clock timing, monotonic counters and structured
//! per-iteration events. Counters sum in a process-global, thread-safe
//! registry; spans and events stream into one file format ([`trace`])
//! with one report ([`trace::report`]).
//!
//! ## Overhead policy
//!
//! Telemetry is **disabled by default**. Every recording entry point
//! begins with [`enabled`] — a single relaxed atomic load — and returns
//! immediately when the switch is off, so instrumentation in hot kernels
//! compiles down to a branch on a cached flag. Call sites that must
//! *compute* something telemetry-only (an objective value, an inertia
//! sum) guard that computation behind `enabled()` themselves.
//!
//! ## Determinism contract
//!
//! Telemetry only ever *observes*: it never consumes randomness, never
//! mutates algorithm state and never influences control flow. Clustering
//! results are bit-identical with the switch on or off (enforced by
//! `tests/telemetry.rs` at the workspace root).
//!
//! ## Configuration
//!
//! The environment is read once, by [`init`]: `MULTICLUST_TELEMETRY`
//! (recording, default off), `MULTICLUST_ALLOC` (allocation accounting,
//! default off) and `MULTICLUST_FLIGHT` (the flight recorder, default
//! on), each parsed the same way — `0`/`false`/`off` is off, any other
//! non-empty value is on. The CLI calls [`init`] at startup; otherwise
//! the first read of any of the three switches does. [`set_enabled`],
//! [`alloc::set_alloc_enabled`] and [`flight::set_flight`] override it,
//! and the CLI's `--telemetry` and `--trace` flags turn recording on.
//!
//! ## Model
//!
//! * **Spans** ([`span`]) time work by hierarchical path: a span opened
//!   while another span is open on the *same thread* nests under it
//!   (`"coala.fit/merge_scan"`). The registry keeps none: a completed span
//!   goes to the flight ring and to the open trace sink, and the report's
//!   phase table sums the sink's span lines.
//! * **Counters** ([`counter_add`]) are monotonic `u64` sums — the only
//!   thing the registry keeps.
//! * **Events** ([`event`]) are structured records — a name plus named
//!   `f64` fields — for convergence traces (per-iteration objectives,
//!   merge decisions, lattice level sizes). The registry keeps none: an
//!   event goes to the flight ring and to the open trace sink, whose line
//!   order is the event order.
//! * **Allocation accounting** ([`alloc`]) attributes heap traffic to the
//!   active span via a counting global allocator, off by default
//!   (`MULTICLUST_ALLOC=1`).
//! * **Files** — the trace sink ([`trace`]; the CLI's `--trace` writes it
//!   to a file, `--telemetry` to memory) and the dump of the flight
//!   recorder ([`flight`], one bounded ring of the process's most recent
//!   spans, events and errors) both write the one `multiclust-trace/v2`
//!   JSONL format, read back by [`trace::parse_trace`] and rendered by
//!   [`trace::report`] (the CLI's `multiclust trace` and `--telemetry`).

// `deny`, not `forbid`: the `alloc` module implements the unsafe
// `GlobalAlloc` trait and opts out locally; everything else stays safe.
#![deny(unsafe_code)]

pub mod alloc;
pub mod diagnose;
pub mod flight;
pub mod sketch;
pub mod trace;

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use serde::{field, Value};

pub use alloc::AllocStat;
pub use sketch::Sketch;

// ---- switches ------------------------------------------------------------

/// A process-wide on/off switch armed from the environment by [`init`]:
/// 0 = not yet read, 1 = off, 2 = on.
pub(crate) struct Switch(AtomicU8);

impl Switch {
    pub(crate) const fn new() -> Self {
        Self(AtomicU8::new(0))
    }

    /// Whether the switch is on: one relaxed load, plus [`init`] on the
    /// very first read in a process that did not call it.
    #[inline]
    pub(crate) fn get(&self) -> bool {
        match self.0.load(Ordering::Relaxed) {
            2 => true,
            1 => false,
            _ => {
                init();
                self.armed()
            }
        }
    }

    /// Whether the switch is on, without ever reading the environment
    /// (not yet read counts as off) — the allocator's read.
    #[inline]
    pub(crate) fn armed(&self) -> bool {
        self.0.load(Ordering::Relaxed) == 2
    }

    pub(crate) fn set(&self, on: bool) {
        self.0.store(1 + u8::from(on), Ordering::Relaxed);
    }

    /// Sets the switch only if it was never set, so an explicit setter
    /// that ran first keeps its value.
    fn arm(&self, on: bool) {
        let _ = self.0.compare_exchange(0, 1 + u8::from(on), Ordering::Relaxed, Ordering::Relaxed);
    }
}

static TELEMETRY: Switch = Switch::new();

/// Reads the telemetry environment into the three switches. Safe to
/// repeat: a switch that is already set keeps its value. Runs in ordinary
/// code, never inside the allocator (reading the environment allocates).
#[cold]
pub fn init() {
    TELEMETRY.arm(env_on("MULTICLUST_TELEMETRY", false));
    alloc::ALLOC.arm(env_on("MULTICLUST_ALLOC", false));
    flight::FLIGHT.arm(env_on("MULTICLUST_FLIGHT", true));
}

/// The one on/off parser: `0`/`false`/`off` is off, any other non-empty
/// value is on, and an unset or empty variable means `default`.
fn env_on(var: &str, default: bool) -> bool {
    match std::env::var(var).map(|v| v.trim().to_ascii_lowercase()) {
        Ok(v) if v.is_empty() => default,
        Ok(v) => !matches!(v.as_str(), "0" | "false" | "off"),
        Err(_) => default,
    }
}

/// Whether telemetry is currently recording (one relaxed atomic load).
#[inline]
pub fn enabled() -> bool {
    TELEMETRY.get()
}

/// Turns telemetry on or off for the whole process, overriding the
/// environment. Flipping the switch does not clear already-recorded data
/// — use [`reset`] for that.
pub fn set_enabled(on: bool) {
    TELEMETRY.set(on);
}

// ---- registry --------------------------------------------------------------

/// The registry: counter values by name, all it keeps.
static REGISTRY: Mutex<BTreeMap<String, u64>> = Mutex::new(BTreeMap::new());

/// Runs `f` on the registry's counters, surviving lock poisoning (a
/// panicking instrumented thread must not kill telemetry).
fn with_registry<T>(f: impl FnOnce(&mut BTreeMap<String, u64>) -> T) -> T {
    let mut guard = REGISTRY.lock().unwrap_or_else(|p| p.into_inner());
    f(&mut guard)
}

thread_local! {
    /// Open span paths on this thread, innermost last — the source of
    /// span hierarchy. Worker threads have their own stacks, so spans
    /// opened inside a parallel region root at that worker.
    static SPAN_STACK: std::cell::RefCell<Vec<String>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

// ---- recording API ---------------------------------------------------------

/// RAII guard returned by [`span`]; records the span on drop. Inactive
/// (and free) when telemetry is disabled.
#[must_use = "a span records its duration when the guard drops"]
pub struct SpanGuard {
    active: Option<(String, Instant)>,
    /// Allocation slot to restore on drop; `None` when allocation
    /// accounting was off at open time.
    prev_slot: Option<usize>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        // Restore the allocation charge target first, so the bookkeeping
        // below is charged to the parent span, not this one.
        if let Some(prev) = self.prev_slot.take() {
            alloc::set_current_slot(prev);
        }
        let Some((path, start)) = self.active.take() else {
            return;
        };
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        SPAN_STACK.with(|s| {
            s.borrow_mut().pop();
        });
        // The span lands in the flight ring and the open sink, both with
        // the thread's request/connection context when one is installed.
        flight::record_span(&path, ns);
        if trace::trace_enabled() {
            trace::write_span(path, ns);
        }
    }
}

/// Opens a timed span named `name`, nested under any span already open on
/// this thread. Hold the returned guard for the duration of the work.
pub fn span(name: &str) -> SpanGuard {
    if !enabled() {
        return SpanGuard { active: None, prev_slot: None };
    }
    let path = SPAN_STACK.with(|s| {
        let mut stack = s.borrow_mut();
        let path = match stack.last() {
            Some(parent) => format!("{parent}/{name}"),
            None => name.to_string(),
        };
        stack.push(path.clone());
        path
    });
    // With allocation accounting on, this span becomes the thread's
    // charge target until the guard drops.
    let prev_slot = if alloc::alloc_enabled() {
        Some(alloc::swap_current_slot(alloc::slot_for_path(&path)))
    } else {
        None
    };
    SpanGuard { active: Some((path, Instant::now())), prev_slot }
}

/// Adds `delta` to the monotonic counter `name`.
#[inline]
pub fn counter_add(name: &str, delta: u64) {
    if !enabled() {
        return;
    }
    with_registry(|counters| match counters.get_mut(name) {
        Some(c) => *c += delta,
        None => {
            counters.insert(name.to_string(), delta);
        }
    });
}

/// Records a structured event `name` with named `f64` fields: into the
/// flight ring and, when a trace sink is open, as one sink line.
#[inline]
pub fn event(name: &str, fields: &[(&str, f64)]) {
    if !enabled() {
        return;
    }
    flight::record_event(name);
    if trace::trace_enabled() {
        trace::write_event(name, fields);
    }
}

/// Clears all recorded data (counters, allocation tallies, trace
/// write-error count). The on/off switches are untouched.
pub fn reset() {
    with_registry(BTreeMap::clear);
    alloc::reset_alloc();
    trace::reset_write_errors();
}

// ---- snapshot & export -----------------------------------------------------

/// A point-in-time copy of everything the registry recorded.
#[derive(Clone, Debug, Default)]
pub struct Snapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Allocation accounting per span path (empty when `MULTICLUST_ALLOC`
    /// is off or nothing allocated).
    pub alloc: BTreeMap<String, AllocStat>,
}

/// Copies the current registry contents, folding in the allocator's slot
/// table and the trace sink's write-error count (as `trace.write_errors`,
/// so the report surfaces sink failures alongside the other counters).
pub fn snapshot() -> Snapshot {
    let mut counters = with_registry(|counters| counters.clone());
    let write_errors = trace::trace_write_errors();
    if write_errors > 0 {
        counters.insert("trace.write_errors".to_string(), write_errors);
    }
    Snapshot { counters, alloc: alloc::alloc_by_path().into_iter().collect() }
}

/// One path's allocation accounting as `{count, bytes, peak}`.
pub(crate) fn alloc_value(a: &AllocStat) -> Value {
    Value::Object(vec![
        ("count".into(), int(a.count)),
        ("bytes".into(), int(a.bytes)),
        ("peak".into(), int(a.peak)),
    ])
}

/// `u64` → JSON integer, clamped into `i64` (the vendored value model's
/// integer type).
pub(crate) fn int(v: u64) -> Value {
    Value::Int(i64::try_from(v).unwrap_or(i64::MAX))
}

/// `f64` → JSON number, with non-finite values mapped to `null`.
pub(crate) fn float(v: f64) -> Value {
    if v.is_finite() {
        Value::Float(v)
    } else {
        Value::Null
    }
}

/// String field `key` of a parsed JSONL object, if present and a string.
pub(crate) fn field_str<'a>(obj: &'a [(String, Value)], key: &str) -> Option<&'a str> {
    field(obj, key)?.as_str()
}

/// Non-negative integer field `key` of a parsed JSONL object, if present.
pub(crate) fn field_u64(obj: &[(String, Value)], key: &str) -> Option<u64> {
    as_u64(field(obj, key)?)
}

/// Object field `key` of a parsed JSONL object, if present and an object.
pub(crate) fn field_obj<'a>(
    obj: &'a [(String, Value)],
    key: &str,
) -> Option<&'a [(String, Value)]> {
    match field(obj, key)? {
        Value::Object(o) => Some(o),
        _ => None,
    }
}

/// A non-negative integer value (a non-negative float is truncated).
pub(crate) fn as_u64(v: &Value) -> Option<u64> {
    match v {
        Value::Int(i) => u64::try_from(*i).ok(),
        Value::Float(f) if *f >= 0.0 => Some(*f as u64),
        _ => None,
    }
}

/// One lock for every in-crate test that flips the global switch or
/// mutates the registry — the lib and trace test modules share state, so
/// they must share the lock too.
#[cfg(test)]
pub(crate) static TEST_LOCK: Mutex<()> = Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    /// The switch and registry are process-global; serialize tests.
    fn serialized<T>(f: impl FnOnce() -> T) -> T {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        set_enabled(true);
        reset();
        let out = f();
        let _ = trace::set_trace_path(None);
        reset();
        set_enabled(false);
        out
    }

    #[test]
    fn disabled_records_nothing() {
        use alloc::{
            alloc_by_path, reset_alloc, set_alloc_enabled, set_current_slot, slot_for_path,
            swap_current_slot,
        };
        // The switched-off contract: every entry point is one relaxed load
        // and no allocation. Allocations are counted on a slot only this
        // thread charges, the way `flight.rs` counts its record path.
        let charged = |path: &str| {
            alloc_by_path().into_iter().find(|(p, _)| p == path).map_or(0, |(_, stat)| stat.count)
        };
        serialized(|| {
            let slot = slot_for_path("test.telemetry.disabled");
            trace::open_trace_buffer();
            set_enabled(false);
            set_alloc_enabled(true);
            let prev = swap_current_slot(slot);
            for i in 0..1000u64 {
                counter_add("c", 1);
                event("e", &[("x", i as f64)]);
                drop(span("s"));
            }
            set_current_slot(prev);
            let telemetry_allocs = charged("test.telemetry.disabled");

            let flight_was_on = flight::flight_enabled();
            let slot = slot_for_path("test.flight.disabled");
            flight::set_flight(false);
            let prev = swap_current_slot(slot);
            for i in 0..1000u64 {
                flight::record_span("s", i);
                flight::record_event("e");
                flight::record_error("x", Some("req"));
            }
            set_current_slot(prev);
            let flight_allocs = charged("test.flight.disabled");
            flight::set_flight(flight_was_on);
            set_alloc_enabled(false);
            reset_alloc();

            assert_eq!(telemetry_allocs, 0, "allocations while telemetry is off");
            assert_eq!(flight_allocs, 0, "allocations while the flight recorder is off");
            set_enabled(true);
            let snap = snapshot();
            assert!(snap.counters.is_empty());
            let bytes = trace::flush_trace().expect("the buffer sink hands its bytes back");
            let streamed = trace::parse_trace(&bytes[..]).expect("buffer parses");
            assert!(streamed.records.is_empty(), "{:?}", streamed.records);
        });
    }

    #[test]
    fn counters_accumulate() {
        serialized(|| {
            counter_add("a", 2);
            counter_add("a", 3);
            counter_add("b", 1);
            let snap = snapshot();
            assert_eq!(snap.counters["a"], 5);
            assert_eq!(snap.counters["b"], 1);
        });
    }

    #[test]
    fn spans_nest_by_thread_stack() {
        serialized(|| {
            trace::open_trace_buffer();
            {
                let _outer = span("outer");
                let _inner = span("inner");
            }
            let bytes = trace::flush_trace().expect("buffer bytes");
            let streamed = trace::parse_trace(&bytes[..]).expect("buffer parses");
            let spans: Vec<_> = streamed.of_kind("span").collect();
            // The inner guard drops first, so its line comes first.
            let paths: Vec<&str> = spans.iter().map(|r| r.name.as_str()).collect();
            assert_eq!(paths, ["outer/inner", "outer"]);
            assert!(spans[1].dur_ns >= spans[0].dur_ns, "the outer span encloses the inner");
        });
    }

    #[test]
    fn events_stream_in_call_order() {
        serialized(|| {
            trace::open_trace_buffer();
            event("e", &[("i", 0.0)]);
            event("e", &[("i", 1.0)]);
            let bytes = trace::flush_trace().expect("buffer bytes");
            let streamed = trace::parse_trace(&bytes[..]).expect("buffer parses");
            let events: Vec<_> = streamed.of_kind("event").collect();
            assert_eq!(events.len(), 2);
            assert_eq!(events[0].field("i"), Some(0.0));
            assert_eq!(events[1].fields, Some(vec![("i".to_string(), 1.0)]));
        });
    }

    #[test]
    fn alloc_attribution_reaches_the_snapshot() {
        serialized(|| {
            alloc::set_alloc_enabled(true);
            alloc::reset_alloc();
            {
                let _s = span("alloc_test.phase");
                let v: Vec<u8> = Vec::with_capacity(50_000);
                drop(v);
            }
            alloc::set_alloc_enabled(false);
            let snap = snapshot();
            let stat = snap
                .alloc
                .get("alloc_test.phase")
                .expect("span path appears in alloc accounting");
            assert!(stat.count >= 1);
            assert!(stat.bytes >= 50_000, "bytes = {}", stat.bytes);
            assert!(stat.peak >= 50_000, "peak = {}", stat.peak);
            alloc::reset_alloc();
        });
    }

    #[test]
    fn report_mentions_everything() {
        serialized(|| {
            trace::open_trace_buffer();
            counter_add("c", 1);
            event("e", &[("x", 2.0)]);
            drop(span("s"));
            let bytes = trace::flush_trace().expect("buffer bytes");
            let streamed = trace::parse_trace(&bytes[..]).expect("buffer parses");
            let (text, passed) = trace::report("test", &streamed);
            assert!(passed, "{text}");
            let needles = ["test: source trace", "phase (span path)", "\ns ", "counters:", "  c = 1"];
            for needle in needles {
                assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
            }
        });
    }
}
