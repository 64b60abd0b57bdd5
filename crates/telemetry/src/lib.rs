//! Std-only telemetry for the `multiclust` workspace: hierarchical spans
//! with wall-clock timing, monotonic counters, log-scale histograms and
//! structured per-iteration events, collected into a process-global,
//! thread-safe registry with a human-readable report
//! ([`Snapshot::to_text`]) and one file format ([`trace`]).
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
//! * **Spans** ([`span`]) aggregate wall-clock time by hierarchical path:
//!   a span opened while another span is open on the *same thread* nests
//!   under it (`"coala.fit/merge_scan"`). Each path aggregates into one
//!   duration sketch: call count, total, maximum and quantiles.
//! * **Counters** ([`counter_add`]) are monotonic `u64` sums.
//! * **Histograms** ([`histogram_record`]) record `u64` samples into
//!   mergeable log-bucketed quantile sketches ([`Sketch`]: p50/p90/p99/
//!   max with ≤ 1/16 relative bucket error).
//! * **Events** ([`event`]) are ordered structured records — a name plus
//!   named `f64` fields — for convergence traces (per-iteration
//!   objectives, merge decisions, lattice level sizes). The registry
//!   retains up to [`MAX_EVENTS`] events and counts the overflow instead
//!   of growing without bound.
//! * **Allocation accounting** ([`alloc`]) attributes heap traffic to the
//!   active span via a counting global allocator, off by default
//!   (`MULTICLUST_ALLOC=1`).
//! * **Files** — the `--trace` sink ([`trace`]) and the flight recorder's
//!   dump ([`flight`]) both write the one `multiclust-trace/v2` JSONL
//!   format, read back by [`trace::read_trace`] (the CLI's
//!   `multiclust trace`).

// `deny`, not `forbid`: the `alloc` module implements the unsafe
// `GlobalAlloc` trait and opts out locally; everything else stays safe.
#![deny(unsafe_code)]

pub mod alloc;
pub mod diagnose;
pub mod flight;
pub mod sketch;
pub mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use serde::Value;

pub use alloc::AllocStat;
pub use sketch::Sketch;

/// Maximum number of structured events retained in the registry; later
/// events are dropped and counted in `dropped_events`.
pub const MAX_EVENTS: usize = 1 << 16;

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

/// One structured event: an ordered record with named numeric fields.
#[derive(Clone, Debug, PartialEq)]
pub struct Event {
    /// Global sequence number (registry insertion order).
    pub seq: u64,
    /// Event name, e.g. `"kmeans.iter"`.
    pub name: String,
    /// Named `f64` payload fields in call order.
    pub fields: Vec<(String, f64)>,
}

#[derive(Debug, Default)]
struct Inner {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Sketch>,
    /// Per-span-path duration sketches (nanoseconds).
    durations: BTreeMap<String, Sketch>,
    events: Vec<Event>,
    dropped_events: u64,
    seq: u64,
}

static REGISTRY: Mutex<Option<Inner>> = Mutex::new(None);

/// Runs `f` on the registry, creating it on first use and surviving lock
/// poisoning (a panicking instrumented thread must not kill telemetry).
fn with_registry<T>(f: impl FnOnce(&mut Inner) -> T) -> T {
    let mut guard = REGISTRY.lock().unwrap_or_else(|p| p.into_inner());
    f(guard.get_or_insert_with(Inner::default))
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
        with_registry(|r| r.durations.entry(path.clone()).or_default().record(ns));
        // Registry lock released before the sink lock is taken. The span
        // also lands in the flight ring, and both carry the thread's
        // request/connection correlation context when one is installed.
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
    with_registry(|r| match r.counters.get_mut(name) {
        Some(c) => *c += delta,
        None => {
            r.counters.insert(name.to_string(), delta);
        }
    });
}

/// Records `value` into the quantile sketch `name`.
#[inline]
pub fn histogram_record(name: &str, value: u64) {
    if !enabled() {
        return;
    }
    with_registry(|r| {
        r.histograms.entry(name.to_string()).or_default().record(value);
    });
}

/// Records a structured event `name` with named `f64` fields. Events past
/// [`MAX_EVENTS`] are dropped (and counted) rather than retained.
#[inline]
pub fn event(name: &str, fields: &[(&str, f64)]) {
    if !enabled() {
        return;
    }
    let seq = with_registry(|r| {
        let seq = r.seq;
        r.seq += 1;
        if r.events.len() >= MAX_EVENTS {
            r.dropped_events += 1;
            // Truncation is data, not a silent loss: surface it as a
            // counter so the report and the files show it.
            *r.counters.entry("telemetry.events_dropped".to_string()).or_insert(0) += 1;
            return seq;
        }
        r.events.push(Event {
            seq,
            name: name.to_string(),
            fields: fields.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
        });
        seq
    });
    // The sink is the durable record: it keeps streaming past the
    // in-memory cap. Registry lock released before the sink lock.
    flight::record_event(name);
    if trace::trace_enabled() {
        trace::write_event(seq, name, fields);
    }
}

/// Clears all recorded data (spans, counters, histograms, events,
/// allocation tallies, trace write-error count). The on/off switches are
/// untouched.
pub fn reset() {
    with_registry(|r| *r = Inner::default());
    alloc::reset_alloc();
    trace::reset_write_errors();
}

// ---- snapshot & export -----------------------------------------------------

/// A point-in-time copy of everything the registry recorded.
#[derive(Clone, Debug, Default)]
pub struct Snapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Quantile sketches by name.
    pub histograms: BTreeMap<String, Sketch>,
    /// Span-duration sketches by hierarchical path (nanoseconds): call
    /// count, total (`sum`), `max` and quantiles.
    pub durations: BTreeMap<String, Sketch>,
    /// Allocation accounting per span path (empty when `MULTICLUST_ALLOC`
    /// is off or nothing allocated).
    pub alloc: BTreeMap<String, AllocStat>,
    /// Retained events in sequence order.
    pub events: Vec<Event>,
    /// Events dropped after [`MAX_EVENTS`] was reached.
    pub dropped_events: u64,
}

/// Events dropped after [`MAX_EVENTS`] was reached — one field read,
/// without the copy [`snapshot`] makes.
pub fn dropped_events() -> u64 {
    with_registry(|r| r.dropped_events)
}

/// Copies the current registry contents, folding in the allocator's slot
/// table and the trace sink's write-error count (as `trace.write_errors`,
/// so the report surfaces sink failures alongside everything else).
pub fn snapshot() -> Snapshot {
    let mut snap = with_registry(|r| Snapshot {
        counters: r.counters.clone(),
        histograms: r.histograms.clone(),
        durations: r.durations.clone(),
        alloc: BTreeMap::new(),
        events: r.events.clone(),
        dropped_events: r.dropped_events,
    });
    let write_errors = trace::trace_write_errors();
    if write_errors > 0 {
        snap.counters.insert("trace.write_errors".to_string(), write_errors);
    }
    snap.alloc = alloc::alloc_by_path().into_iter().collect();
    snap
}

impl Snapshot {
    /// Human-readable report: spans, counters, histogram summaries and
    /// per-event-name digests.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        if !self.durations.is_empty() {
            out.push_str("spans (path  count  total_ms  p50_ms  p99_ms  max_ms):\n");
            for (path, d) in &self.durations {
                let _ = writeln!(
                    out,
                    "  {path}  {}  {:.3}  {:.3}  {:.3}  {:.3}",
                    d.count,
                    d.sum as f64 / 1e6,
                    d.p50() as f64 / 1e6,
                    d.p99() as f64 / 1e6,
                    d.max as f64 / 1e6,
                );
            }
        }
        if !self.counters.is_empty() {
            out.push_str("counters:\n");
            for (name, v) in &self.counters {
                let _ = writeln!(out, "  {name} = {v}");
            }
        }
        if !self.histograms.is_empty() {
            out.push_str("histograms (name  count  mean  p50  p90  p99  max):\n");
            for (name, h) in &self.histograms {
                let _ = writeln!(
                    out,
                    "  {name}  {}  {:.1}  {}  {}  {}  {}",
                    h.count,
                    h.mean(),
                    h.p50(),
                    h.p90(),
                    h.p99(),
                    h.max,
                );
            }
        }
        if !self.alloc.is_empty() {
            out.push_str("alloc (path  count  bytes  peak):\n");
            for (path, a) in &self.alloc {
                let _ = writeln!(out, "  {path}  {}  {}  {}", a.count, a.bytes, a.peak);
            }
        }
        if !self.events.is_empty() || self.dropped_events > 0 {
            out.push_str("events (name  count  last):\n");
            let mut by_name: BTreeMap<&str, (u64, &Event)> = BTreeMap::new();
            for e in &self.events {
                by_name
                    .entry(&e.name)
                    .and_modify(|(n, last)| {
                        *n += 1;
                        *last = e;
                    })
                    .or_insert((1, e));
            }
            for (name, (count, last)) in &by_name {
                let fields: Vec<String> = last
                    .fields
                    .iter()
                    .map(|(k, v)| format!("{k}={v:.4}"))
                    .collect();
                let _ = writeln!(out, "  {name}  {count}  {{{}}}", fields.join(", "));
            }
            if self.dropped_events > 0 {
                let _ = writeln!(out, "  (dropped {} events)", self.dropped_events);
            }
        }
        if out.is_empty() {
            out.push_str("(no telemetry recorded)\n");
        }
        out
    }
}

/// A sketch's `count`, `sum`, `p50`, `p90`, `p99` and `max` — its
/// summary in every `snapshot` line.
pub(crate) fn sketch_fields(s: &Sketch) -> Vec<(String, Value)> {
    vec![
        ("count".into(), int(s.count)),
        ("sum".into(), int(s.sum)),
        ("p50".into(), int(s.p50())),
        ("p90".into(), int(s.p90())),
        ("p99".into(), int(s.p99())),
        ("max".into(), int(s.max)),
    ]
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

/// Field `key` of a parsed JSONL object, if present.
pub(crate) fn field<'a>(obj: &'a [(String, Value)], key: &str) -> Option<&'a Value> {
    obj.iter().find(|(k, _)| k == key).map(|(_, v)| v)
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
            set_enabled(false);
            set_alloc_enabled(true);
            let prev = swap_current_slot(slot);
            for i in 0..1000u64 {
                counter_add("c", 1);
                histogram_record("h", i);
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
            assert!(snap.histograms.is_empty());
            assert!(snap.events.is_empty());
            assert!(snap.durations.is_empty());
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
            {
                let _outer = span("outer");
                let _inner = span("inner");
            }
            let snap = snapshot();
            assert_eq!(snap.durations["outer"].count, 1);
            assert_eq!(snap.durations["outer/inner"].count, 1);
            assert!(snap.durations["outer"].sum >= snap.durations["outer/inner"].sum);
        });
    }

    #[test]
    fn histograms_are_quantile_sketches() {
        serialized(|| {
            for v in 1..=100u64 {
                histogram_record("h", v);
            }
            let snap = snapshot();
            let h = &snap.histograms["h"];
            assert_eq!(h.count, 100);
            assert_eq!(h.sum, 5050);
            assert_eq!(h.min, 1);
            assert_eq!(h.max, 100);
            // Sketch quantiles overestimate by at most one bucket (1/16).
            for (q, truth) in [(0.5, 50u64), (0.9, 90), (0.99, 99)] {
                let est = h.quantile(q);
                assert!(est >= truth && est <= truth + truth / 16 + 1, "q={q}: {est}");
            }
        });
    }

    #[test]
    fn span_durations_feed_quantile_sketches() {
        serialized(|| {
            for _ in 0..5 {
                let _s = span("timed");
            }
            let snap = snapshot();
            let d = &snap.durations["timed"];
            assert_eq!(d.count, 5);
            assert!(d.p99() >= d.p50());
            assert!(d.max >= d.p50());
        });
    }

    #[test]
    fn events_keep_order_and_cap() {
        serialized(|| {
            event("e", &[("i", 0.0)]);
            event("e", &[("i", 1.0)]);
            let snap = snapshot();
            assert_eq!(snap.events.len(), 2);
            assert!(snap.events[0].seq < snap.events[1].seq);
            assert_eq!(snap.events[1].fields[0], ("i".to_string(), 1.0));
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
            let text = snap.to_text();
            assert!(text.contains("alloc_test.phase"), "{text}");
            alloc::reset_alloc();
        });
    }

    #[test]
    fn text_report_mentions_everything() {
        serialized(|| {
            counter_add("c", 1);
            histogram_record("h", 9);
            event("e", &[("x", 2.0)]);
            let _s = span("s");
            drop(_s);
            let text = snapshot().to_text();
            for needle in ["spans", "counters", "histograms", "events", "c = 1"] {
                assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
            }
        });
    }
}
