//! Workspace-level telemetry contracts:
//!
//! 1. the registry is thread-safe — counters bumped from pool worker
//!    threads sum exactly;
//! 2. the trace sink writes JSON the vendored `serde_json` parses, even
//!    for names that need escaping and non-finite event fields;
//! 3. telemetry never perturbs results — k-means and COALA outputs are
//!    bit-identical with the switch on or off;
//! 4. the trace sink streams parseable `multiclust-trace/v2` JSONL and
//!    never perturbs results either;
//! 5. events past the in-memory cap are counted, not silently lost;
//! 6. the counting allocator attributes heap traffic to spans without
//!    moving a single label;
//! 7. a trace file ends with one parseable `snapshot` of the registry
//!    (counters, quantiles, allocation gauges, dropped events);
//! 8. the Gaussian affinity build's work counters follow the roofline
//!    model exactly;
//! 9. the blocked kernels' pruning counters tick on fixed inputs, and
//!    stay at zero when the engine falls back to the naive kernels;
//! 10. a COALA fit opens a fixed number of parallel regions, not one per
//!     merge step.

use std::sync::Mutex;

use multiclust::alternative::Coala;
use multiclust::base::{KMeans, SpectralClustering};
use multiclust::core::Clustering;
use multiclust::data::synthetic::four_blob_square;
use multiclust::data::{seeded_rng, Dataset};
use multiclust::linalg::kernels::{set_kernel_mode, KernelMode};
use multiclust::{parallel, telemetry};
use rand::Rng;

/// The switch, the registry and the thread override are process-global;
/// every test in this binary serializes on this lock and leaves telemetry
/// off and empty behind itself.
fn serialized<T>(f: impl FnOnce() -> T) -> T {
    static LOCK: Mutex<()> = Mutex::new(());
    let _guard = LOCK.lock().unwrap_or_else(|p| p.into_inner());
    telemetry::set_enabled(true);
    telemetry::reset();
    let out = f();
    telemetry::reset();
    telemetry::set_enabled(false);
    let _ = telemetry::trace::set_trace_path(None);
    parallel::set_threads(0);
    out
}

#[test]
fn counters_from_pool_threads_sum_exactly() {
    serialized(|| {
        parallel::set_threads(4);
        let n = 10_000;
        let out = parallel::par_map_indexed(n, 1, |i| {
            telemetry::counter_add("test.pool.counter", 1);
            i
        });
        assert_eq!(out.len(), n);
        let snap = telemetry::snapshot();
        assert_eq!(
            snap.counters["test.pool.counter"], n as u64,
            "every increment from every worker thread lands exactly once"
        );
        // The pool reported its own task counters alongside.
        assert!(snap.counters["parallel.tasks"] >= 64);
    });
}

#[test]
fn json_export_parses_with_vendored_serde_json() {
    use multiclust::telemetry::trace;

    let path = std::env::temp_dir()
        .join(format!("multiclust-test-json-{}.jsonl", std::process::id()));
    let (raw, parsed) = serialized(|| {
        trace::open_trace(Some(&path), false).expect("open trace sink");
        telemetry::counter_add("needs\"escaping\\here", 3);
        telemetry::histogram_record("h", 1023);
        telemetry::event("e", &[("value", 0.125), ("weird", f64::INFINITY)]);
        {
            let _outer = telemetry::span("outer");
            let _inner = telemetry::span("inner");
        }
        trace::flush_trace();
        let raw = std::fs::read_to_string(&path).expect("trace file exists");
        (raw, trace::read_trace(&path).expect("trace parses"))
    });
    let _ = std::fs::remove_file(&path);

    for line in raw.lines() {
        serde_json::from_str::<serde_json::Value>(line)
            .unwrap_or_else(|e| panic!("{e}: {line}"));
    }
    // The escaped counter name survives the round trip.
    assert_eq!(parsed.counters["needs\"escaping\\here"], 3);
    // The nested span path made it through.
    assert!(parsed.of_kind("span").any(|r| r.name == "outer/inner"), "{raw}");
    // Non-finite field values degrade to null and read back as NaN.
    assert!(raw.contains("\"weird\":null"), "{raw}");
    let e = parsed.of_kind("event").find(|e| e.name == "e").expect("event streamed");
    assert_eq!(e.field("value"), Some(0.125));
    assert!(e.field("weird").is_some_and(f64::is_nan), "{:?}", e.fields);
}

/// Runs k-means and COALA with fixed seeds, returning everything
/// bit-comparable about the results.
fn fit_both() -> (Vec<Option<usize>>, u64, Clustering) {
    let fb = four_blob_square(20, 10.0, 0.6, &mut seeded_rng(901));
    let km = KMeans::new(4).with_restarts(3).fit(&fb.dataset, &mut seeded_rng(902));
    let given = Clustering::from_labels(&fb.horizontal);
    let coala = Coala::new(2, 0.8).fit(&fb.dataset, &given);
    let labels: Vec<Option<usize>> =
        (0..km.clustering.len()).map(|i| km.clustering.assignment(i)).collect();
    (labels, km.sse.to_bits(), coala.clustering)
}

#[test]
fn results_bit_identical_with_telemetry_on_and_off() {
    let (off, on) = serialized(|| {
        telemetry::set_enabled(false);
        let off = fit_both();
        telemetry::set_enabled(true);
        telemetry::reset();
        let on = fit_both();
        // Telemetry actually recorded during the "on" run…
        let snap = telemetry::snapshot();
        assert!(snap.events.iter().any(|e| e.name == "kmeans.iter"));
        assert!(snap.events.iter().any(|e| e.name == "coala.merge"));
        assert!(snap.durations.contains_key("kmeans.fit"));
        (off, on)
    });
    // …and changed nothing: same labels, same SSE bits, same partition.
    assert_eq!(off.0, on.0, "k-means labels");
    assert_eq!(off.1, on.1, "k-means SSE bits");
    assert_eq!(off.2, on.2, "COALA partition");
}

/// The PR-5 trace sink: every line of the streamed file is standalone
/// JSON, the first line carries the schema version, spans and events from
/// a real fit land in the file, and results stay bit-identical whether a
/// sink is attached or not.
#[test]
fn trace_sink_streams_parseable_jsonl_without_perturbing_results() {
    use multiclust::telemetry::trace;

    let path = std::env::temp_dir()
        .join(format!("multiclust-test-trace-{}.jsonl", std::process::id()));
    let (untraced, traced, parsed) = serialized(|| {
        // Baseline fit with no sink.
        let untraced = fit_both();
        telemetry::reset();

        // Same fit streamed to a trace file.
        trace::open_trace(Some(&path), false).expect("open trace sink");
        let traced = fit_both();
        trace::flush_trace();

        let parsed = trace::read_trace(&path).expect("trace parses");
        (untraced, traced, parsed)
    });
    let raw = std::fs::read_to_string(&path).expect("trace file exists");
    let _ = std::fs::remove_file(&path);

    // Every line is a standalone JSON object.
    for (i, line) in raw.lines().enumerate() {
        let v: serde_json::Value = serde_json::from_str(line)
            .unwrap_or_else(|e| panic!("line {}: {e}: {line}", i + 1));
        assert!(matches!(v, serde_json::Value::Object(_)), "line {}", i + 1);
    }
    // The first line announces the schema and the reader saw it.
    assert!(raw.starts_with(r#"{"type":"meta","schema":"multiclust-trace/v2"}"#), "{raw}");
    assert_eq!(parsed.schema.as_deref(), Some(trace::TRACE_SCHEMA));
    assert!(parsed.ended, "end line written by flush");
    assert_eq!(parsed.events_dropped, 0);

    // Real instrumentation made it into the stream.
    assert!(parsed.of_kind("span").any(|r| r.name == "kmeans.fit"), "{raw}");
    assert!(parsed.of_kind("event").any(|e| e.name == "kmeans.iter"));
    assert!(parsed.of_kind("event").any(|e| e.name == "coala.merge"));

    // And the sink observed without perturbing: identical results.
    assert_eq!(untraced.0, traced.0, "k-means labels");
    assert_eq!(untraced.1, traced.1, "k-means SSE bits");
    assert_eq!(untraced.2, traced.2, "COALA partition");
}

/// Overflowing the in-memory event cap increments the
/// `telemetry.events_dropped` counter (no more silent truncation) and
/// the report and the trace's end line surface it — while an attached
/// trace sink still streams every event past the cap.
#[test]
fn event_cap_overflow_is_counted_and_streamed() {
    use multiclust::telemetry::trace;

    let overflow = 10u64;
    let path = std::env::temp_dir()
        .join(format!("multiclust-test-cap-{}.jsonl", std::process::id()));
    let (snap, parsed) = serialized(|| {
        trace::open_trace(Some(&path), false).expect("open trace sink");
        for i in 0..(telemetry::MAX_EVENTS as u64 + overflow) {
            telemetry::event("cap.test", &[("i", i as f64)]);
        }
        let snap = telemetry::snapshot();
        trace::flush_trace();
        let parsed = trace::read_trace(&path).expect("trace parses");
        (snap, parsed)
    });
    let _ = std::fs::remove_file(&path);

    assert_eq!(snap.events.len(), telemetry::MAX_EVENTS, "registry capped");
    assert_eq!(snap.dropped_events, overflow);
    assert_eq!(snap.counters["telemetry.events_dropped"], overflow);
    assert!(snap.to_text().contains("telemetry.events_dropped"), "{}", snap.to_text());

    // The sink is the durable record: nothing dropped there.
    let streamed = parsed.of_kind("event").filter(|e| e.name == "cap.test").count() as u64;
    assert_eq!(streamed, telemetry::MAX_EVENTS as u64 + overflow);
    assert_eq!(parsed.events_dropped, overflow, "end line reports the drop count");
    assert_eq!(parsed.counters["telemetry.events_dropped"], overflow);
}

/// The PR-7 counting allocator: switching accounting on attributes heap
/// traffic to the span that was active at allocation time, shows up in
/// the text report, and reproduces every result bit-for-bit.
#[test]
fn alloc_accounting_attributes_spans_without_perturbing_results() {
    use multiclust::telemetry::alloc;

    let (off, on, snap) = serialized(|| {
        alloc::set_alloc_enabled(false);
        let off = fit_both();
        telemetry::reset();

        alloc::set_alloc_enabled(true);
        let on = fit_both();
        let snap = telemetry::snapshot();
        alloc::set_alloc_enabled(false);
        (off, on, snap)
    });

    // Accounting observed without perturbing: identical results.
    assert_eq!(off.0, on.0, "k-means labels");
    assert_eq!(off.1, on.1, "k-means SSE bits");
    assert_eq!(off.2, on.2, "COALA partition");

    // The fit's allocations were attributed to its spans.
    let kmeans = snap
        .alloc
        .get("kmeans.fit")
        .unwrap_or_else(|| panic!("no alloc stats for kmeans.fit: {:?}", snap.alloc.keys()));
    assert!(kmeans.count > 0, "k-means fit must allocate");
    assert!(kmeans.bytes > 0 && kmeans.peak > 0);
    assert!(snap.to_text().contains("alloc (path"), "{}", snap.to_text());
}

/// A trace file closes with one `snapshot` of the registry, written by
/// the same encoder as every other line: after a fit it carries the
/// producer's `seq`, every counter, the span quantiles, the allocation
/// gauges and the dropped-event count, and only the `end` line follows.
#[test]
fn trace_ends_with_a_registry_snapshot() {
    use multiclust::telemetry::trace;

    let path = std::env::temp_dir()
        .join(format!("multiclust-test-snapshot-{}.jsonl", std::process::id()));
    let parsed = serialized(|| {
        trace::open_trace(Some(&path), false).expect("open trace sink");
        let _ = fit_both();
        trace::flush_trace();
        trace::read_trace(&path).expect("trace parses")
    });
    let raw = std::fs::read_to_string(&path).expect("trace file exists");
    let _ = std::fs::remove_file(&path);

    let lines: Vec<&str> = raw.lines().collect();
    let snapshots: Vec<usize> = (0..lines.len())
        .filter(|&i| lines[i].starts_with(r#"{"type":"snapshot""#))
        .collect();
    assert_eq!(snapshots, [lines.len() - 2], "one snapshot, just before the end line:\n{raw}");
    let serde_json::Value::Object(fields) =
        serde_json::from_str(lines[lines.len() - 2]).expect("snapshot parses")
    else {
        panic!("snapshot is not an object")
    };
    for key in ["seq", "counters", "quantiles", "alloc", "events_dropped"] {
        assert!(fields.iter().any(|(k, _)| k == key), "snapshot missing {key:?}: {raw}");
    }
    assert!(lines[lines.len() - 1].starts_with(r#"{"type":"end""#), "{raw}");
    assert!(!parsed.counters.is_empty(), "the fit's counters read back: {raw}");
}

/// The Gaussian affinity build charges its work by the roofline model:
/// one exact `d`-coordinate distance per pair (3d flops over two `f64`
/// rows) plus one `exp` for every pair the underflow screen kept, and the
/// one panel pack of the input (16 bytes per value).
#[test]
fn affinity_work_counters_follow_the_roofline_model() {
    use multiclust::linalg::kernels::gaussian_affinity_matrix;

    // Two blobs 1000 apart on every axis: the 20 × 20 cross pairs are far
    // past the underflow screen, the within-blob pairs are not.
    let (n, d) = (40usize, 3usize);
    let flat: Vec<f64> = (0..n * d)
        .map(|v| if v / d < 20 { 0.0 } else { 1000.0 } + (v % 7) as f64 * 0.1)
        .collect();
    let snap = serialized(|| {
        std::hint::black_box(gaussian_affinity_matrix(d, &flat, 2.0));
        telemetry::snapshot()
    });
    let counter = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
    let (n, d) = (n as u64, d as u64);
    let pairs = n * (n - 1) / 2;
    let screened = counter("kernels.screen.pruned");
    assert_eq!(screened, 20 * 20, "cross-blob pairs screened");
    assert_eq!(counter("kernels.estimates"), pairs);
    assert_eq!(counter("kernels.flops"), 3 * d * pairs + (pairs - screened));
    assert_eq!(counter("kernels.bytes_touched"), 16 * d * pairs + 16 * n * d);
}

/// Fits k-means (k = 16) on a 400-row grid — 16 cells on a 4 × 4 lattice
/// spaced 10, uniform jitter in 0..4, d = 3 — and spectral clustering on
/// two small blobs, both under `mode`. Returns each fit's
/// `(kernels.estimates, kernels.assign.skipped)`. The kernel mode is
/// restored to the environment's even if a fit panics.
fn pruning_counters(mode: KernelMode) -> [(u64, u64); 2] {
    struct Restore;
    impl Drop for Restore {
        fn drop(&mut self) {
            set_kernel_mode(None);
        }
    }
    let _restore = Restore;
    set_kernel_mode(Some(mode));
    let counters = || {
        let snap = telemetry::snapshot();
        telemetry::reset();
        let get = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
        (get("kernels.estimates"), get("kernels.assign.skipped"))
    };

    let mut rng = seeded_rng(11);
    let grid: Vec<f64> = (0..400)
        .flat_map(|i| {
            let c = i % 16;
            [
                (c % 4) as f64 * 10.0 + rng.gen_range(0.0..4.0),
                (c / 4) as f64 * 10.0 + rng.gen_range(0.0..4.0),
                rng.gen_range(0.0..4.0),
            ]
        })
        .collect();
    telemetry::reset();
    KMeans::new(16).fit(&Dataset::from_flat(3, grid), &mut seeded_rng(1));
    let kmeans = counters();

    let blobs: Vec<f64> = (0..40)
        .flat_map(|i| {
            let centre = if i < 20 { 0.0 } else { 10.0 };
            [centre + rng.gen_range(0.0..1.0), centre + rng.gen_range(0.0..1.0)]
        })
        .collect();
    SpectralClustering::new(2, 1.0).fit(&Dataset::from_flat(2, blobs), &mut seeded_rng(1));
    [kmeans, counters()]
}

/// The blocked kernels' pruning is deterministic, so it is checked by
/// counting, not timing: on fixed inputs the warm Hamerly scans estimate
/// and skip candidates, and the spectral affinity triangle goes through
/// the panel path. Forcing the naive kernels zeroes the same counters,
/// which is what a silent fallback would look like — so the assertions
/// on the blocked half can fire.
#[test]
fn blocked_kernels_prune_and_naive_kernels_do_not() {
    let (blocked, naive) = serialized(|| {
        (pruning_counters(KernelMode::Blocked), pruning_counters(KernelMode::Naive))
    });
    let [(kmeans_estimates, kmeans_skipped), (spectral_estimates, _)] = blocked;
    assert!(kmeans_estimates > 0, "k-means screened no candidates: {blocked:?}");
    assert!(kmeans_skipped > 0, "k-means skipped no candidates: {blocked:?}");
    assert!(spectral_estimates > 0, "spectral affinity left the panel path: {blocked:?}");
    assert_eq!(naive, [(0, 0), (0, 0)], "naive kernels must not prune");
}

/// COALA keeps every group pair's link across merge steps and scans the
/// cache serially, so a fit opens the same few parallel regions (the
/// distance matrix) at any `n` — not one per merge step.
#[test]
fn coala_opens_a_fixed_number_of_parallel_regions() {
    let regions = |per_blob: usize| {
        let fb = four_blob_square(per_blob, 10.0, 0.6, &mut seeded_rng(903));
        let given = Clustering::from_labels(&fb.horizontal);
        telemetry::reset();
        Coala::new(2, 0.8).fit(&fb.dataset, &given);
        let snap = telemetry::snapshot();
        let get = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
        get("parallel.regions.serial") + get("parallel.regions.fanout")
    };
    let (small, large) = serialized(|| (regions(15), regions(30)));
    assert_eq!(small, large, "regions at n = 60 and n = 120");
    assert!(small <= 2, "{small} regions in one fit");
}
