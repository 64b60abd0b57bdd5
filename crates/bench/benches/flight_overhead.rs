//! What does the always-on flight recorder cost per record? Three
//! configurations of the hot `record_span` path:
//!
//! 1. recorder off (`MULTICLUST_FLIGHT=0`) — one atomic load per call;
//! 2. recorder on at the default 256-slot ring — the production default:
//!    a sequence fetch-add plus 17 relaxed word stores into the calling
//!    thread's segment, no locks, no allocation;
//! 3. recorder on with a request context pinned (`set_request`), the
//!    shape every served request takes — adds the TLS context read.
//!
//! The numbers are quoted in DESIGN.md's flight-recorder section;
//! re-run with `cargo bench --bench flight_overhead` after touching the
//! ring's record path.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Duration;

use multiclust_telemetry::flight;

fn bench_record_span(c: &mut Criterion) {
    let mut group = c.benchmark_group("flight_record");
    group.sample_size(20).measurement_time(Duration::from_secs(2));

    flight::set_flight(false);
    group.bench_function("span_disabled", |b| {
        b.iter(|| flight::record_span(black_box("bench.flight.span"), black_box(1_000)))
    });

    flight::set_flight(true);
    group.bench_function("span_enabled", |b| {
        b.iter(|| flight::record_span(black_box("bench.flight.span"), black_box(1_000)))
    });

    flight::set_request("bench-request-0001", 7);
    group.bench_function("span_enabled_with_request", |b| {
        b.iter(|| flight::record_span(black_box("bench.flight.span"), black_box(1_000)))
    });
    flight::clear_request();

    flight::set_flight(true);
    group.finish();
}

fn bench_record_error(c: &mut Criterion) {
    let mut group = c.benchmark_group("flight_record_error");
    group.sample_size(20).measurement_time(Duration::from_secs(2));

    flight::set_flight(true);
    group.bench_function("error_with_request_id", |b| {
        b.iter(|| {
            flight::record_error(
                black_box("serve.fit.internal"),
                Some(black_box("bench-request-0001")),
            )
        })
    });

    group.finish();
}

criterion_group!(benches, bench_record_span, bench_record_error);
criterion_main!(benches);
