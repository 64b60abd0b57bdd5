//! Micro-benchmarks of the shared distance-kernel engine against its
//! naive reference: the condensed pairwise matrix builder and the
//! bound-pruned nearest-centre assignment (cold scan and warm
//! drift-tracking rounds). Results are bit-identical between the two
//! sides — see the `kernel-equivalence` invariant — so this measures two
//! implementations of the same function.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::Duration;

use multiclust_data::seeded_rng;
use multiclust_linalg::kernels::{reference, sq_dist_matrix, sq_norms, NearestAssign};
use rand::Rng;

/// Flat row-major blob-ish data: `k` jittered hypercube-corner centres.
fn flat_blobs(n: usize, d: usize, k: usize, seed: u64) -> (Vec<f64>, Vec<Vec<f64>>) {
    let mut rng = seeded_rng(seed);
    let centers: Vec<Vec<f64>> = (0..k)
        .map(|c| {
            (0..d)
                .map(|dim| (((c >> (dim % 4)) & 1) as f64) * 8.0 + rng.gen_range(-0.5..0.5))
                .collect()
        })
        .collect();
    let mut flat = Vec::with_capacity(n * d);
    for i in 0..n {
        let c = &centers[i % k];
        flat.extend(c.iter().map(|&mu| mu + 0.6 * rng.gen_range(-1.0..1.0)));
    }
    (flat, centers)
}

fn bench_matrix(c: &mut Criterion) {
    let mut group = c.benchmark_group("distance_matrix");
    group.sample_size(10).measurement_time(Duration::from_secs(3));
    for &n in &[256usize, 768] {
        let (flat, _) = flat_blobs(n, 8, 16, 7001);
        group.bench_with_input(BenchmarkId::new("blocked", n), &flat, |b, flat| {
            b.iter(|| black_box(sq_dist_matrix(8, black_box(flat))))
        });
        group.bench_with_input(BenchmarkId::new("naive", n), &flat, |b, flat| {
            b.iter(|| black_box(reference::sq_dist_matrix(8, black_box(flat))))
        });
    }
    group.finish();
}

fn bench_assignment(c: &mut Criterion) {
    let mut group = c.benchmark_group("nearest_assign");
    group.sample_size(10).measurement_time(Duration::from_secs(3));
    for &n in &[2048usize, 8192] {
        let (flat, centers) = flat_blobs(n, 8, 16, 7002);
        let norms = sq_norms(8, &flat);
        // Warm rounds: centres drift slightly, the regime Lloyd iterations
        // live in once past the first pass.
        group.bench_with_input(BenchmarkId::new("blocked_pruned", n), &flat, |b, flat| {
            b.iter(|| {
                let mut assigner = NearestAssign::new(n);
                let mut cs = centers.clone();
                for round in 0..4 {
                    black_box(assigner.assign(8, flat, &norms, &cs));
                    for c in cs.iter_mut() {
                        for x in c.iter_mut() {
                            *x += 1e-3 * (round as f64 + 1.0);
                        }
                    }
                }
            })
        });
        group.bench_with_input(BenchmarkId::new("naive_exhaustive", n), &flat, |b, flat| {
            b.iter(|| {
                let mut cs = centers.clone();
                for round in 0..4 {
                    for i in 0..n {
                        black_box(reference::nearest(&flat[i * 8..(i + 1) * 8], &cs));
                    }
                    for c in cs.iter_mut() {
                        for x in c.iter_mut() {
                            *x += 1e-3 * (round as f64 + 1.0);
                        }
                    }
                }
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_matrix, bench_assignment);
criterion_main!(benches);
