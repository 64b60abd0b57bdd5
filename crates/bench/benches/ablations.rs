//! Ablation benches for the design choices called out in `DESIGN.md`:
//!
//! * **layout** — flat row-major dataset storage vs nested `Vec<Vec<f64>>`
//!   in the k-means assignment hot loop (the perf-book locality argument);
//! * **pruning** — CLIQUE lattice search with vs without apriori pruning
//!   (slide 71).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Duration;

use multiclust_data::seeded_rng;
use multiclust_data::synthetic::{planted_views, ViewSpec};
use multiclust_linalg::vector::sq_dist;
use multiclust_subspace::Clique;

fn bench_layout(c: &mut Criterion) {
    let spec = ViewSpec { dims: 16, clusters: 4, separation: 6.0, noise: 1.0 };
    let p = planted_views(2_000, &[spec], 0, &mut seeded_rng(7001));
    let flat = p.dataset;
    let nested: Vec<Vec<f64>> = flat.rows().map(<[f64]>::to_vec).collect();
    let centers: Vec<Vec<f64>> = (0..4).map(|i| flat.row(i * 17).to_vec()).collect();

    let mut group = c.benchmark_group("ablation_layout");
    group.measurement_time(Duration::from_secs(3));
    group.bench_function("flat_row_major", |b| {
        b.iter(|| {
            let mut acc = 0usize;
            for row in flat.rows() {
                let mut best = (0usize, f64::INFINITY);
                for (ci, center) in centers.iter().enumerate() {
                    let d = sq_dist(row, center);
                    if d < best.1 {
                        best = (ci, d);
                    }
                }
                acc += best.0;
            }
            black_box(acc)
        })
    });
    group.bench_function("nested_vec_of_vec", |b| {
        b.iter(|| {
            let mut acc = 0usize;
            for row in &nested {
                let mut best = (0usize, f64::INFINITY);
                for (ci, center) in centers.iter().enumerate() {
                    let d = sq_dist(row, center);
                    if d < best.1 {
                        best = (ci, d);
                    }
                }
                acc += best.0;
            }
            black_box(acc)
        })
    });
    group.finish();
}

fn bench_pruning(c: &mut Criterion) {
    let spec = ViewSpec { dims: 3, clusters: 3, separation: 10.0, noise: 0.4 };
    let p = planted_views(300, &[spec], 5, &mut seeded_rng(7002));
    let data = p.dataset.min_max_normalized();
    let clique = Clique::new(6, 0.05);

    let mut group = c.benchmark_group("ablation_pruning");
    group.sample_size(10).measurement_time(Duration::from_secs(3));
    group.bench_function("apriori_pruned", |b| {
        b.iter(|| black_box(clique.fit(black_box(&data))))
    });
    group.bench_function("exhaustive", |b| {
        b.iter(|| black_box(clique.fit_unpruned(black_box(&data), data.dims())))
    });
    group.finish();
}

criterion_group!(ablations, bench_layout, bench_pruning);
criterion_main!(ablations);
