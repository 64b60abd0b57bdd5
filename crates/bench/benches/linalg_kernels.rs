//! Micro-benchmarks of the linear-algebra kernels the clustering methods
//! sit on, including the dense-QL-vs-power-iteration scaling that motivates
//! `SpectralClustering`'s eigen-solver switch and serial-vs-parallel
//! comparisons of the kernels wired through `multiclust-parallel`
//! (toggled with `set_threads`, so both variants run the same code path
//! selection logic the library uses in production).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::Duration;

use multiclust_base::kmeans::nearest;
use multiclust_data::seeded_rng;
use multiclust_data::synthetic::{planted_views, ViewSpec};
use multiclust_data::Dataset;
use multiclust_linalg::power::top_eigenpairs;
use multiclust_linalg::vector::sq_dist;
use multiclust_linalg::{Matrix, SymmetricEigen, Svd};
use rand::Rng;

fn random_symmetric(n: usize, seed: u64) -> Matrix {
    let mut rng = seeded_rng(seed);
    let mut a = Matrix::from_fn(n, n, |_, _| rng.gen::<f64>() - 0.5);
    a.symmetrize();
    a
}

fn bench_eigen_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("linalg_eigen");
    group.sample_size(10).measurement_time(Duration::from_secs(3));
    for &n in &[32usize, 96, 192] {
        let a = random_symmetric(n, 6001);
        group.bench_with_input(BenchmarkId::new("dense_full", n), &a, |b, a| {
            b.iter(|| black_box(SymmetricEigen::new(black_box(a))))
        });
        group.bench_with_input(BenchmarkId::new("power_top3", n), &a, |b, a| {
            b.iter(|| {
                let mut rng = seeded_rng(6002);
                black_box(top_eigenpairs(
                    black_box(a),
                    3,
                    a.frobenius_norm(),
                    1e-8,
                    300,
                    &mut rng,
                ))
            })
        });
    }
    group.finish();
}

fn bench_svd(c: &mut Criterion) {
    let mut group = c.benchmark_group("linalg_svd");
    group.sample_size(20).measurement_time(Duration::from_secs(3));
    for &n in &[8usize, 32, 64] {
        let a = {
            let mut rng = seeded_rng(6003);
            Matrix::from_fn(n, n, |_, _| rng.gen::<f64>() - 0.5)
        };
        group.bench_with_input(BenchmarkId::new("full_svd", n), &a, |b, a| {
            b.iter(|| black_box(Svd::new(black_box(a))))
        });
    }
    group.finish();
}

fn bench_matmul(c: &mut Criterion) {
    let mut group = c.benchmark_group("linalg_matmul");
    group.measurement_time(Duration::from_secs(3));
    for &n in &[32usize, 128] {
        let a = random_symmetric(n, 6004);
        let b_mat = random_symmetric(n, 6005);
        group.bench_with_input(BenchmarkId::new("matmul", n), &n, |bch, _| {
            bch.iter(|| black_box(a.matmul(black_box(&b_mat))))
        });
    }
    group.finish();
}

/// Runs `f` once with the pool pinned to one thread and once with the full
/// machine, registering both as criterion benches under `serial`/`parallel`
/// ids.
fn bench_both<F: Fn() + Copy>(
    group: &mut criterion::BenchmarkGroup,
    name: &str,
    param: usize,
    f: F,
) {
    group.bench_with_input(
        BenchmarkId::new(format!("{name}_serial"), param),
        &param,
        |b, _| {
            multiclust_parallel::set_threads(1);
            b.iter(f);
            multiclust_parallel::set_threads(0);
        },
    );
    group.bench_with_input(
        BenchmarkId::new(format!("{name}_parallel"), param),
        &param,
        |b, _| {
            b.iter(f);
        },
    );
}

fn bench_parallel_matmul(c: &mut Criterion) {
    let mut group = c.benchmark_group("parallel_matmul");
    group.sample_size(10).measurement_time(Duration::from_secs(4));
    for &n in &[512usize, 768] {
        let a = random_symmetric(n, 6006);
        let b_mat = random_symmetric(n, 6007);
        bench_both(&mut group, "matmul", n, || {
            black_box(black_box(&a).matmul(black_box(&b_mat)));
        });
    }
    group.finish();
}

fn bench_parallel_pairwise(c: &mut Criterion) {
    let mut group = c.benchmark_group("parallel_pairwise");
    group.sample_size(10).measurement_time(Duration::from_secs(4));
    for &n in &[1_000usize, 2_000] {
        let spec = ViewSpec { dims: 8, clusters: 4, separation: 6.0, noise: 1.0 };
        let data = planted_views(n, &[spec], 0, &mut seeded_rng(6008)).dataset;
        bench_both(&mut group, "distance_matrix", n, || {
            let w = Matrix::par_from_fn(data.len(), data.len(), |i, j| {
                sq_dist(data.row(i), data.row(j))
            });
            black_box(w);
        });
    }
    group.finish();
}

fn bench_parallel_assignment(c: &mut Criterion) {
    let mut group = c.benchmark_group("parallel_kmeans_assignment");
    group.sample_size(10).measurement_time(Duration::from_secs(4));
    for &n in &[10_000usize, 40_000] {
        let spec = ViewSpec { dims: 16, clusters: 8, separation: 6.0, noise: 1.0 };
        let data: Dataset = planted_views(n, &[spec], 0, &mut seeded_rng(6009)).dataset;
        let centers: Vec<Vec<f64>> =
            (0..8).map(|i| data.row(i * (n / 8)).to_vec()).collect();
        bench_both(&mut group, "assignment", n, || {
            let labels = multiclust_parallel::par_map_indexed(data.len(), 64, |i| {
                nearest(data.row(i), &centers).0
            });
            black_box(labels);
        });
    }
    group.finish();
}

criterion_group!(
    linalg,
    bench_eigen_scaling,
    bench_svd,
    bench_matmul,
    bench_parallel_matmul,
    bench_parallel_pairwise,
    bench_parallel_assignment
);
criterion_main!(linalg);
