//! The deterministic-parallelism contract: every kernel wired through
//! `multiclust-parallel` must produce **bit-identical** results at any
//! thread count. Chunk boundaries depend only on the input size, chunk
//! results are combined in chunk order, and order-sensitive reductions walk
//! the same chunks serially — so one thread and four threads are the same
//! computation, merely scheduled differently.

use multiclust::alternative::Coala;
use multiclust::base::{KMeans, SpectralClustering};
use multiclust::core::Clustering;
use multiclust::data::seeded_rng;
use multiclust::data::synthetic::{four_blob_square, gaussian_blobs, planted_views, ViewSpec};
use multiclust::linalg::top_eigenpairs;
use multiclust::parallel::set_threads;
use multiclust::subspace::{Clique, Enclus, Ris, Schism};

/// Runs `f` under a pinned pool size, restoring the default afterwards
/// even on panic. The pool size is process-global and the test harness
/// runs tests concurrently, so a lock serialises every pinned region.
fn with_threads<T>(threads: usize, f: impl FnOnce() -> T) -> T {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    let _guard = LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    struct Restore;
    impl Drop for Restore {
        fn drop(&mut self) {
            set_threads(0);
        }
    }
    let _restore = Restore;
    set_threads(threads);
    f()
}

#[test]
fn spectral_embedding_bit_identical_across_thread_counts() {
    let (data, _) = gaussian_blobs(
        &[vec![0.0, 0.0], vec![8.0, 0.0], vec![0.0, 8.0]],
        1.0,
        40,
        &mut seeded_rng(901),
    );
    let spectral = SpectralClustering::new(3, 1.5);
    let serial = with_threads(1, || spectral.embed(&data));
    let parallel = with_threads(4, || spectral.embed(&data));
    for (a, b) in serial.rows().zip(parallel.rows()) {
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.to_bits(), y.to_bits(), "embedding differs: {x} vs {y}");
        }
    }
}

#[test]
fn top_eigenpairs_bit_identical_across_thread_counts() {
    let (data, _) = gaussian_blobs(
        &[vec![0.0, 0.0], vec![8.0, 0.0], vec![0.0, 8.0]],
        1.0,
        40,
        &mut seeded_rng(901),
    );
    let norm_w = SpectralClustering::new(3, 1.5).normalized_affinity(&data);
    let solve = || top_eigenpairs(&norm_w, 3, 1.0, 1e-10, 500, &mut seeded_rng(904));
    let serial = with_threads(1, solve);
    let parallel = with_threads(4, solve);
    assert_eq!(serial.iterations, parallel.iterations);
    for (x, y) in serial.values.iter().zip(&parallel.values) {
        assert_eq!(x.to_bits(), y.to_bits(), "eigenvalue differs: {x} vs {y}");
    }
    for (x, y) in serial.vectors.as_slice().iter().zip(parallel.vectors.as_slice()) {
        assert_eq!(x.to_bits(), y.to_bits(), "eigenvector differs: {x} vs {y}");
    }
}

#[test]
fn kmeans_labels_and_sse_bit_identical_across_thread_counts() {
    let (data, _) = gaussian_blobs(
        &[vec![0.0; 4], vec![6.0; 4], vec![-6.0; 4]],
        1.2,
        120,
        &mut seeded_rng(902),
    );
    let km = KMeans::new(3).with_restarts(5);
    let serial = with_threads(1, || km.fit(&data, &mut seeded_rng(903)));
    let parallel = with_threads(4, || km.fit(&data, &mut seeded_rng(903)));
    assert_eq!(serial.clustering, parallel.clustering);
    assert_eq!(serial.sse.to_bits(), parallel.sse.to_bits());
    assert_eq!(serial.iterations, parallel.iterations);
    for (a, b) in serial.centroids.iter().zip(&parallel.centroids) {
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.to_bits(), y.to_bits(), "centroid differs");
        }
    }
}

#[test]
fn coala_merges_bit_identical_across_thread_counts() {
    let fb = four_blob_square(12, 10.0, 0.6, &mut seeded_rng(904));
    let given = Clustering::from_labels(&fb.horizontal);
    let coala = Coala::new(2, 0.8);
    let serial = with_threads(1, || coala.fit(&fb.dataset, &given));
    let parallel = with_threads(4, || coala.fit(&fb.dataset, &given));
    assert_eq!(serial.clustering, parallel.clustering);
    assert_eq!(serial.quality_merges, parallel.quality_merges);
    assert_eq!(serial.dissimilarity_merges, parallel.dissimilarity_merges);
}

/// CLIQUE, SCHISM, ENCLUS and RIS evaluate each lattice level, and CLIQUE
/// and SCHISM extract each subspace's regions, on the pool: the dense
/// subspaces (in order), the lattice statistics, the clusters (objects and
/// dimensions, in order) and ENCLUS's entropies and interests (to the bit)
/// are the same at one, two and four threads.
#[test]
fn subspace_lattices_bit_identical_across_thread_counts() {
    let views = [
        ViewSpec { dims: 3, clusters: 3, separation: 8.0, noise: 0.5 },
        ViewSpec { dims: 3, clusters: 2, separation: 8.0, noise: 0.5 },
    ];
    let data = planted_views(300, &views, 2, &mut seeded_rng(905)).dataset.min_max_normalized();
    assert_eq!(data.dims(), 8);
    let run = || {
        let clique = Clique::new(6, 0.05).fit(&data);
        let schism = Schism::new(6, 0.01).fit(&data);
        let enclus = Enclus::new(6, 3.0, 0.0).fit(&data);
        let ris = Ris::new(0.05, 10).fit(&data);
        let clusters = |cs: &[multiclust::core::subspace::SubspaceCluster]| {
            cs.iter().map(|c| (c.objects().to_vec(), c.dims().to_vec())).collect::<Vec<_>>()
        };
        (
            (clique.dense_subspaces, clique.stats, clusters(&clique.clusters)),
            (schism.interesting_subspaces, schism.stats, clusters(&schism.clusters)),
            (
                enclus
                    .ranked
                    .iter()
                    .map(|r| (r.dims.clone(), r.entropy.to_bits(), r.interest.to_bits()))
                    .collect::<Vec<_>>(),
                enclus.low_entropy_subspaces,
                enclus.stats,
            ),
            (
                ris.ranked
                    .iter()
                    .map(|r| (r.dims.clone(), r.core_objects, r.quality.to_bits()))
                    .collect::<Vec<_>>(),
                ris.stats,
            ),
        )
    };
    let serial = with_threads(1, run);
    for threads in [2, 4] {
        assert_eq!(with_threads(threads, run), serial, "{threads} threads");
    }
}
