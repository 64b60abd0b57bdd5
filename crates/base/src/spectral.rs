//! Normalised spectral clustering (Ng, Jordan & Weiss 2001).
//!
//! The cluster definition behind mSC (Niu & Dy 2010, slide 90), which
//! enforces multiple non-redundant spectral clustering views. Affinities
//! are Gaussian, the embedding uses the top eigenvectors of the normalised
//! affinity `D^{-1/2} W D^{-1/2}`, rows are re-normalised and k-means runs
//! in the embedded space.

use multiclust_core::Clustering;
use multiclust_data::Dataset;
use multiclust_linalg::kernels::{self, KernelMode};
use multiclust_linalg::power::top_eigenpairs;
use multiclust_linalg::vector::{normalize, sq_dist};
use multiclust_linalg::{Matrix, SymmetricEigen};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::kmeans::KMeans;
use crate::Clusterer;

/// Spectral clustering configuration.
#[derive(Clone, Copy, Debug)]
pub struct SpectralClustering {
    k: usize,
    sigma: f64,
    /// Above this many objects the embedding switches from a full
    /// tridiagonal-QL eigendecomposition (`O(n³)`) to block power iteration
    /// for just the top `k` eigenvectors (`O(k·n²)` per sweep). The default
    /// is the measured crossover of the two solvers at `k = 4`.
    dense_eigen_limit: usize,
}

impl SpectralClustering {
    /// `k` clusters with Gaussian affinity bandwidth `sigma`.
    ///
    /// # Panics
    /// Panics unless `k ≥ 1` and `sigma > 0`.
    pub fn new(k: usize, sigma: f64) -> Self {
        assert!(k >= 1, "k must be at least 1");
        assert!(sigma > 0.0, "sigma must be positive");
        Self { k, sigma, dense_eigen_limit: 600 }
    }

    /// Overrides the size above which the top-k power-iteration solver is
    /// used instead of the full tridiagonal-QL decomposition.
    #[must_use]
    pub fn with_dense_eigen_limit(mut self, limit: usize) -> Self {
        self.dense_eigen_limit = limit;
        self
    }

    /// The Gaussian affinity matrix `W` with zero diagonal.
    ///
    /// The blocked kernel mode delegates to the fused
    /// [`kernels::gaussian_affinity_matrix`] builder: panel-packed exact
    /// distance rows, an underflow screen that certifies far pairs as exact
    /// `+0.0` without calling `exp`, and a tiled mirror pass — each pair is
    /// evaluated once and the `kernels.estimates` counter ticks per pair.
    /// The naive reference recomputes each pair per cell. Both paths yield
    /// the same bits: the panel rows equal the subtractive `sq_dist`, and
    /// `sq_dist(x, y) == sq_dist(y, x)` exactly in IEEE arithmetic, so the
    /// mirrored value equals the directly computed one.
    pub fn affinity(&self, data: &Dataset) -> Matrix {
        let n = data.len();
        let denom = 2.0 * self.sigma * self.sigma;
        if kernels::kernel_mode() != KernelMode::Naive {
            return kernels::gaussian_affinity_matrix(data.dims(), data.as_slice(), denom);
        }
        if multiclust_parallel::current_threads() == 1 {
            let mut w = Matrix::zeros(n, n);
            for i in 0..n {
                for j in (i + 1)..n {
                    let a = (-sq_dist(data.row(i), data.row(j)) / denom).exp();
                    w[(i, j)] = a;
                    w[(j, i)] = a;
                }
            }
            return w;
        }
        Matrix::par_from_fn(n, n, |i, j| {
            if i == j {
                0.0
            } else {
                (-sq_dist(data.row(i), data.row(j)) / denom).exp()
            }
        })
    }

    /// The normalised affinity `D^{-1/2} W D^{-1/2}` of [`Self::affinity`].
    ///
    /// Isolated objects (zero degree) get a zero row and column.
    pub fn normalized_affinity(&self, data: &Dataset) -> Matrix {
        let n = data.len();
        let mut w = {
            let _span = multiclust_telemetry::span("affinity");
            self.affinity(data)
        };
        // D^{-1/2}: per-row degree sums are independent, so they parallelise
        // without changing the in-row summation order.
        let dinv_sqrt: Vec<f64> =
            multiclust_parallel::par_map_indexed(n, (1 << 14) / n.max(1) + 1, |i| {
                let deg: f64 = (0..n).map(|j| w[(i, j)]).sum();
                if deg > 0.0 {
                    1.0 / deg.sqrt()
                } else {
                    0.0
                }
            });
        // The blocked mode scales the affinity matrix in place, saving the
        // second `n×n` allocation (for bench-scale n this is megabytes of
        // traffic); naive keeps the historical out-of-place build as the
        // reference. Both evaluate `dinv[i] * w * dinv[j]` in the same
        // association order, so the scaled entries are bit-identical either
        // way.
        if kernels::kernel_mode() != KernelMode::Naive {
            multiclust_parallel::par_chunks_mut(w.as_mut_slice(), n, |start, row| {
                let di = dinv_sqrt[start / n];
                for (j, v) in row.iter_mut().enumerate() {
                    *v = di * *v * dinv_sqrt[j];
                }
            });
            w
        } else {
            Matrix::par_from_fn(n, n, |i, j| dinv_sqrt[i] * w[(i, j)] * dinv_sqrt[j])
        }
    }

    /// The spectral embedding: rows of the top-`k` eigenvectors of
    /// `D^{-1/2} W D^{-1/2}`, row-normalised.
    pub fn embed(&self, data: &Dataset) -> Dataset {
        let _span = multiclust_telemetry::span("spectral.embed");
        let norm_w = self.normalized_affinity(data);
        // Up to the limit the full tridiagonal-QL decomposition is the
        // faster solver; beyond it, block power iteration computes only the
        // k needed vectors (the normalised affinity's spectrum lies in
        // [-1, 1], so shift = 1 makes the algebraically largest eigenvalues
        // dominant in magnitude).
        if data.len() <= self.dense_eigen_limit {
            embedding(&SymmetricEigen::new(&norm_w).vectors, self.k)
        } else {
            // The start block only seeds a subspace iteration; a fixed
            // internal seed keeps `embed` deterministic.
            let mut rng = StdRng::seed_from_u64(0x5eed_cafe);
            let top = top_eigenpairs(&norm_w, self.k, 1.0, 1e-10, 500, &mut rng);
            embedding(&top.vectors, self.k)
        }
    }

    /// Clusters the dataset through the spectral embedding.
    pub fn fit(&self, data: &Dataset, rng: &mut StdRng) -> Clustering {
        let _span = multiclust_telemetry::span("spectral.fit");
        let embedded = self.embed(data);
        KMeans::new(self.k)
            .with_restarts(4)
            .fit(&embedded, rng)
            .clustering
    }
}

/// The spectral embedding read off eigenvector columns sorted by
/// descending eigenvalue: row `i` is object `i`'s entries in the first `k`
/// columns, normalised to unit length. An isolated object (an all-zero
/// row) is parked at the fixed unit vector `e₀`.
pub fn embedding(vectors: &Matrix, k: usize) -> Dataset {
    let rows: Vec<Vec<f64>> = (0..vectors.rows())
        .map(|i| {
            let mut row = vectors.row(i)[..k].to_vec();
            if !normalize(&mut row) {
                row[0] = 1.0;
            }
            row
        })
        .collect();
    Dataset::from_rows(&rows)
}

impl Clusterer for SpectralClustering {
    fn cluster(&self, data: &Dataset, rng: &mut StdRng) -> Clustering {
        self.fit(data, rng)
    }

    fn name(&self) -> &'static str {
        "spectral"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use multiclust_core::measures::diss::adjusted_rand_index;
    use multiclust_data::synthetic::{gaussian_blobs, ring2d};
    use multiclust_data::seeded_rng;

    #[test]
    fn separates_gaussian_blobs() {
        let mut rng = seeded_rng(61);
        let (data, truth) = gaussian_blobs(
            &[vec![0.0, 0.0], vec![10.0, 10.0]],
            0.8,
            30,
            &mut rng,
        );
        let c = SpectralClustering::new(2, 2.0).fit(&data, &mut rng);
        let truth_c = Clustering::from_labels(&truth);
        assert!(adjusted_rand_index(&c, &truth_c) > 0.99);
    }

    #[test]
    fn separates_ring_from_center_blob() {
        // The classic non-convex case where k-means fails but spectral
        // clustering succeeds.
        let mut rng = seeded_rng(62);
        let ring = ring2d(120, (0.0, 0.0), 10.0, 0.2, &mut rng);
        let (blob, _) = gaussian_blobs(&[vec![0.0, 0.0]], 0.8, 60, &mut rng);
        let mut data = ring.clone();
        for row in blob.rows() {
            data.push_row(row);
        }
        let truth: Vec<usize> = (0..180).map(|i| usize::from(i >= 120)).collect();
        let truth_c = Clustering::from_labels(&truth);

        let spectral = SpectralClustering::new(2, 1.5).fit(&data, &mut rng);
        let kmeans = KMeans::new(2).with_restarts(4).fit(&data, &mut rng).clustering;
        let ari_spectral = adjusted_rand_index(&spectral, &truth_c);
        let ari_kmeans = adjusted_rand_index(&kmeans, &truth_c);
        assert!(ari_spectral > 0.95, "spectral ARI {ari_spectral}");
        assert!(ari_kmeans < 0.5, "k-means cannot cut the ring: {ari_kmeans}");
    }

    #[test]
    fn affinity_is_symmetric_zero_diagonal() {
        let mut rng = seeded_rng(63);
        let (data, _) = gaussian_blobs(&[vec![0.0, 0.0]], 1.0, 10, &mut rng);
        let w = SpectralClustering::new(2, 1.0).affinity(&data);
        assert!(w.is_symmetric(0.0));
        for i in 0..10 {
            assert_eq!(w[(i, i)], 0.0);
        }
    }

    /// The default (engine-tier) affinity path must reproduce the naive
    /// per-pair Gaussian bit-for-bit. The naive expectation is computed
    /// inline here rather than by flipping the process-global kernel mode,
    /// so this test cannot race with concurrently running ones.
    #[test]
    fn affinity_engine_tier_matches_naive_bits() {
        let mut rng = seeded_rng(68);
        let (data, _) = gaussian_blobs(
            &[vec![0.0, 0.0, 0.0], vec![6.0, -2.0, 3.0]],
            1.1,
            45,
            &mut rng,
        );
        let sigma = 1.3;
        let denom = 2.0 * sigma * sigma;
        let w = SpectralClustering::new(2, sigma).affinity(&data);
        for i in 0..data.len() {
            for j in 0..data.len() {
                let want = if i == j {
                    0.0
                } else {
                    (-sq_dist(data.row(i), data.row(j)) / denom).exp()
                };
                assert_eq!(
                    w[(i, j)].to_bits(),
                    want.to_bits(),
                    "entry ({i}, {j}): {} vs {}",
                    w[(i, j)],
                    want
                );
            }
        }
    }

    #[test]
    fn embedding_rows_unit_length() {
        let mut rng = seeded_rng(64);
        let (data, _) = gaussian_blobs(
            &[vec![0.0, 0.0], vec![5.0, 5.0]],
            1.0,
            15,
            &mut rng,
        );
        let e = SpectralClustering::new(2, 1.0).embed(&data);
        for row in e.rows() {
            let norm2: f64 = row.iter().map(|x| x * x).sum();
            assert!((norm2 - 1.0).abs() < 1e-9);
        }
    }
}

#[cfg(test)]
mod power_path_tests {
    use super::*;
    use multiclust_core::measures::diss::adjusted_rand_index;
    use multiclust_data::synthetic::gaussian_blobs;
    use multiclust_data::seeded_rng;

    /// The power-iteration path and the full dense-eigensolver path must
    /// agree on the final clustering.
    #[test]
    fn power_iteration_path_matches_jacobi_path() {
        let mut rng = seeded_rng(65);
        let (data, truth) = gaussian_blobs(
            &[vec![0.0, 0.0], vec![12.0, 0.0], vec![0.0, 12.0]],
            0.8,
            40,
            &mut rng,
        );
        let truth_c = Clustering::from_labels(&truth);
        // Force the power path by dropping the limit below n = 120.
        let via_power = SpectralClustering::new(3, 2.0)
            .with_dense_eigen_limit(10)
            .fit(&data, &mut seeded_rng(66));
        let via_dense = SpectralClustering::new(3, 2.0)
            .with_dense_eigen_limit(10_000)
            .fit(&data, &mut seeded_rng(66));
        assert!(adjusted_rand_index(&via_power, &truth_c) > 0.99);
        assert_eq!(
            adjusted_rand_index(&via_power, &via_dense),
            1.0,
            "both eigen paths induce the same partition"
        );
    }

    /// `embed` stays deterministic on the power path (fixed internal seed).
    #[test]
    fn power_path_embedding_is_deterministic() {
        let mut rng = seeded_rng(67);
        let (data, _) = gaussian_blobs(&[vec![0.0], vec![8.0]], 1.0, 30, &mut rng);
        let s = SpectralClustering::new(2, 1.5).with_dense_eigen_limit(5);
        assert_eq!(s.embed(&data), s.embed(&data));
    }
}
