//! Multi-view spectral clustering (de Sa 2005; Zhou & Burges 2007) —
//! slide 100's "based on different cluster definitions: e.g. spectral
//! clustering".
//!
//! Each given view induces its own Gaussian affinity; the views are
//! combined as a convex combination of the per-view *normalised*
//! affinities (the mixture-of-random-walks interpretation of
//! Zhou & Burges), and the consensus partition is read off the combined
//! spectral embedding. Per-view weights default to uniform; a reliability
//! weighting is exposed because the tutorial's multi-source section keeps
//! stressing unreliable sources.

use multiclust_core::Clustering;
use multiclust_data::MultiViewDataset;
use multiclust_linalg::{Matrix, SymmetricEigen};
use rand::rngs::StdRng;

use multiclust_base::spectral::embedding;
use multiclust_base::{KMeans, SpectralClustering};

/// Multi-view spectral clustering configuration.
#[derive(Clone, Debug)]
pub struct MultiViewSpectral {
    k: usize,
    /// One Gaussian bandwidth per view.
    sigmas: Vec<f64>,
    /// Convex per-view weights (normalised internally); `None` = uniform.
    weights: Option<Vec<f64>>,
}

impl MultiViewSpectral {
    /// `k` clusters with one affinity bandwidth per view.
    ///
    /// # Panics
    /// Panics if `sigmas` is empty or non-positive.
    pub fn new(k: usize, sigmas: Vec<f64>) -> Self {
        assert!(k >= 1, "k must be at least 1");
        assert!(!sigmas.is_empty(), "one σ per view required");
        assert!(sigmas.iter().all(|&s| s > 0.0), "σ must be positive");
        Self { k, sigmas, weights: None }
    }

    /// Sets per-view reliability weights (any non-negative values; they
    /// are normalised to sum 1).
    ///
    /// # Panics
    /// Panics if the weights are all zero or negative.
    #[must_use]
    pub fn with_weights(mut self, weights: Vec<f64>) -> Self {
        assert!(weights.iter().all(|&w| w >= 0.0), "weights must be non-negative");
        assert!(weights.iter().sum::<f64>() > 0.0, "weights must not all be zero");
        self.weights = Some(weights);
        self
    }

    /// Clusters the multi-view dataset through the combined embedding.
    ///
    /// # Panics
    /// Panics when the σ (or weight) count differs from the view count.
    pub fn fit(&self, mv: &MultiViewDataset, rng: &mut StdRng) -> Clustering {
        assert_eq!(self.sigmas.len(), mv.num_views(), "one σ per view required");
        let _span = multiclust_telemetry::span("multiview.fit");
        let n = mv.len();
        let weights: Vec<f64> = match &self.weights {
            Some(w) => {
                assert_eq!(w.len(), mv.num_views(), "one weight per view required");
                let s: f64 = w.iter().sum();
                w.iter().map(|&x| x / s).collect()
            }
            None => vec![1.0 / mv.num_views() as f64; mv.num_views()],
        };
        // Convex combination of normalised affinities.
        let mut combined = Matrix::zeros(n, n);
        for (v, (&sigma, &weight)) in self.sigmas.iter().zip(&weights).enumerate() {
            multiclust_telemetry::event(
                "multiview.view",
                &[("view", v as f64), ("weight", weight)],
            );
            if weight == 0.0 {
                continue;
            }
            let norm_w = SpectralClustering::new(self.k, sigma).normalized_affinity(mv.view(v));
            combined = &combined + &norm_w.scaled(weight);
        }
        let eig = SymmetricEigen::new(&combined);
        // Objective trace: the eigengap behind the k-dimensional embedding
        // — how cleanly the combined walk separates k blocks.
        if multiclust_telemetry::enabled() && eig.values.len() > self.k {
            multiclust_telemetry::event(
                "multiview.embed",
                &[("eigengap", eig.values[self.k - 1] - eig.values[self.k])],
            );
        }
        let embedded = embedding(&eig.vectors, self.k);
        KMeans::new(self.k).with_restarts(4).fit(&embedded, rng).clustering
    }
}

impl MultiViewSpectral {
    /// Taxonomy card (slide 100's spectral multi-source family).
    pub fn card() -> multiclust_core::taxonomy::AlgorithmCard {
        use multiclust_core::taxonomy::*;
        AlgorithmCard {
            name: "MV-Spectral",
            reference: "Zhou & Burges 2007",
            space: SearchSpace::MultiSource,
            processing: Processing::Simultaneous,
            knowledge: GivenKnowledge::None,
            solutions: Solutions::One,
            subspace: SubspaceAwareness::GivenViews,
            flexibility: Flexibility::Specialized,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use multiclust_core::measures::diss::adjusted_rand_index;
    use multiclust_data::synthetic::gauss;
    use multiclust_data::Dataset;
    use multiclust_data::seeded_rng;
    use rand::Rng;

    /// Each view separates only part of the structure: view 1 splits
    /// {0} vs {1,2}, view 2 splits {0,1} vs {2}. Only the combination
    /// resolves all three groups.
    fn complementary_views(seed: u64) -> (MultiViewDataset, Clustering) {
        let mut rng = seeded_rng(seed);
        let mut v1 = Dataset::with_dims(1);
        let mut v2 = Dataset::with_dims(1);
        let mut labels = Vec::new();
        for _ in 0..150 {
            let c = rng.gen_range(0..3usize);
            labels.push(c);
            let b1 = if c == 0 { 0.0 } else { 8.0 }; // groups 1,2 merged
            let b2 = if c == 2 { 8.0 } else { 0.0 }; // groups 0,1 merged
            v1.push_row(&[b1 + gauss(&mut rng)]);
            v2.push_row(&[b2 + gauss(&mut rng)]);
        }
        (
            MultiViewDataset::new(vec![v1, v2]),
            Clustering::from_labels(&labels),
        )
    }

    #[test]
    fn combination_resolves_what_single_views_cannot() {
        let (mv, truth) = complementary_views(291);
        let mut rng = seeded_rng(292);
        let combined = MultiViewSpectral::new(3, vec![1.5, 1.5]).fit(&mv, &mut rng);
        let ari_combined = adjusted_rand_index(&combined, &truth);
        assert!(ari_combined > 0.9, "combined views resolve 3 groups: {ari_combined}");

        // A single view can separate at most 2 of the 3 groups.
        let single = multiclust_base::SpectralClustering::new(3, 1.5)
            .fit(mv.view(0), &mut rng);
        let ari_single = adjusted_rand_index(&single, &truth);
        assert!(
            ari_single < ari_combined,
            "single view is strictly worse: {ari_single} vs {ari_combined}"
        );
    }

    #[test]
    fn zero_weight_ignores_a_view() {
        let (mv, truth) = complementary_views(293);
        let mut rng = seeded_rng(294);
        // All weight on view 1 ⇒ behaves like single-view spectral on it:
        // group 1 and 2 cannot be separated.
        let c = MultiViewSpectral::new(3, vec![1.5, 1.5])
            .with_weights(vec![1.0, 0.0])
            .fit(&mv, &mut rng);
        let ari = adjusted_rand_index(&c, &truth);
        assert!(ari < 0.9, "view 2's information is gone: {ari}");
    }

    #[test]
    fn reliability_weights_downweight_a_noise_view() {
        let mut rng = seeded_rng(295);
        // View 1 is informative, view 2 is pure noise.
        let mut v1 = Dataset::with_dims(1);
        let mut v2 = Dataset::with_dims(1);
        let mut labels = Vec::new();
        for _ in 0..120 {
            let c = usize::from(rng.gen::<bool>());
            labels.push(c);
            v1.push_row(&[c as f64 * 10.0 + gauss(&mut rng)]);
            v2.push_row(&[10.0 * (rng.gen::<f64>() - 0.5)]);
        }
        let mv = MultiViewDataset::new(vec![v1, v2]);
        let truth = Clustering::from_labels(&labels);
        let weighted = MultiViewSpectral::new(2, vec![1.5, 1.5])
            .with_weights(vec![0.95, 0.05])
            .fit(&mv, &mut rng);
        assert!(
            adjusted_rand_index(&weighted, &truth) > 0.9,
            "downweighting the noise view preserves the structure"
        );
    }

    #[test]
    #[should_panic(expected = "one σ per view")]
    fn sigma_count_must_match() {
        let v = Dataset::from_rows(&[vec![0.0], vec![1.0]]);
        let mv = MultiViewDataset::new(vec![v.clone(), v]);
        let mut rng = seeded_rng(296);
        let _ = MultiViewSpectral::new(2, vec![1.0]).fit(&mv, &mut rng);
    }
}
