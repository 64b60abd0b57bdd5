//! RIS — Ranking Interesting Subspaces (Kailing, Kriegel, Kröger & Wanka
//! 2003) — slide 88's second subspace-search representative.
//!
//! Like ENCLUS, RIS decouples subspace detection from cluster detection,
//! but scores subspaces with a *density-based* quality instead of a grid
//! entropy: count how many objects are core objects (≥ `min_pts`
//! neighbours within `ε`) in the subspace, and how many neighbours those
//! core objects accumulate, then normalise by the count a uniform
//! distribution would produce — otherwise low-dimensional subspaces always
//! look denser. Subspaces whose normalised quality exceeds a threshold are
//! ranked and handed to any clustering algorithm.
//!
//! The core-object count is anti-monotone under adding dimensions
//! (neighbourhoods only shrink), so the candidate lattice is searched
//! bottom-up with apriori pruning, reusing [`crate::lattice`].

use multiclust_data::Dataset;
use multiclust_linalg::vector::sq_dist_subspace;

use crate::lattice::{bottom_up_search, LatticeStats};

/// RIS configuration.
#[derive(Clone, Copy, Debug)]
pub struct Ris {
    /// Neighbourhood radius (per subspace, Euclidean over its dims).
    pub eps: f64,
    /// Core-object threshold (neighbours incl. the object itself).
    pub min_pts: usize,
    /// Minimum *normalised* quality for a subspace to be reported
    /// (1.0 = exactly the uniform expectation).
    pub min_quality: f64,
}

/// One ranked subspace.
#[derive(Clone, Debug, PartialEq)]
pub struct RankedDensity {
    /// The subspace's dimensions (sorted).
    pub dims: Vec<usize>,
    /// Number of core objects in the subspace.
    pub core_objects: usize,
    /// Quality: mean neighbourhood size of core objects, divided by the
    /// expected neighbourhood size under a uniform distribution over the
    /// data's bounding box.
    pub quality: f64,
}

/// RIS output.
#[derive(Clone, Debug)]
pub struct RisResult {
    /// Interesting subspaces, sorted by descending quality.
    pub ranked: Vec<RankedDensity>,
    /// Lattice statistics.
    pub stats: LatticeStats,
}

impl Ris {
    /// RIS with neighbourhood radius `ε` and density threshold `min_pts`.
    pub fn new(eps: f64, min_pts: usize) -> Self {
        assert!(eps > 0.0, "ε must be positive");
        assert!(min_pts >= 1, "min_pts must be at least 1");
        Self { eps, min_pts, min_quality: 1.5 }
    }

    /// Sets the normalised quality threshold.
    #[must_use]
    pub fn with_min_quality(mut self, q: f64) -> Self {
        assert!(q >= 0.0, "quality threshold must be non-negative");
        self.min_quality = q;
        self
    }

    /// Number of core objects and total neighbour count in one subspace.
    fn density_profile(&self, data: &Dataset, dims: &[usize]) -> (usize, usize) {
        let n = data.len();
        let eps2 = self.eps * self.eps;
        let mut cores = 0usize;
        let mut neighbor_total = 0usize;
        for i in 0..n {
            let ri = data.row(i);
            let mut count = 0usize;
            for j in 0..n {
                if sq_dist_subspace(ri, data.row(j), dims) <= eps2 {
                    count += 1;
                }
            }
            if count >= self.min_pts {
                cores += 1;
                neighbor_total += count;
            }
        }
        (cores, neighbor_total)
    }

    /// Expected neighbourhood size under a uniform distribution: the
    /// fraction of the bounding box covered by an `ε`-ball (clamped
    /// per-dimension) times `n`. A product of per-dimension interval
    /// fractions — the standard RIS normalisation device.
    fn expected_neighbors(&self, data: &Dataset, dims: &[usize]) -> f64 {
        let Some(bounds) = data.bounds() else { return 1.0 };
        let n = data.len() as f64;
        let mut fraction = 1.0;
        for &d in dims {
            let (lo, hi) = bounds[d];
            let extent = (hi - lo).max(f64::MIN_POSITIVE);
            fraction *= (2.0 * self.eps / extent).min(1.0);
        }
        (n * fraction).max(1.0)
    }

    /// Runs the ranking.
    pub fn fit(&self, data: &Dataset) -> RisResult {
        let has_core = |dims: &[usize]| -> bool {
            self.density_profile(data, dims).0 > 0
        };
        let lattice = bottom_up_search(data.dims(), has_core);
        let mut ranked: Vec<RankedDensity> = lattice
            .subspaces
            .iter()
            .map(|dims| {
                let (cores, neighbors) = self.density_profile(data, dims);
                let mean_neighbors = if cores == 0 {
                    0.0
                } else {
                    neighbors as f64 / cores as f64
                };
                let quality = mean_neighbors / self.expected_neighbors(data, dims);
                RankedDensity { dims: dims.clone(), core_objects: cores, quality }
            })
            .filter(|r| r.quality >= self.min_quality)
            .collect();
        ranked.sort_by(|a, b| b.quality.partial_cmp(&a.quality).unwrap());
        RisResult { ranked, stats: lattice.stats }
    }
}

impl Ris {
    /// Taxonomy card (slide 88's density-based subspace search).
    pub fn card() -> multiclust_core::taxonomy::AlgorithmCard {
        use multiclust_core::taxonomy::*;
        AlgorithmCard {
            name: "RIS",
            reference: "Kailing et al. 2003",
            space: SearchSpace::Subspaces,
            processing: Processing::Simultaneous,
            knowledge: GivenKnowledge::None,
            solutions: Solutions::AtLeastTwo,
            subspace: SubspaceAwareness::NoDissimilarity,
            flexibility: Flexibility::ExchangeableDefinition,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use multiclust_data::synthetic::{planted_views, uniform, ViewSpec};
    use multiclust_data::seeded_rng;

    fn planted(seed: u64) -> Dataset {
        let mut rng = seeded_rng(seed);
        let spec = ViewSpec { dims: 2, clusters: 3, separation: 10.0, noise: 0.5 };
        planted_views(200, &[spec], 2, &mut rng).dataset
    }

    #[test]
    fn planted_subspace_tops_the_ranking() {
        let data = planted(311);
        let res = Ris::new(1.5, 5).with_min_quality(1.0).fit(&data);
        assert!(!res.ranked.is_empty());
        let top_multi = res
            .ranked
            .iter()
            .find(|r| r.dims.len() >= 2)
            .expect("a multi-dimensional subspace ranks");
        assert_eq!(top_multi.dims, vec![0, 1], "planted view ranks first: {top_multi:?}");
        assert!(top_multi.quality > 2.0, "well above uniform: {}", top_multi.quality);
    }

    #[test]
    fn uniform_data_scores_near_one() {
        let mut rng = seeded_rng(312);
        let data = uniform(200, 3, 0.0, 10.0, &mut rng);
        let res = Ris::new(1.0, 3).with_min_quality(0.0).fit(&data);
        for r in &res.ranked {
            assert!(
                r.quality < 2.5,
                "uniform subspaces stay near the expectation: {r:?}"
            );
        }
    }

    #[test]
    fn core_counts_are_anti_monotone() {
        let data = planted(313);
        let ris = Ris::new(1.5, 5);
        let (c01, _) = ris.density_profile(&data, &[0, 1]);
        let (c0, _) = ris.density_profile(&data, &[0]);
        let (c012, _) = ris.density_profile(&data, &[0, 1, 2]);
        assert!(c01 <= c0, "adding dims cannot create cores");
        assert!(c012 <= c01);
    }

    #[test]
    fn threshold_filters_the_ranking() {
        let data = planted(314);
        let loose = Ris::new(1.5, 5).with_min_quality(0.5).fit(&data);
        let strict = Ris::new(1.5, 5).with_min_quality(3.0).fit(&data);
        assert!(strict.ranked.len() <= loose.ranked.len());
        // Ranking is sorted descending.
        assert!(loose
            .ranked
            .windows(2)
            .all(|w| w[0].quality >= w[1].quality));
    }
}
