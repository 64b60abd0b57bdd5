//! ENCLUS entropy-based subspace search (Cheng, Fu & Zhang 1999) —
//! slides 88–89.
//!
//! Decouples subspace detection from cluster detection: estimate the
//! quality of a *whole subspace* by the Shannon entropy of its grid-cell
//! occupancy. Low entropy indicates high coverage/density/correlation —
//! an interesting subspace worth clustering (slide 89). Because entropy
//! can only grow when dimensions are added (`H(S) ≤ H(S ∪ {x})`), the
//! family `{S : H(S) ≤ ω}` is downward closed and mined apriori-style.
//! Subspaces are additionally ranked by **interest**
//! `interest(S) = Σ_{i∈S} H({i}) − H(S)` — the total correlation among
//! `S`'s dimensions — and reported when it exceeds `ε`.

use multiclust_data::Dataset;

use crate::grid::{IntervalCodes, SubspaceGrid};
use crate::lattice::{bottom_up_search, LatticeStats};

/// ENCLUS configuration.
#[derive(Clone, Copy, Debug)]
pub struct Enclus {
    /// Intervals per dimension.
    pub xi: u32,
    /// Maximum admissible subspace entropy `ω` (nats).
    pub omega: f64,
    /// Minimum interest `ε` (nats) for a reported subspace.
    pub epsilon: f64,
}

/// One ranked subspace.
#[derive(Clone, Debug, PartialEq)]
pub struct RankedSubspace {
    /// The subspace's dimensions (sorted).
    pub dims: Vec<usize>,
    /// Grid entropy `H(S)`.
    pub entropy: f64,
    /// Interest `Σ H({i}) − H(S)` (total correlation).
    pub interest: f64,
}

/// ENCLUS output.
#[derive(Clone, Debug)]
pub struct EnclusResult {
    /// Interesting subspaces, sorted by descending interest.
    pub ranked: Vec<RankedSubspace>,
    /// All subspaces passing the entropy bound (before the interest
    /// filter).
    pub low_entropy_subspaces: usize,
    /// Lattice statistics.
    pub stats: LatticeStats,
}

impl Enclus {
    /// ENCLUS with `ξ` intervals, entropy bound `ω` and interest bound `ε`.
    pub fn new(xi: u32, omega: f64, epsilon: f64) -> Self {
        assert!(xi >= 1, "ξ must be at least 1");
        assert!(omega > 0.0, "ω must be positive");
        assert!(epsilon >= 0.0, "ε must be non-negative");
        Self { xi, omega, epsilon }
    }

    /// Entropy of one subspace of `data` under this grid (Miller–Madow
    /// bias-corrected — the plug-in estimator would manufacture spurious
    /// interest for high-dimensional sparse grids).
    pub fn subspace_entropy(&self, data: &Dataset, dims: &[usize]) -> f64 {
        SubspaceGrid::new(&IntervalCodes::new(data, self.xi), dims).entropy_corrected()
    }

    /// Runs the search on min-max normalised data.
    pub fn fit(&self, data: &Dataset) -> EnclusResult {
        let codes = IntervalCodes::new(data, self.xi);
        let corrected = |dims: &[usize]| SubspaceGrid::new(&codes, dims).entropy_corrected();
        let low_entropy =
            |dims: &[usize]| SubspaceGrid::new(&codes, dims).entropy() <= self.omega;
        let lattice = bottom_up_search(data.dims(), low_entropy);
        let single_h: Vec<f64> = (0..data.dims()).map(|i| corrected(&[i])).collect();
        let mut ranked: Vec<RankedSubspace> = lattice
            .subspaces
            .iter()
            .filter(|dims| dims.len() >= 2)
            .map(|dims| {
                let entropy = corrected(dims);
                let interest =
                    dims.iter().map(|&i| single_h[i]).sum::<f64>() - entropy;
                RankedSubspace { dims: dims.clone(), entropy, interest }
            })
            .filter(|r| r.interest >= self.epsilon)
            .collect();
        ranked.sort_by(|a, b| b.interest.partial_cmp(&a.interest).unwrap());
        EnclusResult {
            ranked,
            low_entropy_subspaces: lattice.subspaces.len(),
            stats: lattice.stats,
        }
    }
}


impl Enclus {
    /// Taxonomy card (slide 116 row "(Cheng et al., 1999)").
    pub fn card() -> multiclust_core::taxonomy::AlgorithmCard {
        use multiclust_core::taxonomy::*;
        AlgorithmCard {
            name: "ENCLUS",
            reference: "Cheng et al. 1999",
            space: SearchSpace::Subspaces,
            processing: Processing::Simultaneous,
            knowledge: GivenKnowledge::None,
            solutions: Solutions::AtLeastTwo,
            subspace: SubspaceAwareness::NoDissimilarity,
            flexibility: Flexibility::Specialized,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use multiclust_data::synthetic::{planted_views, uniform, ViewSpec};
    use multiclust_data::seeded_rng;

    /// Planted clusters in dims {0,1}; dims {2,3} uniform.
    fn planted(seed: u64) -> Dataset {
        let mut rng = seeded_rng(seed);
        let spec = ViewSpec { dims: 2, clusters: 3, separation: 10.0, noise: 0.4 };
        planted_views(300, &[spec], 2, &mut rng)
            .dataset
            .min_max_normalized()
    }

    #[test]
    fn clustered_subspace_ranks_above_uniform() {
        let data = planted(211);
        let enclus = Enclus::new(6, 10.0, 0.0);
        let h_clustered = enclus.subspace_entropy(&data, &[0, 1]);
        let h_uniform = enclus.subspace_entropy(&data, &[2, 3]);
        assert!(
            h_clustered < h_uniform,
            "clustered subspace has lower entropy: {h_clustered} vs {h_uniform}"
        );
    }

    #[test]
    fn interest_identifies_the_planted_view() {
        let data = planted(212);
        // ω generous, rank by interest.
        let res = Enclus::new(6, 10.0, 0.05).fit(&data);
        assert!(!res.ranked.is_empty(), "at least the planted subspace is interesting");
        // Appending independent uniform dims leaves the true total
        // correlation unchanged, so any top-ranked subspace must contain
        // the planted pair; the pair itself must rank far above the pure
        // noise pair.
        assert!(
            res.ranked[0].dims.contains(&0) && res.ranked[0].dims.contains(&1),
            "top subspace carries the planted view: {:?}",
            res.ranked[0]
        );
        let interest_of = |dims: &[usize]| {
            res.ranked
                .iter()
                .find(|r| r.dims == dims)
                .map_or(0.0, |r| r.interest)
        };
        assert!(interest_of(&[0, 1]) > 0.1, "planted pair strongly correlated");
        assert!(
            interest_of(&[0, 1]) > 10.0 * interest_of(&[2, 3]).max(0.0),
            "noise pair carries no comparable correlation"
        );
    }

    #[test]
    fn uniform_data_has_no_interesting_subspace() {
        let mut rng = seeded_rng(213);
        let data = uniform(400, 4, 0.0, 1.0, &mut rng);
        let res = Enclus::new(4, 10.0, 0.2).fit(&data);
        assert!(
            res.ranked.is_empty(),
            "independent uniform dims carry no total correlation: {:?}",
            res.ranked.first()
        );
    }

    #[test]
    fn entropy_bound_prunes_lattice() {
        let data = planted(214);
        // ω below the uniform 2-d entropy: only genuinely concentrated
        // subspaces survive level 1 → tiny lattice.
        let strict = Enclus::new(6, 1.2, 0.0).fit(&data);
        let generous = Enclus::new(6, 10.0, 0.0).fit(&data);
        assert!(strict.stats.evaluated <= generous.stats.evaluated);
        assert!(strict.low_entropy_subspaces <= generous.low_entropy_subspaces);
    }

    #[test]
    fn entropy_is_monotone_under_dimension_addition() {
        let data = planted(215);
        let enclus = Enclus::new(5, 10.0, 0.0);
        for dims in [vec![0usize], vec![1], vec![2]] {
            let h1 = enclus.subspace_entropy(&data, &dims);
            for extra in 0..4usize {
                if dims.contains(&extra) {
                    continue;
                }
                let mut bigger = dims.clone();
                bigger.push(extra);
                bigger.sort_unstable();
                let h2 = enclus.subspace_entropy(&data, &bigger);
                assert!(h2 >= h1 - 1e-9, "H({bigger:?}) = {h2} < H({dims:?}) = {h1}");
            }
        }
    }
}
