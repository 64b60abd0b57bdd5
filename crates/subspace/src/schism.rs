//! SCHISM (Sequeira & Zaki 2004) — slides 72–73.
//!
//! Density (object counts in cells) decreases with subspace
//! dimensionality, so CLIQUE's *fixed* threshold either drowns in 1-d noise
//! or misses every high-dimensional cluster. SCHISM derives a
//! dimensionality-adaptive threshold from the Chernoff–Hoeffding bound
//! `Pr[Xs ≥ E[Xs] + nt] ≤ e^{−2nt²}`: a cell of an `s`-dimensional
//! subspace is *interesting* when its support exceeds
//!
//! ```text
//! τ(s) = (1/ξ)^s + sqrt( ln(1/p) / (2n) )
//! ```
//!
//! (fraction of `n`), i.e. the expected uniform occupancy `(1/ξ)^s` plus a
//! deviation that makes the observation have probability below `p` under
//! the uniform null — a non-linear, monotonically decreasing function of
//! `s` (slide 73).

use multiclust_core::subspace::SubspaceClustering;
use multiclust_data::Dataset;

use crate::clique::clusters_of;
use crate::grid::IntervalCodes;
use crate::lattice::{bottom_up_search, LatticeStats};

/// SCHISM configuration.
#[derive(Clone, Copy, Debug)]
pub struct Schism {
    /// Intervals per dimension (`ξ`).
    pub xi: u32,
    /// Null-model tail probability `p` (smaller ⇒ stricter threshold).
    pub p: f64,
}

/// SCHISM output.
#[derive(Clone, Debug)]
pub struct SchismResult {
    /// All mined subspace clusters.
    pub clusters: SubspaceClustering,
    /// Subspaces containing interesting cells.
    pub interesting_subspaces: Vec<Vec<usize>>,
    /// Lattice statistics.
    pub stats: LatticeStats,
}

impl Schism {
    /// SCHISM with `ξ` intervals and tail probability `p`.
    ///
    /// # Panics
    /// Panics unless `ξ ≥ 1` and `p ∈ (0, 1)`.
    pub fn new(xi: u32, p: f64) -> Self {
        assert!(xi >= 1, "ξ must be at least 1");
        assert!(p > 0.0 && p < 1.0, "p must lie in (0, 1)");
        Self { xi, p }
    }

    /// The adaptive threshold `τ(s)` as a fraction of `n` (slide 73).
    pub fn threshold(&self, s: usize, n: usize) -> f64 {
        schism_threshold(s, self.xi, n, self.p)
    }

    /// Minimum object count for an interesting cell of dimensionality `s`.
    pub fn min_count(&self, s: usize, n: usize) -> usize {
        ((self.threshold(s, n) * n as f64).ceil() as usize).max(1)
    }

    /// Runs SCHISM on min-max normalised data.
    pub fn fit(&self, data: &Dataset) -> SchismResult {
        let n = data.len();
        let codes = IntervalCodes::new(data, self.xi);
        let has_interesting =
            |dims: &[usize]| codes.has_dense_cell(dims, self.min_count(dims.len(), n));
        // Interestingness is anti-monotone: a cell of S projects onto a
        // cell of every T ⊂ S with at least the same support, and τ(|T|) ≥
        // τ(|S|) − ... strictly τ decreases with s, so support ≥ n·τ(s)
        // does NOT imply support ≥ n·τ(s−1) in general. SCHISM handles
        // this by mining with the *deep* threshold and post-filtering;
        // we follow that scheme: prune with the weakest (deepest useful)
        // threshold, report with the level-exact one.
        // Weakest admissible bound: the deviation term alone (the (1/ξ)^s
        // part vanishes as s grows).
        let weakest = ((deviation_term(n, self.p) * n as f64).ceil() as usize).max(1);
        let floor_threshold = |dims: &[usize]| codes.has_dense_cell(dims, weakest);
        let lattice = bottom_up_search(data.dims(), floor_threshold);
        // Post-filter with the exact per-level threshold.
        let interesting: Vec<Vec<usize>> = lattice
            .subspaces
            .iter()
            .filter(|dims| has_interesting(dims))
            .cloned()
            .collect();
        let clusters = clusters_of(&codes, &interesting, |dims| self.min_count(dims.len(), n));
        SchismResult { clusters, interesting_subspaces: interesting, stats: lattice.stats }
    }
}

/// The SCHISM threshold `τ(s) = (1/ξ)^s + sqrt(ln(1/p)/(2n))` (slide 73).
pub fn schism_threshold(s: usize, xi: u32, n: usize, p: f64) -> f64 {
    assert!(s >= 1, "dimensionality must be at least 1");
    assert!(n >= 1, "need at least one object");
    (1.0 / f64::from(xi)).powi(s as i32) + deviation_term(n, p)
}

fn deviation_term(n: usize, p: f64) -> f64 {
    ((1.0 / p).ln() / (2.0 * n as f64)).sqrt()
}


impl Schism {
    /// Taxonomy card (slide 116 row "(Sequeira & Zaki, 2004)").
    pub fn card() -> multiclust_core::taxonomy::AlgorithmCard {
        use multiclust_core::taxonomy::*;
        AlgorithmCard {
            name: "SCHISM",
            reference: "Sequeira & Zaki 2004",
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
    use multiclust_data::synthetic::{planted_views, ViewSpec};
    use multiclust_data::seeded_rng;

    #[test]
    fn threshold_is_monotonically_decreasing_in_s() {
        for &(xi, n, p) in &[(5u32, 1_000usize, 1e-3), (10, 10_000, 1e-4)] {
            let mut prev = f64::INFINITY;
            for s in 1..=12 {
                let t = schism_threshold(s, xi, n, p);
                assert!(t < prev, "τ({s}) = {t} not below τ({}) = {prev}", s - 1);
                assert!(t > 0.0);
                prev = t;
            }
        }
    }

    #[test]
    fn threshold_limits() {
        // s → ∞: τ approaches the deviation term.
        let t_deep = schism_threshold(30, 10, 1_000, 1e-3);
        let dev = ((1.0f64 / 1e-3).ln() / 2_000.0).sqrt();
        assert!((t_deep - dev).abs() < 1e-9);
        // s = 1 with ξ = 10: expected occupancy 0.1 dominates.
        let t1 = schism_threshold(1, 10, 1_000_000, 1e-3);
        assert!((t1 - 0.1).abs() < 0.01);
    }

    #[test]
    fn finds_high_dimensional_cluster_that_fixed_tau_misses() {
        // Six 4-d planted clusters of ~50 of 300 objects: support ≈ 0.17.
        // A fixed CLIQUE threshold at SCHISM's 1-d level (≈ 0.25 + dev)
        // misses them; SCHISM's τ(4) ≈ 0.004 + dev accepts them.
        let mut rng = seeded_rng(181);
        let spec = ViewSpec { dims: 4, clusters: 6, separation: 12.0, noise: 0.3 };
        let p = planted_views(300, &[spec], 1, &mut rng);
        let data = p.dataset.min_max_normalized();

        let schism = Schism::new(4, 1e-3);
        let res = schism.fit(&data);
        let deep = res
            .interesting_subspaces
            .iter()
            .map(Vec::len)
            .max()
            .unwrap_or(0);
        assert!(deep >= 4, "SCHISM reaches the planted 4-d subspace: {deep}");

        // Fixed CLIQUE threshold at SCHISM's 1-d level: τ(1) ≈ 0.25+.
        let tau1 = schism.threshold(1, data.len());
        let clique = crate::clique::Clique::new(4, tau1.min(1.0));
        let cres = clique.fit(&data);
        let clique_deep = cres
            .dense_subspaces
            .iter()
            .map(Vec::len)
            .max()
            .unwrap_or(0);
        assert!(
            clique_deep < 4,
            "fixed 1-d-level threshold cannot reach 4-d: {clique_deep}"
        );
    }

    #[test]
    fn min_count_at_least_one() {
        let s = Schism::new(10, 0.5);
        assert!(s.min_count(8, 3) >= 1);
    }
}
