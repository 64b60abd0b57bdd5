//! CLIQUE (Agrawal, Gehrke, Gunopulos & Raghavan 1998) — slides 69–71.
//!
//! The first subspace clustering algorithm: divide every dimension into `ξ`
//! equal intervals, call a grid cell *dense* when it holds at least `τ·n`
//! objects, mine all subspaces containing dense cells bottom-up (density is
//! anti-monotone ⇒ apriori pruning), and report the connected components of
//! dense cells in each surviving subspace as clusters. Every object can be
//! a member of many clusters in many subspaces — multiple clustering
//! solutions by construction (slide 70).

use multiclust_core::subspace::{SubspaceCluster, SubspaceClustering};
use multiclust_data::Dataset;

use crate::grid::{IntervalCodes, SubspaceGrid};
use crate::lattice::{bottom_up_search, exhaustive_search, LatticeStats};

/// CLIQUE configuration.
#[derive(Clone, Copy, Debug)]
pub struct Clique {
    /// Intervals per dimension (`ξ`).
    pub xi: u32,
    /// Density threshold `τ` as a fraction of `n`.
    pub tau: f64,
}

/// CLIQUE output.
#[derive(Clone, Debug)]
pub struct CliqueResult {
    /// All mined subspace clusters.
    pub clusters: SubspaceClustering,
    /// Subspaces that contained at least one dense unit.
    pub dense_subspaces: Vec<Vec<usize>>,
    /// Lattice statistics (for the pruning-factor experiment E10).
    pub stats: LatticeStats,
}

impl Clique {
    /// CLIQUE with `ξ` intervals and density threshold `τ`.
    ///
    /// # Panics
    /// Panics unless `ξ ≥ 1` and `τ ∈ (0, 1]`.
    pub fn new(xi: u32, tau: f64) -> Self {
        assert!(xi >= 1, "ξ must be at least 1");
        assert!(tau > 0.0 && tau <= 1.0, "τ must lie in (0, 1]");
        Self { xi, tau }
    }

    /// Minimum object count for a dense unit given `n` objects.
    pub fn min_count(&self, n: usize) -> usize {
        ((self.tau * n as f64).ceil() as usize).max(1)
    }

    /// Runs CLIQUE. Data should be min-max normalised to `[0, 1]`
    /// (normalise with [`Dataset::min_max_normalized`] if needed).
    pub fn fit(&self, data: &Dataset) -> CliqueResult {
        let min_count = self.min_count(data.len());
        let codes = IntervalCodes::new(data, self.xi);
        let lattice =
            bottom_up_search(data.dims(), |dims| codes.has_dense_cell(dims, min_count));
        let clusters = clusters_of(&codes, &lattice.subspaces, |_| min_count);
        CliqueResult {
            clusters,
            dense_subspaces: lattice.subspaces,
            stats: lattice.stats,
        }
    }

    /// Runs CLIQUE without apriori pruning (evaluates every subspace up to
    /// `max_dim`) — the ablation baseline quantifying slide 71's pruning.
    pub fn fit_unpruned(&self, data: &Dataset, max_dim: usize) -> CliqueResult {
        let min_count = self.min_count(data.len());
        let codes = IntervalCodes::new(data, self.xi);
        let lattice = exhaustive_search(data.dims(), max_dim, |dims| {
            codes.has_dense_cell(dims, min_count)
        });
        let clusters = clusters_of(&codes, &lattice.subspaces, |_| min_count);
        CliqueResult {
            clusters,
            dense_subspaces: lattice.subspaces,
            stats: lattice.stats,
        }
    }
}

/// Subspaces per work unit when regions are extracted on the pool: one
/// subspace's grid sorts every object, so a single subspace already
/// amortises its dispatch.
const REGION_CHUNK: usize = 1;

/// The connected dense regions of every subspace in `subspaces`, as
/// subspace clusters, with a cell dense at `min_count(dims)` objects. The
/// subspaces are extracted on the pool and their clusters concatenated in
/// subspace order, so the list is the serial loop's at any thread count.
pub(crate) fn clusters_of<M>(
    codes: &IntervalCodes,
    subspaces: &[Vec<usize>],
    min_count: M,
) -> SubspaceClustering
where
    M: Fn(&[usize]) -> usize + Sync,
{
    multiclust_parallel::par_map_indexed(subspaces.len(), REGION_CHUNK, |s| {
        let dims = &subspaces[s];
        SubspaceGrid::new(codes, dims)
            .connected_dense_regions(min_count(dims))
            .into_iter()
            .map(|region| SubspaceCluster::new(region, dims.clone()))
            .collect::<Vec<_>>()
    })
    .into_iter()
    .flatten()
    .collect()
}

impl Clique {
    /// Taxonomy card (slide 116 row "(Agrawal et al., 1998)").
    pub fn card() -> multiclust_core::taxonomy::AlgorithmCard {
        use multiclust_core::taxonomy::*;
        AlgorithmCard {
            name: "CLIQUE",
            reference: "Agrawal et al. 1998",
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

    /// Data with one 2-d planted view (dims 0–1) and two uniform noise
    /// dims, min-max normalised.
    fn planted(seed: u64) -> (Dataset, Vec<usize>) {
        let mut rng = seeded_rng(seed);
        let spec = ViewSpec { dims: 2, clusters: 3, separation: 8.0, noise: 0.4 };
        let p = planted_views(150, &[spec], 2, &mut rng);
        (p.dataset.min_max_normalized(), p.truths[0].clone())
    }

    #[test]
    fn finds_clusters_in_the_planted_subspace() {
        let (data, _) = planted(171);
        let res = Clique::new(8, 0.05).fit(&data);
        // The planted subspace {0,1} must be among the dense subspaces.
        assert!(
            res.dense_subspaces.contains(&vec![0, 1]),
            "dense subspaces: {:?}",
            res.dense_subspaces
        );
        // And it carries multiple clusters.
        let in_01: Vec<_> = res
            .clusters
            .iter()
            .filter(|c| c.dims() == [0, 1])
            .collect();
        assert!(in_01.len() >= 2, "clusters in {{0,1}}: {}", in_01.len());
    }

    #[test]
    fn objects_appear_in_multiple_clusters() {
        let (data, _) = planted(172);
        let res = Clique::new(8, 0.05).fit(&data);
        // Object 0 should appear in at least two clusters (1-d and 2-d
        // projections of its planted blob).
        let memberships = res
            .clusters
            .iter()
            .filter(|c| c.contains_object(0))
            .count();
        assert!(memberships >= 2, "object 0 in {memberships} clusters");
    }

    #[test]
    fn pruning_matches_exhaustive_results() {
        let (data, _) = planted(173);
        let clique = Clique::new(8, 0.05);
        let pruned = clique.fit(&data);
        let naive = clique.fit_unpruned(&data, data.dims());
        let mut a = pruned.dense_subspaces.clone();
        let mut b = naive.dense_subspaces.clone();
        a.sort();
        b.sort();
        assert_eq!(a, b, "pruning is lossless");
        assert!(
            pruned.stats.evaluated <= naive.stats.evaluated,
            "pruning saves evaluations: {} vs {}",
            pruned.stats.evaluated,
            naive.stats.evaluated
        );
    }

    #[test]
    fn uniform_noise_has_no_deep_subspaces() {
        let mut rng = seeded_rng(174);
        let data = uniform(200, 6, 0.0, 1.0, &mut rng);
        // τ far above the uniform expectation (1/ξ² per 2-d cell).
        let res = Clique::new(5, 0.2).fit(&data);
        assert!(
            res.stats.max_level <= 1,
            "uniform data yields no multi-dimensional dense subspaces"
        );
    }

    #[test]
    fn min_count_rounds_up() {
        let c = Clique::new(10, 0.1);
        assert_eq!(c.min_count(100), 10);
        assert_eq!(c.min_count(101), 11);
        assert_eq!(c.min_count(5), 1);
    }
}
