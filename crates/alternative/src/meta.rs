//! Meta clustering (Caruana et al. 2006) — slide 29.
//!
//! The "intuitive and powerful principle": generate *many* clustering
//! solutions blindly (different seeds, different `k`, different
//! algorithms), then group the solutions themselves by a clustering
//! dissimilarity (here `1 − Rand index`) and present one representative per
//! group. The tutorial's criticism — blind generation risks many highly
//! similar solutions — is exactly what experiment E2 measures (number of
//! distinct groups vs. number of runs).

use multiclust_core::measures::diss::rand_index;
use multiclust_core::taxonomy::{
    AlgorithmCard, Flexibility, GivenKnowledge, Processing, SearchSpace, Solutions,
    SubspaceAwareness,
};
use multiclust_core::Clustering;
use multiclust_data::Dataset;
use multiclust_linalg::kernels::SymmetricMatrix;
use rand::rngs::StdRng;
use rand::Rng;

use multiclust_base::{Clusterer, KMeans};

/// Meta clustering configuration.
#[derive(Clone, Debug)]
pub struct MetaClustering {
    runs: usize,
    ks: Vec<usize>,
    /// Two solutions belong to the same group when their Rand index is at
    /// least this threshold.
    similarity_threshold: f64,
}

/// The output of meta clustering.
#[derive(Clone, Debug)]
pub struct MetaClusteringResult {
    /// Every generated base solution.
    pub all: Vec<Clustering>,
    /// Groups of solution indices (single-link closure at the threshold).
    pub groups: Vec<Vec<usize>>,
    /// One representative per group: the medoid solution (maximum total
    /// Rand agreement within its group).
    pub representatives: Vec<Clustering>,
}

impl MetaClustering {
    /// `runs` base-clusterer executions, each drawing `k` uniformly from
    /// `ks`; solutions grouped at `similarity_threshold` Rand agreement.
    ///
    /// # Panics
    /// Panics if `runs == 0`, `ks` is empty, or the threshold leaves
    /// `[0, 1]`.
    pub fn new(runs: usize, ks: Vec<usize>, similarity_threshold: f64) -> Self {
        assert!(runs >= 1, "at least one run required");
        assert!(!ks.is_empty(), "at least one candidate k required");
        assert!(
            (0.0..=1.0).contains(&similarity_threshold),
            "threshold must lie in [0, 1]"
        );
        Self { runs, ks, similarity_threshold }
    }

    /// Runs meta clustering with single-restart k-means as the base
    /// algorithm (non-determinism across runs comes from seeding — the
    /// "local minima" source of diversity named on slide 29).
    pub fn fit(&self, data: &Dataset, rng: &mut StdRng) -> MetaClusteringResult {
        let mut all = Vec::with_capacity(self.runs);
        for _ in 0..self.runs {
            let k = self.ks[rng.gen_range(0..self.ks.len())];
            all.push(KMeans::new(k).cluster(data, rng));
        }
        self.group(all)
    }

    /// Runs meta clustering over an explicit portfolio of base clusterers
    /// (cycled across runs) — the "different clustering algorithms" source
    /// of diversity.
    pub fn fit_with_portfolio(
        &self,
        data: &Dataset,
        portfolio: &[&dyn Clusterer],
        rng: &mut StdRng,
    ) -> MetaClusteringResult {
        assert!(!portfolio.is_empty(), "portfolio must not be empty");
        let mut all = Vec::with_capacity(self.runs);
        for r in 0..self.runs {
            all.push(portfolio[r % portfolio.len()].cluster(data, rng));
        }
        self.group(all)
    }

    /// Groups generated solutions by single-link closure over the Rand
    /// similarity graph and picks medoid representatives.
    fn group(&self, all: Vec<Clustering>) -> MetaClusteringResult {
        let n = all.len();
        // Pairwise Rand similarities through the shared symmetric-matrix
        // builder: each strict upper-triangle row is independent, so rows
        // compute in parallel (bit-identical at any thread count); the
        // dense copy below, with a unit diagonal, stays serial and cheap.
        let pairwise =
            SymmetricMatrix::build(n, |i, j| rand_index(&all[i], &all[j]));
        let sim: Vec<Vec<f64>> = (0..n)
            .map(|i| (0..n).map(|j| if i == j { 1.0 } else { pairwise.get(i, j) }).collect())
            .collect();
        // Union-find single-link grouping at the threshold.
        let mut parent: Vec<usize> = (0..n).collect();
        fn find(parent: &mut [usize], mut x: usize) -> usize {
            while parent[x] != x {
                parent[x] = parent[parent[x]];
                x = parent[x];
            }
            x
        }
        #[allow(clippy::needless_range_loop)] // pairwise indices feed union-find
        for i in 0..n {
            for j in (i + 1)..n {
                if sim[i][j] >= self.similarity_threshold {
                    let (ri, rj) = (find(&mut parent, i), find(&mut parent, j));
                    if ri != rj {
                        parent[ri] = rj;
                    }
                }
            }
        }
        let mut groups_map: std::collections::BTreeMap<usize, Vec<usize>> =
            std::collections::BTreeMap::new();
        for i in 0..n {
            let root = find(&mut parent, i);
            groups_map.entry(root).or_default().push(i);
        }
        let groups: Vec<Vec<usize>> = groups_map.into_values().collect();
        // Medoid representative per group.
        let representatives = groups
            .iter()
            .map(|g| {
                let medoid = *g
                    .iter()
                    .max_by(|&&a, &&b| {
                        let sa: f64 = g.iter().map(|&x| sim[a][x]).sum();
                        let sb: f64 = g.iter().map(|&x| sim[b][x]).sum();
                        sa.partial_cmp(&sb).unwrap()
                    })
                    .expect("groups are non-empty");
                all[medoid].clone()
            })
            .collect();
        MetaClusteringResult { all, groups, representatives }
    }

    /// Taxonomy card (slide 116 row "(Caruana et al., 2006)").
    pub fn card() -> AlgorithmCard {
        AlgorithmCard {
            name: "MetaClustering",
            reference: "Caruana et al. 2006",
            space: SearchSpace::Original,
            processing: Processing::Independent,
            knowledge: GivenKnowledge::None,
            solutions: Solutions::AtLeastTwo,
            subspace: SubspaceAwareness::NotApplicable,
            flexibility: Flexibility::ExchangeableDefinition,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use multiclust_data::synthetic::four_blob_square;
    use multiclust_data::seeded_rng;

    #[test]
    fn four_blobs_yield_few_groups() {
        let mut rng = seeded_rng(71);
        let fb = four_blob_square(30, 12.0, 0.6, &mut rng);
        let meta = MetaClustering::new(40, vec![2], 0.95);
        let res = meta.fit(&fb.dataset, &mut rng);
        assert_eq!(res.all.len(), 40);
        // 2-means on the square has a handful of attractors (horizontal,
        // vertical, diagonal); 40 blind runs collapse into few groups.
        assert!(res.groups.len() <= 6, "groups: {}", res.groups.len());
        assert!(res.groups.len() >= 2, "multiple distinct solutions expected");
        assert_eq!(res.representatives.len(), res.groups.len());
    }

    #[test]
    fn groups_partition_the_runs() {
        let mut rng = seeded_rng(72);
        let fb = four_blob_square(20, 10.0, 0.8, &mut rng);
        let res = MetaClustering::new(15, vec![2, 3], 0.9).fit(&fb.dataset, &mut rng);
        let mut seen = vec![false; res.all.len()];
        for g in &res.groups {
            for &i in g {
                assert!(!seen[i], "run {i} in two groups");
                seen[i] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn threshold_one_separates_everything_distinct() {
        let mut rng = seeded_rng(73);
        let fb = four_blob_square(10, 10.0, 0.5, &mut rng);
        let strict = MetaClustering::new(10, vec![2], 1.0).fit(&fb.dataset, &mut rng);
        let loose = MetaClustering::new(10, vec![2], 0.0).fit(&fb.dataset, &mut rng);
        assert!(strict.groups.len() >= loose.groups.len());
        assert_eq!(loose.groups.len(), 1, "threshold 0 merges all runs");
    }

    #[test]
    fn portfolio_cycles_algorithms() {
        let mut rng = seeded_rng(74);
        let fb = four_blob_square(10, 10.0, 0.5, &mut rng);
        let km2 = KMeans::new(2);
        let km4 = KMeans::new(4);
        let portfolio: Vec<&dyn Clusterer> = vec![&km2, &km4];
        let res = MetaClustering::new(6, vec![2], 0.9).fit_with_portfolio(
            &fb.dataset,
            &portfolio,
            &mut rng,
        );
        // Runs alternate k=2 / k=4 solutions.
        assert_eq!(res.all[0].num_clusters(), 2);
        assert_eq!(res.all[1].num_clusters(), 4);
    }
}
