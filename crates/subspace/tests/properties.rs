//! Property-based tests for the subspace substrate and selection logic.

use std::collections::{HashMap, HashSet};

use multiclust_core::subspace::{covers_subspace, SubspaceCluster};
use multiclust_data::synthetic::{planted_views, ViewSpec};
use multiclust_data::{seeded_rng, Dataset};
use multiclust_subspace::grid::{interval_of, CellCoords, IntervalCodes, SubspaceGrid};
use multiclust_subspace::lattice::{bottom_up_search, exhaustive_search};
use multiclust_subspace::osclu::Osclu;
use multiclust_subspace::schism::schism_threshold;
use multiclust_subspace::{Clique, Enclus, Schism};
use proptest::prelude::*;

/// Strategy: a random downward-closed subspace family over `d` dims,
/// described by a set of maximal subspaces.
fn maximal_sets(d: usize) -> impl Strategy<Value = Vec<Vec<usize>>> {
    prop::collection::vec(prop::collection::btree_set(0..d, 1..=d), 1..4).prop_map(
        |sets| {
            sets.into_iter()
                .map(|s| s.into_iter().collect::<Vec<usize>>())
                .collect()
        },
    )
}

fn is_subset(a: &[usize], b: &[usize]) -> bool {
    let bs: HashSet<usize> = b.iter().copied().collect();
    a.iter().all(|x| bs.contains(x))
}

/// The hash-map grid the interval-code grid replaced, kept as its oracle:
/// cell coordinates → member objects, built by [`interval_of`] per object.
struct OracleGrid {
    xi: u32,
    cells: HashMap<CellCoords, Vec<usize>>,
}

impl OracleGrid {
    fn build(data: &Dataset, dims: &[usize], xi: u32) -> Self {
        let mut cells: HashMap<CellCoords, Vec<usize>> = HashMap::new();
        let mut coords = vec![0u32; dims.len()];
        for (i, row) in data.rows().enumerate() {
            for (c, &d) in coords.iter_mut().zip(dims) {
                *c = interval_of(row[d], xi);
            }
            cells.entry(coords.clone()).or_default().push(i);
        }
        Self { xi, cells }
    }

    /// Every cell, in coordinate order.
    fn sorted_cells(&self) -> Vec<(CellCoords, Vec<usize>)> {
        let mut v: Vec<_> = self.cells.iter().map(|(c, o)| (c.clone(), o.clone())).collect();
        v.sort();
        v
    }

    fn dense_cells(&self, min_count: usize) -> Vec<(&CellCoords, &Vec<usize>)> {
        let mut v: Vec<_> =
            self.cells.iter().filter(|(_, objs)| objs.len() >= min_count).collect();
        v.sort_by(|a, b| a.0.cmp(b.0));
        v
    }

    /// Plug-in entropy summed over the cells in coordinate order.
    fn entropy(&self, n: usize) -> f64 {
        self.sorted_cells()
            .iter()
            .map(|(_, objs)| {
                let p = objs.len() as f64 / n as f64;
                -p * p.ln()
            })
            .sum()
    }

    fn entropy_corrected(&self, n: usize) -> f64 {
        self.entropy(n) + (self.cells.len().saturating_sub(1)) as f64 / (2.0 * n as f64)
    }

    fn connected_dense_regions(&self, min_count: usize) -> Vec<Vec<usize>> {
        let dense = self.dense_cells(min_count);
        let index: HashMap<&CellCoords, usize> =
            dense.iter().enumerate().map(|(i, (c, _))| (*c, i)).collect();
        let mut visited = vec![false; dense.len()];
        let mut out = Vec::new();
        for start in 0..dense.len() {
            if visited[start] {
                continue;
            }
            let mut stack = vec![start];
            visited[start] = true;
            let mut members: Vec<usize> = Vec::new();
            while let Some(u) = stack.pop() {
                members.extend_from_slice(dense[u].1);
                let coords = dense[u].0;
                let mut probe = coords.clone();
                for (axis, &c) in coords.iter().enumerate() {
                    for delta in [-1i64, 1] {
                        let nc = i64::from(c) + delta;
                        if nc < 0 || nc >= i64::from(self.xi) {
                            continue;
                        }
                        probe[axis] = nc as u32;
                        if let Some(&v) = index.get(&probe) {
                            if !visited[v] {
                                visited[v] = true;
                                stack.push(v);
                            }
                        }
                    }
                    probe[axis] = c;
                }
            }
            members.sort_unstable();
            out.push(members);
        }
        out
    }
}

/// Whether some oracle cell of `dims` holds at least `min_count` objects.
fn oracle_dense(data: &Dataset, dims: &[usize], xi: u32, min_count: usize) -> bool {
    !OracleGrid::build(data, dims, xi).dense_cells(min_count).is_empty()
}

/// The oracle's connected dense regions of each subspace, as clusters.
fn oracle_clusters(
    data: &Dataset,
    subspaces: &[Vec<usize>],
    xi: u32,
    min_count: impl Fn(&[usize]) -> usize,
) -> Vec<SubspaceCluster> {
    subspaces
        .iter()
        .flat_map(|dims| {
            OracleGrid::build(data, dims, xi)
                .connected_dense_regions(min_count(dims))
                .into_iter()
                .map(move |region| SubspaceCluster::new(region, dims.clone()))
        })
        .collect()
}

/// A `[0, 1]` dataset of `d` columns from raw draws: a quarter each at 0.0,
/// at 1.0, exactly on one of `ξ`'s interval boundaries (`boundary(k)` for a
/// drawn `k`), and spread over `[0, 1)`.
fn grid_dataset(raw: &[Vec<u32>], d: usize, boundary: impl Fn(u32) -> f64) -> Dataset {
    let rows: Vec<Vec<f64>> = raw
        .iter()
        .map(|r| {
            r[..d]
                .iter()
                .map(|&x| match x % 4 {
                    0 => 0.0,
                    1 => 1.0,
                    2 => boundary(x / 4),
                    _ => f64::from(x / 4) / 1_000_000.0,
                })
                .collect()
        })
        .collect();
    Dataset::from_rows(&rows)
}

/// Every non-empty subset of `0..d`, as sorted dimension lists.
fn all_subspaces(d: usize) -> Vec<Vec<usize>> {
    (1u32..1 << d)
        .map(|mask| (0..d).filter(|&j| mask & (1 << j) != 0).collect())
        .collect()
}

/// The interval-code grid of `dims` equals the oracle's: cells, dense
/// cells, connected dense regions, the lattice predicate and the entropy
/// bits (the oracle summed in coordinate order).
fn grid_matches_oracle(
    data: &Dataset,
    codes: &IntervalCodes,
    dims: &[usize],
    min_count: usize,
) -> Result<(), TestCaseError> {
    let oracle = OracleGrid::build(data, dims, codes.xi());
    let grid = SubspaceGrid::new(codes, dims);
    let cells: Vec<(CellCoords, Vec<usize>)> =
        grid.cells().map(|(c, objs)| (c, objs.to_vec())).collect();
    prop_assert_eq!(cells, oracle.sorted_cells());
    prop_assert_eq!(grid.populated_cells(), oracle.cells.len());
    let dense: Vec<(CellCoords, Vec<usize>)> = grid
        .dense_cells(min_count)
        .into_iter()
        .map(|(c, objs)| (c, objs.to_vec()))
        .collect();
    let oracle_dense: Vec<(CellCoords, Vec<usize>)> = oracle
        .dense_cells(min_count)
        .into_iter()
        .map(|(c, objs)| (c.clone(), objs.clone()))
        .collect();
    prop_assert_eq!(codes.has_dense_cell(dims, min_count), !oracle_dense.is_empty());
    prop_assert_eq!(dense, oracle_dense);
    prop_assert_eq!(
        grid.connected_dense_regions(min_count),
        oracle.connected_dense_regions(min_count)
    );
    let n = data.len();
    prop_assert_eq!(grid.entropy().to_bits(), oracle.entropy(n).to_bits());
    prop_assert_eq!(
        grid.entropy_corrected().to_bits(),
        oracle.entropy_corrected(n).to_bits()
    );
    Ok(())
}

/// Enclus entropies repeat bit for bit from call to call, and equal the
/// oracle's coordinate-ordered sum.
#[test]
fn enclus_entropies_are_deterministic_and_coordinate_ordered() {
    let mut rng = seeded_rng(31);
    let spec = ViewSpec { dims: 3, clusters: 4, separation: 8.0, noise: 1.0 };
    let data = planted_views(300, &[spec], 3, &mut rng).dataset.min_max_normalized();
    let enclus = Enclus::new(4, 10.0, 0.0);
    for dims in all_subspaces(data.dims()).into_iter().filter(|s| s.len() == 3) {
        let first = enclus.subspace_entropy(&data, &dims).to_bits();
        let again = enclus.subspace_entropy(&data, &dims).to_bits();
        assert_eq!(first, again, "{dims:?}");
        let reference = OracleGrid::build(&data, &dims, 4).entropy_corrected(data.len());
        assert_eq!(first, reference.to_bits(), "{dims:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Apriori pruning is lossless: bottom-up with pruning finds exactly
    /// the same downward-closed family as exhaustive enumeration, with no
    /// more evaluations.
    #[test]
    fn lattice_pruning_is_lossless(maximal in maximal_sets(6)) {
        let d = 6;
        let pred = |s: &[usize]| maximal.iter().any(|m| is_subset(s, m));
        let pruned = bottom_up_search(d, pred);
        let naive = exhaustive_search(d, d, pred);
        let mut a = pruned.subspaces.clone();
        let mut b = naive.subspaces.clone();
        a.sort();
        b.sort();
        prop_assert_eq!(a, b);
        prop_assert!(pruned.stats.evaluated <= naive.stats.evaluated);
    }

    /// `coveredSubspaces_β` is monotone in β: loosening β can only add
    /// covered subspaces, never remove them.
    #[test]
    fn covers_is_monotone_in_beta(
        s in prop::collection::btree_set(0..10usize, 1..6),
        t in prop::collection::btree_set(0..10usize, 1..6),
        beta_lo in 0.05f64..0.5,
        beta_hi in 0.5f64..1.0,
    ) {
        let s: Vec<usize> = s.into_iter().collect();
        let t: Vec<usize> = t.into_iter().collect();
        if covers_subspace(&s, &t, beta_hi) {
            prop_assert!(covers_subspace(&s, &t, beta_lo));
        }
    }

    /// Every subspace covers itself at any β; disjoint subspaces never
    /// cover each other.
    #[test]
    fn covers_identity_and_disjointness(
        s in prop::collection::btree_set(0..10usize, 1..6),
        beta in 0.05f64..1.0,
    ) {
        let s: Vec<usize> = s.into_iter().collect();
        prop_assert!(covers_subspace(&s, &s, beta));
        let shifted: Vec<usize> = s.iter().map(|&x| x + 20).collect();
        prop_assert!(!covers_subspace(&s, &shifted, beta));
    }

    /// Grid invariants: cells partition the objects; entropy lies in
    /// `[0, ln(populated cells)]`.
    #[test]
    fn grid_partitions_and_entropy_bounds(
        rows in prop::collection::vec(
            prop::collection::vec(0.0f64..1.0, 3),
            2..40,
        ),
        xi in 1u32..8,
    ) {
        let data = Dataset::from_rows(&rows);
        let codes = IntervalCodes::new(&data, xi);
        let grid = SubspaceGrid::new(&codes, &[0, 1, 2]);
        let total: usize = grid.cells().map(|(_, objs)| objs.len()).sum();
        prop_assert_eq!(total, data.len());
        let h = grid.entropy();
        prop_assert!(h >= -1e-12);
        prop_assert!(h <= (grid.populated_cells() as f64).ln() + 1e-9);
    }

    /// On data at 0.0, 1.0 and exactly on interval boundaries, every
    /// subspace's interval-code grid equals the hash-map oracle for ξ from
    /// 1 to 9.
    #[test]
    fn grid_equals_hash_map_oracle(
        xi in 1u32..10,
        d in 1usize..6,
        raw in prop::collection::vec(prop::collection::vec(0u32..4_000_000, 5), 1..40),
        min_count in 1usize..6,
    ) {
        let data = grid_dataset(&raw, d, |k| f64::from(k % (xi + 1)) / f64::from(xi));
        let codes = IntervalCodes::new(&data, xi);
        for dims in all_subspaces(d) {
            grid_matches_oracle(&data, &codes, &dims, min_count)?;
        }
    }

    /// ξ = 2²⁰ over four dimensions: ξ⁴ = 2⁸⁰ cells, so the last fold runs
    /// on ranked keys, and the grid still equals the oracle.
    #[test]
    fn grid_past_u64_keys_equals_hash_map_oracle(
        raw in prop::collection::vec(prop::collection::vec(0u32..4_000_000, 5), 1..40),
        min_count in 1usize..4,
    ) {
        let xi = 1u32 << 20;
        // Boundaries near both ends, so cells repeat and touch.
        let ks = [0, 1, 2, 3, xi - 3, xi - 2, xi - 1, xi];
        let data = grid_dataset(&raw, 4, |k| f64::from(ks[k as usize % 8]) / f64::from(xi));
        let codes = IntervalCodes::new(&data, xi);
        for dims in all_subspaces(4) {
            grid_matches_oracle(&data, &codes, &dims, min_count)?;
        }
    }

    /// CLIQUE (pruned and exhaustive) and SCHISM equal an oracle pipeline:
    /// the same lattice search over the oracle grid's predicate, then the
    /// oracle's connected dense regions.
    #[test]
    fn clique_and_schism_equal_oracle_pipelines(
        xi in 1u32..10,
        d in 1usize..6,
        raw in prop::collection::vec(prop::collection::vec(0u32..4_000_000, 5), 1..40),
        tau in 0.02f64..0.6,
        p in 1e-4f64..0.5,
    ) {
        let data = grid_dataset(&raw, d, |k| f64::from(k % (xi + 1)) / f64::from(xi));
        let n = data.len();

        let clique = Clique::new(xi, tau);
        let m = clique.min_count(n);
        let res = clique.fit(&data);
        let lattice = bottom_up_search(d, |s: &[usize]| oracle_dense(&data, s, xi, m));
        prop_assert_eq!(&res.dense_subspaces, &lattice.subspaces);
        prop_assert_eq!(res.stats, lattice.stats);
        prop_assert_eq!(res.clusters, oracle_clusters(&data, &lattice.subspaces, xi, |_| m));
        let res = clique.fit_unpruned(&data, d);
        let lattice = exhaustive_search(d, d, |s: &[usize]| oracle_dense(&data, s, xi, m));
        prop_assert_eq!(&res.dense_subspaces, &lattice.subspaces);
        prop_assert_eq!(res.clusters, oracle_clusters(&data, &lattice.subspaces, xi, |_| m));

        let schism = Schism::new(xi, p);
        let res = schism.fit(&data);
        let weakest = ((((1.0 / p).ln() / (2.0 * n as f64)).sqrt() * n as f64).ceil() as usize)
            .max(1);
        let exact = |s: &[usize]| schism.min_count(s.len(), n);
        let lattice = bottom_up_search(d, |s: &[usize]| oracle_dense(&data, s, xi, weakest));
        let interesting: Vec<Vec<usize>> = lattice
            .subspaces
            .iter()
            .filter(|s| oracle_dense(&data, s, xi, exact(s)))
            .cloned()
            .collect();
        prop_assert_eq!(&res.interesting_subspaces, &interesting);
        prop_assert_eq!(res.stats, lattice.stats);
        prop_assert_eq!(res.clusters, oracle_clusters(&data, &interesting, xi, exact));
    }

    /// The SCHISM threshold decreases in the dimensionality and in the
    /// database size, and always stays positive.
    #[test]
    fn schism_threshold_monotonicities(
        xi in 2u32..20,
        n in 10usize..100_000,
        p in 1e-6f64..0.5,
        s in 1usize..15,
    ) {
        let t = schism_threshold(s, xi, n, p);
        prop_assert!(t > 0.0);
        prop_assert!(schism_threshold(s + 1, xi, n, p) <= t + 1e-15);
        prop_assert!(schism_threshold(s, xi, n * 2, p) <= t + 1e-15);
    }

    /// The greedy OSCLU selection is always a *valid* orthogonal
    /// clustering, and the exact solver (on small instances) never scores
    /// below it.
    #[test]
    fn osclu_greedy_valid_and_dominated_by_exact(
        object_sets in prop::collection::vec(
            prop::collection::btree_set(0..12usize, 1..8),
            1..7,
        ),
        alpha in 0.3f64..1.0,
    ) {
        let all: Vec<SubspaceCluster> = object_sets
            .into_iter()
            .map(|objs| SubspaceCluster::new(objs.into_iter().collect(), vec![0]))
            .collect();
        let osclu = Osclu::new(1.0, alpha);
        let greedy = osclu.select_greedy(&all);
        prop_assert!(osclu.is_valid(&all, &greedy.selected));
        let exact = osclu.select_exact(&all);
        prop_assert!(osclu.is_valid(&all, &exact.selected));
        prop_assert!(exact.total_interestingness >= greedy.total_interestingness - 1e-9);
    }
}
