//! Property-based tests for the subspace substrate and selection logic.

use std::collections::HashSet;

use multiclust_core::subspace::{covers_subspace, SubspaceCluster};
use multiclust_data::Dataset;
use multiclust_subspace::grid::SubspaceGrid;
use multiclust_subspace::lattice::{bottom_up_search, exhaustive_search};
use multiclust_subspace::osclu::Osclu;
use multiclust_subspace::schism::schism_threshold;
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
        let grid = SubspaceGrid::build(&data, &[0, 1, 2], xi);
        let total: usize = grid.cells.values().map(Vec::len).sum();
        prop_assert_eq!(total, data.len());
        let h = grid.entropy(data.len());
        prop_assert!(h >= -1e-12);
        prop_assert!(h <= (grid.populated_cells() as f64).ln() + 1e-9);
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
