//! Instance-level clustering constraints.
//!
//! COALA (Bae & Bailey 2006, slides 31–33) turns a *given* clustering into
//! cannot-link constraints — `cannot(o, p)` for every pair co-clustered in
//! the given solution — and then prefers merges that keep those constraints
//! satisfied. Metric-learning transformations (Davidson & Qi 2008) consume
//! the complementary must-link pairs. This module provides the shared
//! constraint-set machinery.

use std::collections::HashSet;

use crate::Clustering;

/// An unordered object pair, stored normalised (`small, large`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Pair(usize, usize);

impl Pair {
    /// Creates a normalised pair.
    ///
    /// # Panics
    /// Panics on a self-pair.
    pub fn new(a: usize, b: usize) -> Self {
        assert_ne!(a, b, "constraints relate two distinct objects");
        Self(a.min(b), a.max(b))
    }

    /// The smaller index.
    pub fn first(self) -> usize {
        self.0
    }

    /// The larger index.
    pub fn second(self) -> usize {
        self.1
    }
}

/// A set of must-link and cannot-link constraints over object indices.
#[derive(Clone, Debug, Default)]
pub struct ConstraintSet {
    must: HashSet<Pair>,
    cannot: HashSet<Pair>,
}

impl ConstraintSet {
    /// An empty constraint set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a must-link constraint.
    pub fn add_must_link(&mut self, a: usize, b: usize) {
        self.must.insert(Pair::new(a, b));
    }

    /// Adds a cannot-link constraint.
    pub fn add_cannot_link(&mut self, a: usize, b: usize) {
        self.cannot.insert(Pair::new(a, b));
    }

    /// Derives COALA's constraints from a given clustering: every pair
    /// co-clustered in `given` becomes **cannot-link** (the alternative
    /// should separate them).
    pub fn cannot_links_from(given: &Clustering) -> Self {
        let mut set = Self::new();
        for members in given.members() {
            for (idx, &a) in members.iter().enumerate() {
                for &b in &members[idx + 1..] {
                    set.add_cannot_link(a, b);
                }
            }
        }
        set
    }

    /// Derives metric-learning constraints from a given clustering:
    /// co-clustered pairs are must-link, cross-cluster pairs cannot-link
    /// (the learned metric should make the given clustering easy to see,
    /// slide 50).
    pub fn from_clustering(given: &Clustering) -> Self {
        let mut set = Self::cannot_links_from(given);
        // Swap roles: what `cannot_links_from` marked cannot is must here.
        std::mem::swap(&mut set.must, &mut set.cannot);
        // Cross-cluster pairs become cannot-link.
        let members = given.members();
        for (ci, ma) in members.iter().enumerate() {
            for mb in members.iter().skip(ci + 1) {
                for &a in ma {
                    for &b in mb {
                        set.add_cannot_link(a, b);
                    }
                }
            }
        }
        set
    }

    /// Number of must-link constraints.
    pub fn num_must(&self) -> usize {
        self.must.len()
    }

    /// Number of cannot-link constraints.
    pub fn num_cannot(&self) -> usize {
        self.cannot.len()
    }

    /// `true` when `(a, b)` is must-linked.
    pub fn is_must_link(&self, a: usize, b: usize) -> bool {
        a != b && self.must.contains(&Pair::new(a, b))
    }

    /// `true` when `(a, b)` is cannot-linked.
    pub fn is_cannot_link(&self, a: usize, b: usize) -> bool {
        a != b && self.cannot.contains(&Pair::new(a, b))
    }

    /// Iterator over must-link pairs.
    pub fn must_links(&self) -> impl Iterator<Item = Pair> + '_ {
        self.must.iter().copied()
    }

    /// Iterator over cannot-link pairs.
    pub fn cannot_links(&self) -> impl Iterator<Item = Pair> + '_ {
        self.cannot.iter().copied()
    }

    /// COALA's merge admissibility (slide 32): two object sets may be
    /// *dissimilarity-merged* iff no cannot-link spans them.
    pub fn allows_merge(&self, a: &[usize], b: &[usize]) -> bool {
        // Iterate the smaller product side first for early exit.
        for &i in a {
            for &j in b {
                if self.is_cannot_link(i, j) {
                    return false;
                }
            }
        }
        true
    }

    /// Number of constraints a clustering violates (must-link pairs split
    /// plus cannot-link pairs co-clustered).
    pub fn violations(&self, clustering: &Clustering) -> usize {
        let must_bad = self
            .must
            .iter()
            .filter(|p| !clustering.same_cluster(p.0, p.1))
            .count();
        let cannot_bad = self
            .cannot
            .iter()
            .filter(|p| clustering.same_cluster(p.0, p.1))
            .count();
        must_bad + cannot_bad
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pair_is_order_insensitive() {
        assert_eq!(Pair::new(3, 1), Pair::new(1, 3));
    }

    #[test]
    #[should_panic(expected = "distinct")]
    fn self_pair_rejected() {
        let _ = Pair::new(2, 2);
    }

    #[test]
    fn cannot_links_from_clustering() {
        let given = Clustering::from_labels(&[0, 0, 1, 1, 1]);
        let cs = ConstraintSet::cannot_links_from(&given);
        // C(2,2) + C(3,2) = 1 + 3 pairs.
        assert_eq!(cs.num_cannot(), 4);
        assert!(cs.is_cannot_link(0, 1));
        assert!(cs.is_cannot_link(2, 4));
        assert!(!cs.is_cannot_link(0, 2));
        assert_eq!(cs.num_must(), 0);
    }

    #[test]
    fn metric_constraints_from_clustering() {
        let given = Clustering::from_labels(&[0, 0, 1]);
        let cs = ConstraintSet::from_clustering(&given);
        assert!(cs.is_must_link(0, 1));
        assert!(cs.is_cannot_link(0, 2));
        assert!(cs.is_cannot_link(1, 2));
        assert_eq!(cs.num_must(), 1);
        assert_eq!(cs.num_cannot(), 2);
    }

    #[test]
    fn allows_merge_blocks_spanning_cannot_link() {
        let mut cs = ConstraintSet::new();
        cs.add_cannot_link(1, 4);
        assert!(!cs.allows_merge(&[0, 1], &[4, 5]));
        assert!(cs.allows_merge(&[0, 1], &[2, 3]));
        assert!(cs.allows_merge(&[], &[4]));
    }

    #[test]
    fn violations_counts_both_kinds() {
        let mut cs = ConstraintSet::new();
        cs.add_must_link(0, 1);
        cs.add_cannot_link(2, 3);
        let good = Clustering::from_labels(&[0, 0, 1, 2]);
        assert_eq!(cs.violations(&good), 0);
        let bad = Clustering::from_labels(&[0, 1, 2, 2]);
        assert_eq!(cs.violations(&bad), 2);
    }

    #[test]
    fn noise_objects_violate_must_links() {
        let mut cs = ConstraintSet::new();
        cs.add_must_link(0, 1);
        let c = Clustering::from_options(vec![Some(0), None]);
        assert_eq!(cs.violations(&c), 1);
    }
}
