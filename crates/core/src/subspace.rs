//! The `(O, S)` subspace cluster model (slide 65).
//!
//! A subspace cluster is a set of objects `O ⊆ DB` together with the set of
//! relevant attributes `S ⊆ DIM` in which the objects group. A subspace
//! *clustering* is a selected set `M = {(O₁,S₁), …, (O_n,S_n)}` of such
//! clusters. The selection step (`M ⊆ ALL`) is where the multiple-views
//! semantics lives, via concept groups and the `coveredSubspaces_β`
//! relation of OSCLU (slide 82).

use crate::Clustering;

/// A subspace cluster `(O, S)`: objects `O` grouped in subspace `S`.
/// Both lists are kept sorted and deduplicated.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SubspaceCluster {
    objects: Vec<usize>,
    dims: Vec<usize>,
}

impl SubspaceCluster {
    /// Creates a subspace cluster; object and dimension lists are sorted
    /// and deduplicated.
    ///
    /// # Panics
    /// Panics if either list is empty.
    pub fn new(mut objects: Vec<usize>, mut dims: Vec<usize>) -> Self {
        objects.sort_unstable();
        objects.dedup();
        dims.sort_unstable();
        dims.dedup();
        assert!(!objects.is_empty(), "a cluster needs at least one object");
        assert!(!dims.is_empty(), "a subspace needs at least one dimension");
        Self { objects, dims }
    }

    /// Member objects, sorted ascending.
    pub fn objects(&self) -> &[usize] {
        &self.objects
    }

    /// Relevant dimensions, sorted ascending.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Number of member objects.
    pub fn size(&self) -> usize {
        self.objects.len()
    }

    /// Subspace dimensionality `|S|`.
    pub fn dimensionality(&self) -> usize {
        self.dims.len()
    }

    /// `true` when the object is a member (binary search on the sorted
    /// list).
    pub fn contains_object(&self, o: usize) -> bool {
        self.objects.binary_search(&o).is_ok()
    }

    /// Number of objects shared with another cluster.
    pub fn object_overlap(&self, other: &Self) -> usize {
        sorted_intersection_size(&self.objects, &other.objects)
    }

    /// Number of dimensions shared with another cluster.
    pub fn dim_overlap(&self, other: &Self) -> usize {
        sorted_intersection_size(&self.dims, &other.dims)
    }
}

/// A set of subspace clusters — the result type of every subspace method.
pub type SubspaceClustering = Vec<SubspaceCluster>;

/// The `coveredSubspaces_β` relation of OSCLU (slide 82): subspace `T` is
/// covered by subspace `S` iff `|T ∩ S| ≥ β · |T|`, i.e. a high fraction of
/// `T`'s attributes already occur in `S` — the two describe *similar
/// concepts*. `β → 0` degenerates to "any shared attribute covers",
/// `β = 1` to "only sub-(multi)sets are covered".
///
/// Both slices must be sorted ascending (as produced by
/// [`SubspaceCluster::dims`]).
///
/// ```
/// use multiclust_core::subspace::covers_subspace;
/// // Slide 82: {1,2,3,4} covers {1,2,3} (similar concepts)…
/// assert!(covers_subspace(&[1, 2, 3, 4], &[1, 2, 3], 0.75));
/// // …but {1,2} does not cover {3,4} (different concepts).
/// assert!(!covers_subspace(&[1, 2], &[3, 4], 0.75));
/// ```
pub fn covers_subspace(s: &[usize], t: &[usize], beta: f64) -> bool {
    assert!(beta > 0.0 && beta <= 1.0, "β must lie in (0, 1]");
    if t.is_empty() {
        return true;
    }
    let shared = sorted_intersection_size(s, t) as f64;
    shared >= beta * t.len() as f64
}

/// `true` when two clusters belong to the same *concept group*: either
/// subspace covers the other under `β` (slide 83 builds concept groups from
/// exactly this symmetric closure).
pub fn same_concept_group(a: &SubspaceCluster, b: &SubspaceCluster, beta: f64) -> bool {
    covers_subspace(a.dims(), b.dims(), beta) || covers_subspace(b.dims(), a.dims(), beta)
}

/// Converts the member lists of a hard [`Clustering`] in a fixed subspace
/// into subspace clusters (noise objects are skipped, empty clusters
/// dropped).
pub fn from_clustering(clustering: &Clustering, dims: &[usize]) -> SubspaceClustering {
    clustering
        .members()
        .into_iter()
        .filter(|m| !m.is_empty())
        .map(|m| SubspaceCluster::new(m, dims.to_vec()))
        .collect()
}

fn sorted_intersection_size(a: &[usize], b: &[usize]) -> usize {
    let mut i = 0;
    let mut j = 0;
    let mut n = 0;
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                n += 1;
                i += 1;
                j += 1;
            }
        }
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_sorts_and_dedups() {
        let c = SubspaceCluster::new(vec![3, 1, 3, 2], vec![5, 0, 5]);
        assert_eq!(c.objects(), &[1, 2, 3]);
        assert_eq!(c.dims(), &[0, 5]);
        assert_eq!(c.size(), 3);
        assert_eq!(c.dimensionality(), 2);
    }

    #[test]
    fn overlap_counts() {
        let a = SubspaceCluster::new(vec![0, 1, 2, 3], vec![0, 1]);
        let b = SubspaceCluster::new(vec![2, 3, 4], vec![1, 2]);
        assert_eq!(a.object_overlap(&b), 2);
        assert_eq!(a.dim_overlap(&b), 1);
        assert!(a.contains_object(2));
        assert!(!a.contains_object(4));
    }

    /// Slide 82's four worked examples of `coveredSubspaces_β`, with
    /// β chosen mid-range (the slide's qualitative judgements hold for any
    /// β in (0.5, 1)).
    #[test]
    fn slide_82_covered_subspace_examples() {
        let beta = 0.75;
        // {1,2} does not cover {3,4} — different concepts.
        assert!(!covers_subspace(&[1, 2], &[3, 4], beta));
        // {1,2} does not cover {2,3,4} — different concepts.
        assert!(!covers_subspace(&[1, 2], &[2, 3, 4], beta));
        // {1,2,3,4} covers {1,2,3} — similar concepts.
        assert!(covers_subspace(&[1, 2, 3, 4], &[1, 2, 3], beta));
        // {1..9,10} covers {1..9,11} — similar concepts (9/10 shared).
        let s: Vec<usize> = (1..=10).collect();
        let mut t: Vec<usize> = (1..=9).collect();
        t.push(11);
        assert!(covers_subspace(&s, &t, beta));
    }

    #[test]
    fn beta_one_means_subset_only() {
        assert!(covers_subspace(&[1, 2, 3], &[1, 3], 1.0));
        assert!(!covers_subspace(&[1, 2, 3], &[1, 4], 1.0));
    }

    #[test]
    fn tiny_beta_means_any_shared_dim() {
        assert!(covers_subspace(&[1], &[1, 2, 3, 4, 5], 0.2));
        assert!(!covers_subspace(&[9], &[1, 2, 3, 4, 5], 0.2));
    }

    #[test]
    fn concept_groups_are_symmetric_closure() {
        let a = SubspaceCluster::new(vec![0], vec![1, 2, 3, 4]);
        let b = SubspaceCluster::new(vec![1], vec![1, 2]);
        // b's dims ⊆ a's dims: b covered by a even at β=1.
        assert!(same_concept_group(&a, &b, 1.0));
        let c = SubspaceCluster::new(vec![2], vec![7, 8]);
        assert!(!same_concept_group(&a, &c, 0.5));
    }

    #[test]
    fn from_clustering_skips_noise_and_empty() {
        let cl = Clustering::from_options(vec![Some(0), None, Some(0), Some(2)]);
        let sc = from_clustering(&cl, &[1, 3]);
        assert_eq!(sc.len(), 2);
        assert_eq!(sc[0].objects(), &[0, 2]);
        assert_eq!(sc[1].objects(), &[3]);
        assert_eq!(sc[0].dims(), &[1, 3]);
    }

    #[test]
    #[should_panic(expected = "β must lie in (0, 1]")]
    fn beta_out_of_range_panics() {
        let _ = covers_subspace(&[1], &[1], 0.0);
    }
}
