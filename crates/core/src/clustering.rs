//! Hard and soft clustering representations.

/// A hard clustering of `n` objects into `k` clusters, with optional noise.
///
/// `assignments[i]` is `Some(c)` when object `i` belongs to cluster
/// `c < k`, or `None` for noise/unassigned objects (density-based methods
/// such as DBSCAN and SUBCLU produce these).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Clustering {
    assignments: Vec<Option<usize>>,
    k: usize,
}

impl Clustering {
    /// Builds a clustering from dense labels `0..k` (no noise).
    ///
    /// ```
    /// use multiclust_core::Clustering;
    /// let c = Clustering::from_labels(&[0, 0, 1, 2]);
    /// assert_eq!(c.num_clusters(), 3);
    /// assert!(c.same_cluster(0, 1));
    /// assert!(!c.same_cluster(0, 2));
    /// ```
    pub fn from_labels(labels: &[usize]) -> Self {
        let k = labels.iter().copied().max().map_or(0, |m| m + 1);
        Self { assignments: labels.iter().map(|&l| Some(l)).collect(), k }
    }

    /// Builds a clustering from optional labels (`None` = noise).
    pub fn from_options(assignments: Vec<Option<usize>>) -> Self {
        let k = assignments
            .iter()
            .flatten()
            .copied()
            .max()
            .map_or(0, |m| m + 1);
        Self { assignments, k }
    }

    /// Builds a clustering from explicit member lists. Objects not listed in
    /// any cluster become noise.
    ///
    /// # Panics
    /// Panics if an object appears in two clusters or an index is `≥ n`.
    pub fn from_members(n: usize, clusters: &[Vec<usize>]) -> Self {
        let mut assignments = vec![None; n];
        for (c, members) in clusters.iter().enumerate() {
            for &i in members {
                assert!(i < n, "object index out of range");
                assert!(
                    assignments[i].is_none(),
                    "object {i} assigned to two clusters"
                );
                assignments[i] = Some(c);
            }
        }
        Self { assignments, k: clusters.len() }
    }

    /// Number of objects (including noise).
    pub fn len(&self) -> usize {
        self.assignments.len()
    }

    /// `true` when there are no objects.
    pub fn is_empty(&self) -> bool {
        self.assignments.is_empty()
    }

    /// Number of clusters (including possibly empty label slots).
    pub fn num_clusters(&self) -> usize {
        self.k
    }

    /// Assignment of object `i` (`None` = noise).
    pub fn assignment(&self, i: usize) -> Option<usize> {
        self.assignments[i]
    }

    /// All assignments.
    pub fn assignments(&self) -> &[Option<usize>] {
        &self.assignments
    }

    /// Number of noise objects.
    pub fn num_noise(&self) -> usize {
        self.assignments.iter().filter(|a| a.is_none()).count()
    }

    /// Member lists per cluster (possibly empty lists for unused labels).
    pub fn members(&self) -> Vec<Vec<usize>> {
        let mut out = vec![Vec::new(); self.k];
        for (i, a) in self.assignments.iter().enumerate() {
            if let Some(c) = a {
                out[*c].push(i);
            }
        }
        out
    }

    /// Cluster sizes.
    pub fn sizes(&self) -> Vec<usize> {
        let mut out = vec![0usize; self.k];
        for a in self.assignments.iter().flatten() {
            out[*a] += 1;
        }
        out
    }

    /// `true` when objects `i` and `j` are assigned to the same cluster
    /// (noise objects are co-clustered with nothing, including each other).
    pub fn same_cluster(&self, i: usize, j: usize) -> bool {
        matches!(
            (self.assignments[i], self.assignments[j]),
            (Some(a), Some(b)) if a == b
        )
    }

    /// Canonical relabelling: clusters are renumbered by first appearance
    /// and empty label slots dropped. Two clusterings that induce the same
    /// partition compare equal after canonicalisation.
    #[must_use]
    pub fn canonicalized(&self) -> Self {
        let mut map: Vec<Option<usize>> = vec![None; self.k];
        let mut next = 0;
        let assignments = self
            .assignments
            .iter()
            .map(|a| {
                a.map(|c| {
                    *map[c].get_or_insert_with(|| {
                        let id = next;
                        next += 1;
                        id
                    })
                })
            })
            .collect();
        Self { assignments, k: next }
    }

    /// Restricts the clustering to a subset of objects, renumbering objects
    /// to `0..subset.len()` (labels are kept as-is).
    #[must_use]
    pub fn restricted(&self, subset: &[usize]) -> Self {
        let assignments = subset.iter().map(|&i| self.assignments[i]).collect();
        Self { assignments, k: self.k }
    }
}

/// A soft (probabilistic) clustering: `resp[i][c]` is the responsibility of
/// cluster `c` for object `i`, each row summing to 1.
#[derive(Clone, Debug, PartialEq)]
pub struct SoftClustering {
    resp: Vec<Vec<f64>>,
    k: usize,
}

impl SoftClustering {
    /// Builds from a responsibility matrix.
    ///
    /// # Panics
    /// Panics if rows have inconsistent lengths or a row does not sum to
    /// (approximately) one.
    pub fn new(resp: Vec<Vec<f64>>) -> Self {
        assert!(!resp.is_empty(), "at least one object required");
        let k = resp[0].len();
        for (i, row) in resp.iter().enumerate() {
            assert_eq!(row.len(), k, "row {i} has wrong length");
            let s: f64 = row.iter().sum();
            assert!(
                (s - 1.0).abs() < 1e-6,
                "row {i} responsibilities sum to {s}, expected 1"
            );
        }
        Self { resp, k }
    }

    /// Number of objects.
    pub fn len(&self) -> usize {
        self.resp.len()
    }

    /// `true` when there are no objects.
    pub fn is_empty(&self) -> bool {
        self.resp.is_empty()
    }

    /// Number of mixture components.
    pub fn num_clusters(&self) -> usize {
        self.k
    }

    /// Responsibilities of object `i`.
    pub fn responsibilities(&self, i: usize) -> &[f64] {
        &self.resp[i]
    }

    /// Hardens to a [`Clustering`] by maximum responsibility.
    pub fn to_hard(&self) -> Clustering {
        let labels: Vec<usize> = self
            .resp
            .iter()
            .map(|row| {
                row.iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                    .map(|(c, _)| c)
                    .unwrap_or(0)
            })
            .collect();
        // Preserve k even if some components won no object.
        Clustering {
            assignments: labels.into_iter().map(Some).collect(),
            k: self.k,
        }
    }

    /// Probability that objects `i` and `j` fall in the same cluster under
    /// this model: `Σ_l P(l|i) · P(l|j)` — the co-association statistic of
    /// Fern & Brodley (2003), slide 110.
    pub fn same_cluster_probability(&self, i: usize, j: usize) -> f64 {
        self.resp[i]
            .iter()
            .zip(&self.resp[j])
            .map(|(a, b)| a * b)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_labels_counts_clusters() {
        let c = Clustering::from_labels(&[0, 1, 1, 2]);
        assert_eq!(c.len(), 4);
        assert_eq!(c.num_clusters(), 3);
        assert_eq!(c.sizes(), vec![1, 2, 1]);
        assert_eq!(c.num_noise(), 0);
    }

    #[test]
    fn noise_handling() {
        let c = Clustering::from_options(vec![Some(0), None, Some(0), None]);
        assert_eq!(c.num_noise(), 2);
        assert!(!c.same_cluster(0, 1), "noise co-clusters with nothing");
        assert!(!c.same_cluster(1, 3), "two noise objects are not co-clustered");
        assert!(c.same_cluster(0, 2));
    }

    #[test]
    fn from_members_roundtrip() {
        let c = Clustering::from_members(5, &[vec![0, 2], vec![1, 4]]);
        assert_eq!(c.assignment(0), Some(0));
        assert_eq!(c.assignment(3), None);
        assert_eq!(c.members(), vec![vec![0, 2], vec![1, 4]]);
    }

    #[test]
    #[should_panic(expected = "two clusters")]
    fn from_members_rejects_overlap() {
        let _ = Clustering::from_members(3, &[vec![0, 1], vec![1, 2]]);
    }

    #[test]
    fn canonicalization_merges_equivalent_labelings() {
        let a = Clustering::from_labels(&[2, 2, 0, 0, 1]);
        let b = Clustering::from_labels(&[0, 0, 1, 1, 2]);
        assert_eq!(a.canonicalized(), b.canonicalized());
    }

    #[test]
    fn canonicalization_drops_empty_slots() {
        let c = Clustering::from_labels(&[0, 5]); // labels 1..5 unused
        let canon = c.canonicalized();
        assert_eq!(canon.num_clusters(), 2);
    }

    #[test]
    fn restriction_keeps_labels() {
        let c = Clustering::from_labels(&[0, 1, 2, 1]);
        let r = c.restricted(&[1, 3]);
        assert_eq!(r.len(), 2);
        assert!(r.same_cluster(0, 1));
    }

    #[test]
    fn soft_clustering_hardens_by_max() {
        let s = SoftClustering::new(vec![
            vec![0.9, 0.1],
            vec![0.2, 0.8],
            vec![0.5, 0.5],
        ]);
        let h = s.to_hard();
        assert_eq!(h.assignment(0), Some(0));
        assert_eq!(h.assignment(1), Some(1));
        assert_eq!(h.num_clusters(), 2);
    }

    #[test]
    #[should_panic(expected = "sum")]
    fn soft_clustering_validates_rows() {
        let _ = SoftClustering::new(vec![vec![0.9, 0.3]]);
    }

    #[test]
    fn same_cluster_probability_matches_formula() {
        let s = SoftClustering::new(vec![vec![0.5, 0.5], vec![0.25, 0.75]]);
        let p = s.same_cluster_probability(0, 1);
        assert!((p - (0.5 * 0.25 + 0.5 * 0.75)).abs() < 1e-12);
        // Certainty in the same component gives probability one.
        let s2 = SoftClustering::new(vec![vec![1.0, 0.0], vec![1.0, 0.0]]);
        assert!((s2.same_cluster_probability(0, 1) - 1.0).abs() < 1e-12);
    }
}
