//! Seeded scenario generators: planted multi-view structure plus the
//! adversarial edge cases every paradigm must survive.
//!
//! Each generator returns a [`Scenario`] — a dataset together with
//! everything a family needs to run on it (a reference clustering for the
//! alternative/orthogonal paradigms, attribute groups for the multi-view
//! paradigm, a suggested `k`) and the flags the invariant registry uses to
//! decide which metamorphic checks are meaningful on this input.

use multiclust_core::Clustering;
use multiclust_data::synthetic::{four_blob_square, gaussian_blobs, planted_views, ViewSpec};
use multiclust_data::{seeded_rng, Dataset};
use rand::Rng;

/// One verification scenario: a dataset with known structure and the
/// side-channel inputs the algorithm families consume.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Stable identifier (used in reports and golden files).
    pub name: &'static str,
    /// The objects.
    pub dataset: Dataset,
    /// A planted reference clustering (the "given" solution the
    /// alternative and orthogonal paradigms deviate from).
    pub given: Clustering,
    /// Suggested cluster count for partitioning families.
    pub k: usize,
    /// Attribute groups for the multi-view paradigm (≥ 2 groups).
    pub view_groups: Vec<Vec<usize>>,
    /// `true` when cluster structure is separated enough that robust
    /// algorithms recover the same partition under benign transformations
    /// (point permutation, translation). Strong metamorphic invariants
    /// only run on these scenarios.
    pub well_separated: bool,
    /// Groups of indices that are exact duplicates of each other
    /// (empty when the scenario plants none).
    pub duplicate_groups: Vec<Vec<usize>>,
}

impl Scenario {
    /// Splits `d` attributes into two contiguous view groups.
    fn half_views(d: usize) -> Vec<Vec<usize>> {
        let mid = (d / 2).max(1);
        vec![(0..mid).collect(), (mid..d).collect()]
    }
}

/// Two statistically independent planted views — the paper's central
/// object of study (slide 27): alternative groupings hidden in disjoint
/// attribute subsets.
pub fn planted_two_views(seed: u64) -> Scenario {
    let mut rng = seeded_rng(seed);
    let specs = [
        ViewSpec { dims: 2, clusters: 2, separation: 14.0, noise: 0.7 },
        ViewSpec { dims: 2, clusters: 2, separation: 14.0, noise: 0.7 },
    ];
    let p = planted_views(72, &specs, 0, &mut rng);
    Scenario {
        name: "planted-two-views",
        given: Clustering::from_labels(&p.truths[0]),
        k: 2,
        view_groups: p.view_dims.clone(),
        dataset: p.dataset,
        well_separated: true,
        duplicate_groups: Vec::new(),
    }
}

/// The slide-26 four-blob square: two equally meaningful orthogonal
/// 2-partitions of the same 2-d data.
pub fn four_blobs(seed: u64) -> Scenario {
    let fb = four_blob_square(16, 12.0, 0.5, &mut seeded_rng(seed));
    Scenario {
        name: "four-blobs",
        given: Clustering::from_labels(&fb.horizontal),
        k: 2,
        view_groups: Scenario::half_views(fb.dataset.dims()),
        dataset: fb.dataset,
        well_separated: true,
        duplicate_groups: Vec::new(),
    }
}

/// Every object repeated three times, byte-for-byte. Deterministic
/// assignment rules must give all copies the same label.
pub fn duplicate_points(seed: u64) -> Scenario {
    let (base, labels) = gaussian_blobs(
        &[vec![0.0, 0.0, 0.0], vec![10.0, 10.0, 10.0], vec![-10.0, 10.0, -10.0]],
        0.6,
        8,
        &mut seeded_rng(seed),
    );
    let mut ds = Dataset::with_dims(base.dims());
    let mut truth = Vec::new();
    let mut duplicate_groups = Vec::new();
    for (i, row) in base.rows().enumerate() {
        let start = ds.len();
        for _ in 0..3 {
            ds.push_row(row);
            truth.push(labels[i]);
        }
        duplicate_groups.push((start..start + 3).collect());
    }
    Scenario {
        name: "duplicate-points",
        given: Clustering::from_labels(&truth),
        k: 3,
        view_groups: Scenario::half_views(ds.dims()),
        dataset: ds,
        well_separated: true,
        duplicate_groups,
    }
}

/// Two informative attributes plus two exactly constant ones — zero
/// variance must not produce NaNs or divisions by zero anywhere.
pub fn constant_features(seed: u64) -> Scenario {
    let (base, labels) = gaussian_blobs(
        &[vec![0.0, 0.0], vec![12.0, 12.0]],
        0.6,
        24,
        &mut seeded_rng(seed),
    );
    let mut ds = Dataset::with_dims(4);
    for row in base.rows() {
        ds.push_row(&[row[0], row[1], 7.0, -3.0]);
    }
    Scenario {
        name: "constant-features",
        given: Clustering::from_labels(&labels),
        k: 2,
        view_groups: vec![vec![0, 1], vec![2, 3]],
        dataset: ds,
        // Constant dims carry no structure; k-means still separates the
        // blobs, but spectral bandwidths shrink — keep strong invariants
        // on but flag no duplicates.
        well_separated: true,
        duplicate_groups: Vec::new(),
    }
}

/// `k == n`: every object must become its own cluster — the boundary the
/// `k ≥ n` guard rejects one step later.
pub fn k_equals_n(seed: u64) -> Scenario {
    let mut rng = seeded_rng(seed);
    let n = 8;
    let mut ds = Dataset::with_dims(2);
    let mut given = Vec::new();
    for i in 0..n {
        // Far-apart anchor points with tiny jitter: singleton clusters.
        let jitter = 0.01 * rng.gen::<f64>();
        ds.push_row(&[40.0 * i as f64 + jitter, -40.0 * i as f64]);
        given.push(i / (n / 2));
    }
    Scenario {
        name: "k-equals-n",
        given: Clustering::from_labels(&given),
        k: n,
        view_groups: vec![vec![0], vec![1]],
        dataset: ds,
        // Singleton clusters are maximally separated but degenerate for
        // several paradigms — strong invariants stay off.
        well_separated: false,
        duplicate_groups: Vec::new(),
    }
}

/// Near-collinear data: two groups along one line with orthogonal jitter
/// at the edge of floating-point relevance — scatter matrices are nearly
/// rank one.
pub fn near_collinear(seed: u64) -> Scenario {
    let mut rng = seeded_rng(seed);
    let mut ds = Dataset::with_dims(2);
    let mut given = Vec::new();
    for i in 0..48 {
        let group = i / 24;
        let t = (i % 24) as f64 * 0.25 + group as f64 * 30.0;
        ds.push_row(&[t, 2.0 * t + 1e-9 * rng.gen::<f64>()]);
        given.push(group);
    }
    Scenario {
        name: "near-collinear",
        given: Clustering::from_labels(&given),
        k: 2,
        view_groups: vec![vec![0], vec![1]],
        dataset: ds,
        well_separated: true,
        duplicate_groups: Vec::new(),
    }
}

/// Attributes spanning eighteen orders of magnitude — distance sums must
/// not lose the small attribute to catastrophic rounding in a way that
/// breaks determinism or validity.
pub fn extreme_scales(seed: u64) -> Scenario {
    let (base, labels) = gaussian_blobs(
        &[vec![0.0, 0.0], vec![8.0, 8.0]],
        0.5,
        24,
        &mut seeded_rng(seed),
    );
    let mut ds = Dataset::with_dims(2);
    for row in base.rows() {
        ds.push_row(&[row[0] * 1e9, row[1] * 1e-9]);
    }
    Scenario {
        name: "extreme-scales",
        given: Clustering::from_labels(&labels),
        k: 2,
        view_groups: vec![vec![0], vec![1]],
        dataset: ds,
        // The 1e-9 attribute is numerically invisible next to 1e9; the
        // partition is still recoverable from dim 0 alone.
        well_separated: true,
        duplicate_groups: Vec::new(),
    }
}

/// The full scenario catalog, in report order, derived from one seed.
pub fn catalog(seed: u64) -> Vec<Scenario> {
    vec![
        planted_two_views(seed),
        four_blobs(seed.wrapping_add(1)),
        duplicate_points(seed.wrapping_add(2)),
        constant_features(seed.wrapping_add(3)),
        k_equals_n(seed.wrapping_add(4)),
        near_collinear(seed.wrapping_add(5)),
        extreme_scales(seed.wrapping_add(6)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_is_deterministic_and_named_uniquely() {
        let a = catalog(42);
        let b = catalog(42);
        assert_eq!(a.len(), b.len());
        let mut names: Vec<&str> = a.iter().map(|s| s.name).collect();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.dataset, y.dataset, "{} not deterministic", x.name);
        }
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), a.len(), "scenario names must be unique");
    }

    #[test]
    fn scenarios_are_internally_consistent() {
        for s in catalog(7) {
            assert!(!s.dataset.is_empty(), "{}", s.name);
            assert_eq!(s.given.len(), s.dataset.len(), "{}", s.name);
            assert!(s.k >= 1 && s.k <= s.dataset.len(), "{}", s.name);
            assert!(s.view_groups.len() >= 2, "{}", s.name);
            for g in &s.view_groups {
                assert!(g.iter().all(|&d| d < s.dataset.dims()), "{}", s.name);
            }
            for group in &s.duplicate_groups {
                let first = s.dataset.row(group[0]);
                for &i in group {
                    assert_eq!(s.dataset.row(i), first, "{}", s.name);
                }
            }
        }
    }

    #[test]
    fn duplicates_are_planted() {
        let s = duplicate_points(9);
        assert_eq!(s.duplicate_groups.len(), 24);
        assert_eq!(s.dataset.len(), 72);
    }
}
