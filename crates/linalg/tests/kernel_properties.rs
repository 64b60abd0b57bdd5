//! Property tests of the distance-kernel engine: the structural contracts
//! of the shared symmetric matrix, bit-identity of the cached norms, and
//! bit-identity of the bound-pruned assignment against the exhaustive
//! scan over random data, seeds and k.

use multiclust_linalg::block;
use multiclust_linalg::kernels::{
    assign_by_dist, gaussian_affinity_matrix, reference, set_kernel_mode, sq_dist_matrix,
    sq_norms, KernelMode, NearestAssign,
};
use multiclust_linalg::vector::dot;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Mutex;

/// Serializes tests that flip the process-global kernel mode, and restores
/// the ambient default on exit (even on assertion failure).
static MODE_LOCK: Mutex<()> = Mutex::new(());

fn with_mode<T>(mode: KernelMode, f: impl FnOnce() -> T) -> T {
    let _guard = MODE_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    struct Restore;
    impl Drop for Restore {
        fn drop(&mut self) {
            set_kernel_mode(None);
        }
    }
    let _restore = Restore;
    set_kernel_mode(Some(mode));
    f()
}

/// Flat row-major data: up to 40 rows of up to 8 dimensions, with entries
/// spanning several orders of magnitude around zero.
fn flat_data(seed: u64, max_n: usize, max_d: usize) -> (usize, usize, Vec<f64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.gen_range(2..=max_n);
    let d = rng.gen_range(1..=max_d);
    let scale = 10f64.powi(rng.gen_range(-3..=3));
    let flat = (0..n * d).map(|_| rng.gen_range(-5.0..5.0) * scale).collect();
    (n, d, flat)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The distance matrix is symmetric with a zero diagonal and no
    /// negative entries, and agrees bit-for-bit with the naive double loop.
    #[test]
    fn distance_matrix_structure(seed in 0u64..1_000_000) {
        let (n, d, flat) = flat_data(seed, 40, 8);
        let m = sq_dist_matrix(d, &flat);
        let naive = reference::sq_dist_matrix(d, &flat);
        prop_assert_eq!(m.values(), naive.values());
        for i in 0..n {
            prop_assert_eq!(m.get(i, i), 0.0);
            for j in 0..n {
                let v = m.get(i, j);
                prop_assert!(v >= 0.0, "negative distance at ({}, {}): {}", i, j, v);
                prop_assert_eq!(v, m.get(j, i));
            }
        }
    }

    /// Cached row norms equal per-row recomputation bit-for-bit, at any
    /// data scale.
    #[test]
    fn norms_cache_bit_identity(seed in 0u64..1_000_000) {
        let (n, d, flat) = flat_data(seed, 40, 8);
        let norms = sq_norms(d, &flat);
        prop_assert_eq!(norms.len(), n);
        for i in 0..n {
            let row = &flat[i * d..(i + 1) * d];
            prop_assert_eq!(norms[i], dot(row, row));
        }
    }

    /// Hamerly-pruned assignment equals the exhaustive scan bit-for-bit —
    /// over random data, random k, and several rounds of centre drift
    /// (exercising the cross-iteration bound updates, not just the cold
    /// scan). k ranges past one SIMD stripe of centres, so it straddles
    /// the sweep/Hamerly crossover and the scalar/panel warm rows.
    #[test]
    fn pruned_assignment_bit_identity(seed in 0u64..1_000_000) {
        let (n, d, flat) = flat_data(seed, 40, 6);
        let norms = sq_norms(d, &flat);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xabcd_ef01);
        let k = rng.gen_range(1..=n.min(block::STRIPE + 4));
        let mut centers: Vec<Vec<f64>> = (0..k)
            .map(|c| flat[c * d..(c + 1) * d].to_vec())
            .collect();
        let mut assigner = NearestAssign::new(n);
        for round in 0..4 {
            assigner.assign(d, &flat, &norms, &centers);
            for i in 0..n {
                let want = reference::nearest(&flat[i * d..(i + 1) * d], &centers).0;
                prop_assert!(
                    assigner.labels()[i] == want,
                    "round {} object {} diverged",
                    round,
                    i
                );
            }
            for c in centers.iter_mut() {
                for x in c.iter_mut() {
                    *x += rng.gen_range(-1.0..1.0);
                }
            }
        }
    }

    /// The one-shot distance-space assignment (PROCLUS localities) equals
    /// the first-minimum scan over computed Euclidean distances.
    #[test]
    fn dist_space_assignment_bit_identity(seed in 0u64..1_000_000) {
        let (n, d, flat) = flat_data(seed, 32, 6);
        let norms = sq_norms(d, &flat);
        let k = (seed as usize % n.min(5)) + 1;
        let centers: Vec<Vec<f64>> = (0..k)
            .map(|c| flat[c * d..(c + 1) * d].to_vec())
            .collect();
        let labels = assign_by_dist(d, &flat, &norms, &centers);
        for i in 0..n {
            let want = reference::nearest_by_dist(&flat[i * d..(i + 1) * d], &centers);
            prop_assert!(labels[i] == want, "object {} diverged", i);
        }
    }

    /// The blocked kernels and the naive reference produce bit-identical
    /// distance matrices, Gaussian affinities, and nearest assignments.
    /// Centre counts deliberately straddle `block::STRIPE`, and the
    /// centres drift over several rounds by a small fraction of the data
    /// spread, so the cold across-points exact sweep, the warm Hamerly
    /// skips and the warm full scans — scalar rows below one stripe of
    /// centres, panel rows from it on — are all exercised; labels are
    /// checked after every round.
    #[test]
    fn kernel_tiers_bit_identical(seed in 0u64..1_000_000) {
        let (n, d, flat) = flat_data(seed, 40, 8);
        let norms = sq_norms(d, &flat);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_cafe);
        let k = rng.gen_range(1..=n.min(block::STRIPE + 4));
        let mut centers: Vec<Vec<f64>> = (0..k)
            .map(|c| flat[(c % n) * d..(c % n + 1) * d].to_vec())
            .collect();
        for c in centers.iter_mut() {
            for x in c.iter_mut() {
                *x += rng.gen_range(-1.0..1.0);
            }
        }
        let spread = flat.iter().fold(0.0f64, |m, x| m.max(x.abs()));
        let denom = 2.0 * rng.gen_range(0.5..3.0f64).powi(2);

        let want_sq = with_mode(KernelMode::Naive, || sq_dist_matrix(d, &flat));
        let want_aff =
            with_mode(KernelMode::Naive, || gaussian_affinity_matrix(d, &flat, denom));

        with_mode(KernelMode::Blocked, || {
            let sq = sq_dist_matrix(d, &flat);
            prop_assert_eq!(sq.values(), want_sq.values());
            let aff = gaussian_affinity_matrix(d, &flat, denom);
            for (idx, (got, want)) in
                aff.as_slice().iter().zip(want_aff.as_slice()).enumerate()
            {
                prop_assert!(got.to_bits() == want.to_bits(), "affinity entry {} diverged", idx);
            }
            let mut assigner = NearestAssign::new(n);
            for round in 0..4 {
                assigner.assign(d, &flat, &norms, &centers);
                for i in 0..n {
                    let want = reference::nearest(&flat[i * d..(i + 1) * d], &centers).0;
                    prop_assert!(
                        assigner.labels()[i] == want,
                        "k {} round {} label {} diverged",
                        k, round, i
                    );
                }
                for c in centers.iter_mut() {
                    for x in c.iter_mut() {
                        *x += 0.05 * spread * rng.gen_range(-1.0..1.0);
                    }
                }
            }
            Ok(())
        })?;
    }

    /// Duplicated rows far from the origin: distances collapse to exactly
    /// zero on the diagonal blocks and the assignment still matches.
    #[test]
    fn duplicates_stay_bit_identical(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let d = rng.gen_range(1..=5usize);
        let base: Vec<f64> = (0..d).map(|_| rng.gen_range(-3.0..3.0) * 1e6).collect();
        // Ten copies of one far-from-origin row plus a distinct one.
        let mut flat = Vec::new();
        for _ in 0..10 {
            flat.extend_from_slice(&base);
        }
        flat.extend((0..d).map(|_| rng.gen_range(-3.0..3.0)));
        let n = 11;
        let norms = sq_norms(d, &flat);
        let m = sq_dist_matrix(d, &flat);
        for i in 0..10 {
            for j in 0..10 {
                prop_assert!(m.get(i, j) == 0.0, "duplicate pair ({}, {})", i, j);
            }
        }
        let centers = vec![base.clone(), flat[10 * d..].to_vec()];
        let mut assigner = NearestAssign::new(n);
        assigner.assign(d, &flat, &norms, &centers);
        for i in 0..n {
            let want = reference::nearest(&flat[i * d..(i + 1) * d], &centers).0;
            prop_assert_eq!(assigner.labels()[i], want);
        }
    }
}
