//! Property-based tests for the linear-algebra substrate.

use multiclust_linalg::eigen::{inv_sqrtm, sqrtm};
use multiclust_linalg::vector::{dist, sq_dist};
use multiclust_linalg::{Matrix, Svd, SymmetricEigen};
use proptest::prelude::*;

/// Strategy: a random square matrix with bounded entries.
fn square_matrix(n: usize) -> impl Strategy<Value = Matrix> {
    prop::collection::vec(-10.0..10.0f64, n * n)
        .prop_map(move |data| Matrix::from_vec(n, n, data))
}

/// Strategy: a random symmetric matrix built as (A + Aᵀ)/2.
fn symmetric_matrix(n: usize) -> impl Strategy<Value = Matrix> {
    square_matrix(n).prop_map(|mut a| {
        a.symmetrize();
        a
    })
}

/// Strategy: a random SPD matrix built as AᵀA + I.
fn spd_matrix(n: usize) -> impl Strategy<Value = Matrix> {
    square_matrix(n).prop_map(move |a| {
        let mut g = a.transpose().matmul(&a);
        for i in 0..n {
            g[(i, i)] += 1.0;
        }
        g
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn eigen_reconstructs(a in symmetric_matrix(4)) {
        let e = SymmetricEigen::new(&a);
        prop_assert!(e.reconstruct().approx_eq(&a, 1e-7 * a.max_abs().max(1.0)));
    }

    #[test]
    fn eigen_trace_equals_sum_of_eigenvalues(a in symmetric_matrix(5)) {
        let e = SymmetricEigen::new(&a);
        let sum: f64 = e.values.iter().sum();
        prop_assert!((sum - a.trace()).abs() < 1e-7 * a.max_abs().max(1.0));
    }

    #[test]
    fn eigenvalues_sorted_descending(a in symmetric_matrix(4)) {
        let e = SymmetricEigen::new(&a);
        prop_assert!(e.values.windows(2).all(|w| w[0] >= w[1] - 1e-12));
    }

    /// Every eigenpair satisfies `A·v = λ·v`, the eigenvectors are
    /// orthonormal and the values descend, at every size up to 40.
    #[test]
    fn eigen_pairs_are_accurate_and_orthonormal(n in 1usize..=40, a in symmetric_matrix(n)) {
        let e = SymmetricEigen::new(&a);
        let tol = 1e-10 * a.max_abs().max(1.0);
        for j in 0..n {
            let v = e.eigenvector(j);
            let residual = a
                .matvec(&v)
                .iter()
                .zip(&v)
                .map(|(av, x)| (av - e.values[j] * x).abs())
                .fold(0.0f64, f64::max);
            prop_assert!(residual <= tol, "pair {}: residual {}", j, residual);
        }
        let vtv = e.vectors.transpose().matmul(&e.vectors);
        prop_assert!(vtv.approx_eq(&Matrix::identity(n), 1e-12 * n as f64));
        prop_assert!(e.values.windows(2).all(|w| w[0] >= w[1]));
    }

    #[test]
    fn svd_reconstructs(a in square_matrix(3)) {
        let svd = Svd::new(&a);
        prop_assert!(svd.reconstruct().approx_eq(&a, 1e-6 * a.max_abs().max(1.0)));
    }

    #[test]
    fn svd_values_nonnegative_sorted(a in square_matrix(4)) {
        let svd = Svd::new(&a);
        prop_assert!(svd.singular_values.iter().all(|&s| s >= 0.0));
        prop_assert!(svd.singular_values.windows(2).all(|w| w[0] >= w[1] - 1e-12));
    }

    #[test]
    fn svd_frobenius_identity(a in square_matrix(3)) {
        // ‖A‖²_F = Σ σ²
        let svd = Svd::new(&a);
        let fro2: f64 = a.frobenius_norm().powi(2);
        let sv2: f64 = svd.singular_values.iter().map(|s| s * s).sum();
        prop_assert!((fro2 - sv2).abs() < 1e-6 * fro2.max(1.0));
    }

    #[test]
    fn sqrtm_squares_to_input(a in spd_matrix(3)) {
        let s = sqrtm(&a);
        prop_assert!(s.matmul(&s).approx_eq(&a, 1e-6 * a.max_abs().max(1.0)));
    }

    #[test]
    fn inv_sqrtm_whitens(a in spd_matrix(3)) {
        let w = inv_sqrtm(&a, 1e-12);
        let i = w.matmul(&a).matmul(&w);
        prop_assert!(i.approx_eq(&Matrix::identity(3), 1e-6));
    }

    #[test]
    fn cholesky_inverse_agrees_with_gauss_jordan(a in spd_matrix(3)) {
        let ch = multiclust_linalg::Cholesky::new(&a).expect("SPD by construction");
        let gj = a.inverse().expect("SPD is invertible");
        prop_assert!(ch.inverse().approx_eq(&gj, 1e-6 * gj.max_abs().max(1.0)));
    }

    #[test]
    fn distance_symmetry_and_triangle(
        a in prop::collection::vec(-100.0..100.0f64, 5),
        b in prop::collection::vec(-100.0..100.0f64, 5),
        c in prop::collection::vec(-100.0..100.0f64, 5),
    ) {
        prop_assert!((dist(&a, &b) - dist(&b, &a)).abs() < 1e-12);
        prop_assert!(dist(&a, &c) <= dist(&a, &b) + dist(&b, &c) + 1e-9);
        prop_assert!(sq_dist(&a, &a) == 0.0);
    }

    #[test]
    fn matmul_associativity(a in square_matrix(3), b in square_matrix(3), c in square_matrix(3)) {
        let left = a.matmul(&b).matmul(&c);
        let right = a.matmul(&b.matmul(&c));
        prop_assert!(left.approx_eq(&right, 1e-7 * left.max_abs().max(1.0)));
    }

    #[test]
    fn transpose_of_product(a in square_matrix(3), b in square_matrix(3)) {
        // (AB)ᵀ = BᵀAᵀ
        let lhs = a.matmul(&b).transpose();
        let rhs = b.transpose().matmul(&a.transpose());
        prop_assert!(lhs.approx_eq(&rhs, 1e-9 * lhs.max_abs().max(1.0)));
    }
}
