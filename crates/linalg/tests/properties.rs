//! Property-based tests for the linear-algebra substrate.

use multiclust_linalg::eigen::{inv_sqrtm, sqrtm};
use multiclust_linalg::vector::{dist, dot, sq_dist};
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

/// Asserts that `SymmetricEigen::top(a, k)` is the first `k` pairs of
/// `SymmetricEigen::new(a)`: every eigenvalue bit for bit, each vector to
/// rounding and with the same sign, and the `k` pairs themselves
/// orthonormal eigenpairs of `a` to the dense solver's own tolerances.
fn assert_top_matches(a: &Matrix, k: usize) {
    let n = a.rows();
    let full = SymmetricEigen::new(a);
    let top = SymmetricEigen::top(a.clone(), k);
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&top.values), bits(&full.values), "values differ from new's");
    assert_eq!((top.vectors.rows(), top.vectors.cols()), (n, k));
    let tol = 1e-12 * a.max_abs().max(1.0);
    for j in 0..k {
        let (v, u) = (top.eigenvector(j), full.eigenvector(j));
        let gap = v.iter().zip(&u).map(|(x, y)| (x - y).abs()).fold(0.0f64, f64::max);
        assert!(gap <= tol, "column {j} is {gap:e} from new's (n = {n}, k = {k})");
        assert!(dot(&v, &u) > 0.0, "column {j} flipped sign");
        for (x, y) in a.matvec(&v).iter().zip(&v) {
            assert!((x - top.values[j] * y).abs() <= tol, "pair {j}: {x} vs λ·{y}");
        }
    }
    let vtv = top.vectors.transpose().matmul(&top.vectors);
    assert!(vtv.approx_eq(&Matrix::identity(k), 1e-14 * n as f64), "VᵀV ≠ I");
}

/// The normalised affinity `D^{-1/2} W D^{-1/2}` of Gaussian weights
/// (`σ = 1`, zero diagonal) over 1-d points; a zero-degree object gets a
/// zero row and column, as the spectral embedding builds it.
fn normalised_affinity(points: &[f64]) -> Matrix {
    let n = points.len();
    let w = Matrix::from_fn(n, n, |i, j| {
        let d = points[i] - points[j];
        if i == j {
            0.0
        } else {
            (-d * d / 2.0).exp()
        }
    });
    let dinv: Vec<f64> = (0..n)
        .map(|i| {
            let deg: f64 = w.row(i).iter().sum();
            if deg > 0.0 {
                1.0 / deg.sqrt()
            } else {
                0.0
            }
        })
        .collect();
    Matrix::from_fn(n, n, |i, j| dinv[i] * w[(i, j)] * dinv[j])
}

/// Blocks of points, block `b` jittered within `[b·gap, b·gap + 1)`.
/// Far enough apart, the normalised affinity's top `blocks.len()`
/// eigenvalues all lie within rounding of 1; past `gap ≈ 39` the cross
/// weights underflow to exact zeros.
fn blocked_points(blocks: &[Vec<f64>], gap: f64) -> Vec<f64> {
    blocks
        .iter()
        .enumerate()
        .flat_map(|(b, jitter)| jitter.iter().map(move |x| b as f64 * gap + x))
        .collect()
}

#[test]
fn top_covers_the_dense_solvers_edge_cases() {
    let edge_cases = [
        Matrix::zeros(0, 0),
        Matrix::from_rows(&[&[-3.5]]),
        Matrix::zeros(5, 5),
        Matrix::identity(7),
        Matrix::from_diag(&[2.0, 2.0, 1.0, 1.0]),
        Matrix::from_diag(&[3.0, 1.0, 2.0]),
        Matrix::from_rows(&[&[4.0, 1.0, -2.0], &[1.0, 2.0, 0.0], &[-2.0, 0.0, 3.0]]),
        // The last object is isolated: an all-zero row and column.
        normalised_affinity(&[0.0, 0.4, 1.1, 5.0, 5.3, 1e3]),
    ];
    for a in &edge_cases {
        let n = a.rows();
        for k in [0, 1, n / 2, n] {
            if k <= n {
                assert_top_matches(a, k);
            }
        }
    }
}

#[test]
#[should_panic(expected = "eigenvectors")]
fn top_refuses_more_vectors_than_rows() {
    let _ = SymmetricEigen::top(Matrix::identity(3), 4);
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

    /// `top` is `new`'s first `k` pairs on random symmetric matrices, at
    /// `k = 0`, `1`, a random `k` and `k = n`.
    #[test]
    fn top_matches_the_full_solve(n in 1usize..=40, a in symmetric_matrix(n), pick in 0.0..1.0f64) {
        for k in [0, 1, (pick * n as f64) as usize, n] {
            assert_top_matches(&a, k);
        }
    }

    /// On block-clustered normalised affinities the top eigenvalues form
    /// one cluster within 1e-13; `top` still returns `new`'s basis of
    /// that cluster, not merely some basis of it.
    #[test]
    fn top_matches_the_full_solve_inside_an_eigenvalue_cluster(
        jitter in prop::collection::vec(prop::collection::vec(0.0..1.0f64, 3..=12), 2..=5),
        gap in 9.0..60.0f64,
    ) {
        let (points, blocks) = (blocked_points(&jitter, gap), jitter.len());
        let a = normalised_affinity(&points);
        let full = SymmetricEigen::new(&a);
        let spread = full.values[0] - full.values[blocks - 1];
        prop_assert!(spread <= 1e-13, "{:?}", &full.values[..blocks]);
        for k in [0, 1, blocks, points.len()] {
            assert_top_matches(&a, k);
        }
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
