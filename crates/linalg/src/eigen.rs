//! Symmetric eigendecomposition by Householder tridiagonalisation plus
//! the implicit QL method (EISPACK `tred2`/`tql2`).
//!
//! `tred2` reduces the matrix to tridiagonal form with `n − 2` Householder
//! reflections and accumulates them into an orthogonal `Q`; `tql2` then
//! diagonalises the tridiagonal matrix with implicitly shifted QL sweeps,
//! rotating `Q` along. Both phases together cost `O(n³)` once, not per
//! sweep, which is what makes the `n × n` affinities of the spectral
//! families affordable. Eigenvalues are returned sorted in **descending**
//! order, which is the order PCA and spectral methods consume them in.
//!
//! The working matrix holds `Qᵀ`: every Householder vector, every inner
//! product of the reduction and every QL rotation then runs along a
//! contiguous row, and one transpose at the end yields the eigenvector
//! columns.

use crate::Matrix;

/// Result of a symmetric eigendecomposition `A = V · diag(λ) · Vᵀ`.
#[derive(Clone, Debug)]
pub struct SymmetricEigen {
    /// Eigenvalues, sorted descending.
    pub values: Vec<f64>,
    /// Column `j` of this matrix is the eigenvector for `values[j]`.
    pub vectors: Matrix,
}

impl SymmetricEigen {
    /// Decomposes the symmetric matrix `a`.
    ///
    /// The input is symmetrised (`(A+Aᵀ)/2`) first so that tiny rounding
    /// asymmetries from upstream computations do not trip the method.
    ///
    /// # Panics
    /// Panics if `a` is not square, has a non-finite entry, is grossly
    /// asymmetric (relative asymmetry above `1e-6`), or if the QL
    /// iteration does not converge.
    pub fn new(a: &Matrix) -> Self {
        assert!(a.is_square(), "eigendecomposition requires a square matrix");
        assert!(
            a.as_slice().iter().all(|x| x.is_finite()),
            "eigendecomposition requires finite entries"
        );
        let scale = a.max_abs().max(1.0);
        assert!(
            a.is_symmetric(1e-6 * scale),
            "eigendecomposition requires a (numerically) symmetric matrix"
        );
        let mut m = a.clone();
        m.symmetrize();
        let n = m.rows();
        let mut d = vec![0.0; n];
        let mut e = vec![0.0; n];
        // The input is symmetric, so it already equals its transpose: `m`
        // starts as `Aᵀ` and ends as `Qᵀ`, one eigenvector per row.
        let w = m.as_mut_slice();
        if n > 0 {
            tred2(w, n, &mut d, &mut e);
            tql2(w, n, &mut d, &mut e);
        }

        // Sort eigenpairs by descending eigenvalue.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&i, &j| d[j].total_cmp(&d[i]));
        let vectors = Matrix::from_fn(n, n, |i, j| w[order[j] * n + i]);
        let values = order.iter().map(|&i| d[i]).collect();

        Self { values, vectors }
    }

    /// Reconstructs `V · diag(λ) · Vᵀ` (for testing / residual checks).
    pub fn reconstruct(&self) -> Matrix {
        let d = Matrix::from_diag(&self.values);
        self.vectors.matmul(&d).matmul(&self.vectors.transpose())
    }

    /// Eigenvector for the `j`-th largest eigenvalue, as an owned vector.
    pub fn eigenvector(&self, j: usize) -> Vec<f64> {
        self.vectors.col(j)
    }

    /// Applies `f` to every eigenvalue and reassembles the matrix
    /// `V · diag(f(λ)) · Vᵀ`.
    ///
    /// This is the single primitive behind matrix square roots, inverse
    /// square roots and pseudo-inverses of symmetric matrices.
    pub fn map_values(&self, f: impl Fn(f64) -> f64) -> Matrix {
        let mapped: Vec<f64> = self.values.iter().map(|&l| f(l)).collect();
        let d = Matrix::from_diag(&mapped);
        self.vectors.matmul(&d).matmul(&self.vectors.transpose())
    }
}

/// Symmetric matrix square root `A^{1/2}` (negative eigenvalues are clamped
/// to zero, which turns near-PSD matrices with rounding noise into PSD).
pub fn sqrtm(a: &Matrix) -> Matrix {
    SymmetricEigen::new(a).map_values(|l| l.max(0.0).sqrt())
}

/// Symmetric inverse square root `A^{-1/2}`.
///
/// Eigenvalues below `floor` are regularised to `floor` before inversion so
/// the transformation stays bounded on near-singular scatter matrices; this
/// mirrors the practical regularisation needed to apply Qi & Davidson's
/// closed-form `M = Σ̃^{-1/2}` to degenerate clusterings.
pub fn inv_sqrtm(a: &Matrix, floor: f64) -> Matrix {
    assert!(floor > 0.0, "regularisation floor must be positive");
    SymmetricEigen::new(a).map_values(|l| 1.0 / l.max(floor).sqrt())
}

/// Householder reduction of the symmetric `n × n` row-major matrix `w` to
/// tridiagonal form (EISPACK `tred2`, as in JAMA, with every matrix access
/// transposed so the inner loops run along rows).
///
/// On return `d` holds the diagonal, `e[1..]` the subdiagonal (`e[0] = 0`)
/// and `w` the transpose of the accumulated orthogonal transformation.
/// Only the upper triangle of the input is read.
fn tred2(w: &mut [f64], n: usize, d: &mut [f64], e: &mut [f64]) {
    for j in 0..n {
        d[j] = w[j * n + n - 1];
    }
    for i in (1..n).rev() {
        // Scale the row to avoid under/overflow.
        let scale: f64 = d[..i].iter().map(|x| x.abs()).sum();
        let mut h = 0.0;
        if scale == 0.0 {
            e[i] = d[i - 1];
            for j in 0..i {
                d[j] = w[j * n + i - 1];
                w[j * n + i] = 0.0;
                w[i * n + j] = 0.0;
            }
        } else {
            // Generate the Householder vector.
            for x in &mut d[..i] {
                *x /= scale;
                h += *x * *x;
            }
            let mut f = d[i - 1];
            let mut g = h.sqrt();
            if f > 0.0 {
                g = -g;
            }
            e[i] = scale * g;
            h -= f * g;
            d[i - 1] = f - g;
            e[..i].fill(0.0);
            // Apply the similarity transformation to the remaining rows.
            for j in 0..i {
                f = d[j];
                w[i * n + j] = f;
                let row = &w[j * n..j * n + i];
                g = e[j] + row[j] * f;
                for k in (j + 1)..i {
                    g += row[k] * d[k];
                    e[k] += row[k] * f;
                }
                e[j] = g;
            }
            f = 0.0;
            for j in 0..i {
                e[j] /= h;
                f += e[j] * d[j];
            }
            let hh = f / (h + h);
            for j in 0..i {
                e[j] -= hh * d[j];
            }
            for j in 0..i {
                f = d[j];
                g = e[j];
                let row = &mut w[j * n..j * n + n];
                for k in j..i {
                    row[k] -= f * e[k] + g * d[k];
                }
                d[j] = row[i - 1];
                row[i] = 0.0;
            }
        }
        d[i] = h;
    }
    // Accumulate the transformations.
    for i in 0..n - 1 {
        w[i * n + n - 1] = w[i * n + i];
        w[i * n + i] = 1.0;
        let h = d[i + 1];
        if h != 0.0 {
            let (head, tail) = w.split_at_mut((i + 1) * n);
            let u = &tail[..=i];
            for k in 0..=i {
                d[k] = u[k] / h;
            }
            for j in 0..=i {
                let row = &mut head[j * n..j * n + i + 1];
                let g: f64 = u.iter().zip(row.iter()).map(|(a, b)| a * b).sum();
                for (x, dk) in row.iter_mut().zip(&d[..=i]) {
                    *x -= g * dk;
                }
            }
        }
        w[(i + 1) * n..(i + 1) * n + i + 1].fill(0.0);
    }
    for j in 0..n {
        d[j] = w[j * n + n - 1];
        w[j * n + n - 1] = 0.0;
    }
    w[n * n - 1] = 1.0;
    e[0] = 0.0;
}

/// Diagonalises the symmetric tridiagonal matrix (`d`, `e`) from [`tred2`]
/// by implicitly shifted QL (EISPACK `tql2`), applying every rotation to
/// the rows of `w`. On return `d` holds the (unsorted) eigenvalues and row
/// `j` of `w` the eigenvector of `d[j]`.
///
/// # Panics
/// Panics when an eigenvalue needs more than 30 QL iterations (EISPACK's
/// cap).
fn tql2(w: &mut [f64], n: usize, d: &mut [f64], e: &mut [f64]) {
    e.copy_within(1.., 0);
    e[n - 1] = 0.0;
    let mut f = 0.0;
    let mut tst1 = 0.0f64;
    for l in 0..n {
        // Find a negligible subdiagonal element.
        tst1 = tst1.max(d[l].abs() + e[l].abs());
        let mut m = l;
        while e[m].abs() > f64::EPSILON * tst1 {
            m += 1;
        }
        // If m == l, d[l] is already an eigenvalue; otherwise iterate.
        let mut iterations = 0;
        while m > l && e[l].abs() > f64::EPSILON * tst1 {
            iterations += 1;
            assert!(iterations <= 30, "eigendecomposition did not converge");
            // Implicit shift.
            let mut g = d[l];
            let mut p = (d[l + 1] - g) / (2.0 * e[l]);
            let mut r = p.hypot(1.0);
            if p < 0.0 {
                r = -r;
            }
            d[l] = e[l] / (p + r);
            d[l + 1] = e[l] * (p + r);
            let dl1 = d[l + 1];
            let mut h = g - d[l];
            for x in &mut d[l + 2..] {
                *x -= h;
            }
            f += h;
            // Implicit QL transformation.
            p = d[m];
            let mut c = 1.0;
            let mut c2 = c;
            let mut c3 = c;
            let el1 = e[l + 1];
            let mut s = 0.0;
            let mut s2 = 0.0;
            for i in (l..m).rev() {
                c3 = c2;
                c2 = c;
                s2 = s;
                g = c * e[i];
                h = c * p;
                r = p.hypot(e[i]);
                e[i + 1] = s * r;
                s = e[i] / r;
                c = p / r;
                p = c * d[i] - s * g;
                d[i + 1] = h + s * (c * g + s * d[i]);
                // Accumulate the rotation into eigenvector rows i and i+1.
                let (upper, lower) = w[i * n..(i + 2) * n].split_at_mut(n);
                for (vi, vi1) in upper.iter_mut().zip(lower.iter_mut()) {
                    let t = *vi1;
                    *vi1 = s * *vi + c * t;
                    *vi = c * *vi - s * t;
                }
            }
            p = -s * s2 * c3 * el1 * e[l] / dl1;
            e[l] = s * p;
            d[l] = c * p;
        }
        d[l] += f;
        e[l] = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vector::dot;

    #[test]
    fn eigen_of_diagonal_matrix() {
        let a = Matrix::from_diag(&[3.0, 1.0, 2.0]);
        let e = SymmetricEigen::new(&a);
        assert!((e.values[0] - 3.0).abs() < 1e-10);
        assert!((e.values[1] - 2.0).abs() < 1e-10);
        assert!((e.values[2] - 1.0).abs() < 1e-10);
    }

    #[test]
    fn eigen_known_2x2() {
        // [[2,1],[1,2]] has eigenvalues 3 and 1 with eigenvectors
        // (1,1)/√2 and (1,-1)/√2.
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]);
        let e = SymmetricEigen::new(&a);
        assert!((e.values[0] - 3.0).abs() < 1e-10);
        assert!((e.values[1] - 1.0).abs() < 1e-10);
        let v0 = e.eigenvector(0);
        assert!((v0[0].abs() - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-10);
        assert!((v0[0] - v0[1]).abs() < 1e-10);
    }

    #[test]
    fn reconstruction_matches_input() {
        let a = Matrix::from_rows(&[
            &[4.0, 1.0, -2.0],
            &[1.0, 2.0, 0.0],
            &[-2.0, 0.0, 3.0],
        ]);
        let e = SymmetricEigen::new(&a);
        assert!(e.reconstruct().approx_eq(&a, 1e-9));
    }

    #[test]
    fn eigenvectors_are_orthonormal() {
        let a = Matrix::from_rows(&[
            &[5.0, 2.0, 1.0],
            &[2.0, 6.0, 2.0],
            &[1.0, 2.0, 7.0],
        ]);
        let e = SymmetricEigen::new(&a);
        for i in 0..3 {
            for j in 0..3 {
                let d = dot(&e.eigenvector(i), &e.eigenvector(j));
                let expected = if i == j { 1.0 } else { 0.0 };
                assert!((d - expected).abs() < 1e-9, "({i},{j}): {d}");
            }
        }
    }

    #[test]
    fn sqrtm_squares_back() {
        let a = Matrix::from_rows(&[&[4.0, 1.0], &[1.0, 9.0]]);
        let s = sqrtm(&a);
        assert!(s.matmul(&s).approx_eq(&a, 1e-9));
    }

    #[test]
    fn inv_sqrtm_inverts_sqrt() {
        let a = Matrix::from_rows(&[&[4.0, 1.0], &[1.0, 9.0]]);
        let is = inv_sqrtm(&a, 1e-12);
        // A^{-1/2} · A · A^{-1/2} = I
        let i = is.matmul(&a).matmul(&is);
        assert!(i.approx_eq(&Matrix::identity(2), 1e-9));
    }

    #[test]
    fn inv_sqrtm_regularises_singular_matrix() {
        // Rank-1 matrix: the floor keeps the result finite.
        let a = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 1.0]]);
        let is = inv_sqrtm(&a, 1e-6);
        assert!(is.max_abs().is_finite());
    }

    /// Asserts `A·v = λ·v` for every pair, `VᵀV = I` and descending order.
    fn assert_decomposes(a: &Matrix, e: &SymmetricEigen) {
        let n = a.rows();
        assert_eq!(e.values.len(), n);
        assert_eq!((e.vectors.rows(), e.vectors.cols()), (n, n));
        assert!(e.values.windows(2).all(|w| w[0] >= w[1]), "{:?}", e.values);
        let tol = 1e-12 * a.max_abs().max(1.0);
        for j in 0..n {
            let v = e.eigenvector(j);
            let av = a.matvec(&v);
            for (x, y) in av.iter().zip(&v) {
                assert!((x - e.values[j] * y).abs() <= tol, "pair {j}: {x} vs λ·{y}");
            }
        }
        let vtv = e.vectors.transpose().matmul(&e.vectors);
        assert!(vtv.approx_eq(&Matrix::identity(n), 1e-14 * n as f64));
    }

    #[test]
    fn empty_matrix_has_no_eigenpairs() {
        let e = SymmetricEigen::new(&Matrix::zeros(0, 0));
        assert!(e.values.is_empty());
        assert_eq!((e.vectors.rows(), e.vectors.cols()), (0, 0));
    }

    #[test]
    fn one_by_one_is_its_own_eigenvalue() {
        let a = Matrix::from_rows(&[&[-3.5]]);
        let e = SymmetricEigen::new(&a);
        assert_eq!(e.values, vec![-3.5]);
        assert_eq!(e.vectors, Matrix::identity(1));
    }

    #[test]
    fn zero_matrix_keeps_the_identity_basis() {
        let a = Matrix::zeros(5, 5);
        let e = SymmetricEigen::new(&a);
        assert!(e.values.iter().all(|&l| l == 0.0));
        assert_decomposes(&a, &e);
    }

    #[test]
    fn identity_has_one_repeated_eigenvalue() {
        let a = Matrix::identity(7);
        let e = SymmetricEigen::new(&a);
        assert!(e.values.iter().all(|&l| l == 1.0), "{:?}", e.values);
        assert_decomposes(&a, &e);
    }

    #[test]
    fn repeated_eigenvalues_get_orthonormal_eigenspaces() {
        let a = Matrix::from_diag(&[2.0, 2.0, 1.0, 1.0]);
        let e = SymmetricEigen::new(&a);
        assert_eq!(e.values, vec![2.0, 2.0, 1.0, 1.0]);
        assert_decomposes(&a, &e);
    }

    /// A normalised affinity `D^{-1/2} W D^{-1/2}` whose last object is
    /// isolated: its row and column are all zero, as the spectral
    /// embedding builds them for a zero-degree object.
    #[test]
    fn normalised_affinity_with_an_isolated_object() {
        let points: [f64; 6] = [0.0, 0.4, 1.1, 5.0, 5.3, 1e3];
        let n = points.len();
        let w = Matrix::from_fn(n, n, |i, j| {
            if i == j {
                0.0
            } else {
                (-(points[i] - points[j]) * (points[i] - points[j]) / 2.0).exp()
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
        assert_eq!(dinv[n - 1], 0.0, "the far object is isolated");
        let a = Matrix::from_fn(n, n, |i, j| dinv[i] * w[(i, j)] * dinv[j]);
        let e = SymmetricEigen::new(&a);
        assert!((e.values[0] - 1.0).abs() < 1e-12, "{:?}", e.values);
        assert_decomposes(&a, &e);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn nan_entry_panics() {
        let a = Matrix::from_rows(&[&[1.0, f64::NAN], &[f64::NAN, 1.0]]);
        let _ = SymmetricEigen::new(&a);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn infinite_entry_panics() {
        let a = Matrix::from_rows(&[&[f64::INFINITY, 0.0], &[0.0, 1.0]]);
        let _ = SymmetricEigen::new(&a);
    }

    #[test]
    #[should_panic(expected = "symmetric")]
    fn asymmetric_input_panics() {
        let a = Matrix::from_rows(&[&[1.0, 5.0], &[0.0, 1.0]]);
        let _ = SymmetricEigen::new(&a);
    }
}
