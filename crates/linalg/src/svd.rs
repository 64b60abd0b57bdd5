//! Singular value decomposition for small dense matrices.
//!
//! The tutorial's orthogonal-transformation paradigm (slides 50–51) uses the
//! SVD of a learned distance metric `D = H · S · A` and then *inverts the
//! stretcher*: `M = H · S⁻¹ · A`. This module provides exactly that
//! decomposition, built on the tridiagonal-QL symmetric eigensolver: we
//! eigendecompose `AᵀA` to obtain `V` and the singular values, then recover
//! `U` column by column (with Gram–Schmidt completion for rank-deficient
//! inputs).

use crate::eigen::SymmetricEigen;
use crate::vector::{dot, norm, normalize};
use crate::{Matrix, EPS};

/// A singular value decomposition `A = U · diag(σ) · Vᵀ`.
#[derive(Clone, Debug)]
pub struct Svd {
    /// Left singular vectors (`m × m`, orthogonal).
    pub u: Matrix,
    /// Singular values, sorted descending, length `min(m, n)`.
    pub singular_values: Vec<f64>,
    /// Right singular vectors (`n × n`, orthogonal). Note: `V`, not `Vᵀ`.
    pub v: Matrix,
}

impl Svd {
    /// Computes the full SVD of `a`.
    pub fn new(a: &Matrix) -> Self {
        let m = a.rows();
        let n = a.cols();
        let at = a.transpose();
        // Eigen of the smaller Gram matrix for efficiency.
        if m >= n {
            let gram = at.matmul(a); // n×n
            let eig = SymmetricEigen::new(&gram);
            let singular_values: Vec<f64> =
                eig.values.iter().map(|&l| l.max(0.0).sqrt()).collect();
            let v = eig.vectors.clone();
            let u = recover_side(a, &v, &singular_values, m);
            Self { u, singular_values, v }
        } else {
            let gram = a.matmul(&at); // m×m
            let eig = SymmetricEigen::new(&gram);
            let singular_values: Vec<f64> =
                eig.values.iter().map(|&l| l.max(0.0).sqrt()).collect();
            let u = eig.vectors.clone();
            let v = recover_side(&at, &u, &singular_values, n);
            Self { u, singular_values, v }
        }
    }

    /// Reconstructs `U · diag(σ) · Vᵀ`.
    pub fn reconstruct(&self) -> Matrix {
        let m = self.u.rows();
        let n = self.v.rows();
        let k = self.singular_values.len();
        let mut sigma = Matrix::zeros(m, n);
        for (i, &s) in self.singular_values.iter().enumerate().take(k) {
            sigma[(i, i)] = s;
        }
        self.u.matmul(&sigma).matmul(&self.v.transpose())
    }

    /// Numerical rank: number of singular values above
    /// `tol · max(σ)` (with `tol` relative).
    pub fn rank(&self, tol: f64) -> usize {
        let max = self.singular_values.first().copied().unwrap_or(0.0);
        self.singular_values.iter().filter(|&&s| s > tol * max).count()
    }

    /// The *stretcher-inverted* matrix `U · diag(σ⁻¹) · Vᵀ` used by the
    /// alternative-clustering transformation of Davidson & Qi (2008):
    /// directions the learned metric stretched are compressed and vice
    /// versa, so the previously dominant grouping becomes the weakest one.
    ///
    /// Singular values below `floor · max(σ)` are clamped to that floor
    /// before inversion to keep the result bounded.
    pub fn invert_stretcher(&self, floor: f64) -> Matrix {
        assert!(floor > 0.0, "floor must be positive");
        let max = self.singular_values.first().copied().unwrap_or(1.0).max(EPS);
        let m = self.u.rows();
        let n = self.v.rows();
        let mut sigma_inv = Matrix::zeros(m, n);
        for (i, &s) in self.singular_values.iter().enumerate() {
            sigma_inv[(i, i)] = 1.0 / s.max(floor * max);
        }
        self.u.matmul(&sigma_inv).matmul(&self.v.transpose())
    }
}


/// Principal angles (radians, ascending) between the column spaces of `a`
/// and `b` — the *space-level* dissimilarity of slide 24: two transformed
/// or projected views are "the same" when all angles are 0 and maximally
/// different (orthogonal subspaces) when all angles are π/2.
///
/// Columns of each input are orthonormalised internally (Gram–Schmidt), so
/// arbitrary spanning sets are accepted.
///
/// # Panics
/// Panics when the inputs have different row counts or zero columns.
pub fn principal_angles(a: &Matrix, b: &Matrix) -> Vec<f64> {
    assert_eq!(a.rows(), b.rows(), "subspaces must live in the same space");
    assert!(a.cols() >= 1 && b.cols() >= 1, "empty subspace");
    let qa = orthonormal_columns(a);
    let qb = orthonormal_columns(b);
    let cross = qa.transpose().matmul(&qb);
    let svd = Svd::new(&cross);
    // Singular values are the cosines of the principal angles; they come
    // sorted descending, so acos maps them to ascending angles directly.
    let k = qa.cols().min(qb.cols());
    svd.singular_values
        .iter()
        .take(k)
        .map(|&c| c.clamp(-1.0, 1.0).acos())
        .collect()
}

/// Orthonormalises the columns of `m` (modified Gram–Schmidt), dropping
/// numerically dependent columns.
fn orthonormal_columns(m: &Matrix) -> Matrix {
    let mut cols: Vec<Vec<f64>> = Vec::with_capacity(m.cols());
    for j in 0..m.cols() {
        let mut v = m.col(j);
        for q in &cols {
            let proj = dot(&v, q);
            for (x, &y) in v.iter_mut().zip(q) {
                *x -= proj * y;
            }
        }
        if norm(&v) > 1e-10 && normalize(&mut v) {
            cols.push(v);
        }
    }
    assert!(!cols.is_empty(), "matrix has no independent columns");
    Matrix::from_fn(m.rows(), cols.len(), |i, j| cols[j][i])
}

/// Given `a` (m×n, m ≥ n as called), the right factor `v` and singular
/// values, recovers an orthogonal left factor of size `side × side`:
/// `u_j = A v_j / σ_j` for σ_j > 0, completed to a full orthonormal basis
/// by Gram–Schmidt over the standard basis for null directions.
fn recover_side(a: &Matrix, v: &Matrix, sv: &[f64], side: usize) -> Matrix {
    let mut cols: Vec<Vec<f64>> = Vec::with_capacity(side);
    let max_sv = sv.first().copied().unwrap_or(0.0);
    for (j, &s) in sv.iter().enumerate() {
        if s > EPS * max_sv.max(1.0) {
            let vj = v.col(j);
            let mut uj = a.matvec(&vj);
            for x in &mut uj {
                *x /= s;
            }
            cols.push(uj);
        }
    }
    // Complete the basis for rank-deficient / rectangular cases.
    let mut basis_idx = 0;
    while cols.len() < side && basis_idx < side {
        let mut e = vec![0.0; side];
        e[basis_idx] = 1.0;
        basis_idx += 1;
        // Gram–Schmidt against existing columns.
        for c in &cols {
            let proj = dot(&e, c);
            for (ei, ci) in e.iter_mut().zip(c) {
                *ei -= proj * ci;
            }
        }
        if norm(&e) > 1e-8 && normalize(&mut e) {
            cols.push(e);
        }
    }
    Matrix::from_fn(side, side, |i, j| cols[j][i])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_orthogonal(m: &Matrix, tol: f64) {
        let prod = m.transpose().matmul(m);
        assert!(
            prod.approx_eq(&Matrix::identity(m.cols()), tol),
            "not orthogonal: {prod:?}"
        );
    }


    #[test]
    fn principal_angles_identical_and_orthogonal() {
        // span{e1} vs span{e1}: angle 0. span{e1} vs span{e2}: angle π/2.
        let e1 = Matrix::from_rows(&[&[1.0], &[0.0], &[0.0]]);
        let e2 = Matrix::from_rows(&[&[0.0], &[1.0], &[0.0]]);
        let same = principal_angles(&e1, &e1);
        assert!(same[0].abs() < 1e-9);
        let orth = principal_angles(&e1, &e2);
        assert!((orth[0] - std::f64::consts::FRAC_PI_2).abs() < 1e-9);
    }

    #[test]
    fn principal_angles_known_45_degrees() {
        let e1 = Matrix::from_rows(&[&[1.0], &[0.0]]);
        let diag = Matrix::from_rows(&[&[1.0], &[1.0]]); // normalised internally
        let angles = principal_angles(&e1, &diag);
        assert!((angles[0] - std::f64::consts::FRAC_PI_4).abs() < 1e-9);
    }

    #[test]
    fn principal_angles_of_planes() {
        // xy-plane vs xz-plane share the x axis: angles (0, π/2).
        let xy = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[0.0, 0.0]]);
        let xz = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 0.0], &[0.0, 1.0]]);
        let angles = principal_angles(&xy, &xz);
        assert_eq!(angles.len(), 2);
        assert!(angles[0].abs() < 1e-9, "shared axis: {angles:?}");
        assert!((angles[1] - std::f64::consts::FRAC_PI_2).abs() < 1e-9);
    }

    #[test]
    fn svd_reconstructs_square() {
        let a = Matrix::from_rows(&[&[3.0, 1.0], &[-1.0, 2.0]]);
        let svd = Svd::new(&a);
        assert!(svd.reconstruct().approx_eq(&a, 1e-8));
        assert_orthogonal(&svd.u, 1e-8);
        assert_orthogonal(&svd.v, 1e-8);
    }

    #[test]
    fn svd_reconstructs_tall_and_wide() {
        let tall = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let svd = Svd::new(&tall);
        assert!(svd.reconstruct().approx_eq(&tall, 1e-8));
        assert_eq!(svd.u.rows(), 3);
        assert_eq!(svd.v.rows(), 2);

        let wide = tall.transpose();
        let svd = Svd::new(&wide);
        assert!(svd.reconstruct().approx_eq(&wide, 1e-8));
    }

    #[test]
    fn singular_values_sorted_and_nonnegative() {
        let a = Matrix::from_rows(&[&[0.0, -4.0], &[2.0, 0.0]]);
        let svd = Svd::new(&a);
        assert!(svd.singular_values.windows(2).all(|w| w[0] >= w[1]));
        assert!(svd.singular_values.iter().all(|&s| s >= 0.0));
        assert!((svd.singular_values[0] - 4.0).abs() < 1e-9);
        assert!((svd.singular_values[1] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn rank_of_rank_deficient_matrix() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        let svd = Svd::new(&a);
        assert_eq!(svd.rank(1e-9), 1);
        // Reconstruction still works thanks to basis completion.
        assert!(svd.reconstruct().approx_eq(&a, 1e-8));
        assert_orthogonal(&svd.u, 1e-8);
    }

    /// Slide 51 of the tutorial, verbatim: the learned metric
    /// `D = [[1.5, −1], [−1, 1]]` decomposes with stretcher
    /// `S ≈ diag(2.28, 0.22)`, and inverting the stretcher yields
    /// `M = H·S⁻¹·A ≈ [[2, 2], [2, 3]]` (slide prints rounded values).
    #[test]
    fn slide_51_metric_flip_example() {
        let d = Matrix::from_rows(&[&[1.5, -1.0], &[-1.0, 1.0]]);
        let svd = Svd::new(&d);
        assert!((svd.singular_values[0] - 2.2808).abs() < 1e-3);
        assert!((svd.singular_values[1] - 0.2192).abs() < 1e-3);
        let m = svd.invert_stretcher(1e-12);
        let expected = Matrix::from_rows(&[&[2.0, 2.0], &[2.0, 3.0]]);
        assert!(m.approx_eq(&expected, 1e-9), "{m:?}");
    }

    #[test]
    fn invert_stretcher_is_inverse_for_nonsingular() {
        // For invertible A, U·S⁻¹·Vᵀ equals (Aᵀ)⁻¹... check via identity:
        // (U S⁻¹ Vᵀ)ᵀ · A  has the same singular values as S⁻¹S = I only
        // when A is symmetric; for the symmetric slide example this holds.
        let d = Matrix::from_rows(&[&[1.5, -1.0], &[-1.0, 1.0]]);
        let m = Svd::new(&d).invert_stretcher(1e-12);
        let prod = m.matmul(&d);
        // m·d should be orthogonal (stretch cancelled, rotations remain).
        assert_orthogonal(&prod, 1e-8);
    }
}
