//! Symmetric eigendecomposition by Householder tridiagonalisation plus
//! the implicit QL method (EISPACK `tred2`/`tql2`), in two solves that
//! share every step they have in common.
//!
//! * [`SymmetricEigen::new`] returns all `n` eigenpairs. The reduction
//!   (`reduce`) brings the matrix to tridiagonal form with `n − 2`
//!   Householder reflections, `accumulate` multiplies them out into an
//!   orthogonal `Q`, and `tql2` diagonalises the tridiagonal matrix by
//!   implicitly shifted QL sweeps, rotating `Q` along. Each phase costs
//!   `O(n³)` once, not per sweep.
//! * [`SymmetricEigen::top`] returns all `n` eigenvalues but only the `k`
//!   eigenvectors of the largest ones: what a spectral embedding reads
//!   from its `n × n` affinity. It runs the same reduction, keeps the
//!   reflectors instead of accumulating `Q`, and runs the same QL
//!   recurrence, recording each rotation `(c, s)` instead of applying it.
//!   The eigenvalues never depend on the vectors, so they are bit for bit
//!   those of `new`. Eigenvector `j` is row `j` of `R_N ··· R_1 · Qᵀ`, the
//!   very product `new` forms: `top` starts from `e_j`, undoes the
//!   recorded rotations last to first (`O(1)` each) and maps the result
//!   through the reflectors (`O(n²)`). Only the association differs, so
//!   the vectors agree with `new`'s to rounding — also inside a cluster
//!   of nearly equal eigenvalues, where any orthonormal basis of the
//!   cluster would be a valid answer.
//!
//! Eigenvalues are returned sorted in **descending** order, which is the
//! order PCA and spectral methods consume them in. The working matrix
//! holds `Qᵀ`: every Householder vector, every inner product of the
//! reduction and every QL rotation then runs along a contiguous row, and
//! one transpose at the end yields the eigenvector columns.

use crate::Matrix;

/// Result of a symmetric eigendecomposition `A = V · diag(λ) · Vᵀ`.
#[derive(Clone, Debug)]
pub struct SymmetricEigen {
    /// Eigenvalues, sorted descending.
    pub values: Vec<f64>,
    /// Column `j` of this matrix is the eigenvector for `values[j]`: all
    /// `n` columns from [`Self::new`], the first `k` from [`Self::top`].
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
        let mut m = a.clone();
        let n = prepare(&mut m);
        let mut d = vec![0.0; n];
        let mut e = vec![0.0; n];
        // The input is symmetric, so it already equals its transpose: `m`
        // starts as `Aᵀ` and ends as `Qᵀ`, one eigenvector per row.
        let w = m.as_mut_slice();
        if n > 0 {
            reduce(w, n, &mut d, &mut e);
            accumulate(w, n, &mut d);
            tql2(&mut d, &mut e, &mut RotateRows { w: &mut *w, n });
        }
        let order = descending(&d);
        let vectors = Matrix::from_fn(n, n, |i, j| w[order[j] * n + i]);
        let values = order.iter().map(|&i| d[i]).collect();
        Self { values, vectors }
    }

    /// All `n` eigenvalues of the symmetric matrix `a` and the
    /// eigenvectors of the `k` largest, taking `a` by value as workspace.
    ///
    /// `values` equals `Self::new(&a).values` bit for bit and `vectors` is
    /// `n × k`; column `j` agrees with column `j` of `new` to rounding
    /// (see the module docs). [`Self::reconstruct`] and
    /// [`Self::map_values`] need all `n` vectors, so they are for `new`'s
    /// result only.
    ///
    /// # Panics
    /// Panics when [`Self::new`] would, or if `k > n`.
    pub fn top(mut a: Matrix, k: usize) -> Self {
        let n = prepare(&mut a);
        assert!(k <= n, "cannot take {k} eigenvectors of a {n} × {n} matrix");
        if n == 0 {
            return Self { values: Vec::new(), vectors: Matrix::zeros(0, 0) };
        }
        let mut d = vec![0.0; n];
        let mut e = vec![0.0; n];
        let w = a.as_mut_slice();
        reduce(w, n, &mut d, &mut e);
        // `reduce` leaves each reflector's `h` in `d[1..]` and the
        // tridiagonal's diagonal on the diagonal of `w`, where `accumulate`
        // would read it.
        let h = std::mem::replace(&mut d, (0..n).map(|i| w[i * n + i]).collect());
        // The QL makes about 0.9 n² rotations: reserving n² up front keeps
        // the record from being copied as it grows.
        let mut record = QlRecord { sweeps: Vec::new(), rotations: Vec::with_capacity(n * n) };
        tql2(&mut d, &mut e, &mut record);
        let order = descending(&d);
        // Row `j` of the k × n block starts as `e_{order[j]}`.
        let mut y = vec![0.0; k * n];
        for (v, &j) in y.chunks_exact_mut(n).zip(&order) {
            v[j] = 1.0;
        }
        record.undo(&mut y, n);
        reflect(w, &h, n, &mut y);
        Self {
            values: order.iter().map(|&i| d[i]).collect(),
            vectors: Matrix::from_fn(n, k, |i, j| y[j * n + i]),
        }
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

/// Checks that `m` is a finite, numerically symmetric square matrix,
/// symmetrises it and returns its order.
fn prepare(m: &mut Matrix) -> usize {
    assert!(m.is_square(), "eigendecomposition requires a square matrix");
    assert!(
        m.as_slice().iter().all(|x| x.is_finite()),
        "eigendecomposition requires finite entries"
    );
    let scale = m.max_abs().max(1.0);
    assert!(
        m.is_symmetric(1e-6 * scale),
        "eigendecomposition requires a (numerically) symmetric matrix"
    );
    m.symmetrize();
    m.rows()
}

/// Indices of `d` ordered by descending value, ties by index.
fn descending(d: &[f64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..d.len()).collect();
    order.sort_by(|&i, &j| d[j].total_cmp(&d[i]));
    order
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
/// tridiagonal form (the first half of EISPACK `tred2`, as in JAMA, with
/// every matrix access transposed so the inner loops run along rows).
///
/// On return `e[1..]` holds the subdiagonal, the diagonal of `w` the
/// tridiagonal's diagonal, and row `m ≥ 1` of `w` the Householder vector
/// `u` of reflector `P_m = I − u·uᵀ/h` in its first `m` entries, with
/// `h = d[m]` (`h = 0` means no reflection). Only the upper triangle of
/// the input is read.
fn reduce(w: &mut [f64], n: usize, d: &mut [f64], e: &mut [f64]) {
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
}

/// Multiplies out the reflectors [`reduce`] left in `w` (the second half
/// of EISPACK `tred2`): on return `d` holds the tridiagonal's diagonal
/// and `w` the transpose of `Q = P_{n−1} ··· P_1`.
fn accumulate(w: &mut [f64], n: usize, d: &mut [f64]) {
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
}

/// Computes `Q·y` for each row `y` of the row-major `k × n` block `y`,
/// with `Q = P_{n−1} ··· P_1` the reflectors [`reduce`] left in `w` and
/// `h`: the products [`accumulate`] would form, applied to `k` vectors
/// instead of `n`.
fn reflect(w: &[f64], h: &[f64], n: usize, y: &mut [f64]) {
    let mut scaled = vec![0.0; n];
    for m in 1..n {
        if h[m] == 0.0 {
            continue;
        }
        let u = &w[m * n..m * n + m];
        for (x, &ui) in scaled.iter_mut().zip(u) {
            *x = ui / h[m];
        }
        for v in y.chunks_exact_mut(n) {
            let v = &mut v[..m];
            let g: f64 = u.iter().zip(v.iter()).map(|(a, b)| a * b).sum();
            for (x, dk) in v.iter_mut().zip(&scaled) {
                *x -= g * dk;
            }
        }
    }
}

/// What [`tql2`] does with its plane rotations, in the order it makes
/// them.
trait Rotations {
    /// A QL sweep begins; it will rotate rows `m − 1, m − 2, …, l`.
    fn sweep(&mut self, _l: usize, _m: usize) {}
    /// Rows `i` and `i + 1` turn by the rotation `(c, s)`.
    fn rotate(&mut self, i: usize, c: f64, s: f64);
}

/// Applies each rotation to the rows of the row-major `n × n` matrix `w`.
struct RotateRows<'a> {
    w: &'a mut [f64],
    n: usize,
}

impl Rotations for RotateRows<'_> {
    fn rotate(&mut self, i: usize, c: f64, s: f64) {
        let n = self.n;
        let (upper, lower) = self.w[i * n..(i + 2) * n].split_at_mut(n);
        for (vi, vi1) in upper.iter_mut().zip(lower.iter_mut()) {
            let t = *vi1;
            *vi1 = s * *vi + c * t;
            *vi = c * *vi - s * t;
        }
    }
}

/// Records the rotations: each sweep's bounds, and its `(c, s)` pairs in
/// the order made, rows `m − 1` down to `l`.
struct QlRecord {
    sweeps: Vec<(usize, usize)>,
    rotations: Vec<(f64, f64)>,
}

impl Rotations for QlRecord {
    fn sweep(&mut self, l: usize, m: usize) {
        self.sweeps.push((l, m));
    }

    fn rotate(&mut self, _: usize, c: f64, s: f64) {
        self.rotations.push((c, s));
    }
}

impl QlRecord {
    /// Multiplies each row `y` of the row-major `k × n` block `y` by
    /// `R_N ··· R_1` from the right: the recorded rotations undone, last
    /// to first. Row `j` of `RotateRows`' result is `e_jᵀ · R_N ··· R_1`
    /// applied to the matrix it started from.
    fn undo(&self, y: &mut [f64], n: usize) {
        let mut end = self.rotations.len();
        for &(l, m) in self.sweeps.iter().rev() {
            let start = end - (m - l);
            // `rotations[start + t]` turned rows `m − 1 − t` and `m − t`.
            for (t, &(c, s)) in self.rotations[start..end].iter().enumerate().rev() {
                let i = m - 1 - t;
                for v in y.chunks_exact_mut(n) {
                    let (a, b) = (v[i], v[i + 1]);
                    v[i] = c * a + s * b;
                    v[i + 1] = c * b - s * a;
                }
            }
            end = start;
        }
    }
}

/// Diagonalises the symmetric tridiagonal matrix (`d`, `e`) from
/// [`reduce`] by implicitly shifted QL (EISPACK `tql2`), handing every
/// rotation to `rotations`. On return `d` holds the (unsorted)
/// eigenvalues; with [`RotateRows`] over `Qᵀ`, row `j` of the matrix is
/// the eigenvector of `d[j]`.
///
/// # Panics
/// Panics when an eigenvalue needs more than 30 QL iterations (EISPACK's
/// cap).
fn tql2(d: &mut [f64], e: &mut [f64], rotations: &mut impl Rotations) {
    let n = d.len();
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
            rotations.sweep(l, m);
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
                rotations.rotate(i, c, s);
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
