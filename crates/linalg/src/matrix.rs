//! Dense row-major matrix type and the basic operations the clustering
//! algorithms need.

use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Sub};

use crate::EPS;

/// Minimum number of scalar operations a parallel chunk should amortize;
/// below this the serial loop wins on dispatch overhead alone. Fixed (never
/// derived from the thread count) so chunk boundaries — and therefore
/// results — are identical at every pool size.
const PAR_GRAIN: usize = 1 << 16;

/// Rows per parallel chunk for a kernel doing `work_per_row` scalar ops on
/// each of `rows` output rows.
fn par_row_chunk(rows: usize, work_per_row: usize) -> usize {
    let min_rows = PAR_GRAIN.div_ceil(work_per_row.max(1));
    rows.div_ceil(64).max(min_rows).max(1)
}

/// A dense, row-major `f64` matrix.
///
/// Storage is a single flat `Vec<f64>` of length `rows * cols`; element
/// `(i, j)` lives at `data[i * cols + j]`. The flat layout keeps row scans
/// (the dominant access pattern in distance computations) contiguous in
/// memory.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix filled with zeros.
    ///
    /// # Panics
    /// Panics if `rows * cols` overflows.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        let len = rows.checked_mul(cols).expect("matrix size overflow");
        Self { rows, cols, data: vec![0.0; len] }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix from a flat row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer length must be rows*cols");
        Self { rows, cols, data }
    }

    /// Creates a matrix from a slice of rows.
    ///
    /// # Panics
    /// Panics if rows have inconsistent lengths.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "all rows must have equal length");
            data.extend_from_slice(row);
        }
        Self { rows: r, cols: c, data }
    }

    /// Creates a matrix by evaluating `f(i, j)` for every element.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut m = Self::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m[(i, j)] = f(i, j);
            }
        }
        m
    }

    /// Creates a matrix by evaluating `f(i, j)` for every element, with row
    /// blocks computed in parallel.
    ///
    /// `f` must be pure: every element is computed independently from its
    /// indices alone, so the result is bit-identical to
    /// [`Matrix::from_fn`] with the same `f` at any thread count.
    pub fn par_from_fn(
        rows: usize,
        cols: usize,
        f: impl Fn(usize, usize) -> f64 + Sync,
    ) -> Self {
        let mut m = Self::zeros(rows, cols);
        let chunk_rows = par_row_chunk(rows, cols);
        multiclust_parallel::par_chunks_mut(&mut m.data, chunk_rows * cols.max(1), |start, block| {
            let i0 = start.checked_div(cols).unwrap_or(0);
            for (r, row) in block.chunks_mut(cols.max(1)).enumerate() {
                for (j, x) in row.iter_mut().enumerate() {
                    *x = f(i0 + r, j);
                }
            }
        });
        m
    }

    /// Creates a diagonal matrix from the given diagonal entries.
    pub fn from_diag(diag: &[f64]) -> Self {
        let n = diag.len();
        let mut m = Self::zeros(n, n);
        for (i, &d) in diag.iter().enumerate() {
            m[(i, i)] = d;
        }
        m
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `true` when the matrix is square.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Borrow of the flat row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable borrow of the flat row-major buffer, for kernels that fill
    /// or rewrite the matrix in blocks (element `(i, j)` at `i*cols + j`).
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Row `i` as a contiguous slice.
    ///
    /// # Panics
    /// Panics if `i >= rows`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.rows, "row index out of bounds");
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable row `i`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        assert!(i < self.rows, "row index out of bounds");
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Column `j` gathered into a fresh vector.
    pub fn col(&self, j: usize) -> Vec<f64> {
        assert!(j < self.cols, "column index out of bounds");
        (0..self.rows).map(|i| self[(i, j)]).collect()
    }

    /// The transpose `Aᵀ`.
    ///
    /// Output rows are gathered independently (in parallel for large
    /// matrices), so the result is identical at any thread count.
    pub fn transpose(&self) -> Self {
        let (rows, cols) = (self.rows, self.cols);
        let mut t = Self::zeros(cols, rows);
        let chunk_rows = par_row_chunk(cols, rows);
        multiclust_parallel::par_chunks_mut(&mut t.data, chunk_rows * rows, |start, out| {
            let j0 = start / rows;
            for (r, t_row) in out.chunks_mut(rows).enumerate() {
                let j = j0 + r;
                for (i, x) in t_row.iter_mut().enumerate() {
                    *x = self.data[i * cols + j];
                }
            }
        });
        t
    }

    /// Matrix product `self · rhs`.
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    pub fn matmul(&self, rhs: &Self) -> Self {
        assert_eq!(self.cols, rhs.rows, "matmul dimension mismatch");
        let out_cols = rhs.cols;
        let mut out = Self::zeros(self.rows, out_cols);
        // i-k-j loop order keeps both `self` and `rhs` row accesses
        // contiguous (perf-book: iterate in storage order). Each output
        // row depends only on one row of `self`, so row blocks run in
        // parallel with bit-identical results to the serial loop.
        let chunk_rows = par_row_chunk(self.rows, self.cols.saturating_mul(out_cols));
        multiclust_parallel::par_chunks_mut(
            &mut out.data,
            chunk_rows * out_cols.max(1),
            |start, block| {
                let i0 = start.checked_div(out_cols).unwrap_or(0);
                for (r, out_row) in block.chunks_mut(out_cols.max(1)).enumerate() {
                    let a_row = self.row(i0 + r);
                    for (k, &a_ik) in a_row.iter().enumerate() {
                        if a_ik == 0.0 {
                            continue;
                        }
                        for (o, &b) in out_row.iter_mut().zip(rhs.row(k)) {
                            *o += a_ik * b;
                        }
                    }
                }
            },
        );
        out
    }

    /// Matrix–vector product `self · v`.
    ///
    /// Per-row dot products are independent, so the parallel path matches
    /// the serial one bit for bit.
    pub fn matvec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(self.cols, v.len(), "matvec dimension mismatch");
        multiclust_parallel::par_map_indexed(
            self.rows,
            PAR_GRAIN.div_ceil(self.cols.max(1)),
            |i| self.row(i).iter().zip(v).map(|(a, b)| a * b).sum(),
        )
    }

    /// `vᵀ · self` (row-vector times matrix).
    pub fn vecmat(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(self.rows, v.len(), "vecmat dimension mismatch");
        let mut out = vec![0.0; self.cols];
        for (i, &vi) in v.iter().enumerate() {
            if vi == 0.0 {
                continue;
            }
            for (o, &a) in out.iter_mut().zip(self.row(i)) {
                *o += vi * a;
            }
        }
        out
    }

    /// Scales every element by `s`.
    #[must_use]
    pub fn scaled(&self, s: f64) -> Self {
        let mut out = self.clone();
        for x in &mut out.data {
            *x *= s;
        }
        out
    }

    /// Frobenius norm `‖A‖_F`.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Maximum absolute element.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0, |m, x| m.max(x.abs()))
    }

    /// Sum of diagonal entries.
    ///
    /// # Panics
    /// Panics if the matrix is not square.
    pub fn trace(&self) -> f64 {
        assert!(self.is_square(), "trace requires a square matrix");
        (0..self.rows).map(|i| self[(i, i)]).sum()
    }

    /// `true` when `|a_ij − a_ji| ≤ tol` for all pairs.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if !self.is_square() {
            return false;
        }
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                if (self[(i, j)] - self[(j, i)]).abs() > tol {
                    return false;
                }
            }
        }
        true
    }

    /// Element-wise approximate equality within `tol`.
    pub fn approx_eq(&self, other: &Self, tol: f64) -> bool {
        self.rows == other.rows
            && self.cols == other.cols
            && self
                .data
                .iter()
                .zip(&other.data)
                .all(|(a, b)| (a - b).abs() <= tol)
    }

    /// Symmetrises the matrix in place: `A ← (A + Aᵀ)/2`.
    ///
    /// Useful before eigendecomposition when the matrix is symmetric in
    /// exact arithmetic but accumulated rounding broke the symmetry.
    pub fn symmetrize(&mut self) {
        assert!(self.is_square(), "symmetrize requires a square matrix");
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                let avg = 0.5 * (self[(i, j)] + self[(j, i)]);
                self[(i, j)] = avg;
                self[(j, i)] = avg;
            }
        }
    }

    /// Inverse of a small square matrix via Gauss–Jordan elimination with
    /// partial pivoting.
    ///
    /// Returns `None` when the matrix is numerically singular (pivot below
    /// [`EPS`] relative to the largest element).
    pub fn inverse(&self) -> Option<Self> {
        assert!(self.is_square(), "inverse requires a square matrix");
        let n = self.rows;
        let scale = self.max_abs().max(1.0);
        let mut a = self.clone();
        let mut inv = Self::identity(n);
        for col in 0..n {
            // Partial pivot: largest |a[r][col]| for r >= col.
            let pivot_row = (col..n)
                .max_by(|&r1, &r2| {
                    a[(r1, col)].abs().partial_cmp(&a[(r2, col)].abs()).unwrap()
                })
                .unwrap();
            if a[(pivot_row, col)].abs() < EPS * scale {
                return None;
            }
            if pivot_row != col {
                a.swap_rows(pivot_row, col);
                inv.swap_rows(pivot_row, col);
            }
            let pivot = a[(col, col)];
            for j in 0..n {
                a[(col, j)] /= pivot;
                inv[(col, j)] /= pivot;
            }
            for r in 0..n {
                if r == col {
                    continue;
                }
                let factor = a[(r, col)];
                if factor == 0.0 {
                    continue;
                }
                for j in 0..n {
                    let a_cj = a[(col, j)];
                    let i_cj = inv[(col, j)];
                    a[(r, j)] -= factor * a_cj;
                    inv[(r, j)] -= factor * i_cj;
                }
            }
        }
        Some(inv)
    }

    /// Swaps rows `r1` and `r2` in place.
    pub fn swap_rows(&mut self, r1: usize, r2: usize) {
        if r1 == r2 {
            return;
        }
        let c = self.cols;
        let (lo, hi) = (r1.min(r2), r1.max(r2));
        let (head, tail) = self.data.split_at_mut(hi * c);
        head[lo * c..lo * c + c].swap_with_slice(&mut tail[..c]);
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols, "matrix index out of bounds");
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols, "matrix index out of bounds");
        &mut self.data[i * self.cols + j]
    }
}

impl Add for &Matrix {
    type Output = Matrix;

    fn add(self, rhs: &Matrix) -> Matrix {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols), "add shape mismatch");
        let data = self.data.iter().zip(&rhs.data).map(|(a, b)| a + b).collect();
        Matrix { rows: self.rows, cols: self.cols, data }
    }
}

impl Sub for &Matrix {
    type Output = Matrix;

    fn sub(self, rhs: &Matrix) -> Matrix {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols), "sub shape mismatch");
        let data = self.data.iter().zip(&rhs.data).map(|(a, b)| a - b).collect();
        Matrix { rows: self.rows, cols: self.cols, data }
    }
}

impl Mul for &Matrix {
    type Output = Matrix;

    fn mul(self, rhs: &Matrix) -> Matrix {
        self.matmul(rhs)
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows {
            write!(f, "  [")?;
            for j in 0..self.cols {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:>10.5}", self[(i, j)])?;
            }
            writeln!(f, "]")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_is_multiplicative_unit() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let i = Matrix::identity(2);
        assert!(a.matmul(&i).approx_eq(&a, 0.0));
        assert!(i.matmul(&a).approx_eq(&a, 0.0));
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert!(a.transpose().transpose().approx_eq(&a, 0.0));
        assert_eq!(a.transpose().rows(), 3);
        assert_eq!(a.transpose().cols(), 2);
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        let expected = Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]);
        assert!(c.approx_eq(&expected, 1e-12));
    }

    #[test]
    fn matvec_and_vecmat_agree_with_transpose() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 0.5], &[3.0, -4.0, 2.0]]);
        let v = [2.0, -1.0];
        let via_vecmat = a.vecmat(&v);
        let via_transpose = a.transpose().matvec(&v);
        for (x, y) in via_vecmat.iter().zip(&via_transpose) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn inverse_of_known_matrix() {
        let a = Matrix::from_rows(&[&[4.0, 7.0], &[2.0, 6.0]]);
        let inv = a.inverse().expect("invertible");
        let expected = Matrix::from_rows(&[&[0.6, -0.7], &[-0.2, 0.4]]);
        assert!(inv.approx_eq(&expected, 1e-12));
        assert!(a.matmul(&inv).approx_eq(&Matrix::identity(2), 1e-12));
    }

    #[test]
    fn inverse_of_singular_is_none() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert!(a.inverse().is_none());
    }

    #[test]
    fn inverse_with_zero_leading_pivot_uses_partial_pivoting() {
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let inv = a.inverse().expect("permutation matrix is invertible");
        assert!(inv.approx_eq(&a, 1e-12));
    }

    #[test]
    fn trace_and_frobenius() {
        let a = Matrix::from_rows(&[&[3.0, 4.0], &[0.0, 5.0]]);
        assert_eq!(a.trace(), 8.0);
        assert!((a.frobenius_norm() - 50.0_f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn symmetrize_fixes_rounding_asymmetry() {
        let mut a = Matrix::from_rows(&[&[1.0, 2.0 + 1e-13], &[2.0, 1.0]]);
        a.symmetrize();
        assert!(a.is_symmetric(0.0));
    }

    #[test]
    fn swap_rows_swaps() {
        let mut a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        a.swap_rows(0, 2);
        assert_eq!(a.row(0), &[5.0, 6.0]);
        assert_eq!(a.row(2), &[1.0, 2.0]);
        a.swap_rows(1, 1); // no-op must not panic
        assert_eq!(a.row(1), &[3.0, 4.0]);
    }

    #[test]
    fn from_diag_builds_diagonal() {
        let d = Matrix::from_diag(&[1.0, 2.0, 3.0]);
        assert_eq!(d.trace(), 6.0);
        assert_eq!(d[(0, 1)], 0.0);
        assert_eq!(d[(2, 2)], 3.0);
    }

    #[test]
    #[should_panic(expected = "matmul dimension mismatch")]
    fn matmul_shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }
}
