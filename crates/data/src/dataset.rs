//! Flat row-major dataset storage and multi-view containers.

/// A dense numeric dataset: `n` objects with `d` attributes each,
/// stored row-major in a single flat buffer.
///
/// Row-major flat storage keeps each object's attribute vector contiguous,
/// which is what every distance computation in the workspace scans.
#[derive(Clone, Debug, PartialEq)]
pub struct Dataset {
    n: usize,
    d: usize,
    data: Vec<f64>,
    /// Optional attribute names (e.g. "income", "blood pressure") used in
    /// reports; length `d` when present.
    dim_names: Option<Vec<String>>,
}

impl Dataset {
    /// Creates a dataset from a flat row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len()` is not a multiple of `d`, or `d == 0`.
    pub fn from_flat(d: usize, data: Vec<f64>) -> Self {
        assert!(d > 0, "dimensionality must be positive");
        assert_eq!(data.len() % d, 0, "buffer length must be a multiple of d");
        let n = data.len() / d;
        Self { n, d, data, dim_names: None }
    }

    /// Creates a dataset from explicit rows.
    ///
    /// # Panics
    /// Panics if rows are empty or have inconsistent lengths.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        assert!(!rows.is_empty(), "dataset must contain at least one row");
        let d = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * d);
        for row in rows {
            assert_eq!(row.len(), d, "rows must have equal length");
            data.extend_from_slice(row);
        }
        Self::from_flat(d, data)
    }

    /// An empty dataset of dimensionality `d` to be filled with
    /// [`Self::push_row`].
    pub fn with_dims(d: usize) -> Self {
        assert!(d > 0, "dimensionality must be positive");
        Self { n: 0, d, data: Vec::new(), dim_names: None }
    }

    /// Attaches attribute names.
    ///
    /// # Panics
    /// Panics if the number of names differs from `d`.
    #[must_use]
    pub fn with_dim_names(mut self, names: Vec<String>) -> Self {
        assert_eq!(names.len(), self.d, "one name per attribute required");
        self.dim_names = Some(names);
        self
    }

    /// Appends one object.
    ///
    /// # Panics
    /// Panics if `row.len() != d`.
    pub fn push_row(&mut self, row: &[f64]) {
        assert_eq!(row.len(), self.d, "row length must equal dimensionality");
        self.data.extend_from_slice(row);
        self.n += 1;
    }

    /// Number of objects.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` when the dataset holds no objects.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Dimensionality (number of attributes).
    #[inline]
    pub fn dims(&self) -> usize {
        self.d
    }

    /// Attribute names, if set.
    pub fn dim_names(&self) -> Option<&[String]> {
        self.dim_names.as_deref()
    }

    /// Object `i` as a contiguous attribute slice.
    ///
    /// # Panics
    /// Panics if `i >= len()`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.n, "object index out of bounds");
        &self.data[i * self.d..(i + 1) * self.d]
    }

    /// Iterator over all object rows.
    pub fn rows(&self) -> impl ExactSizeIterator<Item = &[f64]> + '_ {
        self.data.chunks_exact(self.d)
    }

    /// The flat row-major buffer.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Projection onto a subset of attributes (a *subspace view*,
    /// cf. slide 64): returns a new dataset containing only `dims`,
    /// in the given order.
    ///
    /// # Panics
    /// Panics if `dims` is empty or contains an out-of-range index.
    #[must_use]
    pub fn project(&self, dims: &[usize]) -> Self {
        assert!(!dims.is_empty(), "projection needs at least one dimension");
        assert!(dims.iter().all(|&j| j < self.d), "dimension index out of range");
        let mut data = Vec::with_capacity(self.n * dims.len());
        for row in self.rows() {
            data.extend(dims.iter().map(|&j| row[j]));
        }
        let mut out = Self::from_flat(dims.len(), data);
        if let Some(names) = &self.dim_names {
            out.dim_names = Some(dims.iter().map(|&j| names[j].clone()).collect());
        }
        out
    }

    /// Restriction to a subset of objects (in the given order).
    ///
    /// # Panics
    /// Panics if any index is out of range.
    #[must_use]
    pub fn select(&self, objects: &[usize]) -> Self {
        let mut data = Vec::with_capacity(objects.len() * self.d);
        for &i in objects {
            data.extend_from_slice(self.row(i));
        }
        let mut out = Self::from_flat(self.d, data);
        out.dim_names = self.dim_names.clone();
        out
    }

    /// Per-dimension `(min, max)` bounding box.
    ///
    /// Returns `None` for an empty dataset.
    pub fn bounds(&self) -> Option<Vec<(f64, f64)>> {
        if self.is_empty() {
            return None;
        }
        let mut b: Vec<(f64, f64)> =
            self.row(0).iter().map(|&x| (x, x)).collect();
        for row in self.rows().skip(1) {
            for (bi, &x) in b.iter_mut().zip(row) {
                bi.0 = bi.0.min(x);
                bi.1 = bi.1.max(x);
            }
        }
        Some(b)
    }

    /// Per-dimension mean.
    pub fn mean(&self) -> Vec<f64> {
        let mut m = vec![0.0; self.d];
        for row in self.rows() {
            for (mi, &x) in m.iter_mut().zip(row) {
                *mi += x;
            }
        }
        let n = self.n.max(1) as f64;
        for mi in &mut m {
            *mi /= n;
        }
        m
    }

    /// Z-score standardisation: subtract the mean, divide by the standard
    /// deviation (dimensions with zero variance are left centred).
    #[must_use]
    pub fn standardized(&self) -> Self {
        let mean = self.mean();
        let mut var = vec![0.0; self.d];
        for row in self.rows() {
            for ((vi, &mi), &x) in var.iter_mut().zip(&mean).zip(row) {
                let dlt = x - mi;
                *vi += dlt * dlt;
            }
        }
        let n = self.n.max(1) as f64;
        let std: Vec<f64> = var.iter().map(|v| (v / n).sqrt()).collect();
        let mut out = self.clone();
        for i in 0..self.n {
            for j in 0..self.d {
                let x = out.data[i * self.d + j];
                let s = if std[j] > 0.0 { std[j] } else { 1.0 };
                out.data[i * self.d + j] = (x - mean[j]) / s;
            }
        }
        out
    }

    /// Min-max normalisation of every attribute to `[0, 1]`
    /// (constant attributes map to `0`). Grid-based subspace clustering
    /// (CLIQUE, SCHISM, ENCLUS) assumes this domain.
    #[must_use]
    pub fn min_max_normalized(&self) -> Self {
        let Some(bounds) = self.bounds() else { return self.clone() };
        let mut out = self.clone();
        for i in 0..self.n {
            for (j, &(lo, hi)) in bounds.iter().enumerate() {
                let x = out.data[i * self.d + j];
                out.data[i * self.d + j] =
                    if hi > lo { (x - lo) / (hi - lo) } else { 0.0 };
            }
        }
        out
    }

    /// Applies a linear transformation `y = M · x` to every object, where
    /// `m` is given as a row-major `d_out × d` buffer. This is the
    /// `DB₂ = {T(x) | x ∈ DB}` step of the transformation paradigm
    /// (slide 49).
    ///
    /// # Panics
    /// Panics if `m.len()` is not a multiple of `d`.
    #[must_use]
    pub fn transformed(&self, m: &[f64], d_out: usize) -> Self {
        assert_eq!(m.len(), d_out * self.d, "transformation shape mismatch");
        let mut data = Vec::with_capacity(self.n * d_out);
        for row in self.rows() {
            for r in 0..d_out {
                let mrow = &m[r * self.d..(r + 1) * self.d];
                data.push(mrow.iter().zip(row).map(|(a, b)| a * b).sum());
            }
        }
        Self::from_flat(d_out, data)
    }
}

/// The first column (0-based) whose values, though finite, are too large
/// for the fits, or `None`. Column `j` is refused when
/// `n · max|x_j|` overflows, since then its sum and mean do, or when
/// `n · Σ_{c ≤ j} range_c²` overflows: that bounds every squared distance
/// and every scatter and covariance sum, which the fits and their eigen
/// solves need finite.
pub fn overflowing_column<'a>(rows: impl IntoIterator<Item = &'a [f64]>) -> Option<usize> {
    let mut n = 0u64;
    let mut bounds: Vec<(f64, f64)> = Vec::new();
    for row in rows {
        if n == 0 {
            bounds = row.iter().map(|&x| (x, x)).collect();
        }
        for (b, &x) in bounds.iter_mut().zip(row) {
            *b = (b.0.min(x), b.1.max(x));
        }
        n += 1;
    }
    let n = n as f64;
    let mut spread = 0.0;
    bounds.iter().position(|&(lo, hi)| {
        spread += (hi - lo) * (hi - lo);
        !(n * lo.abs().max(hi.abs())).is_finite() || !(n * spread).is_finite()
    })
}

/// Multiple given views/sources over the same set of objects
/// (the multi-source paradigm, slides 94–112): view `v` describes object
/// `i` by `views[v].row(i)`.
#[derive(Clone, Debug, PartialEq)]
pub struct MultiViewDataset {
    views: Vec<Dataset>,
}

impl MultiViewDataset {
    /// Bundles per-source datasets into a multi-view dataset.
    ///
    /// # Panics
    /// Panics if `views` is empty or the views disagree on the number of
    /// objects.
    pub fn new(views: Vec<Dataset>) -> Self {
        assert!(!views.is_empty(), "at least one view required");
        let n = views[0].len();
        assert!(
            views.iter().all(|v| v.len() == n),
            "all views must describe the same objects"
        );
        Self { views }
    }

    /// Splits a single dataset into views by attribute groups — the
    /// "evolving databases" scenario of slide 11, where one universal table
    /// is really a merge of several sources.
    pub fn from_attribute_groups(data: &Dataset, groups: &[Vec<usize>]) -> Self {
        let views = groups.iter().map(|g| data.project(g)).collect();
        Self::new(views)
    }

    /// Number of objects (identical across views).
    pub fn len(&self) -> usize {
        self.views[0].len()
    }

    /// `true` when there are no objects.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of views.
    pub fn num_views(&self) -> usize {
        self.views.len()
    }

    /// View `v`.
    pub fn view(&self, v: usize) -> &Dataset {
        &self.views[v]
    }

    /// All views.
    pub fn views(&self) -> &[Dataset] {
        &self.views
    }

    /// Concatenates all views into one universal table (the naive
    /// "construct a feature space comprising all representations" reduction
    /// the tutorial warns about on slide 97 — provided so experiments can
    /// compare against it).
    pub fn concatenated(&self) -> Dataset {
        let n = self.len();
        let d_total: usize = self.views.iter().map(|v| v.dims()).sum();
        let mut data = Vec::with_capacity(n * d_total);
        for i in 0..n {
            for v in &self.views {
                data.extend_from_slice(v.row(i));
            }
        }
        Dataset::from_flat(d_total, data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Dataset {
        Dataset::from_rows(&[
            vec![1.0, 10.0, 100.0],
            vec![2.0, 20.0, 200.0],
            vec![3.0, 30.0, 300.0],
        ])
    }

    #[test]
    fn roundtrip_rows() {
        let ds = small();
        assert_eq!(ds.len(), 3);
        assert_eq!(ds.dims(), 3);
        assert_eq!(ds.row(1), &[2.0, 20.0, 200.0]);
        assert_eq!(ds.rows().count(), 3);
    }

    #[test]
    fn project_selects_and_orders_dims() {
        let ds = small();
        let p = ds.project(&[2, 0]);
        assert_eq!(p.dims(), 2);
        assert_eq!(p.row(0), &[100.0, 1.0]);
    }

    #[test]
    fn project_carries_dim_names() {
        let ds = small().with_dim_names(vec!["a".into(), "b".into(), "c".into()]);
        let p = ds.project(&[1]);
        assert_eq!(p.dim_names().unwrap(), &["b".to_string()]);
    }

    #[test]
    fn select_subsets_objects() {
        let ds = small();
        let s = ds.select(&[2, 0]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.row(0), &[3.0, 30.0, 300.0]);
        assert_eq!(s.row(1), &[1.0, 10.0, 100.0]);
    }

    #[test]
    fn bounds_and_mean() {
        let ds = small();
        let b = ds.bounds().unwrap();
        assert_eq!(b[0], (1.0, 3.0));
        assert_eq!(b[2], (100.0, 300.0));
        assert_eq!(ds.mean(), vec![2.0, 20.0, 200.0]);
    }

    #[test]
    fn standardized_has_zero_mean_unit_variance() {
        let ds = small().standardized();
        let m = ds.mean();
        assert!(m.iter().all(|&x| x.abs() < 1e-12));
        // variance 1 per dim
        for j in 0..3 {
            let var: f64 =
                ds.rows().map(|r| r[j] * r[j]).sum::<f64>() / ds.len() as f64;
            assert!((var - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn min_max_maps_to_unit_interval() {
        let ds = small().min_max_normalized();
        let b = ds.bounds().unwrap();
        for (lo, hi) in b {
            assert_eq!(lo, 0.0);
            assert_eq!(hi, 1.0);
        }
    }

    #[test]
    fn constant_dimension_normalizes_to_zero() {
        let ds = Dataset::from_rows(&[vec![5.0, 1.0], vec![5.0, 2.0]]);
        let nm = ds.min_max_normalized();
        assert_eq!(nm.row(0)[0], 0.0);
        assert_eq!(nm.row(1)[0], 0.0);
    }

    #[test]
    fn transformed_applies_linear_map() {
        let ds = Dataset::from_rows(&[vec![1.0, 2.0]]);
        // M = [[0, 1], [1, 0], [1, 1]] : R² → R³
        let t = ds.transformed(&[0.0, 1.0, 1.0, 0.0, 1.0, 1.0], 3);
        assert_eq!(t.dims(), 3);
        assert_eq!(t.row(0), &[2.0, 1.0, 3.0]);
    }

    #[test]
    fn multiview_from_groups_and_concat() {
        let ds = small();
        let mv = MultiViewDataset::from_attribute_groups(&ds, &[vec![0, 1], vec![2]]);
        assert_eq!(mv.num_views(), 2);
        assert_eq!(mv.view(0).dims(), 2);
        assert_eq!(mv.view(1).dims(), 1);
        let cat = mv.concatenated();
        assert_eq!(cat.dims(), 3);
        assert_eq!(cat.row(1), &[2.0, 20.0, 200.0]);
    }

    #[test]
    #[should_panic(expected = "same objects")]
    fn multiview_rejects_mismatched_views() {
        let a = Dataset::from_rows(&[vec![1.0]]);
        let b = Dataset::from_rows(&[vec![1.0], vec![2.0]]);
        let _ = MultiViewDataset::new(vec![a, b]);
    }

    #[test]
    fn push_row_grows() {
        let mut ds = Dataset::with_dims(2);
        assert!(ds.is_empty());
        ds.push_row(&[1.0, 2.0]);
        ds.push_row(&[3.0, 4.0]);
        assert_eq!(ds.len(), 2);
        assert_eq!(ds.row(1), &[3.0, 4.0]);
    }
}
