//! The fixed-grid substrate for grid-based subspace methods
//! (CLIQUE, SCHISM, ENCLUS).
//!
//! The data space is divided into `ξ` equal-length intervals per dimension
//! (slide 69); a *unit* (cell) in subspace `S` is one interval combination
//! over `S`'s dimensions. Data is expected min-max normalised to `[0, 1]`
//! (see [`multiclust_data::Dataset::min_max_normalized`]); values at the
//! upper boundary fall into the last interval.
//!
//! A fit computes every object's interval on every dimension once
//! ([`IntervalCodes`]). A subspace's grid folds each object's codes over the
//! subspace's dimensions, in order, into one `u64` cell key
//! (`key = key·ξ + code`), so key order is the lexicographic order of the
//! cell coordinates. Sorting the `(key, object)` pairs lays the cells out
//! as runs in coordinate order, each run's members in ascending object
//! order. When the next fold could pass `u64::MAX`, every key is first
//! replaced by its rank among the distinct keys: ranks keep the order and
//! stay below `n`, so the fold fits.

use multiclust_data::Dataset;

/// Interval coordinates of a cell within a subspace (one entry per
/// subspace dimension, in the subspace's dimension order).
pub type CellCoords = Vec<u32>;

/// Interval index of value `x ∈ [0,1]` under `ξ` intervals.
#[inline]
pub fn interval_of(x: f64, xi: u32) -> u32 {
    debug_assert!((-1e-9..=1.0 + 1e-9).contains(&x), "value {x} outside [0,1]");
    let idx = (x * f64::from(xi)).floor() as i64;
    idx.clamp(0, i64::from(xi) - 1) as u32
}

/// Every object's interval on every dimension under `ξ` intervals, by
/// [`interval_of`], computed once per fit and stored column-major.
#[derive(Clone, Debug)]
pub struct IntervalCodes {
    xi: u32,
    n: usize,
    d: usize,
    /// `codes[j·n + i]` is object `i`'s interval on dimension `j`.
    codes: Vec<u32>,
}

impl IntervalCodes {
    /// The interval table of `data` under `ξ` intervals.
    ///
    /// # Panics
    /// Panics if `xi == 0`.
    pub fn new(data: &Dataset, xi: u32) -> Self {
        assert!(xi >= 1, "need at least one interval");
        let (n, d) = (data.len(), data.dims());
        let mut codes = vec![0u32; n * d];
        for (i, row) in data.rows().enumerate() {
            for (j, &x) in row.iter().enumerate() {
                codes[j * n + i] = interval_of(x, xi);
            }
        }
        Self { xi, n, d, codes }
    }

    /// Intervals per dimension.
    pub fn xi(&self) -> u32 {
        self.xi
    }

    /// Every object's interval on dimension `j`, in object order.
    fn column(&self, j: usize) -> &[u32] {
        &self.codes[j * self.n..(j + 1) * self.n]
    }

    /// Whether some cell of subspace `dims` holds at least `min_count`
    /// objects — the lattice predicate of CLIQUE and SCHISM. Returns at the
    /// first such cell and builds no member lists.
    ///
    /// # Panics
    /// As [`SubspaceGrid::new`].
    pub fn has_dense_cell(&self, dims: &[usize], min_count: usize) -> bool {
        let mut keys = self.cell_keys(dims);
        keys.sort_unstable();
        keys.chunk_by(|a, b| a == b).any(|run| run.len() >= min_count)
    }

    /// Each object's cell key in subspace `dims`, in object order. Keys
    /// order cells lexicographically by their coordinates.
    fn cell_keys(&self, dims: &[usize]) -> Vec<u64> {
        assert!(!dims.is_empty(), "subspace must have at least one dimension");
        assert!(dims.windows(2).all(|w| w[0] < w[1]), "dims must be sorted unique");
        assert!(dims.iter().all(|&d| d < self.d), "dimension out of range");
        let xi = u64::from(self.xi);
        let mut keys = vec![0u64; self.n];
        // Every key lies in `0..span`.
        let mut span = 1u64;
        for &j in dims {
            span = match span.checked_mul(xi) {
                Some(next) => next,
                None => rank_keys(&mut keys)
                    .checked_mul(xi)
                    .expect("distinct cells times ξ fits in u64"),
            };
            for (key, &code) in keys.iter_mut().zip(self.column(j)) {
                *key = *key * xi + u64::from(code);
            }
        }
        keys
    }
}

/// Replaces every key by its rank among the distinct keys, keeping their
/// order, and returns the number of distinct keys.
fn rank_keys(keys: &mut [u64]) -> u64 {
    let mut distinct = keys.to_vec();
    distinct.sort_unstable();
    distinct.dedup();
    for key in keys.iter_mut() {
        *key = distinct.binary_search(key).expect("every key is among the distinct keys") as u64;
    }
    distinct.len() as u64
}

/// A populated grid over one subspace: its cells as runs of member objects,
/// in coordinate order.
#[derive(Clone, Debug)]
pub struct SubspaceGrid<'a> {
    codes: &'a IntervalCodes,
    dims: Vec<usize>,
    /// Every object, by cell in coordinate order, then by object index.
    members: Vec<usize>,
    /// Where each cell's run starts in `members`, then `n`.
    starts: Vec<usize>,
}

impl<'a> SubspaceGrid<'a> {
    /// The populated grid of the objects in `codes` restricted to `dims`.
    ///
    /// # Panics
    /// Panics if `dims` is empty, unsorted/duplicated or out of range.
    pub fn new(codes: &'a IntervalCodes, dims: &[usize]) -> Self {
        let mut pairs: Vec<(u64, usize)> = codes.cell_keys(dims).into_iter().zip(0..).collect();
        pairs.sort_unstable();
        let mut starts: Vec<usize> = (0..pairs.len())
            .filter(|&i| i == 0 || pairs[i - 1].0 != pairs[i].0)
            .collect();
        starts.push(pairs.len());
        let members = pairs.into_iter().map(|(_, i)| i).collect();
        Self { codes, dims: dims.to_vec(), members, starts }
    }

    /// Number of populated cells.
    pub fn populated_cells(&self) -> usize {
        self.starts.len() - 1
    }

    /// Every populated cell's coordinates and member objects, in coordinate
    /// order, members ascending.
    pub fn cells(&self) -> impl Iterator<Item = (CellCoords, &[usize])> + '_ {
        self.runs().map(|objs| (self.coords_of(objs[0]).collect(), objs))
    }

    /// Cells holding at least `min_count` objects — the *dense units* of
    /// CLIQUE for `min_count = ⌈τ·n⌉` — in coordinate order.
    pub fn dense_cells(&self, min_count: usize) -> Vec<(CellCoords, &[usize])> {
        self.cells().filter(|(_, objs)| objs.len() >= min_count).collect()
    }

    /// Shannon entropy (nats) of the cell-occupancy distribution — the
    /// ENCLUS subspace criterion (slide 89): low entropy ⇒ mass concentrated
    /// in few cells ⇒ interesting subspace. Summed over the cells in
    /// coordinate order, so the bits repeat from run to run.
    pub fn entropy(&self) -> f64 {
        let n = self.codes.n;
        if n == 0 {
            return 0.0;
        }
        self.runs()
            .map(|objs| {
                let p = objs.len() as f64 / n as f64;
                -p * p.ln()
            })
            .sum()
    }

    /// Miller–Madow bias-corrected entropy estimate:
    /// `H_MM = H_plugin + (K − 1)/(2n)` with `K` the number of populated
    /// cells. The plug-in estimator underestimates entropy by ≈ `(K−1)/2n`
    /// on sparse grids, which would manufacture spurious "total
    /// correlation" in high-dimensional subspaces — exactly where ENCLUS
    /// compares entropies across dimensionalities.
    pub fn entropy_corrected(&self) -> f64 {
        let n = self.codes.n;
        if n == 0 {
            return 0.0;
        }
        self.entropy() + (self.populated_cells().saturating_sub(1)) as f64 / (2.0 * n as f64)
    }

    /// Groups dense cells into connected components (cells adjacent iff
    /// they differ by exactly one interval in exactly one dimension) and
    /// returns each component's member objects — the CLIQUE cluster
    /// formation step. Components come in the coordinate order of their
    /// first cell, members ascending.
    pub fn connected_dense_regions(&self, min_count: usize) -> Vec<Vec<usize>> {
        let dense: Vec<&[usize]> = self.runs().filter(|objs| objs.len() >= min_count).collect();
        // Neighbours are found by coordinates, read from each cell's first
        // member, with a binary search over the dense cells (already in
        // coordinate order).
        let coords: Vec<u32> = dense.iter().flat_map(|objs| self.coords_of(objs[0])).collect();
        let cells: Vec<&[u32]> = coords.chunks_exact(self.dims.len()).collect();
        let xi = self.codes.xi();
        let mut visited = vec![false; dense.len()];
        let mut out = Vec::new();
        for start in 0..dense.len() {
            if visited[start] {
                continue;
            }
            let mut stack = vec![start];
            visited[start] = true;
            let mut members: Vec<usize> = Vec::new();
            while let Some(u) = stack.pop() {
                members.extend_from_slice(dense[u]);
                // Probe neighbours: ±1 in each coordinate.
                let mut probe = cells[u].to_vec();
                for (axis, &c) in cells[u].iter().enumerate() {
                    for nc in [c.checked_sub(1), c.checked_add(1).filter(|&v| v < xi)] {
                        let Some(nc) = nc else { continue };
                        probe[axis] = nc;
                        if let Ok(v) = cells.binary_search(&probe.as_slice()) {
                            if !visited[v] {
                                visited[v] = true;
                                stack.push(v);
                            }
                        }
                    }
                    probe[axis] = c;
                }
            }
            members.sort_unstable();
            out.push(members);
        }
        out
    }

    /// Each cell's members, in coordinate order.
    fn runs(&self) -> impl Iterator<Item = &[usize]> + '_ {
        self.starts.windows(2).map(|w| &self.members[w[0]..w[1]])
    }

    /// Object `i`'s interval on each subspace dimension.
    fn coords_of(&self, i: usize) -> impl Iterator<Item = u32> + '_ {
        self.dims.iter().map(move |&j| self.codes.column(j)[i])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_square_data() -> Dataset {
        // Nine points in [0,1]²: a 5-point block in the low corner, 3 in
        // the high corner, one stray.
        Dataset::from_rows(&[
            vec![0.05, 0.05],
            vec![0.10, 0.08],
            vec![0.08, 0.12],
            vec![0.12, 0.10],
            vec![0.11, 0.11],
            vec![0.90, 0.92],
            vec![0.95, 0.95],
            vec![0.92, 0.90],
            vec![0.50, 0.95],
        ])
    }

    fn cell<'g>(g: &'g SubspaceGrid<'_>, coords: &[u32]) -> &'g [usize] {
        g.cells().find(|(c, _)| c == coords).map_or(&[], |(_, objs)| objs)
    }

    #[test]
    fn interval_of_boundaries() {
        assert_eq!(interval_of(0.0, 10), 0);
        assert_eq!(interval_of(0.999, 10), 9);
        assert_eq!(interval_of(1.0, 10), 9, "upper boundary folds into last interval");
        assert_eq!(interval_of(0.25, 4), 1);
    }

    #[test]
    fn grid_counts_objects() {
        let codes = IntervalCodes::new(&unit_square_data(), 5);
        let g = SubspaceGrid::new(&codes, &[0, 1]);
        let total: usize = g.cells().map(|(_, objs)| objs.len()).sum();
        assert_eq!(total, 9, "every object lands in exactly one cell");
        // Low-corner cell [0,0] holds the 5-point block.
        assert_eq!(cell(&g, &[0, 0]).len(), 5);
    }

    #[test]
    fn dense_cells_thresholding() {
        let codes = IntervalCodes::new(&unit_square_data(), 5);
        let g = SubspaceGrid::new(&codes, &[0, 1]);
        assert_eq!(g.dense_cells(3).len(), 2);
        assert_eq!(g.dense_cells(4).len(), 1);
        assert_eq!(g.dense_cells(100).len(), 0);
        assert!(codes.has_dense_cell(&[0, 1], 5));
        assert!(!codes.has_dense_cell(&[0, 1], 6));
    }

    #[test]
    fn one_dimensional_grid() {
        let codes = IntervalCodes::new(&unit_square_data(), 2);
        let g = SubspaceGrid::new(&codes, &[1]);
        // dim 1 split at 0.5: 5 below, 4 above.
        assert_eq!(cell(&g, &[0]).len(), 5);
        assert_eq!(cell(&g, &[1]).len(), 4);
    }

    #[test]
    fn cells_come_in_coordinate_order() {
        let codes = IntervalCodes::new(&unit_square_data(), 5);
        let g = SubspaceGrid::new(&codes, &[0, 1]);
        let coords: Vec<CellCoords> = g.cells().map(|(c, _)| c).collect();
        assert_eq!(coords, vec![vec![0, 0], vec![2, 4], vec![4, 4]]);
        assert_eq!(cell(&g, &[4, 4]), &[5, 6, 7]);
    }

    #[test]
    fn entropy_concentrated_vs_uniform() {
        // All mass in one cell → entropy 0.
        let tight = Dataset::from_rows(&[vec![0.1], vec![0.12], vec![0.11]]);
        let codes = IntervalCodes::new(&tight, 4);
        assert!(SubspaceGrid::new(&codes, &[0]).entropy() < 1e-12);
        // Perfectly spread mass → entropy ln(cells).
        let spread = Dataset::from_rows(&[vec![0.1], vec![0.35], vec![0.6], vec![0.85]]);
        let codes = IntervalCodes::new(&spread, 4);
        assert!((SubspaceGrid::new(&codes, &[0]).entropy() - 4.0f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn connected_regions_merge_adjacent_cells() {
        // A dense strip across two adjacent cells plus an isolated block.
        let data = Dataset::from_rows(&[
            vec![0.05],
            vec![0.08],
            vec![0.12],
            vec![0.30], // second interval at ξ=5 (0.2..0.4)
            vec![0.32],
            vec![0.35],
            vec![0.90],
            vec![0.92],
            vec![0.95],
        ]);
        let codes = IntervalCodes::new(&data, 5);
        let regions = SubspaceGrid::new(&codes, &[0]).connected_dense_regions(3);
        assert_eq!(regions.len(), 2, "strip merges, far block separate");
        let strip = regions.iter().find(|r| r.contains(&0)).unwrap();
        assert_eq!(strip.len(), 6);
    }

    #[test]
    fn keys_past_u64_are_ranked_in_order() {
        // ξ⁴ = 2⁸⁰: the fourth fold first ranks the keys.
        let xi = 1u32 << 20;
        let rows: Vec<Vec<f64>> = (0..12)
            .map(|i| {
                let v = |k: u32| f64::from(k) / f64::from(xi);
                vec![v(i % 3), v(xi - 1 - i % 2), v(i % 4 * 1000), v(xi - 1 - i)]
            })
            .collect();
        let data = Dataset::from_rows(&rows);
        let codes = IntervalCodes::new(&data, xi);
        let keys = codes.cell_keys(&[0, 1, 2, 3]);
        let coords = |i: usize| -> Vec<u32> { (0..4).map(|j| codes.column(j)[i]).collect() };
        for a in 0..rows.len() {
            assert!(keys[a] < (rows.len() as u64) << 20, "key {} is a ranked fold", keys[a]);
            for b in 0..rows.len() {
                assert_eq!(keys[a].cmp(&keys[b]), coords(a).cmp(&coords(b)));
            }
        }
    }

    #[test]
    #[should_panic(expected = "sorted unique")]
    fn unsorted_dims_rejected() {
        let codes = IntervalCodes::new(&unit_square_data(), 5);
        let _ = SubspaceGrid::new(&codes, &[1, 0]);
    }
}
