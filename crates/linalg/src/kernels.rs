//! The shared distance-kernel engine.
//!
//! Every paradigm in the workspace bottoms out in pairwise Euclidean
//! geometry: k-means assignment, COALA's average-link merge scan, spectral
//! affinities, PROCLUS medoid localities and meta-clustering's pairwise
//! solution matrix. This module centralises that substrate:
//!
//! * **Packed points** ([`PackedPoints`]): a fit's rows, packed into
//!   panels once and shared by every restart, k-means++ distance update
//!   and assignment pass of that fit.
//! * **A reusable symmetric matrix builder** ([`SymmetricMatrix`]):
//!   the strict upper triangle computed once (in parallel via
//!   `multiclust-parallel`, bit-identical at any thread count) and shared —
//!   COALA reuses one Euclidean matrix across its entire merge scan,
//!   spectral affinity halves its distance evaluations, meta-clustering
//!   builds its pairwise Rand matrix through the same machinery.
//! * **Hamerly-style bound-pruned nearest-centre assignment**
//!   ([`NearestAssign`]): per-point upper/lower distance bounds maintained
//!   across Lloyd iterations skip whole inner loops. Every distance that
//!   decides a label is exact and every bound carries a certified
//!   floating-point slack, so the produced labels are **bit-identical** to
//!   the exhaustive naive scan — the engine is a pure refactor of results
//!   (see DESIGN.md, "Distance engine", for the proof sketch).
//!
//! * **Cache-blocked SIMD kernels** ([`KernelMode::Blocked`], the default):
//!   row panels are packed transposed into L1-sized tiles ([`block`]) and
//!   the inner loops run *across pairs* — each lane accumulates its own
//!   pair's sum in the same index order as the scalar kernel, so every
//!   produced value is bit-identical to [`sq_dist`] while the loop
//!   vectorizes. Every blocked-mode distance row comes from that one
//!   panel kernel.
//!
//! The naive reference kernels live in [`reference`];
//! `MULTICLUST_KERNELS=naive` (or [`set_kernel_mode`]) routes all call
//! sites through them, so tests and the `cmp` gates can check that both
//! modes print the same bytes.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::OnceLock;

use crate::block;
use crate::matrix::Matrix;
use crate::vector::{dist, dot, sq_dist};

/// Minimum centre count for [`NearestAssign`] to keep Hamerly bounds.
/// Below it every pass is the exact across-points sweep, which measured
/// faster than the bound bookkeeping on the benchmark's planted data
/// (DESIGN.md, "Choosing the vectorization axis by centre count"). A pure
/// speed heuristic: both paths return identical labels.
const HAMERLY_MIN_K: usize = 8;

/// Certified relative error slack of bound maintenance, as a multiple of
/// `f64::EPSILON` per dimension: the drift updates and the halved centre
/// separations are inflated/deflated by it, so rounding in a bound can
/// never make the Hamerly test pass where exact arithmetic would fail.
#[inline]
fn slack(d: usize) -> f64 {
    4.0 * (d as f64 + 2.0) * f64::EPSILON
}

#[inline]
fn inflate(x: f64, d: usize) -> f64 {
    x * (1.0 + slack(d))
}

#[inline]
fn deflate(x: f64, d: usize) -> f64 {
    (x * (1.0 - slack(d))).max(0.0)
}

/// Underflow screen for Gaussian affinities, in units of the exponent
/// `d²/denom`. A correctly rounded `exp(-x)` is `+0.0` for `x ≳ 745.2`;
/// entries whose exact exponent exceeds this cut are written as `+0.0`
/// without calling `exp`. The cut sits far above the true threshold (≈ 7% headroom, i.e.
/// dozens of orders of magnitude below the smallest subnormal), so the
/// short-circuit is bit-identical to the naive result on any libm.
pub const SCREEN_CUT: f64 = 800.0;

// ---------------------------------------------------------------------
// Kernel mode
// ---------------------------------------------------------------------

/// Which kernel implementation the call sites route through.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KernelMode {
    /// The optimized path, and the default: points packed once per fit,
    /// shared matrices, bound-pruned assignment with the adaptive Hamerly
    /// bypass, and packed-panel SIMD kernels (see [`crate::block`]) under
    /// the matrix builders and assignment scans.
    Blocked,
    /// The naive reference: per-pair distances recomputed at every call,
    /// exhaustive assignment scans. Bit-identical results, no caching.
    Naive,
}

/// 0 = no override, 1 = naive, 2 = blocked.
static MODE_OVERRIDE: AtomicU8 = AtomicU8::new(0);

/// Reads `MULTICLUST_KERNELS`: unset or empty is `Ok(None)` (no
/// preference), `naive` / `blocked` select a mode, and any other value is
/// an error naming the variable. The CLI refuses that error at startup;
/// [`kernel_mode`] treats it as no preference.
pub fn kernel_mode_from_env() -> Result<Option<KernelMode>, String> {
    match std::env::var("MULTICLUST_KERNELS") {
        Err(std::env::VarError::NotPresent) => Ok(None),
        Ok(v) if v.is_empty() => Ok(None),
        Ok(v) if v == "naive" => Ok(Some(KernelMode::Naive)),
        Ok(v) if v == "blocked" => Ok(Some(KernelMode::Blocked)),
        _ => Err("MULTICLUST_KERNELS must be naive or blocked".to_string()),
    }
}

fn mode_from_env() -> Option<KernelMode> {
    static ENV: OnceLock<Option<KernelMode>> = OnceLock::new();
    *ENV.get_or_init(|| kernel_mode_from_env().unwrap_or(None))
}

/// The active kernel mode: a [`set_kernel_mode`] override wins, then the
/// `MULTICLUST_KERNELS` environment variable (`naive` / `blocked`, read
/// once), then [`KernelMode::Blocked`].
pub fn kernel_mode() -> KernelMode {
    match MODE_OVERRIDE.load(Ordering::Relaxed) {
        1 => KernelMode::Naive,
        2 => KernelMode::Blocked,
        _ => mode_from_env().unwrap_or(KernelMode::Blocked),
    }
}

/// Overrides (or with `None` restores) the process-wide kernel mode.
///
/// Both modes produce bit-identical results — the override only changes
/// *how* they are computed, so flipping it is always safe; it exists for
/// the equivalence invariant and the benchmark runner.
pub fn set_kernel_mode(mode: Option<KernelMode>) {
    let v = match mode {
        None => 0,
        Some(KernelMode::Naive) => 1,
        Some(KernelMode::Blocked) => 2,
    };
    MODE_OVERRIDE.store(v, Ordering::Relaxed);
}

// ---------------------------------------------------------------------
// Cached norms
// ---------------------------------------------------------------------

/// Squared Euclidean norm of every row of a flat row-major `n × d` buffer,
/// computed in parallel. Entry `i` equals `dot(row_i, row_i)` bit-for-bit.
pub fn sq_norms(d: usize, flat: &[f64]) -> Vec<f64> {
    assert!(d > 0, "dimensionality must be positive");
    debug_assert_eq!(flat.len() % d, 0);
    let n = flat.len() / d;
    let chunk = (1usize << 14) / d.max(1) + 1;
    multiclust_parallel::par_map_indexed(n, chunk, |i| {
        let row = &flat[i * d..(i + 1) * d];
        dot(row, row)
    })
}

// ---------------------------------------------------------------------
// The reusable symmetric matrix builder
// ---------------------------------------------------------------------

/// A symmetric `n × n` matrix with zero diagonal, stored as the condensed
/// strict upper triangle (`n·(n−1)/2` values). Built once, shared by every
/// consumer: COALA's merge scan, spectral affinity, meta-clustering's
/// pairwise solution matrix.
#[derive(Clone, Debug, PartialEq)]
pub struct SymmetricMatrix {
    n: usize,
    vals: Vec<f64>,
}

impl SymmetricMatrix {
    /// Builds the matrix from an entry function over `i < j` pairs.
    ///
    /// Rows of the strict upper triangle are independent, so they compute
    /// in parallel with bit-identical values at any thread count; the
    /// entry function is only ever called with `i < j`.
    pub fn build<F>(n: usize, f: F) -> Self
    where
        F: Fn(usize, usize) -> f64 + Sync,
    {
        let rows: Vec<Vec<f64>> = multiclust_parallel::par_map_indexed(n, 1, |i| {
            ((i + 1)..n).map(|j| f(i, j)).collect()
        });
        let mut vals = Vec::with_capacity(n * n.saturating_sub(1) / 2);
        for r in &rows {
            vals.extend_from_slice(r);
        }
        multiclust_telemetry::counter_add("kernels.matrix.builds", 1);
        multiclust_telemetry::counter_add("kernels.matrix.entries", vals.len() as u64);
        Self { n, vals }
    }

    /// Matrix order `n`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The condensed strict-upper-triangle values, row-major
    /// (`(0,1) … (0,n−1), (1,2) … `).
    pub fn values(&self) -> &[f64] {
        &self.vals
    }

    /// Entry `(i, j)`; the diagonal is zero by construction.
    ///
    /// # Panics
    /// Panics when an index is out of range.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        assert!(i < self.n && j < self.n, "index out of range");
        if i == j {
            return 0.0;
        }
        let (i, j) = if i < j { (i, j) } else { (j, i) };
        // Row i of the strict upper triangle starts after the first i rows,
        // which hold (n−1) + (n−2) + … + (n−i) entries.
        let row = i * (2 * self.n - i - 1) / 2;
        self.vals[row + (j - i - 1)]
    }

    /// A new matrix with `f` applied to every stored entry (in parallel).
    #[must_use]
    pub fn map<F>(&self, f: F) -> Self
    where
        F: Fn(f64) -> f64 + Sync,
    {
        let chunks =
            multiclust_parallel::par_chunks(&self.vals, 1 << 12, |_, c| -> Vec<f64> {
                c.iter().map(|&v| f(v)).collect()
            });
        let mut vals = Vec::with_capacity(self.vals.len());
        for c in &chunks {
            vals.extend_from_slice(c);
        }
        Self { n: self.n, vals }
    }
}

/// Builds the condensed strict upper triangle through the packed-panel
/// kernels: one `pack` of the whole buffer, then each row streamed against
/// the L1-sized panels covering its `j > i` columns. Values are
/// bit-identical to the scalar kernels per entry (the panel lanes
/// accumulate in the same index order).
fn blocked_condensed(d: usize, flat: &[f64], take_sqrt: bool) -> SymmetricMatrix {
    let n = flat.len() / d;
    let packed = block::PackedPanels::pack(d, flat);
    let rows: Vec<Vec<f64>> = multiclust_parallel::par_map_indexed(n, 1, |i| {
        let row = &flat[i * d..(i + 1) * d];
        let mut out = vec![0.0; n - i - 1];
        packed.sq_dist_row(row, i + 1, &mut out);
        if take_sqrt {
            for v in &mut out {
                *v = v.sqrt();
            }
        }
        out
    });
    let mut vals = Vec::with_capacity(n * n.saturating_sub(1) / 2);
    for r in &rows {
        vals.extend_from_slice(r);
    }
    multiclust_telemetry::counter_add("kernels.matrix.builds", 1);
    multiclust_telemetry::counter_add("kernels.matrix.entries", vals.len() as u64);
    // Work accounting (roofline model): each condensed entry is one exact
    // d-coordinate distance — ~3d flops (+1 for the sqrt variant) over
    // two d-length f64 rows.
    let entries = vals.len() as u64;
    let per_entry = 3 * d as u64 + u64::from(take_sqrt);
    multiclust_telemetry::counter_add("kernels.flops", per_entry * entries);
    multiclust_telemetry::counter_add("kernels.bytes_touched", 16 * d as u64 * entries);
    multiclust_telemetry::histogram_record("kernels.matrix.batch", entries);
    SymmetricMatrix { n, vals }
}

/// The squared-Euclidean-distance matrix of a flat row-major `n × d`
/// buffer. Entries are bit-identical to [`sq_dist`] on the row pair; in
/// [`KernelMode::Blocked`] the triangle is computed through the
/// cache-blocked panel kernels instead of per-pair scalar arithmetic.
pub fn sq_dist_matrix(d: usize, flat: &[f64]) -> SymmetricMatrix {
    assert!(d > 0, "dimensionality must be positive");
    let n = flat.len() / d;
    if kernel_mode() == KernelMode::Blocked {
        return blocked_condensed(d, flat, false);
    }
    SymmetricMatrix::build(n, |i, j| {
        sq_dist(&flat[i * d..(i + 1) * d], &flat[j * d..(j + 1) * d])
    })
}

/// The Euclidean-distance matrix of a flat row-major `n × d` buffer.
/// Entries are bit-identical to [`dist`] on the row pair; in
/// [`KernelMode::Blocked`] the triangle goes through the cache-blocked
/// panel kernels.
pub fn dist_matrix(d: usize, flat: &[f64]) -> SymmetricMatrix {
    assert!(d > 0, "dimensionality must be positive");
    let n = flat.len() / d;
    if kernel_mode() == KernelMode::Blocked {
        return blocked_condensed(d, flat, true);
    }
    SymmetricMatrix::build(n, |i, j| {
        dist(&flat[i * d..(i + 1) * d], &flat[j * d..(j + 1) * d])
    })
}

/// The full `n × n` Gaussian affinity matrix
/// `w_ij = exp(−sq_dist(x_i, x_j)/denom)` with zero diagonal, built
/// through the blocked panel kernels.
///
/// Per strict-upper-triangle entry the exact squared distance comes from
/// the panel-vectorized kernel (bit-identical to [`sq_dist`]) and is
/// screened against [`SCREEN_CUT`]: an exponent that far past the
/// underflow threshold makes `exp` return exactly `+0.0` on any libm, so
/// the entry is written without the `exp` call. Every entry is therefore
/// bit-identical to the naive per-pair build; each pair ticks
/// `kernels.estimates` for its screening test. The lower triangle is
/// mirrored in cache-sized tiles at the end.
pub fn gaussian_affinity_matrix(d: usize, flat: &[f64], denom: f64) -> Matrix {
    assert!(d > 0, "dimensionality must be positive");
    assert!(denom > 0.0, "denominator must be positive");
    let n = flat.len() / d;
    let packed = block::PackedPanels::pack(d, flat);
    let cut = SCREEN_CUT * denom;
    let screened = AtomicU64::new(0);

    let mut w = Matrix::zeros(n, n);
    // Fill the strict upper triangle row-block by row-block; each chunk
    // owns whole output rows, so blocks parallelise without aliasing and
    // the values are identical at any thread count.
    let chunk_rows = multiclust_parallel::block_rows(n * d);
    multiclust_parallel::par_chunks_mut(w.as_mut_slice(), chunk_rows * n, |start, buf| {
        let i0 = start / n;
        // Scratch shared by the rows of this chunk.
        let mut d2 = vec![0.0f64; n];
        let mut screen_count = 0u64;
        for (r, wrow) in buf.chunks_mut(n).enumerate() {
            let i = i0 + r;
            let lo = i + 1;
            if lo >= n {
                continue;
            }
            let m = n - lo;
            // `d² > cut` certifies the exponent is far past the libm
            // underflow threshold, so `exp` is skipped.
            packed.sq_dist_row(&flat[i * d..(i + 1) * d], lo, &mut d2[..m]);
            for c in 0..m {
                let v = d2[c];
                wrow[lo + c] = if v > cut {
                    screen_count += 1;
                    0.0
                } else {
                    (-v / denom).exp()
                };
            }
        }
        screened.fetch_add(screen_count, Ordering::Relaxed);
    });

    // Mirror the triangle in cache-sized tiles (transpose-style blocking
    // keeps both the read rows and the written columns resident).
    let data = w.as_mut_slice();
    const TB: usize = 64;
    let mut ib = 0;
    while ib < n {
        let imax = (ib + TB).min(n);
        let mut jb = ib;
        while jb < n {
            let jmax = (jb + TB).min(n);
            for i in ib..imax {
                for j in (jb.max(i + 1))..jmax {
                    data[j * n + i] = data[i * n + j];
                }
            }
            jb += TB;
        }
        ib += TB;
    }

    let screened = screened.into_inner();
    let pairs = (n * n.saturating_sub(1) / 2) as u64;
    multiclust_telemetry::counter_add("kernels.matrix.builds", 1);
    multiclust_telemetry::counter_add("kernels.matrix.entries", pairs);
    multiclust_telemetry::counter_add("kernels.estimates", pairs);
    multiclust_telemetry::counter_add("kernels.screen.pruned", screened);
    // Work accounting (roofline model): every pair costs one exact panel
    // distance (~3d flops over two f64 rows) plus one `exp` for the pairs
    // the underflow screen did not zero out.
    let d64 = d as u64;
    multiclust_telemetry::counter_add(
        "kernels.flops",
        3 * d64 * pairs + pairs.saturating_sub(screened),
    );
    multiclust_telemetry::counter_add("kernels.bytes_touched", 16 * d64 * pairs);
    multiclust_telemetry::histogram_record("kernels.matrix.batch", pairs);
    w
}

// ---------------------------------------------------------------------
// Naive reference kernels
// ---------------------------------------------------------------------

/// The naive reference implementations: what every call site computed
/// before the engine existed, kept for equivalence testing and as the
/// `Naive` kernel mode.
pub mod reference {
    use super::SymmetricMatrix;
    use crate::vector::{dist, sq_dist};

    /// Index and squared distance of the nearest centre to `row`:
    /// an exhaustive scan with strict `<`, so the first minimum in index
    /// order wins ties.
    #[inline]
    pub fn nearest(row: &[f64], centers: &[Vec<f64>]) -> (usize, f64) {
        let mut best = (0, f64::INFINITY);
        for (c, center) in centers.iter().enumerate() {
            let d2 = sq_dist(row, center);
            if d2 < best.1 {
                best = (c, d2);
            }
        }
        best
    }

    /// Index of the centre minimising the *computed Euclidean distance*
    /// (not its square), first minimum on ties — the comparison PROCLUS
    /// historically used for medoid localities.
    #[inline]
    pub fn nearest_by_dist(row: &[f64], centers: &[Vec<f64>]) -> usize {
        let mut best = (0, f64::INFINITY);
        for (c, center) in centers.iter().enumerate() {
            let dc = dist(row, center);
            if dc < best.1 {
                best = (c, dc);
            }
        }
        best.0
    }

    /// The squared-distance matrix by the naive double loop (serial).
    pub fn sq_dist_matrix(d: usize, flat: &[f64]) -> SymmetricMatrix {
        let n = flat.len() / d.max(1);
        let mut vals = Vec::with_capacity(n * n.saturating_sub(1) / 2);
        for i in 0..n {
            for j in (i + 1)..n {
                vals.push(sq_dist(&flat[i * d..(i + 1) * d], &flat[j * d..(j + 1) * d]));
            }
        }
        SymmetricMatrix { n, vals }
    }
}

// ---------------------------------------------------------------------
// Packed points
// ---------------------------------------------------------------------

/// Points per parallel part of a pass over `n` points costing about `work`
/// element operations each: up to 64 parts, each worth at least 2¹⁴
/// operations, rounded up to whole SIMD stripes so the sweep's point
/// blocks start on stripe boundaries. Depends only on `n` and `work`,
/// never on the thread count.
fn part_len(n: usize, work: usize) -> usize {
    n.div_ceil(64)
        .max((1usize << 14) / work.max(1) + 1)
        .next_multiple_of(block::STRIPE)
}

/// A fit's points: the flat row-major `n × d` buffer it borrows, and that
/// buffer's packed panels ([`block::PackedPanels`]), built on the first
/// blocked-mode read and kept until the value drops.
///
/// A fit builds one and hands it to every restart, every k-means++
/// distance update and every assignment pass, so its points are packed
/// once instead of once per pass. The rows are borrowed, so they cannot
/// change under the panels; a caller that rewrites its buffer builds a new
/// value.
pub struct PackedPoints<'a> {
    d: usize,
    rows: &'a [f64],
    panels: OnceLock<block::PackedPanels>,
}

impl<'a> PackedPoints<'a> {
    /// The points of the flat row-major buffer `rows`, `d` values each.
    ///
    /// # Panics
    /// Panics when `d` is zero or does not divide the buffer length.
    pub fn new(d: usize, rows: &'a [f64]) -> Self {
        assert!(d > 0, "dimensionality must be positive");
        assert_eq!(rows.len() % d, 0, "buffer length is not a multiple of d");
        Self { d, rows, panels: OnceLock::new() }
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.rows.len() / self.d
    }

    /// True when there are no points.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Dimensionality `d`.
    pub fn dims(&self) -> usize {
        self.d
    }

    /// Point `i`.
    pub fn row(&self, i: usize) -> &'a [f64] {
        &self.rows[i * self.d..(i + 1) * self.d]
    }

    fn panels(&self) -> &block::PackedPanels {
        self.panels
            .get_or_init(|| block::PackedPanels::pack(self.d, self.rows))
    }

    /// Sets `out[i] = f(out[i], sq_dist(row_i, x))` for every point, in
    /// parallel. In [`KernelMode::Blocked`] the distances are one panel row
    /// per part of the points, bit-identical to [`sq_dist`] per entry, so
    /// the result is the same in either mode and at any thread count.
    ///
    /// # Panics
    /// Panics when `out` does not hold one value per point.
    pub fn update_sq_dists<F>(&self, x: &[f64], out: &mut [f64], f: F)
    where
        F: Fn(f64, f64) -> f64 + Sync,
    {
        assert_eq!(out.len(), self.len(), "one output per point");
        let part = part_len(self.len(), self.d);
        if kernel_mode() == KernelMode::Naive {
            multiclust_parallel::par_chunks_mut(out, part, |lo, seg| {
                for (j, o) in seg.iter_mut().enumerate() {
                    *o = f(*o, sq_dist(self.row(lo + j), x));
                }
            });
            return;
        }
        let panels = self.panels();
        multiclust_parallel::par_chunks_mut(out, part, |lo, seg| {
            let mut d2 = vec![0.0f64; seg.len()];
            panels.sq_dist_row(x, lo, &mut d2);
            for (o, &v) in seg.iter_mut().zip(&d2) {
                *o = f(*o, v);
            }
        });
    }

    /// Index of the centre minimising the *computed Euclidean distance*
    /// for every point, first minimum on ties — the comparison PROCLUS
    /// uses for medoid localities (see [`assign_by_dist`]).
    ///
    /// # Panics
    /// Panics when `centers` is empty.
    pub fn nearest_by_dist(&self, centers: &[Vec<f64>]) -> Vec<usize> {
        assert!(!centers.is_empty(), "at least one centre required");
        let (n, d, k) = (self.len(), self.d, centers.len());
        let part = part_len(n, k * d);
        let mut labels = vec![0usize; n];
        if kernel_mode() == KernelMode::Naive {
            multiclust_parallel::par_chunks_mut(&mut labels, part, |lo, seg| {
                for (j, l) in seg.iter_mut().enumerate() {
                    *l = reference::nearest_by_dist(self.row(lo + j), centers);
                }
            });
            return labels;
        }
        let panels = self.panels();
        multiclust_parallel::par_chunks_mut(&mut labels, part, |lo, seg| {
            sweep(panels, centers, lo, true, seg, |_, _, _| {});
        });
        let stats = AssignStats {
            scanned: n as u64,
            exact: (n * k) as u64,
            ..AssignStats::default()
        };
        multiclust_telemetry::histogram_record("kernels.assign.batch", n as u64);
        stats.record(d);
        labels
    }
}

/// The exact across-points sweep over points `lo .. lo + labels.len()`:
/// per cache-sized block of points, each centre's exact squared-distance
/// row comes from the panel kernel — per-lane ascending-coordinate
/// accumulation, bit-identical to [`sq_dist`] — and is folded into the
/// block's running first minimum in centre order. It vectorizes across
/// *points*, so the SIMD lanes are full at any centre count. No estimates
/// and no margins: every value is exact, so the labels replicate the naive
/// scan bit-for-bit.
///
/// `by_dist` compares square roots, as [`reference::nearest_by_dist`]
/// does; otherwise squared distances, as [`reference::nearest`] does.
/// After each block, `per_block(offset, best, second)` receives the
/// block's best and second-best compared values.
fn sweep(
    panels: &block::PackedPanels,
    centers: &[Vec<f64>],
    lo: usize,
    by_dist: bool,
    labels: &mut [usize],
    mut per_block: impl FnMut(usize, &[f64], &[f64]),
) {
    let m = labels.len();
    // Point-block size: `MAX_TILE_COLS` points (whole stripes), small
    // enough that the block's distance row and running minima stay in L1
    // beside the panels the row reads.
    let blk = block::MAX_TILE_COLS.min(m);
    let mut row = vec![0.0f64; blk];
    let mut best = vec![0.0f64; blk];
    let mut second = vec![0.0f64; blk];
    let mut b0 = 0;
    while b0 < m {
        let bm = blk.min(m - b0);
        let (row, best, second) = (&mut row[..bm], &mut best[..bm], &mut second[..bm]);
        let block_labels = &mut labels[b0..b0 + bm];
        best.fill(f64::INFINITY);
        second.fill(f64::INFINITY);
        block_labels.fill(0);
        for (c, center) in centers.iter().enumerate() {
            panels.sq_dist_row(center, lo + b0, row);
            if by_dist {
                for v in row.iter_mut() {
                    *v = v.sqrt();
                }
            }
            fold_first_two(c, row, best, second, block_labels);
        }
        per_block(b0, best, second);
        b0 += bm;
    }
}

/// Folds centre `c`'s distances into running per-point minima, with the
/// comparisons of [`first_two`] (strict `<`, so the earlier centre keeps a
/// tie). The selects are bit masks, which the compiler vectorizes across
/// points; a branchy form stays scalar.
fn fold_first_two(
    c: usize,
    row: &[f64],
    best: &mut [f64],
    second: &mut [f64],
    labels: &mut [usize],
) {
    let m = row.len();
    let (best, second, labels) = (&mut best[..m], &mut second[..m], &mut labels[..m]);
    for j in 0..m {
        let (v, b, s) = (row[j].to_bits(), best[j].to_bits(), second[j].to_bits());
        // All ones where the comparison holds, else zero.
        let lt = 0u64.wrapping_sub(u64::from(row[j] < best[j]));
        let lt2 = 0u64.wrapping_sub(u64::from(row[j] < second[j]));
        // second = v < best ? best : (v < second ? v : second)
        second[j] = f64::from_bits((b & lt) | (((v & lt2) | (s & !lt2)) & !lt));
        best[j] = f64::from_bits((v & lt) | (b & !lt));
        labels[j] = (c & lt as usize) | (labels[j] & !(lt as usize));
    }
}

/// First minimum of an exact squared-distance column (strict `<`, so the
/// lowest index wins ties, as in [`reference::nearest`]), its value, and
/// the smallest value among the other centres.
fn first_two(col: &[f64]) -> (usize, f64, f64) {
    let mut best = (0usize, f64::INFINITY);
    let mut second = f64::INFINITY;
    for (c, &v) in col.iter().enumerate() {
        if v < best.1 {
            second = best.1;
            best = (c, v);
        } else if v < second {
            second = v;
        }
    }
    (best.0, best.1, second)
}

// ---------------------------------------------------------------------
// Bound-pruned nearest-centre assignment
// ---------------------------------------------------------------------

/// Kernel-call statistics of one assignment pass (also mirrored into the
/// telemetry counters `kernels.*` when telemetry records).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AssignStats {
    /// Points whose Hamerly test passed without computing any distance.
    pub skipped: u64,
    /// Points resolved after recomputing only the assigned-centre distance.
    pub tightened: u64,
    /// Points whose distances to every centre were computed.
    pub scanned: u64,
    /// Exact distance evaluations.
    pub exact: u64,
    /// Passes where the adaptive bypass dropped Hamerly bookkeeping and
    /// took the vectorized full sweep instead (blocked mode only).
    pub bypass: u64,
}

impl AssignStats {
    fn add(&mut self, o: &AssignStats) {
        self.skipped += o.skipped;
        self.tightened += o.tightened;
        self.scanned += o.scanned;
        self.exact += o.exact;
        self.bypass += o.bypass;
    }

    /// Mirrors the pass into the telemetry counters, deriving the work
    /// accounting (`kernels.flops`, `kernels.bytes_touched`) from the
    /// kernel-call tallies analytically: an exact `sq_dist` over `d`
    /// coordinates costs ~3d flops (sub, mul, add per lane) and reads two
    /// `d`-length `f64` rows (16d bytes). Coarse by design — the counters
    /// are a roofline model read by the `benchmark/` probes, not a hardware
    /// profile — and aggregated once per pass so the hot loops stay
    /// counter-free.
    fn record(&self, d: usize) {
        let d = d as u64;
        multiclust_telemetry::counter_add("kernels.assign.skipped", self.skipped);
        multiclust_telemetry::counter_add("kernels.assign.tightened", self.tightened);
        multiclust_telemetry::counter_add("kernels.assign.scanned", self.scanned);
        multiclust_telemetry::counter_add("kernels.exact", self.exact);
        multiclust_telemetry::counter_add("kernels.assign.bypass", self.bypass);
        multiclust_telemetry::counter_add("kernels.flops", 3 * d * self.exact);
        multiclust_telemetry::counter_add("kernels.bytes_touched", 16 * d * self.exact);
    }
}

/// One part of an assigner's per-point state: points `lo ..` of the
/// labels and bounds, written in place by one task, with that task's
/// tallies.
struct Part<'a> {
    lo: usize,
    labels: &'a mut [usize],
    ub: &'a mut [f64],
    lb: &'a mut [f64],
    stats: AssignStats,
}

/// Hamerly-style bound-pruned nearest-centre assignment with state carried
/// across iterations.
///
/// Below a measured centre count every pass is the exact across-points
/// sweep. From it on, each point keeps an upper bound `ub` on its distance
/// to its assigned centre and a lower bound `lb` on the distance to its
/// second-closest centre. After the centres move, the bounds are updated
/// by the centre drifts (inflated/deflated by a certified error slack);
/// when `ub < max(s(a), lb)` — with `s(a)` half the distance from the
/// assigned centre to its closest other centre — the assigned centre is
/// *provably* the unique nearest and the whole inner loop is skipped.
/// Points that fail the test recompute the assigned distance, and only
/// then compute one exact distance row: a panel row against the centres,
/// packed once per pass.
///
/// The produced labels are bit-identical to
/// [`reference::nearest`] per point at any thread count and in either
/// [`KernelMode`] (in [`KernelMode::Naive`] the exhaustive scan runs
/// directly).
pub struct NearestAssign {
    n: usize,
    labels: Vec<usize>,
    ub: Vec<f64>,
    lb: Vec<f64>,
    prev: Vec<Vec<f64>>,
    ready: bool,
}

impl NearestAssign {
    /// An assigner for `n` points with no history.
    pub fn new(n: usize) -> Self {
        Self {
            n,
            labels: vec![0; n],
            ub: vec![0.0; n],
            lb: vec![0.0; n],
            prev: Vec::new(),
            ready: false,
        }
    }

    /// The labels of the most recent assignment pass.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Assigns every row of the flat `n × d` buffer `points` to its
    /// nearest centre, and returns this pass's kernel statistics. The
    /// points are packed for this call alone; a fit that assigns more than
    /// once packs them once with [`PackedPoints`] and calls
    /// [`NearestAssign::assign_packed`]. Every distance is exact, so
    /// `_norms` is not read.
    ///
    /// # Panics
    /// Panics when `centers` is empty or the buffer sizes disagree with
    /// the `n` the assigner was built for.
    pub fn assign(
        &mut self,
        d: usize,
        points: &[f64],
        _norms: &[f64],
        centers: &[Vec<f64>],
    ) -> AssignStats {
        self.assign_packed(&PackedPoints::new(d, points), centers)
    }

    /// [`NearestAssign::assign`] on a fit's packed points.
    ///
    /// # Panics
    /// Panics when `centers` is empty or `points` does not hold the `n`
    /// points the assigner was built for.
    pub fn assign_packed(&mut self, points: &PackedPoints, centers: &[Vec<f64>]) -> AssignStats {
        assert!(!centers.is_empty(), "at least one centre required");
        assert_eq!(points.len(), self.n, "points buffer size mismatch");
        let (n, d, k) = (self.n, points.dims(), centers.len());
        let part = part_len(n, k * d);

        let naive = kernel_mode() == KernelMode::Naive;
        let stats = if naive || k < HAMERLY_MIN_K {
            // Exhaustive scan (naive mode, or too few centres for bound
            // pruning to pay); bounds are not maintained, so a later
            // pruned call re-initialises from scratch. The blocked mode
            // vectorizes the scan across points — the values and
            // first-minimum choices are exact either way.
            self.ready = false;
            if naive {
                multiclust_parallel::par_chunks_mut(&mut self.labels, part, |lo, seg| {
                    for (j, l) in seg.iter_mut().enumerate() {
                        *l = reference::nearest(points.row(lo + j), centers).0;
                    }
                });
            } else {
                let panels = points.panels();
                multiclust_parallel::par_chunks_mut(&mut self.labels, part, |lo, seg| {
                    sweep(panels, centers, lo, false, seg, |_, _, _| {});
                });
            }
            AssignStats {
                scanned: n as u64,
                exact: (n * k) as u64,
                ..AssignStats::default()
            }
        } else {
            let stats = if self.ready && self.prev.len() == k {
                self.warm_pass(points, centers, part)
            } else {
                // Cold pass: the exact sweep seeds exact bounds for the
                // warm passes.
                self.sweep_pass(points, centers, part)
            };
            self.prev = centers.to_vec();
            self.ready = true;
            stats
        };
        multiclust_telemetry::histogram_record("kernels.assign.batch", n as u64);
        stats.record(d);
        stats
    }

    /// Splits the per-point state into parts of `len` points, runs `f` on
    /// every part in parallel — each writes its own labels and bounds in
    /// place — and sums the parts' tallies.
    fn for_parts(&mut self, len: usize, f: impl Fn(&mut Part<'_>) + Sync) -> AssignStats {
        let mut lo = 0;
        let mut parts: Vec<Part<'_>> = self
            .labels
            .chunks_mut(len)
            .zip(self.ub.chunks_mut(len))
            .zip(self.lb.chunks_mut(len))
            .map(|((labels, ub), lb)| {
                let part = Part { lo, labels, ub, lb, stats: AssignStats::default() };
                lo += part.labels.len();
                part
            })
            .collect();
        multiclust_parallel::par_chunks_mut(&mut parts, 1, |_, ps| ps.iter_mut().for_each(&f));
        let mut stats = AssignStats::default();
        for p in &parts {
            stats.add(&p.stats);
        }
        stats
    }

    /// The exact sweep with exact bounds: the best distance for `ub`, the
    /// second-best (deflated) for `lb`.
    fn sweep_pass(
        &mut self,
        points: &PackedPoints,
        centers: &[Vec<f64>],
        part: usize,
    ) -> AssignStats {
        let (d, k) = (points.dims(), centers.len() as u64);
        let panels = points.panels();
        self.for_parts(part, |p| {
            let m = p.labels.len();
            let (ub, lb) = (&mut *p.ub, &mut *p.lb);
            sweep(panels, centers, p.lo, false, p.labels, |b0, best, second| {
                for (j, (&b, &s)) in best.iter().zip(second).enumerate() {
                    ub[b0 + j] = b.sqrt();
                    lb[b0 + j] = deflate(s.sqrt(), d);
                }
            });
            p.stats.scanned += m as u64;
            p.stats.exact += m as u64 * k;
        })
    }

    /// A pass with history: the bounds follow the centre drifts, and a
    /// point is only looked at when its Hamerly test fails.
    fn warm_pass(
        &mut self,
        points: &PackedPoints,
        centers: &[Vec<f64>],
        part: usize,
    ) -> AssignStats {
        let (n, d, k) = (self.n, points.dims(), centers.len());
        // Upper bound on each centre's drift since the last pass.
        let drift: Vec<f64> = (0..k)
            .map(|c| inflate(dist(&self.prev[c], &centers[c]), d))
            .collect();
        let max_drift = drift.iter().cloned().fold(0.0f64, f64::max);
        // s(c): half the (deflated) distance to the closest other centre —
        // a certified lower bound, so `ub < s(a)` proves the assigned
        // centre is the unique nearest.
        let s: Vec<f64> = (0..k)
            .map(|c| {
                let mind = (0..k)
                    .filter(|&o| o != c)
                    .map(|o| deflate(dist(&centers[c], &centers[o]), d))
                    .fold(f64::INFINITY, f64::min);
                deflate(0.5 * mind, d)
            })
            .collect();
        // Adaptive bypass: replay the Hamerly test on the stored bounds —
        // an O(n) pretest with no distance computations — and when fewer
        // than half the points would skip, drop the bound bookkeeping for
        // this pass and run the vectorized full sweep instead. Workloads
        // with large drifts (Dec-kMeans' per-view passes) are exactly
        // where drift-inflated bounds stop paying. The sweep recomputes
        // exact bounds, so the next pass can re-enter the test.
        let would_skip = (0..n)
            .filter(|&i| {
                let a = self.labels[i];
                let ub = inflate(self.ub[i] + drift[a], d);
                let lb = deflate(self.lb[i] - max_drift, d);
                ub < s[a].max(lb)
            })
            .count();
        if 2 * would_skip < n {
            let stats = self.sweep_pass(points, centers, part);
            return AssignStats { bypass: 1, ..stats };
        }
        // A point's exact distance row is one panel row against the
        // centres, packed once per pass.
        let packed = block::PackedPanels::pack_rows(d, centers);
        self.for_parts(part, |p| {
            let mut row_d2 = vec![0.0f64; k];
            for j in 0..p.labels.len() {
                let row = points.row(p.lo + j);
                let a = p.labels[j];
                let ub = inflate(p.ub[j] + drift[a], d);
                let lb = deflate(p.lb[j] - max_drift, d);
                let thresh = s[a].max(lb);
                p.lb[j] = lb;
                if ub < thresh {
                    p.ub[j] = ub;
                    p.stats.skipped += 1;
                    continue;
                }
                // Tighten: the exact assigned-centre distance may already
                // pass the test.
                let da = sq_dist(row, &centers[a]).sqrt();
                p.stats.exact += 1;
                if da < thresh {
                    p.ub[j] = da;
                    p.stats.tightened += 1;
                    continue;
                }
                packed.sq_dist_row(row, 0, &mut row_d2);
                let (label, best, second) = first_two(&row_d2);
                p.labels[j] = label;
                p.ub[j] = best.sqrt();
                p.lb[j] = deflate(second.sqrt(), d);
                p.stats.scanned += 1;
                p.stats.exact += k as u64;
            }
        })
    }
}

/// One-shot parallel nearest-centre assignment comparing *computed
/// Euclidean distances* (first minimum on ties) — the comparison PROCLUS
/// uses for medoid localities. In [`KernelMode::Blocked`] it runs the
/// exact across-points panel sweep, whose `d²` equals [`sq_dist`]
/// exactly, so its square root equals [`dist`] and the comparisons
/// replicate [`reference::nearest_by_dist`] bit-for-bit. The points are
/// packed for this call alone (a fit that assigns more than once calls
/// [`PackedPoints::nearest_by_dist`]), and `_norms` is not read.
pub fn assign_by_dist(
    d: usize,
    points: &[f64],
    _norms: &[f64],
    centers: &[Vec<f64>],
) -> Vec<usize> {
    PackedPoints::new(d, points).nearest_by_dist(centers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_flat(n: usize, d: usize, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n * d).map(|_| rng.gen_range(-5.0..5.0)).collect()
    }

    /// Runs `f` under a fixed kernel-mode override. The override is
    /// process-global and tests run concurrently, so every test that sets
    /// or *asserts on* mode-dependent statistics goes through this lock;
    /// the switch is restored even on panic.
    fn with_mode<T>(mode: Option<KernelMode>, f: impl FnOnce() -> T) -> T {
        use std::sync::Mutex;
        static LOCK: Mutex<()> = Mutex::new(());
        let _guard = LOCK.lock().unwrap_or_else(|p| p.into_inner());
        set_kernel_mode(mode);
        let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
        set_kernel_mode(None);
        match out {
            Ok(v) => v,
            Err(p) => std::panic::resume_unwind(p),
        }
    }

    #[test]
    fn norms_match_recomputation() {
        let flat = random_flat(40, 7, 1);
        let norms = sq_norms(7, &flat);
        for i in 0..40 {
            let row = &flat[i * 7..(i + 1) * 7];
            assert_eq!(norms[i], dot(row, row), "bit-identity of cached norm {i}");
        }
    }

    #[test]
    fn symmetric_matrix_matches_naive() {
        let flat = random_flat(23, 5, 2);
        let m = sq_dist_matrix(5, &flat);
        let naive = reference::sq_dist_matrix(5, &flat);
        assert_eq!(m, naive);
        for i in 0..23 {
            assert_eq!(m.get(i, i), 0.0);
            for j in 0..23 {
                assert_eq!(m.get(i, j), m.get(j, i));
            }
        }
    }

    #[test]
    fn condensed_indexing_round_trips() {
        let n = 9;
        let m = SymmetricMatrix::build(n, |i, j| (i * 100 + j) as f64);
        for i in 0..n {
            for j in (i + 1)..n {
                assert_eq!(m.get(i, j), (i * 100 + j) as f64);
            }
        }
    }

    #[test]
    fn warm_scan_far_from_origin_matches_reference() {
        // Centres on a line 10 apart, 10⁶ from the origin on every
        // coordinate, where a dot-form distance would cancel to noise.
        // Tight blobs around each centre pass the Hamerly test on a
        // stationary warm pass; one point exactly midway between each
        // neighbouring pair ties its two nearest distances, so it fails
        // the test and takes the warm full scan, whose exact row must
        // still pick the first minimum. Both centre panels are covered:
        // tail-only (the smallest Hamerly k, under one stripe) and one
        // full stripe (k = STRIPE).
        let d = 3;
        for k in [HAMERLY_MIN_K, block::STRIPE] {
            let centers: Vec<Vec<f64>> =
                (0..k).map(|c| vec![1e6 + 10.0 * c as f64, 1e6, 1e6]).collect();
            let mut rng = StdRng::seed_from_u64(9);
            let mut flat = Vec::new();
            for c in &centers {
                for _ in 0..8 {
                    flat.extend(c.iter().map(|&x| x + rng.gen_range(-0.5..0.5)));
                }
            }
            for pair in centers.windows(2) {
                flat.extend(pair[0].iter().zip(&pair[1]).map(|(a, b)| 0.5 * (a + b)));
            }
            let n = flat.len() / d;
            let norms = sq_norms(d, &flat);
            with_mode(Some(KernelMode::Blocked), || {
                let mut assigner = NearestAssign::new(n);
                assigner.assign(d, &flat, &norms, &centers);
                let stats = assigner.assign(d, &flat, &norms, &centers);
                assert_eq!(stats.bypass, 0, "k={k}: {stats:?}");
                assert!(stats.scanned > 0, "k={k}: midpoints fail Hamerly: {stats:?}");
                for i in 0..n {
                    assert_eq!(
                        assigner.labels()[i],
                        reference::nearest(&flat[i * d..(i + 1) * d], &centers).0,
                        "k={k}, point {i}"
                    );
                }
            });
        }
    }

    #[test]
    fn pruned_assignment_matches_reference_across_iterations() {
        let n = 120;
        let d = 6;
        let flat = random_flat(n, d, 3);
        let norms = sq_norms(d, &flat);
        let mut rng = StdRng::seed_from_u64(4);
        let mut centers: Vec<Vec<f64>> = (0..5)
            .map(|_| (0..d).map(|_| rng.gen_range(-5.0..5.0)).collect())
            .collect();
        let mut assigner = NearestAssign::new(n);
        // Drift the centres over several rounds; every round must match
        // the exhaustive scan bit-for-bit.
        for round in 0..6 {
            assigner.assign(d, &flat, &norms, &centers);
            for i in 0..n {
                let want = reference::nearest(&flat[i * d..(i + 1) * d], &centers).0;
                assert_eq!(
                    assigner.labels()[i],
                    want,
                    "round {round}, point {i} diverged from the naive scan"
                );
            }
            for c in &mut centers {
                for x in c.iter_mut() {
                    *x += rng.gen_range(-0.3..0.3);
                }
            }
        }
    }

    /// Two tight blobs at 0 and 50 on every coordinate, plus
    /// `HAMERLY_MIN_K` centres 50 apart (so pruning engages).
    fn blobs_and_centers(n: usize, d: usize) -> (Vec<f64>, Vec<f64>, Vec<Vec<f64>>) {
        let mut rng = StdRng::seed_from_u64(5);
        let flat: Vec<f64> = (0..n)
            .flat_map(|i| {
                let base = if i % 2 == 0 { 0.0 } else { 50.0 };
                (0..d)
                    .map(|_| base + rng.gen_range(-0.5..0.5))
                    .collect::<Vec<_>>()
            })
            .collect();
        let norms = sq_norms(d, &flat);
        let centers = (0..HAMERLY_MIN_K).map(|c| vec![50.0 * c as f64; d]).collect();
        (flat, norms, centers)
    }

    #[test]
    fn later_rounds_skip_most_points() {
        let n = 200;
        let d = 4;
        let (flat, norms, centers) = blobs_and_centers(n, d);
        with_mode(Some(KernelMode::Blocked), || {
            let mut assigner = NearestAssign::new(n);
            assigner.assign(d, &flat, &norms, &centers);
            // Stationary centres: the Hamerly test must skip everything
            // (and the bypass pretest must NOT bypass it).
            let stats = assigner.assign(d, &flat, &norms, &centers);
            assert_eq!(stats.skipped, n as u64, "all skipped: {stats:?}");
            assert_eq!(stats.exact, 0);
            assert_eq!(stats.bypass, 0);
        });
    }

    #[test]
    fn adaptive_bypass_engages_then_reenters_hamerly() {
        let n = 200;
        let d = 4;
        let (flat, norms, centers) = blobs_and_centers(n, d);
        with_mode(Some(KernelMode::Blocked), || {
            let mut assigner = NearestAssign::new(n);
            assigner.assign(d, &flat, &norms, &centers);
            // Shift every centre by 45 per coordinate: the drift (90 in
            // distance) inflates every upper bound past the separation
            // threshold, so the pretest predicts ~0 skips and the pass
            // must bypass the bound bookkeeping entirely.
            let moved: Vec<Vec<f64>> =
                centers.iter().map(|c| c.iter().map(|x| x + 45.0).collect()).collect();
            let stats = assigner.assign(d, &flat, &norms, &moved);
            assert_eq!(stats.bypass, 1, "bypass engaged: {stats:?}");
            assert_eq!(stats.skipped, 0);
            assert_eq!(stats.tightened, 0);
            assert_eq!(stats.scanned, n as u64);
            for i in 0..n {
                assert_eq!(
                    assigner.labels()[i],
                    reference::nearest(&flat[i * d..(i + 1) * d], &moved).0,
                    "bypassed pass stays bit-identical (point {i})"
                );
            }
            // The bypassed scan refreshed exact bounds: with the centres
            // now stationary, the next pass re-enters Hamerly and skips
            // every point instead of bypassing again.
            let stats = assigner.assign(d, &flat, &norms, &moved);
            assert_eq!(stats.bypass, 0, "{stats:?}");
            assert_eq!(stats.skipped, n as u64, "{stats:?}");
        });
    }

    #[test]
    fn blocked_matrix_builders_bit_identical() {
        let flat = random_flat(37, 5, 12);
        let naive_sq = reference::sq_dist_matrix(5, &flat);
        with_mode(Some(KernelMode::Blocked), || {
            assert_eq!(sq_dist_matrix(5, &flat), naive_sq);
            let dm = dist_matrix(5, &flat);
            for i in 0..37 {
                for j in (i + 1)..37 {
                    let want = dist(&flat[i * 5..(i + 1) * 5], &flat[j * 5..(j + 1) * 5]);
                    assert_eq!(dm.get(i, j).to_bits(), want.to_bits(), "({i},{j})");
                }
            }
        });
    }

    #[test]
    fn gaussian_affinity_matches_naive_bits() {
        let n = 41;
        let d = 3;
        let flat = random_flat(n, d, 13);
        let denom = 2.0 * 1.3 * 1.3;
        let w = gaussian_affinity_matrix(d, &flat, denom);
        for i in 0..n {
            for j in 0..n {
                let want = if i == j {
                    0.0
                } else {
                    (-sq_dist(&flat[i * d..(i + 1) * d], &flat[j * d..(j + 1) * d]) / denom).exp()
                };
                assert_eq!(w[(i, j)].to_bits(), want.to_bits(), "({i},{j})");
            }
        }
    }

    #[test]
    fn gaussian_affinity_screen_underflows_to_exact_zero() {
        // Two clusters 10⁶ apart: cross-pair exponents are ~2.5·10¹¹ —
        // astronomically past SCREEN_CUT — so the screen must fire and the
        // written +0.0 must equal the naive exp's underflow bit-for-bit.
        let d = 2;
        let flat = vec![0.0, 0.0, 1.0, 0.5, 1e6, 1e6, 1e6 + 1.0, 1e6 - 0.5];
        let denom = 2.0;
        let w = gaussian_affinity_matrix(d, &flat, denom);
        for (i, j) in [(0, 2), (0, 3), (1, 2), (1, 3)] {
            let want =
                (-sq_dist(&flat[i * d..(i + 1) * d], &flat[j * d..(j + 1) * d]) / denom).exp();
            assert_eq!(want.to_bits(), 0.0f64.to_bits(), "naive underflows to +0.0");
            assert_eq!(w[(i, j)].to_bits(), want.to_bits(), "({i},{j})");
            assert_eq!(w[(j, i)].to_bits(), want.to_bits(), "mirror ({j},{i})");
        }
        // Near pairs survive the screen and carry the exact value.
        let want01 = (-sq_dist(&flat[0..2], &flat[2..4]) / denom).exp();
        assert!(want01 > 0.0);
        assert_eq!(w[(0, 1)].to_bits(), want01.to_bits());
    }

    #[test]
    fn assign_by_dist_matches_reference() {
        let n = 80;
        let d = 5;
        let flat = random_flat(n, d, 6);
        let norms = sq_norms(d, &flat);
        let centers: Vec<Vec<f64>> =
            (0..4).map(|c| flat[c * d..(c + 1) * d].to_vec()).collect();
        with_mode(Some(KernelMode::Blocked), || {
            let labels = assign_by_dist(d, &flat, &norms, &centers);
            for i in 0..n {
                assert_eq!(
                    labels[i],
                    reference::nearest_by_dist(&flat[i * d..(i + 1) * d], &centers),
                    "point {i}"
                );
            }
        });
    }

    #[test]
    fn naive_mode_produces_identical_labels() {
        let n = 60;
        let d = 3;
        let flat = random_flat(n, d, 7);
        let norms = sq_norms(d, &flat);
        let centers: Vec<Vec<f64>> =
            (0..3).map(|c| flat[c * d..(c + 1) * d].to_vec()).collect();
        let labels_in = |mode: KernelMode| {
            with_mode(Some(mode), || {
                let mut a = NearestAssign::new(n);
                a.assign(d, &flat, &norms, &centers);
                a.labels().to_vec()
            })
        };
        let naive = labels_in(KernelMode::Naive);
        assert_eq!(labels_in(KernelMode::Blocked), naive);
    }

    #[test]
    fn below_hamerly_min_k_takes_exhaustive_path() {
        let n = 30;
        let d = 2;
        let flat = random_flat(n, d, 8);
        let norms = sq_norms(d, &flat);
        let centers: Vec<Vec<f64>> =
            (0..HAMERLY_MIN_K - 1).map(|c| flat[c * d..(c + 1) * d].to_vec()).collect();
        with_mode(Some(KernelMode::Blocked), || {
            let mut assigner = NearestAssign::new(n);
            assigner.assign(d, &flat, &norms, &centers);
            let stats = assigner.assign(d, &flat, &norms, &centers);
            // Below the crossover the sweep beats the bound bookkeeping,
            // so a stationary second pass still scans every point exactly
            // — nothing skipped, nothing bypassed.
            assert_eq!(stats.skipped, 0);
            assert_eq!(stats.bypass, 0);
            assert_eq!(stats.scanned, n as u64);
            assert_eq!(stats.exact, (n * centers.len()) as u64);
            for i in 0..n {
                assert_eq!(
                    assigner.labels()[i],
                    reference::nearest(&flat[i * d..(i + 1) * d], &centers).0,
                    "point {i}"
                );
            }
        });
    }
}
