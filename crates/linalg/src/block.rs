//! Cache-blocked panel kernels: the vectorized tier under the distance
//! engine.
//!
//! The scalar kernels in [`crate::vector`] compute one pair at a time; the
//! compiler cannot vectorize them because the accumulation order *within*
//! a pair is part of the result contract (summation in index order). This
//! module vectorizes **across pairs** instead: the right-hand rows are
//! packed transposed into L1-sized panels ([`PackedPanels`]), and one left
//! row is streamed against a stripe of [`STRIPE`] columns at once. Each
//! SIMD lane owns one column and accumulates its own sum in ascending
//! index order — exactly the scalar order — so every produced value is
//! **bit-identical** to [`crate::vector::dot`] / [`crate::vector::sq_dist`]
//! on the same pair.
//!
//! Two implementations sit behind one dispatch point:
//!
//! * a portable fallback written as flat fixed-width array loops the
//!   autovectorizer handles on any target, and
//! * an AVX2 path (`core::arch`, runtime `is_x86_feature_detected!`) using
//!   only `sub`/`mul`/`add` — **never FMA**, which single-rounds the
//!   multiply-add and would change bits relative to the scalar kernel.

/// Columns per SIMD stripe: 4 AVX2 `f64` vectors, held in registers across
/// the whole depth loop.
pub const STRIPE: usize = 16;

/// Bytes one packed panel may occupy: half of a typical 32 KiB L1d, so the
/// panel and the streamed row both stay resident while a row block reuses
/// the panel.
pub const TILE_BYTES: usize = 16 * 1024;

/// Upper bound on [`tile_cols`]; fixed-size scratch buffers in the
/// assignment kernels are sized by this.
pub const MAX_TILE_COLS: usize = 256;

/// Panel width (columns) for depth `d`: as many columns as keep the panel
/// within [`TILE_BYTES`], rounded down to a whole number of stripes and
/// clamped to `[STRIPE, MAX_TILE_COLS]`.
pub fn tile_cols(d: usize) -> usize {
    let raw = (TILE_BYTES / 8) / d.max(1);
    (raw / STRIPE * STRIPE).clamp(STRIPE, MAX_TILE_COLS)
}

// ---------------------------------------------------------------------
// AVX2 kernels (x86-64 only, runtime-detected)
// ---------------------------------------------------------------------

/// Runtime-dispatched AVX2 variants of the panel kernels.
///
/// The only unsafe code in the workspace lives here. Safety rests on two
/// invariants, checked by the safe wrappers: (1) the AVX2 intrinsics are
/// only executed after `is_x86_feature_detected!("avx2")` returned `true`,
/// and (2) every pointer offset stays inside the bounds the callers
/// `debug_assert` and the packing layout guarantees (`panel` holds
/// `d × width` values, the accessed columns `lo .. lo + out.len()` lie
/// within `width`).
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod x86 {
    use core::arch::x86_64::{
        _mm256_add_pd, _mm256_loadu_pd, _mm256_mul_pd, _mm256_set1_pd, _mm256_setzero_pd,
        _mm256_storeu_pd, _mm256_sub_pd,
    };

    use super::STRIPE;

    #[inline]
    fn avx2() -> bool {
        std::arch::is_x86_feature_detected!("avx2")
    }

    /// AVX2 `sq_dist` panel kernel; returns `false` (and does nothing)
    /// when AVX2 is unavailable so the caller can fall back.
    #[inline]
    pub fn sq_dist_range(
        row: &[f64],
        panel: &[f64],
        width: usize,
        lo: usize,
        out: &mut [f64],
    ) -> bool {
        if !avx2() {
            return false;
        }
        // SAFETY: AVX2 presence checked above; bounds are the caller's
        // panel-layout invariant (see module docs).
        unsafe { sq_dist_range_avx2(row, panel, width, lo, out) };
        true
    }

    /// AVX2 `dot` panel kernel; `false` when AVX2 is unavailable.
    #[inline]
    pub fn dot_range(
        row: &[f64],
        panel: &[f64],
        width: usize,
        lo: usize,
        out: &mut [f64],
    ) -> bool {
        if !avx2() {
            return false;
        }
        // SAFETY: as above.
        unsafe { dot_range_avx2(row, panel, width, lo, out) };
        true
    }

    /// Per column `c`: `out[c] = Σ_t (row[t] − panel[t·width + lo + c])²`,
    /// each lane accumulating in ascending `t` — bit-identical to the
    /// scalar kernel. `sub`/`mul`/`add` only: FMA would single-round the
    /// multiply-add and change bits.
    #[target_feature(enable = "avx2")]
    unsafe fn sq_dist_range_avx2(
        row: &[f64],
        panel: &[f64],
        width: usize,
        lo: usize,
        out: &mut [f64],
    ) {
        let len = out.len();
        debug_assert!(lo + len <= width);
        debug_assert!(panel.len() >= row.len() * width);
        let mut j = 0;
        while j + STRIPE <= len {
            let mut a0 = _mm256_setzero_pd();
            let mut a1 = _mm256_setzero_pd();
            let mut a2 = _mm256_setzero_pd();
            let mut a3 = _mm256_setzero_pd();
            for (t, &x) in row.iter().enumerate() {
                let xv = _mm256_set1_pd(x);
                let base = panel.as_ptr().add(t * width + lo + j);
                let d0 = _mm256_sub_pd(xv, _mm256_loadu_pd(base));
                let d1 = _mm256_sub_pd(xv, _mm256_loadu_pd(base.add(4)));
                let d2 = _mm256_sub_pd(xv, _mm256_loadu_pd(base.add(8)));
                let d3 = _mm256_sub_pd(xv, _mm256_loadu_pd(base.add(12)));
                a0 = _mm256_add_pd(a0, _mm256_mul_pd(d0, d0));
                a1 = _mm256_add_pd(a1, _mm256_mul_pd(d1, d1));
                a2 = _mm256_add_pd(a2, _mm256_mul_pd(d2, d2));
                a3 = _mm256_add_pd(a3, _mm256_mul_pd(d3, d3));
            }
            let o = out.as_mut_ptr().add(j);
            _mm256_storeu_pd(o, a0);
            _mm256_storeu_pd(o.add(4), a1);
            _mm256_storeu_pd(o.add(8), a2);
            _mm256_storeu_pd(o.add(12), a3);
            j += STRIPE;
        }
        for jj in j..len {
            let col = lo + jj;
            let mut a = 0.0;
            for (t, &x) in row.iter().enumerate() {
                let dd = x - *panel.get_unchecked(t * width + col);
                a += dd * dd;
            }
            out[jj] = a;
        }
    }

    /// Per column `c`: `out[c] = Σ_t row[t] · panel[t·width + lo + c]`,
    /// per-lane ascending-`t` accumulation, no FMA.
    #[target_feature(enable = "avx2")]
    unsafe fn dot_range_avx2(
        row: &[f64],
        panel: &[f64],
        width: usize,
        lo: usize,
        out: &mut [f64],
    ) {
        let len = out.len();
        debug_assert!(lo + len <= width);
        debug_assert!(panel.len() >= row.len() * width);
        let mut j = 0;
        while j + STRIPE <= len {
            let mut a0 = _mm256_setzero_pd();
            let mut a1 = _mm256_setzero_pd();
            let mut a2 = _mm256_setzero_pd();
            let mut a3 = _mm256_setzero_pd();
            for (t, &x) in row.iter().enumerate() {
                let xv = _mm256_set1_pd(x);
                let base = panel.as_ptr().add(t * width + lo + j);
                a0 = _mm256_add_pd(a0, _mm256_mul_pd(xv, _mm256_loadu_pd(base)));
                a1 = _mm256_add_pd(a1, _mm256_mul_pd(xv, _mm256_loadu_pd(base.add(4))));
                a2 = _mm256_add_pd(a2, _mm256_mul_pd(xv, _mm256_loadu_pd(base.add(8))));
                a3 = _mm256_add_pd(a3, _mm256_mul_pd(xv, _mm256_loadu_pd(base.add(12))));
            }
            let o = out.as_mut_ptr().add(j);
            _mm256_storeu_pd(o, a0);
            _mm256_storeu_pd(o.add(4), a1);
            _mm256_storeu_pd(o.add(8), a2);
            _mm256_storeu_pd(o.add(12), a3);
            j += STRIPE;
        }
        for jj in j..len {
            let col = lo + jj;
            let mut a = 0.0;
            for (t, &x) in row.iter().enumerate() {
                a += x * *panel.get_unchecked(t * width + col);
            }
            out[jj] = a;
        }
    }
}

// ---------------------------------------------------------------------
// Portable fallback kernels
// ---------------------------------------------------------------------

/// Portable `sq_dist` panel kernel: fixed-width stripe accumulators the
/// autovectorizer turns into SIMD on any target.
fn sq_dist_range_portable(row: &[f64], panel: &[f64], width: usize, lo: usize, out: &mut [f64]) {
    let len = out.len();
    debug_assert!(lo + len <= width);
    debug_assert!(panel.len() >= row.len() * width);
    let mut j = 0;
    while j + STRIPE <= len {
        let mut acc = [0.0f64; STRIPE];
        for (t, &x) in row.iter().enumerate() {
            let p = &panel[t * width + lo + j..t * width + lo + j + STRIPE];
            for (a, &pv) in acc.iter_mut().zip(p) {
                let dd = x - pv;
                *a += dd * dd;
            }
        }
        out[j..j + STRIPE].copy_from_slice(&acc);
        j += STRIPE;
    }
    for jj in j..len {
        let col = lo + jj;
        let mut a = 0.0;
        for (t, &x) in row.iter().enumerate() {
            let dd = x - panel[t * width + col];
            a += dd * dd;
        }
        out[jj] = a;
    }
}

/// Portable `dot` panel kernel.
fn dot_range_portable(row: &[f64], panel: &[f64], width: usize, lo: usize, out: &mut [f64]) {
    let len = out.len();
    debug_assert!(lo + len <= width);
    debug_assert!(panel.len() >= row.len() * width);
    let mut j = 0;
    while j + STRIPE <= len {
        let mut acc = [0.0f64; STRIPE];
        for (t, &x) in row.iter().enumerate() {
            let p = &panel[t * width + lo + j..t * width + lo + j + STRIPE];
            for (a, &pv) in acc.iter_mut().zip(p) {
                *a += x * pv;
            }
        }
        out[j..j + STRIPE].copy_from_slice(&acc);
        j += STRIPE;
    }
    for jj in j..len {
        let col = lo + jj;
        let mut a = 0.0;
        for (t, &x) in row.iter().enumerate() {
            a += x * panel[t * width + col];
        }
        out[jj] = a;
    }
}

#[inline]
fn sq_dist_range(row: &[f64], panel: &[f64], width: usize, lo: usize, out: &mut [f64]) {
    #[cfg(target_arch = "x86_64")]
    if x86::sq_dist_range(row, panel, width, lo, out) {
        return;
    }
    sq_dist_range_portable(row, panel, width, lo, out);
}

#[inline]
fn dot_range(row: &[f64], panel: &[f64], width: usize, lo: usize, out: &mut [f64]) {
    #[cfg(target_arch = "x86_64")]
    if x86::dot_range(row, panel, width, lo, out) {
        return;
    }
    dot_range_portable(row, panel, width, lo, out);
}

// ---------------------------------------------------------------------
// Packed panels
// ---------------------------------------------------------------------

/// A row-major `n × d` buffer repacked into transposed, L1-sized panels.
///
/// Panel `p` covers columns (source rows) `p·b .. p·b + bw` where
/// `b = tile_cols(d)` and `bw` is clamped at the end; inside a panel the
/// value of source row `j`, coordinate `t` lives at `t·bw + (j − p·b)`, so
/// a depth step walks `bw` consecutive values — the unit-stride stream the
/// SIMD stripe loads.
pub struct PackedPanels {
    d: usize,
    n: usize,
    b: usize,
    data: Vec<f64>,
}

impl PackedPanels {
    /// Packs a flat row-major `n × d` buffer.
    pub fn pack(d: usize, flat: &[f64]) -> Self {
        assert!(d > 0, "dimensionality must be positive");
        debug_assert_eq!(flat.len() % d, 0);
        let n = flat.len() / d;
        let b = tile_cols(d);
        let mut data = vec![0.0f64; n * d];
        let mut panels = 0u64;
        let mut lo = 0;
        while lo < n {
            let bw = b.min(n - lo);
            let dst = &mut data[lo * d..(lo + bw) * d];
            for (j, src_row) in flat[lo * d..(lo + bw) * d].chunks_exact(d).enumerate() {
                for (t, &v) in src_row.iter().enumerate() {
                    dst[t * bw + j] = v;
                }
            }
            panels += 1;
            lo += bw;
        }
        multiclust_telemetry::counter_add("kernels.block.panels", panels);
        // Work accounting: packing streams every f64 once in and once out.
        multiclust_telemetry::counter_add("kernels.bytes_touched", 16 * (n * d) as u64);
        Self { d, n, b, data }
    }

    /// Packs a set of equal-length rows (e.g. cluster centres).
    pub fn pack_rows(d: usize, rows: &[Vec<f64>]) -> Self {
        let mut flat = Vec::with_capacity(rows.len() * d);
        for r in rows {
            debug_assert_eq!(r.len(), d);
            flat.extend_from_slice(r);
        }
        Self::pack(d, &flat)
    }

    /// Number of packed source rows (panel columns).
    pub fn cols(&self) -> usize {
        self.n
    }

    /// Fills `out[c] = sq_dist(row, source_row(lo + c))` for `out.len()`
    /// consecutive columns starting at `lo`, bit-identical to the scalar
    /// kernel per entry.
    pub fn sq_dist_row(&self, row: &[f64], lo: usize, out: &mut [f64]) {
        self.for_each_panel(lo, out, |panel, bw, plo, seg| {
            sq_dist_range(row, panel, bw, plo, seg);
        });
    }

    /// Fills `out[c] = dot(row, source_row(lo + c))` for `out.len()`
    /// consecutive columns starting at `lo`, bit-identical to the scalar
    /// kernel per entry.
    pub fn dot_row(&self, row: &[f64], lo: usize, out: &mut [f64]) {
        self.for_each_panel(lo, out, |panel, bw, plo, seg| {
            dot_range(row, panel, bw, plo, seg);
        });
    }

    #[inline]
    fn for_each_panel(
        &self,
        lo: usize,
        out: &mut [f64],
        mut f: impl FnMut(&[f64], usize, usize, &mut [f64]),
    ) {
        let hi_total = lo + out.len();
        debug_assert!(hi_total <= self.n);
        debug_assert_eq!(self.d.max(1), self.d);
        let mut j = lo;
        while j < hi_total {
            let pstart = j / self.b * self.b;
            let bw = self.b.min(self.n - pstart);
            let hi = (pstart + bw).min(hi_total);
            let panel = &self.data[pstart * self.d..(pstart + bw) * self.d];
            f(panel, bw, j - pstart, &mut out[j - lo..hi - lo]);
            j = hi;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vector::{dot, sq_dist};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_flat(n: usize, d: usize, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n * d).map(|_| rng.gen_range(-5.0..5.0)).collect()
    }

    #[test]
    fn tile_cols_is_stripe_aligned_and_bounded() {
        for d in [1, 2, 4, 7, 8, 16, 32, 48, 100, 128, 500, 4096] {
            let b = tile_cols(d);
            assert_eq!(b % STRIPE, 0, "d={d}");
            assert!((STRIPE..=MAX_TILE_COLS).contains(&b), "d={d} b={b}");
            // The panel respects its byte budget whenever the clamp allows.
            if b > STRIPE {
                assert!(b * d * 8 <= TILE_BYTES, "d={d} b={b}");
            }
        }
    }

    #[test]
    fn panel_sq_dist_bit_identical_to_scalar() {
        // Sizes straddling stripe and panel boundaries, including awkward d.
        for (n, d, seed) in [(1, 3, 1), (15, 4, 2), (16, 8, 3), (47, 7, 4), (300, 130, 5)] {
            let flat = random_flat(n, d, seed);
            let packed = PackedPanels::pack(d, &flat);
            let row = random_flat(1, d, seed + 100);
            for lo in [0, n / 3, n.saturating_sub(1)] {
                let mut out = vec![0.0; n - lo];
                packed.sq_dist_row(&row, lo, &mut out);
                for (c, &got) in out.iter().enumerate() {
                    let j = lo + c;
                    let want = sq_dist(&row, &flat[j * d..(j + 1) * d]);
                    assert_eq!(got.to_bits(), want.to_bits(), "n={n} d={d} lo={lo} j={j}");
                }
            }
        }
    }

    #[test]
    fn panel_dot_bit_identical_to_scalar() {
        for (n, d, seed) in [(2, 1, 6), (33, 5, 7), (64, 16, 8), (129, 48, 9)] {
            let flat = random_flat(n, d, seed);
            let packed = PackedPanels::pack(d, &flat);
            let row = random_flat(1, d, seed + 100);
            for lo in [0, 1, n / 2] {
                let mut out = vec![0.0; n - lo];
                packed.dot_row(&row, lo, &mut out);
                for (c, &got) in out.iter().enumerate() {
                    let j = lo + c;
                    let want = dot(&row, &flat[j * d..(j + 1) * d]);
                    assert_eq!(got.to_bits(), want.to_bits(), "n={n} d={d} lo={lo} j={j}");
                }
            }
        }
    }

    #[test]
    fn partial_range_fills_respect_out_len() {
        // Bounded output slices, including ranges that start and stop
        // mid-panel and ranges that straddle a panel boundary.
        for (n, d, seed) in [(300, 130, 20), (500, 4, 21), (40, 9, 22)] {
            let flat = random_flat(n, d, seed);
            let packed = PackedPanels::pack(d, &flat);
            let b = tile_cols(d);
            let row = random_flat(1, d, seed + 100);
            let ranges = [
                (0, 5.min(n)),
                ((b / 2).min(n - 1), (b / 2 + b).min(n)),
                (b.min(n - 1), n),
                (n / 3, (n / 3 + 7).min(n)),
            ];
            for (lo, hi) in ranges {
                debug_assert!(lo < hi, "n={n} d={d} lo={lo} hi={hi}");
                let mut out = vec![0.0; hi - lo];
                packed.sq_dist_row(&row, lo, &mut out);
                for (c, &got) in out.iter().enumerate() {
                    let j = lo + c;
                    let want = sq_dist(&row, &flat[j * d..(j + 1) * d]);
                    assert_eq!(got.to_bits(), want.to_bits(), "n={n} d={d} lo={lo} hi={hi} j={j}");
                }
            }
        }
    }

    #[test]
    fn pack_rows_matches_pack_of_flattened() {
        let rows: Vec<Vec<f64>> = (0..9)
            .map(|i| (0..6).map(|t| (i * 6 + t) as f64).collect())
            .collect();
        let packed = PackedPanels::pack_rows(6, &rows);
        let row = vec![1.0; 6];
        let mut out = vec![0.0; 9];
        packed.sq_dist_row(&row, 0, &mut out);
        for (j, r) in rows.iter().enumerate() {
            assert_eq!(out[j], sq_dist(&row, r));
        }
    }
}
