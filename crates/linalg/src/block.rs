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
//! **bit-identical** to [`crate::vector::sq_dist`] on the same pair.
//!
//! There is one kernel source, a loop over fixed-width stripe windows that
//! the autovectorizer handles on any target. On x86-64 the same source is
//! also compiled with AVX2 enabled and picked at run time by
//! `is_x86_feature_detected!`; that call is the crate's one `unsafe` block.
//! AVX2 adds no FMA, which single-rounds the multiply-add and would change
//! bits relative to the scalar kernel.

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
// The stripe kernel
// ---------------------------------------------------------------------

/// Per column `c`: `out[c] = Σ_t (row[t] − panel[t·width + lo + c])²`, each
/// column accumulating in ascending `t` — bit-identical to the scalar
/// kernel. A full stripe keeps its [`STRIPE`] sums in one fixed-size
/// window, which the autovectorizer holds in registers across the depth
/// loop; the tail columns run the same per-lane order on a shorter window.
/// `sub`/`mul`/`add` only: Rust never contracts them to FMA, which would
/// single-round the multiply-add and change bits. Always inlined, so the
/// AVX2 wrapper below compiles the loop itself instead of calling the
/// baseline build.
#[inline(always)]
fn sq_dist_range_portable(row: &[f64], panel: &[f64], width: usize, lo: usize, out: &mut [f64]) {
    debug_assert!(lo + out.len() <= width);
    debug_assert!(panel.len() >= row.len() * width);
    let mut stripes = out.chunks_exact_mut(STRIPE);
    let mut c = lo;
    for o in &mut stripes {
        let mut acc = [0.0f64; STRIPE];
        for (&x, depth) in row.iter().zip(panel.chunks_exact(width)) {
            let p: &[f64; STRIPE] = depth[c..c + STRIPE].try_into().expect("one stripe");
            for (a, &pv) in acc.iter_mut().zip(p) {
                let dd = x - pv;
                *a += dd * dd;
            }
        }
        o.copy_from_slice(&acc);
        c += STRIPE;
    }
    let tail = stripes.into_remainder();
    let r = tail.len();
    let mut acc = [0.0f64; STRIPE];
    let acc = &mut acc[..r];
    for (&x, depth) in row.iter().zip(panel.chunks_exact(width)) {
        for (a, &pv) in acc.iter_mut().zip(&depth[c..c + r]) {
            let dd = x - pv;
            *a += dd * dd;
        }
    }
    tail.copy_from_slice(acc);
}

/// The stripe kernel compiled with AVX2 enabled, so each stripe's window
/// lives in four 256-bit registers. Enabling AVX2 alone adds no FMA, so
/// the bits equal the baseline build's.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn sq_dist_range_avx2(row: &[f64], panel: &[f64], width: usize, lo: usize, out: &mut [f64]) {
    sq_dist_range_portable(row, panel, width, lo, out);
}

#[inline]
fn sq_dist_range(row: &[f64], panel: &[f64], width: usize, lo: usize, out: &mut [f64]) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: the running CPU supports AVX2, checked just above.
        #[allow(unsafe_code)]
        unsafe {
            sq_dist_range_avx2(row, panel, width, lo, out)
        };
        return;
    }
    sq_dist_range_portable(row, panel, width, lo, out);
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
        self.row_with(sq_dist_range, row, lo, out);
    }

    /// Runs `kernel` over each panel that columns `lo .. lo + out.len()`
    /// touch, with that panel's width and the segment's first column.
    #[inline]
    fn row_with(
        &self,
        kernel: impl Fn(&[f64], &[f64], usize, usize, &mut [f64]),
        row: &[f64],
        lo: usize,
        out: &mut [f64],
    ) {
        let hi_total = lo + out.len();
        debug_assert!(hi_total <= self.n);
        let mut j = lo;
        while j < hi_total {
            let pstart = j / self.b * self.b;
            let bw = self.b.min(self.n - pstart);
            let hi = (pstart + bw).min(hi_total);
            let panel = &self.data[pstart * self.d..(pstart + bw) * self.d];
            kernel(row, panel, bw, j - pstart, &mut out[j - lo..hi - lo]);
            j = hi;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vector::sq_dist;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_flat(n: usize, d: usize, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n * d).map(|_| rng.gen_range(-5.0..5.0)).collect()
    }

    /// `len` columns from `lo` through the dispatched kernel (the AVX2 build
    /// on an AVX2 machine) and through the baseline build of the same loop,
    /// which the dispatch would otherwise never run there.
    fn both_kernels(
        packed: &PackedPanels,
        row: &[f64],
        lo: usize,
        len: usize,
    ) -> [(Vec<f64>, &'static str); 2] {
        let mut dispatched = vec![0.0; len];
        packed.sq_dist_row(row, lo, &mut dispatched);
        let mut portable = vec![0.0; len];
        packed.row_with(sq_dist_range_portable, row, lo, &mut portable);
        [(dispatched, "dispatched"), (portable, "portable")]
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
                for (out, kernel) in both_kernels(&packed, &row, lo, n - lo) {
                    for (c, &got) in out.iter().enumerate() {
                        let j = lo + c;
                        let want = sq_dist(&row, &flat[j * d..(j + 1) * d]);
                        assert_eq!(
                            got.to_bits(),
                            want.to_bits(),
                            "{kernel}: n={n} d={d} lo={lo} j={j}"
                        );
                    }
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
                for (out, kernel) in both_kernels(&packed, &row, lo, hi - lo) {
                    for (c, &got) in out.iter().enumerate() {
                        let j = lo + c;
                        let want = sq_dist(&row, &flat[j * d..(j + 1) * d]);
                        assert_eq!(
                            got.to_bits(),
                            want.to_bits(),
                            "{kernel}: n={n} d={d} lo={lo} hi={hi} j={j}"
                        );
                    }
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
