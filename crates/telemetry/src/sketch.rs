//! Mergeable log-bucketed quantile sketches.
//!
//! A [`Sketch`] is a fixed-size histogram over `u64` samples whose bucket
//! boundaries grow geometrically: each power-of-two octave is split into
//! [`SUBBUCKETS`] equal-width sub-buckets, so every bucket's width is at
//! most `1/16` of its lower bound. That gives the two properties the
//! telemetry layer needs and a plain log₂ histogram lacks:
//!
//! * **bounded-error quantiles** — [`Sketch::quantile`] returns the upper
//!   bound of the bucket holding the requested rank, so the estimate `e`
//!   of a true quantile `t` satisfies `t ≤ e ≤ t·(1 + 1/16) + 1` (the
//!   `+1` absorbs integer rounding in the lowest octaves);
//! * **lossless merging** — [`Sketch::merge`] adds bucket counts
//!   pointwise, so a sketch merged from per-thread (or per-request)
//!   shards is *identical* to the sketch of the pooled stream.
//!
//! The bucket array is allocated once ([`SKETCH_BUCKETS`] entries) and
//! never grows; recording is O(1) with no allocation.

/// Sub-buckets per power-of-two octave. 16 ⇒ relative bucket width, and
/// therefore worst-case quantile overestimate, of 1/16 = 6.25%.
pub const SUBBUCKETS: usize = 16;

/// Total buckets: one zero bucket plus `SUBBUCKETS` per octave of `u64`.
pub const SKETCH_BUCKETS: usize = 1 + 64 * SUBBUCKETS;

/// A mergeable quantile sketch of `u64` samples (span durations in
/// nanoseconds, kernel batch sizes, request latencies).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Sketch {
    /// Number of recorded samples.
    pub count: u64,
    /// Sum of recorded samples (saturating).
    pub sum: u64,
    /// Smallest recorded sample (`u64::MAX` when empty).
    pub min: u64,
    /// Largest recorded sample (0 when empty). Tracked exactly, so
    /// `quantile` never reports above the observed maximum.
    pub max: u64,
    buckets: Vec<u64>,
}

impl Default for Sketch {
    fn default() -> Self {
        Self::new()
    }
}

/// Bucket index of a sample: 0 for zero, else one of `SUBBUCKETS` slots
/// inside the sample's power-of-two octave.
fn bucket_index(v: u64) -> usize {
    if v == 0 {
        return 0;
    }
    let octave = (63 - v.leading_zeros()) as usize;
    // floor(v·16 / 2^octave) − 16 ∈ [0, 16): the sub-bucket. Shift
    // direction depends on which side of 2^4 the octave sits.
    let sub = if octave >= 4 {
        ((v >> (octave - 4)) & 0xF) as usize
    } else {
        ((v << (4 - octave)) & 0xF) as usize
    };
    1 + octave * SUBBUCKETS + sub
}

/// Inclusive lower bound of bucket `i` (0 for the zero bucket).
pub fn bucket_lo(i: usize) -> u64 {
    if i == 0 {
        return 0;
    }
    let octave = (i - 1) / SUBBUCKETS;
    let sub = ((i - 1) % SUBBUCKETS) as u128;
    // ceil((16+sub)·2^octave / 16), in u128 to survive the top octaves.
    let num = (16 + sub) << octave;
    let lo = num.div_ceil(16);
    u64::try_from(lo).unwrap_or(u64::MAX)
}

/// Inclusive upper bound of bucket `i`.
fn bucket_hi(i: usize) -> u64 {
    if i == 0 {
        return 0;
    }
    let octave = (i - 1) / SUBBUCKETS;
    let sub = ((i - 1) % SUBBUCKETS) as u128;
    // ceil((17+sub)·2^octave / 16) − 1: the largest integer strictly
    // below the next bucket's lower bound.
    let num = (17 + sub) << octave;
    let hi = num.div_ceil(16) - 1;
    u64::try_from(hi).unwrap_or(u64::MAX)
}

impl Sketch {
    /// An empty sketch.
    pub fn new() -> Self {
        Self { count: 0, sum: 0, min: u64::MAX, max: 0, buckets: vec![0; SKETCH_BUCKETS] }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.buckets[bucket_index(value)] += 1;
    }

    /// Adds `other`'s samples to `self`, bucket-wise. The result is
    /// identical to a sketch that recorded both streams directly.
    pub fn merge(&mut self, other: &Sketch) {
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (b, o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b += o;
        }
    }

    /// Mean of the recorded samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The `q`-quantile (`q ∈ [0, 1]`) as the upper bound of the bucket
    /// holding that rank, clamped to the exact observed maximum. Returns
    /// 0 on an empty sketch. The true quantile `t` satisfies
    /// `t ≤ quantile(q) ≤ t·(1 + 1/16) + 1`.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_hi(i).min(self.max).max(self.min);
            }
        }
        self.max
    }

    /// Median (p50).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th percentile.
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Occupied buckets as `(inclusive_lo, count)` pairs, sparse.
    pub fn occupied(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (bucket_lo(i), c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_partition_the_integers() {
        // Every sample lands in a bucket whose [lo, hi] range contains it.
        for v in [0u64, 1, 2, 3, 15, 16, 17, 31, 32, 1000, u64::MAX / 3, u64::MAX] {
            let i = bucket_index(v);
            assert!(bucket_lo(i) <= v, "lo({i}) > {v}");
            assert!(v <= bucket_hi(i), "hi({i}) < {v}");
        }
        // Consecutive buckets tile without gap or overlap (spot octaves).
        for i in 1..SKETCH_BUCKETS - 1 {
            if bucket_hi(i) < u64::MAX {
                assert!(bucket_hi(i) < bucket_lo(i + 1) || bucket_lo(i + 1) <= bucket_lo(i));
            }
        }
    }

    #[test]
    fn quantiles_bound_the_true_value() {
        let mut s = Sketch::new();
        let vals: Vec<u64> = (1..=1000).collect();
        for &v in &vals {
            s.record(v);
        }
        for (q, idx) in [(0.5, 499), (0.9, 899), (0.99, 989)] {
            let truth = vals[idx];
            let est = s.quantile(q);
            assert!(est >= truth, "q={q}: {est} < {truth}");
            assert!(est <= truth + truth / 16 + 1, "q={q}: {est} too far above {truth}");
        }
        assert_eq!(s.quantile(1.0), 1000);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 1000);
    }

    #[test]
    fn merge_equals_pooled_recording() {
        let mut a = Sketch::new();
        let mut b = Sketch::new();
        let mut pooled = Sketch::new();
        for v in [0u64, 1, 7, 63, 64, 65, 4096, 123_456_789] {
            a.record(v);
            pooled.record(v);
        }
        for v in [2u64, 3, 99, 100_000, u64::MAX / 7] {
            b.record(v);
            pooled.record(v);
        }
        a.merge(&b);
        assert_eq!(a, pooled);
    }

    #[test]
    fn empty_sketch_is_inert() {
        let s = Sketch::new();
        assert_eq!(s.quantile(0.5), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.occupied().count(), 0);
    }
}
