//! Property test of the quantile sketch: reported quantiles must bound
//! the true quantile of the recorded stream within one bucket's relative
//! error (1/16, plus one integer step in the lowest octaves).

use multiclust_telemetry::Sketch;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A seeded sample stream spanning many octaves: zeros, small values,
/// and values up to the tens of billions.
fn stream(seed: u64, max_len: usize) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.gen_range(1..=max_len);
    (0..n)
        .map(|_| {
            let octave = rng.gen_range(0..36);
            let base = 1u64 << octave;
            rng.gen_range(0..base.saturating_mul(2).max(1))
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// A sketch's p50/p90/p99 bound the true quantile of the sorted
    /// stream from above, within one bucket's relative error:
    /// t ≤ estimate ≤ t·(1 + 1/16) + 1.
    #[test]
    fn quantiles_bound_the_stream(seed in 0u64..1_000_000) {
        let vals = stream(seed, 400);
        let mut s = Sketch::new();
        for &v in &vals {
            s.record(v);
        }
        let mut sorted = vals.clone();
        sorted.sort_unstable();
        for q in [0.5, 0.9, 0.99] {
            let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            let truth = sorted[rank - 1];
            let est = s.quantile(q);
            prop_assert!(est >= truth, "q={}: est {} < true {}", q, est, truth);
            prop_assert!(
                est <= truth + truth / 16 + 1,
                "q={}: est {} exceeds one-bucket bound above true {}",
                q, est, truth
            );
        }
        prop_assert_eq!(s.quantile(1.0), sorted[sorted.len() - 1]);
        prop_assert_eq!(s.min, sorted[0]);
        prop_assert_eq!(s.count, vals.len() as u64);
    }
}
