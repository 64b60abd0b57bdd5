//! Work accounting of the centre pack in `NearestAssign::assign`: only a
//! warm, non-bypassed pass reads the packed centre panels, so only that
//! pass may charge their bytes to `kernels.bytes_touched`.
//!
//! The counters are process-global, so this file holds a single test: its
//! binary runs nothing else that could charge them concurrently.

use multiclust_linalg::block::STRIPE;
use multiclust_linalg::kernels::{self, KernelMode, NearestAssign};

fn bytes_touched() -> u64 {
    multiclust_telemetry::snapshot()
        .counters
        .get("kernels.bytes_touched")
        .copied()
        .unwrap_or(0)
}

#[test]
fn cold_and_bypassed_passes_pack_no_centres() {
    multiclust_telemetry::set_enabled(true);
    kernels::set_kernel_mode(Some(KernelMode::Blocked));
    // k = STRIPE centres 50 apart on every coordinate (the smallest count
    // that packs centre panels), eight tight points around each.
    let (d, k) = (4usize, STRIPE);
    let centers: Vec<Vec<f64>> = (0..k).map(|c| vec![50.0 * c as f64; d]).collect();
    let flat: Vec<f64> = centers
        .iter()
        .flat_map(|c| (0..8).flat_map(move |j| c.iter().map(move |x| x + 0.05 * j as f64 - 0.2)))
        .collect();
    let n = flat.len() / d;
    let norms = kernels::sq_norms(d, &flat);
    let mut assigner = NearestAssign::new(n);
    let mut pass = |centers: &[Vec<f64>]| {
        let before = bytes_touched();
        let stats = assigner.assign(d, &flat, &norms, centers);
        let distances = 16 * d as u64 * (stats.exact + stats.estimates);
        (stats, bytes_touched() - before - distances)
    };
    let point_pack = 16 * (n * d) as u64;
    let centre_pack = 16 * (k * d) as u64;

    let (stats, extra) = pass(&centers);
    assert_eq!(stats.scanned, n as u64, "cold pass scans every point: {stats:?}");
    assert_eq!(extra, point_pack, "cold pass packs the points only");

    // A drift of 90 against a half-separation of 50: the pretest predicts
    // no skips, so the pass bypasses the bounds.
    let moved: Vec<Vec<f64>> =
        centers.iter().map(|c| c.iter().map(|x| x + 45.0).collect()).collect();
    let (stats, extra) = pass(&moved);
    assert_eq!(stats.bypass, 1, "{stats:?}");
    assert_eq!(extra, point_pack, "bypassed pass packs the points only");

    // Stationary centres: a warm Hamerly pass, which does pack the centres.
    let (stats, extra) = pass(&moved);
    assert_eq!((stats.bypass, stats.skipped), (0, n as u64), "{stats:?}");
    assert_eq!(extra, centre_pack, "warm pass packs the centres only");
}
