//! Work accounting of the packs behind `NearestAssign::assign_packed`: a
//! fit's points are packed once, on the first pass that reads them, and
//! only a warm, non-bypassed pass packs the centres, so each pack charges
//! its bytes to `kernels.bytes_touched` exactly once.
//!
//! The counters are process-global, so this file holds a single test: its
//! binary runs nothing else that could charge them concurrently.

use multiclust_linalg::block::STRIPE;
use multiclust_linalg::kernels::{self, KernelMode, NearestAssign, PackedPoints};

fn bytes_touched() -> u64 {
    multiclust_telemetry::snapshot()
        .counters
        .get("kernels.bytes_touched")
        .copied()
        .unwrap_or(0)
}

#[test]
fn points_pack_once_and_only_warm_passes_pack_centres() {
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
    let points = PackedPoints::new(d, &flat);
    let mut assigner = NearestAssign::new(n);
    let mut pass = |centers: &[Vec<f64>]| {
        let before = bytes_touched();
        let stats = assigner.assign_packed(&points, centers);
        let distances = 16 * d as u64 * stats.exact;
        (stats, bytes_touched() - before - distances)
    };
    let point_pack = 16 * (n * d) as u64;
    let centre_pack = 16 * (k * d) as u64;

    let (stats, extra) = pass(&centers);
    assert_eq!(stats.scanned, n as u64, "cold pass scans every point: {stats:?}");
    assert_eq!(extra, point_pack, "cold pass packs the points only");

    // A drift of 90 against a half-separation of 50: the pretest predicts
    // no skips, so the pass bypasses the bounds. Its sweep reads the
    // points packed by the cold pass.
    let moved: Vec<Vec<f64>> =
        centers.iter().map(|c| c.iter().map(|x| x + 45.0).collect()).collect();
    let (stats, extra) = pass(&moved);
    assert_eq!(stats.bypass, 1, "{stats:?}");
    assert_eq!(extra, 0, "bypassed pass packs nothing");

    // Stationary centres: a warm Hamerly pass, which does pack the centres.
    let (stats, extra) = pass(&moved);
    assert_eq!((stats.bypass, stats.skipped), (0, n as u64), "{stats:?}");
    assert_eq!(extra, centre_pack, "warm pass packs the centres only");

    // A fresh `PackedPoints` over the same rows packs them again, once.
    let again = PackedPoints::new(d, &flat);
    let before = bytes_touched();
    let stats = NearestAssign::new(n).assign_packed(&again, &moved);
    let extra = bytes_touched() - before - 16 * d as u64 * stats.exact;
    assert_eq!(extra, point_pack, "a new value packs its points");
}
