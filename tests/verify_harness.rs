//! End-to-end verification-harness suite: the full family × scenario ×
//! invariant matrix must come back green, every injected fault must be
//! caught by exactly its targeted invariant, and the golden fixtures in
//! `tests/golden/` must match the current behaviour bit-for-bit.

use std::path::PathBuf;

use multiclust::harness::{verify, Fault, VerifyOptions};

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// Whether this run should refresh fixtures instead of comparing.
fn blessing() -> bool {
    std::env::var("MULTICLUST_BLESS").is_ok_and(|v| v == "1")
}

#[test]
fn full_matrix_is_green_across_all_families() {
    let report = verify(&VerifyOptions::default()).expect("default options are valid");
    assert!(report.passed(), "harness violations:\n{}", report.render_text());

    // The acceptance criterion: all eight families, ≥ 10 distinct
    // invariants actually exercised, every scenario visited.
    assert_eq!(report.families.len(), 8, "{:?}", report.families);
    let mut invariants: Vec<&str> = report.outcomes.iter().map(|o| o.invariant).collect();
    invariants.sort_unstable();
    invariants.dedup();
    assert!(invariants.len() >= 10, "only {} invariants ran: {invariants:?}", invariants.len());
    let mut scenarios: Vec<&str> =
        report.outcomes.iter().map(|o| o.scenario.as_str()).collect();
    scenarios.sort_unstable();
    scenarios.dedup();
    assert!(scenarios.len() >= 6, "only {} scenarios ran: {scenarios:?}", scenarios.len());
}

#[test]
fn every_injected_fault_is_caught_by_its_target() {
    for &fault in Fault::all() {
        let report = verify(&VerifyOptions {
            family: Some("kmeans".to_string()),
            fault: Some(fault),
            ..VerifyOptions::default()
        })
        .expect("valid options");
        assert!(!report.passed(), "fault {} went undetected", fault.name());
        let violated = report.violated_invariants();
        assert!(
            violated.contains(&fault.targeted_invariant()),
            "fault {} should trip {}, but tripped {violated:?}",
            fault.name(),
            fault.targeted_invariant()
        );
        // The fault is surgical: nothing else may break.
        assert_eq!(
            violated,
            vec![fault.targeted_invariant()],
            "fault {} tripped unrelated invariants",
            fault.name()
        );
    }
}

#[test]
fn golden_fixtures_match_current_behaviour() {
    let report = verify(&VerifyOptions {
        golden_dir: Some(golden_dir()),
        bless: blessing(),
        ..VerifyOptions::default()
    })
    .expect("valid options");
    assert_eq!(report.golden.len(), 8, "one fixture per family");
    for g in &report.golden {
        assert!(
            g.mismatch.is_none(),
            "golden mismatch for {}: {}",
            g.family,
            g.mismatch.as_deref().unwrap_or("")
        );
    }
}
