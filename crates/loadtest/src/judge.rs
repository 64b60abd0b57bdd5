//! The judged-expectations layer: rules each scenario expectation
//! against a finished run's [`RunRecord`].
//!
//! The judge never looks at the live server, only at the record. The
//! doctored-record self-test leans on that: corrupt the record, re-judge,
//! and the verdict must flip.

use crate::driver::RunRecord;
use crate::spec::Expectation;

/// One expectation's ruling: what was measured, and whether it passed.
#[derive(Clone, Debug, PartialEq)]
pub struct Judged {
    /// The expectation as written in the scenario.
    pub expectation: Expectation,
    /// Human-readable measured value (wall-clock-dependent for latency,
    /// deterministic for everything else).
    pub measured: String,
    /// Whether the run satisfied the expectation.
    pub pass: bool,
}

/// Rules on every expectation in scenario order.
pub fn judge(expectations: &[Expectation], record: &RunRecord) -> Vec<Judged> {
    expectations
        .iter()
        .map(|e| {
            let (measured, pass) = rule(e, record);
            Judged { expectation: e.clone(), measured, pass }
        })
        .collect()
}

/// `true` iff every expectation passed.
pub fn verdict(judged: &[Judged]) -> bool {
    judged.iter().all(|j| j.pass)
}

fn rule(e: &Expectation, m: &RunRecord) -> (String, bool) {
    match e {
        Expectation::Latency { op, quantile, max_ms } => match m.latency.get(op) {
            None => (format!("no {op} responses recorded"), false),
            Some(s) => {
                let us = match quantile.as_str() {
                    "p50" => s.p50(),
                    "p90" => s.p90(),
                    _ => s.p99(),
                };
                (
                    format!(
                        "{op} {quantile} = {:.3} ms over {} responses (ceiling {max_ms} ms)",
                        us as f64 / 1000.0,
                        s.count
                    ),
                    us <= max_ms * 1000,
                )
            }
        },
        Expectation::ErrorRate { max } => {
            let errors: u64 = m.errors_by_code.values().sum();
            let rate = errors as f64 / (m.planned.max(1)) as f64;
            (
                format!("{errors} errors / {} planned = {rate:.4} (max {max})", m.planned),
                rate <= *max,
            )
        }
        Expectation::ErrorBudget { code, max } => {
            let n = m.errors_by_code.get(code).copied().unwrap_or(0);
            (format!("{n} × {code} (budget {max})"), n <= *max)
        }
        Expectation::MinErrors { code, min } => {
            let n = m.errors_by_code.get(code).copied().unwrap_or(0);
            (format!("{n} × {code} (required ≥ {min})"), n >= *min)
        }
        Expectation::QualityFloor { family, measure, floor } => match m.quality.get(family) {
            None => (format!("family {family:?} served no fits"), false),
            Some((ari, nmi)) => {
                let value = if measure == "ari" { *ari } else { *nmi };
                (format!("{family} best {measure} = {value:.4} (floor {floor})"), value >= *floor)
            }
        },
        Expectation::EventsDropped { max } => (
            format!("{} telemetry events dropped (max {max})", m.events_dropped),
            m.events_dropped <= *max,
        ),
        Expectation::ServeEquivalence => (
            format!(
                "{} served fits checked against the in-process reference, {} mismatched",
                m.serve_checked, m.serve_mismatches
            ),
            m.serve_checked > 0 && m.serve_mismatches == 0,
        ),
        Expectation::ChaosFired { slowed, dropped } => (
            format!(
                "chaos slowed {} / dropped {} workload ops (expected exactly {slowed}/{dropped})",
                m.chaos_slowed, m.chaos_dropped
            ),
            m.chaos_slowed == *slowed && m.chaos_dropped == *dropped,
        ),
        Expectation::AllocPeak { max_bytes } => match m.alloc_peak {
            None => ("alloc accounting off (MULTICLUST_ALLOC=1 to enforce) — skipped".to_string(), true),
            Some(peak) => (format!("peak {peak} bytes (ceiling {max_bytes})"), peak <= *max_bytes),
        },
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use multiclust_telemetry::Sketch;
    use std::collections::BTreeMap;

    /// Corrupts a record the way a dishonest one would: latency three
    /// orders of magnitude up, quality floored, phantom internal errors,
    /// dropped telemetry, a serve mismatch and chaos counters that do not
    /// match the plan. A judge worth its name must fail a scenario on
    /// each of these.
    fn doctor(m: &mut RunRecord) {
        for s in m.latency.values_mut() {
            let slow = s.max.saturating_mul(1000).max(1_000_000);
            *s = Sketch::default();
            s.record(slow);
        }
        for q in m.quality.values_mut() {
            *q = (0.0, 0.0);
        }
        m.events_dropped += 7;
        *m.errors_by_code.entry("internal".to_string()).or_insert(0) += 13;
        if m.serve_checked == 0 {
            m.serve_checked = 1;
        }
        m.serve_mismatches += 1;
        m.chaos_slowed = m.chaos_slowed.wrapping_add(3);
        m.chaos_dropped = m.chaos_dropped.wrapping_add(5);
    }

    /// A clean three-fit run that meets every expectation below.
    pub(crate) fn clean() -> RunRecord {
        let mut fit = Sketch::default();
        for us in [800, 900, 1_000] {
            fit.record(us);
        }
        RunRecord {
            scenario: "unit".to_string(),
            seed: 5,
            boot: "in-process",
            inject: None,
            planned: 3,
            responded: 3,
            by_op: BTreeMap::from([("fit".to_string(), 3)]),
            by_family: BTreeMap::from([("kmeans".to_string(), 3)]),
            errors_by_code: BTreeMap::new(),
            error_samples: Vec::new(),
            flight_dump: Some("flight/multiclust-flight-1-serve.jsonl".to_string()),
            chaos_slowed: 0,
            chaos_dropped: 0,
            registry_models: 3,
            registry_evictions: 0,
            capacity: 8,
            quality: BTreeMap::from([("kmeans".to_string(), (0.97, 0.95))]),
            serve_checked: 3,
            serve_mismatches: 0,
            events_dropped: 0,
            alloc_peak: None,
            digest: 0xdead_beef,
            latency: BTreeMap::from([("fit".to_string(), fit)]),
            wall_ms: 12,
            threads: 2,
        }
    }

    pub(crate) fn expectations() -> Vec<Expectation> {
        vec![
            Expectation::Latency {
                op: "fit".to_string(),
                quantile: "p99".to_string(),
                max_ms: 50,
            },
            Expectation::ErrorRate { max: 0.0 },
            Expectation::QualityFloor {
                family: "kmeans".to_string(),
                measure: "ari".to_string(),
                floor: 0.8,
            },
            Expectation::EventsDropped { max: 0 },
            Expectation::ServeEquivalence,
            Expectation::ChaosFired { slowed: 0, dropped: 0 },
            Expectation::AllocPeak { max_bytes: 1 << 30 },
        ]
    }

    #[test]
    fn clean_run_passes_every_expectation() {
        let judged = judge(&expectations(), &clean());
        assert!(verdict(&judged), "{judged:?}");
        // Alloc accounting off is a skip, not a silent gap.
        assert!(judged.last().unwrap().measured.contains("skipped"));
    }

    #[test]
    fn doctored_summary_fails_the_same_expectations() {
        let mut m = clean();
        doctor(&mut m);
        let judged = judge(&expectations(), &m);
        assert!(!verdict(&judged));
        // Every expectation that reads a number must flip.
        let fails: Vec<&str> =
            judged.iter().filter(|j| !j.pass).map(|j| j.expectation.kind()).collect();
        for kind in [
            "latency",
            "error-rate",
            "quality-floor",
            "events-dropped",
            "serve-equivalence",
            "chaos-fired",
        ] {
            assert!(fails.contains(&kind), "{kind} should fail: {fails:?}");
        }
    }

    #[test]
    fn missing_family_fails_its_floor() {
        let mut m = clean();
        m.quality.clear();
        let judged = judge(&expectations(), &m);
        let floor = judged.iter().find(|j| j.expectation.kind() == "quality-floor").unwrap();
        assert!(!floor.pass);
    }
}
