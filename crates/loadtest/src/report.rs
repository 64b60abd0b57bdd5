//! The `multiclust-loadtest-report/v1` verdict document.
//!
//! One report carries both halves of a run: the deterministic aggregates
//! (op/family counts, error codes, quality, serve-equivalence, the
//! FNV-1a transcript digest, registry state) and the wall-clock half
//! (the `timing` and `alloc` sections). The `--canonical` rendering
//! nulls the wall-clock half and redacts latency measurements from the
//! judged expectations, leaving bytes that are identical across thread
//! counts — the replay gate `cmp`s two such renderings directly.

use serde::Value;

use crate::driver::RunRecord;
use crate::judge::Judged;
use crate::spec::{self, Expectation};

/// Schema tag every report carries.
pub const REPORT_SCHEMA: &str = "multiclust-loadtest-report/v1";

/// Placeholder the canonical rendering substitutes for wall-clock
/// measurements inside judged expectations.
pub const REDACTED: &str = "(wall-clock redacted in canonical rendering)";

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn int(n: u64) -> Value {
    Value::Int(n as i64)
}

fn counts(map: &std::collections::BTreeMap<String, u64>) -> Value {
    Value::Object(map.iter().map(|(k, v)| (k.clone(), int(*v))).collect())
}

/// Assembles the report document. `canonical` nulls the wall-clock
/// sections (`timing`, `alloc`) and redacts wall-clock expectation
/// measurements, keeping every remaining byte a pure function of the
/// scenario — that is the form the cross-thread replay gate compares.
pub fn build(record: &RunRecord, judged: &[Judged], canonical: bool) -> Value {
    let timing = if canonical {
        Value::Null
    } else {
        let latency = Value::Object(
            record
                .latency
                .iter()
                .map(|(op, s)| {
                    (
                        op.clone(),
                        obj(vec![
                            ("count", int(s.count)),
                            ("p50", int(s.p50())),
                            ("p90", int(s.p90())),
                            ("p99", int(s.p99())),
                            ("max", int(s.max)),
                        ]),
                    )
                })
                .collect(),
        );
        obj(vec![
            ("wall_ms", int(record.wall_ms)),
            ("threads", int(record.threads as u64)),
            ("latency_us", latency),
        ])
    };
    let alloc = match record.alloc_peak {
        Some(peak) if !canonical => obj(vec![("peak", int(peak))]),
        _ => Value::Null,
    };
    let quality = Value::Object(
        record
            .quality
            .iter()
            .map(|(family, (ari, nmi))| {
                (
                    family.clone(),
                    obj(vec![("ari", Value::Float(*ari)), ("nmi", Value::Float(*nmi))]),
                )
            })
            .collect(),
    );
    let expectations = judged
        .iter()
        .map(|j| {
            let wall_clock = matches!(
                j.expectation,
                Expectation::Latency { .. } | Expectation::AllocPeak { .. }
            );
            let measured = if canonical && wall_clock {
                REDACTED.to_string()
            } else {
                j.measured.clone()
            };
            let Value::Object(mut fields) = spec::expectation_value(&j.expectation) else {
                unreachable!("expectation_value returns an object");
            };
            fields.push(("measured".to_string(), Value::String(measured)));
            fields.push(("pass".to_string(), Value::Bool(j.pass)));
            Value::Object(fields)
        })
        .collect();
    let pass = judged.iter().all(|j| j.pass);
    obj(vec![
        ("schema", Value::String(REPORT_SCHEMA.to_string())),
        ("scenario", Value::String(record.scenario.clone())),
        ("seed", int(record.seed)),
        ("boot", Value::String(record.boot.to_string())),
        (
            "inject",
            record.inject.map_or(Value::Null, |f| Value::String(f.to_string())),
        ),
        (
            "requests",
            obj(vec![
                ("planned", int(record.planned)),
                ("responded", int(record.responded)),
                ("by_op", counts(&record.by_op)),
                ("by_family", counts(&record.by_family)),
            ]),
        ),
        (
            "errors",
            obj(vec![
                ("total", int(record.errors_by_code.values().sum())),
                ("by_code", counts(&record.errors_by_code)),
                (
                    "samples",
                    Value::Array(
                        record
                            .error_samples
                            .iter()
                            .map(|(code, id)| {
                                obj(vec![
                                    ("code", Value::String(code.clone())),
                                    ("request_id", Value::String(id.clone())),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
        ),
        (
            "chaos",
            obj(vec![("slowed", int(record.chaos_slowed)), ("dropped", int(record.chaos_dropped))]),
        ),
        (
            "registry",
            obj(vec![
                ("models", int(record.registry_models)),
                ("evictions", int(record.registry_evictions)),
                ("capacity", int(record.capacity)),
            ]),
        ),
        ("quality", quality),
        (
            "serve_equivalence",
            obj(vec![
                ("checked", int(record.serve_checked)),
                ("mismatches", int(record.serve_mismatches)),
            ]),
        ),
        ("events_dropped", int(record.events_dropped)),
        (
            "transcript_digest",
            Value::String(format!("fnv1a:{:016x}", record.digest)),
        ),
        ("timing", timing),
        ("alloc", alloc),
        // The dump path is machine-specific (pid, temp dir), so the
        // canonical rendering nulls it like the other wall-clock fields.
        (
            "flight_dump",
            match &record.flight_dump {
                Some(path) if !canonical => Value::String(path.clone()),
                _ => Value::Null,
            },
        ),
        ("expectations", Value::Array(expectations)),
        (
            "verdict",
            Value::String(if pass { "PASS" } else { "FAIL" }.to_string()),
        ),
    ])
}

/// Pretty JSON rendering with a trailing newline (golden files are
/// byte-compared, so the rendering is part of the contract).
pub fn render(report: &Value) -> String {
    let mut s = serde_json::to_string_pretty(report).unwrap_or_default();
    s.push('\n');
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::judge::tests::{clean, expectations};
    use crate::judge::judge;

    #[test]
    fn canonical_rendering_nulls_the_wall_clock_half() {
        let r = clean();
        let j = judge(&expectations(), &r);
        let text = render(&build(&r, &j, true));
        assert!(text.contains("\"timing\": null"), "{text}");
        assert!(text.contains(REDACTED), "{text}");
        assert!(!text.contains("wall_ms"), "{text}");
        // The machine-specific dump path is nulled too.
        assert!(text.contains("\"flight_dump\": null"), "{text}");
        assert!(!text.contains("multiclust-flight-1-serve"), "{text}");
        // The full rendering keeps both.
        let full = render(&build(&r, &j, false));
        assert!(full.contains("wall_ms") && full.contains("multiclust-flight-1-serve"), "{full}");
    }
}
