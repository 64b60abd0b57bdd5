//! Golden-output regression: canonical-labelled solutions serialised to
//! `tests/golden/<family>.json`.
//!
//! Every family's output on every supported scenario is canonicalised
//! (labels renumbered by first appearance, `-1` for noise) and compared
//! **byte-for-byte** against the checked-in fixture. Because every
//! algorithm in the workspace is deterministic and thread-invariant, the
//! fixtures are identical on any machine, at any `MULTICLUST_THREADS`,
//! with telemetry on or off — any diff is a behaviour change that needs a
//! deliberate re-blessing (`MULTICLUST_BLESS=1`) and a review of why.

use std::fs;
use std::path::Path;

use serde::Value;

use crate::families::{AlgorithmFamily, FitInput};
use crate::scenario::Scenario;

/// One family × scenario fixture entry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GoldenRecord {
    /// Family name.
    pub family: String,
    /// Scenario name.
    pub scenario: String,
    /// Seed the solutions were produced under.
    pub seed: u64,
    /// Canonicalised labels per solution; `-1` encodes noise.
    pub solutions: Vec<Vec<i64>>,
}

/// Result of comparing one family against its fixture file.
#[derive(Clone, Debug)]
pub struct GoldenOutcome {
    /// Family name.
    pub family: String,
    /// `None` when the fixture matches (or was just blessed).
    pub mismatch: Option<String>,
    /// `true` when the fixture file was (re)written.
    pub blessed: bool,
}

/// Computes the canonical golden records of one family over the scenarios.
pub fn records_for(
    family: &dyn AlgorithmFamily,
    scenarios: &[Scenario],
    seed: u64,
) -> Vec<GoldenRecord> {
    scenarios
        .iter()
        .filter(|s| family.supports(s))
        .map(|s| {
            let solutions = family
                .fit(&FitInput::of(s, seed))
                .iter()
                .map(|c| {
                    c.canonicalized()
                        .assignments()
                        .iter()
                        .map(|a| a.map_or(-1, |l| l as i64))
                        .collect()
                })
                .collect();
            GoldenRecord {
                family: family.name().to_string(),
                scenario: s.name.to_string(),
                seed,
                solutions,
            }
        })
        .collect()
}

/// Renders records to the exact byte content of a fixture file: a pretty
/// JSON array of `{family, scenario, seed, solutions}` objects.
pub fn render(records: &[GoldenRecord]) -> String {
    let ints = |xs: &[i64]| Value::Array(xs.iter().map(|&x| Value::Int(x)).collect());
    let value = Value::Array(
        records
            .iter()
            .map(|r| {
                Value::Object(vec![
                    ("family".into(), Value::String(r.family.clone())),
                    ("scenario".into(), Value::String(r.scenario.clone())),
                    ("seed".into(), Value::Int(r.seed as i64)),
                    (
                        "solutions".into(),
                        Value::Array(r.solutions.iter().map(|s| ints(s)).collect()),
                    ),
                ])
            })
            .collect(),
    );
    let mut out =
        serde_json::to_string_pretty(&value).expect("golden records serialise infallibly");
    out.push('\n');
    out
}

/// Checks (or blesses) one family against `<dir>/<family>.json`.
pub fn check_family(
    family: &dyn AlgorithmFamily,
    scenarios: &[Scenario],
    seed: u64,
    dir: &Path,
    bless: bool,
) -> GoldenOutcome {
    let expected = render(&records_for(family, scenarios, seed));
    let path = dir.join(format!("{}.json", family.name()));
    if bless {
        let write = fs::create_dir_all(dir)
            .and_then(|()| fs::write(&path, expected.as_bytes()));
        return GoldenOutcome {
            family: family.name().to_string(),
            mismatch: write.err().map(|e| format!("blessing {}: {e}", path.display())),
            blessed: true,
        };
    }
    let mismatch = match fs::read_to_string(&path) {
        Err(e) => Some(format!(
            "cannot read {} ({e}); run with MULTICLUST_BLESS=1 to create it",
            path.display()
        )),
        Ok(found) if found != expected => Some(first_diff(&found, &expected)),
        Ok(_) => None,
    };
    GoldenOutcome { family: family.name().to_string(), mismatch, blessed: false }
}

/// Human-oriented first point of divergence between fixture and run.
fn first_diff(found: &str, expected: &str) -> String {
    for (no, (f, e)) in found.lines().zip(expected.lines()).enumerate() {
        if f != e {
            return format!(
                "fixture diverges at line {}: fixture {f:?} vs run {e:?}",
                no + 1
            );
        }
    }
    format!(
        "fixture has {} lines, run produced {}",
        found.lines().count(),
        expected.lines().count()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::families::KMeansFamily;
    use crate::scenario;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("multiclust-golden-{name}"));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("temp dir");
        dir
    }

    #[test]
    fn bless_then_check_roundtrips() {
        let dir = tmp("roundtrip");
        let scenarios = vec![scenario::four_blobs(5)];
        let fam = KMeansFamily;
        let blessed = check_family(&fam, &scenarios, 1, &dir, true);
        assert!(blessed.mismatch.is_none(), "{:?}", blessed.mismatch);
        let checked = check_family(&fam, &scenarios, 1, &dir, false);
        assert!(checked.mismatch.is_none(), "{:?}", checked.mismatch);
    }

    #[test]
    fn corrupted_fixture_is_reported_with_line() {
        let dir = tmp("corrupt");
        let scenarios = vec![scenario::four_blobs(5)];
        let fam = KMeansFamily;
        check_family(&fam, &scenarios, 1, &dir, true);
        let path = dir.join("kmeans.json");
        let text = fs::read_to_string(&path).unwrap().replace("\"seed\": 1", "\"seed\": 2");
        fs::write(&path, text).unwrap();
        let checked = check_family(&fam, &scenarios, 1, &dir, false);
        let msg = checked.mismatch.expect("corruption must be detected");
        assert!(msg.contains("line"), "{msg}");
    }

    #[test]
    fn missing_fixture_points_at_bless_mode() {
        let dir = tmp("missing");
        let out = check_family(&KMeansFamily, &[scenario::four_blobs(5)], 1, &dir, false);
        assert!(out.mismatch.expect("missing file").contains("MULTICLUST_BLESS"));
    }

    #[test]
    fn render_writes_fields_in_fixture_order() {
        let rec = GoldenRecord {
            family: "f".into(),
            scenario: "s".into(),
            seed: 3,
            solutions: vec![vec![0, -1]],
        };
        assert_eq!(
            render(&[rec]),
            "[\n  {\n    \"family\": \"f\",\n    \"scenario\": \"s\",\n    \"seed\": 3,\n    \
             \"solutions\": [\n      [\n        0,\n        -1\n      ]\n    ]\n  }\n]\n"
        );
    }
}
