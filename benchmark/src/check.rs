//! Output checks. Every operation the benchmark times is checked too, and
//! each failed check counts once against `failed`.

use multiclust_core::measures::diss::adjusted_rand_index;
use multiclust_core::Clustering;
use serde::Value;

use crate::inputs::{Floor, Planted};

/// Operations attempted and failed, with the first few reasons.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub reasons: Vec<String>,
}

impl Tally {
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(reason) = outcome {
            self.failed += 1;
            if self.reasons.len() < 8 {
                self.reasons.push(reason);
            }
        }
    }

    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for r in other.reasons {
            if self.reasons.len() < 8 {
                self.reasons.push(r);
            }
        }
    }
}

/// Whether a fit's solutions clear the recovery floor on the planted data.
pub fn floor_met(floor: Floor, solutions: &[Clustering], p: &Planted) -> Result<(), String> {
    let n = p.data.len();
    if solutions.iter().any(|c| c.len() != n) {
        return Err(format!("a solution does not label all {n} objects"));
    }
    let best = |views: &[usize]| {
        solutions
            .iter()
            .flat_map(|c| {
                views
                    .iter()
                    .map(move |&v| adjusted_rand_index(c, &p.truths[v]))
            })
            .fold(f64::NEG_INFINITY, f64::max)
    };
    let (ari, min) = match floor {
        Floor::Membership if solutions.iter().any(|c| c.num_noise() == 0) => return Ok(()),
        Floor::Membership => return Err(format!("no membership partition over the {n} objects")),
        Floor::BestAri(min) => (best(&[0, 1]), min),
        Floor::DiffersFromGiven(max) => {
            let ari = best(&[0]);
            return if ari <= max {
                Ok(())
            } else {
                Err(format!("ARI {ari:.3} with the given view, above {max}"))
            };
        }
    };
    if ari >= min {
        Ok(())
    } else {
        Err(format!("ARI {ari:.3} below the floor {min}"))
    }
}

/// Flips the first label of the first solution: the `wrong-expected`
/// self-test, which must make the run fail.
pub fn corrupt(expected: &mut [Vec<Option<usize>>]) {
    if let Some(first) = expected.first_mut().and_then(|s| s.first_mut()) {
        *first = Some(first.map_or(0, |l| l + 1));
    }
}

/// Parses a response line and checks its envelope: `ok:true`, the echoed
/// request id and the op. Returns the object's fields.
pub fn envelope(line: &str, id: &str, op: &str) -> Result<Vec<(String, Value)>, String> {
    let Ok(Value::Object(fields)) = serde_json::parse_value(line) else {
        return Err(format!("{op} {id}: response is not a JSON object"));
    };
    let get = |k: &str| fields.iter().find(|(key, _)| key == k).map(|(_, v)| v);
    if get("ok") != Some(&Value::Bool(true)) {
        return Err(format!("{op} {id}: not ok: {}", truncate(line)));
    }
    if get("id") != Some(&Value::String(id.to_string())) {
        return Err(format!("{op} {id}: response carries another id"));
    }
    if get("op") != Some(&Value::String(op.to_string())) {
        return Err(format!("{op} {id}: response names another op"));
    }
    Ok(fields)
}

pub fn field<'a>(fields: &'a [(String, Value)], key: &str) -> Result<&'a Value, String> {
    fields
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .ok_or_else(|| format!("missing field {key:?}"))
}

/// The `solutions` field must hold exactly the expected label arrays
/// (`-1` for noise).
pub fn solutions_equal(
    fields: &[(String, Value)],
    expected: &[Vec<Option<usize>>],
) -> Result<(), String> {
    let want = Value::Array(
        expected
            .iter()
            .map(|s| {
                Value::Array(
                    s.iter()
                        .map(|a| Value::Int(a.map_or(-1, |l| l as i64)))
                        .collect(),
                )
            })
            .collect(),
    );
    if field(fields, "solutions")? == &want {
        Ok(())
    } else {
        Err("solutions differ from the in-process result".to_string())
    }
}

pub fn field_equals(fields: &[(String, Value)], key: &str, want: &Value) -> Result<(), String> {
    let got = field(fields, key)?;
    if got == want {
        Ok(())
    } else {
        Err(format!("field {key:?} is {got:?}, expected {want:?}"))
    }
}

fn truncate(line: &str) -> &str {
    &line[..line.len().min(200)]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn response(labels: &[i64]) -> String {
        let list: Vec<String> = labels.iter().map(i64::to_string).collect();
        format!(
            r#"{{"schema":"s","id":"r1","ok":true,"op":"assign","solutions":[[{}]]}}"#,
            list.join(",")
        )
    }

    #[test]
    fn a_corrupted_label_is_rejected() {
        let expected = vec![vec![Some(0), Some(2), None]];
        let good = envelope(&response(&[0, 2, -1]), "r1", "assign").unwrap();
        assert_eq!(solutions_equal(&good, &expected), Ok(()));
        let bad = envelope(&response(&[0, 1, -1]), "r1", "assign").unwrap();
        assert!(solutions_equal(&bad, &expected).is_err());
        let mut flipped = expected.clone();
        corrupt(&mut flipped);
        assert!(solutions_equal(&good, &flipped).is_err());
    }

    #[test]
    fn envelope_rejects_errors_and_foreign_ids() {
        assert!(envelope(r#"{"id":"r1","ok":false,"op":"assign"}"#, "r1", "assign").is_err());
        assert!(envelope(&response(&[0]), "r2", "assign").is_err());
        assert!(envelope("not json", "r1", "assign").is_err());
    }

    #[test]
    fn floors_reject_a_corrupted_fit() {
        let p = crate::inputs::planted(3, "test", 0, 200);
        let truth = p.truths[1].clone();
        assert_eq!(
            floor_met(Floor::BestAri(0.99), std::slice::from_ref(&truth), &p),
            Ok(())
        );
        assert_eq!(
            floor_met(
                Floor::DiffersFromGiven(0.1),
                std::slice::from_ref(&truth),
                &p
            ),
            Ok(())
        );
        assert!(floor_met(Floor::DiffersFromGiven(0.1), &[p.truths[0].clone()], &p).is_err());
        let mut labels: Vec<Option<usize>> = truth.assignments().to_vec();
        labels.truncate(150);
        let short = Clustering::from_options(labels);
        assert!(floor_met(Floor::BestAri(0.0), &[short], &p).is_err());
        let noise = Clustering::from_options(vec![None; 200]);
        assert!(floor_met(Floor::Membership, &[noise], &p).is_err());
    }
}
