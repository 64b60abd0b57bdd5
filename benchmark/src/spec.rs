//! `BENCHMARK.json` as the benchmark's own contract: checking a run's
//! output against it, and summarising repeated runs into a baseline.

use std::collections::BTreeMap;
use std::path::Path;

use serde::Value;

use crate::stats::{median, spread};

/// One metric the spec names.
pub struct SpecMetric {
    pub name: String,
    pub unit: String,
    pub better: String,
    pub bound: Option<f64>,
}

fn get<'a>(fields: &'a [(String, Value)], key: &str) -> Option<&'a Value> {
    fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn text(v: Option<&Value>) -> Option<String> {
    match v {
        Some(Value::String(s)) => Some(s.clone()),
        _ => None,
    }
}

fn number(v: Option<&Value>) -> Option<f64> {
    match v {
        Some(Value::Float(x)) => Some(*x),
        Some(Value::Int(i)) => Some(*i as f64),
        _ => None,
    }
}

/// The `end_to_end` (untraced) or `per_layer` (traced) metrics of a spec.
pub fn load(path: &Path, traced: bool) -> Result<Vec<SpecMetric>, String> {
    let raw = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let Ok(Value::Object(root)) = serde_json::parse_value(&raw) else {
        return Err(format!("{}: not a JSON object", path.display()));
    };
    let key = if traced { "per_layer" } else { "end_to_end" };
    let Some(Value::Array(list)) = get(&root, key) else {
        return Err(format!("{}: no {key} list", path.display()));
    };
    list.iter()
        .map(|m| match m {
            Value::Object(f) => Ok(SpecMetric {
                name: text(get(f, "name")).ok_or("a metric without a name")?,
                unit: text(get(f, "unit")).ok_or("a metric without a unit")?,
                better: text(get(f, "better")).ok_or("a metric without a direction")?,
                bound: number(get(f, "bound")),
            }),
            _ => Err("a metric that is not an object".to_string()),
        })
        .collect()
}

/// The closing JSON line's `metrics` as name → (value, unit).
fn result_metrics(output: &str) -> Result<BTreeMap<String, (f64, String)>, String> {
    let last = output
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or("empty output")?;
    let Ok(Value::Object(root)) = serde_json::parse_value(last) else {
        return Err("the last line is not a JSON object".to_string());
    };
    let Some(Value::Object(metrics)) = get(&root, "metrics") else {
        return Err("the result has no metrics object".to_string());
    };
    metrics
        .iter()
        .map(|(name, body)| match body {
            Value::Object(f) => Ok((
                name.clone(),
                (
                    number(get(f, "value")).ok_or(format!("{name}: no numeric value"))?,
                    text(get(f, "unit")).ok_or(format!("{name}: no unit"))?,
                ),
            )),
            _ => Err(format!("{name}: not an object")),
        })
        .collect()
}

/// Checks that a run's output names every spec metric, with its unit and
/// sample count on a `metric` line and in the closing JSON, and nothing
/// else.
pub fn validate(spec: &[SpecMetric], output: &str) -> Result<(), Vec<String>> {
    let mut problems = Vec::new();
    let lines: BTreeMap<&str, (&str, &str)> = output
        .lines()
        .filter_map(|l| {
            let mut w = l.split_whitespace();
            (w.next()? == "metric").then_some(())?;
            let name = w.next()?;
            let _value = w.next()?;
            Some((name, (w.next()?, w.next()?)))
        })
        .collect();
    let result = match result_metrics(output) {
        Ok(r) => r,
        Err(e) => return Err(vec![e]),
    };
    for m in spec {
        match lines.get(m.name.as_str()) {
            None => problems.push(format!("no metric line for {}", m.name)),
            Some((unit, _)) if *unit != m.unit => {
                problems.push(format!("{}: unit {unit}, spec says {}", m.name, m.unit))
            }
            Some((_, n))
                if n.strip_prefix("n=")
                    .and_then(|n| n.parse::<u64>().ok())
                    .is_none_or(|n| n == 0) =>
            {
                problems.push(format!("{}: no sample count", m.name))
            }
            Some(_) => {}
        }
        match result.get(&m.name) {
            None => problems.push(format!("{} missing from the result line", m.name)),
            Some((_, unit)) if *unit != m.unit => {
                problems.push(format!("{}: result unit {unit}", m.name))
            }
            Some(_) => {}
        }
    }
    for name in result.keys() {
        if !spec.iter().any(|m| &m.name == name) {
            problems.push(format!("{name} is not in the spec"));
        }
    }
    if problems.is_empty() {
        Ok(())
    } else {
        Err(problems)
    }
}

/// Summarises runs saved as `<set>-<run>-<workload>-<trace>.out` in `dir`:
/// one row per workload and metric with each set's values, median and
/// spread and, for bounded metrics, whether the two sets' medians agree
/// within the bound.
pub fn summarize(spec_path: &Path, dir: &Path) -> Result<String, String> {
    let mut specs = load(spec_path, false)?;
    specs.extend(load(spec_path, true)?);
    // workload → metric → set → values
    let mut values: BTreeMap<String, BTreeMap<String, BTreeMap<String, Vec<f64>>>> =
        BTreeMap::new();
    let mut context = String::new();
    let mut entries: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "out"))
        .collect();
    entries.sort();
    for path in entries {
        let stem = path
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or_default()
            .to_string();
        let mut parts = stem.splitn(3, '-');
        let (Some(set), Some(_run), Some(rest)) = (parts.next(), parts.next(), parts.next()) else {
            continue;
        };
        let workload = rest.rsplit_once('-').map_or(rest, |(w, _)| w);
        let output =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        if context.is_empty() {
            context = output
                .lines()
                .find(|l| l.starts_with("context "))
                .unwrap_or_default()
                .to_string();
        }
        for (name, (v, _)) in
            result_metrics(&output).map_err(|e| format!("{}: {e}", path.display()))?
        {
            values
                .entry(workload.to_string())
                .or_default()
                .entry(name)
                .or_default()
                .entry(set.to_string())
                .or_default()
                .push(v);
        }
    }
    // One compact row per workload and metric, one row per line.
    let mut rows = Vec::new();
    for (workload, metrics) in &values {
        for m in &specs {
            let Some(sets) = metrics.get(&m.name) else {
                continue;
            };
            let mut fields = vec![
                ("workload".to_string(), Value::String(workload.clone())),
                ("metric".to_string(), Value::String(m.name.clone())),
                ("unit".to_string(), Value::String(m.unit.clone())),
                ("better".to_string(), Value::String(m.better.clone())),
                (
                    "bound".to_string(),
                    m.bound.map_or(Value::Null, Value::Float),
                ),
            ];
            let mut medians = Vec::new();
            for (set, v) in sets {
                let med = median(v).unwrap_or(f64::NAN);
                medians.push(med);
                fields.push((
                    set.clone(),
                    Value::Object(vec![
                        ("median".to_string(), finite(med)),
                        ("spread".to_string(), spread(v).map_or(Value::Null, finite)),
                        (
                            "values".to_string(),
                            Value::Array(v.iter().map(|&x| finite(x)).collect()),
                        ),
                    ]),
                ));
            }
            if let ([a, b], Some(bound)) = (medians.as_slice(), m.bound) {
                let drift = if *a == 0.0 {
                    0.0
                } else {
                    (b - a).abs() / a.abs()
                };
                fields.push(("drift".to_string(), finite(drift)));
                fields.push(("within_bound".to_string(), Value::Bool(drift <= bound)));
            }
            rows.push(json(&Value::Object(fields)));
        }
    }
    Ok(format!(
        "{{\"schema\":\"multiclust-benchmark-baseline/v1\",\"context\":{},\"rows\":[\n{}\n]}}",
        json(&Value::String(context)),
        rows.join(",\n")
    ))
}

fn json(v: &Value) -> String {
    serde_json::to_string(v).expect("value serialization is infallible")
}

fn finite(x: f64) -> Value {
    if x.is_finite() {
        Value::Float(x)
    } else {
        Value::Null
    }
}
