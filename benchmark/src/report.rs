//! What a run prints: its context, every metric by name with its unit and
//! sample count, and as the last line one JSON object with the result.

use serde::Value;

use crate::check::Tally;

/// One measured number.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str, samples: usize) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
        samples,
    }
}

/// Where and on what a run measured.
pub fn context_line(commit: &str) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let avx2 = {
        #[cfg(target_arch = "x86_64")]
        {
            std::arch::is_x86_feature_detected!("avx2")
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            false
        }
    };
    format!(
        "context commit={commit} nproc={nproc} pool={} kernels={:?} avx2={avx2}",
        multiclust_parallel::current_threads(),
        multiclust_linalg::kernels::kernel_mode(),
    )
}

/// Prints the details, the reported metrics and the closing JSON line.
/// Returns whether the run is correct: every check passed and every
/// metric is a finite number.
pub fn print(context: &str, details: &[Metric], metrics: &[Metric], tally: &Tally) -> bool {
    println!("{context}");
    for m in details {
        println!("detail {} {} {} n={}", m.name, m.value, m.unit, m.samples);
    }
    for m in metrics {
        println!("metric {} {} {} n={}", m.name, m.value, m.unit, m.samples);
    }
    for r in &tally.reasons {
        eprintln!("failed: {r}");
    }
    let finite = metrics.iter().all(|m| m.value.is_finite());
    let correct = finite && tally.failed == 0 && tally.attempted > 0;
    let line = Value::Object(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::Int(tally.attempted as i64)),
        ("failed".into(), Value::Int(tally.failed as i64)),
        (
            "metrics".into(),
            Value::Object(
                metrics
                    .iter()
                    .map(|m| {
                        let body = Value::Object(vec![
                            ("value".into(), Value::Float(m.value)),
                            ("unit".into(), Value::String(m.unit.to_string())),
                        ]);
                        (m.name.clone(), body)
                    })
                    .collect(),
            ),
        ),
    ]);
    println!(
        "{}",
        serde_json::to_string(&line).expect("value serialization is infallible")
    );
    correct
}
