//! The multiclust benchmark: end-to-end metrics from untraced runs of four
//! workloads, per-layer metrics from traced runs. See `README.md` beside
//! this package for the workloads, the metrics and how to compare commits.
//!
//! ```text
//! multiclust-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!                      [--smoke] [--inject wrong-expected] [--commit <id>] [--trace-out <file>]
//! multiclust-benchmark validate <BENCHMARK.json> <0|1> <output file>
//! multiclust-benchmark summarize <BENCHMARK.json> <directory of run outputs>
//! ```

mod check;
mod churn;
mod fit;
mod inputs;
mod probes;
mod report;
mod server;
mod session;
mod spec;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use check::Tally;
use report::{metric, Metric};
use stats::median;
use trace::Recorder;
use workloads::{Settings, Workload};

/// Variables that change what the program does; a run with any of them
/// set would not measure the defaults.
const FORBIDDEN: [&str; 9] = [
    "MULTICLUST_KERNELS",
    "MULTICLUST_KERNELS_F32",
    "MULTICLUST_THREADS",
    "MULTICLUST_TELEMETRY",
    "MULTICLUST_TRACE",
    "MULTICLUST_METRICS",
    "MULTICLUST_ALLOC",
    "MULTICLUST_CHAOS",
    "MULTICLUST_FLIGHT",
];

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
    inject: bool,
    commit: String,
    trace_out: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20.0,
        traced: false,
        smoke: false,
        inject: false,
        commit: "unknown".to_string(),
        trace_out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?,
            "--seed" => {
                a.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number")?
            }
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(a.seconds > 0.0 && a.seconds.is_finite()) {
                    return Err("--seconds must be positive".to_string());
                }
            }
            "--trace" => {
                a.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            "--smoke" => a.smoke = true,
            "--inject" => match value()?.as_str() {
                "wrong-expected" => a.inject = true,
                other => return Err(format!("unknown fault {other:?} (expected wrong-expected)")),
            },
            "--commit" => a.commit = value()?,
            "--trace-out" => a.trace_out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !workloads::NAMES.contains(&a.workload.as_str()) {
        return Err(format!("--workload must be one of {:?}", workloads::NAMES));
    }
    Ok(a)
}

fn main() -> ExitCode {
    trace::origin();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("validate") => validate(&args[1..]),
        Some("summarize") => summarize(&args[1..]),
        _ => parse_args(&args).and_then(|a| run(&a)),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("multiclust-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

fn validate(args: &[String]) -> Result<bool, String> {
    let [spec, trace, output] = args else {
        return Err("usage: validate <BENCHMARK.json> <0|1> <output file>".to_string());
    };
    let spec = spec::load(Path::new(spec), trace == "1")?;
    let output = std::fs::read_to_string(output).map_err(|e| format!("{output}: {e}"))?;
    match spec::validate(&spec, &output) {
        Ok(()) => Ok(true),
        Err(problems) => {
            for p in problems {
                eprintln!("validate: {p}");
            }
            Ok(false)
        }
    }
}

fn summarize(args: &[String]) -> Result<bool, String> {
    let [spec, dir] = args else {
        return Err("usage: summarize <BENCHMARK.json> <directory>".to_string());
    };
    println!("{}", spec::summarize(Path::new(spec), Path::new(dir))?);
    Ok(true)
}

fn run(a: &Args) -> Result<bool, String> {
    if let Some(var) = FORBIDDEN.iter().find(|v| std::env::var_os(v).is_some()) {
        return Err(format!(
            "{var} is set; the benchmark measures the defaults only, so unset it"
        ));
    }
    // `multiclust` is built into the same directory as this binary.
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark binary: {e}"))?;
    let bin_dir = exe
        .parent()
        .ok_or("the benchmark binary has no directory")?;
    let server_bin = bin_dir.join("multiclust");
    if !server_bin.is_file() {
        return Err(format!(
            "{} is missing; build the multiclust package first",
            server_bin.display()
        ));
    }
    let settings = Settings {
        seed: a.seed,
        smoke: a.smoke,
        inject: a.inject,
        server_bin: &server_bin,
    };
    let context = format!(
        "{} workload={} seed={} seconds={} trace={} smoke={}",
        report::context_line(&a.commit),
        a.workload,
        a.seed,
        a.seconds,
        u8::from(a.traced),
        a.smoke
    );
    let mut tally = Tally::default();
    let mut details = Vec::new();
    let metrics = if a.traced {
        let mut rec = Recorder::new(true);
        let metrics = traced(a, &settings, &mut rec, &mut tally)?;
        let path = a
            .trace_out
            .clone()
            .unwrap_or_else(|| bin_dir.join(format!("trace-{}.jsonl", a.workload)));
        rec.write_jsonl(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        for (name, ns) in trace::self_time_ns(rec.spans()) {
            details.push(metric(format!("self.{name}"), ns as f64 / 1e6, "ms", 1));
        }
        details.push(metric("trace.spans", rec.spans().len() as f64, "count", 1));
        metrics
    } else {
        untraced(a, &settings, &mut tally, &mut details)?
    };
    Ok(report::print(&context, &details, &metrics, &tally))
}

/// End-to-end metrics: set up several times (the median is `setup_s`),
/// then measure the workload's window with tracing off.
fn untraced(
    a: &Args,
    s: &Settings,
    tally: &mut Tally,
    details: &mut Vec<Metric>,
) -> Result<Vec<Metric>, String> {
    let reps = if a.smoke { 1 } else { SETUPS };
    let mut setups = Vec::with_capacity(reps);
    let mut workload: Option<Box<dyn Workload>> = None;
    for rep in 0..reps {
        // The first set-up counts from process start.
        let t0 = if rep == 0 {
            trace::origin()
        } else {
            Instant::now()
        };
        // Drop the previous set-up (and its server) before the next.
        drop(workload.take());
        workload = Some(workloads::setup(&a.workload, s, tally)?);
        setups.push(t0.elapsed().as_secs_f64());
    }
    let mut w = workload.expect("at least one set-up");
    let samples = w.window(a.seconds, tally, details);
    let rss = w.peak_rss_mb().ok_or("cannot read the peak resident set")?;
    Ok(vec![
        metric(
            "setup_s",
            median(&setups).expect("at least one set-up"),
            "s",
            setups.len(),
        ),
        metric(
            "latency_ms_p50",
            median(&samples).unwrap_or(f64::NAN),
            "ms",
            samples.len(),
        ),
        metric("peak_rss_mb", rss, "MiB", 1),
    ])
}

/// Per-layer metrics: the tracing overhead on the workload's own units,
/// then every layer probe.
fn traced(
    a: &Args,
    s: &Settings,
    rec: &mut Recorder,
    tally: &mut Tally,
) -> Result<Vec<Metric>, String> {
    let mut w = workloads::setup(&a.workload, s, tally)?;
    // Each unit runs twice in a row, once untraced and once traced, the
    // order alternating, so drift and input differences cancel.
    let mut ratios = Vec::new();
    let start = Instant::now();
    let mut off = Recorder::new(false);
    while ratios.len() < 2 || start.elapsed().as_secs_f64() < a.seconds / 2.0 {
        let i = ratios.len();
        let mut pair = [0.0; 2];
        for on in [i % 2 == 1, i % 2 == 0] {
            multiclust_telemetry::set_enabled(on);
            let r = if on { &mut *rec } else { &mut off };
            pair[usize::from(on)] = w.unit(i, r, tally);
            multiclust_telemetry::set_enabled(false);
            multiclust_telemetry::reset();
        }
        ratios.push(pair[1] / pair[0]);
    }
    drop(w);
    let mut probes = probes::Probes {
        seed: a.seed,
        smoke: a.smoke,
        server_bin: s.server_bin,
        out: Vec::new(),
    };
    probes.run(rec, tally)?;
    let overhead = (median(&ratios).unwrap_or(f64::NAN) - 1.0) * 100.0;
    probes.out.push(metric(
        "telemetry.traced_overhead_pct",
        overhead,
        "%",
        ratios.len(),
    ));
    Ok(probes.out)
}
