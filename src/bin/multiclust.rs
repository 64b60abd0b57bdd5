//! `multiclust` — command-line front end for the library.
//!
//! Reads numeric CSV tables, runs a selected (multiple-)clustering method
//! and prints the resulting labelling(s) as CSV on stdout (one column per
//! solution, `-1` for noise), so results pipe straight into other tools.
//!
//! ```text
//! multiclust kmeans       --input data.csv --k 3
//! multiclust dbscan       --input data.csv --eps 0.5 --min-pts 5
//! multiclust dec-kmeans   --input data.csv --ks 2,2 --lambda 4
//! multiclust alternative  --input data.csv --given labels.csv --k 2 --method coala
//! multiclust subspace     --input data.csv --xi 6 --tau 0.05 --select osclu
//! multiclust compare      --a labels_a.csv --b labels_b.csv
//! multiclust verify       --golden-dir tests/golden
//! ```
//!
//! Common flags: `--header` (first CSV line is a header), `--seed <u64>`
//! (default 42), `--telemetry` and `--trace <file>`. Any other flag must be
//! one the command lists; a misspelt flag is a usage error.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use multiclust::alternative::{Coala, DecKMeans, MinCEntropy};
use multiclust::base::{Dbscan, KMeans};
use multiclust::core::measures::diss::{
    adjusted_rand_index, jaccard_index, normalized_mutual_information, rand_index,
    variation_of_information,
};
use multiclust::core::Clustering;
use multiclust::data::io::read_csv;
use multiclust::data::{seeded_rng, Dataset};
use multiclust::harness::{verify, Fault, VerifyOptions};
use multiclust::orthogonal::{MetricFlip, QiDavidson};
use multiclust::subspace::osclu::size_times_dims;
use multiclust::subspace::redundancy::{rescu_select, statpc_select};
use multiclust::subspace::{Clique, Osclu};
use serde::Value;

const USAGE: &str = "\
multiclust — discovering multiple clustering solutions

usage: multiclust <command> [flags]

commands:
  kmeans       --input <csv> --k <n>
  dbscan       --input <csv> --eps <f> --min-pts <n>
  dec-kmeans   --input <csv> --ks <n,n[,n..]> [--lambda <f>]
  alternative  --input <csv> --given <labels.csv> --k <n>
               [--method coala|mincentropy|metricflip|qidavidson] [--w <f>]
  subspace     --input <csv> --xi <n> --tau <f>
               [--select none|osclu|rescu|statpc] [--beta <f>] [--alpha <f>]
  compare      --a <labels.csv> --b <labels.csv>
  verify       [--family <name>] [--inject <fault>] [--seed <n>]
               [--golden-dir <dir>|none] [--bless]
  trace        <file.jsonl> | --collapse <file.jsonl>
  serve        [--listen tcp:<host:port>|unix:<path>] [--capacity <n>]
               (default 127.0.0.1:0; env MULTICLUST_LISTEN)
  client       [--connect <addr>] [--request <json> | --script <file>]
               (reads request lines from stdin when neither flag is given;
                env MULTICLUST_LISTEN when --connect is omitted)

common flags: --header            first CSV line is a header row
              --seed <n>          RNG seed (default 42)
              --telemetry         report spans/counters/convergence traces
                                  on stderr (stdout stays pipeable CSV)
              --trace <file>      stream every span and event of the run
                                  to <file> (implies telemetry; stdout
                                  stays byte-identical)
              (multiclust-trace/v2 JSONL, as are flight dumps; `trace`
               reads both)
              any other flag is refused unless the command lists it

environment:  MULTICLUST_ALLOC=1  attribute heap allocations (count/bytes/
                                  peak) to the active span; stdout stays
                                  byte-identical

output: CSV on stdout — one column per solution, label per object,
        -1 for noise; `subspace` prints one cluster per line instead;
        `compare` prints agreement measures; `verify` prints the
        invariant × family matrix and exits non-zero on any violation;
        `trace` prints a per-phase time attribution, the last errors
        with their request ids and the convergence findings, and exits
        non-zero on a violated objective contract (--collapse prints
        collapsed flamegraph stacks instead);
        `serve` prints one `{\"type\":\"ready\",...}` line with the bound
        address, then answers multiclust-serve/v1 request lines (fit/
        assign/compare/list/evict/stats/dump — `dump` writes the flight
        recorder to a server-side file) until a shutdown request;
        `client` prints one response line per request.
";

fn main() -> ExitCode {
    // Read the telemetry environment before the command allocates
    // anything worth attributing.
    multiclust::telemetry::init();
    let result = run(std::env::args().skip(1).collect());
    // Finalize the trace sink (counters, end line) whether the command
    // succeeded or not; no-op when no sink is open.
    multiclust::telemetry::trace::flush_trace();
    match result {
        Ok(Outcome { output, passed }) => {
            print!("{output}");
            if passed {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            // Usage errors (bad flags, unknown commands) get the full
            // usage text; runtime errors (unreadable input, corrupt
            // trace) stay one clean line so the cause isn't buried.
            if e.usage {
                eprintln!("error: {}\n\n{USAGE}", e.message);
            } else {
                eprintln!("error: {}", e.message);
            }
            ExitCode::FAILURE
        }
    }
}

/// A command-line failure: the message plus whether it is the user's
/// flag spelling (print usage) or a runtime problem with their files
/// (don't bury the cause under the usage dump).
struct CliError {
    message: String,
    usage: bool,
}

impl CliError {
    /// A runtime error: printed as a single clean line, no usage text.
    fn plain(message: String) -> Self {
        Self { message, usage: false }
    }
}

/// Bare-`String` errors are flag/command mistakes and keep the usage dump.
impl From<String> for CliError {
    fn from(message: String) -> Self {
        Self { message, usage: true }
    }
}

/// What a command produced: stdout text plus whether it succeeded.
///
/// `verify` can run to completion and still *fail* (violations found);
/// that is not a usage error, so the report goes to stdout and only the
/// exit code turns red.
struct Outcome {
    output: String,
    passed: bool,
}

impl Outcome {
    fn ok(output: String) -> Self {
        Self { output, passed: true }
    }
}

/// Parsed flag map: `--key value` (or `--key=value`) pairs, the bare
/// [`BOOLEAN_FLAGS`], and positional arguments (only `trace` accepts
/// them).
struct Flags {
    map: HashMap<String, String>,
    positional: Vec<String>,
}

/// Flags taking no value: bare `--flag` means "true", and `--flag=value`
/// is refused rather than read as "on".
const BOOLEAN_FLAGS: &[&str] = &["header", "telemetry", "bless"];

/// Flags every command accepts.
const COMMON_FLAGS: &[&str] = &["header", "seed", "telemetry", "trace"];

/// The flags `command` accepts on top of [`COMMON_FLAGS`]; an unknown
/// command is a usage error.
fn command_flags(command: &str) -> Result<&'static [&'static str], String> {
    Ok(match command {
        "kmeans" => &["input", "k"],
        "dbscan" => &["input", "eps", "min-pts"],
        "dec-kmeans" => &["input", "ks", "lambda"],
        "alternative" => &["input", "given", "k", "method", "w"],
        "subspace" => &["input", "xi", "tau", "select", "beta", "alpha"],
        "compare" => &["a", "b"],
        "verify" => &["family", "inject", "golden-dir", "bless"],
        "trace" => &["collapse"],
        "serve" => &["listen", "capacity"],
        "client" => &["connect", "request", "script"],
        "help" | "--help" | "-h" => &[],
        other => return Err(format!("unknown command {other:?}")),
    })
}

impl Flags {
    /// Parses `args`, refusing any flag outside [`COMMON_FLAGS`] and
    /// `accepted`: a misspelt flag must not silently fall back to its
    /// default.
    fn parse(args: &[String], accepted: &[&str]) -> Result<Self, String> {
        let mut map = HashMap::new();
        let mut positional = Vec::new();
        let mut i = 0;
        while i < args.len() {
            let Some(flag) = args[i].strip_prefix("--") else {
                positional.push(args[i].clone());
                i += 1;
                continue;
            };
            let key = flag.split_once('=').map_or(flag, |(key, _)| key);
            if !COMMON_FLAGS.contains(&key) && !accepted.contains(&key) {
                return Err(format!("unknown flag --{key}"));
            }
            if let Some((key, value)) = flag.split_once('=') {
                // `--key=value` form.
                if BOOLEAN_FLAGS.contains(&key) {
                    return Err(format!("flag --{key} takes no value"));
                }
                map.insert(key.to_string(), value.to_string());
                i += 1;
            } else if BOOLEAN_FLAGS.contains(&key) {
                map.insert(key.to_string(), "true".to_string());
                i += 1;
            } else {
                let value = args
                    .get(i + 1)
                    .ok_or_else(|| format!("flag --{key} needs a value"))?;
                map.insert(key.to_string(), value.clone());
                i += 2;
            }
        }
        Ok(Self { map, positional })
    }

    fn get(&self, key: &str) -> Option<&String> {
        self.map.get(key)
    }

    fn str(&self, key: &str) -> Result<&str, String> {
        self.map
            .get(key)
            .map(String::as_str)
            .ok_or_else(|| format!("missing required flag --{key}"))
    }

    fn parsed<T: std::str::FromStr>(&self, key: &str) -> Result<T, String> {
        self.str(key)?
            .parse()
            .map_err(|_| format!("flag --{key}: cannot parse {:?}", self.str(key).unwrap()))
    }

    fn parsed_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.map.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("flag --{key}: cannot parse {v:?}")),
        }
    }

    fn bool(&self, key: &str) -> bool {
        self.map.contains_key(key)
    }
}

fn run(args: Vec<String>) -> Result<Outcome, CliError> {
    // A mistyped kernel mode or thread count must not fall back to the
    // default: a naive-vs-blocked or 1-vs-4-thread comparison would then
    // compare one mode with itself.
    multiclust::linalg::kernels::kernel_mode_from_env().map_err(CliError::plain)?;
    multiclust::parallel::threads_from_env().map_err(CliError::plain)?;
    let Some((command, rest)) = args.split_first() else {
        return Err(CliError::from("no command given".to_string()));
    };
    let flags = Flags::parse(rest, command_flags(command)?)?;
    if command.as_str() != "trace" {
        if let Some(stray) = flags.positional.first() {
            return Err(format!("unexpected argument {stray:?} (expected a --flag)").into());
        }
    }
    // `--trace` implies recording: there is nothing to stream otherwise.
    let telemetry = flags.bool("telemetry");
    if telemetry || flags.get("trace").is_some() {
        multiclust::telemetry::set_enabled(true);
    }
    if let Some(path) = flags.get("trace") {
        setup_trace(path, command, &flags)?;
    }
    let outcome = match command.as_str() {
        "kmeans" => cmd_kmeans(&flags).map(Outcome::ok),
        "dbscan" => cmd_dbscan(&flags).map(Outcome::ok),
        "dec-kmeans" => cmd_dec_kmeans(&flags).map(Outcome::ok),
        "alternative" => cmd_alternative(&flags).map(Outcome::ok),
        "subspace" => cmd_subspace(&flags).map(Outcome::ok),
        "compare" => cmd_compare(&flags).map(Outcome::ok),
        "verify" => cmd_verify(&flags).map_err(CliError::from),
        "trace" => cmd_trace(&flags),
        "serve" => cmd_serve(&flags),
        "client" => cmd_client(&flags),
        // `help`, `--help` and `-h`: `command_flags` refused every other name.
        _ => Ok(Outcome::ok(USAGE.to_string())),
    }?;
    // Telemetry goes to stderr so stdout CSV stays byte-identical to a run
    // without the flag and keeps piping cleanly.
    if telemetry {
        eprint!("{}", multiclust::telemetry::snapshot().to_text());
    }
    Ok(outcome)
}

/// Opens the `--trace` sink and stamps the run metadata line: command,
/// seed, thread count, kernel mode. Dataset shape follows from
/// [`load_data`] once the input is read.
fn setup_trace(path: &str, command: &str, flags: &Flags) -> Result<(), String> {
    use multiclust::telemetry::trace;
    trace::set_trace_path(Some(Path::new(path)))
        .map_err(|e| format!("flag --trace: cannot open {path}: {e}"))?;
    // Parsed as every command parses it; a seed past `i64` is recorded
    // as its decimal string.
    let seed: u64 = flags.parsed_or("seed", 42)?;
    let seed = i64::try_from(seed).map_or_else(|_| Value::String(seed.to_string()), Value::Int);
    let kernel_mode = match multiclust::linalg::kernels::kernel_mode() {
        multiclust::linalg::kernels::KernelMode::Blocked => "blocked",
        multiclust::linalg::kernels::KernelMode::Naive => "naive",
    };
    trace::trace_meta(&[
        ("command", Value::String(command.to_string())),
        ("seed", seed),
        ("threads", Value::Int(multiclust::parallel::current_threads() as i64)),
        ("kernel_mode", Value::String(kernel_mode.to_string())),
    ]);
    Ok(())
}

/// Reads `--input`. A file that won't open or parse is a runtime error:
/// one clean line, no usage dump.
fn load_data(flags: &Flags) -> Result<Dataset, CliError> {
    let path = flags.str("input")?;
    let data = read_csv(Path::new(path), flags.bool("header"))
        .map_err(|e| CliError::plain(format!("reading {path}: {e}")))?;
    // Dataset shape into the run metadata (no-op without a sink).
    multiclust::telemetry::trace::trace_meta(&[
        ("dataset_n", Value::Int(data.len() as i64)),
        ("dataset_d", Value::Int(data.dims() as i64)),
    ]);
    Ok(data)
}

/// Loads a single-column integer label file into a `Clustering`
/// (negative = noise). A fractional label, or one not below the row
/// count, is refused: `Clustering` sizes its member lists by the largest
/// label, so a label of 1e12 would abort on allocation.
fn load_labels(path: &str) -> Result<Clustering, CliError> {
    let ds = read_csv(Path::new(path), false)
        .map_err(|e| CliError::plain(format!("reading {path}: {e}")))?;
    if ds.dims() != 1 {
        return Err(format!("label file {path} must have exactly one column").into());
    }
    let n = ds.len();
    let assignments = ds
        .rows()
        .enumerate()
        .map(|(i, r)| match r[0] {
            v if v < 0.0 => Ok(None),
            v if v.fract() == 0.0 && v < n as f64 => Ok(Some(v as usize)),
            v => Err(CliError::plain(format!(
                "label file {path} row {}: label {v} is not an integer below the row count {n}",
                i + 1
            ))),
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Clustering::from_options(assignments))
}

/// Renders solutions as CSV: one column per solution, `-1` for noise.
fn render_solutions(solutions: &[&Clustering]) -> String {
    let n = solutions.first().map_or(0, |s| s.len());
    let mut out = String::new();
    for i in 0..n {
        for (c, s) in solutions.iter().enumerate() {
            if c > 0 {
                out.push(',');
            }
            match s.assignment(i) {
                Some(l) => out.push_str(&l.to_string()),
                None => out.push_str("-1"),
            }
        }
        out.push('\n');
    }
    out
}

/// Rejects cluster counts the fitters would panic on.
fn check_k(k: usize, n: usize) -> Result<(), String> {
    if k == 0 {
        return Err("--k must be at least 1".into());
    }
    if k > n {
        return Err(format!("--k is {k} but the input has only {n} objects"));
    }
    Ok(())
}

/// Refuses a parameter outside the range its algorithm's constructor
/// asserts, so a bad value is a usage error instead of a panic. Every
/// float range here also excludes NaN and ±∞.
fn require(in_range: bool, key: &str, range: &str) -> Result<(), String> {
    if in_range {
        Ok(())
    } else {
        Err(format!("--{key} must be {range}"))
    }
}

fn cmd_kmeans(flags: &Flags) -> Result<String, CliError> {
    let data = load_data(flags)?;
    let k: usize = flags.parsed("k")?;
    check_k(k, data.len())?;
    let mut rng = seeded_rng(flags.parsed_or("seed", 42u64)?);
    let res = KMeans::new(k).with_restarts(4).fit(&data, &mut rng);
    Ok(render_solutions(&[&res.clustering]))
}

fn cmd_dbscan(flags: &Flags) -> Result<String, CliError> {
    let data = load_data(flags)?;
    let eps: f64 = flags.parsed("eps")?;
    require(eps.is_finite() && eps > 0.0, "eps", "positive and finite")?;
    let min_pts: usize = flags.parsed("min-pts")?;
    require(min_pts >= 1, "min-pts", "at least 1")?;
    let c = Dbscan::new(eps, min_pts).fit(&data);
    Ok(render_solutions(&[&c]))
}

fn cmd_dec_kmeans(flags: &Flags) -> Result<String, CliError> {
    let data = load_data(flags)?;
    let ks: Vec<usize> = flags
        .str("ks")?
        .split(',')
        .map(|s| s.trim().parse().map_err(|_| format!("bad k {s:?} in --ks")))
        .collect::<Result<_, _>>()?;
    if ks.len() < 2 {
        return Err("--ks needs at least two comma-separated cluster counts".to_string().into());
    }
    for &k in &ks {
        check_k(k, data.len())?;
    }
    let lambda: f64 = flags.parsed_or("lambda", 1.0)?;
    require(
        lambda.is_finite() && lambda >= 0.0,
        "lambda",
        "non-negative and finite",
    )?;
    let mut rng = seeded_rng(flags.parsed_or("seed", 42u64)?);
    let res = DecKMeans::new(&ks).with_lambda(lambda).fit(&data, &mut rng);
    let refs: Vec<&Clustering> = res.clusterings.iter().collect();
    Ok(render_solutions(&refs))
}

fn cmd_alternative(flags: &Flags) -> Result<String, CliError> {
    let data = load_data(flags)?;
    let given = load_labels(flags.str("given")?)?;
    if given.len() != data.len() {
        return Err(format!(
            "label file has {} rows, data has {}",
            given.len(),
            data.len()
        )
        .into());
    }
    let k: usize = flags.parsed("k")?;
    check_k(k, data.len())?;
    let mut rng = seeded_rng(flags.parsed_or("seed", 42u64)?);
    let method = flags.parsed_or("method", "coala".to_string())?;
    let alternative = match method.as_str() {
        "coala" => {
            let w: f64 = flags.parsed_or("w", 1.0)?;
            require(w.is_finite() && w > 0.0, "w", "positive and finite")?;
            Coala::new(k, w).fit(&data, &given).clustering
        }
        "mincentropy" => {
            let w: f64 = flags.parsed_or("w", 2.0)?;
            require(w.is_finite() && w >= 0.0, "w", "non-negative and finite")?;
            MinCEntropy::new(k, w).fit(&data, &[&given], &mut rng)
        }
        "metricflip" => {
            let km = KMeans::new(k).with_restarts(4);
            MetricFlip::new().fit(&data, &given, &km, &mut rng).clustering
        }
        "qidavidson" => {
            let km = KMeans::new(k).with_restarts(4);
            QiDavidson::new().fit(&data, &given, &km, &mut rng).clustering
        }
        other => return Err(format!("unknown alternative method {other:?}").into()),
    };
    Ok(render_solutions(&[&given, &alternative]))
}

fn cmd_subspace(flags: &Flags) -> Result<String, CliError> {
    let data = load_data(flags)?.min_max_normalized();
    let xi: u32 = flags.parsed("xi")?;
    require(xi >= 1, "xi", "at least 1")?;
    let tau: f64 = flags.parsed("tau")?;
    require(tau > 0.0 && tau <= 1.0, "tau", "in (0, 1]")?;
    let mined = Clique::new(xi, tau).fit(&data);
    let select = flags.parsed_or("select", "osclu".to_string())?;
    let kept: Vec<usize> = match select.as_str() {
        "none" => (0..mined.clusters.len()).collect(),
        "osclu" => {
            let beta: f64 = flags.parsed_or("beta", 0.75)?;
            let alpha: f64 = flags.parsed_or("alpha", 0.5)?;
            require(beta > 0.0 && beta <= 1.0, "beta", "in (0, 1]")?;
            require(alpha > 0.0 && alpha <= 1.0, "alpha", "in (0, 1]")?;
            Osclu::new(beta, alpha).select_greedy(&mined.clusters).selected
        }
        "rescu" => rescu_select(&mined.clusters, size_times_dims, 0.9),
        "statpc" => statpc_select(&mined.clusters, data.len(), 0.01),
        other => return Err(format!("unknown selection {other:?}").into()),
    };
    let mut out = String::new();
    out.push_str("# cluster_id, dims, objects\n");
    for (row, &idx) in kept.iter().enumerate() {
        let c = &mined.clusters[idx];
        out.push_str(&format!(
            "{},\"{}\",\"{}\"\n",
            row,
            c.dims()
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join(" "),
            c.objects()
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join(" ")
        ));
    }
    Ok(out)
}

fn cmd_verify(flags: &Flags) -> Result<Outcome, String> {
    let fault = match flags.get("inject") {
        None => None,
        Some(name) => {
            Some(Fault::parse(name).map_err(|e| format!("flag --inject: {e}"))?)
        }
    };
    // `--golden-dir none` skips the fixture layer, e.g. when probing a
    // single family or an injected fault away from the repo checkout.
    let golden_dir = match flags.get("golden-dir").map(String::as_str) {
        Some("none") => None,
        Some(dir) => Some(PathBuf::from(dir)),
        None => Some(PathBuf::from("tests/golden")),
    };
    let bless = flags.bool("bless")
        || std::env::var("MULTICLUST_BLESS").is_ok_and(|v| v == "1");
    let opts = VerifyOptions {
        seed: flags.parsed_or("seed", 42u64)?,
        family: flags.get("family").cloned(),
        fault,
        golden_dir,
        bless,
    };
    let report = verify(&opts)?;
    Ok(Outcome { output: report.render_text(), passed: report.passed() })
}

/// `trace <file>`: the one reader of a `--trace` file or a flight dump.
/// Prints a header naming the producer, the per-phase time attribution,
/// the last errors and the convergence findings, and fails when a finding
/// is an error; `trace --collapse <file>` prints flamegraph stacks
/// instead. A file that won't open or parse (a crashed or still-running
/// producer) is a data problem, not a usage mistake: report the named line
/// cleanly, skip the usage dump.
fn cmd_trace(flags: &Flags) -> Result<Outcome, CliError> {
    use multiclust::telemetry::{diagnose, trace};
    let path = flags
        .get("collapse")
        .or(flags.positional.first())
        .ok_or_else(|| "trace needs a <file.jsonl> argument".to_string())?;
    let parsed = trace::read_trace(Path::new(path))
        .map_err(|e| CliError::plain(format!("trace {path}: {e}")))?;
    if flags.get("collapse").is_some() {
        return Ok(Outcome::ok(trace::collapse_spans(&parsed)));
    }
    let source = parsed.meta_str("source").unwrap_or("unknown");
    let mut out = format!("trace {path}: source {source}");
    if source == "flight" {
        let meta = |key: &str| parsed.meta_u64(key).unwrap_or(0);
        out.push_str(&format!(
            " (capacity {}/thread, {} segments, {} overwritten)",
            meta("capacity"),
            meta("segments"),
            meta("overwritten"),
        ));
    }
    out.push_str(&format!(
        ", {} lines, {} span completions, {} events{}\n",
        parsed.lines,
        parsed.of_kind("span").count(),
        parsed.of_kind("event").count(),
        if parsed.ended { "" } else { " (NO end line — producer did not finish)" }
    ));
    out.push_str(&trace::phase_summary(&parsed));
    out.push_str(&trace::last_errors(&parsed));
    let report = diagnose::analyze(&parsed);
    out.push_str(&report.render_text());
    Ok(Outcome { output: out, passed: !report.has_errors() })
}

fn cmd_serve(flags: &Flags) -> Result<Outcome, CliError> {
    use multiclust::serve::{Listen, Server, ServerConfig};
    let addr = match flags.get("listen") {
        Some(a) => a.clone(),
        None => std::env::var("MULTICLUST_LISTEN")
            .unwrap_or_else(|_| "127.0.0.1:0".to_string()),
    };
    let listen = Listen::parse(&addr).map_err(CliError::from)?;
    let capacity: usize = flags.parsed_or("capacity", 64)?;
    if capacity == 0 {
        return Err(CliError::from("--capacity must be at least 1".to_string()));
    }
    let config = ServerConfig { capacity, dispatch: multiclust::harness::fit_dispatch() };
    let server = Server::bind(&listen, config)
        .map_err(|e| CliError::plain(format!("cannot listen on {}: {e}", listen.display())))?;
    // The ready line must reach the caller before the accept loop blocks:
    // with `--listen 127.0.0.1:0` it is the only way to learn the port.
    println!(
        "{{\"type\":\"ready\",\"schema\":\"{}\",\"addr\":\"{}\"}}",
        multiclust::serve::SCHEMA,
        server.local_addr()
    );
    use std::io::Write as _;
    std::io::stdout()
        .flush()
        .map_err(|e| CliError::plain(format!("stdout: {e}")))?;
    let summary = server
        .run()
        .map_err(|e| CliError::plain(format!("serve: {e}")))?;
    // Summary on stderr: stdout stays a pure protocol stream.
    eprintln!(
        "serve: shut down cleanly after {} requests ({} errors)",
        summary.requests, summary.errors
    );
    Ok(Outcome::ok(String::new()))
}

fn cmd_client(flags: &Flags) -> Result<Outcome, CliError> {
    use multiclust::serve::{client, Listen};
    let addr = match flags.get("connect") {
        Some(a) => a.clone(),
        None => std::env::var("MULTICLUST_LISTEN").map_err(|_| {
            "client needs --connect <addr> (or MULTICLUST_LISTEN)".to_string()
        })?,
    };
    let listen = Listen::parse(&addr).map_err(CliError::from)?;
    let requests: Vec<String> = if let Some(request) = flags.get("request") {
        vec![request.clone()]
    } else {
        let text = match flags.get("script") {
            Some(path) => std::fs::read_to_string(path)
                .map_err(|e| CliError::plain(format!("reading {path}: {e}")))?,
            None => {
                let mut buf = String::new();
                use std::io::Read as _;
                std::io::stdin()
                    .read_to_string(&mut buf)
                    .map_err(|e| CliError::plain(format!("stdin: {e}")))?;
                buf
            }
        };
        // Blank lines and `#` comments let scripts document themselves.
        text.lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .map(String::from)
            .collect()
    };
    if requests.is_empty() {
        return Err(CliError::plain(
            "client: no requests (use --request, --script or stdin)".to_string(),
        ));
    }
    // Transport failures are runtime errors; protocol-level errors come
    // back as response lines (`"ok":false`) and are the caller's to read.
    let responses = client::session(&listen, &requests)
        .map_err(|e| CliError::plain(format!("client: {} — {e}", listen.display())))?;
    let mut out = String::new();
    for response in &responses {
        out.push_str(response);
        out.push('\n');
    }
    Ok(Outcome::ok(out))
}

fn cmd_compare(flags: &Flags) -> Result<String, CliError> {
    let a = load_labels(flags.str("a")?)?;
    let b = load_labels(flags.str("b")?)?;
    if a.len() != b.len() {
        return Err(format!("label files differ in length: {} vs {}", a.len(), b.len()).into());
    }
    Ok(format!(
        "rand_index,{:.6}\nadjusted_rand_index,{:.6}\njaccard_index,{:.6}\n\
         normalized_mutual_information,{:.6}\nvariation_of_information,{:.6}\n",
        rand_index(&a, &b),
        adjusted_rand_index(&a, &b),
        jaccard_index(&a, &b),
        normalized_mutual_information(&a, &b),
        variation_of_information(&a, &b),
    ))
}
