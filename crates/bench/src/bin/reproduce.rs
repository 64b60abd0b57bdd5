//! Regenerates every table and figure of the tutorial.
//!
//! ```text
//! reproduce all        # every experiment, in slide order
//! reproduce e13        # one experiment
//! reproduce list       # available ids
//! ```
//!
//! With telemetry enabled (`MULTICLUST_TELEMETRY=1`), every experiment is
//! recorded into an in-memory trace and followed by its telemetry report
//! on **stderr** — the report `multiclust trace` prints: phase table,
//! counters and convergence findings — so the report on stdout stays
//! diffable against previous runs.

use std::process::ExitCode;

use multiclust_bench::report::section;
use multiclust_telemetry::trace;

/// Runs one experiment; when telemetry is on, records it into its own
/// in-memory trace and prints that trace's report to stderr.
fn run_with_metrics(id: &str) -> Option<String> {
    if multiclust_telemetry::enabled() {
        multiclust_telemetry::reset();
        trace::open_trace_buffer();
    }
    let report = multiclust_bench::run(id);
    if let (Some(_), Some(bytes)) = (&report, trace::flush_trace()) {
        let text = trace::parse_trace(&bytes[..])
            .map_or_else(|e| format!("unreadable trace: {e}"), |t| trace::report(id, &t).0);
        eprint!("{}", section(&format!("telemetry: {id}"), text.trim_end()));
    }
    report
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args[0] == "list" || args[0] == "--help" {
        eprintln!("usage: reproduce <id>|all|list\n\navailable experiments:");
        for (id, desc) in multiclust_bench::EXPERIMENTS {
            eprintln!("  {id:<5} {desc}");
        }
        return if args.first().is_some_and(|a| a == "list") {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    let ids: Vec<&str> = if args.iter().any(|a| a == "all") {
        multiclust_bench::EXPERIMENTS.iter().map(|(id, _)| *id).collect()
    } else {
        args.iter().map(String::as_str).collect()
    };
    let mut failed = false;
    for id in ids {
        if let Some(report) = run_with_metrics(id) {
            print!("{report}");
        } else {
            eprintln!("unknown experiment id: {id} (try `reproduce list`)");
            failed = true;
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
