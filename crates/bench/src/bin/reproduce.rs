//! Regenerates every table and figure of the tutorial.
//!
//! ```text
//! reproduce all        # every experiment, in slide order
//! reproduce e13        # one experiment
//! reproduce list       # available ids
//! ```
//!
//! With telemetry enabled (`MULTICLUST_TELEMETRY=1`), every experiment is
//! followed by a per-experiment metrics section on **stderr** — spans,
//! counters and convergence-event digests recorded while it ran — so the
//! report on stdout stays diffable against previous runs.

use std::process::ExitCode;

/// Runs one experiment; when telemetry is on, scopes the registry to this
/// experiment and prints its metrics section to stderr.
fn run_with_metrics(id: &str) -> Option<String> {
    let telemetry = multiclust_telemetry::enabled();
    if telemetry {
        multiclust_telemetry::reset();
    }
    let report = multiclust_bench::run(id)?;
    if telemetry {
        eprint!(
            "{}",
            multiclust_bench::report::section(
                &format!("telemetry: {id}"),
                multiclust_telemetry::snapshot().to_text().trim_end(),
            )
        );
    }
    Some(report)
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
