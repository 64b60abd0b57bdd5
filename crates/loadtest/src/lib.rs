//! # multiclust-loadtest
//!
//! Declarative load testing for the multiclust resident service: a
//! versioned scenario spec, concurrent workload drivers against the real
//! server, and a judged-expectations layer that turns one run into a
//! machine-checkable `multiclust-loadtest-report/v1` verdict.
//!
//! The crate is split along the data-flow:
//!
//! * [`spec`] — `multiclust-loadtest/v1` scenario files: dataset shape
//!   with planted truths, closed- or open-loop arrival on the logical
//!   tick clock, a weighted operation mix, server/chaos budgets and the
//!   declarative expectations;
//! * [`driver`] — expands a scenario into a deterministic per-worker
//!   request plan, boots the real server (in-process dispatch or the
//!   shipped binary), releases barrier-synchronized clients through the
//!   `multiclust-serve/v1` protocol and collects the run record —
//!   latency sketches on one side, interleaving-invariant aggregates
//!   (counts, error codes, quality, the transcript digest) on the other;
//! * [`judge`] — rules each expectation against the [`RunRecord`];
//! * [`report`] — renders the verdict document, including the
//!   `--canonical` form whose bytes are identical across thread counts.
//!
//! Like the verify layer, the loadtest distrusts itself:
//! `--inject` wires a known fault (reusing the harness fault registry's
//! names plus two chaos faults) and the scenario **must** fail; the
//! judge's unit tests prove a doctored record cannot sneak past it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod driver;
pub mod judge;
pub mod report;
pub mod spec;

pub use driver::{run_scenario, BootMode, Inject, RunOptions, RunRecord};
pub use judge::{judge, verdict, Judged};
pub use report::REPORT_SCHEMA;
pub use spec::{Expectation, ScenarioSpec, SCHEMA};
