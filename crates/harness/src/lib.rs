//! Deterministic verification harness for the `multiclust` workspace.
//!
//! The paper's problem statement (slide 27) reduces every paradigm to two
//! ingredients — per-clustering quality `Q` and pairwise dissimilarity
//! `Diss` — and each algorithm's trustworthiness rests on invariants those
//! ingredients must satisfy. This crate checks them **end to end**, in
//! three layers:
//!
//! 1. [`scenario`] — seeded datasets with planted multi-view structure
//!    plus adversarial edge cases (duplicate points, constant features,
//!    `k = n`, near-collinear data, extreme scales);
//! 2. [`invariants`] — a trait-based metamorphic checker run against all
//!    eight algorithm families ([`families`]): partition validity,
//!    determinism, point-permutation / translation / scale invariance
//!    where guaranteed, label-permutation blindness, symmetry and bounds
//!    of the `Diss` matrix, served-fit equivalence, and one table-driven
//!    knob check ([`Knob`]) that refits with each runtime switch —
//!    threads, telemetry, kernels, trace sink, alloc accounting — off and
//!    on and requires bit-identical labels;
//! 3. [`golden`] — canonical-labelled golden-output regression against
//!    `tests/golden/*.json` fixtures, updatable via `MULTICLUST_BLESS=1`.
//!
//! [`fault`] closes the loop: ten named corruptions that the matching
//! invariant **must** flag, proving the checker can actually fail (one
//! per non-knob target plus a seed perturbation of each knob's on run).
//! Everything is std-only and deterministic: a red result replays
//! bit-for-bit from `(family, scenario, seed)`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod families;
pub mod fault;
pub mod golden;
pub mod invariants;
pub mod report;
pub mod scenario;
pub mod service;

pub use families::{all_families, AlgorithmFamily, FitInput, Guarantees};
pub use fault::Fault;
pub use golden::{GoldenOutcome, GoldenRecord};
pub use invariants::{registry, CheckContext, Invariant, Knob};
pub use report::{verify, CheckOutcome, VerifyOptions, VerifyReport};
pub use scenario::{catalog, Scenario};
pub use service::fit_dispatch;
