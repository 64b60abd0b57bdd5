//! Fault injection: deliberate, named corruptions of the pipeline that a
//! specific invariant **must** detect.
//!
//! This is the harness testing itself: `multiclust verify --inject <fault>`
//! plants exactly one violation and the run must come back red with the
//! targeted invariant named. A fault that goes undetected means the
//! checker, not the algorithms, is broken.

use crate::invariants::Knob;

/// A deliberate corruption, each paired with the invariant that catches it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// Drops the last object from the first solution of every family —
    /// caught by `partition-validity` (length mismatch).
    TruncateOutput,
    /// Flips one label in the *second* of the two determinism runs —
    /// caught by `determinism`.
    RelabelSecondRun,
    /// Adds 1e-3 to the `[0][1]` entry of every dissimilarity matrix —
    /// caught by `diss-symmetry`.
    AsymmetricDiss,
    /// Reports a fabricated index value of 1.5 alongside the real ones —
    /// caught by `diss-bounds`.
    OutOfBoundsMeasure,
    /// Perturbs the RNG seed of a knob row's knob-on refit, simulating a
    /// runtime switch that consumes randomness — caught by that row's
    /// invariant. Its CLI name follows the knob, e.g.
    /// `trace-perturbs-rng` or `desync-kernels`.
    KnobPerturbsRng(Knob),
    /// Perturbs the RNG seed of the `fit` sent through the protocol
    /// server, simulating a serving layer that re-seeds (or otherwise
    /// desynchronises) the deterministic pipeline — caught by
    /// `serve-equivalence`.
    ServePerturbsRng,
}

/// Every fault, in registry order of the invariant it targets.
static ALL: [Fault; 10] = [
    Fault::TruncateOutput,
    Fault::RelabelSecondRun,
    Fault::KnobPerturbsRng(Knob::Threads),
    Fault::KnobPerturbsRng(Knob::Telemetry),
    Fault::AsymmetricDiss,
    Fault::OutOfBoundsMeasure,
    Fault::KnobPerturbsRng(Knob::Kernels),
    Fault::KnobPerturbsRng(Knob::Trace),
    Fault::KnobPerturbsRng(Knob::Alloc),
    Fault::ServePerturbsRng,
];

impl Fault {
    /// All faults, in registry order of the invariant each targets.
    pub fn all() -> &'static [Fault] {
        &ALL
    }

    /// The CLI name of this fault.
    pub fn name(self) -> &'static str {
        match self {
            Fault::TruncateOutput => "truncate-output",
            Fault::RelabelSecondRun => "relabel-second-run",
            Fault::AsymmetricDiss => "asymmetric-diss",
            Fault::OutOfBoundsMeasure => "out-of-bounds-measure",
            Fault::KnobPerturbsRng(knob) => knob.fault(),
            Fault::ServePerturbsRng => "serve-perturbs-rng",
        }
    }

    /// The invariant that must fail when this fault is active.
    pub fn targeted_invariant(self) -> &'static str {
        match self {
            Fault::TruncateOutput => "partition-validity",
            Fault::RelabelSecondRun => "determinism",
            Fault::AsymmetricDiss => "diss-symmetry",
            Fault::OutOfBoundsMeasure => "diss-bounds",
            Fault::KnobPerturbsRng(knob) => knob.invariant(),
            Fault::ServePerturbsRng => "serve-equivalence",
        }
    }

    /// Parses a CLI fault name.
    pub fn parse(s: &str) -> Result<Fault, String> {
        Fault::all()
            .iter()
            .copied()
            .find(|f| f.name() == s)
            .ok_or_else(|| {
                let known: Vec<&str> = Fault::all().iter().map(|f| f.name()).collect();
                format!("unknown fault {s:?} (expected one of: {})", known.join(", "))
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_roundtrip() {
        for &f in Fault::all() {
            assert_eq!(Fault::parse(f.name()), Ok(f));
        }
        assert!(Fault::parse("nope").is_err());
    }

    #[test]
    fn every_fault_targets_a_distinct_invariant() {
        let mut targets: Vec<&str> =
            Fault::all().iter().map(|f| f.targeted_invariant()).collect();
        targets.sort_unstable();
        targets.dedup();
        assert_eq!(targets.len(), Fault::all().len());
    }
}
