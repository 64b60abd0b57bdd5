//! The metamorphic invariant registry.
//!
//! Every invariant states one mathematical contract of the paper's
//! problem definition (slide 27) — validity of the produced partitions,
//! determinism of the whole pipeline, invariance of the partitions under
//! benign input transformations, and symmetry/bounds/relabelling-blindness
//! of the `Q`/`Diss` measures — and checks it against a family's actual
//! output on a scenario. Checks are pure functions of `(family, scenario,
//! seed)`, so a red result is replayable bit-for-bit.
//!
//! The five runtime-switch contracts (threads, telemetry, kernels, trace,
//! alloc) are one table-driven check: [`KnobInvariance`] over a [`Knob`]
//! row fits with the switch off, refits with it on and compares.

use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard, PoisonError};

use multiclust_core::measures::diss::{
    adjusted_rand_index, jaccard_index, normalized_mutual_information, rand_index,
    variation_of_information,
};
use multiclust_core::Clustering;
use multiclust_data::{seeded_rng, Dataset};
use multiclust_linalg::{block, kernels};
use multiclust_telemetry::{alloc, trace};
use rand::Rng;
use serde::Value;

use crate::families::{AlgorithmFamily, FitInput};
use crate::fault::Fault;
use crate::scenario::Scenario;

/// Everything an invariant check sees: the scenario, the family's
/// baseline output on it, the seed, and the fault being injected (if any).
pub struct CheckContext<'a> {
    /// The scenario under check.
    pub scenario: &'a Scenario,
    /// The family's canonical output at `seed` (computed once per pair).
    pub baseline: &'a [Clustering],
    /// Master seed of the run.
    pub seed: u64,
    /// Active fault injection.
    pub fault: Option<Fault>,
}

/// One metamorphic contract, checkable against any family × scenario.
pub trait Invariant {
    /// Stable identifier (report key; faults target these names).
    fn name(&self) -> &'static str;
    /// Whether the contract is claimed for this family on this scenario.
    fn applies(&self, family: &dyn AlgorithmFamily, scenario: &Scenario) -> bool;
    /// Runs the check; `Err` carries the violation detail.
    fn check(&self, family: &dyn AlgorithmFamily, ctx: &CheckContext) -> Result<(), String>;
}

/// The full registry, in report order.
pub fn registry() -> Vec<Box<dyn Invariant>> {
    vec![
        Box::new(PartitionValidity),
        Box::new(Determinism),
        Box::new(KnobInvariance(Knob::Threads)),
        Box::new(KnobInvariance(Knob::Telemetry)),
        Box::new(PointPermutation),
        Box::new(TranslationInvariance),
        Box::new(ScaleInvariance),
        Box::new(DuplicateConsistency),
        Box::new(MeasureLabelPermutation),
        Box::new(MeasureSelfIdentity),
        Box::new(DissSymmetry),
        Box::new(DissBounds),
        Box::new(KnobInvariance(Knob::Kernels)),
        Box::new(KnobInvariance(Knob::Trace)),
        Box::new(KnobInvariance(Knob::Alloc)),
        Box::new(ServeEquivalence),
    ]
}

// ---------------------------------------------------------------------
// Shared helpers
// ---------------------------------------------------------------------

fn fit_with(
    family: &dyn AlgorithmFamily,
    scenario: &Scenario,
    data: &Dataset,
    given: &Clustering,
    seed: u64,
) -> Vec<Clustering> {
    family.fit(&FitInput {
        data,
        given,
        view_groups: &scenario.view_groups,
        k: scenario.k,
        seed,
    })
}

fn same_partition(a: &Clustering, b: &Clustering) -> bool {
    a.canonicalized() == b.canonicalized()
}

/// Bijectively matches two solution sets as partitions (order-free).
fn partitions_match(found: &[Clustering], expected: &[Clustering]) -> Result<(), String> {
    if found.len() != expected.len() {
        return Err(format!(
            "solution count changed: {} vs {}",
            found.len(),
            expected.len()
        ));
    }
    let mut used = vec![false; expected.len()];
    for (i, f) in found.iter().enumerate() {
        let hit = expected
            .iter()
            .enumerate()
            .position(|(j, e)| !used[j] && same_partition(f, e));
        match hit {
            Some(j) => used[j] = true,
            None => return Err(format!("solution {i} has no matching baseline partition")),
        }
    }
    Ok(())
}

/// Exact per-object, per-solution equality.
fn identical_solutions(a: &[Clustering], b: &[Clustering]) -> Result<(), String> {
    if a.len() != b.len() {
        return Err(format!("solution count differs: {} vs {}", a.len(), b.len()));
    }
    for (idx, (x, y)) in a.iter().zip(b).enumerate() {
        if x != y {
            let obj = (0..x.len().min(y.len()))
                .find(|&i| x.assignment(i) != y.assignment(i));
            return Err(match obj {
                Some(i) => format!("solution {idx} differs at object {i}"),
                None => format!("solution {idx} differs in shape"),
            });
        }
    }
    Ok(())
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-12 * a.abs().max(b.abs()).max(1.0)
}

/// Deterministic permutation of `0..n` derived from the run seed.
fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut rng = seeded_rng(seed ^ 0x9e37_79b9_7f4a_7c15);
    let mut perm: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        perm.swap(i, j);
    }
    perm
}

/// Relabels a clustering by a label permutation (`l → (l + 1) mod k`).
fn rotate_labels(c: &Clustering) -> Clustering {
    let k = c.num_clusters().max(1);
    Clustering::from_options(
        c.assignments()
            .iter()
            .map(|a| a.map(|l| (l + 1) % k))
            .collect(),
    )
}

// ---------------------------------------------------------------------
// 1. partition-validity
// ---------------------------------------------------------------------

/// Outputs are structurally valid partitions of the input objects.
pub struct PartitionValidity;

impl Invariant for PartitionValidity {
    fn name(&self) -> &'static str {
        "partition-validity"
    }
    fn applies(&self, _: &dyn AlgorithmFamily, _: &Scenario) -> bool {
        true
    }
    fn check(&self, _family: &dyn AlgorithmFamily, ctx: &CheckContext) -> Result<(), String> {
        let n = ctx.scenario.dataset.len();
        let mut solutions: Vec<Clustering> = ctx.baseline.to_vec();
        if ctx.fault == Some(Fault::TruncateOutput) {
            if let Some(first) = solutions.first_mut() {
                let mut a = first.assignments().to_vec();
                a.pop();
                *first = Clustering::from_options(a);
            }
        }
        for (idx, c) in solutions.iter().enumerate() {
            if c.len() != n {
                return Err(format!(
                    "solution {idx} covers {} objects, dataset has {n}",
                    c.len()
                ));
            }
            for (i, a) in c.assignments().iter().enumerate() {
                if let Some(l) = a {
                    if *l >= c.num_clusters() {
                        return Err(format!(
                            "solution {idx}: object {i} labelled {l} ≥ k = {}",
                            c.num_clusters()
                        ));
                    }
                }
            }
            let assigned: usize = c.sizes().iter().sum();
            if assigned + c.num_noise() != c.len() {
                return Err(format!("solution {idx}: sizes + noise ≠ n"));
            }
            let canon = c.canonicalized();
            if canon.canonicalized() != canon {
                return Err(format!("solution {idx}: canonicalisation not idempotent"));
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// 2. determinism
// ---------------------------------------------------------------------

/// Re-running with the same seed reproduces every label bit-for-bit.
pub struct Determinism;

impl Invariant for Determinism {
    fn name(&self) -> &'static str {
        "determinism"
    }
    fn applies(&self, _: &dyn AlgorithmFamily, _: &Scenario) -> bool {
        true
    }
    fn check(&self, family: &dyn AlgorithmFamily, ctx: &CheckContext) -> Result<(), String> {
        let s = ctx.scenario;
        let mut second = fit_with(family, s, &s.dataset, &s.given, ctx.seed);
        if ctx.fault == Some(Fault::RelabelSecondRun) {
            if let Some(first) = second.first_mut() {
                let mut a = first.assignments().to_vec();
                if let Some(slot) = a.first_mut() {
                    let k = first.num_clusters().max(1);
                    *slot = Some(slot.map_or(0, |l| (l + 1) % k.max(2)));
                }
                *first = Clustering::from_options(a);
            }
        }
        identical_solutions(ctx.baseline, &second)
    }
}

// ---------------------------------------------------------------------
// 5. point-permutation
// ---------------------------------------------------------------------

/// Shuffling the objects must not change the discovered partitions
/// (up to relabelling and solution order).
pub struct PointPermutation;

impl Invariant for PointPermutation {
    fn name(&self) -> &'static str {
        "point-permutation"
    }
    fn applies(&self, family: &dyn AlgorithmFamily, scenario: &Scenario) -> bool {
        family.guarantees().permutation
            && scenario.well_separated
            && scenario.duplicate_groups.is_empty()
    }
    fn check(&self, family: &dyn AlgorithmFamily, ctx: &CheckContext) -> Result<(), String> {
        let s = ctx.scenario;
        let n = s.dataset.len();
        let perm = permutation(n, ctx.seed);
        let mut rows = Vec::with_capacity(n);
        let mut given = Vec::with_capacity(n);
        for &src in &perm {
            rows.push(s.dataset.row(src).to_vec());
            given.push(s.given.assignment(src));
        }
        let permuted_data = Dataset::from_rows(&rows);
        let permuted_given = Clustering::from_options(given);
        let permuted_out = fit_with(family, s, &permuted_data, &permuted_given, ctx.seed);

        // Map each permuted solution back to original object order.
        let mut inverse = vec![0usize; n];
        for (j, &src) in perm.iter().enumerate() {
            inverse[src] = j;
        }
        let unpermuted: Vec<Clustering> = permuted_out
            .iter()
            .map(|c| {
                Clustering::from_options(
                    (0..n).map(|i| c.assignment(inverse[i])).collect(),
                )
            })
            .collect();
        partitions_match(&unpermuted, ctx.baseline)
            .map_err(|e| format!("after point permutation: {e}"))
    }
}

// ---------------------------------------------------------------------
// 6 + 7. translation / scale invariance
// ---------------------------------------------------------------------

fn transformed_check(
    family: &dyn AlgorithmFamily,
    ctx: &CheckContext,
    label: &str,
    f: impl Fn(usize, f64) -> f64,
    exact: bool,
) -> Result<(), String> {
    let s = ctx.scenario;
    let mut rows = Vec::with_capacity(s.dataset.len());
    for row in s.dataset.rows() {
        rows.push(
            row.iter()
                .enumerate()
                .map(|(j, &x)| f(j, x))
                .collect::<Vec<f64>>(),
        );
    }
    let data = Dataset::from_rows(&rows);
    let out = fit_with(family, s, &data, &s.given, ctx.seed);
    if exact {
        identical_solutions(&out, ctx.baseline).map_err(|e| format!("after {label}: {e}"))
    } else {
        partitions_match(&out, ctx.baseline).map_err(|e| format!("after {label}: {e}"))
    }
}

/// Adding a constant vector to every object leaves the partitions alone
/// for distance-based families.
pub struct TranslationInvariance;

/// Per-dimension translation offsets (powers of two, cycled).
const TRANSLATION: [f64; 4] = [16.0, -32.0, 8.0, -4.0];

impl Invariant for TranslationInvariance {
    fn name(&self) -> &'static str {
        "translation-invariance"
    }
    fn applies(&self, family: &dyn AlgorithmFamily, scenario: &Scenario) -> bool {
        family.guarantees().translation && scenario.well_separated
    }
    fn check(&self, family: &dyn AlgorithmFamily, ctx: &CheckContext) -> Result<(), String> {
        transformed_check(
            family,
            ctx,
            "translation",
            |j, x| x + TRANSLATION[j % TRANSLATION.len()],
            false,
        )
    }
}

/// Multiplying every coordinate by 2 — exact in IEEE arithmetic — must
/// reproduce the solutions bit-for-bit for distance-ratio-based families.
pub struct ScaleInvariance;

impl Invariant for ScaleInvariance {
    fn name(&self) -> &'static str {
        "scale-invariance"
    }
    fn applies(&self, family: &dyn AlgorithmFamily, _: &Scenario) -> bool {
        family.guarantees().scaling
    }
    fn check(&self, family: &dyn AlgorithmFamily, ctx: &CheckContext) -> Result<(), String> {
        transformed_check(family, ctx, "×2 scaling", |_, x| x * 2.0, true)
    }
}

// ---------------------------------------------------------------------
// 8. duplicate-consistency
// ---------------------------------------------------------------------

/// Bit-identical objects are indistinguishable to a deterministic
/// assignment rule, so they must share a label in every solution.
pub struct DuplicateConsistency;

impl Invariant for DuplicateConsistency {
    fn name(&self) -> &'static str {
        "duplicate-consistency"
    }
    fn applies(&self, family: &dyn AlgorithmFamily, scenario: &Scenario) -> bool {
        family.guarantees().duplicates && !scenario.duplicate_groups.is_empty()
    }
    fn check(&self, _family: &dyn AlgorithmFamily, ctx: &CheckContext) -> Result<(), String> {
        for (idx, c) in ctx.baseline.iter().enumerate() {
            for group in &ctx.scenario.duplicate_groups {
                let first = c.assignment(group[0]);
                for &i in &group[1..] {
                    if c.assignment(i) != first {
                        return Err(format!(
                            "solution {idx}: duplicates {} and {} labelled {:?} vs {:?}",
                            group[0],
                            i,
                            first,
                            c.assignment(i)
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// 9. measure-label-permutation
// ---------------------------------------------------------------------

/// All `Diss` measures see partitions, not label names: relabelling a
/// solution must not move any index.
pub struct MeasureLabelPermutation;

impl Invariant for MeasureLabelPermutation {
    fn name(&self) -> &'static str {
        "measure-label-permutation"
    }
    fn applies(&self, _: &dyn AlgorithmFamily, _: &Scenario) -> bool {
        true
    }
    fn check(&self, _family: &dyn AlgorithmFamily, ctx: &CheckContext) -> Result<(), String> {
        let given = &ctx.scenario.given;
        for (idx, c) in ctx.baseline.iter().enumerate() {
            let r = rotate_labels(c);
            let pairs: [(&str, f64, f64); 5] = [
                ("rand_index", rand_index(c, given), rand_index(&r, given)),
                (
                    "adjusted_rand_index",
                    adjusted_rand_index(c, given),
                    adjusted_rand_index(&r, given),
                ),
                ("jaccard_index", jaccard_index(c, given), jaccard_index(&r, given)),
                (
                    "normalized_mutual_information",
                    normalized_mutual_information(c, given),
                    normalized_mutual_information(&r, given),
                ),
                (
                    "variation_of_information",
                    variation_of_information(c, given),
                    variation_of_information(&r, given),
                ),
            ];
            for (name, a, b) in pairs {
                if !close(a, b) {
                    return Err(format!(
                        "solution {idx}: {name} moved under relabelling: {a} vs {b}"
                    ));
                }
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// 10. measure-self-identity
// ---------------------------------------------------------------------

/// Comparing a solution with itself must saturate every agreement index.
pub struct MeasureSelfIdentity;

impl Invariant for MeasureSelfIdentity {
    fn name(&self) -> &'static str {
        "measure-self-identity"
    }
    fn applies(&self, _: &dyn AlgorithmFamily, _: &Scenario) -> bool {
        true
    }
    fn check(&self, _family: &dyn AlgorithmFamily, ctx: &CheckContext) -> Result<(), String> {
        for (idx, c) in ctx.baseline.iter().enumerate() {
            let checks = [
                ("rand_index", rand_index(c, c), 1.0),
                ("adjusted_rand_index", adjusted_rand_index(c, c), 1.0),
                ("jaccard_index", jaccard_index(c, c), 1.0),
                (
                    "normalized_mutual_information",
                    normalized_mutual_information(c, c),
                    1.0,
                ),
                ("variation_of_information", variation_of_information(c, c), 0.0),
            ];
            for (name, got, want) in checks {
                if !close(got, want) {
                    return Err(format!(
                        "solution {idx}: {name}(C, C) = {got}, expected {want}"
                    ));
                }
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// 11 + 12. Diss-matrix symmetry and bounds
// ---------------------------------------------------------------------

/// All partitions in play for the pairwise `Diss` checks: the family's
/// solutions plus the scenario's reference clustering.
fn all_partitions(ctx: &CheckContext) -> Vec<Clustering> {
    let mut all = ctx.baseline.to_vec();
    all.push(ctx.scenario.given.clone());
    all
}

/// The pairwise dissimilarity matrix is symmetric with a zero diagonal.
pub struct DissSymmetry;

impl Invariant for DissSymmetry {
    fn name(&self) -> &'static str {
        "diss-symmetry"
    }
    fn applies(&self, _: &dyn AlgorithmFamily, _: &Scenario) -> bool {
        true
    }
    fn check(&self, _family: &dyn AlgorithmFamily, ctx: &CheckContext) -> Result<(), String> {
        let all = all_partitions(ctx);
        let m = all.len();
        // Diss as 1 − RI (pair counting) and VI (information theoretic).
        for (label, diss) in [
            ("1−rand_index", &(|a: &Clustering, b: &Clustering| 1.0 - rand_index(a, b))
                as &dyn Fn(&Clustering, &Clustering) -> f64),
            ("variation_of_information", &variation_of_information),
        ] {
            let mut matrix = vec![vec![0.0; m]; m];
            for (i, a) in all.iter().enumerate() {
                for (j, b) in all.iter().enumerate() {
                    matrix[i][j] = diss(a, b);
                }
            }
            if ctx.fault == Some(Fault::AsymmetricDiss) && m > 1 {
                matrix[0][1] += 1e-3;
            }
            for (i, row) in matrix.iter().enumerate() {
                if !close(row[i], 0.0) {
                    return Err(format!("{label}: diagonal [{i}][{i}] = {}", row[i]));
                }
                for (j, &x) in row.iter().enumerate().skip(i + 1) {
                    if !close(x, matrix[j][i]) {
                        return Err(format!(
                            "{label}: matrix[{i}][{j}] = {x} ≠ matrix[{j}][{i}] = {}",
                            matrix[j][i]
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

/// Every index stays inside its documented range and is finite — on
/// adversarial inputs (constant features, extreme scales) as much as on
/// clean ones.
pub struct DissBounds;

impl Invariant for DissBounds {
    fn name(&self) -> &'static str {
        "diss-bounds"
    }
    fn applies(&self, _: &dyn AlgorithmFamily, _: &Scenario) -> bool {
        true
    }
    fn check(&self, _family: &dyn AlgorithmFamily, ctx: &CheckContext) -> Result<(), String> {
        let all = all_partitions(ctx);
        let n = ctx.scenario.dataset.len().max(2) as f64;
        let vi_max = 2.0 * n.ln() + 1e-9;
        let eps = 1e-12;
        for (i, a) in all.iter().enumerate() {
            for (j, b) in all.iter().enumerate() {
                let mut unit = vec![
                    ("rand_index", rand_index(a, b)),
                    ("jaccard_index", jaccard_index(a, b)),
                    ("normalized_mutual_information", normalized_mutual_information(a, b)),
                ];
                if ctx.fault == Some(Fault::OutOfBoundsMeasure) {
                    unit.push(("injected_index", 1.5));
                }
                for (name, v) in unit {
                    if !v.is_finite() || !(-eps..=1.0 + eps).contains(&v) {
                        return Err(format!("{name}(C{i}, C{j}) = {v} outside [0, 1]"));
                    }
                }
                let ari = adjusted_rand_index(a, b);
                if !ari.is_finite() || !(-1.0 - eps..=1.0 + eps).contains(&ari) {
                    return Err(format!("adjusted_rand_index(C{i}, C{j}) = {ari} outside [−1, 1]"));
                }
                let vi = variation_of_information(a, b);
                if !vi.is_finite() || !(-eps..=vi_max).contains(&vi) {
                    return Err(format!(
                        "variation_of_information(C{i}, C{j}) = {vi} outside [0, {vi_max}]"
                    ));
                }
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// 3, 4, 13, 14, 15. knob invariance: threads, telemetry, kernels, trace,
// alloc
// ---------------------------------------------------------------------

/// A process-global switch the solutions must be blind to. Each paradigm
/// is a pure function of data, reference clustering and seed (slide 27),
/// so how a fit is scheduled, computed or observed must not move a label.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Knob {
    /// One worker vs four (`MULTICLUST_THREADS`).
    Threads,
    /// Telemetry off vs on (`MULTICLUST_TELEMETRY`).
    Telemetry,
    /// No trace sink vs a temp-file sink with telemetry on (`--trace`);
    /// the file must be a well-formed trace.
    Trace,
    /// Allocation accounting off vs on (`MULTICLUST_ALLOC`); the on run
    /// must count allocations.
    Alloc,
    /// The naive oracle vs the blocked kernels (`MULTICLUST_KERNELS`); the
    /// raw distance matrix and pruned assignment must match the oracle too.
    Kernels,
}

impl Knob {
    /// The invariant this knob's row reports as.
    pub(crate) fn invariant(self) -> &'static str {
        match self {
            Knob::Threads => "thread-invariance",
            Knob::Telemetry => "telemetry-invariance",
            Knob::Trace => "trace-invariance",
            Knob::Alloc => "alloc-invariance",
            Knob::Kernels => "kernel-equivalence",
        }
    }

    /// CLI name of the fault that perturbs this knob's on run.
    pub(crate) fn fault(self) -> &'static str {
        match self {
            Knob::Threads => "thread-perturbs-rng",
            Knob::Telemetry => "telemetry-perturbs-rng",
            Knob::Trace => "trace-perturbs-rng",
            Knob::Alloc => "alloc-perturbs-rng",
            Knob::Kernels => "desync-kernels",
        }
    }

    /// Prefix of a violation where the two runs' labels differ.
    fn moved(self) -> &'static str {
        match self {
            Knob::Threads => "thread count moved labels",
            Knob::Telemetry => "telemetry moved labels",
            Knob::Trace => "tracing moved labels",
            Knob::Alloc => "allocation accounting moved labels",
            Knob::Kernels => "blocked vs naive kernels",
        }
    }

    /// Pins the knob off or on; `sink` is the trace row's file.
    fn pin(self, on: bool, sink: &Path) -> Result<(), String> {
        match self {
            Knob::Threads => multiclust_parallel::set_threads(if on { 4 } else { 1 }),
            Knob::Telemetry => multiclust_telemetry::set_enabled(on),
            Knob::Trace => {
                trace::set_trace_path(on.then_some(sink))
                    .map_err(|e| format!("cannot open trace sink: {e}"))?;
                multiclust_telemetry::set_enabled(on);
            }
            Knob::Alloc => alloc::set_alloc_enabled(on),
            Knob::Kernels => kernels::set_kernel_mode(Some(if on {
                kernels::KernelMode::Blocked
            } else {
                kernels::KernelMode::Naive
            })),
        }
        Ok(())
    }

    /// The row's own check of the on run, made while the knob is still
    /// on; `allocs` is the allocation count before that run.
    fn check_on(self, s: &Scenario, sink: &Path, allocs: u64) -> Result<(), String> {
        match self {
            Knob::Threads | Knob::Telemetry => Ok(()),
            Knob::Trace => {
                trace::flush_trace();
                let parsed = trace::read_trace(sink);
                let _ = std::fs::remove_file(sink);
                let parsed = parsed.map_err(|e| format!("trace does not parse: {e}"))?;
                if !parsed.ended {
                    return Err("trace missing the end line (flush incomplete)".to_string());
                }
                if parsed.records.is_empty() {
                    return Err("trace recorded no spans or events for the fit".to_string());
                }
                Ok(())
            }
            Knob::Alloc if alloc::alloc_totals().count <= allocs => {
                Err("accounting was on but counted no allocations during the fit".into())
            }
            Knob::Alloc => Ok(()),
            Knob::Kernels => kernels_match_reference(s),
        }
    }
}

/// Kernel level: the shared distance matrix against the naive double loop,
/// and a cold plus three warm assignment passes against the exhaustive
/// scan.
fn kernels_match_reference(s: &Scenario) -> Result<(), String> {
    let d = s.dataset.dims();
    let flat = s.dataset.as_slice();
    let naive_matrix = kernels::reference::sq_dist_matrix(d, flat);
    let matrix = kernels::sq_dist_matrix(d, flat);
    if matrix != naive_matrix {
        let bad = matrix
            .values()
            .iter()
            .zip(naive_matrix.values())
            .position(|(a, b)| a != b);
        return Err(format!(
            "blocked distance matrix diverges from the naive double loop \
             at condensed entry {bad:?}"
        ));
    }
    // At least one SIMD stripe of centres: past the assigner's sweep/Hamerly
    // crossover, so after the cold sweep the drifted passes below run the
    // warm Hamerly test and its exact panel-row scans.
    let n = s.dataset.len();
    let k = s.k.max(block::STRIPE).min(n);
    let mut centers: Vec<Vec<f64>> = (0..k).map(|c| s.dataset.row(c).to_vec()).collect();
    let spread = flat.iter().fold(0.0f64, |m, x| m.max(x.abs()));
    // One packed copy of the points for every pass, as a fit keeps.
    let points = kernels::PackedPoints::new(d, flat);
    let mut assigner = kernels::NearestAssign::new(n);
    for pass in 0..4 {
        assigner.assign_packed(&points, &centers);
        for i in 0..n {
            let want = kernels::reference::nearest(s.dataset.row(i), &centers).0;
            if assigner.labels()[i] != want {
                return Err(format!(
                    "blocked assignment pass {pass} diverges from the exhaustive \
                     scan at object {i}"
                ));
            }
        }
        // Drift every centre coordinate by up to 0.2% of the data's
        // spread, in a fixed pattern: small enough that the next pass
        // mostly keeps its bounds (skips, tightenings and full scans)
        // instead of bypassing them.
        for (c, center) in centers.iter_mut().enumerate() {
            for (t, x) in center.iter_mut().enumerate() {
                *x += 0.001 * spread * (((c * 7 + t * 3 + pass) % 5) as f64 - 2.0);
            }
        }
    }
    Ok(())
}

/// The one lock and restore guard of the knob rows. Every knob is
/// process-global, so rows run one at a time and put back what they
/// found: threads and kernel mode return to their defaults, and an outer
/// `--trace` sink is reopened in append mode so it is not truncated.
struct KnobGuard {
    _lock: MutexGuard<'static, ()>,
    telemetry: bool,
    alloc: bool,
    sink: Option<PathBuf>,
}

impl KnobGuard {
    fn take() -> Self {
        static LOCK: Mutex<()> = Mutex::new(());
        let lock = LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        Self {
            _lock: lock,
            telemetry: multiclust_telemetry::enabled(),
            alloc: alloc::alloc_enabled(),
            sink: trace::trace_path(),
        }
    }
}

impl Drop for KnobGuard {
    fn drop(&mut self) {
        multiclust_parallel::set_threads(0);
        kernels::set_kernel_mode(None);
        if trace::trace_path() != self.sink {
            let _ = trace::open_trace(self.sink.as_deref(), true);
        }
        multiclust_telemetry::set_enabled(self.telemetry);
        alloc::set_alloc_enabled(self.alloc);
    }
}

/// One knob row: fit with the knob pinned off, refit with it on, and
/// require bit-identical solutions plus the row's own check of the on run.
pub struct KnobInvariance(pub Knob);

impl Invariant for KnobInvariance {
    fn name(&self) -> &'static str {
        self.0.invariant()
    }
    fn applies(&self, _: &dyn AlgorithmFamily, _: &Scenario) -> bool {
        true
    }
    fn check(&self, family: &dyn AlgorithmFamily, ctx: &CheckContext) -> Result<(), String> {
        let knob = self.0;
        let s = ctx.scenario;
        let sink = std::env::temp_dir().join(format!(
            "multiclust-trace-invariance-{}-{}-{}.jsonl",
            std::process::id(),
            family.name(),
            s.name
        ));
        let _guard = KnobGuard::take();
        knob.pin(false, &sink)?;
        let off = fit_with(family, s, &s.dataset, &s.given, ctx.seed);
        knob.pin(true, &sink)?;
        // The fault models a knob that consumes randomness: the on run
        // sees a perturbed seed and must come back different.
        let seed = if ctx.fault == Some(Fault::KnobPerturbsRng(knob)) {
            ctx.seed ^ 1
        } else {
            ctx.seed
        };
        let allocs = alloc::alloc_totals().count;
        let on = fit_with(family, s, &s.dataset, &s.given, seed);
        let on_check = knob.check_on(s, &sink, allocs);
        identical_solutions(&off, &on).map_err(|e| format!("{}: {e}", knob.moved()))?;
        on_check
    }
}

// ---------------------------------------------------------------------
// 16. serve-equivalence
// ---------------------------------------------------------------------

/// The serving layer is a transport, not a participant: a `fit` through
/// the `multiclust-serve/v1` protocol (in-process server, ephemeral
/// localhost socket, same seed and thread settings) must reproduce the
/// in-process fit bit-for-bit. This is the contract that makes a
/// resident `multiclust serve` answer indistinguishable from a CLI run.
pub struct ServeEquivalence;

impl Invariant for ServeEquivalence {
    fn name(&self) -> &'static str {
        "serve-equivalence"
    }
    fn applies(&self, _: &dyn AlgorithmFamily, _: &Scenario) -> bool {
        true
    }
    fn check(&self, family: &dyn AlgorithmFamily, ctx: &CheckContext) -> Result<(), String> {
        let s = ctx.scenario;
        // The fault models a serving layer that consumes or re-derives
        // randomness: the served fit sees a perturbed seed and must come
        // back different from the baseline.
        let seed = if ctx.fault == Some(Fault::ServePerturbsRng) {
            ctx.seed ^ 1
        } else {
            ctx.seed
        };
        let request = serve_fit_request(family.name(), s, seed);
        let line = crate::service::shared_server_roundtrip(&request)?;
        let served = parse_served_solutions(&line)?;
        identical_solutions(&served, ctx.baseline)
            .map_err(|e| format!("served fit diverged from the in-process fit: {e}"))
    }
}

/// Renders a protocol `fit` request carrying the scenario's exact inputs
/// (floats print shortest-roundtrip, so the server refits the identical
/// bits).
fn serve_fit_request(family: &str, s: &Scenario, seed: u64) -> String {
    let rows = Value::Array(
        s.dataset
            .rows()
            .map(|r| Value::Array(r.iter().map(|&x| Value::Float(x)).collect()))
            .collect(),
    );
    let given = Value::Array(
        s.given
            .assignments()
            .iter()
            .map(|a| Value::Int(a.map_or(-1, |l| l as i64)))
            .collect(),
    );
    let views = Value::Array(
        s.view_groups
            .iter()
            .map(|g| Value::Array(g.iter().map(|&d| Value::Int(d as i64)).collect()))
            .collect(),
    );
    let req = Value::Object(vec![
        ("id".to_string(), Value::String(format!("serve-eq-{family}-{}", s.name))),
        ("op".to_string(), Value::String("fit".to_string())),
        ("model".to_string(), Value::String(format!("serve-eq-{family}"))),
        ("family".to_string(), Value::String(family.to_string())),
        ("k".to_string(), Value::Int(s.k as i64)),
        ("seed".to_string(), Value::Int(seed as i64)),
        ("data".to_string(), rows),
        ("given".to_string(), given),
        ("views".to_string(), views),
    ]);
    serde_json::to_string(&req).expect("fit request serializes")
}

/// Extracts the solution labellings from a `fit` response line.
fn parse_served_solutions(line: &str) -> Result<Vec<Clustering>, String> {
    let v = serde_json::parse_value(line)
        .map_err(|e| format!("serve response does not parse: {e}"))?;
    let Value::Object(obj) = v else {
        return Err("serve response is not a JSON object".to_string());
    };
    let get = |k: &str| obj.iter().find(|(key, _)| key == k).map(|(_, v)| v);
    if !matches!(get("ok"), Some(Value::Bool(true))) {
        return Err(format!("server rejected the fit: {line}"));
    }
    let Some(Value::Array(solutions)) = get("solutions") else {
        return Err("serve response carries no solutions array".to_string());
    };
    solutions
        .iter()
        .map(|sol| {
            let Value::Array(labels) = sol else {
                return Err("served solution is not a label array".to_string());
            };
            let opts = labels
                .iter()
                .map(|l| match l {
                    Value::Int(v) if *v >= 0 => Ok(Some(*v as usize)),
                    Value::Int(_) => Ok(None),
                    other => Err(format!("served label is not an integer: {other:?}")),
                })
                .collect::<Result<Vec<_>, String>>()?;
            Ok(Clustering::from_options(opts))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_at_least_ten() {
        let reg = registry();
        assert!(reg.len() >= 10, "need at least 10 invariants, have {}", reg.len());
        let mut names: Vec<&str> = reg.iter().map(|i| i.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), reg.len());
    }

    #[test]
    fn every_fault_targets_a_registered_invariant() {
        let reg = registry();
        for &f in Fault::all() {
            assert!(
                reg.iter().any(|i| i.name() == f.targeted_invariant()),
                "fault {} targets unknown invariant {}",
                f.name(),
                f.targeted_invariant()
            );
        }
    }

    #[test]
    fn permutation_is_deterministic_and_bijective() {
        let p1 = permutation(50, 7);
        let p2 = permutation(50, 7);
        assert_eq!(p1, p2);
        let mut sorted = p1.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(p1, sorted, "seeded shuffle must actually move objects");
    }

    #[test]
    fn rotate_labels_preserves_partition_structure() {
        let c = Clustering::from_labels(&[0, 0, 1, 1, 2]);
        let r = rotate_labels(&c);
        assert_eq!(rand_index(&c, &r), 1.0);
        assert_ne!(c.assignments(), r.assignments());
    }
}
