//! The metamorphic invariant registry.
//!
//! Every invariant states one mathematical contract of the paper's
//! problem definition (slide 27) — validity of the produced partitions,
//! determinism of the whole pipeline, invariance of the partitions under
//! benign input transformations, and symmetry/bounds/relabelling-blindness
//! of the `Q`/`Diss` measures — and checks it against a family's actual
//! output on a scenario. Checks are pure functions of `(family, scenario,
//! seed)`, so a red result is replayable bit-for-bit.

use multiclust_core::measures::diss::{
    adjusted_rand_index, jaccard_index, normalized_mutual_information, rand_index,
    variation_of_information,
};
use multiclust_core::Clustering;
use multiclust_data::{seeded_rng, Dataset};
use multiclust_linalg::kernels;
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
    /// One-line statement of the contract.
    fn description(&self) -> &'static str;
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
        Box::new(ThreadInvariance),
        Box::new(TelemetryInvariance),
        Box::new(PointPermutation),
        Box::new(TranslationInvariance),
        Box::new(ScaleInvariance),
        Box::new(DuplicateConsistency),
        Box::new(MeasureLabelPermutation),
        Box::new(MeasureSelfIdentity),
        Box::new(DissSymmetry),
        Box::new(DissBounds),
        Box::new(KernelEquivalence),
        Box::new(TraceInvariance),
        Box::new(AllocInvariance),
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
    fn description(&self) -> &'static str {
        "every solution assigns all n objects to labels < k; canonicalisation is idempotent"
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
    fn description(&self) -> &'static str {
        "same seed ⇒ bit-identical solutions"
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
// 3. thread-invariance
// ---------------------------------------------------------------------

/// Serialises thread-count pinning: the override is process-global.
fn with_threads<T>(threads: usize, f: impl FnOnce() -> T) -> T {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    let _guard = LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    struct Restore;
    impl Drop for Restore {
        fn drop(&mut self) {
            multiclust_parallel::set_threads(0);
        }
    }
    let _restore = Restore;
    multiclust_parallel::set_threads(threads);
    f()
}

/// One worker or four: the deterministic-parallelism contract of
/// `multiclust-parallel`, extended end-to-end over every family.
pub struct ThreadInvariance;

impl Invariant for ThreadInvariance {
    fn name(&self) -> &'static str {
        "thread-invariance"
    }
    fn description(&self) -> &'static str {
        "solutions are bit-identical under MULTICLUST_THREADS=1 and =4"
    }
    fn applies(&self, _: &dyn AlgorithmFamily, _: &Scenario) -> bool {
        true
    }
    fn check(&self, family: &dyn AlgorithmFamily, ctx: &CheckContext) -> Result<(), String> {
        let s = ctx.scenario;
        let serial = with_threads(1, || fit_with(family, s, &s.dataset, &s.given, ctx.seed));
        let parallel = with_threads(4, || fit_with(family, s, &s.dataset, &s.given, ctx.seed));
        identical_solutions(&serial, &parallel)
    }
}

// ---------------------------------------------------------------------
// 4. telemetry-invariance
// ---------------------------------------------------------------------

/// Instrumentation observes, never participates: enabling telemetry must
/// not move a single label.
pub struct TelemetryInvariance;

impl Invariant for TelemetryInvariance {
    fn name(&self) -> &'static str {
        "telemetry-invariance"
    }
    fn description(&self) -> &'static str {
        "solutions are bit-identical with telemetry on and off"
    }
    fn applies(&self, _: &dyn AlgorithmFamily, _: &Scenario) -> bool {
        true
    }
    fn check(&self, family: &dyn AlgorithmFamily, ctx: &CheckContext) -> Result<(), String> {
        let s = ctx.scenario;
        let was_on = multiclust_telemetry::enabled();
        struct Restore(bool);
        impl Drop for Restore {
            fn drop(&mut self) {
                multiclust_telemetry::set_enabled(self.0);
            }
        }
        let _restore = Restore(was_on);
        multiclust_telemetry::set_enabled(false);
        let off = fit_with(family, s, &s.dataset, &s.given, ctx.seed);
        multiclust_telemetry::set_enabled(true);
        let on = fit_with(family, s, &s.dataset, &s.given, ctx.seed);
        identical_solutions(&off, &on)
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
    fn description(&self) -> &'static str {
        "permuting the objects yields the permuted partitions"
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
    fn description(&self) -> &'static str {
        "translating all objects by a constant vector preserves the partitions"
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
    fn description(&self) -> &'static str {
        "scaling all coordinates by 2.0 reproduces the solutions bit-for-bit"
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
    fn description(&self) -> &'static str {
        "bit-identical objects receive identical assignments"
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
    fn description(&self) -> &'static str {
        "RI/ARI/Jaccard/NMI/VI are invariant under relabelling either argument"
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
    fn description(&self) -> &'static str {
        "Diss(C, C) is the identity extreme of every measure"
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
    fn description(&self) -> &'static str {
        "Diss(Ci, Cj) = Diss(Cj, Ci) and Diss(Ci, Ci) = 0 over all solutions"
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
            for i in 0..m {
                if !close(matrix[i][i], 0.0) {
                    return Err(format!("{label}: diagonal [{i}][{i}] = {}", matrix[i][i]));
                }
                for j in (i + 1)..m {
                    if !close(matrix[i][j], matrix[j][i]) {
                        return Err(format!(
                            "{label}: matrix[{i}][{j}] = {} ≠ matrix[{j}][{i}] = {}",
                            matrix[i][j], matrix[j][i]
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
    fn description(&self) -> &'static str {
        "RI, Jaccard, NMI ∈ [0,1]; ARI ∈ [−1,1]; VI ∈ [0, 2·ln n]; all finite"
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
// 13. kernel-equivalence
// ---------------------------------------------------------------------

/// Serialises kernel-mode pinning: the override is process-global. Both
/// modes are bit-identical by contract, so a concurrent fit observing the
/// override is correctness-neutral; the lock only keeps this check's two
/// runs cleanly paired.
fn with_kernel_mode<T>(mode: kernels::KernelMode, f: impl FnOnce() -> T) -> T {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    let _guard = LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    struct Restore;
    impl Drop for Restore {
        fn drop(&mut self) {
            kernels::set_kernel_mode(None);
        }
    }
    let _restore = Restore;
    kernels::set_kernel_mode(Some(mode));
    f()
}

/// The optimized distance engine is a pure refactor of results: end-to-end
/// solutions and raw kernel outputs are bit-identical to the naive
/// reference.
pub struct KernelEquivalence;

impl Invariant for KernelEquivalence {
    fn name(&self) -> &'static str {
        "kernel-equivalence"
    }
    fn description(&self) -> &'static str {
        "optimized kernels ≡ naive reference bit-for-bit (solutions, distance matrices, assignments)"
    }
    fn applies(&self, _: &dyn AlgorithmFamily, _: &Scenario) -> bool {
        true
    }
    fn check(&self, family: &dyn AlgorithmFamily, ctx: &CheckContext) -> Result<(), String> {
        let s = ctx.scenario;
        // End-to-end: the family's solutions under the blocked kernels
        // against the naive reference.
        let blocked = with_kernel_mode(kernels::KernelMode::Blocked, || {
            fit_with(family, s, &s.dataset, &s.given, ctx.seed)
        });
        let mut naive = with_kernel_mode(kernels::KernelMode::Naive, || {
            fit_with(family, s, &s.dataset, &s.given, ctx.seed)
        });
        if ctx.fault == Some(Fault::DesyncKernels) {
            if let Some(first) = naive.first_mut() {
                let mut a = first.assignments().to_vec();
                if let Some(slot) = a.first_mut() {
                    let k = first.num_clusters().max(1);
                    *slot = Some(slot.map_or(0, |l| (l + 1) % k.max(2)));
                }
                *first = Clustering::from_options(a);
            }
        }
        identical_solutions(&blocked, &naive)
            .map_err(|e| format!("blocked vs naive kernels: {e}"))?;

        // Kernel level: the shared distance matrix and the bound-pruned
        // assignment against the naive double loop / exhaustive scan.
        let d = s.dataset.dims();
        let flat = s.dataset.as_slice();
        let naive_matrix = kernels::reference::sq_dist_matrix(d, flat);
        let matrix = with_kernel_mode(kernels::KernelMode::Blocked, || {
            kernels::sq_dist_matrix(d, flat)
        });
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
        let norms = kernels::sq_norms(d, flat);
        // At least PRUNE_MIN_K centres so the *pruned* scan (not the
        // small-k exhaustive fast path) is what gets compared.
        let k = s.k.max(kernels::PRUNE_MIN_K).min(s.dataset.len());
        let centers: Vec<Vec<f64>> =
            (0..k).map(|c| s.dataset.row(c).to_vec()).collect();
        let mut assigner = kernels::NearestAssign::new(s.dataset.len());
        with_kernel_mode(kernels::KernelMode::Blocked, || {
            assigner.assign(d, flat, &norms, &centers)
        });
        for i in 0..s.dataset.len() {
            let want = kernels::reference::nearest(s.dataset.row(i), &centers).0;
            if assigner.labels()[i] != want {
                return Err(format!(
                    "blocked pruned assignment diverges from the exhaustive scan \
                     at object {i}"
                ));
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// 14. trace-invariance
// ---------------------------------------------------------------------

/// The trace sink streams, never participates: running under an active
/// `MULTICLUST_TRACE` sink must reproduce every label bit-for-bit, and
/// the file it leaves behind must be a well-formed `multiclust-trace/v1`
/// document.
pub struct TraceInvariance;

impl Invariant for TraceInvariance {
    fn name(&self) -> &'static str {
        "trace-invariance"
    }
    fn description(&self) -> &'static str {
        "solutions are bit-identical with a trace sink attached, and the trace parses"
    }
    fn applies(&self, _: &dyn AlgorithmFamily, _: &Scenario) -> bool {
        true
    }
    fn check(&self, family: &dyn AlgorithmFamily, ctx: &CheckContext) -> Result<(), String> {
        use multiclust_telemetry::trace;
        // The sink and the telemetry switch are process-global; serialize
        // and restore both (an outer `--trace` sink is reopened in append
        // mode so this check does not truncate it).
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        let _guard = LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let s = ctx.scenario;
        let was_on = multiclust_telemetry::enabled();
        let outer_sink = trace::trace_path();
        struct Restore(bool, Option<std::path::PathBuf>);
        impl Drop for Restore {
            fn drop(&mut self) {
                let _ = trace::open_trace(self.1.as_deref(), true);
                multiclust_telemetry::set_enabled(self.0);
            }
        }
        let _restore = Restore(was_on, outer_sink);

        multiclust_telemetry::set_enabled(false);
        let _ = trace::set_trace_path(None);
        let untraced = fit_with(family, s, &s.dataset, &s.given, ctx.seed);

        let path = std::env::temp_dir().join(format!(
            "multiclust-trace-invariance-{}-{}-{}.jsonl",
            std::process::id(),
            family.name(),
            s.name
        ));
        trace::set_trace_path(Some(&path))
            .map_err(|e| format!("cannot open trace sink: {e}"))?;
        multiclust_telemetry::set_enabled(true);
        // The fault models instrumentation that consumes randomness: the
        // traced run sees a perturbed seed and must come back different.
        let seed = if ctx.fault == Some(Fault::TracePerturbsRng) {
            ctx.seed ^ 1
        } else {
            ctx.seed
        };
        let traced = fit_with(family, s, &s.dataset, &s.given, seed);
        trace::flush_trace();
        multiclust_telemetry::set_enabled(false);

        let parsed = trace::read_trace(&path);
        let _ = std::fs::remove_file(&path);

        identical_solutions(&untraced, &traced)
            .map_err(|e| format!("tracing moved labels: {e}"))?;
        let parsed = parsed.map_err(|e| format!("trace does not parse: {e}"))?;
        if !parsed.ended {
            return Err("trace missing the end line (flush incomplete)".to_string());
        }
        if parsed.spans.is_empty() && parsed.events.is_empty() {
            return Err("trace recorded no spans or events for the fit".to_string());
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// 15. alloc-invariance
// ---------------------------------------------------------------------

/// Allocation accounting observes, never participates: running with the
/// counting allocator switched on (`MULTICLUST_ALLOC=1`) must reproduce
/// every label bit-for-bit, while still recording that the fit allocated.
pub struct AllocInvariance;

impl Invariant for AllocInvariance {
    fn name(&self) -> &'static str {
        "alloc-invariance"
    }
    fn description(&self) -> &'static str {
        "solutions are bit-identical with allocation accounting on, and allocations are counted"
    }
    fn applies(&self, _: &dyn AlgorithmFamily, _: &Scenario) -> bool {
        true
    }
    fn check(&self, family: &dyn AlgorithmFamily, ctx: &CheckContext) -> Result<(), String> {
        use multiclust_telemetry::alloc;
        // The accounting switch is process-global; serialize and restore
        // it so an outer `MULTICLUST_ALLOC=1` run keeps counting.
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        let _guard = LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let s = ctx.scenario;
        struct Restore(bool);
        impl Drop for Restore {
            fn drop(&mut self) {
                alloc::set_alloc_enabled(self.0);
            }
        }
        let _restore = Restore(alloc::alloc_enabled());

        alloc::set_alloc_enabled(false);
        let plain = fit_with(family, s, &s.dataset, &s.given, ctx.seed);

        alloc::set_alloc_enabled(true);
        let before = alloc::alloc_totals().count;
        // The fault models an allocator hook that changes behaviour: the
        // counted run sees a perturbed seed and must come back different.
        let seed = if ctx.fault == Some(Fault::AllocPerturbsRng) {
            ctx.seed ^ 1
        } else {
            ctx.seed
        };
        let counted = fit_with(family, s, &s.dataset, &s.given, seed);
        let after = alloc::alloc_totals().count;
        alloc::set_alloc_enabled(false);

        identical_solutions(&plain, &counted)
            .map_err(|e| format!("allocation accounting moved labels: {e}"))?;
        if after <= before {
            return Err("accounting was on but counted no allocations during the fit".into());
        }
        Ok(())
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
    fn description(&self) -> &'static str {
        "a fit through the protocol server is bit-identical to the in-process fit"
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
