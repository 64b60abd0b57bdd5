//! Bottom-up subspace-lattice search with apriori monotonicity pruning
//! (slides 70–71).
//!
//! Grid- and density-based subspace methods share the same skeleton: start
//! from the 1-d subspaces, keep those satisfying a *monotone* predicate
//! ("contains a dense unit" / "contains a density-based cluster" /
//! "entropy below ω"), and generate `(k+1)`-dimensional candidates only
//! from surviving `k`-dimensional subspaces — higher-dimensional
//! projections of a failing subspace are pruned without a database scan,
//! exactly the apriori principle (Agrawal & Srikant 1994).
//!
//! The driver is generic over the predicate and counts evaluated/pruned
//! candidates (the E10 pruning-factor experiment). Each level's candidates
//! are evaluated on the deterministic pool and the survivors kept in
//! candidate order, so the search returns the same lattice at any thread
//! count; the exhaustive ablation search stays serial.

use std::collections::HashSet;

/// Statistics of one lattice search.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LatticeStats {
    /// Candidate subspaces actually evaluated against the data.
    pub evaluated: usize,
    /// Candidates rejected by the apriori subset check *before* touching
    /// the data.
    pub pruned_by_apriori: usize,
    /// Deepest level (subspace dimensionality) reached.
    pub max_level: usize,
}

/// Result of a lattice search: the surviving subspaces (sorted dimension
/// lists) level by level, plus statistics.
#[derive(Clone, Debug)]
pub struct LatticeResult {
    /// Surviving subspaces, ascending dimensionality within each level.
    pub subspaces: Vec<Vec<usize>>,
    /// Search statistics.
    pub stats: LatticeStats,
}

/// Runs the bottom-up search over `d` attributes.
///
/// `predicate(subspace) -> bool` must be **anti-monotone**: if it fails for
/// `S`, it fails for every superset of `S`. It runs on pool threads, one
/// candidate at a time, so its verdict must depend only on the subspace.
pub fn bottom_up_search<F>(d: usize, predicate: F) -> LatticeResult
where
    F: Fn(&[usize]) -> bool + Sync,
{
    let _span = multiclust_telemetry::span("lattice.bottom_up_search");
    let mut stats = LatticeStats::default();
    let mut surviving: Vec<Vec<usize>> = Vec::new();

    // Level 1.
    let level1: Vec<Vec<usize>> = (0..d).map(|i| vec![i]).collect();
    let mut frontier = evaluate_level(&level1, &predicate, &mut stats);
    stats.max_level = usize::from(!frontier.is_empty());
    surviving.extend(frontier.iter().cloned());
    record_level(1, d, 0, frontier.len());

    // Higher levels.
    let mut level = 1;
    while !frontier.is_empty() {
        level += 1;
        let candidates = join_candidates(&frontier);
        if candidates.is_empty() {
            break;
        }
        // Apriori subset check: all k-subsets of a (k+1)-candidate must
        // have survived.
        let survivor_set: HashSet<&[usize]> =
            frontier.iter().map(|s| s.as_slice()).collect();
        let mut to_evaluate = Vec::new();
        let mut pruned_here = 0;
        for cand in candidates {
            if all_subsets_survive(&cand, &survivor_set) {
                to_evaluate.push(cand);
            } else {
                pruned_here += 1;
            }
        }
        stats.pruned_by_apriori += pruned_here;
        frontier = evaluate_level(&to_evaluate, &predicate, &mut stats);
        record_level(level, to_evaluate.len(), pruned_here, frontier.len());
        if !frontier.is_empty() {
            stats.max_level += 1;
            surviving.extend(frontier.iter().cloned());
        }
    }
    multiclust_telemetry::counter_add("lattice.evaluated", stats.evaluated as u64);
    multiclust_telemetry::counter_add(
        "lattice.pruned_by_apriori",
        stats.pruned_by_apriori as u64,
    );

    LatticeResult { subspaces: surviving, stats }
}

/// Exhaustive counterpart used by the pruning ablation: evaluates **every**
/// non-empty subspace up to `max_dim` dimensions, no pruning.
pub fn exhaustive_search<F>(d: usize, max_dim: usize, predicate: F) -> LatticeResult
where
    F: Fn(&[usize]) -> bool,
{
    let mut stats = LatticeStats::default();
    let mut surviving = Vec::new();
    let mut stack: Vec<Vec<usize>> = (0..d).map(|i| vec![i]).collect();
    while let Some(s) = stack.pop() {
        stats.evaluated += 1;
        if predicate(&s) {
            stats.max_level = stats.max_level.max(s.len());
            surviving.push(s.clone());
        }
        if s.len() < max_dim {
            let last = *s.last().expect("non-empty");
            for next in (last + 1)..d {
                let mut bigger = s.clone();
                bigger.push(next);
                stack.push(bigger);
            }
        }
    }
    surviving.sort_by(|a, b| (a.len(), a.as_slice()).cmp(&(b.len(), b.as_slice())));
    LatticeResult { subspaces: surviving, stats }
}

/// Emits one `lattice.level` event: candidates evaluated against the data,
/// candidates pruned by the apriori subset check, and survivors.
fn record_level(level: usize, evaluated: usize, pruned: usize, survivors: usize) {
    if multiclust_telemetry::enabled() {
        multiclust_telemetry::event(
            "lattice.level",
            &[
                ("level", level as f64),
                ("evaluated", evaluated as f64),
                ("pruned_by_apriori", pruned as f64),
                ("survivors", survivors as f64),
            ],
        );
    }
}

/// Candidates per work unit when a level is evaluated on the pool: one
/// predicate call scans every object, so a single candidate already
/// amortises its dispatch.
const LEVEL_CHUNK: usize = 1;

/// Evaluates one level's candidates on the pool and keeps the survivors in
/// candidate order. Each candidate's verdict depends only on the candidate,
/// so the level is the serial filter's at any thread count.
fn evaluate_level<F>(
    candidates: &[Vec<usize>],
    predicate: &F,
    stats: &mut LatticeStats,
) -> Vec<Vec<usize>>
where
    F: Fn(&[usize]) -> bool + Sync,
{
    stats.evaluated += candidates.len();
    let keep = multiclust_parallel::par_map_indexed(candidates.len(), LEVEL_CHUNK, |c| {
        predicate(&candidates[c])
    });
    candidates.iter().zip(keep).filter(|&(_, keep)| keep).map(|(s, _)| s.clone()).collect()
}

/// Apriori join: two sorted `k`-subspaces sharing their first `k−1`
/// dimensions combine into one `(k+1)`-candidate.
fn join_candidates(frontier: &[Vec<usize>]) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    for (i, a) in frontier.iter().enumerate() {
        for b in &frontier[i + 1..] {
            let k = a.len();
            if a[..k - 1] == b[..k - 1] && a[k - 1] != b[k - 1] {
                let mut cand = a.clone();
                cand.push(b[k - 1].max(a[k - 1]));
                cand[k - 1] = b[k - 1].min(a[k - 1]);
                cand.sort_unstable();
                out.push(cand);
            }
        }
    }
    out.sort();
    out.dedup();
    out
}

fn all_subsets_survive(cand: &[usize], survivors: &HashSet<&[usize]>) -> bool {
    let mut subset = Vec::with_capacity(cand.len() - 1);
    for skip in 0..cand.len() {
        subset.clear();
        subset.extend(cand.iter().enumerate().filter(|&(i, _)| i != skip).map(|(_, &d)| d));
        if !survivors.contains(subset.as_slice()) {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Predicate: subspace is a subset of {0,1,2} — anti-monotone.
    fn subset_of_012(s: &[usize]) -> bool {
        s.iter().all(|&d| d < 3)
    }

    #[test]
    fn finds_full_downward_closed_family() {
        let res = bottom_up_search(6, subset_of_012);
        // All non-empty subsets of {0,1,2}: 7.
        assert_eq!(res.subspaces.len(), 7);
        assert!(res.subspaces.contains(&vec![0, 1, 2]));
        assert_eq!(res.stats.max_level, 3);
    }

    #[test]
    fn pruning_skips_supersets_of_failures() {
        let res = bottom_up_search(6, subset_of_012);
        // Level 1 evaluates 6; level 2 candidates joining {0},{1},{2} are
        // {01,02,12}: dims 3..5 never spawn candidates.
        assert_eq!(res.stats.evaluated, 6 + 3 + 1);
        let naive = exhaustive_search(6, 6, subset_of_012);
        assert_eq!(naive.stats.evaluated, 63);
        assert_eq!(naive.subspaces.len(), res.subspaces.len());
        assert!(res.stats.evaluated < naive.stats.evaluated);
    }

    #[test]
    fn apriori_subset_check_counts_pruned() {
        // Predicate passes for {0},{1},{2},{0,1},{0,2} but NOT {1,2} —
        // the join of {0,1} and {0,2} generates candidate {0,1,2}, whose
        // subset {1,2} failed ⇒ apriori-pruned without evaluation.
        let pass: HashSet<Vec<usize>> = [
            vec![0],
            vec![1],
            vec![2],
            vec![0, 1],
            vec![0, 2],
        ]
        .into_iter()
        .collect();
        let res = bottom_up_search(3, |s: &[usize]| pass.contains(s));
        assert!(res.subspaces.contains(&vec![0, 2]));
        assert!(!res.subspaces.contains(&vec![0, 1, 2]));
        assert_eq!(res.stats.pruned_by_apriori, 1);
    }

    #[test]
    fn join_requires_shared_prefix() {
        let frontier = vec![vec![0, 1], vec![0, 2], vec![1, 2], vec![3, 4]];
        let cands = join_candidates(&frontier);
        assert_eq!(cands, vec![vec![0, 1, 2]]);
    }

    #[test]
    fn empty_predicate_stops_immediately() {
        let res = bottom_up_search(5, |_: &[usize]| false);
        assert!(res.subspaces.is_empty());
        assert_eq!(res.stats.evaluated, 5);
        assert_eq!(res.stats.max_level, 0);
    }
}
