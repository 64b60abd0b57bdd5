//! COALA (Bae & Bailey 2006) — slides 31–33.
//!
//! Constrained Orthogonal Average Link Clustering: a hierarchical
//! average-link agglomeration steered away from a *given* clustering by
//! cannot-link constraints. Every pair co-clustered in the given solution
//! becomes `cannot(o, p)`; at each step the algorithm computes
//!
//! * the best **quality merge** — smallest average-link distance `d_qual`
//!   over all cluster pairs (constraints ignored), and
//! * the best **dissimilarity merge** — smallest average-link distance
//!   `d_diss` over pairs in `Dissimilar` (no cannot-link spans them),
//!
//! and performs the quality merge iff `d_qual < w · d_diss`. Large `w`
//! prefers quality, small `w` prefers dissimilarity (slide 33).
//!
//! Every group pair's average link is computed once and kept across merge
//! steps in a link cache; a merge recomputes only the pairs whose value
//! can change. Each row's first minimum link, over all pairs and over the
//! pairs no cannot-link spans, is cached as well, so a step reads both
//! merges off the row minima instead of scanning every pair (the
//! stored-matrix scheme of Müllner 2011, arXiv:1109.2378).

use multiclust_core::measures::quality::{average_link, average_link_cached};
use multiclust_linalg::kernels::{self, KernelMode, SymmetricMatrix};
use multiclust_core::taxonomy::{
    AlgorithmCard, Flexibility, GivenKnowledge, Processing, SearchSpace, Solutions,
    SubspaceAwareness,
};
use multiclust_core::{Clustering, ConstraintSet};
use multiclust_data::Dataset;
use rand::rngs::StdRng;

use crate::AlternativeClusterer;

/// COALA configuration: target cluster count `k` and trade-off weight `w`.
#[derive(Clone, Copy, Debug)]
pub struct Coala {
    k: usize,
    w: f64,
}

/// COALA output with merge statistics.
#[derive(Clone, Debug)]
pub struct CoalaResult {
    /// The alternative clustering.
    pub clustering: Clustering,
    /// Number of quality merges taken.
    pub quality_merges: usize,
    /// Number of dissimilarity merges taken.
    pub dissimilarity_merges: usize,
}

impl Coala {
    /// COALA with `k` output clusters and trade-off `w`.
    ///
    /// # Panics
    /// Panics unless `k ≥ 1` and `w > 0`.
    pub fn new(k: usize, w: f64) -> Self {
        assert!(k >= 1, "k must be at least 1");
        assert!(w > 0.0, "w must be positive");
        Self { k, w }
    }

    /// Runs COALA against the cannot-links induced by `given`.
    ///
    /// # Panics
    /// Panics when the dataset has fewer objects than `k` or sizes
    /// mismatch.
    pub fn fit(&self, data: &Dataset, given: &Clustering) -> CoalaResult {
        assert_eq!(data.len(), given.len(), "data/clustering size mismatch");
        let constraints = ConstraintSet::cannot_links_from(given);
        self.fit_with_constraints(data, &constraints)
    }

    /// Runs COALA against an explicit constraint set (the paper's more
    /// general interface: constraints need not come from a clustering).
    pub fn fit_with_constraints(
        &self,
        data: &Dataset,
        constraints: &ConstraintSet,
    ) -> CoalaResult {
        let n = data.len();
        assert!(n >= self.k, "need at least k objects");
        let _span = multiclust_telemetry::span("coala.fit");
        // Allocated before any other work, so an n too large for it fails
        // at once.
        let mut blocked = Blocked::new(n, constraints);
        // The blocked mode computes the pairwise distance matrix once and
        // reads every link from it (the naive path sums `dist` afresh).
        // Capped at n = 16 384, where the condensed triangle is about
        // 1 GiB — and the link cache below adds the same again.
        // `average_link_cached` accumulates in the same order over the same
        // values, so results are bit-identical.
        let dists: Option<SymmetricMatrix> =
            if kernels::kernel_mode() != KernelMode::Naive && n <= 16_384 {
                Some(kernels::dist_matrix(data.dims(), data.as_slice()))
            } else {
                None
            };
        let link = |a: &[usize], b: &[usize]| match &dists {
            Some(m) => average_link_cached(m, a, b),
            None => average_link(data, a, b),
        };
        let mut links = Links::new(n, link);
        let mut minima = RowMinima::new(&links, &blocked);
        let mut groups: Vec<Vec<usize>> = (0..n).map(|i| vec![i]).collect();
        let mut quality_merges = 0;
        let mut dissimilarity_merges = 0;

        while groups.len() > self.k {
            // The winners of a serial double loop over the cached links,
            // rows in order, strict `<`: the best quality merge (first
            // globally closest pair) and the best dissimilarity merge (first
            // closest pair no cannot-link spans), read off the row minima.
            // That loop keeps its first candidate, pair (0, 1) or the first
            // pair no cannot-link spans, when its link is NaN, since nothing
            // compares below NaN; otherwise it never picks a NaN link.
            let g = groups.len();
            let stuck = |(a, b): (usize, usize)| {
                Some((a, b, links.get(a, b))).filter(|&(_, _, d)| d.is_nan())
            };
            let qual = stuck((0, 1)).or_else(|| first_min(&minima.qual));
            let diss = blocked.first_open(g).and_then(stuck).or_else(|| first_min(&minima.diss));
            let (qi, qj, d_qual) = qual.expect("at least one pair exists");
            // Choose the merge per slide 32: quality iff d_qual < w·d_diss;
            // if no admissible dissimilarity merge exists, quality merges
            // are all that is left.
            let (i, j, took_quality) = match diss {
                Some((di, dj, d_diss)) if d_qual >= self.w * d_diss => {
                    dissimilarity_merges += 1;
                    (di, dj, false)
                }
                _ => {
                    quality_merges += 1;
                    (qi, qj, true)
                }
            };
            // Merge-decision trace: d_diss is −1 when no admissible
            // dissimilarity merge existed (every pair spans a cannot-link).
            if multiclust_telemetry::enabled() {
                let step = (n - groups.len()) as f64;
                let d_diss = diss.map_or(-1.0, |(_, _, d)| d);
                multiclust_telemetry::event(
                    "coala.merge",
                    &[
                        ("step", step),
                        ("d_qual", d_qual),
                        ("d_diss", d_diss),
                        ("w_d_diss", if d_diss < 0.0 { -1.0 } else { self.w * d_diss }),
                        ("quality", f64::from(took_quality)),
                    ],
                );
            }
            blocked.merge(i, j, groups.len());
            let merged = groups.swap_remove(j);
            groups[i].extend(merged);
            links.merge(i, j, &groups, link);
            minima.merge(i, j, &links, &blocked);
        }
        multiclust_telemetry::counter_add("coala.quality_merges", quality_merges as u64);
        multiclust_telemetry::counter_add(
            "coala.dissimilarity_merges",
            dissimilarity_merges as u64,
        );

        CoalaResult {
            clustering: Clustering::from_members(n, &groups),
            quality_merges,
            dissimilarity_merges,
        }
    }

    /// Taxonomy card (slide 116 row "(Bae & Bailey, 2006)").
    pub fn card() -> AlgorithmCard {
        AlgorithmCard {
            name: "COALA",
            reference: "Bae & Bailey 2006",
            space: SearchSpace::Original,
            processing: Processing::Iterative,
            knowledge: GivenKnowledge::GivenClustering,
            solutions: Solutions::Two,
            subspace: SubspaceAwareness::NotApplicable,
            flexibility: Flexibility::Specialized,
        }
    }
}

/// Group-level cannot-link matrix: bit `(a, b)` is set iff some
/// cannot-link spans groups `a` and `b`, i.e. iff
/// [`ConstraintSet::allows_merge`] would refuse the pair. One bit row of
/// `⌈n/64⌉` words per group replaces the per-member hash lookups of the
/// merge scan; a merge ORs two rows (and columns) and mirrors the
/// `swap_remove` of the group list, so row and column indices keep naming
/// the same groups as `groups`.
struct Blocked {
    words: usize,
    bits: Vec<u64>,
}

impl Blocked {
    /// The singleton groups' matrix: bit `(a, b)` = `is_cannot_link(a, b)`.
    ///
    /// # Panics
    /// Panics when the `n · ⌈n/64⌉`-word matrix cannot be allocated, so an
    /// oversized request fails instead of aborting the process.
    fn new(n: usize, constraints: &ConstraintSet) -> Self {
        let words = n.div_ceil(64);
        let len = n.checked_mul(words);
        let mut bits = Vec::new();
        if len.is_none_or(|len| bits.try_reserve_exact(len).is_err()) {
            panic!("COALA: cannot allocate the {n}-group cannot-link matrix");
        }
        bits.resize(n * words, 0);
        let mut blocked = Self { words, bits };
        for pair in constraints.cannot_links() {
            let (a, b) = (pair.first(), pair.second());
            if b < n {
                blocked.set(a, b, true);
                blocked.set(b, a, true);
            }
        }
        blocked
    }

    fn get(&self, a: usize, b: usize) -> bool {
        self.bits[a * self.words + b / 64] >> (b % 64) & 1 == 1
    }

    fn set(&mut self, a: usize, b: usize, on: bool) {
        let word = &mut self.bits[a * self.words + b / 64];
        let mask = 1u64 << (b % 64);
        if on {
            *word |= mask;
        } else {
            *word &= !mask;
        }
    }

    /// The first pair `(a, b)`, `a < b < g`, in row order that no
    /// cannot-link spans.
    fn first_open(&self, g: usize) -> Option<(usize, usize)> {
        (0..g).find_map(|a| {
            let (row, lo) = (&self.bits[a * self.words..(a + 1) * self.words], a + 1);
            (lo / 64..g.div_ceil(64)).find_map(|t| {
                // The clear bits of word `t` at columns `lo` and up.
                let mut open = !row[t];
                if t == lo / 64 {
                    open &= u64::MAX << (lo % 64);
                }
                let b = t * 64 + open.trailing_zeros() as usize;
                (open != 0 && b < g).then_some((a, b))
            })
        })
    }

    /// Merges group `j` into group `i < j` out of `g` groups, then moves
    /// group `g − 1` into slot `j` as `Vec::swap_remove(j)` does.
    fn merge(&mut self, i: usize, j: usize, g: usize) {
        let w = self.words;
        let last = g - 1;
        for t in 0..w {
            self.bits[i * w + t] |= self.bits[j * w + t];
        }
        for a in 0..g {
            let on = self.get(i, a);
            self.set(a, i, on);
        }
        if j != last {
            self.bits.copy_within(last * w..(last + 1) * w, j * w);
            for a in 0..last {
                let on = self.get(j, a);
                self.set(a, j, on);
            }
        }
    }
}

/// The average link of every live group pair, kept across merge steps.
///
/// A condensed upper triangle with the fixed stride `n`: pair `(a, b)`,
/// `a < b`, lives at `a·(2n−a−1)/2 + (b−a−1)`, so each row is one
/// contiguous slice and the slots of groups past the live count go stale.
/// A link is always summed `a`-outer, `b`-inner with `a < b`, so a pair
/// whose two groups did not change keeps its value and its bits.
struct Links {
    n: usize,
    vals: Vec<f64>,
}

impl Links {
    /// The singleton groups' links: `link(&[a], &[b])` for every `a < b`.
    ///
    /// # Panics
    /// Panics when the `n(n − 1)/2`-entry cache cannot be allocated, so an
    /// oversized request fails instead of aborting the process.
    fn new(n: usize, link: impl Fn(&[usize], &[usize]) -> f64) -> Self {
        let len = n.checked_mul(n.saturating_sub(1)).map(|len| len / 2);
        let mut vals = Vec::new();
        if len.is_none_or(|len| vals.try_reserve_exact(len).is_err()) {
            panic!("COALA: cannot allocate the {n}-group link cache");
        }
        for a in 0..n {
            for b in a + 1..n {
                vals.push(link(&[a], &[b]));
            }
        }
        Self { n, vals }
    }

    /// Index of pair `(a, b)`, `a < b`.
    fn at(&self, a: usize, b: usize) -> usize {
        a * (2 * self.n - a - 1) / 2 + (b - a - 1)
    }

    /// The link of pair `(a, b)`, `a < b`.
    fn get(&self, a: usize, b: usize) -> f64 {
        self.vals[self.at(a, b)]
    }

    /// Row `a` of the live triangle: the links `(a, b)` for `a < b < g`.
    fn row(&self, a: usize, g: usize) -> &[f64] {
        let start = self.at(a, a + 1);
        &self.vals[start..start + (g - a - 1)]
    }

    /// Updates the cache after group `j` merged into group `i < j` and
    /// `groups.swap_remove(j)` moved the old last group L from slot
    /// `groups.len()` into slot `j`. The merged group's pairs are
    /// recomputed. L's pairs `(c, j)` with `c < j` keep their orientation
    /// and are copied from its old slot; its pairs `(j, c)` with `c > j`
    /// flipped, so the sum order flipped with them, and they are
    /// recomputed.
    fn merge(
        &mut self,
        i: usize,
        j: usize,
        groups: &[Vec<usize>],
        link: impl Fn(&[usize], &[usize]) -> f64,
    ) {
        let g = groups.len();
        if j < g {
            for c in (0..j).filter(|&c| c != i) {
                let (to, from) = (self.at(c, j), self.at(c, g));
                self.vals[to] = self.vals[from];
            }
            for c in j + 1..g {
                let to = self.at(j, c);
                self.vals[to] = link(&groups[j], &groups[c]);
            }
        }
        for c in 0..i {
            let to = self.at(c, i);
            self.vals[to] = link(&groups[c], &groups[i]);
        }
        for c in i + 1..g {
            let to = self.at(i, c);
            self.vals[to] = link(&groups[i], &groups[c]);
        }
    }
}

/// A row's first smallest link over the columns it admits: `(b, d)`, or
/// `None` when it admits no non-NaN link.
type RowMin = Option<(usize, f64)>;

/// Offers column `b` with link `d` to a row minimum. A NaN never enters; a
/// link wins on `<`, or on `==` with a smaller column, so the minimum stays
/// the row's first one in column order whatever order columns arrive in.
fn offer(best: &mut RowMin, b: usize, d: f64) {
    if !d.is_nan() && best.is_none_or(|(c, e)| d < e || (d == e && b < c)) {
        *best = Some((b, d));
    }
}

/// The first minimum in row order over the row minima, strict `<`: the
/// pair the serial double loop over the non-NaN links would pick.
fn first_min(rows: &[RowMin]) -> Option<(usize, usize, f64)> {
    let mut best: Option<(usize, usize, f64)> = None;
    for (a, &row) in rows.iter().enumerate() {
        if let Some((b, d)) = row {
            if best.is_none_or(|(_, _, e)| d < e) {
                best = Some((a, b, d));
            }
        }
    }
    best
}

/// Every live row's minimum link over the columns to its right, kept
/// across merge steps: over all links (`qual`) and over the links no
/// cannot-link spans (`diss`).
struct RowMinima {
    qual: Vec<RowMin>,
    diss: Vec<RowMin>,
}

impl RowMinima {
    /// The singleton groups' row minima.
    fn new(links: &Links, blocked: &Blocked) -> Self {
        let n = links.n;
        let mut minima = Self { qual: vec![None; n], diss: vec![None; n] };
        for a in 0..n {
            minima.rescan(a, n, links, blocked);
        }
        minima
    }

    /// Recomputes row `a`'s minima over the columns `a < b < g`.
    fn rescan(&mut self, a: usize, g: usize, links: &Links, blocked: &Blocked) {
        let (mut qual, mut diss) = (None, None);
        for (b, &d) in (a + 1..g).zip(links.row(a, g)) {
            offer(&mut qual, b, d);
            if !blocked.get(a, b) {
                offer(&mut diss, b, d);
            }
        }
        self.qual[a] = qual;
        self.diss[a] = diss;
    }

    /// Updates the minima after group `j` merged into group `i < j`, the old
    /// last group moved into slot `j`, and `links` and `blocked` were
    /// updated to match. Only columns `i` and `j` changed and the old last
    /// column went away; every other link and cannot-link bit kept its
    /// value. So rows `i` and `j`, and every row whose minimum sat at `i`,
    /// `j` or the old last column, are rescanned; any other row's minimum
    /// is still the first over its unchanged columns, and meeting the new
    /// links at `i` and `j` completes it.
    fn merge(&mut self, i: usize, j: usize, links: &Links, blocked: &Blocked) {
        let g = self.qual.len() - 1;
        self.qual.truncate(g);
        self.diss.truncate(g);
        let stale = |row: RowMin| row.is_some_and(|(b, _)| b == i || b == j || b == g);
        for a in 0..g {
            if a == i || a == j || stale(self.qual[a]) || stale(self.diss[a]) {
                self.rescan(a, g, links, blocked);
                continue;
            }
            for c in [i, j].into_iter().filter(|&c| a < c && c < g) {
                let d = links.get(a, c);
                offer(&mut self.qual[a], c, d);
                if !blocked.get(a, c) {
                    offer(&mut self.diss[a], c, d);
                }
            }
        }
    }
}

impl AlternativeClusterer for Coala {
    fn alternative(
        &self,
        data: &Dataset,
        given: &[&Clustering],
        _rng: &mut StdRng,
    ) -> Clustering {
        // Union of cannot-links from every given clustering.
        let mut constraints = ConstraintSet::new();
        for g in given {
            for members in g.members() {
                for (idx, &a) in members.iter().enumerate() {
                    for &b in &members[idx + 1..] {
                        constraints.add_cannot_link(a, b);
                    }
                }
            }
        }
        self.fit_with_constraints(data, &constraints).clustering
    }

    fn name(&self) -> &'static str {
        "COALA"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use multiclust_core::measures::diss::adjusted_rand_index;
    use multiclust_data::synthetic::four_blob_square;
    use multiclust_data::seeded_rng;

    /// On the four-blob square (slide 26), given the horizontal split,
    /// COALA with dissimilarity-leaning `w` recovers the vertical split.
    #[test]
    fn recovers_orthogonal_split() {
        let mut rng = seeded_rng(81);
        let fb = four_blob_square(15, 10.0, 0.6, &mut rng);
        let given = Clustering::from_labels(&fb.horizontal);
        let res = Coala::new(2, 0.8).fit(&fb.dataset, &given);
        let vertical = Clustering::from_labels(&fb.vertical);
        let ari_alt = adjusted_rand_index(&res.clustering, &vertical);
        let ari_given = adjusted_rand_index(&res.clustering, &given);
        assert!(ari_alt > 0.9, "alternative ≈ vertical split: {ari_alt}");
        assert!(ari_given < 0.1, "alternative ⊥ given split: {ari_given}");
        assert!(res.dissimilarity_merges > 0);
    }

    /// Large `w` makes COALA ignore constraints and reproduce plain
    /// average-link quality (slide 33's trade-off).
    #[test]
    fn w_trades_quality_for_dissimilarity() {
        let mut rng = seeded_rng(82);
        let fb = four_blob_square(12, 10.0, 0.6, &mut rng);
        let given = Clustering::from_labels(&fb.horizontal);

        let quality_leaning = Coala::new(2, 1e6).fit(&fb.dataset, &given);
        let diss_leaning = Coala::new(2, 1e-6).fit(&fb.dataset, &given);
        let ari_quality = adjusted_rand_index(&quality_leaning.clustering, &given);
        let ari_diss = adjusted_rand_index(&diss_leaning.clustering, &given);
        // The quality-leaning run may rediscover the given split; the
        // dissimilarity-leaning run must not.
        assert!(ari_diss < 0.1, "small w avoids the given clustering: {ari_diss}");
        assert!(
            quality_leaning.dissimilarity_merges <= diss_leaning.dissimilarity_merges,
            "larger w ⇒ no more dissimilarity merges"
        );
        let _ = ari_quality; // documented, not asserted: ties possible
    }

    #[test]
    fn unconstrained_reduces_to_average_link() {
        let mut rng = seeded_rng(83);
        let fb = four_blob_square(10, 10.0, 0.5, &mut rng);
        let empty = ConstraintSet::new();
        let coala = Coala::new(4, 1.0).fit_with_constraints(&fb.dataset, &empty);
        let (agg, _) = multiclust_base::Agglomerative::new(
            4,
            multiclust_base::Linkage::Average,
        )
        .fit(&fb.dataset);
        assert_eq!(
            adjusted_rand_index(&coala.clustering, &agg),
            1.0,
            "with no constraints both merges coincide"
        );
    }

    /// Reference merge scan: a serial double loop that asks
    /// [`ConstraintSet::allows_merge`] for every pair and sums
    /// [`average_link`] afresh — the oracle the row-minimum scan must match.
    /// Returns the result at each target count in `ks` (each in `1..=n`)
    /// from one merge sequence, which does not depend on the target.
    fn reference_fits(
        w: f64,
        ks: &[usize],
        data: &Dataset,
        constraints: &ConstraintSet,
    ) -> Vec<CoalaResult> {
        let n = data.len();
        let mut groups: Vec<Vec<usize>> = (0..n).map(|i| vec![i]).collect();
        let (mut quality_merges, mut dissimilarity_merges) = (0, 0);
        let mut results: Vec<Option<CoalaResult>> = vec![None; ks.len()];
        loop {
            for (result, _) in results.iter_mut().zip(ks).filter(|(_, &k)| k == groups.len()) {
                *result = Some(CoalaResult {
                    clustering: Clustering::from_members(n, &groups),
                    quality_merges,
                    dissimilarity_merges,
                });
            }
            if ks.iter().all(|&k| k >= groups.len()) {
                break;
            }
            let mut qual: Option<(usize, usize, f64)> = None;
            let mut diss: Option<(usize, usize, f64)> = None;
            for i in 0..groups.len() {
                for j in (i + 1)..groups.len() {
                    let d = average_link(data, &groups[i], &groups[j]);
                    if qual.is_none_or(|(_, _, best)| d < best) {
                        qual = Some((i, j, d));
                    }
                    if constraints.allows_merge(&groups[i], &groups[j])
                        && diss.is_none_or(|(_, _, best)| d < best)
                    {
                        diss = Some((i, j, d));
                    }
                }
            }
            let (qi, qj, d_qual) = qual.unwrap();
            let (i, j) = match diss {
                Some((di, dj, d_diss)) if d_qual >= w * d_diss => {
                    dissimilarity_merges += 1;
                    (di, dj)
                }
                _ => {
                    quality_merges += 1;
                    (qi, qj)
                }
            };
            let merged = groups.swap_remove(j);
            groups[i].extend(merged);
        }
        results.into_iter().map(|r| r.expect("every k lies in 1..=n")).collect()
    }

    /// `fit_with_constraints` takes exactly the reference's merges at every
    /// target count in `ks` and every `w` in {1e-6, 0.8, 1e6}.
    fn assert_matches_reference(
        data: &Dataset,
        constraints: &ConstraintSet,
        ks: &[usize],
        case: &str,
    ) {
        for w in [1e-6, 0.8, 1e6] {
            for (&k, want) in ks.iter().zip(reference_fits(w, ks, data, constraints)) {
                let got = Coala::new(k, w).fit_with_constraints(data, constraints);
                let at = format!("{case}: n={} k={k} w={w}", data.len());
                assert_eq!(got.clustering.assignments(), want.clustering.assignments(), "{at}");
                assert_eq!(got.quality_merges, want.quality_merges, "{at}");
                assert_eq!(got.dissimilarity_merges, want.dissimilarity_merges, "{at}");
            }
        }
    }

    /// A cannot-link between each pair of `0..n` with probability `p`.
    fn random_cannot_links(n: usize, p: f64, rng: &mut StdRng) -> ConstraintSet {
        use rand::Rng;
        let mut constraints = ConstraintSet::new();
        for a in 0..n {
            for b in (a + 1)..n {
                if rng.gen_bool(p) {
                    constraints.add_cannot_link(a, b);
                }
            }
        }
        constraints
    }

    /// The row-minimum scan takes exactly the reference's merges on
    /// cannot-link sets that do not come from a clustering (so they are
    /// neither transitive nor block-shaped).
    #[test]
    fn blocked_matrix_matches_allows_merge_reference() {
        use rand::Rng;
        let mut rng = seeded_rng(85);
        for n in [8, 40, 97] {
            let mut data = Dataset::with_dims(2);
            for _ in 0..n {
                data.push_row(&[rng.gen_range(0.0..10.0), rng.gen_range(0.0..10.0)]);
            }
            let constraints = random_cannot_links(n, 0.15, &mut rng);
            assert_matches_reference(&data, &constraints, &[1, 2, 5], "random 15%");
        }
    }

    /// Integer-grid points, every one listed twice (the copies `n/2` rows
    /// apart), so equal links are everywhere and only the row/column tie
    /// order picks a merge. Cannot-links: none, a labelling's, a random
    /// 15% and every pair (no dissimilarity merge is ever possible).
    #[test]
    fn row_minima_match_reference_on_ties() {
        use rand::Rng;
        let mut rng = seeded_rng(87);
        for n in [2usize, 3, 17, 64, 150] {
            let points: Vec<[f64; 2]> = (0..n.div_ceil(2))
                .map(|_| [f64::from(rng.gen_range(0..4)), f64::from(rng.gen_range(0..4))])
                .collect();
            let mut data = Dataset::with_dims(2);
            for p in points.iter().chain(&points).take(n) {
                data.push_row(p);
            }
            let labels: Vec<usize> = (0..n).map(|o| o % 3).collect();
            let mut all_pairs = ConstraintSet::new();
            for a in 0..n {
                for b in (a + 1)..n {
                    all_pairs.add_cannot_link(a, b);
                }
            }
            let sets = [
                ("no cannot-links", ConstraintSet::new()),
                (
                    "a labelling's",
                    ConstraintSet::cannot_links_from(&Clustering::from_labels(&labels)),
                ),
                ("random 15%", random_cannot_links(n, 0.15, &mut rng)),
                ("every pair", all_pairs),
            ];
            let ks: Vec<usize> = [1, 2, 5].into_iter().filter(|&k| k <= n).collect();
            for (case, constraints) in &sets {
                assert_matches_reference(&data, constraints, &ks, case);
            }
        }
    }

    /// NaN links: a NaN coordinate makes every link of its object NaN, and
    /// two objects infinite on the same axis have one NaN link between
    /// them (∞ − ∞) and infinite links elsewhere. The double loop keeps a
    /// NaN first candidate and otherwise never picks a NaN link.
    #[test]
    fn row_minima_match_reference_on_nan_links() {
        use rand::Rng;
        let mut rng = seeded_rng(88);
        let n = 40;
        let points: Vec<[f64; 2]> = (0..n / 2)
            .map(|_| [f64::from(rng.gen_range(0..4)), f64::from(rng.gen_range(0..4))])
            .collect();
        let rows: Vec<[f64; 2]> = points.iter().chain(&points).copied().collect();
        let with = |edits: &[(usize, [f64; 2])]| {
            let mut rows = rows.clone();
            for &(o, row) in edits {
                rows[o] = row;
            }
            let mut data = Dataset::with_dims(2);
            for row in &rows {
                data.push_row(row);
            }
            data
        };
        let cases = [
            ("pair (0, 1) is NaN", with(&[(0, [f64::NAN, 0.0])])),
            ("a NaN object mid-matrix", with(&[(n / 2 + 3, [1.0, f64::NAN])])),
            (
                "one NaN link mid-matrix",
                with(&[(11, [f64::INFINITY, 1.0]), (27, [f64::INFINITY, 2.0])]),
            ),
        ];
        let labels: Vec<usize> = (0..n).map(|o| o % 3).collect();
        let sets = [
            ConstraintSet::new(),
            ConstraintSet::cannot_links_from(&Clustering::from_labels(&labels)),
            random_cannot_links(n, 0.15, &mut rng),
        ];
        for (case, data) in &cases {
            for constraints in &sets {
                assert_matches_reference(data, constraints, &[1, 2, 5], case);
            }
        }
    }

    /// The link cache's update cases, each checked against the reference
    /// at every `k` from `n − 1` (one merge) down to 1, with and without
    /// cannot-links: `n = 2`; a first merge whose `j` is the last slot, so
    /// nothing moves; and a first merge at `i = 0` whose `j` is not, so the
    /// last group moves into slot `j` and its pairs above `j` flip.
    #[test]
    fn link_cache_updates_match_reference() {
        let line = |xs: &[f64]| {
            let mut data = Dataset::with_dims(1);
            for &x in xs {
                data.push_row(&[x]);
            }
            data
        };
        let cases = [
            ("n = 2", line(&[0.0, 1.0])),
            ("j is the last slot", line(&[0.0, 10.0, 21.0, 33.0, 33.5])),
            (
                "i = 0, the last group moves",
                line(&[0.0, 0.5, 10.0, 21.0, 33.0, 46.0]),
            ),
        ];
        for (case, data) in &cases {
            let n = data.len();
            let alternate: Vec<usize> = (0..n).map(|o| o % 2).collect();
            let constraint_sets = [
                ConstraintSet::new(),
                ConstraintSet::cannot_links_from(&Clustering::from_labels(&alternate)),
            ];
            let ks: Vec<usize> = (1..n).collect();
            for constraints in &constraint_sets {
                assert_matches_reference(data, constraints, &ks, case);
            }
        }
    }

    /// After every merge the cache holds, bit for bit, what a fresh
    /// `average_link` gives each live pair — the merged group's pairs and
    /// the moved group's copied and flipped pairs alike. Random merges
    /// reach `j` at and below the last slot, and `i = 0`.
    #[test]
    fn link_cache_matches_fresh_links_after_every_merge() {
        use rand::Rng;
        let mut rng = seeded_rng(86);
        let mut data = Dataset::with_dims(3);
        for _ in 0..40 {
            data.push_row(&[
                rng.gen_range(0.0..10.0),
                rng.gen_range(0.0..10.0),
                rng.gen(),
            ]);
        }
        let link = |a: &[usize], b: &[usize]| average_link(&data, a, b);
        let mut links = Links::new(data.len(), link);
        let mut groups: Vec<Vec<usize>> = (0..data.len()).map(|o| vec![o]).collect();
        while groups.len() > 1 {
            let i = rng.gen_range(0..groups.len() - 1);
            let j = rng.gen_range(i + 1..groups.len());
            let merged = groups.swap_remove(j);
            groups[i].extend(merged);
            links.merge(i, j, &groups, link);
            let g = groups.len();
            for a in 0..g {
                for (b, d) in (a + 1..g).zip(links.row(a, g)) {
                    let fresh = link(&groups[a], &groups[b]);
                    assert_eq!(
                        d.to_bits(),
                        fresh.to_bits(),
                        "g={g} ({a}, {b}) after ({i}, {j})"
                    );
                }
            }
        }
    }

    /// An `n` whose link cache cannot exist fails with a message instead of
    /// aborting the process on allocation failure.
    #[test]
    #[should_panic(expected = "cannot allocate the 4294967296-group link cache")]
    fn oversized_link_cache_panics() {
        let _ = Links::new(1 << 32, |_, _| 0.0);
    }

    #[test]
    #[should_panic(expected = "link cache")]
    fn overflowing_link_cache_panics() {
        let _ = Links::new(usize::MAX / 2, |_, _| 0.0);
    }

    /// An `n` whose group matrix cannot exist fails with a message instead
    /// of aborting the process on allocation failure.
    #[test]
    #[should_panic(expected = "cannot allocate")]
    fn oversized_group_matrix_panics() {
        let _ = Blocked::new(1 << 32, &ConstraintSet::new());
    }

    #[test]
    #[should_panic(expected = "cannot allocate")]
    fn overflowing_group_matrix_panics() {
        let _ = Blocked::new(usize::MAX / 2, &ConstraintSet::new());
    }

    #[test]
    fn produces_exactly_k_clusters() {
        let mut rng = seeded_rng(84);
        let fb = four_blob_square(8, 10.0, 0.5, &mut rng);
        let given = Clustering::from_labels(&fb.horizontal);
        for k in [2, 3, 5] {
            let res = Coala::new(k, 1.0).fit(&fb.dataset, &given);
            assert_eq!(res.clustering.num_clusters(), k);
            assert_eq!(res.quality_merges + res.dissimilarity_merges, 32 - k);
        }
    }
}
