//! The in-process workloads: one caller in a closed loop fitting a fixed
//! list of families, a pass at a time, on a pool of seeded datasets.
//!
//! Pass times depend on the data (Lloyd iterations, eigen sweeps), so a
//! run cycles through a pool of datasets instead of repeating one: the
//! median over the pool moves far less between seeds than one dataset's
//! time does. Every fit's label digest must repeat on each later visit to
//! its dataset, and its first result must clear the family's recovery
//! floor.

use std::hint::black_box;
use std::time::{Duration, Instant};

use multiclust_harness::AlgorithmFamily;

use crate::check::{corrupt, floor_met, Tally};
use crate::inputs::{digest, family, fit, planted, FamilySpec, Planted, LARGE, SMALL};
use crate::trace::Recorder;

/// Which in-process workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Large,
    Small,
}

impl Kind {
    pub fn specs(self) -> &'static [FamilySpec] {
        match self {
            Kind::Large => &LARGE,
            Kind::Small => &SMALL,
        }
    }

    /// Objects per dataset.
    pub fn n(self, smoke: bool) -> usize {
        match (self, smoke) {
            (Kind::Large, false) => 20_000,
            (Kind::Large, true) => 2_000,
            (Kind::Small, false) => 300,
            (Kind::Small, true) => 120,
        }
    }

    /// Datasets in the pool a run cycles through.
    pub fn pool(self, smoke: bool) -> usize {
        match (self, smoke) {
            (_, true) => 2,
            (Kind::Large, false) => 20,
            (Kind::Small, false) => 10,
        }
    }

    fn stream(self) -> &'static str {
        match self {
            Kind::Large => "fit-large",
            Kind::Small => "fit-small",
        }
    }
}

/// A pool of datasets, the families to fit on them, and the digest each
/// fit produced on its first visit.
pub struct FitSet {
    kind: Kind,
    families: Vec<Box<dyn AlgorithmFamily>>,
    pool: Vec<Planted>,
    expected: Vec<Vec<Option<u64>>>,
    inject: bool,
}

impl FitSet {
    pub fn new(kind: Kind, seed: u64, pool: usize, smoke: bool, inject: bool) -> FitSet {
        let n = kind.n(smoke);
        FitSet {
            kind,
            families: kind.specs().iter().map(|s| family(s.family)).collect(),
            pool: (0..pool)
                .map(|i| planted(seed, kind.stream(), i, n))
                .collect(),
            expected: vec![vec![None; kind.specs().len()]; pool],
            inject,
        }
    }

    pub fn len(&self) -> usize {
        self.pool.len()
    }

    /// Fits every family once on dataset `ds`, back to back, then checks
    /// the results. Returns the pass time and each family's time.
    pub fn pass(
        &mut self,
        ds: usize,
        rec: &mut Recorder,
        tally: &mut Tally,
    ) -> (Duration, Vec<Duration>) {
        let p = &self.pool[ds];
        let pass_id = rec.open();
        let start = Instant::now();
        let mut times = Vec::with_capacity(self.families.len());
        let mut outputs = Vec::with_capacity(self.families.len());
        for (spec, fam) in self.kind.specs().iter().zip(&self.families) {
            let t0 = Instant::now();
            let out = black_box(fit(fam.as_ref(), p, spec.k));
            let t1 = Instant::now();
            rec.record(spec.metric, Some(pass_id), t0, t1, None);
            times.push(t1 - t0);
            outputs.push(out);
        }
        let end = Instant::now();
        rec.record_as(pass_id, self.kind.stream(), None, start, end, None);
        for (f, (spec, out)) in self.kind.specs().iter().zip(outputs).enumerate() {
            let outcome = match self.expected[ds][f] {
                Some(want) if digest(&out) == want => Ok(()),
                Some(_) => Err(format!(
                    "{} on dataset {ds}: labels differ from the first visit",
                    spec.family
                )),
                None => {
                    let mut first = out;
                    if self.inject && ds == 0 && f == 0 {
                        let mut labels: Vec<_> =
                            first.iter().map(|c| c.assignments().to_vec()).collect();
                        corrupt(&mut labels);
                        first = labels
                            .into_iter()
                            .map(multiclust_core::Clustering::from_options)
                            .collect();
                    }
                    self.expected[ds][f] = Some(digest(&first));
                    floor_met(spec.floor, &first, p)
                        .map_err(|e| format!("{} on dataset {ds}: {e}", spec.family))
                }
            };
            tally.record(outcome);
        }
        (end - start, times)
    }
}
