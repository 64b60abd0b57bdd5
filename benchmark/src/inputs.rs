//! Seeded inputs shared by every workload: planted two-view datasets, the
//! families each in-process workload fits, the request lines the serve
//! workloads send, and the in-process oracles their answers must equal.

use multiclust_core::Clustering;
use multiclust_data::rng::derive_seed;
use multiclust_data::seeded_rng;
use multiclust_data::synthetic::{planted_views, ViewSpec};
use multiclust_data::Dataset;
use multiclust_harness::{all_families, AlgorithmFamily, FitInput};
use serde::Value;

/// View A carries the `given` clustering; view B is the alternative the
/// orthogonal and alternative families should find.
pub const VIEWS: [ViewSpec; 2] = [
    ViewSpec {
        dims: 4,
        clusters: 4,
        separation: 8.0,
        noise: 1.0,
    },
    ViewSpec {
        dims: 4,
        clusters: 3,
        separation: 8.0,
        noise: 1.0,
    },
];
/// Uniform-noise attributes appended after the views (d = 16).
pub const NOISE_DIMS: usize = 8;
/// Every fit uses this seed, so a label digest must repeat exactly.
pub const FIT_SEED: u64 = 7;

/// One planted dataset with the truth of both views.
pub struct Planted {
    pub data: Dataset,
    pub truths: [Clustering; 2],
    pub views: Vec<Vec<usize>>,
}

impl Planted {
    /// The reference clustering handed to alternative/orthogonal fits.
    pub fn given(&self) -> &Clustering {
        &self.truths[0]
    }
}

/// Dataset `index` of the named stream: a pure function of the run seed.
pub fn planted(seed: u64, stream: &str, index: usize, n: usize) -> Planted {
    let mut rng = seeded_rng(derive_seed(seed, &format!("{stream}.{index}")));
    let p = planted_views(n, &VIEWS, NOISE_DIMS, &mut rng);
    Planted {
        truths: [
            Clustering::from_labels(&p.truths[0]),
            Clustering::from_labels(&p.truths[1]),
        ],
        views: p.view_dims,
        data: p.dataset,
    }
}

/// What a fit must recover to count as correct.
#[derive(Clone, Copy, Debug)]
pub enum Floor {
    /// Some solution reaches this ARI against some planted view.
    BestAri(f64),
    /// No solution agrees with the given view A beyond this ARI: the
    /// orthogonal paradigm's defining property. (Qi–Davidson recovers view
    /// B on most datasets but on a few percent it settles on the noise
    /// attributes, so recovery of B cannot be a per-fit floor.)
    DiffersFromGiven(f64),
    /// At least one membership partition over all objects.
    Membership,
}

/// One family call of an in-process pass.
#[derive(Clone, Copy, Debug)]
pub struct FamilySpec {
    /// Per-layer metric that times this call.
    pub metric: &'static str,
    /// Harness family name (also the served `family`).
    pub family: &'static str,
    pub k: usize,
    pub floor: Floor,
}

/// fit-large: the assignment kernels on both the k<16 sweep path and the
/// k≥16 bound-pruned path, `assign_by_dist`, and the parallel pool.
pub const LARGE: [FamilySpec; 5] = [
    FamilySpec {
        metric: "base.kmeans_k4_ms",
        family: "kmeans",
        k: 4,
        floor: Floor::BestAri(0.25),
    },
    FamilySpec {
        metric: "base.kmeans_k32_ms",
        family: "kmeans",
        k: 32,
        floor: Floor::BestAri(0.12),
    },
    FamilySpec {
        metric: "alternative.dec_kmeans_ms",
        family: "dec-kmeans",
        k: 4,
        floor: Floor::BestAri(0.25),
    },
    FamilySpec {
        metric: "orthogonal.qi_davidson_ms",
        family: "orthogonal",
        k: 4,
        floor: Floor::DiffersFromGiven(0.1),
    },
    FamilySpec {
        metric: "subspace.proclus_ms",
        family: "proclus",
        k: 4,
        floor: Floor::BestAri(0.05),
    },
];

/// fit-small: pairwise matrices, eigensolvers and the COALA merge scan.
pub const SMALL: [FamilySpec; 4] = [
    FamilySpec {
        metric: "base.spectral_ms",
        family: "spectral",
        k: 4,
        floor: Floor::BestAri(0.25),
    },
    FamilySpec {
        metric: "alternative.coala_ms",
        family: "coala",
        k: 4,
        floor: Floor::BestAri(0.25),
    },
    FamilySpec {
        metric: "multiview.spectral_ms",
        family: "multiview",
        k: 4,
        floor: Floor::BestAri(0.3),
    },
    FamilySpec {
        metric: "subspace.clique_ms",
        family: "subspace-lattice",
        k: 4,
        floor: Floor::Membership,
    },
];

/// The families the serve workloads fit, cycled per model.
pub const SERVED: [&str; 4] = ["kmeans", "dec-kmeans", "orthogonal", "proclus"];

/// The harness adapter of a family, exactly what the server dispatches to.
pub fn family(name: &str) -> Box<dyn AlgorithmFamily> {
    all_families()
        .into_iter()
        .find(|f| f.name() == name)
        .unwrap_or_else(|| panic!("the harness has no family {name:?}"))
}

/// Fits `family` on `p` in-process: view A as `given`, the planted views
/// as attribute groups — the same inputs [`fit_request`] sends.
pub fn fit(family: &dyn AlgorithmFamily, p: &Planted, k: usize) -> Vec<Clustering> {
    family.fit(&FitInput {
        data: &p.data,
        given: p.given(),
        view_groups: &p.views,
        k,
        seed: FIT_SEED,
    })
}

/// FNV-1a over every label of every solution, in order.
pub fn digest(solutions: &[Clustering]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
    };
    for c in solutions {
        eat(c.len() as u64);
        for a in c.assignments() {
            eat(a.map_or(u64::MAX, |l| l as u64));
        }
    }
    h
}

/// Per-label means of the member rows, as the server's registry derives
/// them (empty labels keep a zero centroid).
pub fn centroids(data: &Dataset, c: &Clustering) -> Vec<Vec<f64>> {
    let d = data.dims();
    let mut sums = vec![vec![0.0f64; d]; c.num_clusters()];
    let mut counts = vec![0usize; c.num_clusters()];
    for (i, a) in c.assignments().iter().enumerate() {
        if let Some(l) = a {
            counts[*l] += 1;
            for (s, &x) in sums[*l].iter_mut().zip(data.row(i)) {
                *s += x;
            }
        }
    }
    sums.iter()
        .zip(&counts)
        .map(|(sum, &cnt)| sum.iter().map(|s| s / cnt.max(1) as f64).collect())
        .collect()
}

/// Nearest-centroid label of every row (lowest label on ties).
pub fn nearest_labels(centers: &[Vec<f64>], rows: &Dataset) -> Vec<Option<usize>> {
    rows.rows()
        .map(|row| {
            let mut best: Option<(usize, f64)> = None;
            for (l, c) in centers.iter().enumerate() {
                let d2: f64 = row.iter().zip(c).map(|(a, b)| (a - b) * (a - b)).sum();
                if best.is_none_or(|(_, bd)| d2 < bd) {
                    best = Some((l, d2));
                }
            }
            best.map(|(l, _)| l)
        })
        .collect()
}

/// The JSON rows of `data[lo..hi]`, rendered by the codec the server
/// parses them with (shortest round-trip floats, so parsing restores
/// every bit).
pub fn rows_json(data: &Dataset, lo: usize, hi: usize) -> String {
    let rows = (lo..hi)
        .map(|i| Value::Array(data.row(i).iter().map(|&x| Value::Float(x)).collect()))
        .collect();
    json(&Value::Array(rows))
}

/// The fixed part of a served `fit` of `p`: view A as `given`, the
/// planted views, the rows. [`fit_request`] wraps it per model.
pub fn fit_body(family: &str, k: usize, p: &Planted) -> String {
    let given: Vec<Value> = p
        .given()
        .assignments()
        .iter()
        .map(|a| Value::Int(a.map_or(-1, |l| l as i64)))
        .collect();
    let views: Vec<Value> = p
        .views
        .iter()
        .map(|g| Value::Array(g.iter().map(|&d| Value::Int(d as i64)).collect()))
        .collect();
    format!(
        r#""family":"{family}","k":{k},"seed":{FIT_SEED},"given":{},"views":{},"data":{}"#,
        json(&Value::Array(given)),
        json(&Value::Array(views)),
        rows_json(&p.data, 0, p.data.len())
    )
}

pub fn fit_request(id: &str, model: &str, body: &str) -> String {
    format!(r#"{{"id":"{id}","op":"fit","model":"{model}",{body}}}"#)
}

fn json(v: &Value) -> String {
    serde_json::to_string(v).expect("value serialization is infallible")
}

pub fn assign_request(id: &str, model: &str, data_json: &str) -> String {
    format!(r#"{{"id":"{id}","op":"assign","model":"{model}","data":{data_json}}}"#)
}

pub fn compare_request(id: &str, a: &str, b: &str, sa: usize, sb: usize) -> String {
    format!(r#"{{"id":"{id}","op":"compare","a":"{a}","b":"{b}","sa":{sa},"sb":{sb}}}"#)
}

pub fn list_request(id: &str) -> String {
    format!(r#"{{"id":"{id}","op":"list"}}"#)
}

pub fn evict_request(id: &str, model: &str) -> String {
    format!(r#"{{"id":"{id}","op":"evict","model":"{model}"}}"#)
}
