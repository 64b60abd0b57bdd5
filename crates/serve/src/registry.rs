//! Bounded LRU registry of fitted models.
//!
//! A model is one `fit` result: the solution set plus per-solution
//! cluster centroids (means of the member rows in the training data), so
//! `assign` can label new objects by nearest centroid without refitting
//! — the family-agnostic predictor every paradigm's partition supports.
//!
//! Eviction is least-recently-used over a logical touch counter (no
//! wall-clock), so registry behaviour is a deterministic function of the
//! request sequence.

use std::collections::HashMap;

use multiclust_core::Clustering;
use multiclust_data::Dataset;

/// One registered fit result.
#[derive(Clone, Debug)]
pub struct FittedModel {
    /// Registry name.
    pub name: String,
    /// Family that produced it.
    pub family: String,
    /// Training objects.
    pub n: usize,
    /// Training dimensionality.
    pub d: usize,
    /// Requested cluster count.
    pub k: usize,
    /// RNG seed of the fit.
    pub seed: u64,
    /// The solution set, in the family's deterministic order.
    pub solutions: Vec<Clustering>,
    /// Per-solution, per-label centroid (training-space mean of the
    /// members; noise excluded). Indexed `[solution][label][dim]`.
    pub centroids: Vec<Vec<Vec<f64>>>,
    /// Insertion sequence number (stable `list` order).
    pub seq: u64,
    last_used: u64,
}

impl FittedModel {
    /// Builds a model from a fit: derives the centroids from the
    /// training data and the solution labels.
    pub fn new(
        name: String,
        family: String,
        k: usize,
        seed: u64,
        data: &Dataset,
        solutions: Vec<Clustering>,
    ) -> Self {
        let d = data.dims();
        let centroids = solutions
            .iter()
            .map(|c| {
                let kc = c.num_clusters();
                let mut sums = vec![vec![0.0f64; d]; kc];
                let mut counts = vec![0usize; kc];
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
                    .map(|(sum, &cnt)| {
                        let div = cnt.max(1) as f64;
                        sum.iter().map(|s| s / div).collect()
                    })
                    .collect()
            })
            .collect();
        Self {
            name,
            family,
            n: data.len(),
            d,
            k,
            seed,
            solutions,
            centroids,
            seq: 0,
            last_used: 0,
        }
    }

    /// Nearest-centroid labels for `data` under every solution; `None`
    /// where a solution has no clusters at all (all-noise partitions).
    /// A serial exact scan: bit-identical at any thread count.
    pub fn assign(&self, data: &Dataset) -> Vec<Vec<Option<usize>>> {
        self.centroids
            .iter()
            .map(|centers| {
                data.rows()
                    .map(|row| {
                        let mut best: Option<(usize, f64)> = None;
                        for (l, c) in centers.iter().enumerate() {
                            let d2: f64 = row
                                .iter()
                                .zip(c)
                                .map(|(a, b)| (a - b) * (a - b))
                                .sum();
                            // Strict `<` keeps the lowest label on ties.
                            if best.is_none_or(|(_, bd)| d2 < bd) {
                                best = Some((l, d2));
                            }
                        }
                        best.map(|(l, _)| l)
                    })
                    .collect()
            })
            .collect()
    }
}

/// Bounded LRU map of fitted models.
pub struct ModelRegistry {
    capacity: usize,
    models: HashMap<String, FittedModel>,
    clock: u64,
    seq: u64,
    evictions: u64,
    auto: u64,
}

impl ModelRegistry {
    /// An empty registry holding at most `capacity` models (min 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            models: HashMap::new(),
            clock: 0,
            seq: 0,
            evictions: 0,
            auto: 0,
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Registered model count.
    pub fn len(&self) -> usize {
        self.models.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.models.is_empty()
    }

    /// Total models evicted by the LRU bound so far.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Next auto-assigned model name (`m1`, `m2`, …).
    pub fn auto_name(&mut self) -> String {
        self.auto += 1;
        format!("m{}", self.auto)
    }

    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// Inserts (or replaces) a model, returning the names evicted to
    /// respect the capacity, in eviction order.
    pub fn insert(&mut self, mut model: FittedModel) -> Vec<String> {
        let now = self.tick();
        model.last_used = now;
        model.seq = match self.models.get(&model.name) {
            // Replacing keeps the original slot in `list` order.
            Some(old) => old.seq,
            None => {
                self.seq += 1;
                self.seq
            }
        };
        self.models.insert(model.name.clone(), model);
        let mut evicted = Vec::new();
        while self.models.len() > self.capacity {
            let victim = self
                .models
                .values()
                .min_by_key(|m| m.last_used)
                .map(|m| m.name.clone())
                .expect("registry is over capacity, so non-empty");
            self.models.remove(&victim);
            self.evictions += 1;
            evicted.push(victim);
        }
        evicted
    }

    /// Looks a model up and marks it recently used.
    pub fn touch(&mut self, name: &str) -> Option<&FittedModel> {
        let now = self.tick();
        let model = self.models.get_mut(name)?;
        model.last_used = now;
        Some(model)
    }

    /// Removes a model; `false` if it was not registered.
    pub fn remove(&mut self, name: &str) -> bool {
        self.models.remove(name).is_some()
    }

    /// All models in insertion order.
    pub fn list(&self) -> Vec<&FittedModel> {
        let mut all: Vec<&FittedModel> = self.models.values().collect();
        all.sort_by_key(|m| m.seq);
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(name: &str) -> FittedModel {
        let data = Dataset::from_rows(&[vec![0.0, 0.0], vec![1.0, 1.0], vec![5.0, 5.0]]);
        let c = Clustering::from_labels(&[0, 0, 1]);
        FittedModel::new(name.to_string(), "kmeans".into(), 2, 42, &data, vec![c])
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut reg = ModelRegistry::new(2);
        assert!(reg.insert(model("a")).is_empty());
        assert!(reg.insert(model("b")).is_empty());
        // Touch `a` so `b` is now the coldest.
        assert!(reg.touch("a").is_some());
        assert_eq!(reg.insert(model("c")), vec!["b".to_string()]);
        assert_eq!(reg.evictions(), 1);
        let names: Vec<&str> = reg.list().iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, vec!["a", "c"]);
    }

    #[test]
    fn replacement_keeps_list_order_and_capacity() {
        let mut reg = ModelRegistry::new(2);
        reg.insert(model("a"));
        reg.insert(model("b"));
        assert!(reg.insert(model("a")).is_empty(), "replacement must not evict");
        let names: Vec<&str> = reg.list().iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, vec!["a", "b"]);
    }

    #[test]
    fn centroids_and_assign_round_trip_separated_blobs() {
        let m = model("a");
        assert_eq!(m.centroids[0].len(), 2);
        assert_eq!(m.centroids[0][0], vec![0.5, 0.5]);
        let probe = Dataset::from_rows(&[vec![0.2, 0.2], vec![4.9, 5.1]]);
        let labels = m.assign(&probe);
        assert_eq!(labels, vec![vec![Some(0), Some(1)]]);
    }
}
