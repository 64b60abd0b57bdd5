//! # multiclust
//!
//! A Rust library for **discovering multiple clustering solutions** —
//! grouping objects in different views of the data — implementing the full
//! taxonomy of the SDM 2011 / ICDE 2012 tutorial by Müller, Günnemann,
//! Färber and Seidl.
//!
//! One clustering is rarely the whole story: objects play several roles at
//! once (genes with multiple functions), structure hides in different
//! attribute subsets (customer profession vs. leisure), and data arrives
//! from multiple sources (CT scans and hemograms of the same patients).
//! This umbrella crate re-exports the workspace:
//!
//! * [`linalg`] — dense linear-algebra substrate (eigen, SVD, PCA, Cholesky);
//! * [`data`] — datasets, views and synthetic multi-view generators;
//! * [`core`] — clusterings, quality/dissimilarity measures, constraints,
//!   taxonomy cards;
//! * [`base`] — baseline clusterers (k-means, GMM-EM, DBSCAN,
//!   agglomerative, spectral);
//! * [`alternative`] — multiple clusterings in the original space
//!   (meta clustering, COALA, Dec-kMeans, CAMI, minCEntropy);
//! * [`orthogonal`] — space-transformation methods (Davidson & Qi,
//!   Qi & Davidson, Cui et al.);
//! * [`subspace`] — subspace-projection methods (CLIQUE, SCHISM, SUBCLU,
//!   PROCLUS, ENCLUS, OSCLU, ASCLU, redundancy elimination);
//! * [`multiview`] — multiple given sources (co-EM, multi-view DBSCAN,
//!   consensus ensembles).
//!
//! ## Quickstart
//!
//! ```
//! use multiclust::data::synthetic::four_blob_square;
//! use multiclust::data::seeded_rng;
//! use multiclust::alternative::dec_kmeans::DecKMeans;
//! use multiclust::core::measures::diss::adjusted_rand_index;
//!
//! // Four blobs on a square admit two orthogonal 2-partitions.
//! let mut rng = seeded_rng(5);
//! let blobs = four_blob_square(50, 10.0, 0.8, &mut rng);
//!
//! // Ask Dec-kMeans for two decorrelated clusterings simultaneously.
//! let result = DecKMeans::new(&[2, 2]).with_lambda(4.0).fit(&blobs.dataset, &mut rng);
//! let a = &result.clusterings[0];
//! let b = &result.clusterings[1];
//!
//! // The two solutions disagree with each other…
//! assert!(adjusted_rand_index(a, b) < 0.3);
//! ```

pub use multiclust_alternative as alternative;
pub use multiclust_base as base;
pub use multiclust_core as core;
pub use multiclust_data as data;
pub use multiclust_harness as harness;
pub use multiclust_linalg as linalg;
pub use multiclust_multiview as multiview;
pub use multiclust_orthogonal as orthogonal;
pub use multiclust_parallel as parallel;
pub use multiclust_serve as serve;
pub use multiclust_subspace as subspace;
pub use multiclust_telemetry as telemetry;

/// One-stop prelude for examples and downstream users.
pub mod prelude {
    pub use multiclust_core::prelude::*;
    pub use multiclust_data::{seeded_rng, Dataset, MultiViewDataset};
}
