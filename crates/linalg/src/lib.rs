//! Dense linear algebra substrate for the `multiclust` workspace.
//!
//! The multiple-clustering paradigms surveyed by Müller et al. lean on a
//! small but non-trivial amount of numerical linear algebra:
//!
//! * **Orthogonal space transformations** need SVD (stretcher inversion of
//!   Davidson & Qi 2008), symmetric inverse square roots (closed form
//!   `M = Σ̃^{-1/2}` of Qi & Davidson 2009) and PCA with explicit
//!   projection/orthogonalisation matrices (Cui et al. 2007).
//! * **Simultaneous original-space methods** need Mahalanobis distances and
//!   covariance handling (CAMI's Gaussian mixtures, Dec-kMeans
//!   decorrelation terms).
//! * **Spectral clustering** (used as an exchangeable cluster definition,
//!   cf. mSC, Niu & Dy 2010) needs symmetric eigendecompositions.
//!
//! None of the approved offline crates provide this, so the workspace ships
//! its own small, well-tested implementation. Matrices are dense, row-major
//! `Vec<f64>` (a deliberate layout choice: one contiguous buffer per
//! matrix). Algorithms target the moderate dimensionalities of the
//! tutorial's workloads (d up to a few hundred), not BLAS-scale work.

// `deny` rather than `forbid`: the one sanctioned exception is the call
// into the AVX2 build of the panel kernel in `block`, made only after the
// runtime feature check; it carries its own `#[allow(unsafe_code)]`.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod block;
pub mod chol;
pub mod eigen;
pub mod kernels;
pub mod matrix;
pub mod pca;
pub mod power;
pub mod svd;
pub mod vector;

pub use chol::Cholesky;
pub use eigen::SymmetricEigen;
pub use matrix::Matrix;
pub use pca::Pca;
pub use power::top_eigenpairs;
pub use svd::Svd;

/// Numerical tolerance used as a default convergence / comparison threshold
/// throughout the crate.
pub const EPS: f64 = 1e-10;
