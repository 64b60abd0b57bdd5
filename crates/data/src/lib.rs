//! Datasets, views and synthetic workload generators for `multiclust`.
//!
//! The tutorial motivates multiple clustering solutions with four
//! application domains (gene expression, sensor surveillance, text topics,
//! customer segmentation — slides 5–8). None of those datasets ship with
//! the deck, so this crate provides *synthetic equivalents with planted
//! multi-view structure*: every generator returns the ground-truth labelling
//! of **each** planted view, which the original data could never provide.
//! That substitution preserves the behaviour every experiment measures —
//! recovery of alternative groupings hidden in different views — and makes
//! it quantifiable.
//!
//! Storage is a flat row-major `Vec<f64>` ([`Dataset`]); multi-source
//! scenarios are modelled by [`MultiViewDataset`], which holds one dataset
//! per source over the same objects.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dataset;
pub mod io;
pub mod rng;
pub mod synthetic;

pub use dataset::{overflowing_column, Dataset, MultiViewDataset};
pub use rng::seeded_rng;
