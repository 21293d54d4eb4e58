//! Deterministic randomness and statistics for MegaScale-Data.
//!
//! Every synthetic dataset, loader stream and experiment in the workspace
//! draws from here, so a seed reproduces a run bit for bit:
//!
//! - [`rng`]: a seedable, splittable random number generator ([`SimRng`]).
//! - [`stats`]: histograms, CDFs and streaming summaries (Fig 2, Fig 5).
//!
//! The cost models that project the paper's cluster-scale numbers live in
//! `msd_bench`.

pub mod rng;
pub mod stats;

pub use rng::SimRng;
pub use stats::{Cdf, Histogram, Summary};
