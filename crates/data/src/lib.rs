//! Synthetic multisource datasets, distributions, and sample transformations.
//!
//! The paper's workloads are `coyo700m` (5 sources, open) and `navit_data`
//! (306 sources, ByteDance production). Neither raw corpus is usable here,
//! but every result in the evaluation depends only on per-sample *metadata*
//! (text-token and image-patch counts, raw byte sizes) and per-source *cost
//! profiles* (transformation latency, access-state memory). Fig 2 and Fig 5
//! publish those distributions; this crate regenerates them:
//!
//! - [`sample`]: sample metadata and payloads.
//! - [`dist`]: length distributions (log-normal, Zipf, Pareto, mixtures).
//! - [`catalog`]: source catalogs — [`catalog::coyo700m_like`] and
//!   [`catalog::navit_like`] are calibrated against the published
//!   histograms.
//! - [`transform`]: sample-level transformations with the paper's cost
//!   heterogeneity (audio ≈ 4× image ≈ 300× text per output token).
//! - [`gen`]: materializes synthetic sources as real `MSDCOL01` files.

// The zero-copy data plane starts at sample synthesis: payloads are
// refcounted `Bytes`, and dead clones on this path silently regrow
// copies. ci.sh runs clippy with -D warnings, so this is enforced.
#![warn(clippy::redundant_clone)]

pub mod catalog;
pub mod dist;
pub mod gen;
pub mod sample;
pub mod transform;

pub use catalog::{coyo700m_like, navit_like, Catalog, SourceSpec};
pub use dist::LengthDist;
pub use sample::{zeroed_payload, Modality, Sample, SampleMeta, SourceId};
pub use transform::{Transform, TransformPipeline, TransformScratch};

// Re-exported so downstream crates sample with the same deterministic RNG.
pub use msd_sim::SimRng;
