//! Deterministic simulation substrate for MegaScale-Data.
//!
//! The paper evaluates on clusters of 288–4096 GPUs; this crate provides the
//! machinery to reproduce those experiments on a single machine:
//!
//! - [`time`]: virtual time ([`SimTime`], [`SimDuration`]) with nanosecond
//!   resolution.
//! - [`rng`]: a seedable, splittable random number generator ([`SimRng`])
//!   so every experiment is bit-reproducible.
//! - [`net`]: latency/bandwidth/incast network cost model (Fig 20).
//! - [`stats`]: histograms, CDFs and streaming summaries (Fig 2, Fig 5).

pub mod net;
pub mod rng;
pub mod stats;
pub mod time;

pub use net::NetModel;
pub use rng::SimRng;
pub use stats::{Cdf, Histogram, Summary};
pub use time::{SimDuration, SimTime};
