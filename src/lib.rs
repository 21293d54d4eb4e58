//! MegaScale-Data: disaggregated multisource data loading for large
//! foundation model training.
//!
//! This is the facade crate of the workspace. It re-exports every subsystem
//! so applications can depend on a single crate:
//!
//! - [`sim`] — deterministic discrete-event simulation substrate.
//! - [`storage`] — columnar storage with per-handle access-state accounting.
//! - [`data`] — synthetic multisource datasets and sample transformations.
//! - [`actor`] — thread-based actor runtime with supervision.
//! - [`mesh`] — device mesh, `ClientPlaceTree`, parallelism transforms.
//! - [`balance`] — cost models and load-balancing algorithms.
//! - [`core`] — the MegaScale-Data system: `DGraph` data plane, Planner,
//!   Source Loaders, Data Constructors, AutoScaler, fault tolerance; plus
//!   the paper's §9 Replay Mode and Sec 6.2 deployment tricks (hybrid
//!   sidecar placement, transformation reordering, selective
//!   broadcasting).
//! - [`train`] — hybrid-parallel trainer model (FLOPs, pipeline, loss).
//! - [`baselines`] — architectural models of competing dataloaders.
//!
//! # Quickstart
//!
//! See `examples/quickstart.rs` for an end-to-end walkthrough: declare data
//! sources, build a [`mesh::ClientPlaceTree`] from a device mesh, write an
//! orchestration strategy with [`core::DGraph`] primitives, and pull
//! balanced, parallelism-aware batches.

pub use msd_actor as actor;
pub use msd_balance as balance;
pub use msd_baselines as baselines;
pub use msd_core as core;
pub use msd_data as data;
pub use msd_mesh as mesh;
pub use msd_sim as sim;
pub use msd_storage as storage;
pub use msd_train as train;
