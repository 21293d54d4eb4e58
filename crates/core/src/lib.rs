//! MegaScale-Data core: the disaggregated multisource data plane.
//!
//! This crate implements the paper's contribution proper:
//!
//! - [`buffer`]: buffer-metadata summaries Source Loaders report to the
//!   Planner (`summary_buffer` in the paper's low-level API).
//! - [`schedule`]: data-mixture schedules — static, staged, warmup
//!   (curriculum), and loss-adaptive — consumed by the `mix` primitive.
//! - [`dgraph`]: [`dgraph::DGraph`], the stateful dataflow graph tracking
//!   every sample's lifecycle, with the declarative primitives
//!   `mix`/`distribute`/`cost`/`balance`/`broadcast_at`/`plan`.
//! - [`plan`]: [`plan::LoadingPlan`] — the artifact the Planner broadcasts;
//!   tells each Source Loader what to pop and each Data Constructor what to
//!   assemble for which clients.
//! - [`loader`]: the Source Loader component and its actor wrapper.
//! - [`codec`]: the `MSDB` codec, the workspace's one serialisation
//!   format — 16 frame kinds: the GCS blobs (planner, plan-log, loader,
//!   controller and frontier checkpoints, the Replay Mode plan store, the
//!   trainer topology), the serving plane's wire frames, and the batch
//!   payload. There is no other reader: non-`MSDB` input is an error.
//! - [`constructor`]: the Data Constructor — microbatch assembly (packing
//!   into a shared segment table, padding, position ids derived from it)
//!   and parallelism transformation.
//! - [`window`]: [`window::Window`], a window onto a shared table — one
//!   type for a sequence's segments, a summary's sample metadata and a
//!   pop directive's sample ids.
//! - [`planner`]: the Planner — plan synthesis with phase instrumentation.
//! - [`autoscale`]: offline multi-level source auto-partitioning and online
//!   mixture-driven scaling.
//! - [`pool`]: the size-classed [`pool::BufferPool`] that keeps the hot
//!   fetch→decode→construct→serve path off the allocator by recycling
//!   backing buffers once their `Bytes` views drop.
//! - [`metrics`]: the lock-light observability plane — pool counters,
//!   per-stage latency histograms, and queue-depth gauges snapshotted
//!   through `RuntimeStats`.
//! - [`fault`]: differential checkpointing and replay: how a restarted
//!   loader recovers, its report, and the ETTR model.
//! - [`replay`]: Replay Mode (paper §9) — a step-indexed store of
//!   pre-computed plans that either deployment adopts through
//!   [`system::core::PipelineCore`] when they validate against live
//!   buffers.
//! - [`system`]: the assembled `MegaScaleData` simulation pipeline and
//!   the analytic memory model used by the cluster-scale experiments;
//!   [`system::core`] holds the deployment-agnostic `PipelineCore`,
//!   [`system::runtime`] the fully actorized concurrent runtime
//!   (`ThreadedPipeline::serve`), and [`system::controller`] the elastic
//!   control plane that scales and rebalances the loader fleet live.
//!   A trainer-topology change (elastic resharding) is
//!   [`planner::Planner::set_tree`]: later plans use the new mesh.

// The zero-copy data plane makes many historical clones dead; keep new
// ones from creeping in (ci.sh runs clippy with -D warnings).
#![warn(clippy::redundant_clone)]

pub mod autoscale;
pub mod buffer;
pub mod codec;
pub mod constructor;
pub mod dgraph;
pub mod fault;
pub mod loader;
pub mod metrics;
pub mod plan;
pub mod planner;
pub mod pool;
pub mod replay;
pub mod schedule;
pub mod system;
pub mod window;

pub use buffer::{BufferInfo, BufferSummary};
pub use constructor::DataConstructor;
pub use dgraph::{BalanceOpts, DGraph, DGraphError, MetaView, NodeState};
pub use loader::SourceLoader;
pub use metrics::{MetricsSnapshot, Stage, StageSnapshot};
pub use plan::{BinPlan, BucketPlan, LoadingPlan};
pub use planner::{Planner, Strategy};
pub use pool::{BufferPool, PoolConfig, PoolCounters, PooledBuf};
pub use replay::PlanStore;
pub use schedule::MixSchedule;
pub use system::core::{PipelineCore, PlanOutcome};
pub use system::net::{
    BatchPayload, LoopbackTransport, NetError, SharedBatch, Transport, WireFrame,
};
pub use system::runtime::{ServeClient, ServeOptions, ServeSession, ThreadedPipeline};
pub use system::server::{DataServerHandle, RemoteClient, RemotePlacement, ServerStatus};
pub use system::MegaScaleData;
pub use window::Window;
