//! The evaluation's models and the harness of the figure/table benches.
//!
//! Every bench target under `benches/` regenerates one table or figure of
//! the paper's evaluation. Where the paper reports clusters this workspace
//! cannot run (288–4,096 GPUs), the number is a projection, and every
//! model behind one lives here, so `msd_core` is the runtime only:
//!
//! - [`train`]: the hybrid-parallel trainer model (FLOPs, pipeline
//!   schedule, HBM, loss);
//! - [`baselines`]: the architectures of the competing dataloaders;
//! - [`model`]: the pipeline step's projected fetch time (Fig 14/15,
//!   Sec 6.2) and the loader-architecture vocabulary;
//! - [`net`]: the alpha-beta network cost model;
//! - [`autoscale`]: Sec 6.2's hybrid sidecar/remote actor placement;
//! - [`fault`]: the effective-training-time ratio of Fig 16.
//!
//! The library also holds what the benches share: workload builders
//! (model combos, meshes, catalogs), the plan→trainer-load conversion and
//! plain-text report formatting.

use std::collections::HashMap;

use crate::models::ModelPreset;
use crate::train::{GpuSpec, RankLoads, TrainSetup};
use msd_balance::BalanceMethod;
use msd_core::autoscale::{ClusterResources, PartitionOpts};
use msd_core::plan::LoadingPlan;
use msd_core::planner::{PlannerConfig, Strategy};
use msd_core::schedule::MixSchedule;
use msd_core::system::{MegaScaleData, MsdConfig};
use msd_data::{Catalog, SampleMeta};
use msd_mesh::{Axis, DeviceMesh, DistributeAxis};

pub mod autoscale;
pub mod fault;
pub mod gpu;
pub mod hbm;
pub mod iteration;
pub mod loss;
pub mod model;
pub mod models;
pub mod net;
pub mod systems;
pub mod timeline;

pub mod train {
    //! Hybrid-parallel trainer model: FLOPs, pipeline schedule, HBM, loss.
    //!
    //! The paper's throughput numbers come from real VLM training on L20
    //! clusters; this is the analytic stand-in. It models exactly the
    //! structure the evaluation depends on:
    //!
    //! - [`models`]: the Table 1 configurations (ViT-1B/2B, Llama-12B,
    //!   tMoE-25B, Mixtral-8×7B).
    //! - [`gpu`]: accelerator throughput/memory specs (NVIDIA L20 class).
    //! - [`iteration`]: iteration-time composition under PP/DP/CP/TP — 1F1B
    //!   pipeline with heterogeneous microbatches, DP stragglers, encoder
    //!   (EDP) phase, encoder→backbone All-to-All, and gradient allreduce.
    //! - [`hbm`]: activation-memory model with OOM detection (the ViT-2B
    //!   OOM-under-imbalance observation of Sec 7.3).
    //! - [`loss`]: loss-convergence simulation for the Fig 18 balancer-impact
    //!   study.
    //! - [`timeline`]: the per-rank iteration timeline of Fig 14.

    pub use crate::{gpu, hbm, iteration, loss, models, timeline};

    pub use crate::gpu::GpuSpec;
    pub use crate::iteration::{IterationBreakdown, RankLoads, TrainSetup};
    pub use crate::loss::LossSim;
    pub use crate::models::ModelPreset;
    pub use crate::timeline::{Span, Timeline};
}

pub mod baselines {
    //! Architectural models of baseline dataloader systems.
    //!
    //! Fig 12 compares MegaScale-Data against five baselines spanning local
    //! (PyTorch DataLoader, tf.data), remote (Cachew, Ray Data), and hybrid
    //! (Pecan) processing. What determines their measured iteration time,
    //! fetch latency, and memory per node is *architecture*, not
    //! implementation polish:
    //!
    //! - **where loader instances live** (colocated per-rank clones vs. remote
    //!   workers) and therefore how many copies of per-source file access
    //!   states exist;
    //! - **parallelism awareness** (none of them share loads across CP/PP
    //!   ranks — each rank's loader independently fetches full batches);
    //! - **worker sizing** (all must provision for the slowest source's
    //!   transformation cost to avoid stalls).
    //!
    //! [`LoaderSystem`] captures those levers; each baseline fills them in
    //! with its published design. [`DirectTransfer`] is the Fig 20 ablation
    //! (MegaScale-Data without Data Constructors).

    pub use crate::model::{ClusterShape, LoaderSystem, SystemReport, WorkloadShape};
    pub use crate::systems::{
        fig12_systems, Cachew, DirectTransfer, MsdArchitecture, Pecan, RayData, TfDataService,
        TorchDataLoader,
    };
}

/// Table formatting: prints a header row and separator.
pub fn table_header(cols: &[&str]) {
    let row = cols
        .iter()
        .map(|c| format!("{c:>16}"))
        .collect::<Vec<_>>()
        .join(" | ");
    println!("{row}");
    println!("{}", "-".repeat(row.len()));
}

/// Table formatting: one row of preformatted cells.
pub fn table_row(cells: &[String]) {
    println!(
        "{}",
        cells
            .iter()
            .map(|c| format!("{c:>16}"))
            .collect::<Vec<_>>()
            .join(" | ")
    );
}

/// Formats a float with 3 significant decimals.
pub fn f(v: f64) -> String {
    if v.abs() >= 1000.0 {
        format!("{v:.0}")
    } else if v.abs() >= 10.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.3}")
    }
}

/// Formats bytes as GiB.
pub fn gib(bytes: u64) -> String {
    format!("{:.2}", bytes as f64 / (1u64 << 30) as f64)
}

/// Prints the standard figure banner.
pub fn banner(id: &str, title: &str) {
    println!();
    println!("=== {id}: {title} ===");
}

/// The evaluation's standard experiment scale (kept modest so each bench
/// finishes in seconds; ratios, not absolutes, are the reproduction
/// target).
pub struct Scenario {
    /// Experiment mesh.
    pub mesh: DeviceMesh,
    /// Model combo.
    pub model: ModelPreset,
    /// Context length (packing bound).
    pub ctx: u64,
    /// Microbatches per bucket.
    pub microbatches: u32,
    /// Samples per step.
    pub samples_per_step: usize,
    /// The catalog.
    pub catalog: Catalog,
}

impl Scenario {
    /// Builds the MSD pipeline for this scenario with the given strategy.
    pub fn pipeline(&self, strategy: Strategy, seed: u64) -> MegaScaleData {
        MegaScaleData::new(MsdConfig {
            catalog: self.catalog.clone(),
            mesh: self.mesh.clone(),
            strategy,
            planner: PlannerConfig {
                axis: DistributeAxis::DP,
                group_size: None,
                microbatches: self.microbatches,
                broadcast_axes: vec![Axis::TP],
                samples_per_step: self.samples_per_step,
                schedule: MixSchedule::uniform(self.catalog.len()),
            },
            max_seq_len: self.ctx,
            resources: ClusterResources {
                total_cores: 512,
                total_mem_bytes: 8 << 40,
            },
            partition: PartitionOpts::default(),
            buffer_capacity: self.samples_per_step.max(64) * 2,
            seed,
        })
    }

    /// The strategy presets of Sec 7.3.
    pub fn strategies(&self) -> Vec<Strategy> {
        let backbone = self.model.backbone;
        let encoder = self.model.encoder.expect("VLM scenarios have encoders");
        vec![
            Strategy::Vanilla,
            Strategy::BackboneBalance {
                method: BalanceMethod::Greedy,
                backbone,
            },
            Strategy::HybridBalance {
                method: BalanceMethod::Greedy,
                backbone,
                encoder,
            },
        ]
    }
}

/// Converts a loading plan into per-rank trainer loads.
///
/// - Backbone: each bucket is one DP replica; each bin's samples pack into
///   segments (clamped to the context) and cost segment-local attention.
/// - Encoder: if the plan carries an `"encoder"` subplan (hybrid), its
///   world-bucket assignment is used; otherwise images scatter round-robin
///   over ranks in arrival order (the unbalanced EDP baseline).
pub fn plan_to_loads(
    plan: &LoadingPlan,
    metas: &HashMap<u64, SampleMeta>,
    model: &ModelPreset,
    mesh: &DeviceMesh,
    ctx: u64,
) -> RankLoads {
    let backbone_mb_flops: Vec<Vec<f64>> = plan
        .buckets
        .iter()
        .map(|b| {
            b.bins
                .iter()
                .map(|bin| {
                    let segs: Vec<u64> = bin
                        .samples
                        .iter()
                        .filter_map(|id| metas.get(id))
                        .map(|m| m.total_tokens().clamp(1, ctx))
                        .collect();
                    model.backbone.flops_packed(segs)
                })
                .collect()
        })
        .collect();

    let world = mesh.world_size() as usize;
    let mut encoder_rank_flops = vec![0.0f64; world];
    let mut total_patches = 0u64;
    if let (Some(encoder), Some(sub)) = (&model.encoder, plan.subplans.get("encoder")) {
        // World-wide EDP: the hybrid strategy assigned (balanced) images
        // to every rank.
        for (r, bucket) in sub.buckets.iter().enumerate() {
            for bin in &bucket.bins {
                for id in &bin.samples {
                    if let Some(m) = metas.get(id) {
                        encoder_rank_flops[r % world] +=
                            encoder.flops_sample(u64::from(m.image_patches));
                        total_patches += u64::from(m.image_patches);
                    }
                }
            }
        }
    } else if let Some(encoder) = &model.encoder {
        // Unbalanced baseline: images are encoded where their pixels land —
        // the bucket's *data-fetching* clients (PP stage 0, broadcast-root
        // TP/CP ranks). The rest of the mesh idles through the encoder
        // phase, and image-heavy replicas create hot ranks (Fig 3's EDP
        // skew).
        for bucket in &plan.buckets {
            let mut ranks: Vec<usize> = bucket
                .clients
                .iter()
                .filter(|r| {
                    msd_mesh::delivery_kind(mesh, **r, &plan.broadcast_axes)
                        == msd_mesh::DeliveryKind::Payload
                })
                .map(|r| *r as usize)
                .collect();
            if ranks.is_empty() {
                ranks = bucket.clients.iter().map(|r| *r as usize).collect();
            }
            if ranks.is_empty() {
                ranks = vec![bucket.bucket as usize % world];
            }
            let mut r = 0usize;
            for bin in &bucket.bins {
                for id in &bin.samples {
                    if let Some(m) = metas.get(id) {
                        if m.image_patches > 0 {
                            encoder_rank_flops[ranks[r % ranks.len()]] +=
                                encoder.flops_sample(u64::from(m.image_patches));
                            total_patches += u64::from(m.image_patches);
                            r += 1;
                        }
                    }
                }
            }
        }
    }
    let hidden = f64::from(model.backbone.hidden);
    let a2a_bytes_per_rank = total_patches as f64 * hidden * 2.0 / world as f64;
    RankLoads {
        backbone_mb_flops,
        encoder_rank_flops,
        a2a_bytes_per_rank,
    }
}

/// Total trained tokens in a plan (text + image), for throughput.
pub fn plan_tokens(plan: &LoadingPlan, metas: &HashMap<u64, SampleMeta>) -> u64 {
    plan.all_samples()
        .iter()
        .filter_map(|id| metas.get(id))
        .map(|m| m.total_tokens())
        .sum()
}

/// Runs `steps` pipeline steps and returns mean throughput (tokens/s) and
/// mean iteration seconds under the trainer model.
pub fn run_scenario(scenario: &Scenario, strategy: Strategy, steps: u64, seed: u64) -> (f64, f64) {
    let mut msd = scenario.pipeline(strategy, seed);
    let setup = TrainSetup::new(
        scenario.mesh.clone(),
        GpuSpec::l20(),
        scenario.model.clone(),
    );
    let mut tput = 0.0;
    let mut iter_s = 0.0;
    for _ in 0..steps {
        let (out, times) = model::step(&mut msd);
        let metas = &out.metas;
        let loads = plan_to_loads(
            &out.plan,
            metas,
            &scenario.model,
            &scenario.mesh,
            scenario.ctx,
        );
        let breakdown = setup.iteration(&loads);
        let tokens = plan_tokens(&out.plan, metas);
        let fetch_s = times.fetch_ns as f64 / 1e9;
        // Input-bound check: iteration is the max of compute and the
        // unoverlapped fetch residual.
        let t = breakdown.total_s().max(fetch_s * 0.05);
        iter_s += t;
        tput += tokens as f64 / t;
    }
    (tput / steps as f64, iter_s / steps as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use msd_data::catalog::coyo700m_like;
    use msd_sim::SimRng;

    fn scenario() -> Scenario {
        let mut rng = SimRng::seed(1);
        Scenario {
            mesh: DeviceMesh::pp_dp_cp_tp(2, 2, 1, 2).unwrap(),
            model: crate::models::vlm_preset("ViT-1B", "Llama-12B"),
            ctx: 8192,
            microbatches: 4,
            samples_per_step: 64,
            catalog: coyo700m_like(&mut rng),
        }
    }

    #[test]
    fn scenario_runs_all_strategies() {
        let s = scenario();
        for strat in s.strategies() {
            let (tput, iter_s) = run_scenario(&s, strat, 2, 7);
            assert!(tput > 0.0);
            assert!(iter_s > 0.0);
        }
    }

    #[test]
    fn hybrid_beats_vanilla_on_throughput() {
        let s = scenario();
        let strategies = s.strategies();
        let (v, _) = run_scenario(&s, strategies[0].clone(), 3, 7);
        let (h, _) = run_scenario(&s, strategies[2].clone(), 3, 7);
        assert!(h > v, "hybrid {h} vs vanilla {v}");
    }
}
