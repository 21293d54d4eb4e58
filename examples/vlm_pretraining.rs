//! VLM pretraining with hybrid (encoder + backbone) balancing.
//!
//! ```text
//! cargo run --release --example vlm_pretraining
//! ```
//!
//! Reproduces the paper's flagship scenario at desk scale: a ViT-1B +
//! Llama-12B VLM on a 16-GPU hybrid mesh (PP=2, DP=4, TP=2) training on
//! the 306-source `navit_data`-like corpus. Compares all three strategies
//! of Sec 7.3 and prints the modeled iteration breakdown.

use std::collections::HashMap;

use megascale_data::balance::BalanceMethod;
use megascale_data::core::autoscale::{ClusterResources, PartitionOpts};
use megascale_data::core::planner::{PlannerConfig, Strategy};
use megascale_data::core::schedule::MixSchedule;
use megascale_data::core::system::{MegaScaleData, MsdConfig};
use megascale_data::data::catalog::navit_like;
use megascale_data::data::SampleMeta;
use megascale_data::mesh::{Axis, DeviceMesh, DistributeAxis};
use megascale_data::sim::SimRng;
use megascale_data::train::models::vlm_preset;
use megascale_data::train::{GpuSpec, RankLoads, TrainSetup};

fn main() {
    let mut rng = SimRng::seed(2026);
    let catalog = navit_like(&mut rng);
    let model = vlm_preset("ViT-1B", "Llama-12B");
    let mesh = DeviceMesh::pp_dp_cp_tp(2, 4, 1, 2).expect("valid mesh");
    let ctx = 8192u64;

    let strategies: Vec<(&str, Strategy)> = vec![
        ("baseline", Strategy::Vanilla),
        (
            "backbone",
            Strategy::BackboneBalance {
                method: BalanceMethod::Greedy,
                backbone: model.backbone,
            },
        ),
        (
            "hybrid",
            Strategy::HybridBalance {
                method: BalanceMethod::Greedy,
                backbone: model.backbone,
                encoder: model.encoder.expect("VLM has an encoder"),
            },
        ),
    ];

    println!("VLM pretraining: {} on {}", model.name, catalog.name);
    println!(
        "{:>10} | {:>12} | {:>12} | {:>12} | {:>12}",
        "strategy", "encoder_s", "backbone_s", "iter_s", "tokens/s"
    );
    let mut baseline_iter = 0.0;
    for (name, strategy) in strategies {
        let mut msd = MegaScaleData::new(MsdConfig {
            catalog: catalog.clone(),
            mesh: mesh.clone(),
            strategy,
            planner: PlannerConfig {
                axis: DistributeAxis::DP,
                group_size: None,
                microbatches: 8,
                broadcast_axes: vec![Axis::TP],
                samples_per_step: 96,
                schedule: MixSchedule::uniform(catalog.len()),
            },
            max_seq_len: ctx,
            resources: ClusterResources {
                total_cores: 256,
                total_mem_bytes: 4 << 40,
            },
            partition: PartitionOpts::default(),
            buffer_capacity: 512,
            seed: 7,
        });
        let setup = TrainSetup::new(mesh.clone(), GpuSpec::l20(), model.clone());
        let mut iter_sum = 0.0;
        let mut enc_sum = 0.0;
        let mut bb_sum = 0.0;
        let mut tokens = 0u64;
        let steps = 3;
        for _ in 0..steps {
            let out = msd.step().expect("step");
            let loads = loads_for(&out, &model, &mesh, ctx);
            let b = setup.iteration(&loads);
            iter_sum += b.total_s();
            enc_sum += b.encoder_s;
            bb_sum += b.backbone_s;
            tokens += out
                .metas
                .values()
                .map(SampleMeta::total_tokens)
                .sum::<u64>();
        }
        let iter = iter_sum / steps as f64;
        if name == "baseline" {
            baseline_iter = iter;
        }
        println!(
            "{:>10} | {:>12.2} | {:>12.2} | {:>12.2} | {:>12.0}  ({:.2}x)",
            name,
            enc_sum / steps as f64,
            bb_sum / steps as f64,
            iter,
            tokens as f64 / iter_sum,
            baseline_iter / iter,
        );
    }
}

/// Converts one step's plan into per-rank trainer loads (the same logic
/// the benches use, inlined here to keep the example self-contained).
fn loads_for(
    out: &megascale_data::core::system::StepOutput,
    model: &megascale_data::train::ModelPreset,
    mesh: &DeviceMesh,
    ctx: u64,
) -> RankLoads {
    let metas: &HashMap<u64, SampleMeta> = &out.metas;
    let backbone_mb_flops = out
        .plan
        .buckets
        .iter()
        .map(|b| {
            b.bins
                .iter()
                .map(|bin| {
                    model.backbone.flops_packed(
                        bin.samples
                            .iter()
                            .filter_map(|id| metas.get(id))
                            .map(|m| m.total_tokens().clamp(1, ctx)),
                    )
                })
                .collect()
        })
        .collect();
    let world = mesh.world_size() as usize;
    let encoder = model.encoder.expect("VLM");
    let mut encoder_rank_flops = vec![0.0; world];
    match out.plan.subplans.get("encoder") {
        Some(sub) => {
            for (r, bucket) in sub.buckets.iter().enumerate() {
                for bin in &bucket.bins {
                    for id in &bin.samples {
                        if let Some(m) = metas.get(id) {
                            encoder_rank_flops[r % world] +=
                                encoder.flops_sample(u64::from(m.image_patches));
                        }
                    }
                }
            }
        }
        None => {
            // Unbalanced: images stay on each bucket's fetching clients.
            for bucket in &out.plan.buckets {
                let ranks: Vec<usize> = bucket
                    .clients
                    .iter()
                    .filter(|r| {
                        megascale_data::mesh::delivery_kind(mesh, **r, &out.plan.broadcast_axes)
                            == megascale_data::mesh::DeliveryKind::Payload
                    })
                    .map(|r| *r as usize)
                    .collect();
                let mut i = 0usize;
                for bin in &bucket.bins {
                    for id in &bin.samples {
                        if let Some(m) = metas.get(id) {
                            if m.image_patches > 0 && !ranks.is_empty() {
                                encoder_rank_flops[ranks[i % ranks.len()]] +=
                                    encoder.flops_sample(u64::from(m.image_patches));
                                i += 1;
                            }
                        }
                    }
                }
            }
        }
    }
    RankLoads {
        backbone_mb_flops,
        encoder_rank_flops,
        a2a_bytes_per_rank: 1e6,
    }
}
