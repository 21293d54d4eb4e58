//! Fig 3 — Computational imbalance across microbatches.
//!
//! Reproduces the 8-GPU VLM trial: encoder data parallel (EDP = 8) for
//! images, hybrid DP=4 × TP=2 for the backbone, 4 microbatches. Prints the
//! image-FLOPs heatmap over EDP ranks and the token-FLOPs heatmap over DP
//! ranks, with the max/min imbalance factors the paper annotates
//! (3.2× image, 6.9× token).

use std::collections::HashMap;

use msd_bench::train::models::{vit_1b, vlm_preset};
use msd_bench::{banner, table_header, table_row};
use msd_core::planner::Strategy;
use msd_data::catalog::navit_like;
use msd_mesh::DeviceMesh;
use msd_sim::SimRng;

fn main() {
    banner(
        "Figure 3",
        "Computational imbalance across microbatches (8-GPU VLM trial)",
    );
    let mut rng = SimRng::seed(42);
    let catalog = navit_like(&mut rng);
    let mesh = DeviceMesh::pp_dp_cp_tp(1, 4, 1, 2).unwrap(); // 8 GPUs
    let model = vlm_preset("ViT-1B", "Llama-12B");

    let scenario = msd_bench::Scenario {
        mesh: mesh.clone(),
        model: model.clone(),
        ctx: 8192,
        microbatches: 4,
        samples_per_step: 128,
        catalog,
    };
    let mut msd = scenario.pipeline(Strategy::Vanilla, 7);
    let out = msd.step().expect("step");
    let metas: &HashMap<u64, msd_data::SampleMeta> = &out.metas;

    // (a) Image FLOPs heatmap: images round-robin over 8 EDP ranks in
    // arrival order (no balancing), 4 "microbatch" slots each.
    let encoder = vit_1b();
    let mut edp = vec![vec![0.0f64; 4]; 8];
    let mut r = 0usize;
    let mut mbslot = 0usize;
    for id in out.plan.all_samples() {
        if let Some(m) = metas.get(&id) {
            if m.image_patches > 0 {
                edp[r % 8][mbslot % 4] += encoder.flops_sample(u64::from(m.image_patches));
                r += 1;
                if r % 8 == 0 {
                    mbslot += 1;
                }
            }
        }
    }
    println!("\n(a) Image FLOPs heatmap (rows = EDP ranks, cols = microbatches), 1e12 FLOPs:");
    table_header(&["rank", "MB#0", "MB#1", "MB#2", "MB#3"]);
    let mut img_max: f64 = 0.0;
    let mut img_min = f64::INFINITY;
    for (rank, row) in edp.iter().enumerate() {
        for v in row {
            if *v > 0.0 {
                img_max = img_max.max(*v);
                img_min = img_min.min(*v);
            }
        }
        table_row(&[
            format!("EDP{rank}"),
            format!("{:.2}", row[0] / 1e12),
            format!("{:.2}", row[1] / 1e12),
            format!("{:.2}", row[2] / 1e12),
            format!("{:.2}", row[3] / 1e12),
        ]);
    }
    println!(
        "image imbalance (max/min): {:.1}x   [paper: 3.2x]",
        img_max / img_min
    );

    // (b) Token FLOPs heatmap over DP ranks × microbatches from the plan.
    println!("\n(b) Token FLOPs heatmap (rows = DP ranks, cols = microbatches), 1e13 FLOPs:");
    table_header(&["rank", "MB#0", "MB#1", "MB#2", "MB#3"]);
    let mut tok_max: f64 = 0.0;
    let mut tok_min = f64::INFINITY;
    for bucket in &out.plan.buckets {
        let mut cells = vec![format!("DP{}", bucket.bucket)];
        for bin in &bucket.bins {
            let flops: f64 = bin
                .samples
                .iter()
                .filter_map(|id| metas.get(id))
                .map(|m| model.backbone.flops(m.total_tokens()))
                .sum();
            tok_max = tok_max.max(flops);
            tok_min = tok_min.min(flops);
            cells.push(format!("{:.2}", flops / 1e13));
        }
        table_row(&cells);
    }
    println!(
        "token imbalance (max/min): {:.1}x   [paper: 6.9x]",
        tok_max / tok_min
    );
}
