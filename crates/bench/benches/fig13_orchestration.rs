//! Fig 13 — End-to-end orchestration performance.
//!
//! Four panels (backbone × dataset), each sweeping encoder size and
//! context length, each comparing three strategies: Baseline (no
//! scheduling), Backbone balance, and Hybrid balance. Reports training
//! throughput (tokens/s) with speedups vs the baseline. Paper headlines:
//! up to 4.54× (avg 1.77×); gains grow with context length (4k: 1.71×,
//! 8k: 2.63×, 16k: 3.09× average hybrid speedups).

use msd_bench::train::models::vlm_preset;
use msd_bench::{banner, run_scenario, table_header, table_row, Scenario};
use msd_data::catalog::{coyo700m_like, navit_like};
use msd_data::Catalog;
use msd_mesh::DeviceMesh;
use msd_sim::SimRng;

struct Panel {
    backbone: &'static str,
    dataset: &'static str,
    cells: Vec<(&'static str, u64)>, // (encoder, ctx)
}

fn catalog_for(name: &str, rng: &mut SimRng) -> Catalog {
    match name {
        "coyo700m" => coyo700m_like(rng),
        _ => navit_like(rng),
    }
}

fn main() {
    banner(
        "Figure 13",
        "End-to-end orchestration performance (tokens/s)",
    );
    // Table 1 models are exercised here; print them once as the Table 1
    // reproduction.
    println!("\nTable 1 model configurations:");
    table_header(&["model", "layers", "heads", "hidden", "topk"]);
    for (name, enc) in [
        ("ViT-1B", msd_bench::train::models::vit_1b()),
        ("ViT-2B", msd_bench::train::models::vit_2b()),
    ] {
        table_row(&[
            name.to_string(),
            enc.layers.to_string(),
            enc.heads.to_string(),
            enc.hidden.to_string(),
            "-".to_string(),
        ]);
    }
    for (name, b) in [
        ("Llama-12B", msd_bench::train::models::llama_12b()),
        ("tMoE-25B", msd_bench::train::models::tmoe_25b()),
        ("Mixtral-8x7B", msd_bench::train::models::mixtral_8x7b()),
    ] {
        table_row(&[
            name.to_string(),
            b.layers.to_string(),
            b.heads.to_string(),
            b.hidden.to_string(),
            b.experts_per_token.to_string(),
        ]);
    }

    let panels = vec![
        Panel {
            backbone: "Llama-12B",
            dataset: "navit",
            cells: vec![
                ("ViT-1B", 4096),
                ("ViT-1B", 8192),
                ("ViT-2B", 4096),
                ("ViT-2B", 8192),
            ],
        },
        Panel {
            backbone: "tMoE-25B",
            dataset: "coyo700m",
            cells: vec![
                ("ViT-1B", 4096),
                ("ViT-1B", 8192),
                ("ViT-2B", 4096),
                ("ViT-2B", 8192),
            ],
        },
        Panel {
            backbone: "tMoE-25B",
            dataset: "navit",
            cells: vec![
                ("ViT-1B", 4096),
                ("ViT-1B", 8192),
                ("ViT-2B", 4096),
                ("ViT-2B", 8192),
            ],
        },
        Panel {
            backbone: "Mixtral-8x7B",
            dataset: "coyo700m",
            cells: vec![
                ("ViT-1B", 8192),
                ("ViT-1B", 16384),
                ("ViT-2B", 8192),
                ("ViT-2B", 16384),
            ],
        },
    ];

    let mut rng = SimRng::seed(13);
    let mesh = DeviceMesh::pp_dp_cp_tp(2, 4, 1, 2).unwrap();
    let mut hybrid_speedups = Vec::new();
    let mut by_ctx: std::collections::BTreeMap<u64, Vec<f64>> = Default::default();

    for panel in &panels {
        println!("\n--- {}, {} ---", panel.backbone, panel.dataset);
        table_header(&["encoder/ctx", "baseline", "backbone", "hybrid", "speedup"]);
        for (encoder, ctx) in &panel.cells {
            let catalog = catalog_for(panel.dataset, &mut rng);
            let mean_tokens: f64 = if panel.dataset == "coyo700m" {
                4500.0
            } else {
                7500.0
            };
            let samples = ((4.0 * 8.0 * *ctx as f64 / mean_tokens).ceil() as usize).max(24);
            let scenario = Scenario {
                mesh: mesh.clone(),
                model: vlm_preset(encoder, panel.backbone),
                ctx: *ctx,
                microbatches: 8,
                samples_per_step: samples,
                catalog,
            };
            let strategies = scenario.strategies();
            let (base, _) = run_scenario(&scenario, strategies[0].clone(), 3, 7);
            let (bb, _) = run_scenario(&scenario, strategies[1].clone(), 3, 7);
            let (hy, _) = run_scenario(&scenario, strategies[2].clone(), 3, 7);
            let speedup = hy / base;
            hybrid_speedups.push(speedup);
            by_ctx.entry(*ctx).or_default().push(speedup);
            table_row(&[
                format!("{encoder}/{}k", ctx / 1024),
                format!("{base:.0}"),
                format!("{bb:.0}"),
                format!("{hy:.0}"),
                format!("{speedup:.2}x"),
            ]);
        }
    }

    let avg: f64 = hybrid_speedups.iter().sum::<f64>() / hybrid_speedups.len() as f64;
    let max = hybrid_speedups.iter().cloned().fold(0.0f64, f64::max);
    println!("\nhybrid speedup: avg {avg:.2}x, max {max:.2}x   [paper: avg 1.77x, max 4.54x]");
    println!("speedup by context length [paper: 4k 1.71x, 8k 2.63x, 16k 3.09x]:");
    for (ctx, v) in by_ctx {
        println!(
            "  {}k: {:.2}x",
            ctx / 1024,
            v.iter().sum::<f64>() / v.len() as f64
        );
    }
}
