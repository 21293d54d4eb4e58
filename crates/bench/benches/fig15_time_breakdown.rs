//! Fig 15 — Component time breakdown under scaled configurations.
//!
//! Base configuration: 576 GPUs, 8k context, BS 72, 100 sources; then one
//! knob at a time: sources 100→300, context 8k→32k, batch 72→288, GPUs
//! 576→1152. For each, prints the planner phases (buffer gather, compute
//! plan, broadcast plan) in µs, Source Loader and Data Constructor times,
//! and the total iteration time they hide behind. Plan compute is measured
//! wall time; every other column is a projection of `msd_bench::model`.

use msd_balance::BalanceMethod;
use msd_bench::train::models::vlm_preset;
use msd_bench::train::{GpuSpec, TrainSetup};
use msd_bench::{banner, f, model, plan_to_loads, table_header, table_row, Scenario};
use msd_core::planner::Strategy;
use msd_data::catalog::navit_sized;
use msd_mesh::DeviceMesh;
use msd_sim::SimRng;

struct Config {
    label: &'static str,
    sources: u32,
    ctx: u64,
    batch: usize,
    mesh: DeviceMesh,
}

fn main() {
    banner("Figure 15", "Time breakdown of MegaScale-Data components");
    let mesh_576 = DeviceMesh::pp_dp_cp_tp(4, 9, 4, 4).unwrap();
    let mesh_1152 = DeviceMesh::pp_dp_cp_tp(4, 18, 4, 4).unwrap();
    let configs = vec![
        Config {
            label: "base (576 GPUs, 8k, BS72, 100 src)",
            sources: 100,
            ctx: 8192,
            batch: 72 * 9,
            mesh: mesh_576.clone(),
        },
        Config {
            label: "sources 100 -> 300",
            sources: 300,
            ctx: 8192,
            batch: 72 * 9,
            mesh: mesh_576.clone(),
        },
        Config {
            label: "context 8k -> 32k",
            sources: 100,
            ctx: 32768,
            batch: 72 * 9,
            mesh: mesh_576.clone(),
        },
        Config {
            label: "batch 72 -> 288",
            sources: 100,
            ctx: 8192,
            batch: 288 * 9,
            mesh: mesh_576,
        },
        Config {
            label: "GPUs 576 -> 1152",
            sources: 100,
            ctx: 8192,
            batch: 72 * 18,
            mesh: mesh_1152,
        },
    ];

    table_header(&[
        "config",
        "gather_us",
        "plan_us",
        "bcast_us",
        "loader_s",
        "constr_s",
        "iter_s",
    ]);
    for cfg in configs {
        let mut rng = SimRng::seed(15);
        let catalog = navit_sized(&mut rng, cfg.sources);
        let model = vlm_preset("ViT-2B", "Llama-12B");
        let scenario = Scenario {
            mesh: cfg.mesh.clone(),
            model: model.clone(),
            ctx: cfg.ctx,
            microbatches: 8,
            samples_per_step: cfg.batch,
            catalog,
        };
        let mut msd = scenario.pipeline(
            Strategy::HybridBalance {
                method: BalanceMethod::Greedy,
                backbone: model.backbone,
                encoder: model.encoder.expect("VLM"),
            },
            15,
        );
        let setup = TrainSetup::new(cfg.mesh.clone(), GpuSpec::l20(), model.clone());
        // Warm-up step, then measure.
        model::step(&mut msd);
        let (out, times) = model::step(&mut msd);
        let loads = plan_to_loads(&out.plan, &out.metas, &model, &cfg.mesh, cfg.ctx);
        let iter_s = setup.iteration(&loads).total_s();
        table_row(&[
            cfg.label.to_string(),
            f(times.gather_ns as f64 / 1e3),
            f(out.phases.compute_ns as f64 / 1e3),
            f(times.broadcast_ns as f64 / 1e3),
            f(times.loader_ns as f64 / 1e9),
            f(times.constructor_ns as f64 / 1e9),
            f(iter_s),
        ]);
        let fetch_s = times.fetch_ns as f64 / 1e9;
        assert!(
            fetch_s < iter_s,
            "{}: fetch {fetch_s:.2}s must hide behind iteration {iter_s:.2}s",
            cfg.label
        );
    }
    println!("\nAll data-pipeline components overlap within the iteration (paper Fig 15).");
}
