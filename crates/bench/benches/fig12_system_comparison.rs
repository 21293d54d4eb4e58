//! Fig 12 — Comparison of data processing systems.
//!
//! Llama-12B + ViT-2B on the paper's two cluster shapes:
//! 288 GPUs (TP=4, PP=8, DP=9) and 576 GPUs (TP=4, PP=4, CP=4, DP=9),
//! batch size 72 per DP replica. Six systems: torch, tf.data, Cachew,
//! Pecan, Ray Data, MegaScale-Data. Three metrics: average training
//! iteration time, average data fetch latency, average loader memory per
//! node. Paper headlines: 3.63×/2.71× iteration speedup and 4.2×/14.5×
//! memory reduction.

use msd_balance::BalanceMethod;
use msd_bench::baselines::{fig12_systems, ClusterShape, WorkloadShape};
use msd_bench::train::models::vlm_preset;
use msd_bench::train::{GpuSpec, TrainSetup};
use msd_bench::{banner, f, gib, plan_to_loads, table_header, table_row, Scenario};
use msd_core::planner::Strategy;
use msd_data::catalog::navit_like;
use msd_mesh::DeviceMesh;
use msd_sim::SimRng;

fn iteration_time(scenario: &Scenario, strategy: Strategy) -> f64 {
    let mut msd = scenario.pipeline(strategy, 7);
    let setup = TrainSetup::new(
        scenario.mesh.clone(),
        GpuSpec::l20(),
        scenario.model.clone(),
    );
    let mut total = 0.0;
    let steps = 3;
    for _ in 0..steps {
        let out = msd.step().expect("step");
        let loads = plan_to_loads(
            &out.plan,
            &out.metas,
            &scenario.model,
            &scenario.mesh,
            scenario.ctx,
        );
        total += setup.iteration(&loads).total_s();
    }
    total / steps as f64
}

fn main() {
    banner(
        "Figure 12",
        "Data processing system comparison (Llama-12B + ViT-2B)",
    );
    let mut rng = SimRng::seed(12);
    let catalog = navit_like(&mut rng);
    let model = vlm_preset("ViT-2B", "Llama-12B");

    let configs: Vec<(&str, DeviceMesh)> = vec![
        (
            "288 GPUs (TP4 PP8 DP9)",
            DeviceMesh::pp_dp_cp_tp(8, 9, 1, 4).unwrap(),
        ),
        (
            "576 GPUs (TP4 PP4 CP4 DP9)",
            DeviceMesh::pp_dp_cp_tp(4, 9, 4, 4).unwrap(),
        ),
    ];

    for (label, mesh) in configs {
        let scenario = Scenario {
            mesh: mesh.clone(),
            model: model.clone(),
            ctx: 8192,
            microbatches: 8,
            samples_per_step: 72 * 9,
            catalog: catalog.clone(),
        };
        // Iteration times: baselines run unbalanced; MSD runs hybrid.
        let iter_vanilla = iteration_time(&scenario, Strategy::Vanilla);
        let iter_msd = iteration_time(
            &scenario,
            Strategy::HybridBalance {
                method: BalanceMethod::Greedy,
                backbone: model.backbone,
                encoder: model.encoder.expect("VLM"),
            },
        );

        let cluster = ClusterShape::l20_node(mesh);
        let mean_ns: f64 = catalog
            .sources()
            .iter()
            .map(|s| s.mean_transform_cost_ns(&mut rng, 16))
            .sum::<f64>()
            / catalog.len() as f64;
        let max_ns = catalog
            .sources()
            .iter()
            .map(|s| s.mean_transform_cost_ns(&mut rng, 16))
            .fold(0.0f64, f64::max);
        let workload = WorkloadShape {
            sources: catalog.len() as u32,
            access_state_bytes: catalog.total_access_state_bytes() / catalog.len() as u64,
            mean_transform_ns: mean_ns,
            max_transform_ns: max_ns,
            samples_per_iter: 72 * 9,
            sample_bytes: 512 << 10,
            iter_compute_s: iter_vanilla,
        };

        println!("\n--- {label} ---");
        table_header(&["system", "iter_time_s", "fetch_s", "mem/node_GiB"]);
        let mut best_baseline_iter = f64::INFINITY;
        let mut best_baseline_mem = u64::MAX;
        let mut msd_iter = 0.0;
        let mut msd_mem = 0u64;
        for system in fig12_systems() {
            let report = system.report(&cluster, &workload);
            let iter = if system.balances() {
                iter_msd
            } else {
                iter_vanilla
            };
            if system.balances() {
                msd_iter = iter;
                msd_mem = report.memory_per_node;
            } else {
                best_baseline_iter = best_baseline_iter.min(iter);
                best_baseline_mem = best_baseline_mem.min(report.memory_per_node);
            }
            table_row(&[
                report.name.clone(),
                f(iter),
                f(report.fetch_latency_s),
                gib(report.memory_per_node),
            ]);
        }
        println!(
            "iteration speedup vs best baseline: {:.2}x   [paper: 3.63x at 288, 2.71x at 576]",
            best_baseline_iter / msd_iter
        );
        println!(
            "memory reduction vs best baseline:  {:.1}x   [paper: 4.2x at 288, 14.5x at 576]",
            best_baseline_mem as f64 / msd_mem as f64
        );
    }
}
