//! Table 2 — API cost for data orchestration under scaled setups.
//!
//! Wall-clock cost of the `cost()` and `balance()` primitives as the
//! workload scales: baseline (Llama-12B + ViT-2B, 288 GPUs, BS 72, 8k),
//! then BS 72→144, seq 8k→16k, cluster 288→1152, and group size 1→2 at
//! 1152 GPUs. These are *real measurements* of the DGraph implementation,
//! not simulation. Paper: cost 0.004→0.107 s, balance 0.016→0.357 s —
//! always orders of magnitude below iteration time.

use std::collections::HashMap;

use msd_balance::BalanceMethod;
use msd_bench::train::models::vlm_preset;
use msd_bench::train::{GpuSpec, TrainSetup};
use msd_bench::{banner, plan_to_loads, table_header, table_row};
use msd_core::buffer::{BufferInfo, BufferSummary};
use msd_core::dgraph::{BalanceOpts, DGraph, MetaView};
use msd_data::catalog::navit_like;
use msd_data::SampleMeta;
use msd_mesh::{ClientPlaceTree, DeviceMesh, DistributeAxis};
use msd_sim::SimRng;

struct Case {
    label: &'static str,
    mesh: DeviceMesh,
    samples: usize,
    ctx: u64,
    group: Option<u32>,
}

/// Builds a gathered buffer view with `n` samples across 32 loaders.
fn buffers(n: usize, ctx: u64, rng: &mut SimRng) -> BufferInfo {
    let catalog = navit_like(rng);
    let loaders = 32u32;
    let per = n.div_ceil(loaders as usize);
    let summaries = (0..loaders)
        .map(|l| {
            let spec = &catalog.sources()[(l as usize * 7) % catalog.len()];
            BufferSummary {
                loader_id: l,
                source: spec.id,
                samples: (0..per)
                    .map(|i| {
                        let m = spec.sample_meta(rng, i as u64);
                        SampleMeta {
                            sample_id: (u64::from(l) << 40) | i as u64,
                            text_tokens: m.text_tokens.min(ctx as u32),
                            image_patches: m.image_patches.min(ctx as u32),
                            ..m
                        }
                    })
                    .collect(),
                mean_transform_ns: 1000.0,
            }
        })
        .collect();
    BufferInfo::new(summaries)
}

fn main() {
    banner(
        "Table 2",
        "API cost for data orchestration (measured wall clock)",
    );
    let model = vlm_preset("ViT-2B", "Llama-12B");
    let cases = vec![
        Case {
            label: "baseline (288 GPUs, BS72, 8k)",
            mesh: DeviceMesh::pp_dp_cp_tp(8, 9, 1, 4).unwrap(),
            samples: 72 * 288 / 4,
            ctx: 8192,
            group: None,
        },
        Case {
            label: "+BS 72 -> 144",
            mesh: DeviceMesh::pp_dp_cp_tp(8, 9, 1, 4).unwrap(),
            samples: 144 * 288 / 4,
            ctx: 8192,
            group: None,
        },
        Case {
            label: "+Seq 8k -> 16k",
            mesh: DeviceMesh::pp_dp_cp_tp(8, 9, 1, 4).unwrap(),
            samples: 72 * 288 / 4,
            ctx: 16384,
            group: None,
        },
        Case {
            label: "+Cluster 288 -> 1152",
            mesh: DeviceMesh::pp_dp_cp_tp(8, 36, 1, 4).unwrap(),
            samples: 72 * 1152 / 4,
            ctx: 8192,
            group: None,
        },
        Case {
            label: "+Group 1 -> 2, 1152 GPUs",
            mesh: DeviceMesh::pp_dp_cp_tp(8, 36, 1, 4).unwrap(),
            samples: 72 * 1152 / 4,
            ctx: 8192,
            group: Some(2),
        },
    ];

    table_header(&["case", "cost_s", "balance_s", "iter_s"]);
    for case in cases {
        let mut rng = SimRng::seed(2);
        let info = buffers(case.samples, case.ctx, &mut rng);
        let tree = ClientPlaceTree::from_device_mesh(&case.mesh);
        let mut g = DGraph::from_buffer_infos(&info, MetaView::Tokens);
        g.init(tree);
        g.distribute(DistributeAxis::DP, case.group)
            .expect("distribute");
        let backbone = model.backbone;
        g.cost(move |m| backbone.flops(m.total_tokens()));
        g.balance(BalanceMethod::Greedy, BalanceOpts::inter_microbatch(8))
            .expect("balance");
        let plan = g.plan(0).expect("plan");

        // Iteration time for the same plan, for the "much smaller than
        // training" comparison the paper makes.
        let metas: HashMap<u64, SampleMeta> = info
            .iter_samples()
            .map(|(_, m)| (m.sample_id, *m))
            .collect();
        let setup = TrainSetup::new(case.mesh.clone(), GpuSpec::l20(), model.clone());
        let loads = plan_to_loads(&plan, &metas, &model, &case.mesh, case.ctx);
        let iter_s = setup.iteration(&loads).total_s();

        table_row(&[
            case.label.to_string(),
            format!("{:.4}", g.cost_api_ns as f64 / 1e9),
            format!("{:.4}", g.balance_api_ns as f64 / 1e9),
            format!("{iter_s:.2}"),
        ]);
    }
    println!("\n[paper: cost 0.004 -> 0.107 s; balance 0.016 -> 0.357 s; iter ~14-17 s]");
    println!("Group size caps the balance() growth at large clusters (fewer buckets).");
}
