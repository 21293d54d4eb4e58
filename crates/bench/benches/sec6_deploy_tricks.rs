//! Sec 6.2 — Deployment tricks, quantified.
//!
//! The paper describes three production deployment tricks without a
//! dedicated figure; this target measures the two that change dataflow:
//!
//! 1. **Hybrid deployment** (trick 1): pack loader actors into idle
//!    accelerator-pod sidecars first, renting remote CPU pods only on
//!    overflow.
//! 2. **Transformation reordering** (trick 2, Pecan-inspired): defer
//!    payload-inflating transforms (image decode) past the
//!    loader → constructor link.
//! 3. **Selective broadcasting** (trick 3): broadcast within TP/CP
//!    subgroups bottom-up over the `ClientPlaceTree`, trading replication
//!    for fewer synchronized clients.

use msd_balance::BalanceMethod;
use msd_bench::autoscale::{place_actors, HybridDeployment, PodSpec};
use msd_bench::net::NetModel;
use msd_bench::{banner, f, model, table_header, table_row, Scenario};
use msd_core::autoscale::{partition_sources, ClusterResources, PartitionOpts};
use msd_core::planner::Strategy;
use msd_data::catalog::{coyo700m_like, navit_sized};
use msd_data::Catalog;
use msd_mesh::{Axis, ClientPlaceTree, DeviceMesh};
use msd_sim::SimRng;

fn hybrid_deployment_section() {
    banner(
        "Sec 6.2 trick 1",
        "Hybrid deployment: sidecar-first placement, remote pods on overflow",
    );
    let mut rng = SimRng::seed(61);
    let catalog = navit_sized(&mut rng, 100);
    let setups = partition_sources(
        &catalog,
        ClusterResources {
            total_cores: 1024,
            total_mem_bytes: 16 << 40,
        },
        &PartitionOpts::default(),
        &mut rng,
    );
    let total_actors: u32 = setups.iter().map(|s| s.actors).sum();
    println!("{total_actors} loader actors over {} sources", setups.len());
    table_header(&[
        "sidecar_idle",
        "accel_pods",
        "on_sidecar_%",
        "remote_pods",
        "sidecar_cores",
    ]);
    // Sweep the idle capacity fraction the accelerators donate: the paper
    // cites ~75% idle auxiliary CPU under static allocations.
    let mut prev_remote = u32::MAX;
    for (label, cores, mem_gib) in [
        ("10%", 4u64, 64u64),
        ("25%", 10, 160),
        ("50%", 20, 320),
        ("75%", 30, 480),
    ] {
        let plan = place_actors(
            &setups,
            &HybridDeployment {
                accelerator_pods: 36,
                sidecar: PodSpec {
                    cores,
                    mem_bytes: mem_gib << 30,
                },
                remote: PodSpec {
                    cores: 64,
                    mem_bytes: 1 << 40,
                },
            },
        );
        table_row(&[
            label.to_string(),
            "36".to_string(),
            f(plan.sidecar_fraction() * 100.0),
            plan.remote_pods.to_string(),
            plan.sidecar_cores().to_string(),
        ]);
        assert!(plan.remote_pods <= prev_remote, "spill must shrink");
        prev_remote = plan.remote_pods;
    }
    println!(
        "\nMore donated sidecar capacity -> fewer rented CPU pods \
         (paper: sidecars first, remote pods only when insufficient)."
    );
}

fn reordering_section() {
    banner(
        "Sec 6.2 trick 2",
        "Transformation reordering: ship bytes, loader-side vs deferred decode",
    );
    let mut rng = SimRng::seed(62);
    let catalogs: Vec<(&str, Catalog)> = vec![
        ("coyo700m (image)", coyo700m_like(&mut rng)),
        ("navit-20 (mixed)", navit_sized(&mut rng, 20)),
    ];
    table_header(&[
        "catalog",
        "mode",
        "ship_KiB",
        "loader_ms",
        "constr_ms",
        "fetch_ms",
        "plan_us",
    ]);
    for (name, catalog) in catalogs {
        let scenario = Scenario {
            mesh: DeviceMesh::pp_dp_cp_tp(1, 4, 1, 2).unwrap(),
            model: msd_bench::train::models::vlm_preset("ViT-1B", "Llama-12B"),
            ctx: 8192,
            microbatches: 4,
            samples_per_step: 96,
            catalog: catalog.clone(),
        };
        let strategy = Strategy::BackboneBalance {
            method: BalanceMethod::Greedy,
            backbone: scenario.model.backbone,
        };
        // One pipeline, both placements: its loaders ship every sample
        // before the tail, and each step is projected loader-side (the
        // settled bytes cross the link) and deferred (the raw bytes do).
        let mut msd = scenario.pipeline(strategy, 62);
        // Warm, then average 3 steps.
        msd.step().expect("warmup");
        let steps = 3u64;
        // `fetch_ms` is the modeled fetch alone, so two runs print the
        // same value; the planner's measured compute is `plan_us`.
        let (mut ship, mut loader, mut constr, mut fetch, mut plan) =
            ([0u64; 2], [0u64; 2], [0u64; 2], [0u64; 2], 0u64);
        for _ in 0..steps {
            let (out, pair) = model::reordering_pair(&mut msd);
            ship[0] += out.metas.values().map(|m| m.raw_bytes).sum::<u64>();
            ship[1] += out.ship_bytes;
            plan += out.phases.compute_ns;
            for (i, times) in pair.iter().enumerate() {
                loader[i] += times.loader_ns;
                constr[i] += times.constructor_ns;
                fetch[i] += times.fetch_ns - out.phases.compute_ns;
            }
        }
        for (i, mode) in ["loader-side", "deferred"].into_iter().enumerate() {
            table_row(&[
                name.to_string(),
                mode.to_string(),
                (ship[i] / steps / 1024).to_string(),
                f(loader[i] as f64 / steps as f64 / 1e6),
                f(constr[i] as f64 / steps as f64 / 1e6),
                f(fetch[i] as f64 / steps as f64 / 1e6),
                f(plan as f64 / steps as f64 / 1e3),
            ]);
        }
        assert!(
            ship[1] < ship[0],
            "{name}: deferral must shrink shipped bytes ({} vs {})",
            ship[1] / steps,
            ship[0] / steps
        );
    }
    println!(
        "\nDeferring decode keeps payloads encoded across the loader->constructor \
         link (paper: Pecan-inspired reordering)."
    );
}

fn selective_broadcast_section() {
    banner(
        "Sec 6.2 trick 3",
        "Selective broadcasting: synchronized clients vs subgroup replication",
    );
    let meshes = vec![
        (
            "288 (PP8 DP9 TP4)",
            DeviceMesh::pp_dp_cp_tp(8, 9, 1, 4).unwrap(),
        ),
        (
            "576 (PP4 DP9 CP4 TP4)",
            DeviceMesh::pp_dp_cp_tp(4, 9, 4, 4).unwrap(),
        ),
        (
            "1152 (PP4 DP18 CP4 TP4)",
            DeviceMesh::pp_dp_cp_tp(4, 18, 4, 4).unwrap(),
        ),
    ];
    let net = NetModel::default();
    let payload_bytes = 64u64 << 20; // One bucket batch (~64 MiB tensors).
    table_header(&[
        "mesh",
        "bcast_axes",
        "sync_clients",
        "barrier_ms",
        "replication",
        "extra_MiB",
    ]);
    for (label, mesh) in &meshes {
        let tree = ClientPlaceTree::from_device_mesh(mesh);
        for axes in [vec![], vec![Axis::TP], vec![Axis::TP, Axis::CP]] {
            let t = tree.broadcast_tradeoff(&axes);
            let barrier_ms = net.barrier(t.sync_clients).as_nanos() as f64 / 1e6;
            let extra_mib = payload_bytes * u64::from(t.extra_traffic_factor()) / (1 << 20);
            table_row(&[
                label.to_string(),
                format!("{:?}", t.axes),
                t.sync_clients.to_string(),
                f(barrier_ms),
                format!("{}x", t.replication),
                extra_mib.to_string(),
            ]);
        }
        // Bottom-up auto-selection under a 64-client barrier budget.
        let auto = tree.select_broadcast_axes(64);
        println!(
            "  {label}: budget 64 sync clients -> select {:?} ({} clients, {}x replication)",
            auto.axes, auto.sync_clients, auto.replication
        );
        // Broadcasting monotonically reduces the barrier size.
        let none = tree.broadcast_tradeoff(&[]).sync_clients;
        let tp = tree.broadcast_tradeoff(&[Axis::TP]).sync_clients;
        assert!(tp < none);
    }
    println!(
        "\nEach broadcast level shrinks the client barrier at the cost of \
         subgroup replication (paper: bottom-up selective broadcasting)."
    );
}

fn main() {
    hybrid_deployment_section();
    reordering_section();
    selective_broadcast_section();
    println!("\nSec 6.2 deployment tricks verified on this implementation.");
}
