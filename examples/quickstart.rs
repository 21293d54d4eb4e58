//! Quickstart: declare sources, build a topology, pull balanced batches.
//!
//! ```text
//! cargo run --example quickstart
//! ```
//!
//! This walks the full MegaScale-Data pull workflow on a laptop-scale
//! setup: a 5-source `coyo700m`-like catalog, an 8-GPU mesh (DP=4 × TP=2),
//! backbone load balancing, and three training steps of end-to-end data
//! delivery.

use megascale_data::balance::{BackboneShape, BalanceMethod};
use megascale_data::core::autoscale::{ClusterResources, PartitionOpts};
use megascale_data::core::planner::{PlannerConfig, Strategy};
use megascale_data::core::schedule::MixSchedule;
use megascale_data::core::system::{MegaScaleData, MsdConfig};
use megascale_data::data::catalog::coyo700m_like;
use megascale_data::mesh::{Axis, DeviceMesh, DistributeAxis};
use megascale_data::sim::SimRng;

fn main() {
    // 1. Data sources: five image-text shards with coyo700m's skew.
    let mut rng = SimRng::seed(42);
    let catalog = coyo700m_like(&mut rng);
    println!("catalog: {} with {} sources", catalog.name, catalog.len());

    // 2. Trainer topology: 8 GPUs, DP=4, TP=2 (TP ranks share inputs).
    let mesh = DeviceMesh::pp_dp_cp_tp(1, 4, 1, 2).expect("valid mesh");

    // 3. Orchestration strategy: balance microbatches by quadratic
    //    attention cost on a small backbone.
    let backbone = BackboneShape {
        layers: 12,
        hidden: 1024,
        mlp_ratio: 4.0,
        heads: 16,
        vocab: 32000,
        experts_per_token: 1,
    };
    let config = MsdConfig {
        catalog: catalog.clone(),
        mesh,
        strategy: Strategy::BackboneBalance {
            method: BalanceMethod::Greedy,
            backbone,
        },
        planner: PlannerConfig {
            axis: DistributeAxis::DP,
            group_size: None,
            microbatches: 4,
            broadcast_axes: vec![Axis::TP],
            samples_per_step: 64,
            schedule: MixSchedule::uniform(catalog.len()),
        },
        max_seq_len: 4096,
        resources: ClusterResources {
            total_cores: 32,
            total_mem_bytes: 64 << 30,
        },
        partition: PartitionOpts::default(),
        buffer_capacity: 256,
        seed: 7,
    };

    // 4. Run: each step gathers metadata, plans, pops, and constructs.
    let mut msd = MegaScaleData::new(config);
    println!("loaders provisioned: {}", msd.loader_count());
    for step in 0..3 {
        let out = msd.step().expect("pipeline step");
        let costs = out.plan.bucket_costs();
        let imbalance = costs.iter().cloned().fold(f64::MIN, f64::max)
            / costs.iter().cloned().fold(f64::MAX, f64::min);
        println!(
            "step {step}: {} samples -> {} buckets x {} microbatches, \
             bucket imbalance {imbalance:.2}x, {} KiB shipped, planned in {} us",
            out.plan.all_samples().len(),
            out.plan.buckets.len(),
            out.plan.microbatches(),
            out.ship_bytes / 1024,
            out.phases.compute_ns / 1000,
        );
        // What one trainer client sees:
        let delivery = &out.batches[0].deliveries[0];
        println!(
            "         rank {} receives {:?} ({} bytes)",
            delivery.rank, delivery.kind, delivery.bytes
        );
    }
}
