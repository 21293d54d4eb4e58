//! Elastic serving: the control plane rescales the loader fleet live.
//!
//! ```text
//! cargo run --example elastic_serve
//! ```
//!
//! A 5-source pipeline serves 4 trainer clients while the data mixture
//! drifts: source 0 takes 80% of sampling for the first 8 plan steps,
//! then collapses to 4%. The [`ControllerActor`] — ticked by the serve
//! driver every step — watches the planner's mixing-weight telemetry and
//! per-loader health, spawns extra supervised loaders for the hot
//! source, and later retires them through the drain/hand-off protocol.
//! Clients never see a gap or a duplicate; every scaling event lands in
//! the GCS as an `MSDB` checkpoint a restarted deployment resumes from.

use std::time::Duration;

use megascale_data::actor::Gcs;
use megascale_data::balance::BalanceMethod;
use megascale_data::core::constructor::DataConstructor;
use megascale_data::core::loader::LoaderConfig;
use megascale_data::core::planner::{Planner, PlannerConfig, Strategy};
use megascale_data::core::schedule::MixSchedule;
use megascale_data::core::system::controller::ControllerConfig;
use megascale_data::core::system::runtime::{ServeOptions, ThreadedPipeline};
use megascale_data::data::catalog::coyo700m_like;
use megascale_data::data::SourceSpec;
use megascale_data::mesh::{Axis, ClientPlaceTree, DeviceMesh, DistributeAxis};
use megascale_data::sim::SimRng;

fn main() {
    let mut rng = SimRng::seed(5);
    let catalog = coyo700m_like(&mut rng);
    let mesh = DeviceMesh::pp_dp_cp_tp(1, 2, 1, 2).expect("mesh");
    let tree = ClientPlaceTree::from_device_mesh(&mesh);

    // The drifting mixture: scorching source 0, then nearly idle.
    let schedule = MixSchedule::Staged(vec![
        (0, vec![0.8, 0.05, 0.05, 0.05, 0.05]),
        (8, vec![0.04, 0.24, 0.24, 0.24, 0.24]),
    ]);
    let planner = Planner::new(
        PlannerConfig {
            axis: DistributeAxis::DP,
            group_size: None,
            microbatches: 2,
            broadcast_axes: vec![Axis::TP],
            samples_per_step: 16,
            schedule,
        },
        Strategy::BackboneBalance {
            method: BalanceMethod::Greedy,
            backbone: megascale_data::balance::BackboneShape {
                layers: 2,
                hidden: 128,
                mlp_ratio: 4.0,
                heads: 2,
                vocab: 1000,
                experts_per_token: 1,
            },
        },
        tree,
        catalog.sources().iter().map(|s| s.id).collect(),
        7,
    );
    let sources: Vec<(SourceSpec, LoaderConfig)> = catalog
        .sources()
        .iter()
        .enumerate()
        .map(|(i, s)| (s.clone(), LoaderConfig::solo(i as u32)))
        .collect();
    let constructors = (0..2)
        .map(|_| DataConstructor::new(mesh.clone(), 4096))
        .collect();

    // A fast-reacting controller so the demo scales within a few steps.
    let controller = ControllerConfig {
        alpha: 0.6,
        patience: 2,
        max_loaders_per_source: 3,
        ..ControllerConfig::default()
    };
    let mut pipeline =
        ThreadedPipeline::new_with(sources, planner, constructors, 99, Gcs::new(), controller);
    println!(
        "spawned {} loaders across {} sources",
        pipeline.loaders().len(),
        catalog.len()
    );

    let steps = 20u64;
    let mut session = pipeline.serve(ServeOptions {
        clients: 4,
        steps,
        refill_target: 32,
        queue_depth: 3,
        control_interval: 1, // Tick the controller every serve step.
        pull_timeout: Duration::from_millis(500),
        ..ServeOptions::default()
    });
    let handles: Vec<_> = session
        .take_clients()
        .into_iter()
        .map(|mut client| {
            std::thread::spawn(move || {
                let mut pulled = 0u64;
                while client.next().is_some() {
                    pulled += 1;
                }
                (client.id, pulled)
            })
        })
        .collect();
    for h in handles {
        let (id, pulled) = h.join().expect("client thread");
        assert_eq!(pulled, steps, "client {id} missed steps");
        println!("client {id}: {pulled}/{steps} batches, gap-free");
    }
    assert_eq!(session.join(), steps, "driver fell short");

    let status = pipeline.controller_status().expect("controller status");
    println!(
        "controller: {} ticks, {} scale-ups, {} retirements, {} rebalances ({} GCS-checkpointed events)",
        status.ticks, status.scale_ups, status.scale_downs, status.rebalances, status.checkpointed_events,
    );
    let stats = pipeline.stats();
    println!("final topology (loaders per source):");
    for (source, count) in stats.loaders_per_source() {
        println!("  source {:>2}: {count} loader(s)", source.0);
    }
    println!(
        "fleet health: {} buffered samples across {} loaders",
        stats.total_buffered(),
        stats.loaders.len()
    );
    pipeline.shutdown();
    println!("done: the mixture drifted, the fleet followed, no client noticed.");
}
