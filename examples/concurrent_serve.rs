//! Concurrent serving: the fully actorized runtime feeding many clients.
//!
//! ```text
//! cargo run --example concurrent_serve
//! ```
//!
//! Spawns the supervised actor topology (Source Loaders in loader
//! groups, Planner, Data Constructors), starts a
//! [`ThreadedPipeline::serve`] session with pipelined refill-ahead, and
//! has four trainer clients pull their batch streams concurrently — then
//! crashes loader 0's group mid-serve to show the supervised restart
//! keeping every client's stream intact. Exits non-zero if any client
//! falls short of the session's steps.

use std::collections::HashSet;
use std::time::Duration;

use megascale_data::balance::{BackboneShape, BalanceMethod};
use megascale_data::core::constructor::DataConstructor;
use megascale_data::core::loader::LoaderConfig;
use megascale_data::core::planner::{Planner, PlannerConfig, Strategy};
use megascale_data::core::schedule::MixSchedule;
use megascale_data::core::system::runtime::{ServeOptions, ThreadedPipeline};
use megascale_data::data::catalog::coyo700m_like;
use megascale_data::data::SourceSpec;
use megascale_data::mesh::{Axis, ClientPlaceTree, DeviceMesh, DistributeAxis};
use megascale_data::sim::SimRng;

fn main() {
    // Sources, topology, strategy — same shape as the quickstart.
    let mut rng = SimRng::seed(42);
    let catalog = coyo700m_like(&mut rng);
    let mesh = DeviceMesh::pp_dp_cp_tp(1, 2, 1, 2).expect("valid mesh");
    let tree = ClientPlaceTree::from_device_mesh(&mesh);
    let planner = Planner::new(
        PlannerConfig {
            axis: DistributeAxis::DP,
            group_size: None,
            microbatches: 2,
            broadcast_axes: vec![Axis::TP],
            samples_per_step: 32,
            schedule: MixSchedule::uniform(catalog.len()),
        },
        Strategy::BackboneBalance {
            method: BalanceMethod::Greedy,
            backbone: BackboneShape {
                layers: 4,
                hidden: 256,
                mlp_ratio: 4.0,
                heads: 4,
                vocab: 8000,
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
    let constructors: Vec<DataConstructor> = (0..2)
        .map(|_| DataConstructor::new(mesh.clone(), 4096))
        .collect();

    // The actor topology: loader groups + planner + constructors,
    // supervised.
    let mut pipeline = ThreadedPipeline::new(sources, planner, constructors, 99);
    let groups = pipeline.loaders();
    let group_count = groups
        .iter()
        .map(|g| g.name())
        .collect::<HashSet<_>>()
        .len();
    println!(
        "topology: {} loaders in {group_count} loader-group actors, 1 planner actor, \
         {} constructor actors",
        groups.len(),
        pipeline.constructor_actors().len()
    );

    // Serve 8 steps to 4 concurrent clients with refill-ahead prefetch.
    const STEPS: u64 = 8;
    let mut session = pipeline.serve(ServeOptions {
        clients: 4,
        steps: STEPS,
        refill_target: 64,
        queue_depth: 3,
        prefetch: true,
        pull_timeout: Duration::from_millis(500),
        ..ServeOptions::default()
    });
    let handles: Vec<_> = session
        .take_clients()
        .into_iter()
        .map(|mut client| {
            std::thread::spawn(move || {
                let mut pulled = 0u64;
                let mut samples = 0usize;
                while let Some((_, batch)) = client.next() {
                    pulled += 1;
                    samples += batch
                        .microbatches
                        .iter()
                        .flat_map(|m| &m.sequences)
                        .map(|s| s.segments.len())
                        .sum::<usize>();
                }
                (client.id, pulled, samples)
            })
        })
        .collect();

    // Mid-serve fault: crash loader 0's group. Supervision restores each
    // of its loaders from its own GCS checkpoint and replays the plan
    // log; clients never notice.
    std::thread::sleep(Duration::from_millis(20));
    groups[0].inject_crash("demo mid-serve failure");
    println!(
        "injected: crash of loader 0's group ({}) mid-serve",
        groups[0].name()
    );

    let mut short = Vec::new();
    for h in handles {
        let (id, pulled, samples) = h.join().expect("client thread");
        println!("client {id}: pulled {pulled} batches ({samples} packed samples)");
        if pulled != STEPS {
            short.push(id);
        }
    }
    let steps = session.join();
    println!("driver pumped {steps} steps; faults logged: {}", {
        let faults = pipeline.gcs.fault_log("");
        faults.len()
    });
    pipeline.shutdown();
    if !short.is_empty() || steps != STEPS {
        eprintln!("clients {short:?} pulled fewer than {STEPS} steps (driver pumped {steps})");
        std::process::exit(1);
    }
    println!("done: every client pulled all {STEPS} steps through the crash");
}
