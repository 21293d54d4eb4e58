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
//! keeping every client's stream intact. Exits non-zero if the crash
//! does not land mid-serve or any client falls short of the session's
//! steps.

use std::collections::HashSet;
use std::time::{Duration, Instant};

use megascale_data::balance::{BackboneShape, BalanceMethod};
use megascale_data::core::constructor::DataConstructor;
use megascale_data::core::loader::LoaderConfig;
use megascale_data::core::planner::{Planner, PlannerConfig, Strategy};
use megascale_data::core::schedule::MixSchedule;
use megascale_data::core::system::runtime::{ServeClient, ServeOptions, ThreadedPipeline};
use megascale_data::data::catalog::coyo700m_like;
use megascale_data::data::SourceSpec;
use megascale_data::mesh::{Axis, ClientPlaceTree, DeviceMesh, DistributeAxis};
use megascale_data::sim::SimRng;

/// Pulls the client's next batch; returns how many packed samples it
/// carries, or `None` at the end of the stream.
fn pull(client: &mut ServeClient) -> Option<usize> {
    let (_, batch) = client.next()?;
    Some(
        batch
            .microbatches
            .iter()
            .flat_map(|m| &m.sequences)
            .map(|s| s.segments.len())
            .sum(),
    )
}

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
    const QUEUE_DEPTH: u64 = 3;
    const PARK_AT: u64 = 2;
    let mut session = pipeline.serve(ServeOptions {
        clients: 4,
        steps: STEPS,
        refill_target: 64,
        queue_depth: QUEUE_DEPTH,
        prefetch: true,
        pull_timeout: Duration::from_millis(500),
        ..ServeOptions::default()
    });
    let mut clients = session.take_clients();
    let mut parked = clients.pop().expect("a client to park");
    let handles: Vec<_> = clients
        .into_iter()
        .map(|mut client| {
            std::thread::spawn(move || {
                let (mut pulled, mut samples) = (0u64, 0usize);
                while let Some(n) = pull(&mut client) {
                    pulled += 1;
                    samples += n;
                }
                (client.id, pulled, samples)
            })
        })
        .collect();

    // Park the last client at cursor PARK_AT: backpressure then holds
    // the driver at step PARK_AT + QUEUE_DEPTH, and once every loader
    // has checkpointed that step the crash provably lands mid-serve.
    let mut parked_samples = 0usize;
    while parked.consumed() < PARK_AT {
        parked_samples += pull(&mut parked).expect("pull before parking");
    }
    let stalled_at = PARK_AT + QUEUE_DEPTH;
    let keys: Vec<String> = pipeline
        .loader_identities()
        .iter()
        .map(|id| format!("loader/{}", id.loader_id))
        .collect();
    let deadline = Instant::now() + Duration::from_secs(60);
    while !keys
        .iter()
        .all(|k| pipeline.gcs.state_version(k) == stalled_at)
    {
        if Instant::now() > deadline {
            eprintln!("the driver never stalled at step {stalled_at}");
            std::process::exit(1);
        }
        std::thread::sleep(Duration::from_millis(5));
    }

    // Mid-serve fault: crash loader 0's group. Supervision restores each
    // of its loaders from its own GCS checkpoint and replays the plan
    // log; clients never notice.
    groups[0].inject_crash("demo mid-serve failure");
    let served = stalled_at + 1;
    println!(
        "injected: crash of loader 0's group ({}) with {served} of {STEPS} steps served, \
         client {} parked at {}",
        groups[0].name(),
        parked.id,
        parked.consumed(),
    );
    if served >= STEPS {
        eprintln!("the crash landed after the stream ended");
        std::process::exit(1);
    }
    while let Some(n) = pull(&mut parked) {
        parked_samples += n;
    }

    let mut short = Vec::new();
    let parked_result = (parked.id, parked.consumed(), parked_samples);
    for (id, pulled, samples) in handles
        .into_iter()
        .map(|h| h.join().expect("client thread"))
        .chain([parked_result])
    {
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
