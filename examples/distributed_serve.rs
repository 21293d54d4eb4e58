//! Distributed serving: trainer ranks pull batches over the MSDB wire.
//!
//! ```text
//! cargo run --example distributed_serve
//! ```
//!
//! A 5-source pipeline serves 4 *remote* trainer clients through the
//! distributed serving plane: each client dials a `DataServer` actor
//! over a transport, is placed onto the trainer mesh by its DP rank
//! (`ClientPlaceTree`: rank → constructor bucket), and streams batches
//! under credit-based flow control. The demo runs the same session
//! twice —
//!
//! 1. over the **loopback** transport (zero-copy `Arc` hand-off), with
//!    one client dropping its connection mid-stream and resuming from
//!    its cursor, and
//! 2. over **real TCP under the chaos layer** (every frame serialized
//!    through the MSDB codec onto a socket, 10% dropped), where the
//!    ack/credit/resubscribe machinery has to earn its keep.
//!
//! Both runs deliver every client a gap-free, in-order stream.

use std::sync::Arc;
use std::time::Duration;

use megascale_data::balance::BalanceMethod;
use megascale_data::core::constructor::DataConstructor;
use megascale_data::core::loader::LoaderConfig;
use megascale_data::core::planner::{Planner, PlannerConfig, Strategy};
use megascale_data::core::schedule::MixSchedule;
use megascale_data::core::system::chaos::{ChaosPlan, ChaosTransport};
use megascale_data::core::system::net::{LoopbackTransport, Transport};
use megascale_data::core::system::runtime::{ServeOptions, ThreadedPipeline};
use megascale_data::core::system::server::RemotePlacement;
use megascale_data::core::system::tcp::TcpTransport;
use megascale_data::data::catalog::coyo700m_like;
use megascale_data::data::SourceSpec;
use megascale_data::mesh::{Axis, ClientPlaceTree, DeviceMesh, DistributeAxis};
use megascale_data::sim::SimRng;

fn pipeline() -> ThreadedPipeline {
    let mut rng = SimRng::seed(5);
    let catalog = coyo700m_like(&mut rng);
    let mesh = DeviceMesh::pp_dp_cp_tp(1, 2, 1, 2).expect("mesh");
    let tree = ClientPlaceTree::from_device_mesh(&mesh);
    let planner = Planner::new(
        PlannerConfig {
            axis: DistributeAxis::DP,
            group_size: None,
            microbatches: 2,
            broadcast_axes: vec![Axis::TP],
            samples_per_step: 16,
            schedule: MixSchedule::uniform(catalog.len()),
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
    ThreadedPipeline::new(sources, planner, constructors, 99)
}

/// Clients 0..4 on the 1×2×1×2 mesh: DP bucket 0 holds ranks {0, 1},
/// bucket 1 holds {2, 3}.
fn placements() -> Vec<RemotePlacement> {
    (0..4)
        .map(|c| RemotePlacement {
            client: c,
            rank: (c % 2) * 2 + (c / 2) % 2,
        })
        .collect()
}

fn serve_over(transport: Arc<dyn Transport>, steps: u64, drop_one: bool) {
    let name = transport.name();
    let mut p = pipeline();
    let (session, handle) = p.serve_distributed(
        ServeOptions {
            steps,
            refill_target: 32,
            queue_depth: 3,
            pull_timeout: Duration::from_millis(300),
            ..ServeOptions::default()
        },
        transport,
        &placements(),
    );
    let threads: Vec<_> = placements()
        .into_iter()
        .map(|pl| {
            let mut client = handle.connect(pl.client);
            std::thread::spawn(move || {
                let mut pulled = 0u64;
                while let Some((step, batch)) = client.next() {
                    assert_eq!(step, pulled, "stream gap");
                    pulled += 1;
                    if drop_one && client.id == 0 && pulled == 2 {
                        client.disconnect(); // Crash; resume from cursor.
                    }
                    std::hint::black_box(&batch);
                }
                (client.id, pulled, client.reconnects())
            })
        })
        .collect();
    for t in threads {
        let (id, pulled, reconnects) = t.join().expect("client thread");
        assert_eq!(pulled, steps, "client {id} missed steps");
        println!(
            "  [{name}] client {id} (rank {}): {pulled}/{steps} batches, \
             gap-free, {reconnects} reconnect(s)",
            placements()[id as usize].rank
        );
    }
    assert_eq!(session.join(), steps, "driver fell short");
    let status = handle.status().expect("server status");
    println!(
        "  [{name}] server: {} frames received, {} batch frames sent, all clients done = {}",
        status.frames_rx,
        status.batches_tx,
        status.clients.iter().all(|c| c.done),
    );
    p.shutdown();
}

fn main() {
    let steps = 10u64;

    println!("== distributed serve over loopback (zero-copy, one mid-stream disconnect) ==");
    serve_over(Arc::new(LoopbackTransport), steps, true);

    println!("\n== distributed serve over lossy tcp (10% frame loss) ==");
    let tcp = Arc::new(TcpTransport::new().expect("bind tcp transport"));
    let chaos = Arc::new(ChaosTransport::new(
        tcp,
        ChaosPlan::seeded(42).with_drops(0.10),
    ));
    serve_over(chaos.clone(), steps, false);
    let stats = chaos.stats();
    println!(
        "  [chaos] network: {} frames offered, {} dropped ({:.0}%)",
        stats.offered,
        stats.dropped,
        stats.dropped as f64 / stats.offered.max(1) as f64 * 100.0,
    );

    println!("\ndone: the wire was lossy, the streams were not.");
}
