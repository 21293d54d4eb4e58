//! Two-process distributed serving over real TCP sockets.
//!
//! ```text
//! cargo run --example tcp_serve
//! ```
//!
//! The parent process builds a 5-source pipeline, starts a distributed
//! serve session, and exposes it on a real TCP listener with
//! [`DataServerHandle::serve_tcp`]. It then re-executes its own binary
//! once per trainer client (`--client <addr> <id> <rank> <steps>`), so
//! every consumer runs in a *separate OS process* and reaches the
//! server only through the socket — no shared memory, no in-process
//! channels. Each child dials with [`RemoteClient::over_tcp`], streams
//! its batches under credit-based flow control, and exits non-zero on
//! any gap, reorder, or decode failure; the parent checks every exit
//! status plus the server's own accounting.
//!
//! [`DataServerHandle::serve_tcp`]: megascale_data::core::system::server::DataServerHandle::serve_tcp
//! [`RemoteClient::over_tcp`]: megascale_data::core::system::server::RemoteClient::over_tcp

use std::net::SocketAddr;
use std::process::Command;
use std::sync::Arc;
use std::time::Duration;

use megascale_data::balance::BalanceMethod;
use megascale_data::core::constructor::DataConstructor;
use megascale_data::core::loader::LoaderConfig;
use megascale_data::core::planner::{Planner, PlannerConfig, Strategy};
use megascale_data::core::schedule::MixSchedule;
use megascale_data::core::system::runtime::{ServeOptions, ThreadedPipeline};
use megascale_data::core::system::server::{RemoteClient, RemotePlacement};
use megascale_data::core::system::tcp::TcpTransport;
use megascale_data::data::catalog::coyo700m_like;
use megascale_data::data::SourceSpec;
use megascale_data::mesh::{Axis, ClientPlaceTree, DeviceMesh, DistributeAxis};
use megascale_data::sim::SimRng;

const CLIENTS: u32 = 4;
const STEPS: u64 = 8;
const QUEUE_DEPTH: u64 = 3;
const PULL_TIMEOUT: Duration = Duration::from_millis(500);

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
    ThreadedPipeline::new(sources, planner, constructors, 17)
}

/// Clients 0..4 on the 1×2×1×2 mesh: DP bucket 0 holds ranks {0, 1},
/// bucket 1 holds {2, 3}.
fn placements() -> Vec<RemotePlacement> {
    (0..CLIENTS)
        .map(|c| RemotePlacement {
            client: c,
            rank: (c % 2) * 2 + (c / 2) % 2,
        })
        .collect()
}

/// Child process: one trainer client on the far side of the socket.
fn run_client(addr: SocketAddr, client: u32, rank: u32, steps: u64) {
    let mut rc =
        RemoteClient::over_tcp(addr, client, rank, steps, PULL_TIMEOUT, QUEUE_DEPTH as u32);
    let mut pulled = 0u64;
    let mut payload_bytes = 0u64;
    while let Some((step, batch)) = rc.next() {
        assert_eq!(step, pulled, "client {client} stream gap at {step}");
        pulled += 1;
        payload_bytes += batch
            .microbatches
            .iter()
            .map(|mb| mb.payload_bytes)
            .sum::<u64>();
    }
    assert_eq!(pulled, steps, "client {client} fell short");
    println!(
        "  [child pid {}] client {client} (rank {rank}): {pulled}/{steps} \
         batches over tcp, {:.1} KiB of payload, gap-free",
        std::process::id(),
        payload_bytes as f64 / 1024.0,
    );
}

fn main() {
    // Child mode: `tcp_serve --client <addr> <id> <rank> <steps>`.
    let args: Vec<String> = std::env::args().collect();
    if args.get(1).map(String::as_str) == Some("--client") {
        let addr: SocketAddr = args[2].parse().expect("server address");
        let client: u32 = args[3].parse().expect("client id");
        let rank: u32 = args[4].parse().expect("rank");
        let steps: u64 = args[5].parse().expect("steps");
        run_client(addr, client, rank, steps);
        return;
    }

    println!("== two-process distributed serve over real TCP ==");
    let mut p = pipeline();
    let transport = Arc::new(TcpTransport::new().expect("bind tcp transport"));
    let (session, handle) = p.serve_distributed(
        ServeOptions {
            steps: STEPS,
            refill_target: 32,
            queue_depth: QUEUE_DEPTH,
            pull_timeout: PULL_TIMEOUT,
            ..ServeOptions::default()
        },
        transport,
        &placements(),
    );
    // Expose the session on a real listener; port 0 lets the OS pick.
    let addr = handle.serve_tcp("127.0.0.1:0").expect("tcp listener");
    println!("  [parent pid {}] serving on {addr}", std::process::id());

    // One OS process per trainer client, all dialing the same listener.
    let exe = std::env::current_exe().expect("current exe");
    let children: Vec<_> = placements()
        .into_iter()
        .map(|pl| {
            let child = Command::new(&exe)
                .arg("--client")
                .arg(addr.to_string())
                .arg(pl.client.to_string())
                .arg(pl.rank.to_string())
                .arg(STEPS.to_string())
                .spawn()
                .expect("spawn client process");
            (pl.client, child)
        })
        .collect();

    for (client, mut child) in children {
        let status = child.wait().expect("child wait");
        assert!(status.success(), "client {client} process failed: {status}");
    }
    assert_eq!(session.join(), STEPS, "driver fell short");

    let status = handle.status().expect("server status");
    assert!(status.clients.iter().all(|c| c.done), "undone client");
    println!(
        "  [parent] server: {} frames received, {} batch frames sent, all clients done",
        status.frames_rx, status.batches_tx,
    );
    p.shutdown();
    println!("\ndone: four processes, one socket each, zero gaps.");
}
