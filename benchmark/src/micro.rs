//! Micro loops over public functions with fixed inputs (traced runs only):
//! what one call into a layer costs when nothing else is running.

use std::sync::Arc;
use std::time::{Duration, Instant};

use msd_actor::actor::ReplyTo;
use msd_actor::{Actor, ActorSystem, Ctx};
use msd_core::codec::{decode_wire_frame, encode_wire_frame_into};
use msd_core::constructor::ConstructedBatch;
use msd_core::system::frontier::{FrontierHub, Holder};
use msd_core::system::net::{BatchPayload, Transport, WireFrame};
use msd_core::system::runtime::ThreadedPipeline;
use msd_core::system::tcp::TcpTransport;

use crate::procfs;
use crate::stats::median;
use crate::workload::Inputs;

fn elapsed_us(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e6
}

/// Encode + decode of one Ack, one Credit and one Frontier frame, ns per
/// frame (mean over the loop; the three kinds take the same path).
pub fn ctrl_frame_ns() -> f64 {
    const ROUNDS: u32 = 20_000;
    let frames = [
        WireFrame::Ack {
            client: 1,
            step: 77,
        },
        WireFrame::Credit {
            client: 1,
            grant: 1,
        },
        WireFrame::Frontier {
            client: 1,
            consumed: 80,
        },
    ];
    let mut scratch = Vec::with_capacity(64);
    let started = Instant::now();
    for _ in 0..ROUNDS {
        for frame in &frames {
            encode_wire_frame_into(std::hint::black_box(frame), &mut scratch);
            std::hint::black_box(decode_wire_frame(&scratch).expect("own frame decodes"));
        }
    }
    started.elapsed().as_nanos() as f64 / f64::from(ROUNDS * 3)
}

struct Echo;

enum EchoMsg {
    Ping(ReplyTo<u64>),
    Note,
}

impl Actor for Echo {
    type Msg = EchoMsg;

    fn handle(&mut self, msg: EchoMsg, _ctx: &mut Ctx) {
        if let EchoMsg::Ping(reply) = msg {
            reply.send(1);
        }
    }
}

/// `(ask round-trip p50 in µs, tell cost in ns)` against an idle actor:
/// the hand-off every driver round pays per actor it consults.
pub fn actor_costs() -> (f64, f64) {
    const ASKS: usize = 2_000;
    const TELLS: u32 = 20_000;
    let system = ActorSystem::new("bench-micro");
    let echo = system.spawn("echo", Echo);
    let asks: Vec<f64> = (0..ASKS)
        .map(|_| {
            let started = Instant::now();
            echo.ask(EchoMsg::Ping, Duration::from_secs(5))
                .expect("echo replies");
            elapsed_us(started)
        })
        .collect();
    let started = Instant::now();
    for _ in 0..TELLS {
        echo.tell(EchoMsg::Note);
    }
    let tell_ns = started.elapsed().as_nanos() as f64 / f64::from(TELLS);
    // Drain the notes before stopping, so shutdown joins promptly.
    echo.ask(EchoMsg::Ping, Duration::from_secs(30))
        .expect("echo drains");
    echo.stop();
    system.shutdown();
    (median(&asks), tell_ns)
}

/// One `advance` + `frontier()` read on a hub with `holders` client
/// capabilities advancing round-robin, ns.
pub fn frontier_fold_ns(holders: u32) -> f64 {
    const ADVANCES: u64 = 100_000;
    let hub = FrontierHub::new();
    for c in 0..holders {
        hub.acquire(Holder::Client(c), 0);
    }
    let started = Instant::now();
    for i in 0..ADVANCES {
        let holder = (i % u64::from(holders)) as u32;
        hub.advance(Holder::Client(holder), i / u64::from(holders) + 1);
        std::hint::black_box(hub.frontier());
    }
    started.elapsed().as_nanos() as f64 / ADVANCES as f64
}

/// What one TCP pair costs.
pub struct TcpCosts {
    /// Ack there, Ack back, p50 µs.
    pub rtt_us_p50: f64,
    /// One-way batch-frame throughput, MiB/s.
    pub mib_per_s: f64,
    /// Threads one connection adds to the process (both endpoints).
    pub threads_per_conn: f64,
}

/// Ping-pong and bulk transfer over one `TcpTransport::pair()`, with
/// `batch` as the bulk frame's payload.
pub fn tcp_costs(batch: Arc<ConstructedBatch>) -> TcpCosts {
    const PINGS: usize = 1_000;
    const BULK_FRAMES: u64 = 200;
    let wait = Duration::from_secs(10);
    let transport = TcpTransport::new().expect("bind a localhost listener");
    let threads_before = procfs::threads();
    let (mut client, mut server) = transport.pair();
    let threads_per_conn = procfs::threads().saturating_sub(threads_before) as f64;

    let ping = WireFrame::Ack { client: 0, step: 1 };
    let rtts: Vec<f64> = (0..PINGS)
        .map(|_| {
            let started = Instant::now();
            client.tx.send(ping.clone()).expect("ping out");
            let got = server.rx.recv(wait).expect("ping in");
            server.tx.send(got).expect("pong out");
            client.rx.recv(wait).expect("pong in");
            elapsed_us(started)
        })
        .collect();

    let frame = WireFrame::Batch {
        client: 0,
        step: 0,
        payload: BatchPayload::shared(batch),
    };
    let frame_bytes = msd_core::codec::encoded_wire_frame_len(&frame) as u64;
    let started = Instant::now();
    for _ in 0..BULK_FRAMES {
        server.tx.send(frame.clone()).expect("bulk out");
    }
    for _ in 0..BULK_FRAMES {
        client.rx.recv(wait).expect("bulk in");
    }
    let mib = (frame_bytes * BULK_FRAMES) as f64 / (1u64 << 20) as f64;
    TcpCosts {
        rtt_us_p50: median(&rtts),
        mib_per_s: mib / started.elapsed().as_secs_f64(),
        threads_per_conn,
    }
}

/// p50 of `ThreadedPipeline::step` in µs: the actor-hosted pipeline driven
/// by one synchronous caller, for about `budget` of wall time (after a
/// short warm-up). Against the inline replica's step it isolates what the
/// actor hand-offs of one driver round cost.
pub fn runtime_step_us_p50(inputs: Inputs, refill_target: usize, budget: Duration) -> f64 {
    const WARMUP: usize = 16;
    const MAX_STEPS: usize = 2_000;
    let mut pipeline = ThreadedPipeline::new(
        inputs.sources,
        inputs.planner,
        inputs.constructors,
        inputs.pipeline_seed,
    );
    let mut steps = Vec::new();
    let started = Instant::now();
    for i in 0..MAX_STEPS {
        let step_started = Instant::now();
        let out = pipeline.step(refill_target).expect("threaded step");
        std::hint::black_box(out);
        if i >= WARMUP {
            steps.push(elapsed_us(step_started));
        }
        if i >= 2 * WARMUP && started.elapsed() > budget {
            break;
        }
    }
    pipeline.shutdown();
    median(&steps)
}
