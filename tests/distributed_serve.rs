//! Integration tests for the distributed serving plane.
//!
//! The contract under test: serving trainer clients over the MSDB wire
//! protocol — loopback or a lossy chaos-over-TCP network — is *invisible* to
//! them. Every remote client's stream is byte-identical to what the
//! same client would pull from a local `ThreadedPipeline::serve`
//! session, a dropped connection resumes gap-free and duplicate-free
//! from the client's cursor, and credit-based flow control keeps
//! constructor queues bounded even when a client vanishes mid-serve.
//!
//! The pipeline recipe and stream assertions live in `harness/`, shared
//! with the cross-transport conformance suite in `tcp_transport.rs`.

mod harness;

use std::collections::HashSet;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use harness::{
    assert_byte_identical, assert_ordered_full, local_streams, opts, pipeline, placements,
    remote_streams, sample_ids, Stream,
};
use megascale_data::core::system::chaos::{ChaosPlan, ChaosTransport};
use megascale_data::core::system::net::{LoopbackTransport, WireFrame};
use megascale_data::core::system::runtime::ServeOptions;
use megascale_data::core::system::tcp::TcpTransport;

#[test]
fn loopback_distributed_serve_is_byte_identical_to_local() {
    let (clients, steps) = (4u32, 6u64);
    let local = local_streams(77, clients, steps);
    let remote = remote_streams(Arc::new(LoopbackTransport), 77, clients, steps);
    assert_ordered_full(&local, steps);
    assert_ordered_full(&remote, steps);
    assert_byte_identical(&local, &remote, "loopback");
    // Loopback is zero-copy end to end: clients sharing a constructor
    // bucket hold the *same* constructed batch allocation.
    let (_, s0) = &remote[0];
    let (_, s2) = &remote[2]; // Clients 0 and 2 both map to bucket 0.
    for ((_, a), (_, b)) in s0.iter().zip(s2) {
        assert!(
            Arc::ptr_eq(a, b),
            "loopback fan-out copied a batch instead of sharing it"
        );
    }
}

/// The protocol's cost, counted: with no loss a client sends Hello,
/// Subscribe, one cumulative `Frontier` per consumed step and a short
/// close handshake — no per-step receipts or credit grants on top.
#[test]
fn lossless_serve_sends_one_consumed_report_per_step() {
    let (clients, steps) = (4u32, 24u64);
    let mut p = pipeline(21);
    let (session, handle) = p.serve_distributed(
        opts(clients, steps),
        Arc::new(LoopbackTransport),
        &placements(clients),
    );
    let threads: Vec<_> = (0..clients)
        .map(|c| {
            let mut rc = handle.connect(c);
            std::thread::spawn(move || std::iter::from_fn(|| rc.next()).count() as u64)
        })
        .collect();
    for t in threads {
        assert_eq!(t.join().expect("client thread"), steps, "client fell short");
    }
    assert_eq!(session.join(), steps, "driver fell short");

    // Timeout-driven re-subscribes are loss recovery, not per-step cost.
    let status = handle.status().expect("server status");
    let resumes: u64 = status.clients.iter().map(|c| c.resumes).sum();
    let budget = u64::from(clients) * (steps + 8);
    assert!(
        status.frames_rx - resumes <= budget,
        "{} frames received ({resumes} resumes) over {clients} clients × {steps} steps; \
         budget {budget}",
        status.frames_rx
    );
    p.shutdown();
}

#[test]
fn dropped_remote_client_reconnects_and_resumes_gap_free() {
    let (clients, steps) = (2u32, 8u64);
    let mut p = pipeline(91);
    let (session, handle) = p.serve_distributed(
        opts(clients, steps),
        Arc::new(LoopbackTransport),
        &placements(clients),
    );

    // Client 1 consumes its whole stream normally, in parallel.
    let mut peer = handle.connect(1);
    let peer_thread = std::thread::spawn(move || {
        let mut stream = Stream::new();
        while let Some(item) = peer.next() {
            stream.push(item);
        }
        stream
    });

    // Client 0 consumes three steps, loses its connection (no Close —
    // a crash, not a goodbye), then resumes.
    let mut victim = handle.connect(0);
    let mut stream = Stream::new();
    for _ in 0..3 {
        stream.push(victim.next().expect("pre-drop pull"));
    }
    victim.disconnect();
    while let Some(item) = victim.next() {
        stream.push(item);
    }
    assert!(victim.reconnects() >= 1, "disconnect was never observed");

    let peer_stream = peer_thread.join().expect("peer thread");
    assert_eq!(session.join(), steps, "driver fell short");

    // The resumed stream is gap-free, in order, and duplicate-free down
    // to individual samples; the undisturbed peer saw a full stream too.
    for (streams, who) in [(&stream, "victim"), (&peer_stream, "peer")] {
        assert_eq!(streams.len(), steps as usize, "{who} missed steps");
        let mut seen: HashSet<u64> = HashSet::new();
        for (i, (step, batch)) in streams.iter().enumerate() {
            assert_eq!(*step, i as u64, "{who} stream has a gap");
            for sid in sample_ids(batch) {
                assert!(seen.insert(sid), "{who} got sample {sid} twice");
            }
        }
    }

    // The server observed the resume.
    let status = handle.status().expect("server status");
    let victim_stat = status.clients.iter().find(|c| c.client == 0).unwrap();
    assert!(victim_stat.resumes >= 1, "server never saw a re-subscribe");
    assert!(victim_stat.done, "victim's stream not finished");
    p.shutdown();
}

#[test]
fn lossy_chaos_over_tcp_stays_correct() {
    let (clients, steps) = (2u32, 6u64);
    // Reference: the same pipeline served over loopback.
    let reference = remote_streams(Arc::new(LoopbackTransport), 55, clients, steps);

    // Every frame is serialized onto a real socket, and 20 % are lost.
    let tcp = Arc::new(TcpTransport::new().expect("bind tcp transport"));
    let chaos = Arc::new(ChaosTransport::new(
        tcp,
        ChaosPlan::seeded(13).with_drops(0.2),
    ));
    let lossy = remote_streams(chaos.clone(), 55, clients, steps);

    assert_ordered_full(&lossy, steps);
    assert_byte_identical(&reference, &lossy, "lossy chaos/tcp");
    let stats = chaos.stats();
    assert!(
        stats.dropped > 0,
        "loss never fired ({} frames offered) — the test proved nothing",
        stats.offered
    );
}

#[test]
fn dropped_client_mid_serve_leaves_others_gap_free_and_queues_bounded() {
    let (clients, steps) = (4u32, 8u64);
    let queue_depth = 2u64;
    let mut p = pipeline(33);
    let mut session = p.serve(ServeOptions {
        queue_depth,
        ..opts(clients, steps)
    });
    let handles: Vec<_> = session
        .take_clients()
        .into_iter()
        .map(|mut c| {
            std::thread::spawn(move || {
                let id = c.id;
                let mut stream = Vec::new();
                while let Some((step, batch)) = c.next() {
                    stream.push((step, batch));
                    if id == 3 && stream.len() == 2 {
                        break; // Client 3 walks away mid-serve; Drop runs.
                    }
                }
                (id, stream)
            })
        })
        .collect();
    let streams: Vec<_> = handles
        .into_iter()
        .map(|h| h.join().expect("client thread"))
        .collect();
    // The driver must complete all steps: the dropped client's Drop
    // deregistered it, so backpressure stopped waiting on its cursor.
    assert_eq!(session.join(), steps, "dropped client wedged the driver");

    for (id, stream) in &streams {
        let want = if *id == 3 { 2 } else { steps as usize };
        assert_eq!(stream.len(), want, "client {id} missed steps");
        for (i, (step, _)) in stream.iter().enumerate() {
            assert_eq!(*step, i as u64, "client {id} stream has a gap");
        }
    }

    // stats(): no constructor retains more ready batches than the
    // backpressure window allows — the dropped client released its
    // capability, so the frontier retired its bucket's queue too.
    let stats = p.stats();
    for c in &stats.constructors {
        assert!(
            c.ready_steps.len() as u64 <= queue_depth + 2,
            "constructor {} leaked its ready queue: {:?}",
            c.index,
            c.ready_steps
        );
    }
    p.shutdown();
}

#[test]
fn dropped_remote_client_releases_the_session() {
    let (clients, steps) = (2u32, 6u64);
    let mut p = pipeline(44);
    let (session, handle) = p.serve_distributed(
        opts(clients, steps),
        Arc::new(LoopbackTransport),
        &placements(clients),
    );
    let mut survivor = handle.connect(0);
    let survivor_thread = std::thread::spawn(move || {
        let mut n = 0u64;
        while survivor.next().is_some() {
            n += 1;
        }
        n
    });
    {
        let mut quitter = handle.connect(1);
        assert!(quitter.next().is_some());
        assert!(quitter.next().is_some());
        // Dropped here: Drop sends Close, the server completes the
        // client, and the driver stops waiting for it.
    }
    assert_eq!(survivor_thread.join().unwrap(), steps);
    assert_eq!(
        session.join(),
        steps,
        "abandoned remote client wedged serve"
    );
    let status = handle.status().expect("server status");
    let quitter_stat = status.clients.iter().find(|c| c.client == 1).unwrap();
    assert!(
        quitter_stat.done,
        "server still waits on the dropped client"
    );
    p.shutdown();
}

/// A server crash-restart must not bring back capabilities the crashed
/// incarnation already released. Client 1 closes mid-stream and client
/// 2 idle-attaches, both before the crash; with leases off, nothing but
/// their releases keeps them out of the fold. Were the restarted server
/// to re-acquire them, the slowest cursor would sit at the frontier for
/// good and the driver would stall until its 60 s step budget ran out,
/// ending the session short. Instead the survivor resumes and the driver
/// finishes every step within seconds of the crash.
#[test]
fn server_restart_keeps_released_capabilities_released() {
    const STEPS: u64 = 12;
    const BEFORE_CRASH: usize = 2;
    let reference = local_streams(66, 3, STEPS);

    let mut p = pipeline(66);
    let mut o = opts(3, STEPS);
    o.server.lease = None;
    let place = placements(3);
    let (session, handle) = p.serve_distributed(o, Arc::new(LoopbackTransport), &place);

    // Client 2 idle-attaches: a bound session that wants no batches.
    let spectator = handle.dial_raw();
    spectator
        .tx
        .send(WireFrame::Hello {
            client: 2,
            rank: place[2].rank,
        })
        .expect("idle hello");
    spectator
        .tx
        .send(WireFrame::Subscribe {
            client: 2,
            from_step: STEPS,
            credits: 0,
        })
        .expect("idle subscribe");

    let mut survivor = handle.connect(0);
    let mut stream = Stream::new();
    for _ in 0..BEFORE_CRASH {
        stream.push(survivor.next().expect("pre-crash pull"));
    }
    {
        let mut quitter = handle.connect(1);
        for _ in 0..BEFORE_CRASH {
            assert!(quitter.next().is_some(), "quitter pull");
        }
        // Dropped here: Drop sends Close mid-stream.
    }

    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let status = handle.status().expect("server status");
        let finished = status
            .clients
            .iter()
            .filter(|c| c.client != 0 && c.done)
            .count();
        if finished == 2 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "close and idle attach never finished ({finished}/2)"
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    handle.inject_server_crash("test: crash after two releases");
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        while let Some(item) = survivor.next() {
            stream.push(item);
        }
        let _ = tx.send(stream);
    });
    let stream = rx
        .recv_timeout(Duration::from_secs(20))
        .expect("survivor stalled after the restart: released capabilities came back");
    assert_eq!(session.join(), STEPS, "driver fell short after the restart");

    let streams = vec![(0u32, stream)];
    assert_ordered_full(&streams, STEPS);
    assert_byte_identical(&reference[..1], &streams, "restart");
    drop(spectator);
    p.shutdown();
}

/// A pull parked on a step that is not built yet dies with its
/// constructor: the restarted incarnation answers from the retained
/// window, the one ready queue, but knows nothing of the pull. The client's
/// quiet-timeout re-`Subscribe` re-issues it, so the stream stays
/// byte-identical and finishes within a few pull timeouts of the crash.
#[test]
fn constructor_crash_under_a_parked_remote_pull_recovers_by_resubscribe() {
    const STEPS: u64 = 10;
    let reference = local_streams(88, 2, STEPS);

    let mut p = pipeline(88);
    let o = opts(2, STEPS);
    let (session, handle) = p.serve_distributed(o, Arc::new(LoopbackTransport), &placements(2));

    // Client 1 has not dialed, so its capability holds the driver at
    // `queue_depth + 1` built steps. Client 0 consumes them and parks a
    // pull on the next step, which is not built yet.
    let parked = o.queue_depth + 1;
    let collect = |mut rc: megascale_data::core::system::server::RemoteClient| {
        std::thread::spawn(move || {
            let mut stream = Stream::new();
            while let Some(item) = rc.next() {
                stream.push(item);
            }
            stream
        })
    };
    let (done, victim_done) = mpsc::channel();
    let victim = collect(handle.connect(0));
    std::thread::spawn(move || {
        let _ = done.send(victim.join().expect("victim thread"));
    });
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let status = handle.status().expect("server status");
        let c0 = status.clients.iter().find(|c| c.client == 0).unwrap();
        if c0.consumed == parked && c0.next_pull == parked + 1 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "client 0 never parked a pull on step {parked}: {c0:?}"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    // The pull went out before the status reply, so this ask queues
    // behind it: the constructor has parked the pull on an unbuilt step.
    let ready = p.stats().constructors[0].ready_steps.clone();
    assert!(
        !ready.contains(&parked),
        "step {parked} was built: {ready:?}"
    );

    p.constructor_actors()[0].inject_crash("test: crash under a parked pull");
    let crashed = Instant::now();
    // Release the driver: client 1 dials and consumes its stream.
    let peer = collect(handle.connect(1));
    let victim_stream = victim_done
        .recv_timeout(o.pull_timeout * 20)
        .expect("client 0 never recovered its lost pull");
    let took = crashed.elapsed();
    assert!(
        took < o.pull_timeout * 5,
        "recovery took {took:?}, over five pull timeouts of {:?}",
        o.pull_timeout
    );
    let peer_stream = peer.join().expect("peer thread");
    assert_eq!(session.join(), STEPS, "driver fell short after the crash");

    let streams = vec![(0u32, victim_stream), (1u32, peer_stream)];
    assert_ordered_full(&streams, STEPS);
    assert_byte_identical(
        &reference,
        &streams,
        "constructor crash under a parked pull",
    );
    p.shutdown();
}

/// A session's constructor resets go out before its server exists, so
/// no pull the server issues can queue ahead of them and be cleared. A
/// cleared first pull shows as a client that waits out its whole
/// `pull_timeout` for step 0; with the timeout far above a session's
/// length, any such wait fails the bound. Each session races its
/// clients' first pulls against the driver thread's start, so a few
/// sessions run back to back.
#[test]
fn a_session_never_loses_its_first_pulls_to_its_own_reset() {
    const SESSIONS: usize = 16;
    let pull_timeout = Duration::from_secs(30);
    let mut p = pipeline(61);
    for s in 0..SESSIONS {
        let start = Instant::now();
        let mut session = p.serve(ServeOptions {
            pull_timeout,
            ..opts(2, 2)
        });
        let handles: Vec<_> = session
            .take_clients()
            .into_iter()
            .map(|mut c| std::thread::spawn(move || while c.next().is_some() {}))
            .collect();
        for h in handles {
            h.join().expect("client thread");
        }
        assert_eq!(session.join(), 2, "session {s} fell short");
        let took = start.elapsed();
        assert!(
            took < pull_timeout / 3,
            "session {s} took {took:?}: a first pull was lost and waited out the timeout"
        );
    }
    p.shutdown();
}
