//! Integration tests for concurrent multi-client serving under faults.
//!
//! The paper's disaggregated runtime must keep serving trainer clients
//! while individual actors die and restart (Sec 6.1). These tests drive
//! [`ThreadedPipeline::serve`] with several clients pulling concurrently,
//! kill a Source Loader / the Planner / a Data Constructor mid-serve, and
//! assert every client still observes a *gap-free, duplicate-free,
//! consistent* batch stream. Each fault lands while one client is parked
//! and backpressure holds the driver mid-stream, so no fault can miss the
//! stream it is meant to disturb. Loaders run in groups behind one mailbox
//! each, so a loader kill is a group kill: one test crashes a group of
//! several loaders and checks every member restores exactly. A restarted
//! constructor re-stages its ready queue, raw, from the serve driver's
//! retained window in `Actor::started`, and re-runs the transform tails
//! when pulled; the last test pins that path on its own. A group gone for
//! good, past its restart budget, ends the session at once with a fault
//! record, and its clients' streams end with it.

mod harness;

use std::collections::HashSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

use harness::{pipeline, sample_ids, Stream};
use megascale_data::actor::ActorRef;
use megascale_data::core::system::net::LoopbackTransport;
use megascale_data::core::system::runtime::{ConstructorMsg, ServeOptions, ThreadedPipeline};
use megascale_data::core::system::server::DataServerHandle;
use megascale_data::data::catalog::text_only;
use megascale_data::sim::SimRng;

/// Serves `steps` steps to `clients` clients and runs `fault` while the
/// stream is provably mid-flight. The last client parks at cursor
/// `PARK_AT`, so backpressure holds the driver at serve step
/// `PARK_AT + QUEUE_DEPTH`; once every loader has checkpointed that
/// step, `fault` runs and the parked client resumes. Returns each
/// client's observed stream, sorted by client id.
fn serve_with_fault(
    p: &mut ThreadedPipeline,
    clients: u32,
    steps: u64,
    fault: impl FnOnce(&ThreadedPipeline),
) -> Vec<(u32, Stream)> {
    const PARK_AT: u64 = 2;
    const QUEUE_DEPTH: u64 = 3;
    let mut session = p.serve(ServeOptions {
        queue_depth: QUEUE_DEPTH,
        ..harness::opts(clients, steps)
    });
    let mut clients = session.take_clients();
    let mut parked = clients.pop().expect("a client to park");
    let runners: Vec<_> = clients
        .into_iter()
        .map(|mut c| {
            std::thread::spawn(move || {
                let mut stream = Stream::new();
                while let Some(item) = c.next() {
                    stream.push(item);
                }
                (c.id, stream)
            })
        })
        .collect();
    let mut stream = Stream::new();
    while parked.consumed() < PARK_AT {
        stream.push(parked.next().expect("pull before parking"));
    }
    let served = await_stall(p, PARK_AT + QUEUE_DEPTH);
    fault(p);
    assert!(
        served < steps && parked.consumed() < steps,
        "fault landed after the stream ended ({served} served, {} consumed, of {steps})",
        parked.consumed()
    );
    while let Some(item) = parked.next() {
        stream.push(item);
    }
    let mut streams: Vec<(u32, Stream)> = runners
        .into_iter()
        .map(|h| h.join().expect("client thread"))
        .collect();
    streams.push((parked.id, stream));
    streams.sort_by_key(|(id, _)| *id);
    assert_eq!(session.join(), steps, "driver fell short of its steps");
    streams
}

/// Waits until every loader has checkpointed serve step `at` — the
/// last step backpressure lets the driver take while a client is parked
/// `queue_depth` steps behind it — and returns the steps served by then.
fn await_stall(p: &ThreadedPipeline, at: u64) -> u64 {
    let deadline = Instant::now() + Duration::from_secs(60);
    let keys: Vec<String> = p
        .loader_identities()
        .iter()
        .map(|id| format!("loader/{}", id.loader_id))
        .collect();
    while !keys.iter().all(|k| p.gcs.state_version(k) == at) {
        assert!(
            Instant::now() < deadline,
            "driver never stalled at step {at}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    at + 1
}

/// Core invariants: every client sees exactly `steps` batches, in order,
/// gap-free; no sample is delivered twice within a stream; clients
/// sharing a constructor see identical streams.
fn assert_streams_sound(streams: &[(u32, Stream)], clients: u32, steps: u64) {
    assert_eq!(streams.len(), clients as usize);
    for (id, stream) in streams {
        assert_eq!(
            stream.len(),
            steps as usize,
            "client {id} saw {} of {steps} steps",
            stream.len()
        );
        let mut seen: HashSet<u64> = HashSet::new();
        for (i, (step, batch)) in stream.iter().enumerate() {
            assert_eq!(*step, i as u64, "client {id} stream has a gap");
            for sid in sample_ids(batch) {
                assert!(
                    seen.insert(sid),
                    "client {id} received sample {sid} twice (duplicated batch content)"
                );
            }
        }
    }
    // Clients pulling from the same constructor observe identical batches.
    for (id_a, stream_a) in streams {
        for (id_b, stream_b) in streams {
            if id_a < id_b && id_a % 2 == id_b % 2 {
                assert_eq!(
                    stream_a, stream_b,
                    "clients {id_a}/{id_b} share a constructor but diverged"
                );
            }
        }
    }
}

#[test]
fn concurrent_clients_receive_identical_gap_free_streams() {
    let mut p = pipeline(11);
    let streams = serve_with_fault(&mut p, 4, 8, |_| {});
    assert_streams_sound(&streams, 4, 8);
    // Batches carry real content.
    assert!(streams
        .iter()
        .all(|(_, s)| s.iter().all(|(_, b)| !sample_ids(b).is_empty())));
    p.shutdown();
}

#[test]
fn loader_crash_mid_serve_keeps_every_client_whole() {
    let mut p = pipeline(12);
    let streams = serve_with_fault(&mut p, 4, 10, |p| {
        p.loaders()[0].inject_crash("mid-serve loader kill");
    });
    assert_streams_sound(&streams, 4, 10);
    p.shutdown();
}

/// Crashes the group hosting loader 0 — several loaders of an 8-source
/// text catalog behind one mailbox — while four clients are mid-stream.
/// Each plan draws every buffered sample (`samples_per_step` = loaders ×
/// refill target), so at a step boundary each loader's checkpoint is its
/// whole state, and without prefetch the driver's next message to the
/// group is the next step's refill. A crash there loses nothing: every
/// member restores from its own checkpoint, the streams stay
/// byte-identical to an undisturbed run, and every member checkpoints
/// again afterwards.
#[test]
fn group_crash_mid_serve_restores_every_member_byte_identically() {
    const SOURCES: u32 = 8;
    const REFILL: usize = 4;
    const STEPS: u64 = 12;
    const PARK_AT: u64 = 3;
    const QUEUE_DEPTH: u64 = 2;
    const SEED: u64 = 16;
    let make = || {
        let catalog = text_only(&mut SimRng::seed(2), SOURCES);
        harness::pipeline_over(&catalog, SOURCES as usize * REFILL, SEED)
    };
    let opts = ServeOptions {
        refill_target: REFILL,
        prefetch: false,
        queue_depth: QUEUE_DEPTH,
        ..harness::opts(4, STEPS)
    };
    let reference = harness::serve_local(make(), opts);
    let deadline = Instant::now() + Duration::from_secs(60);

    let mut p = make();
    let groups = p.loaders();
    let group = groups[0].clone();
    let hosted: Vec<String> = p
        .loader_identities()
        .iter()
        .zip(&groups)
        .filter(|(_, g)| g.name() == group.name())
        .map(|(id, _)| format!("loader/{}", id.loader_id))
        .collect();
    assert!(hosted.len() >= 2, "loader 0's group hosts only {hosted:?}");

    // Client 3 parks at cursor PARK_AT, so the driver stalls on
    // backpressure once it has served step PARK_AT + QUEUE_DEPTH — whose
    // checkpoint is its last message to the group until client 3 moves.
    let mut session = p.serve(opts);
    let mut clients = session.take_clients();
    let mut parked = clients.pop().expect("client 3");
    let runners: Vec<_> = clients
        .into_iter()
        .map(|mut c| {
            std::thread::spawn(move || {
                let mut stream = harness::Stream::new();
                while let Some(item) = c.next() {
                    stream.push(item);
                }
                (c.id, stream)
            })
        })
        .collect();
    let mut stream = harness::Stream::new();
    while (stream.len() as u64) < PARK_AT {
        stream.push(parked.next().expect("pull before parking"));
    }
    let stalled_at = PARK_AT + QUEUE_DEPTH;
    while !(hosted.iter().all(|k| p.gcs.state_version(k) == stalled_at)
        && group.mailbox_depth() == 0)
    {
        assert!(
            Instant::now() < deadline,
            "driver never stalled at step {stalled_at}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    group.inject_crash("mid-serve group kill");
    while let Some(item) = parked.next() {
        stream.push(item);
    }
    let mut streams: Vec<(u32, Stream)> = runners
        .into_iter()
        .map(|h| h.join().expect("client thread"))
        .collect();
    streams.push((parked.id, stream));
    streams.sort_by_key(|(id, _)| *id);
    assert_eq!(session.join(), STEPS, "driver fell short of its steps");

    for key in &hosted {
        assert!(
            p.gcs.state_version(key) > stalled_at,
            "{key} never checkpointed after its group restarted"
        );
    }
    let gaps: Vec<_> = p
        .gcs
        .fault_log("")
        .into_iter()
        .filter(|f| f.detail.contains("plan log replay gap"))
        .collect();
    assert!(gaps.is_empty(), "restart reported a replay gap: {gaps:?}");
    p.shutdown();

    assert_streams_sound(&streams, 4, STEPS);
    harness::assert_byte_identical(&reference, &streams, "group restart");
}

#[test]
fn planner_crash_mid_serve_keeps_every_client_whole() {
    let mut p = pipeline(13);
    let streams = serve_with_fault(&mut p, 4, 10, |p| {
        p.planner_actor().inject_crash("mid-serve planner kill");
    });
    assert_streams_sound(&streams, 4, 10);
    p.shutdown();
}

/// The pipeline's `coyo700m_like` sources are images, which constructors
/// stage raw: the restarted constructor re-runs every transform tail
/// from the driver's retained window, and the streams stay
/// byte-identical to an undisturbed run.
#[test]
fn constructor_crash_mid_serve_keeps_every_client_whole() {
    let reference = harness::local_streams(14, 4, 10);
    let mut p = pipeline(14);
    let streams = serve_with_fault(&mut p, 4, 10, |p| {
        p.constructor_actors()[1].inject_crash("mid-serve constructor kill");
    });
    assert_streams_sound(&streams, 4, 10);
    harness::assert_byte_identical(&reference, &streams, "constructor restart");
    p.shutdown();
}

/// A loader group past its restart budget is gone for good. The driver
/// re-asks a failed group at once, sees it stopped, and ends the session
/// with a fault record naming the loader, instead of re-asking a closed
/// mailbox until its retry budget runs out; the data server then tells
/// both clients the stream is over, instead of each waiting out its own
/// redial budget.
#[test]
fn a_dead_loader_group_ends_the_session_at_once() {
    const STEPS: u64 = 8;
    let mut p = pipeline(16);
    let group = p.loaders()[0].clone();
    let identity = p.loader_identities()[0].clone();
    // One crash per incarnation: the first and its three restarts.
    for _ in 0..4 {
        group.inject_crash("dead-fleet kill");
    }
    let deadline = Instant::now() + Duration::from_secs(20);
    while !group.is_stopped() {
        assert!(Instant::now() < deadline, "the group never stopped");
        std::thread::sleep(Duration::from_millis(5));
    }
    let mut session = p.serve(harness::opts(2, STEPS));
    let start = Instant::now();
    let clients: Vec<_> = session
        .take_clients()
        .into_iter()
        .map(|mut c| std::thread::spawn(move || std::iter::from_fn(|| c.next()).count() as u64))
        .collect();
    let served = session.join();
    let took = start.elapsed();
    assert!(took < Duration::from_secs(5), "join took {took:?}");
    assert!(served < STEPS, "a dead group served all {STEPS} steps");
    for client in clients {
        let pulled = client.join().expect("client thread");
        assert!(
            pulled <= served,
            "a client pulled {pulled} of {served} steps"
        );
    }
    let ended = start.elapsed();
    assert!(
        ended < Duration::from_secs(5),
        "the clients' next() loops took {ended:?}"
    );
    let ended = p.gcs.fault_log("serve-driver");
    let loader = format!("id {}", identity.loader_id);
    assert!(
        ended
            .iter()
            .any(|f| f.detail.contains("session ended") && f.detail.contains(&loader)),
        "no serve-driver record names loader {}: {ended:?}",
        identity.loader_id
    );
    p.shutdown();
}

/// The ready steps a constructor holds, asked of the actor itself.
fn ready_steps(ctor: &ActorRef<ConstructorMsg>) -> Vec<u64> {
    ctor.ask(ConstructorMsg::ReadySteps, Duration::from_secs(5))
        .expect("constructor answers")
}

/// Waits until nothing can reach `ctor` any more, then crashes it and
/// checks that the restarted incarnation rebuilt the same queue in
/// `started` with no message but the checking ask reaching it.
///
/// Nothing can reach it once two things hold, observed in this order:
/// - the server has sent every pull `client`'s window allows, its next
///   pull being `window_end`: a pull is told to the constructor before
///   the server's status can show it, so the pull is queued ahead of the
///   check below;
/// - `ctor` then holds exactly `want` with nothing left in its mailbox:
///   the driver is done sending it steps and frontiers, and every pull
///   has been dequeued.
///
/// The constructor's own state alone is not enough: a client's consumed
/// report wakes the driver (which stages and announces) before the
/// server, on the same report, pulls the next step of the client's
/// window, so that pull can arrive after the constructor looks settled.
fn crash_idle_constructor(
    ctor: &ActorRef<ConstructorMsg>,
    server: &DataServerHandle,
    (client, window_end): (u32, u64),
    want: &[u64],
    deadline: Instant,
) {
    let pulled_to = || {
        let status = server.status()?;
        let stat = status.clients.iter().find(|c| c.client == client)?;
        Some(stat.next_pull)
    };
    while !(pulled_to() == Some(window_end)
        && ready_steps(ctor) == want
        && ctor.mailbox_depth() == 0)
    {
        assert!(
            Instant::now() < deadline,
            "constructor never settled at {want:?}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    let processed = ctor.processed();
    ctor.inject_crash("rehydration test kill");
    // Queued behind the crash, so answered by the restarted incarnation.
    assert_eq!(ready_steps(ctor), want, "restart did not rebuild the queue");
    assert_eq!(
        ctor.processed(),
        processed + 1,
        "something besides the checking ask reached the restarted constructor"
    );
}

#[test]
fn restarted_constructor_rebuilds_its_ready_queue_from_the_retained_window() {
    const STEPS: u64 = 10;
    const SEED: u64 = 15;
    let deadline = Instant::now() + Duration::from_secs(120);
    let reference = harness::local_streams(SEED, 2, STEPS);

    // (a) Loopback, as local `serve` runs it: client 1 parks at cursor
    // 2, so with `queue_depth` 2 the driver stalls on backpressure after
    // broadcasting step 4 and the frontier (2) has retired constructor
    // 1's queue down to [2, 4], while the server has pulled client 1's
    // window up to step 4. The constructor dies there; when client 1
    // resumes, its pulls are the first thing the restarted incarnation
    // hears.
    const PARK_AT: u64 = 2;
    const QUEUE_DEPTH: u64 = 2;
    let mut p = harness::pipeline(SEED);
    let (session, handle) = p.serve_distributed(
        ServeOptions {
            queue_depth: QUEUE_DEPTH,
            ..harness::opts(2, STEPS)
        },
        Arc::new(LoopbackTransport),
        &harness::placements(2),
    );
    let mut parked = handle.connect(1);
    let mut runner = handle.connect(0);
    let runner = std::thread::spawn(move || {
        let mut stream = harness::Stream::new();
        while let Some(item) = runner.next() {
            stream.push(item);
        }
        (runner.id, stream)
    });
    let mut stream = harness::Stream::new();
    while (stream.len() as u64) < PARK_AT {
        stream.push(parked.next().expect("pull before parking"));
    }
    let want: Vec<u64> = (PARK_AT..=PARK_AT + QUEUE_DEPTH).collect();
    crash_idle_constructor(
        &p.constructor_actors()[1],
        &handle,
        (parked.id, PARK_AT + QUEUE_DEPTH),
        &want,
        deadline,
    );
    while let Some(item) = parked.next() {
        stream.push(item);
    }
    let streams = vec![runner.join().expect("client 0 thread"), (parked.id, stream)];
    assert_eq!(session.join(), STEPS, "parked-client driver fell short");
    p.shutdown();
    harness::assert_ordered_full(&streams, STEPS);
    harness::assert_byte_identical(&reference, &streams, "parked-client rehydration");

    // (b) Loopback `serve_distributed`: client 0 streams everything while
    // client 1 has not dialed yet, holding its capability (and the
    // frontier) at 0. A `queue_depth` of the whole run lets the driver
    // broadcast the last step and enter its drain; constructor 1 dies
    // there, and client 1 then dials and pulls every step from the
    // rebuilt queue.
    let mut p = harness::pipeline(SEED);
    let (session, handle) = p.serve_distributed(
        ServeOptions {
            queue_depth: STEPS,
            ..harness::opts(2, STEPS)
        },
        Arc::new(LoopbackTransport),
        &harness::placements(2),
    );
    let mut runner = handle.connect(0);
    let runner = std::thread::spawn(move || {
        let mut stream = harness::Stream::new();
        while let Some(item) = runner.next() {
            stream.push(item);
        }
        (runner.id, stream)
    });
    let want: Vec<u64> = (0..STEPS).collect();
    crash_idle_constructor(&p.constructor_actors()[1], &handle, (1, 0), &want, deadline);
    let mut late = handle.connect(1);
    let mut stream = harness::Stream::new();
    while let Some(item) = late.next() {
        stream.push(item);
    }
    let streams = vec![runner.join().expect("client 0 thread"), (late.id, stream)];
    assert_eq!(session.join(), STEPS, "distributed driver fell short");
    p.shutdown();
    harness::assert_ordered_full(&streams, STEPS);
    harness::assert_byte_identical(&reference, &streams, "distributed rehydration");
    assert!(
        Instant::now() < deadline,
        "rehydration runs overran their deadline"
    );
}
