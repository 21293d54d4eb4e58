//! Seeded chaos soak over the distributed serving plane.
//!
//! The contract under test is the PR-8 hardening story: with a
//! `ChaosPlan` injecting frame drops/duplicates/reorders, scheduled
//! partitions, a full `DataServer` crash-restart, and one client dying
//! *silently* mid-serve (no `Close`), the surviving clients' streams
//! stay byte-identical to a fault-free local serve — in order, gap-free,
//! duplicate-free — and the dead client's session is reaped within its
//! lease: nothing left in flight, frontier capability released, eviction
//! logged to the GCS fault log with id, rank, and reason.
//!
//! The same soak runs over Loopback and real TCP via the shared
//! `harness/` recipe, because fault recovery that only works on one
//! transport is not recovery. A separate test pins
//! admission control (`max_sessions` + wire `Reject`) and the
//! lease-then-late-return resume path end to end.

mod harness;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use harness::{assert_byte_identical, assert_ordered_full, Stream};
use megascale_data::core::system::chaos::{ChaosPlan, ChaosTransport};
use megascale_data::core::system::net::{LoopbackTransport, Transport};
use megascale_data::core::system::server::RedialBackoff;
use megascale_data::core::system::tcp::TcpTransport;

const CLIENTS: u32 = 6;
const STEPS: u64 = 10;
/// The client that dies silently, and how many steps it consumes first.
const DEAD: u32 = 5;
const DEAD_AT: u64 = 4;
/// Observed progress (server-side pull cursor) at which the harness
/// crashes the server actor, per the plan's `CrashServer` event.
const CRASH_AT: u64 = 2;
const STALL_AT: u64 = 3;

/// The soak's fault script. Step-keyed events are applied by the
/// harness below; frame faults and partitions replay from the seed
/// inside `ChaosTransport`.
fn soak_plan() -> ChaosPlan {
    ChaosPlan::seeded(0xC4A0_5EED)
        .with_drops(0.04)
        .with_duplicates(0.04)
        .with_reorders(0.04)
        .partition(150, 170)
        .partition(520, 540)
        .kill_client(DEAD, DEAD_AT)
        .crash_server(CRASH_AT)
        .stall_constructor(0, STALL_AT, Duration::from_millis(40))
}

fn chaos_soak(inner: Arc<dyn Transport>, label: &str) {
    let reference = harness::local_streams(5, CLIENTS, STEPS);

    let mut p = harness::pipeline(5);
    let mut o = harness::opts(CLIENTS, STEPS);
    // Short lease so the silently-dead client is reaped inside the
    // test, but long enough that a healthy client's worst-case silent
    // stretch — a quiet-timeout teardown (~1s), a backoff sleep, and a
    // partition window riding on retry-rate traffic — never trips it.
    o.server.lease = Some(Duration::from_millis(3000));
    let plan = soak_plan();
    let chaos = Arc::new(ChaosTransport::new(inner, plan.clone()));
    let (session, handle) = p.serve_distributed(o, chaos.clone(), &harness::placements(CLIENTS));

    let threads: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let mut rc = handle.connect(c);
            std::thread::spawn(move || {
                let mut stream = Stream::new();
                while let Some(item) = rc.next() {
                    stream.push(item);
                    if rc.id == DEAD && rc.consumed() >= DEAD_AT {
                        // Die silently: drop the connection without a
                        // Close handshake, then never pull again. The
                        // lease sweep is the only thing that can free
                        // this client's server-side state.
                        rc.disconnect();
                        return (rc.id, stream);
                    }
                }
                (rc.id, stream)
            })
        })
        .collect();

    // Harness half of the chaos plan: watch server-side progress and
    // fire the step-keyed actor faults when the fleet crosses them,
    // noting the progress each one landed at.
    let mut crashed = None;
    let mut stalled = None;
    let fault_deadline = Instant::now() + Duration::from_secs(30);
    while (crashed.is_none() || stalled.is_none()) && Instant::now() < fault_deadline {
        if let Some(status) = handle.status() {
            let progress = status
                .clients
                .iter()
                .map(|c| c.next_pull)
                .max()
                .unwrap_or(0);
            if crashed.is_none() && progress >= CRASH_AT {
                handle.inject_server_crash("chaos: scheduled server crash");
                crashed = Some(progress);
            }
            if stalled.is_none() && progress >= STALL_AT {
                p.inject_constructor_stall(0, Duration::from_millis(40));
                stalled = Some(progress);
            }
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    // The silently-dead client pins backpressure until its lease
    // expires, so both faults land mid-stream; prove it.
    for (fault, progress) in [("server crash", crashed), ("constructor stall", stalled)] {
        assert!(
            progress.is_some_and(|at| at < STEPS),
            "{label}: {fault} did not land before the stream ended ({progress:?})"
        );
    }

    let mut streams: Vec<(u32, Stream)> = threads
        .into_iter()
        .map(|h| h.join().expect("client thread"))
        .collect();
    streams.sort_by_key(|(id, _)| *id);

    // The driver finishing every step is itself the eviction proof: the
    // dead client froze the backpressure floor at its cursor, and only
    // a lease eviction can release it within the step retry budget.
    assert_eq!(
        session.join(),
        STEPS,
        "{label}: distributed driver fell short"
    );

    // Survivors: full streams, in order, duplicate-free, byte-identical
    // to the fault-free local reference.
    let survivors: Vec<(u32, Stream)> = streams
        .iter()
        .filter(|(id, _)| *id != DEAD)
        .cloned()
        .collect();
    let survivor_reference: Vec<(u32, Stream)> = reference
        .iter()
        .filter(|(id, _)| *id != DEAD)
        .cloned()
        .collect();
    assert_ordered_full(&survivors, STEPS);
    assert_byte_identical(&survivor_reference, &survivors, label);

    // The dead client consumed a clean prefix before dying.
    let (_, dead_stream) = streams.iter().find(|(id, _)| *id == DEAD).unwrap();
    assert_eq!(
        dead_stream.len() as u64,
        DEAD_AT,
        "{label}: dead client prefix"
    );
    let (_, dead_reference) = reference.iter().find(|(id, _)| *id == DEAD).unwrap();
    for (i, ((step, batch), (rstep, rbatch))) in dead_stream.iter().zip(dead_reference).enumerate()
    {
        assert_eq!((*step, step), (i as u64, rstep), "{label}: dead client gap");
        assert_eq!(**batch, **rbatch, "{label}: dead client diverged");
    }

    // Its server-side state was reaped: session unbound, nothing in
    // flight, eviction counted. (The eviction happens after the
    // crash-restart, so the restarted incarnation's counters carry it.)
    let status = handle.status().expect("server status after serve");
    let dead = status
        .clients
        .iter()
        .find(|c| c.client == DEAD)
        .expect("dead client stat");
    assert!(!dead.connected, "{label}: dead client still bound");
    assert_eq!(dead.unacked, 0, "{label}: in-flight steps not dropped");
    assert!(status.evictions >= 1, "{label}: no eviction recorded");

    // The eviction left a post-mortem trail with id, rank, and reason.
    let log = p.gcs.fault_log("data-server");
    assert!(
        log.iter()
            .any(|r| r.detail.contains(&format!("evicted client {DEAD}"))
                && r.detail.contains("rank")
                && r.detail.contains("lease expired")),
        "{label}: eviction missing from GCS fault log: {log:?}"
    );

    // The chaos layer actually perturbed the run.
    let stats = chaos.stats();
    assert!(
        stats.dropped > 0 && stats.duplicated > 0 && stats.reordered > 0,
        "{label}: chaos plan injected nothing: {stats:?}"
    );

    p.shutdown();
}

#[test]
fn chaos_soak_over_loopback() {
    chaos_soak(Arc::new(LoopbackTransport), "chaos/loopback");
}

#[test]
fn chaos_soak_over_tcp() {
    chaos_soak(
        Arc::new(TcpTransport::new().expect("bind tcp transport")),
        "chaos/tcp",
    );
}

/// Admission control end to end: with `max_sessions = 1`, the second
/// client's dials are refused with a wire `Reject` (surfaced in its
/// `ClientStats` and the server's rejection counter + fault log), it
/// backs off, and once the first client finishes and its session dies,
/// the late client is admitted and still pulls its full stream.
#[test]
fn over_capacity_dials_are_rejected_then_admitted() {
    const AC_STEPS: u64 = 4;
    let mut p = harness::pipeline(9);
    let mut o = harness::opts(2, AC_STEPS);
    o.server.max_sessions = 1;
    let (session, handle) =
        p.serve_distributed(o, Arc::new(LoopbackTransport), &harness::placements(2));

    let mut first = handle.connect(0);
    // Bind the only session slot *before* the second client dials.
    let first_item = first.next().expect("first client pull");
    let holder = std::thread::spawn(move || {
        let mut stream = vec![first_item];
        while let Some(item) = first.next() {
            stream.push(item);
            // Hold the slot long enough for the second client to
            // collect rejections.
            std::thread::sleep(Duration::from_millis(60));
        }
        drop(first); // Session dies here; the slot frees.
        stream
    });

    let mut second = handle.connect(1);
    // Tight, seeded envelope so the rejected client retries fast and
    // deterministically instead of sleeping out the default 250 ms cap.
    second.set_backoff(RedialBackoff::new(
        7,
        Duration::from_millis(1),
        Duration::from_millis(10),
    ));
    let mut stream = Stream::new();
    while let Some(item) = second.next() {
        stream.push(item);
    }

    let first_stream = holder.join().expect("holder thread");
    assert_eq!(first_stream.len() as u64, AC_STEPS);
    assert_eq!(stream.len() as u64, AC_STEPS, "late client fell short");
    for (i, (step, _)) in stream.iter().enumerate() {
        assert_eq!(*step, i as u64, "late client stream out of order");
    }

    let stats = second.stats();
    assert!(
        stats.rejections >= 1,
        "second dial was never rejected: {stats:?}"
    );
    assert!(
        stats.backoffs >= 1,
        "rejected client never backed off: {stats:?}"
    );

    assert_eq!(session.join(), AC_STEPS);
    let status = handle.status().expect("server status");
    assert!(status.rejections >= 1, "server counted no rejections");
    let log = p.gcs.fault_log("data-server");
    assert!(
        log.iter().any(|r| r.detail.contains("rejected client 1")
            && r.detail.contains("session limit reached")),
        "rejection missing from GCS fault log: {log:?}"
    );
    p.shutdown();
}

/// The lease-then-late-return path end to end: a client disconnects
/// silently, is evicted on lease expiry, then *returns* — re-dialing
/// with the same cursor — and resumes gap-free because eviction
/// released (not finished) its stream: the re-`Subscribe` re-acquires
/// its frontier capability at its cursor and re-pulls from its
/// constructor's ready queue.
///
/// Gap-free resume is only possible while the frontier has not passed
/// the returner's cursor (ready queues retire below it), and once the
/// returner is evicted the frontier follows the slowest *live* client's
/// consumed cursor. The choreography below keeps that true: the dead
/// client pauses at the production frontier — the driver broadcasts
/// step `s` only while `s ≤ slowest consumed cursor + queue depth 3`,
/// so it can take step 5 only once the pacer's cursor is at 2 or more —
/// and the slow pacer then has at least three unhurried pulls of
/// headroom before the frontier would pass the resume point at step 6,
/// comfortably longer than lease expiry plus redial.
#[test]
fn evicted_client_resumes_gap_free_after_late_return() {
    const LR_STEPS: u64 = 8;
    const PAUSE_AT: u64 = 6;
    let reference = harness::local_streams(11, 2, LR_STEPS);

    let mut p = harness::pipeline(11);
    let mut o = harness::opts(2, LR_STEPS);
    o.server.lease = Some(Duration::from_millis(1200));
    let (session, handle) =
        p.serve_distributed(o, Arc::new(LoopbackTransport), &harness::placements(2));
    let resumed = Arc::new(AtomicBool::new(false));

    // Client 0 paces slowly so the frontier is still below the
    // returning client's cursor when it comes back — but each pull
    // (and its Ack) lands well inside the lease, so only the silent
    // client is ever evicted. Once the late-returner is back, the
    // pacer drains at full speed.
    let mut pacer = handle.connect(0);
    let pacer_resumed = resumed.clone();
    let pacer_thread = std::thread::spawn(move || {
        let mut stream = Stream::new();
        while let Some(item) = pacer.next() {
            stream.push(item);
            if !pacer_resumed.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(800));
            }
        }
        stream
    });

    let mut lazarus = handle.connect(1);
    let mut stream = Stream::new();
    while stream.len() < PAUSE_AT as usize {
        let item = lazarus.next().expect("pre-death pull");
        stream.push(item);
    }
    lazarus.disconnect(); // Silent: no Close.

    // Wait out the lease until the server reaps the session.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        assert!(Instant::now() < deadline, "lease eviction never happened");
        if let Some(status) = handle.status() {
            let stat = status.clients.iter().find(|c| c.client == 1).unwrap();
            if stat.evictions >= 1 && !stat.connected {
                assert_eq!(stat.unacked, 0, "eviction left steps in flight");
                break;
            }
        }
        std::thread::sleep(Duration::from_millis(20));
    }

    // The late return: same client object, same cursor, fresh session.
    while let Some(item) = lazarus.next() {
        stream.push(item);
        resumed.store(true, Ordering::SeqCst);
    }

    let pacer_stream = pacer_thread.join().expect("pacer thread");
    assert_eq!(session.join(), LR_STEPS);

    let streams = vec![(0u32, pacer_stream), (1u32, stream)];
    assert_ordered_full(&streams, LR_STEPS);
    assert_byte_identical(&reference, &streams, "late-return");
    assert!(lazarus.reconnects() >= 1, "late return never re-dialed");
    p.shutdown();
}
