//! Regression suite for step-frontier plan-log retirement.
//!
//! The seed runtime pruned the GCS plan log behind a fixed 64-step
//! window (`PLAN_LOG_WINDOW`), and `replay_plan_log` silently skipped
//! missing steps. A consumer lagging more than 64 steps behind the
//! serve head combined with a loader restart could therefore resume
//! with silently lost replay data. These tests pin the frontier
//! protocol that replaced the window:
//!
//! - while any live consumer's capability sits at step `c`, every
//!   plan-log entry at or above the retirement floor stays in the GCS,
//!   no matter how far the serve head runs ahead;
//! - a loader restarting from a corrupted (hence version-zero)
//!   checkpoint replays the *complete* log, and the resumed session is
//!   byte-identical to an undisturbed reference run;
//! - an actual hole at or above the persisted retirement floor is a
//!   *surfaced* fault (GCS fault log), never a silent `continue`.

mod harness;

use std::sync::Arc;
use std::time::Duration;

use megascale_data::core::constructor::ConstructedBatch;
use megascale_data::core::system::runtime::{ServeOptions, ThreadedPipeline};

type Stream = Vec<(u64, Arc<ConstructedBatch>)>;

const STEPS: u64 = 100;
/// Deep enough that the serve driver never backpressure-stalls on the
/// parked laggard: the leader can run the full `STEPS` ahead, which is
/// well past the seed's 64-step prune window.
const QUEUE_DEPTH: u64 = 256;

fn opts() -> ServeOptions {
    ServeOptions {
        queue_depth: QUEUE_DEPTH,
        ..harness::opts(2, STEPS)
    }
}

fn consume_all(mut client: megascale_data::core::system::runtime::ServeClient) -> (u32, Stream) {
    let mut stream = Stream::new();
    while let Some(item) = client.next() {
        stream.push(item);
    }
    (client.id, stream)
}

/// Reference streams from an undisturbed run with the same seed and
/// serve options (content is deterministic per seed).
fn reference_streams(seed: u64) -> Vec<(u32, Stream)> {
    let mut p = harness::pipeline(seed);
    let mut session = p.serve(opts());
    let handles: Vec<_> = session
        .take_clients()
        .into_iter()
        .map(|c| std::thread::spawn(move || consume_all(c)))
        .collect();
    let mut streams: Vec<_> = handles
        .into_iter()
        .map(|h| h.join().expect("reference client"))
        .collect();
    assert_eq!(session.join(), STEPS);
    p.shutdown();
    streams.sort_by_key(|(id, _)| *id);
    streams
}

/// Forces the next restart of loader 0 to replay from scratch: a
/// corrupted checkpoint decodes to nothing, so the loader falls back to
/// a fresh cursor and replays the whole plan log.
fn corrupt_loader_checkpoint(p: &ThreadedPipeline) {
    let key = "loader/0";
    let v = p.gcs.state_version(key);
    assert!(p.gcs.put_state(key, v + 1, b"{not a checkpoint".to_vec()));
}

/// The tentpole regression: a client lagging more than 64 steps (the
/// seed's whole prune window) keeps the full plan log retained, and a
/// loader restart that must replay from scratch recovers gap-free —
/// the resumed streams are identical to an undisturbed run. On the
/// seed, the fixed window pruned entries the laggard-era replay still
/// needed; under frontier retirement the laggard's capability provably
/// pins them.
#[test]
fn laggard_past_the_old_window_plus_loader_restart_replays_gap_free() {
    let seed = 21;
    let reference = reference_streams(seed);

    let mut p = harness::pipeline(seed);
    let mut session = p.serve(opts());
    let mut clients = session.take_clients();
    let laggard = clients.pop().expect("laggard client");
    let leader = clients.pop().expect("leader client");

    // The leader consumes the entire stream while the laggard stays
    // parked at step 0, holding its frontier capability there.
    let leader_stream = std::thread::spawn(move || consume_all(leader))
        .join()
        .expect("leader thread");
    assert_eq!(leader_stream.1.len(), STEPS as usize);

    // The laggard's capability pins the global frontier at 0 …
    assert_eq!(
        session.frontier(),
        0,
        "parked laggard must pin the frontier"
    );
    // … which pins the complete plan log: the head is STEPS ahead, far
    // past the seed's 64-step window, yet nothing has been pruned.
    for step in 0..STEPS {
        assert!(
            p.gcs.get_state(&format!("plan/{step}")).is_some(),
            "plan-log entry for step {step} was pruned while a live \
             consumer at step 0 could still need it replayed"
        );
    }

    // Loader 0 restarts with a corrupted checkpoint: it must replay the
    // whole log — and can, because every entry is still there.
    corrupt_loader_checkpoint(&p);
    p.loaders()[0].inject_crash("frontier recovery test");
    std::thread::sleep(Duration::from_millis(500));

    // A complete replay is not a fault.
    let gaps: Vec<String> = p
        .gcs
        .fault_log("")
        .into_iter()
        .filter(|r| r.detail.contains("plan log replay gap"))
        .map(|r| r.detail)
        .collect();
    assert!(gaps.is_empty(), "complete replay reported a gap: {gaps:?}");

    // The laggard now consumes its whole stream: gap-free, in order.
    let laggard_stream = consume_all(laggard);
    assert_eq!(session.join(), STEPS, "driver fell short");
    p.shutdown();

    let mut streams = vec![leader_stream, laggard_stream];
    streams.sort_by_key(|(id, _)| *id);
    for ((rid, rstream), (sid, sstream)) in reference.iter().zip(&streams) {
        assert_eq!(rid, sid);
        assert_eq!(
            rstream.len(),
            sstream.len(),
            "client {sid} stream length diverged from reference"
        );
        for (i, ((rstep, rbatch), (sstep, sbatch))) in rstream.iter().zip(sstream).enumerate() {
            assert_eq!(*sstep, i as u64, "client {sid} stream has a gap");
            assert_eq!(rstep, sstep);
            assert_eq!(
                harness::sample_ids(rbatch),
                harness::sample_ids(sbatch),
                "client {sid} step {sstep}: samples diverged from the reference run"
            );
        }
    }
}

/// Satellite: a *genuine* hole at or above the persisted retirement
/// floor — here punched by hand below a frontier that never advanced —
/// surfaces as a GCS fault ("plan log replay gap"), not a silent skip.
#[test]
fn replay_gap_at_or_above_the_frontier_is_a_surfaced_fault() {
    let mut p = harness::pipeline(33);
    let mut session = p.serve(opts());
    let mut clients = session.take_clients();
    let laggard = clients.pop().expect("laggard client");
    let leader = clients.pop().expect("leader client");

    let leader_stream = std::thread::spawn(move || consume_all(leader))
        .join()
        .expect("leader thread");
    assert_eq!(leader_stream.1.len(), STEPS as usize);

    // Punch a hole the retirement floor cannot justify, then force a
    // from-scratch replay.
    assert!(p.gcs.remove_state("plan/5"), "plan/5 should be retained");
    corrupt_loader_checkpoint(&p);
    p.loaders()[0].inject_crash("forced replay across a punched hole");

    // The restart runs on the supervisor's thread, after the injected
    // panic has printed: wait for its verdict, not for a fixed time.
    let surfaced = |log: &[megascale_data::actor::gcs::FaultRecord]| {
        log.iter()
            .any(|r| r.detail.contains("plan log replay gap") && r.detail.contains("step 5"))
    };
    let mut log = p.gcs.fault_log("");
    for _ in 0..400 {
        if surfaced(&log) {
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
        log = p.gcs.fault_log("");
    }
    assert!(
        surfaced(&log),
        "a hole above the retirement floor must surface in the fault log: {log:?}"
    );

    // The session still winds down cleanly: the laggard is dropped
    // unconsumed (its capability is released on drop).
    drop(laggard);
    assert_eq!(session.join(), STEPS);
    p.shutdown();
}
