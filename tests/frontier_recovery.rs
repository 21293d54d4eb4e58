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
//! - conversely, under a consumer paced a fixed lag behind, the live
//!   plan log is bounded by that lag plus the serve window — never by
//!   run length — and nothing below the persisted floor survives;
//! - a loader restarting from a corrupted (hence version-zero)
//!   checkpoint replays the *complete* log, and the resumed session is
//!   byte-identical to an undisturbed reference run;
//! - an actual hole at or above the persisted retirement floor is a
//!   *surfaced* fault (GCS fault log), never a silent `continue`;
//! - a loader group that misses a pop (which is also its checkpoint)
//!   holds the floor at the last step it answered until it answers
//!   again, so its restart replays without a gap.

mod harness;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use megascale_data::core::codec::decode_frontier_checkpoint;
use megascale_data::core::constructor::ConstructedBatch;
use megascale_data::core::system::frontier::FrontierCheckpoint;
use megascale_data::core::system::runtime::{LoaderMsg, ServeOptions, ThreadedPipeline};

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

/// Polls `done` until it holds. A restart runs on the supervisor's
/// thread, after the injected panic has printed, so tests wait for its
/// evidence rather than for a fixed time.
fn wait_for(what: &str, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(20);
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Whether any fault record's detail contains every one of `needles`.
fn fault_logged(p: &ThreadedPipeline, needles: &[&str]) -> bool {
    p.gcs
        .fault_log("")
        .iter()
        .any(|r| needles.iter().all(|n| r.detail.contains(n)))
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

    // Positive evidence the replay ran before checking it logged no gap:
    // the restart reports the corrupt checkpoint before it replays, and
    // an ask answered by the restarted actor means its constructor —
    // replay included — has returned.
    wait_for("loader 0's corrupt-checkpoint fallback", || {
        fault_logged(&p, &["corrupt GCS checkpoint", "falling back"])
    });
    let loader = p.loaders()[0].clone();
    wait_for("an answer from the restarted loader 0", || {
        loader
            .ask(LoaderMsg::Health, Duration::from_millis(200))
            .is_ok()
    });

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

    wait_for("the hole above the retirement floor to surface", || {
        fault_logged(&p, &["plan log replay gap", "step 5"])
    });

    // The session still winds down cleanly: the laggard is dropped
    // unconsumed (its capability is released on drop).
    drop(laggard);
    assert_eq!(session.join(), STEPS);
    p.shutdown();
}

/// The upper bound the parked-laggard test cannot state: with the
/// laggard *paced* a fixed `LAG` steps behind the leader for a run ten
/// times that long, retirement keeps up with it. After every laggard
/// step the live plan log holds at most `LAG + queue_depth + 8` entries
/// (lag, serve window, slack for the step the driver pops ahead and the
/// clients' frontier reports in flight)
/// and no entry below the persisted `pruned_below` survives.
#[test]
fn paced_laggard_bounds_plan_log_retention_by_lag_not_run_length() {
    const LAG: u64 = 8;
    /// Must exceed `LAG`: the driver runs at most `queue_depth` steps
    /// past the laggard, and the laggard refuses to come closer than
    /// `LAG` to the leader, so a smaller window deadlocks the two paces.
    const WINDOW: u64 = 24;
    const BUDGET: u64 = LAG + WINDOW + 8;
    const _: () = assert!(STEPS >= 10 * LAG && STEPS > BUDGET);

    let mut p = harness::pipeline(47);
    let mut session = p.serve(ServeOptions {
        queue_depth: WINDOW,
        ..harness::opts(2, STEPS)
    });
    let mut clients = session.take_clients();
    let mut laggard = clients.pop().expect("laggard client");
    let mut leader = clients.pop().expect("leader client");

    let leader_at = Arc::new(AtomicU64::new(0));
    let leader_thread = {
        let leader_at = Arc::clone(&leader_at);
        std::thread::spawn(move || {
            while leader.next().is_some() {
                leader_at.fetch_add(1, Ordering::Release);
            }
        })
    };

    let plan_logged = |step: u64| p.gcs.get_state(&format!("plan/{step}")).is_some();
    let (mut consumed, mut retained_max, mut pruned_below) = (0u64, 0u64, 0u64);
    loop {
        // Pull step `consumed` only once the leader is `LAG` past it (or
        // has finished the run).
        while leader_at.load(Ordering::Acquire) < (consumed + LAG).min(STEPS) {
            std::thread::sleep(Duration::from_millis(1));
        }
        if laggard.next().is_none() {
            break;
        }
        consumed += 1;

        // Proof first, entries second: the driver prunes before it
        // persists a floor, so everything below a floor read here is gone.
        pruned_below = p
            .gcs
            .get_state("frontier")
            .map(|cp| decode_frontier_checkpoint(&cp.data).expect("frontier checkpoint"))
            .map_or(0, |cp| cp.pruned_below);
        if let Some(stale) = (0..pruned_below).find(|s| plan_logged(*s)) {
            panic!("plan/{stale} survived retirement below pruned_below = {pruned_below}");
        }
        let retained = (0..STEPS).filter(|s| plan_logged(*s)).count() as u64;
        retained_max = retained_max.max(retained);
    }
    leader_thread.join().expect("leader thread");
    assert_eq!(consumed, STEPS, "laggard missed steps");
    assert_eq!(session.join(), STEPS, "driver fell short");
    p.shutdown();

    assert!(
        retained_max <= BUDGET,
        "live plan log reached {retained_max} entries under a {LAG}-step lag \
         over a {STEPS}-step run; retirement bounds it to {BUDGET}"
    );
    assert!(
        pruned_below >= STEPS - BUDGET,
        "retirement stalled at pruned_below = {pruned_below} of {STEPS} steps"
    );
}

/// The persisted frontier checkpoint, once the driver has written one.
fn frontier_checkpoint(p: &ThreadedPipeline) -> Option<FrontierCheckpoint> {
    p.gcs
        .get_state("frontier")
        .map(|cp| decode_frontier_checkpoint(&cp.data).expect("frontier checkpoint"))
}

/// The loaders' half of the retirement floor comes from the pop replies:
/// a group checkpoints its loaders before it answers a pop, so the floor
/// moves to a step only once every group answered its pop. Here one
/// group stalls through a step's pop and crashes before it catches up.
/// While it stalls, the clients' frontier passes its checkpoint, yet no
/// plan-log entry at or above that checkpoint is pruned; its restart
/// replays from there without a gap, and pruning catches up once it
/// answers again.
#[test]
fn a_group_that_misses_a_pop_holds_the_plan_log_floor_until_it_answers() {
    const STEPS: u64 = 12;
    /// Steps both clients pull before the stall.
    const K: u64 = 3;
    /// The plan ask of the stalled step must succeed: the planner's
    /// stall stays well inside the RPC timeout, and the group's outlasts
    /// the planner's plus both pop rounds.
    const RPC: Duration = Duration::from_secs(1);
    const PLANNER_STALL: Duration = Duration::from_millis(500);
    const GROUP_STALL: Duration = Duration::from_secs(6);

    let mut p = harness::pipeline(48);
    p.set_rpc_timeout(RPC);
    let mut session = p.serve(harness::opts(2, STEPS));
    let mut clients = session.take_clients();
    let mut pull = |step: u64| {
        for client in clients.iter_mut() {
            assert_eq!(
                client.next().map(|(s, _)| s),
                Some(step),
                "client {}",
                client.id
            );
        }
    };
    let group = p.loaders()[0].clone();
    let keys: Vec<String> = p
        .loader_identities()
        .iter()
        .zip(p.loaders())
        .filter(|(_, host)| host.name() == group.name())
        .map(|(id, _)| format!("loader/{}", id.loader_id))
        .collect();
    let every_key: Vec<String> = p
        .loader_identities()
        .iter()
        .map(|id| format!("loader/{}", id.loader_id))
        .collect();
    let version = |key: &String| p.gcs.state_version(key);

    // Steps 0..K are consumed, step K is broadcast, and the driver has
    // popped step K + 1 (every loader holds its checkpoint) and waits
    // for a client to pull step K.
    for step in 0..K {
        pull(step);
    }
    wait_for("step K + 1's pop", || {
        every_key.iter().all(|key| version(key) == K + 1)
    });

    // Stall the planner, then pull step K: the driver gathers step K + 2
    // and its plan ask waits behind the stall. Meanwhile the group
    // stalls too, and crashes once it wakes, both ahead of the pop.
    let planner = p.planner_actor().clone();
    planner.inject_delay(PLANNER_STALL);
    wait_for("the planner to start its stall", || {
        planner.mailbox_depth() == 0
    });
    pull(K);
    wait_for("step K + 2's plan ask", || planner.mailbox_depth() == 1);
    group.inject_delay(GROUP_STALL);
    group.inject_crash("missed a pop");
    assert_eq!(
        planner.mailbox_depth(),
        1,
        "the plan left before the group stalled: its pop is not missed"
    );

    // Step K + 2's pop misses the group; the driver serves the step
    // short and retires it with both clients past step K + 1.
    pull(K + 1);
    wait_for("step K + 2's retirement", || {
        frontier_checkpoint(&p).is_some_and(|cp| cp.served == K + 3)
    });
    let cp = frontier_checkpoint(&p).expect("frontier checkpoint");
    let held = keys
        .iter()
        .map(version)
        .min()
        .expect("the group hosts a loader");
    assert_eq!(held, K + 1, "the stalled group checkpointed");
    assert!(
        cp.plan_base + cp.frontier > held,
        "the clients' frontier {} does not pass the group's checkpoint {held}: \
         the test proves nothing",
        cp.plan_base + cp.frontier
    );
    assert!(
        cp.pruned_below <= held,
        "pruned below {} while the stalled group's checkpoint is at {held}",
        cp.pruned_below
    );
    for step in held..=K + 2 {
        assert!(
            p.gcs.get_state(&format!("plan/{step}")).is_some(),
            "plan/{step} was pruned while the stalled group still replays from {held}"
        );
    }

    // The group wakes and restarts from its step K + 1 checkpoint: an
    // answered ask means its replay has run.
    wait_for("an answer from the restarted group", || {
        group.ask(LoaderMsg::Health, RPC).is_ok()
    });
    let gaps: Vec<String> = p
        .gcs
        .fault_log("")
        .into_iter()
        .filter(|r| r.detail.contains("plan log replay gap"))
        .map(|r| r.detail)
        .collect();
    assert!(
        gaps.is_empty(),
        "the restart replayed across a gap: {gaps:?}"
    );

    // Answering again, the group lets pruning catch up.
    for step in K + 2..STEPS {
        pull(step);
    }
    for client in clients.iter_mut() {
        assert!(
            client.next().is_none(),
            "client {} read past the run",
            client.id
        );
    }
    assert_eq!(session.join(), STEPS, "driver fell short");
    let cp = frontier_checkpoint(&p).expect("frontier checkpoint");
    assert!(
        cp.pruned_below > K + 2,
        "retirement stalled at pruned_below = {} after the group answered",
        cp.pruned_below
    );
    p.shutdown();
}
