//! Deterministic, seeded fault injection for the distributed serving
//! plane.
//!
//! The module has two halves:
//!
//! - [`ChaosTransport`] composes with any [`Transport`] and perturbs the
//!   frame stream *in both directions*: seeded drops, duplicates, and
//!   adjacent-swap reorders, plus link partitions — scheduled windows
//!   keyed to the global offered-frame count (so a plan replays exactly
//!   from its seed, independent of wall-clock), or manual per-link
//!   control via [`LinkChaos`]. It is the serving plane's one fault
//!   layer: over TCP it is a lossy, serializing network.
//! - [`ChaosPlan`] is the replayable script: the seed and probabilities
//!   the transport consumes, plus *step-keyed* [`ChaosEvent`]s the test
//!   harness applies against the actor system — silently killing a
//!   client at step N, crashing the whole `DataServer` actor (its
//!   supervisor restarts it with empty session state), or stalling a
//!   constructor's mailbox to model a slow storage fetch.
//!
//! Everything is keyed to counts (frames offered, steps consumed),
//! never to wall-clock, so a failing chaos soak reproduces from its
//! seed alone. See `tests/chaos_serve.rs` for the harness that drives
//! a plan against live Loopback/TCP serve sessions.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use msd_sim::SimRng;
use parking_lot::Mutex;

use crate::system::net::{FrameTx, NetError, Transport, WireConn, WireFrame};

/// One scheduled fault in a [`ChaosPlan`], keyed to a serve-step count
/// observed by the driving harness (not wall-clock), so replays are
/// exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosEvent {
    /// Stop pulling on client `client` once it has consumed `at_step`
    /// steps — *without* a `Close` handshake. This is the silent death
    /// the session lease exists to reap.
    KillClient {
        /// The client to kill.
        client: u32,
        /// Consumed-step count at which it dies.
        at_step: u64,
    },
    /// Panic the `DataServer` actor once the observing client reaches
    /// `at_step`. Its supervisor restarts it with fresh, empty session
    /// state; clients redial under backoff and resume from their
    /// cursors.
    CrashServer {
        /// Consumed-step count at which the server crashes.
        at_step: u64,
    },
    /// Stall constructor `index`'s mailbox by `stall` at `at_step`,
    /// modeling a storage fetch gone slow.
    StallConstructor {
        /// Constructor index in the pipeline fleet.
        index: usize,
        /// Consumed-step count at which the stall lands.
        at_step: u64,
        /// How long the constructor sleeps.
        stall: Duration,
    },
}

impl ChaosEvent {
    /// The step this event is keyed to.
    pub fn at_step(&self) -> u64 {
        match self {
            ChaosEvent::KillClient { at_step, .. }
            | ChaosEvent::CrashServer { at_step }
            | ChaosEvent::StallConstructor { at_step, .. } => *at_step,
        }
    }
}

/// A half-open window `[from, until)` of the global offered-frame count
/// during which every chaos-wrapped link drops all frames — a full
/// partition scheduled deterministically, without wall-clock timers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartitionWindow {
    /// First offered-frame count inside the partition.
    pub from: u64,
    /// First offered-frame count past the partition.
    pub until: u64,
}

/// A replayable fault-injection script: seed, frame-level fault
/// probabilities, scheduled partitions, and step-keyed actor faults.
/// Two runs from the same plan perturb the system identically.
#[derive(Debug, Clone, Default)]
pub struct ChaosPlan {
    /// Seed for every per-lane fault RNG.
    pub seed: u64,
    /// Per-frame drop probability.
    pub drop_p: f64,
    /// Per-frame duplication probability.
    pub dup_p: f64,
    /// Per-frame adjacent-swap reorder probability.
    pub reorder_p: f64,
    /// Scheduled full partitions, keyed to the offered-frame count.
    pub partitions: Vec<PartitionWindow>,
    /// Step-keyed actor faults for the harness to apply.
    pub events: Vec<ChaosEvent>,
}

impl ChaosPlan {
    /// A quiet plan (no faults) with the given seed.
    pub fn seeded(seed: u64) -> Self {
        ChaosPlan {
            seed,
            ..ChaosPlan::default()
        }
    }

    /// Sets the per-frame drop probability.
    pub fn with_drops(mut self, p: f64) -> Self {
        self.drop_p = p;
        self
    }

    /// Sets the per-frame duplication probability.
    pub fn with_duplicates(mut self, p: f64) -> Self {
        self.dup_p = p;
        self
    }

    /// Sets the per-frame adjacent-swap reorder probability.
    pub fn with_reorders(mut self, p: f64) -> Self {
        self.reorder_p = p;
        self
    }

    /// Schedules a full partition over offered frames `[from, until)`.
    pub fn partition(mut self, from: u64, until: u64) -> Self {
        self.partitions.push(PartitionWindow { from, until });
        self
    }

    /// Schedules a silent client death at a consumed-step count.
    pub fn kill_client(mut self, client: u32, at_step: u64) -> Self {
        self.events.push(ChaosEvent::KillClient { client, at_step });
        self
    }

    /// Schedules a `DataServer` crash (supervised restart) at a
    /// consumed-step count.
    pub fn crash_server(mut self, at_step: u64) -> Self {
        self.events.push(ChaosEvent::CrashServer { at_step });
        self
    }

    /// Schedules a constructor mailbox stall at a consumed-step count.
    pub fn stall_constructor(mut self, index: usize, at_step: u64, stall: Duration) -> Self {
        self.events.push(ChaosEvent::StallConstructor {
            index,
            at_step,
            stall,
        });
        self
    }

    /// The events keyed to exactly `step`, in plan order.
    pub fn events_at(&self, step: u64) -> impl Iterator<Item = ChaosEvent> + '_ {
        self.events
            .iter()
            .copied()
            .filter(move |e| e.at_step() == step)
    }
}

/// Global frame-fault counters shared by every lane of a
/// [`ChaosTransport`].
#[derive(Debug, Default)]
struct FrameFaults {
    offered: AtomicU64,
    dropped: AtomicU64,
    duplicated: AtomicU64,
    reordered: AtomicU64,
}

/// A point-in-time snapshot of a [`ChaosTransport`]'s injected faults
/// ([`ChaosTransport::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosStats {
    /// Frames offered to the transport (both directions).
    pub offered: u64,
    /// Frames eaten (probability drops + partition windows + blocked
    /// links).
    pub dropped: u64,
    /// Frames sent twice.
    pub duplicated: u64,
    /// Frames held back one send (adjacent swap).
    pub reordered: u64,
    /// Connections opened through the transport.
    pub links: usize,
}

/// Manual fault control over one connection: the chaos harness blocks a
/// link to partition a single client without touching the rest of the
/// fleet. Obtained from [`ChaosTransport::links`], in `pair()` call
/// order.
#[derive(Debug, Default)]
pub struct LinkChaos {
    blocked: AtomicBool,
}

impl LinkChaos {
    /// Partitions the link: both directions drop every frame.
    pub fn block(&self) {
        self.blocked.store(true, Ordering::SeqCst);
    }

    /// Heals the link.
    pub fn unblock(&self) {
        self.blocked.store(false, Ordering::SeqCst);
    }

    /// Whether the link is currently partitioned.
    pub fn is_blocked(&self) -> bool {
        self.blocked.load(Ordering::SeqCst)
    }
}

/// Per-lane mutable fault state: the seeded RNG and the at-most-one
/// frame held back for an adjacent-swap reorder.
#[derive(Debug)]
struct LaneState {
    rng: SimRng,
    held: Option<WireFrame>,
}

/// The sending half of one chaos-wrapped lane. Faults are injected on
/// the send side only — the inner receiver sees the perturbed stream —
/// so the wrapper composes with any inner transport, including TCP.
struct ChaosTx {
    inner: Box<dyn FrameTx>,
    drop_p: f64,
    dup_p: f64,
    reorder_p: f64,
    partitions: Arc<Vec<PartitionWindow>>,
    link: Arc<LinkChaos>,
    faults: Arc<FrameFaults>,
    lane: Mutex<LaneState>,
}

impl FrameTx for ChaosTx {
    fn send(&self, frame: WireFrame) -> Result<(), NetError> {
        let n = self.faults.offered.fetch_add(1, Ordering::SeqCst);
        let mut lane = self.lane.lock();
        if self.link.is_blocked() || self.partitions.iter().any(|w| n >= w.from && n < w.until) {
            // Partitioned: the frame (and anything held) never arrives.
            // Loss is invisible to the sender, like a real datagram.
            self.faults.dropped.fetch_add(1, Ordering::SeqCst);
            return Ok(());
        }
        if lane.rng.chance(self.drop_p) {
            self.faults.dropped.fetch_add(1, Ordering::SeqCst);
            return Ok(());
        }
        if lane.held.is_none() && lane.rng.chance(self.reorder_p) {
            // Hold this frame back; it rides out *after* the next send
            // on this lane — an adjacent swap, which is exactly the
            // reordering a multi-path network produces.
            lane.held = Some(frame);
            self.faults.reordered.fetch_add(1, Ordering::SeqCst);
            return Ok(());
        }
        let dup = lane.rng.chance(self.dup_p);
        self.inner.send(frame.clone())?;
        if dup {
            self.faults.duplicated.fetch_add(1, Ordering::SeqCst);
            self.inner.send(frame)?;
        }
        if let Some(held) = lane.held.take() {
            self.inner.send(held)?;
        }
        Ok(())
    }
}

impl Drop for ChaosTx {
    fn drop(&mut self) {
        // Flush a held frame so teardown handshakes on an otherwise
        // quiet lane are delayed, not lost forever.
        if let Some(held) = self.lane.lock().held.take() {
            let _ = self.inner.send(held);
        }
    }
}

/// A fault-injecting decorator over any [`Transport`]. Every connection
/// opened through it has *both* endpoints' send halves wrapped, so
/// client→server frames (Hello/Subscribe/Ack/Credit/Close) are
/// perturbed just like server→client batches. Fault decisions come
/// from seeded per-lane RNGs — the same [`ChaosPlan`] replays the same
/// perturbation.
pub struct ChaosTransport {
    inner: Arc<dyn Transport>,
    plan: ChaosPlan,
    partitions: Arc<Vec<PartitionWindow>>,
    faults: Arc<FrameFaults>,
    links: Mutex<Vec<Arc<LinkChaos>>>,
    lanes: AtomicU64,
}

impl ChaosTransport {
    /// Wraps `inner` under `plan`'s frame-fault schedule.
    pub fn new(inner: Arc<dyn Transport>, plan: ChaosPlan) -> Self {
        let partitions = Arc::new(plan.partitions.clone());
        ChaosTransport {
            inner,
            plan,
            partitions,
            faults: Arc::new(FrameFaults::default()),
            links: Mutex::new(Vec::new()),
            lanes: AtomicU64::new(0),
        }
    }

    /// The manual per-link controls, one per `pair()` call so far, in
    /// open order.
    pub fn links(&self) -> Vec<Arc<LinkChaos>> {
        self.links.lock().clone()
    }

    /// Injected-fault counters so far.
    pub fn stats(&self) -> ChaosStats {
        ChaosStats {
            offered: self.faults.offered.load(Ordering::SeqCst),
            dropped: self.faults.dropped.load(Ordering::SeqCst),
            duplicated: self.faults.duplicated.load(Ordering::SeqCst),
            reordered: self.faults.reordered.load(Ordering::SeqCst),
            links: self.links.lock().len(),
        }
    }

    fn wrap_tx(&self, inner: Box<dyn FrameTx>, link: Arc<LinkChaos>) -> Box<dyn FrameTx> {
        let lane = self.lanes.fetch_add(1, Ordering::SeqCst);
        Box::new(ChaosTx {
            inner,
            drop_p: self.plan.drop_p,
            dup_p: self.plan.dup_p,
            reorder_p: self.plan.reorder_p,
            partitions: self.partitions.clone(),
            link,
            faults: self.faults.clone(),
            lane: Mutex::new(LaneState {
                // Decorrelate lanes: each draws its own seeded stream.
                rng: SimRng::seed(self.plan.seed ^ (lane << 32) ^ lane),
                held: None,
            }),
        })
    }
}

impl Transport for ChaosTransport {
    fn pair(&self) -> (WireConn, WireConn) {
        let (client_end, server_end) = self.inner.pair();
        let link = Arc::new(LinkChaos::default());
        self.links.lock().push(link.clone());
        let client_end = WireConn {
            tx: self.wrap_tx(client_end.tx, link.clone()),
            rx: client_end.rx,
        };
        let server_end = WireConn {
            tx: self.wrap_tx(server_end.tx, link),
            rx: server_end.rx,
        };
        (client_end, server_end)
    }

    fn name(&self) -> &'static str {
        "chaos"
    }

    fn serializes(&self) -> bool {
        self.inner.serializes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::net::LoopbackTransport;

    fn burst(plan: &ChaosPlan, frames: u64) -> (Vec<u64>, ChaosStats) {
        let chaos = ChaosTransport::new(Arc::new(LoopbackTransport), plan.clone());
        let (client_end, server_end) = chaos.pair();
        for step in 0..frames {
            let _ = client_end.tx.send(WireFrame::Ack { client: 1, step });
        }
        drop(client_end);
        let mut rx = server_end.rx;
        let mut seen = Vec::new();
        while let Ok(frame) = rx.recv(Duration::from_millis(50)) {
            if let WireFrame::Ack { step, .. } = frame {
                seen.push(step);
            }
        }
        (seen, chaos.stats())
    }

    #[test]
    fn same_seed_replays_the_same_perturbation() {
        let plan = ChaosPlan::seeded(99)
            .with_drops(0.2)
            .with_duplicates(0.1)
            .with_reorders(0.1);
        let (a, sa) = burst(&plan, 200);
        let (b, sb) = burst(&plan, 200);
        assert_eq!(a, b, "same plan must replay the same stream");
        assert_eq!(sa, sb);
        assert!(sa.dropped > 0 && sa.duplicated > 0 && sa.reordered > 0);

        let (c, _) = burst(&ChaosPlan::seeded(100).with_drops(0.2), 200);
        assert_ne!(a, c, "a different seed must perturb differently");
    }

    #[test]
    fn quiet_plan_is_a_transparent_decorator() {
        let (seen, stats) = burst(&ChaosPlan::seeded(7), 50);
        assert_eq!(seen, (0..50).collect::<Vec<_>>());
        assert_eq!(stats.dropped + stats.duplicated + stats.reordered, 0);
        assert_eq!(stats.offered, 50);
    }

    #[test]
    fn partition_window_eats_exactly_its_range() {
        let (seen, stats) = burst(&ChaosPlan::seeded(7).partition(10, 20), 50);
        let expected: Vec<u64> = (0..50).filter(|s| !(10..20).contains(s)).collect();
        assert_eq!(seen, expected);
        assert_eq!(stats.dropped, 10);
    }

    #[test]
    fn blocked_link_partitions_both_directions() {
        let chaos = ChaosTransport::new(Arc::new(LoopbackTransport), ChaosPlan::seeded(1));
        let (client_end, server_end) = chaos.pair();
        let link = chaos.links()[0].clone();
        link.block();
        let _ = client_end.tx.send(WireFrame::Ack { client: 1, step: 0 });
        let _ = server_end.tx.send(WireFrame::Close { client: 1 });
        let mut srx = server_end.rx;
        let mut crx = client_end.rx;
        assert!(srx.recv(Duration::from_millis(20)).is_err());
        assert!(crx.recv(Duration::from_millis(20)).is_err());
        link.unblock();
        let _ = client_end.tx.send(WireFrame::Ack { client: 1, step: 1 });
        assert!(matches!(
            srx.recv(Duration::from_millis(200)),
            Ok(WireFrame::Ack { step: 1, .. })
        ));
        assert_eq!(chaos.stats().dropped, 2);
    }

    #[test]
    fn step_keyed_events_replay_from_the_plan() {
        let plan = ChaosPlan::seeded(3)
            .kill_client(5, 8)
            .crash_server(8)
            .stall_constructor(1, 12, Duration::from_millis(40));
        let at8: Vec<ChaosEvent> = plan.events_at(8).collect();
        assert_eq!(
            at8,
            vec![
                ChaosEvent::KillClient {
                    client: 5,
                    at_step: 8
                },
                ChaosEvent::CrashServer { at_step: 8 },
            ]
        );
        assert_eq!(plan.events_at(3).count(), 0);
        assert_eq!(plan.events_at(12).count(), 1);
    }
}
