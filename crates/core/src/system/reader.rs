//! Sharded event-driven reader plane for the serving side.
//!
//! The data server used to spawn one OS thread per accepted session
//! (`spawn_server_reader`), which makes idle fan-out cost linear in the
//! number of connected clients: 4k parked trainers meant 4k blocked
//! reader threads. This module replaces that model with a small fixed
//! pool of shard threads — sized by core count, independent of session
//! count — each multiplexing many session [`FrameRx`] halves through a
//! ready-list + parked-session registry:
//!
//! ```text
//!            register(session, rx)   (round-robin)
//!                      │
//!      ┌───────────────┼───────────────┐
//!      ▼               ▼               ▼
//!  ┌────────┐      ┌────────┐      ┌────────┐
//!  │ shard 0│      │ shard 1│  …   │ shard N│   N ≈ min(cores, 8)
//!  │ ready  │      │ ready  │      │ ready  │
//!  │ parked │      │ parked │      │ parked │
//!  └────────┘      └────────┘      └────────┘
//! ```
//!
//! A parked session costs one registry entry and nothing else: no
//! thread, no timer, no polling. When its transport delivers a frame it
//! fires the session's [`FrameWaker`], which flips a per-session
//! `queued` bit and pushes the session onto its shard's ready list. The
//! `queued` bit dedups storms (a burst of sends enqueues the session
//! once), and clearing it *before* the drain closes the lost-wakeup
//! race: a frame landing mid-drain either gets drained right there or
//! re-queues the session.
//!
//! Fairness: each visit drains at most `DRAIN_QUANTUM` frames, then
//! re-queues the session behind its shard-mates, so one firehose client
//! cannot starve the rest of its shard.
//!
//! An idle shard sleeps until a waker fires or the liveness
//! `HEARTBEAT` passes; it never polls a session no waker has queued.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, Weak};
use std::time::Duration;

use crate::system::net::{FrameRx, FrameWaker, TryRecv, WireFrame};

/// Max frames drained from one session per ready-list visit before it
/// is re-queued behind its shard-mates.
const DRAIN_QUANTUM: usize = 128;

/// Idle shards wake at least this often to re-check liveness, so a
/// plane whose server died with no traffic still winds down promptly.
const HEARTBEAT: Duration = Duration::from_millis(200);

/// What a shard observed on a session's receive half.
pub enum SessionEvent {
    /// A frame arrived.
    Frame(WireFrame),
    /// The peer hung up (or the stream went corrupt, which tears the
    /// connection down the same way). The session is dropped from the
    /// plane; the server's lease/redial machinery owns what happens
    /// next.
    Closed,
}

/// Per-event callback. Returns `false` when the consumer is gone
/// (server actor dead), which winds the whole plane down.
pub type SessionHandler = Arc<dyn Fn(u64, SessionEvent) -> bool + Send + Sync>;

/// Liveness probe checked on every heartbeat so idle shards exit once
/// the server they feed has stopped for good. It must not read false
/// while a supervised server is merely restarting: the plane never
/// respawns, so a shard that exits then is lost for every later session.
pub type AliveCheck = Arc<dyn Fn() -> bool + Send + Sync>;

struct SessionEntry {
    rx: Box<dyn FrameRx>,
    queued: Arc<AtomicBool>,
}

#[derive(Default)]
struct ShardState {
    ready: VecDeque<u64>,
    sessions: HashMap<u64, SessionEntry>,
    shutdown: bool,
}

struct Shard {
    state: Mutex<ShardState>,
    cv: Condvar,
}

/// Outcome of one ready-list visit to a session.
enum Visit {
    /// Drained to empty; park until the waker fires.
    Idle,
    /// Quantum exhausted with frames possibly remaining.
    More,
    /// Peer hung up or stream went corrupt.
    Gone,
    /// Handler reported the consumer dead: wind the shard down.
    PlaneDead,
}

impl Shard {
    /// The waker installed on every session routed to this shard: flip
    /// the session's `queued` bit and, on the false→true edge, push it
    /// onto the ready list. Holds a `Weak` back-reference — the shard
    /// owns the rx which owns the waker, so a strong `Arc` here would
    /// cycle and leak the whole plane.
    fn waker(self: &Arc<Self>, session: u64, queued: Arc<AtomicBool>) -> FrameWaker {
        let weak: Weak<Shard> = Arc::downgrade(self);
        Arc::new(move || {
            if queued.swap(true, Ordering::AcqRel) {
                return; // Already on the ready list: storm deduped.
            }
            if let Some(shard) = weak.upgrade() {
                let mut state = shard.state.lock().unwrap();
                state.ready.push_back(session);
                shard.cv.notify_one();
            }
        })
    }

    fn run(self: Arc<Self>, handler: SessionHandler, alive: AliveCheck) {
        let mut state = self.state.lock().unwrap();
        loop {
            if let Some(session) = state.ready.pop_front() {
                // Check the entry out of the registry so the drain runs
                // without holding the shard lock (wakers fired from
                // sender threads must not stall behind frame handling).
                let Some(mut entry) = state.sessions.remove(&session) else {
                    continue; // Departed (or duplicate visit) while queued.
                };
                // Clear `queued` BEFORE draining: a frame that lands
                // mid-drain either gets drained below or re-queues the
                // session through its waker. Clearing after the drain
                // would lose that wakeup.
                entry.queued.store(false, Ordering::Release);
                drop(state);

                // Assume the quantum runs dry mid-burst; every early
                // exit overwrites this.
                let mut outcome = Visit::More;
                for _ in 0..DRAIN_QUANTUM {
                    match entry.rx.try_recv() {
                        TryRecv::Frame(frame) => {
                            if !handler(session, SessionEvent::Frame(frame)) {
                                outcome = Visit::PlaneDead;
                                break;
                            }
                        }
                        TryRecv::Empty => {
                            outcome = Visit::Idle;
                            break;
                        }
                        TryRecv::Closed | TryRecv::Corrupt => {
                            outcome = Visit::Gone;
                            break;
                        }
                    }
                }

                match outcome {
                    Visit::Gone => {
                        // Entry dropped: the session leaves the plane.
                        if !handler(session, SessionEvent::Closed) {
                            return;
                        }
                        state = self.state.lock().unwrap();
                    }
                    Visit::PlaneDead => {
                        self.state.lock().unwrap().shutdown = true;
                        return;
                    }
                    Visit::Idle => {
                        state = self.state.lock().unwrap();
                        state.sessions.insert(session, entry);
                    }
                    Visit::More => {
                        state = self.state.lock().unwrap();
                        if !entry.queued.swap(true, Ordering::AcqRel) {
                            state.ready.push_back(session);
                        }
                        state.sessions.insert(session, entry);
                    }
                }
                continue;
            }

            if state.shutdown || !alive() {
                state.shutdown = true;
                return;
            }

            // Nothing ready: sleep until a waker or the liveness heartbeat.
            let (guard, _) = self.cv.wait_timeout(state, HEARTBEAT).unwrap();
            state = guard;
        }
    }
}

/// The fixed-size shard pool. One per server handle; sessions are
/// routed round-robin at registration and stay pinned to their shard
/// for life.
pub struct ReaderPlane {
    shards: Vec<Arc<Shard>>,
    next: AtomicUsize,
    /// OS thread-name prefix of this plane's shards, unique per plane
    /// (`msd/rdr<plane>`), so a soak test can count exactly this
    /// plane's threads from `/proc` even with other planes alive in
    /// the process.
    thread_prefix: String,
}

/// Monotone plane counter feeding [`ReaderPlane::thread_name_prefix`].
static PLANE_SEQ: AtomicUsize = AtomicUsize::new(0);

impl ReaderPlane {
    /// Spawns the shard threads. `handler` consumes frames and
    /// hangups; `alive` is the liveness probe that winds idle shards
    /// down once the server stops.
    pub fn new(handler: SessionHandler, alive: AliveCheck) -> Arc<Self> {
        let shard_count = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
            .clamp(2, 8);
        let thread_prefix = format!("msd/rdr{}", PLANE_SEQ.fetch_add(1, Ordering::Relaxed));
        let mut shards = Vec::with_capacity(shard_count);
        for idx in 0..shard_count {
            let shard = Arc::new(Shard {
                state: Mutex::new(ShardState::default()),
                cv: Condvar::new(),
            });
            shards.push(Arc::clone(&shard));
            let shard = Arc::clone(&shards[idx]);
            let handler = Arc::clone(&handler);
            let alive = Arc::clone(&alive);
            std::thread::Builder::new()
                .name(format!("{thread_prefix}-{idx}"))
                .spawn(move || shard.run(handler, alive))
                .expect("failed to spawn reader shard");
        }
        Arc::new(ReaderPlane {
            shards,
            next: AtomicUsize::new(0),
            thread_prefix,
        })
    }

    /// OS thread-name prefix of this plane's shard threads (unique per
    /// plane). Lets tests count the plane's threads from `/proc`.
    pub fn thread_name_prefix(&self) -> &str {
        &self.thread_prefix
    }

    /// Number of shard threads — fixed at construction, independent of
    /// how many sessions register. Asserted by the fan-out soak test.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Routes a session's receive half onto a shard and installs its
    /// waker.
    pub fn register(&self, session: u64, mut rx: Box<dyn FrameRx>) {
        let idx = self.next.fetch_add(1, Ordering::Relaxed) % self.shards.len();
        let shard = &self.shards[idx];
        let queued = Arc::new(AtomicBool::new(false));
        // Install the waker before the entry is in the registry — the
        // install fires it once (transport contract), and that firing
        // must not run inside the shard lock (it takes the same lock).
        // The early fire may push a ready id with no entry yet; the
        // shard skips unknown ids, so the unconditional enqueue below
        // is what guarantees pre-registration frames get drained.
        rx.set_waker(shard.waker(session, Arc::clone(&queued)));
        {
            let mut state = shard.state.lock().unwrap();
            state.sessions.insert(
                session,
                SessionEntry {
                    rx,
                    queued: Arc::clone(&queued),
                },
            );
            queued.store(true, Ordering::Release);
            state.ready.push_back(session);
        }
        shard.cv.notify_one();
    }
}
