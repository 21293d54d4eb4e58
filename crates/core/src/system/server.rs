//! The loader-side data server of the distributed serving plane.
//!
//! [`DataServer`] is the actor that turns a [`ThreadedPipeline`] serve
//! session into a network service: remote trainer clients dial in over a
//! [`Transport`], are mapped onto the device mesh via
//! [`msd_mesh::ClientPlaceTree`] (DP-rank → constructor bucket), and
//! stream their per-step batches under credit-based flow control.
//!
//! ## Protocol walk-through
//!
//! ```text
//! client                         server
//!   | -- Hello{client, rank} ----> |   bind session, place on the mesh
//!   | -- Subscribe{cursor, W} ---> |   window = [cursor, cursor + W)
//!   | <------- Batch{step} ------- |   pulled from the bucket constructor
//!   | -- Ack{step} --------------> |   trim retransmit buffer
//!   | -- Credit{1} --------------> |   slide the window forward
//!   | -- Frontier{consumed} -----> |   whole-progress claim; folds the
//!   |                              |   step frontier even if Acks were lost
//!   |            ...               |
//!   | -- Close{client} ----------> |   capability released
//! ```
//!
//! The server pulls a step from the client's constructor only while the
//! step is inside the granted window, and every `Ack`/`Frontier` folds
//! the client's consumed cursor into the session's frontier hub, so a
//! slow (or vanished) trainer rank freezes its own capability and the
//! serve driver's bounded-queue backpressure stalls the pipeline —
//! queues never balloon on behalf of a rank that is not consuming.
//!
//! ## Reconnect and resume
//!
//! Every batch stays in a per-client retransmit buffer until acked. A
//! client that loses its connection (or just a frame, under the chaos
//! transport) re-dials and re-`Subscribe`s from its consumed cursor; the
//! server rebinds the session, resends exactly the unacknowledged
//! window, and the client discards anything below its cursor — the
//! resumed stream is gap-free and duplicate-free by construction.
//!
//! ## Failure domains
//!
//! Resume alone degrades badly when a client dies *silently*: its
//! retransmit buffer and frontier capability would otherwise freeze
//! retirement forever, stalling every healthy client through the serve
//! driver's bounded-queue backpressure. [`ServerConfig`] closes those
//! gaps:
//!
//! - **Session leases** — any frame renews a client's lease; expiry
//!   evicts the session (buffer freed, capability released, GCS fault
//!   logged, eviction metric bumped). A late-returning client still
//!   resumes gap-free: its re-`Subscribe` re-acquires its capability at
//!   its cursor, and its constructor still queues every step at or
//!   above the frontier.
//! - **Admission control** — dials beyond
//!   [`ServerConfig::max_sessions`], or resumes whose retained
//!   retransmit bytes exceed [`ServerConfig::retransmit_cap_bytes`],
//!   are refused with a wire [`WireFrame::Reject`] instead of being
//!   stranded; rejected clients back off before retrying.
//! - **Client backoff** — [`RemoteClient`] redials under seeded
//!   exponential backoff with jitter ([`RedialBackoff`]) and a retry
//!   budget surfaced in [`ClientStats`], so a server restart sees a
//!   spread-out redial wave instead of a thundering herd.
//!
//! [`ThreadedPipeline`]: crate::system::runtime::ThreadedPipeline

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use msd_actor::actor::ReplyTo;
use msd_actor::{Actor, ActorRef, Ctx, Gcs, PendingReply};
use msd_mesh::Rank;
use msd_sim::SimRng;

use crate::constructor::ConstructedBatch;
use crate::system::frontier::{FrontierHub, Holder};
use crate::system::net::{
    BatchPayload, FrameTx, NetError, RejectReason, SharedBatch, Transport, WireConn, WireFrame,
};
use crate::system::reader::{AliveCheck, ReaderPlane, SessionEvent, SessionHandler};
use crate::system::runtime::ConstructorMsg;
use crate::system::tcp;

/// Where one remote client's trainer rank lives on the mesh (the input
/// to [`ThreadedPipeline::serve_distributed`]).
///
/// [`ThreadedPipeline::serve_distributed`]: crate::system::runtime::ThreadedPipeline::serve_distributed
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RemotePlacement {
    /// Deployment-wide client id (also its roster entry).
    pub client: u32,
    /// The trainer rank the client feeds.
    pub rank: Rank,
}

/// Robustness knobs of a [`DataServer`]: admission control, per-client
/// memory caps, and session leases (ROADMAP item 2). Threaded through
/// `ServeOptions::server`; the defaults are permissive enough that a
/// healthy deployment never trips them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerConfig {
    /// Maximum concurrently bound sessions. A dial that would bind a
    /// session beyond this is refused with
    /// [`WireFrame::Reject`]`{`[`RejectReason::SessionLimit`]`}`.
    pub max_sessions: usize,
    /// Per-client cap on retained retransmit bytes. The pump stops
    /// pulling new steps for a client at the cap (backpressure), and a
    /// resuming dial whose retained buffer already exceeds it is
    /// refused with
    /// [`WireFrame::Reject`]`{`[`RejectReason::RetransmitCap`]`}`.
    pub retransmit_cap_bytes: u64,
    /// Session lease: a subscribed, unfinished client whose last frame
    /// is older than this is evicted — its retransmit buffer is freed
    /// and its frontier capability released so the rest of the pipeline
    /// keeps flowing. `None` disables leases.
    pub lease: Option<Duration>,
    /// Server-wide cap on retained retransmit bytes, summed over every
    /// client. Enforced on each pump tick: while the aggregate gauge is
    /// over the cap, the most-retained *idle* client (no pending
    /// activity this tick) is shed — told with
    /// [`WireFrame::Reject`]`{`[`RejectReason::RetransmitCap`]`}` and
    /// then evicted through the lease machinery, so it resumes
    /// gap-free from its cursor once it redials under backoff. Bounds
    /// total server memory under massive fan-out the way
    /// [`ServerConfig::retransmit_cap_bytes`] bounds one client.
    pub aggregate_cap_bytes: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_sessions: 1024,
            retransmit_cap_bytes: 256 << 20,
            lease: Some(Duration::from_secs(30)),
            aggregate_cap_bytes: 32 << 30,
        }
    }
}

/// Messages understood by the data-server actor.
pub enum ServerMsg {
    /// A freshly dialed connection's server-side sender. The receiver
    /// half is drained by a reader thread that forwards decoded frames
    /// as [`ServerMsg::Frame`].
    Session {
        /// Connection identity (unique per dial).
        session: u64,
        /// The server → client frame sender.
        tx: Box<dyn FrameTx>,
    },
    /// One frame received on a live session.
    Frame {
        /// The session the frame arrived on.
        session: u64,
        /// The decoded frame.
        frame: WireFrame,
    },
    /// A session's reader observed the peer hang up.
    Gone {
        /// The dead session.
        session: u64,
    },
    /// Poll pending constructor pulls and push window-eligible batches
    /// (ticked by the pump thread).
    Pump,
    /// Report per-client serving state.
    Status(ReplyTo<ServerStatus>),
}

/// One client's row in a [`ServerStatus`] snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientServeStat {
    /// The client.
    pub client: u32,
    /// Whether a session is currently bound.
    pub connected: bool,
    /// Resume floor of the latest `Subscribe`.
    pub base: u64,
    /// Next step the server will pull from the constructor.
    pub next_pull: u64,
    /// Batches sent but not yet acknowledged (retransmit buffer size).
    pub unacked: usize,
    /// `Subscribe` frames seen after the first (reconnects + loss
    /// recoveries).
    pub resumes: u64,
    /// Whether the client's stream is finished (consumed or closed).
    pub done: bool,
    /// Times this client's session was evicted on lease expiry.
    pub evictions: u64,
    /// Retained retransmit bytes (what eviction would free).
    pub unacked_bytes: u64,
}

/// Point-in-time state of a [`DataServer`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServerStatus {
    /// Per-client serving state, sorted by client id.
    pub clients: Vec<ClientServeStat>,
    /// Frames received over all sessions.
    pub frames_rx: u64,
    /// Batch frames sent (including window resends).
    pub batches_tx: u64,
    /// Sessions evicted on lease expiry.
    pub evictions: u64,
    /// Dials refused with a wire `Reject`.
    pub rejections: u64,
    /// Aggregate retained retransmit bytes across every client (the
    /// sum [`ServerConfig::aggregate_cap_bytes`] bounds).
    pub retained_bytes: u64,
    /// Cumulative sessions visited by lease sweeps. Each pump tick only
    /// touches the expiry-wheel buckets that just came due, so this
    /// grows with expirations — not with `sessions × ticks` (the
    /// regression the wheel exists to prevent).
    pub sweep_visited: u64,
    /// Clients shed by aggregate-cap enforcement.
    pub shed_evictions: u64,
    /// Clients currently on the activity ring (what the next pump tick
    /// will touch).
    pub active: usize,
    /// The serve session's global step frontier: every step below this
    /// is provably consumed by every live capability holder.
    pub frontier: u64,
}

/// The in-flight constructor pull of one client.
type PendingPull = (u64, Instant, PendingReply<(u64, SharedBatch)>);

/// Binds `state` to `session` unless a *newer* session already owns the
/// client (ids are monotone per server). Returns whether `session` is
/// now (or already was) the bound one; a superseded session's sender is
/// dropped.
fn rebind(
    sessions: &mut HashMap<u64, Box<dyn FrameTx>>,
    bound: &mut usize,
    state: &mut ClientState,
    session: u64,
) -> bool {
    match state.session {
        Some(current) if current == session => true,
        Some(current) if current > session => false,
        current => {
            if let Some(old) = current {
                sessions.remove(&old);
            } else {
                *bound += 1;
            }
            state.session = Some(session);
            true
        }
    }
}

struct ClientState {
    rank: Rank,
    ctor: usize,
    session: Option<u64>,
    subscribed: bool,
    /// Resume floor: `from_step` of the latest `Subscribe`.
    base: u64,
    /// Absolute send limit: the server may pull/send steps `< high`.
    high: u64,
    /// Next step to pull from the constructor.
    next_pull: u64,
    pending: Option<PendingPull>,
    /// Sent-but-unacked batches, kept for window resends (the wire
    /// form memoizes inside `SharedBatch`, so resends serialize once).
    unacked: BTreeMap<u64, SharedBatch>,
    /// Payload bytes retained in `unacked` (the per-client memory the
    /// retransmit cap bounds).
    unacked_bytes: u64,
    /// Liveness lease: renewed by any frame from this client.
    last_seen: Instant,
    /// Latched by eviction so a client that stays silent is reaped
    /// exactly once per silence period; cleared by its next frame.
    reaped: bool,
    resumes: u64,
    evictions: u64,
    done: bool,
    /// Whether this client sits on the activity ring (dedup bit, so a
    /// burst of frames enqueues it once per pump tick).
    in_ring: bool,
    /// Whether this client sits in an expiry-wheel bucket (dedup bit;
    /// lease renewals re-bucket lazily at sweep time).
    in_wheel: bool,
}

/// Recomputes a client's retained retransmit bytes after its `unacked`
/// map was trimmed (maps stay credit-window small, so the walk is
/// cheap), keeping the server-wide aggregate `total` in step.
fn recount_unacked(total: &mut u64, state: &mut ClientState) {
    *total = total.saturating_sub(state.unacked_bytes);
    state.unacked_bytes = state.unacked.values().map(SharedBatch::payload_len).sum();
    *total += state.unacked_bytes;
}

/// The serving-plane server actor. See the module docs for the
/// protocol; construction happens inside
/// [`ThreadedPipeline::serve_distributed`].
///
/// [`ThreadedPipeline::serve_distributed`]: crate::system::runtime::ThreadedPipeline::serve_distributed
pub struct DataServer {
    constructors: Vec<ActorRef<ConstructorMsg>>,
    steps: u64,
    /// A parked pull older than this is assumed lost to a constructor
    /// restart and re-issued (re-pulls are idempotent).
    pull_retry: Duration,
    sessions: HashMap<u64, Box<dyn FrameTx>>,
    clients: HashMap<u32, ClientState>,
    config: ServerConfig,
    gcs: Gcs,
    /// The serve session's step-frontier fold. Every placed client holds
    /// a capability in it; `Subscribe`/`Ack`/`Frontier` frames advance
    /// the client's cursor, and [`DataServer::finish`] /
    /// [`DataServer::evict`] *release* the capability so a departed
    /// client can neither hold global retirement back nor falsely
    /// advance it.
    hub: Arc<FrontierHub>,
    frames_rx: u64,
    batches_tx: u64,
    evictions: u64,
    rejections: u64,
    /// Clients with recent inbound activity or in-flight pulls: the
    /// only clients a pump tick touches, so tick cost tracks *active*
    /// clients, not connected sessions.
    ring: VecDeque<u32>,
    /// Count of clients with a bound session (the admission-control
    /// denominator), maintained incrementally so admission is O(1).
    bound: usize,
    /// Aggregate retained retransmit bytes across every client.
    retained_bytes: u64,
    /// Lease expiry wheel: bucket index (deadline epoch-offset divided
    /// by [`DataServer::wheel_granularity`]) → clients whose lease
    /// deadline lands in that bucket. A sweep pops only the buckets
    /// that came due; renewed clients re-bucket lazily.
    wheel: BTreeMap<u64, Vec<u32>>,
    /// Wheel time origin (server start).
    epoch: Instant,
    /// Width of one wheel bucket (lease / 4, floored at 1 ms).
    wheel_granularity: Duration,
    /// Cumulative sessions visited by sweeps (regression-tested).
    sweep_visited: u64,
    /// Clients shed by aggregate-cap enforcement.
    shed_evictions: u64,
}

impl DataServer {
    /// Creates the server for one serve session. `placements` carries
    /// `(client, rank, constructor index)` triples — the mesh lookup
    /// happened in the caller, which owns the `ClientPlaceTree`.
    pub fn new(
        constructors: Vec<ActorRef<ConstructorMsg>>,
        placements: Vec<(u32, Rank, usize)>,
        steps: u64,
        pull_retry: Duration,
        config: ServerConfig,
        gcs: Gcs,
        hub: Arc<FrontierHub>,
    ) -> Self {
        let clients: HashMap<u32, ClientState> = placements
            .into_iter()
            .map(|(client, rank, ctor)| {
                (
                    client,
                    ClientState {
                        rank,
                        ctor,
                        session: None,
                        subscribed: false,
                        base: 0,
                        high: 0,
                        next_pull: 0,
                        pending: None,
                        unacked: BTreeMap::new(),
                        unacked_bytes: 0,
                        last_seen: Instant::now(),
                        reaped: false,
                        resumes: 0,
                        evictions: 0,
                        done: false,
                        in_ring: false,
                        in_wheel: false,
                    },
                )
            })
            .collect();
        let mut server = DataServer {
            constructors,
            steps,
            pull_retry,
            sessions: HashMap::new(),
            clients,
            config,
            gcs,
            hub,
            frames_rx: 0,
            batches_tx: 0,
            evictions: 0,
            rejections: 0,
            ring: VecDeque::new(),
            bound: 0,
            retained_bytes: 0,
            wheel: BTreeMap::new(),
            epoch: Instant::now(),
            wheel_granularity: config.lease.map_or(Duration::from_millis(1), |lease| {
                (lease / 4).max(Duration::from_millis(1))
            }),
            sweep_visited: 0,
            shed_evictions: 0,
        };
        // Every placed client pins a capability from step 0 (the serve
        // driver acquires the whole roster before it starts), so even one
        // that never dials must be lease-reaped: arm them all. The server
        // acquires nothing here: on a restart, a capability an earlier
        // incarnation released (Close, idle attach, eviction) must stay
        // released, and a live client's survives in the hub until its
        // re-`Subscribe` re-acquires it at its cursor.
        let placed: Vec<u32> = server.clients.keys().copied().collect();
        for client in placed {
            server.arm_lease(client);
        }
        server
    }

    /// The wheel bucket a lease deadline falls into.
    fn wheel_bucket(&self, deadline: Instant) -> u64 {
        (deadline.saturating_duration_since(self.epoch).as_nanos()
            / self.wheel_granularity.as_nanos().max(1)) as u64
    }

    /// Parks a client in the expiry-wheel bucket of its current lease
    /// deadline. No-op while it is already parked (renewals re-bucket
    /// lazily at sweep time), finished, or when leases are off.
    fn arm_lease(&mut self, client: u32) {
        let Some(lease) = self.config.lease else {
            return;
        };
        let Some(state) = self.clients.get_mut(&client) else {
            return;
        };
        if state.in_wheel || state.done {
            return;
        }
        state.in_wheel = true;
        let deadline = state.last_seen + lease;
        let bucket = self.wheel_bucket(deadline);
        self.wheel.entry(bucket).or_default().push(client);
    }

    /// Puts a client on the activity ring for the next pump tick
    /// (deduped via its `in_ring` bit).
    fn enqueue_ring(&mut self, client: u32) {
        let Some(state) = self.clients.get_mut(&client) else {
            return;
        };
        if state.in_ring || state.done {
            return;
        }
        state.in_ring = true;
        self.ring.push_back(client);
    }

    /// Sends one batch frame to a client's bound session; a send failure
    /// unbinds the session (the reader's `Gone` may still be in flight).
    fn send_batch(&mut self, client: u32, step: u64) {
        let Some(state) = self.clients.get(&client) else {
            return;
        };
        let (Some(session), Some(shared)) = (state.session, state.unacked.get(&step)) else {
            return;
        };
        let frame = WireFrame::Batch {
            client,
            step,
            payload: BatchPayload::Shared(shared.clone()),
        };
        let delivered = match self.sessions.get(&session) {
            Some(tx) => tx.send(frame).is_ok(),
            None => false,
        };
        if delivered {
            self.batches_tx += 1;
        } else {
            self.sessions.remove(&session);
            if let Some(state) = self.clients.get_mut(&client) {
                state.session = None;
            }
            self.bound = self.bound.saturating_sub(1);
        }
    }

    /// Marks a client's stream finished and *releases* its frontier
    /// capability, so the serve driver's backpressure and drain stop
    /// waiting on it — a finished client drops out of the global fold
    /// entirely rather than pinning it at (or pushing it to) any
    /// particular step.
    fn finish(&mut self, client: u32) {
        let Some(state) = self.clients.get_mut(&client) else {
            return;
        };
        if state.done {
            return;
        }
        state.done = true;
        state.pending = None;
        state.unacked.clear();
        self.retained_bytes = self.retained_bytes.saturating_sub(state.unacked_bytes);
        state.unacked_bytes = 0;
        self.hub.release(Holder::Client(client));
    }

    /// Evicts a client's session: frees its retransmit buffer, unbinds
    /// the session, and releases its frontier capability so retirement
    /// (and with it every healthy client) stops waiting on a client that
    /// went silent. Unlike [`DataServer::finish`] the stream is *not*
    /// marked done — a late-returning client re-`Subscribe`s from its
    /// cursor, re-acquiring its capability there, and re-pulls from a
    /// ready queue that still holds every step at or above the frontier.
    fn evict(&mut self, client: u32, reason: &str) {
        let Some(state) = self.clients.get_mut(&client) else {
            return;
        };
        let freed = state.unacked_bytes;
        let session = state.session.take();
        if let Some(session) = session {
            self.sessions.remove(&session);
            self.bound = self.bound.saturating_sub(1);
        }
        state.subscribed = false;
        state.pending = None;
        state.unacked.clear();
        state.unacked_bytes = 0;
        self.retained_bytes = self.retained_bytes.saturating_sub(freed);
        // The evicted window is gone; a re-subscribe must re-pull from
        // its cursor instead of resuming past the freed batches.
        state.next_pull = state.base;
        state.reaped = true;
        state.evictions += 1;
        let rank = state.rank;
        self.evictions += 1;
        crate::metrics::record_session_evicted();
        let session = session.map_or_else(|| "none".to_string(), |s| s.to_string());
        self.gcs.log_fault(
            "data-server",
            format!(
                "evicted client {client} (rank {rank}, session {session}): {reason}; \
                 freed {freed} retransmit bytes"
            ),
        );
        // Release — never advance — the frontier capability: the evicted
        // client must not hold global retirement back at its stale
        // cursor, and it must not falsely advance retirement either (its
        // capability simply leaves the fold; the frontier moves only if
        // every *live* holder is already past it). A late return
        // re-`Subscribe`s, which re-acquires at its cursor, clamped at
        // the frontier.
        self.hub.release(Holder::Client(client));
    }

    /// Admission check for a dial binding a *new* session. Returns the
    /// refusal reason, or `None` to admit. Rebinds of a client's own
    /// live session never grow the session count and are always
    /// admitted.
    fn admission_refusal(&self, client: u32, session: u64) -> Option<RejectReason> {
        let state = self.clients.get(&client)?;
        match state.session {
            Some(current) if current >= session => None, // Rebind/stale: not a new binding.
            Some(_) => {
                // Replacing its own older session: no count growth.
                (state.unacked_bytes > self.config.retransmit_cap_bytes)
                    .then_some(RejectReason::RetransmitCap)
            }
            None => {
                if self.bound >= self.config.max_sessions {
                    Some(RejectReason::SessionLimit)
                } else if state.unacked_bytes > self.config.retransmit_cap_bytes {
                    Some(RejectReason::RetransmitCap)
                } else {
                    None
                }
            }
        }
    }

    /// Refuses a dial: sends `Reject` on the dialing session, drops the
    /// session, and leaves a post-mortem trail (GCS fault log entry
    /// with session id, rank, and reason; rejection metric).
    fn reject(&mut self, client: u32, session: u64, reason: RejectReason) {
        if let Some(tx) = self.sessions.remove(&session) {
            let _ = tx.send(WireFrame::Reject { client, reason });
        }
        self.rejections += 1;
        crate::metrics::record_dial_rejected();
        let rank = self
            .clients
            .get(&client)
            .map_or_else(|| "unplaced".to_string(), |s| s.rank.to_string());
        self.gcs.log_fault(
            "data-server",
            format!("rejected client {client} (rank {rank}, session {session}): {reason}"),
        );
    }

    fn handle_frame(&mut self, session: u64, frame: WireFrame) {
        self.frames_rx += 1;
        let client = frame.client();
        // Any frame from a placed client renews its liveness lease. If
        // the client left the wheel (evicted, then returned), re-arm;
        // while it is still parked the renewal re-buckets lazily at
        // sweep time.
        if let Some(state) = self.clients.get_mut(&client) {
            state.last_seen = Instant::now();
            state.reaped = false;
        }
        self.arm_lease(client);
        // Inbound activity can unblock the pump (new window, trimmed
        // buffer, fresh subscription): put the client on the ring.
        self.enqueue_ring(client);
        match frame {
            WireFrame::Hello { rank, .. } => {
                let Some(state) = self.clients.get(&client) else {
                    self.gcs.log_fault(
                        "data-server",
                        format!("unplaced client {client} dialed in; closing its session"),
                    );
                    if let Some(tx) = self.sessions.remove(&session) {
                        let _ = tx.send(WireFrame::Close { client });
                    }
                    return;
                };
                if rank != state.rank {
                    self.gcs.log_fault(
                        "data-server",
                        format!(
                            "client {client} dialed with rank {rank}, placed at rank {}; \
                             keeping the placement",
                            state.rank
                        ),
                    );
                }
                if !self.sessions.contains_key(&session) {
                    // A session evicted mid-flight has no sender left;
                    // binding it would wedge the client on a connection
                    // the server can never answer. Stay quiet — the
                    // client times out, tears down, and redials fresh.
                    return;
                }
                if let Some(reason) = self.admission_refusal(client, session) {
                    self.reject(client, session, reason);
                    return;
                }
                let state = self.clients.get_mut(&client).expect("placed above");
                rebind(&mut self.sessions, &mut self.bound, state, session);
            }
            WireFrame::Subscribe {
                from_step, credits, ..
            } => {
                if !self.clients.contains_key(&client) {
                    return;
                }
                if !self.sessions.contains_key(&session) {
                    return; // Evicted mid-flight; see the Hello guard.
                }
                // A Subscribe binds too: on a lossy transport the Hello
                // may simply never have arrived, and ignoring the
                // Subscribe would strand the client on an unbound
                // session. Session ids are monotone, so a delayed frame
                // from a pre-reconnect session can never rebind
                // backwards.
                if let Some(reason) = self.admission_refusal(client, session) {
                    self.reject(client, session, reason);
                    return;
                }
                let state = self.clients.get_mut(&client).expect("placed above");
                if !rebind(&mut self.sessions, &mut self.bound, state, session) {
                    return; // Stale session; the client re-dialed since.
                }
                if state.subscribed {
                    state.resumes += 1;
                }
                state.subscribed = true;
                // The cursor is also a frontier capability claim:
                // re-acquire at the resume point (the hub clamps at the
                // global frontier and never rewinds a live holder).
                self.hub.acquire(Holder::Client(client), from_step);
                // Everything below the client's cursor is consumed.
                state.base = from_step;
                state.unacked.retain(|step, _| *step >= from_step);
                recount_unacked(&mut self.retained_bytes, state);
                state.high = from_step.saturating_add(u64::from(credits));
                state.next_pull = state.next_pull.max(from_step);
                // Resend the unacknowledged window (idempotent on the
                // client, which discards steps below its cursor).
                let resend: Vec<u64> = state
                    .unacked
                    .range(from_step..state.high.min(self.steps))
                    .map(|(step, _)| *step)
                    .collect();
                for step in resend {
                    self.send_batch(client, step);
                }
                // A subscribe at (or past) the end of the stream is an
                // idle attach: the client wants a bound session but no
                // batches. Finish it immediately so its capability
                // releases and retirement never waits on a parked
                // spectator — the session itself stays bound.
                if from_step >= self.steps {
                    self.finish(client);
                }
            }
            WireFrame::Ack { step, .. } => {
                if let Some(state) = self.clients.get_mut(&client) {
                    // Clients consume strictly in order, so an Ack for
                    // `step` implies everything below it was consumed
                    // too — trim cumulatively, or a single lost Ack
                    // would pin its batch in the buffer forever (a
                    // smoothly consuming client never re-subscribes).
                    state.unacked.retain(|s, _| *s > step);
                    recount_unacked(&mut self.retained_bytes, state);
                    // The cumulative Ack is also a consumed-frontier
                    // report: everything through `step` is consumed.
                    self.hub
                        .advance(Holder::Client(client), step.saturating_add(1));
                    if state.next_pull >= self.steps
                        && state.unacked.is_empty()
                        && state.pending.is_none()
                    {
                        self.finish(client);
                    }
                }
            }
            WireFrame::Credit { grant, .. } => {
                if let Some(state) = self.clients.get_mut(&client) {
                    state.high = state.high.saturating_add(u64::from(grant));
                }
            }
            WireFrame::Close { .. } => {
                self.finish(client);
                // Echo the Close so the client's teardown handshake can
                // terminate even on a lossy transport (it retries Close
                // until the echo lands). The session stays bound — the
                // client drops it, which surfaces here as `Gone`.
                if let Some(state) = self.clients.get(&client) {
                    if let Some(session) = state.session {
                        if let Some(tx) = self.sessions.get(&session) {
                            let _ = tx.send(WireFrame::Close { client });
                        }
                    }
                }
            }
            WireFrame::Frontier { consumed, .. } => {
                if let Some(state) = self.clients.get_mut(&client) {
                    // An explicit whole-progress claim: every step below
                    // `consumed` was delivered, even if the individual
                    // Acks were lost on the wire. Trim the retransmit
                    // buffer below it and fold the client's capability
                    // forward (the hub drops stale/regressive reports).
                    state.unacked.retain(|s, _| *s >= consumed);
                    recount_unacked(&mut self.retained_bytes, state);
                    self.hub.advance(Holder::Client(client), consumed);
                    if state.next_pull >= self.steps
                        && state.unacked.is_empty()
                        && state.pending.is_none()
                    {
                        self.finish(client);
                    }
                }
            }
            WireFrame::Batch { .. } | WireFrame::Reject { .. } => {
                // Clients never send batches or rejections; ignore.
            }
        }
    }

    /// Drives one client forward: resolve its parked pull, issue the
    /// next one while the credit window allows, send what completed.
    fn pump_client(&mut self, client: u32) {
        loop {
            let Some(state) = self.clients.get_mut(&client) else {
                return;
            };
            if state.done || !state.subscribed {
                return;
            }
            // Resolve the in-flight pull, if any.
            if let Some((step, issued, reply)) = state.pending.take() {
                match reply.try_wait() {
                    Ok((got, shared)) => {
                        debug_assert_eq!(got, step);
                        // The constructor hands every bucket-mate the
                        // same wrapper, so the memoized wire encoding is
                        // shared (and, on serializing transports,
                        // already warmed at construct time).
                        let retained = shared.payload_len();
                        state.unacked_bytes += retained;
                        state.unacked.insert(step, shared);
                        self.retained_bytes += retained;
                        self.send_batch(client, step);
                        continue; // A send may open room for the next pull.
                    }
                    Err(reply) => {
                        if issued.elapsed() > self.pull_retry {
                            // The constructor likely restarted and lost
                            // the parked reply; re-issue (idempotent).
                            let ctor = &self.constructors[state.ctor];
                            match ctor.ask_pipelined(move |tx| ConstructorMsg::Pull {
                                client,
                                step,
                                reply: tx,
                            }) {
                                Ok(p) => state.pending = Some((step, Instant::now(), p)),
                                Err(_) => state.pending = None, // Retry next pump.
                            }
                        } else {
                            state.pending = Some((step, issued, reply));
                        }
                        return;
                    }
                }
            }
            // Issue the next pull while inside the granted window and
            // under the retransmit-byte cap (at the cap the client must
            // ack something before the buffer may grow — backpressure,
            // not rejection, for an admitted session).
            if state.next_pull < self.steps
                && state.next_pull < state.high
                && state.unacked_bytes < self.config.retransmit_cap_bytes
            {
                let step = state.next_pull;
                let ctor = &self.constructors[state.ctor];
                match ctor.ask_pipelined(move |tx| ConstructorMsg::Pull {
                    client,
                    step,
                    reply: tx,
                }) {
                    Ok(p) => {
                        state.pending = Some((step, Instant::now(), p));
                        state.next_pull = step + 1;
                    }
                    Err(_) => return, // Constructor mid-restart.
                }
                continue;
            }
            return;
        }
    }

    fn status(&self) -> ServerStatus {
        let mut clients: Vec<ClientServeStat> = self
            .clients
            .iter()
            .map(|(client, s)| ClientServeStat {
                client: *client,
                connected: s.session.is_some(),
                base: s.base,
                next_pull: s.next_pull,
                unacked: s.unacked.len(),
                resumes: s.resumes,
                done: s.done,
                evictions: s.evictions,
                unacked_bytes: s.unacked_bytes,
            })
            .collect();
        clients.sort_by_key(|c| c.client);
        debug_assert_eq!(
            self.bound,
            clients.iter().filter(|c| c.connected).count(),
            "incremental bound-session counter drifted"
        );
        debug_assert_eq!(
            self.retained_bytes,
            clients.iter().map(|c| c.unacked_bytes).sum::<u64>(),
            "aggregate retained-byte gauge drifted"
        );
        ServerStatus {
            clients,
            frames_rx: self.frames_rx,
            batches_tx: self.batches_tx,
            evictions: self.evictions,
            rejections: self.rejections,
            retained_bytes: self.retained_bytes,
            sweep_visited: self.sweep_visited,
            shed_evictions: self.shed_evictions,
            active: self.ring.len(),
            frontier: self.hub.frontier(),
        }
    }

    /// Lease sweep, run on every pump tick: evict unfinished clients
    /// that have gone silent past the lease. Subscribed or not: even a
    /// client that never dialed (or whose session died with a server
    /// restart) pins its frontier capability, so silence past the lease
    /// always reaps it — which is why every placed client is armed at
    /// construction.
    ///
    /// Cost: only the expiry-wheel buckets at or before the current
    /// tick are popped, so a tick with nothing due touches zero
    /// sessions no matter how many are connected. A client whose lease
    /// was renewed after bucketing is simply re-bucketed at its real
    /// deadline (lazy re-bucket: renewals never touch the wheel).
    fn sweep_leases(&mut self) {
        let Some(lease) = self.config.lease else {
            return;
        };
        let now = Instant::now();
        let due = self.wheel_bucket(now);
        // Snapshot the due bucket keys first: a client renewed into the
        // still-current bucket re-inserts under a popped key, and
        // re-scanning the live map would revisit it in the same tick.
        let due_buckets: Vec<u64> = self
            .wheel
            .range(..=due)
            .map(|(bucket, _)| *bucket)
            .collect();
        for bucket in due_buckets {
            let members = self.wheel.remove(&bucket).unwrap_or_default();
            for client in members {
                self.sweep_visited += 1;
                let Some(state) = self.clients.get_mut(&client) else {
                    continue;
                };
                state.in_wheel = false;
                if state.done {
                    continue; // Finished while parked; leave the wheel.
                }
                let deadline = state.last_seen + lease;
                if state.reaped {
                    // Already evicted this silence period (latch): stay
                    // out of the wheel until its next frame re-arms it.
                    continue;
                }
                if deadline <= now {
                    self.evict(
                        client,
                        &format!("lease expired after {lease:?} without a frame"),
                    );
                } else {
                    // Renewed since it was bucketed: park it again at
                    // its real deadline.
                    self.arm_lease(client);
                }
            }
        }
    }

    /// Aggregate-cap enforcement, run after each pump tick: while the
    /// server-wide retained-byte gauge exceeds
    /// [`ServerConfig::aggregate_cap_bytes`], shed the most-retained
    /// client — preferring one that is *idle* (not on the activity
    /// ring), since an active client is still draining its buffer. The
    /// victim is told with a wire `Reject{RetransmitCap}` before the
    /// eviction so it backs off hard (like an admission refusal) and
    /// then resumes gap-free from its cursor through the lease path.
    fn enforce_aggregate_cap(&mut self) {
        while self.retained_bytes > self.config.aggregate_cap_bytes {
            let victim = self
                .clients
                .iter()
                .filter(|(_, s)| !s.done && s.unacked_bytes > 0)
                .max_by_key(|(_, s)| (!s.in_ring, s.unacked_bytes))
                .map(|(client, _)| *client);
            let Some(client) = victim else {
                return; // Nothing sheddable holds bytes; give up.
            };
            if let Some(state) = self.clients.get(&client) {
                if let Some(session) = state.session {
                    if let Some(tx) = self.sessions.get(&session) {
                        let _ = tx.send(WireFrame::Reject {
                            client,
                            reason: RejectReason::RetransmitCap,
                        });
                    }
                }
            }
            self.shed_evictions += 1;
            self.evict(
                client,
                "aggregate retransmit cap exceeded; shed most-retained idle client",
            );
        }
    }
}

impl Actor for DataServer {
    type Msg = ServerMsg;

    fn handle(&mut self, msg: ServerMsg, _ctx: &mut Ctx) {
        match msg {
            ServerMsg::Session { session, tx } => {
                self.sessions.insert(session, tx);
            }
            ServerMsg::Frame { session, frame } => self.handle_frame(session, frame),
            ServerMsg::Gone { session } => {
                self.sessions.remove(&session);
                for state in self.clients.values_mut() {
                    if state.session == Some(session) {
                        state.session = None;
                        self.bound = self.bound.saturating_sub(1);
                    }
                }
            }
            ServerMsg::Pump => {
                // A tick costs O(due lease buckets + active clients):
                // parked sessions are invisible to it, which is what
                // keeps per-idle-client cost flat (`tests/many_clients.rs`
                // pins idle sessions off the ring and out of the sweep).
                let tick_start = Instant::now();
                self.sweep_leases();
                let rounds = self.ring.len();
                for _ in 0..rounds {
                    let Some(client) = self.ring.pop_front() else {
                        break;
                    };
                    if let Some(state) = self.clients.get_mut(&client) {
                        state.in_ring = false;
                    }
                    self.pump_client(client);
                    // Stay on the ring while work is still in flight: a
                    // parked pull needs a future tick to resolve, and an
                    // open window with no pull pending means the issue
                    // failed (constructor mid-restart) and must retry.
                    let again = self.clients.get(&client).is_some_and(|s| {
                        !s.done
                            && s.subscribed
                            && (s.pending.is_some()
                                || (s.next_pull < self.steps.min(s.high)
                                    && s.unacked_bytes < self.config.retransmit_cap_bytes))
                    });
                    if again {
                        self.enqueue_ring(client);
                    }
                }
                self.enforce_aggregate_cap();
                crate::metrics::set_retained_retransmit_bytes(self.retained_bytes);
                crate::metrics::record_stage(crate::metrics::Stage::Pump, tick_start.elapsed());
            }
            ServerMsg::Status(reply) => {
                reply.send(self.status());
            }
        }
    }
}

/// A handle to a live [`DataServer`]: dial new client connections and
/// inspect serving state. Cheap to clone; dropping it does not stop the
/// server (the owning [`ThreadedPipeline`] does, at shutdown).
///
/// [`ThreadedPipeline`]: crate::system::runtime::ThreadedPipeline
#[derive(Clone)]
pub struct DataServerHandle {
    actor: ActorRef<ServerMsg>,
    transport: Arc<dyn Transport>,
    placements: Arc<HashMap<u32, Rank>>,
    next_session: Arc<AtomicU64>,
    steps: u64,
    pull_timeout: Duration,
    credits: u32,
    /// The sharded reader plane every accepted session's receive half
    /// registers with — a fixed thread pool, regardless of how many
    /// sessions connect.
    plane: Arc<ReaderPlane>,
}

impl DataServerHandle {
    pub(crate) fn new(
        actor: ActorRef<ServerMsg>,
        transport: Arc<dyn Transport>,
        placements: Arc<HashMap<u32, Rank>>,
        steps: u64,
        pull_timeout: Duration,
        credits: u32,
    ) -> Self {
        let events = actor.clone();
        let handler: SessionHandler = Arc::new(move |session, event| match event {
            SessionEvent::Frame(frame) => events.tell(ServerMsg::Frame { session, frame }),
            // `tell` is the authoritative liveness signal: it fails only
            // when the mailbox receiver is gone (clean stop or restart
            // budget exhausted). `is_alive()` flips false transiently
            // mid-restart, so consulting it here could wind the plane
            // down during a supervised crash the server survives.
            SessionEvent::Closed => events.tell(ServerMsg::Gone { session }),
        });
        let probe = actor.clone();
        let alive: AliveCheck = Arc::new(move || probe.is_alive());
        DataServerHandle {
            actor,
            transport,
            placements,
            next_session: Arc::new(AtomicU64::new(1)),
            steps,
            pull_timeout,
            credits,
            plane: ReaderPlane::new(handler, alive),
        }
    }

    /// Number of reader threads multiplexing this server's sessions
    /// (fixed at startup; the fan-out soak asserts it never grows with
    /// session count).
    pub fn reader_threads(&self) -> usize {
        self.plane.shard_count()
    }

    /// OS thread-name prefix of this server's reader shards, unique
    /// per plane — a soak test counts exactly these threads in
    /// `/proc/self/task` to prove the pool never grows with sessions.
    pub fn reader_thread_prefix(&self) -> &str {
        self.plane.thread_name_prefix()
    }

    /// The transport connections ride on.
    pub fn transport(&self) -> &Arc<dyn Transport> {
        &self.transport
    }

    /// Current per-client serving state.
    pub fn status(&self) -> Option<ServerStatus> {
        self.actor
            .ask(ServerMsg::Status, Duration::from_secs(5))
            .ok()
    }

    /// Chaos hook: panics the server actor. Its supervisor restarts it
    /// with fresh, empty session state; clients quiet-timeout on their
    /// orphaned sessions, redial under backoff, and resume from their
    /// cursors.
    pub fn inject_server_crash(&self, reason: &str) {
        self.actor.inject_crash(reason);
    }

    /// Connects a placed client and returns its pulling handle. The
    /// connection is dialed lazily on the first
    /// [`RemoteClient::next`] call.
    ///
    /// # Panics
    ///
    /// Panics if `client` was not in the serve session's placements.
    pub fn connect(&self, client: u32) -> RemoteClient {
        let rank = *self
            .placements
            .get(&client)
            .unwrap_or_else(|| panic!("client {client} is not placed in this serve session"));
        RemoteClient {
            id: client,
            rank,
            dialer: Box::new(HandleDialer(self.clone())),
            conn: None,
            ever_connected: false,
            next_step: 0,
            steps: self.steps,
            credits: self.credits.max(1),
            pull_timeout: self.pull_timeout,
            backoff: default_backoff(client),
            stats: ClientStats {
                retry_budget: DEFAULT_RETRY_BUDGET,
                ..ClientStats::default()
            },
            closed: false,
        }
    }

    /// Opens one transport connection, registers its server end with the
    /// actor, and routes its receive half onto the reader plane.
    fn dial(&self) -> WireConn {
        let (client_end, server_end) = self.transport.pair();
        self.register(server_end);
        client_end
    }

    /// Opens a raw wire connection to this server — no [`RemoteClient`]
    /// state machine on top. For harnesses (the fan-out soak and bench)
    /// that speak the protocol directly, e.g. a fleet of idle sessions
    /// that only ever send `Hello` + `Subscribe{from_step: steps}`.
    pub fn dial_raw(&self) -> WireConn {
        self.dial()
    }

    /// Registers the server end of an established connection: assigns a
    /// session id, hands the sender to the actor, and parks the
    /// receive half on the sharded reader plane. The TCP accept loop
    /// and the in-process `dial` path both funnel through here.
    fn register(&self, server_end: WireConn) -> u64 {
        let session = self.next_session.fetch_add(1, Ordering::SeqCst);
        let (tx, rx) = server_end.split();
        self.actor.tell(ServerMsg::Session { session, tx });
        self.plane.register(session, rx);
        session
    }

    /// Serves this session's wire protocol on a real TCP listener so
    /// clients in *other OS processes* can dial in with
    /// [`RemoteClient::over_tcp`]. Returns the bound address (pass
    /// port 0 to let the OS pick). The accept loop runs until the
    /// server actor stops at session shutdown.
    pub fn serve_tcp<A: ToSocketAddrs>(&self, addr: A) -> io::Result<SocketAddr> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let handle = self.clone();
        std::thread::Builder::new()
            .name("msd/tcp-accept".into())
            .spawn(move || {
                // Exponential idle backoff: an accept resets it and
                // re-polls immediately (a dial burst is drained with no
                // added latency); a quiet listener winds down to the
                // cap instead of burning a fixed-period poll forever.
                const IDLE_MIN: Duration = Duration::from_millis(1);
                const IDLE_MAX: Duration = Duration::from_millis(100);
                let mut idle_wait = IDLE_MIN;
                loop {
                    match listener.accept() {
                        Ok((stream, _peer)) => {
                            idle_wait = IDLE_MIN;
                            // Accepted sockets inherit non-blocking on some
                            // platforms; the frame threads want blocking IO.
                            let conn = stream
                                .set_nonblocking(false)
                                .and_then(|()| tcp::wire_conn(stream));
                            let Ok(conn) = conn else { continue };
                            if !handle.actor.is_alive() {
                                return;
                            }
                            handle.register(conn);
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                            if !handle.actor.is_alive() {
                                return; // Session shut down; stop accepting.
                            }
                            std::thread::sleep(idle_wait);
                            idle_wait = (idle_wait * 2).min(IDLE_MAX);
                        }
                        Err(_) => {
                            std::thread::sleep(idle_wait);
                            idle_wait = (idle_wait * 2).min(IDLE_MAX);
                        }
                    }
                }
            })?;
        Ok(local)
    }
}

/// How a [`RemoteClient`] opens (and re-opens) its connection: through
/// the in-process [`DataServerHandle`] or by dialing a TCP address in
/// another process. Redial-on-failure lives in the client; a dialer
/// just produces connections.
trait Dial: Send {
    /// Attempts one connection; `None` means the server is currently
    /// unreachable (the client retries with backoff).
    fn dial(&self) -> Option<WireConn>;
}

/// Dials through the serve session's own [`Transport`] factory.
struct HandleDialer(DataServerHandle);

impl Dial for HandleDialer {
    fn dial(&self) -> Option<WireConn> {
        Some(self.0.dial())
    }
}

/// Dials a [`DataServerHandle::serve_tcp`] listener, typically from a
/// different OS process.
struct TcpDialer(SocketAddr);

impl Dial for TcpDialer {
    fn dial(&self) -> Option<WireConn> {
        tcp::connect(self.0).ok()
    }
}

/// Seeded exponential backoff with jitter for [`RemoteClient`] redials.
///
/// The delay envelope doubles from `base` up to `cap`; each actual
/// delay is drawn uniformly from the envelope's upper half (equal
/// jitter), so a fleet of rejected or disconnected clients spreads its
/// redial wave out instead of thundering back in lockstep. The RNG is
/// seeded, so a given `(seed, attempt)` sequence replays exactly —
/// tests pin the schedule.
#[derive(Debug)]
pub struct RedialBackoff {
    rng: SimRng,
    base: Duration,
    cap: Duration,
    attempt: u32,
}

impl RedialBackoff {
    /// Creates a policy with the given seed and delay envelope.
    pub fn new(seed: u64, base: Duration, cap: Duration) -> Self {
        RedialBackoff {
            rng: SimRng::seed(seed),
            base: base.max(Duration::from_micros(1)),
            cap: cap.max(base),
            attempt: 0,
        }
    }

    /// The next delay to sleep before redialing; advances the attempt
    /// counter (and with it the envelope).
    pub fn next_delay(&mut self) -> Duration {
        let base_ns = self.base.as_nanos() as u64;
        let cap_ns = self.cap.as_nanos() as u64;
        let ceil = base_ns
            .saturating_mul(1u64 << self.attempt.min(32))
            .min(cap_ns);
        self.attempt = self.attempt.saturating_add(1);
        let half = ceil / 2;
        let jitter = (self.rng.f64() * half as f64) as u64;
        Duration::from_nanos(half + jitter)
    }

    /// Escalates as if extra attempts already failed (applied on an
    /// admission `Reject`, so refused clients back off harder than
    /// merely unlucky ones).
    pub fn penalize(&mut self) {
        self.attempt = self.attempt.saturating_add(2);
    }

    /// Resets the envelope after a healthy exchange.
    pub fn reset(&mut self) {
        self.attempt = 0;
    }
}

/// Redial and backoff counters of a [`RemoteClient`]
/// ([`RemoteClient::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientStats {
    /// Connections dialed beyond the first.
    pub reconnects: u64,
    /// Backoff sleeps taken before redials.
    pub backoffs: u64,
    /// Total time spent in backoff sleeps.
    pub backoff_total: Duration,
    /// Admission `Reject` frames received.
    pub rejections: u64,
    /// Remaining redial budget; at 0 the client gives up and
    /// [`RemoteClient::next`] returns `None`.
    pub retry_budget: u32,
}

/// Default per-client redial budget: generous enough to ride out a full
/// server crash-restart under backoff, finite so a permanently dead
/// server cannot spin a client forever.
const DEFAULT_RETRY_BUDGET: u32 = 256;

/// How often (in consumed steps) a [`RemoteClient`] sends an explicit
/// [`WireFrame::Frontier`] whole-progress announcement on top of its
/// per-batch Acks. Acks are cumulative, so the announcement only
/// matters when Acks are being lost — a low-rate heartbeat is enough to
/// keep the server's fold (and with it plan-log retirement) moving on a
/// lossy transport.
const FRONTIER_ANNOUNCE_EVERY: u64 = 16;

/// A remote trainer client of a distributed serve session. The
/// network-facing sibling of [`ServeClient`]: pulls are strictly
/// ordered, the client carries its own consumed cursor, and a lost
/// connection (or lost frames, on a lossy transport) is survived by
/// re-dialing and re-subscribing from that cursor — under the seeded
/// exponential backoff of [`RedialBackoff`], with the retry budget and
/// backoff counters surfaced in [`ClientStats`].
///
/// [`ServeClient`]: crate::system::runtime::ServeClient
pub struct RemoteClient {
    /// Client id (also its roster entry on the serve driver).
    pub id: u32,
    rank: Rank,
    dialer: Box<dyn Dial>,
    conn: Option<WireConn>,
    ever_connected: bool,
    next_step: u64,
    steps: u64,
    credits: u32,
    pull_timeout: Duration,
    backoff: RedialBackoff,
    stats: ClientStats,
    closed: bool,
}

/// Per-client backoff seed: a fixed odd constant XOR the client id, so
/// every client in a fleet jitters on its own deterministic schedule.
fn client_backoff_seed(client: u32) -> u64 {
    0x9E37_79B9_7F4A_7C15 ^ u64::from(client)
}

/// Default redial backoff envelope: fast first retry, quarter-second
/// ceiling.
fn default_backoff(client: u32) -> RedialBackoff {
    RedialBackoff::new(
        client_backoff_seed(client),
        Duration::from_millis(2),
        Duration::from_millis(250),
    )
}

impl RemoteClient {
    /// Connects to a serve session listening at `addr` (see
    /// [`DataServerHandle::serve_tcp`]) — the cross-process sibling of
    /// [`DataServerHandle::connect`]. The caller supplies what the
    /// in-process path reads off the handle: its placed rank, the
    /// session's step count, the per-pull timeout, and the initial
    /// credit window. The connection is dialed lazily on the first
    /// [`RemoteClient::next`] call and redialed as needed.
    pub fn over_tcp(
        addr: SocketAddr,
        client: u32,
        rank: Rank,
        steps: u64,
        pull_timeout: Duration,
        credits: u32,
    ) -> RemoteClient {
        RemoteClient {
            id: client,
            rank,
            dialer: Box::new(TcpDialer(addr)),
            conn: None,
            ever_connected: false,
            next_step: 0,
            steps,
            credits: credits.max(1),
            pull_timeout,
            backoff: default_backoff(client),
            stats: ClientStats {
                retry_budget: DEFAULT_RETRY_BUDGET,
                ..ClientStats::default()
            },
            closed: false,
        }
    }

    /// The trainer rank this client feeds.
    pub fn rank(&self) -> Rank {
        self.rank
    }

    /// Serve steps already consumed (the resume cursor).
    pub fn consumed(&self) -> u64 {
        self.next_step
    }

    /// Connections dialed beyond the first.
    pub fn reconnects(&self) -> u64 {
        self.stats.reconnects
    }

    /// Redial, backoff, and rejection counters, plus the remaining
    /// retry budget.
    pub fn stats(&self) -> ClientStats {
        self.stats
    }

    /// Replaces the redial backoff policy (e.g. a test pinning the
    /// schedule with a known seed, or a chaos harness tightening the
    /// envelope).
    pub fn set_backoff(&mut self, backoff: RedialBackoff) {
        self.backoff = backoff;
    }

    /// Drops the current connection without telling the server —
    /// simulates a client crash or network partition. The next
    /// [`RemoteClient::next`] call re-dials and resumes from the cursor.
    pub fn disconnect(&mut self) {
        self.conn = None;
    }

    /// One backoff sleep, with the counters and metric that make the
    /// redial schedule observable.
    fn sleep_backoff(&mut self) {
        let delay = self.backoff.next_delay();
        self.stats.backoffs += 1;
        self.stats.backoff_total += delay;
        crate::metrics::record_redial_backoff();
        std::thread::sleep(delay);
    }

    fn redial(&mut self) {
        if self.conn.is_some() {
            return;
        }
        let Some(conn) = self.dialer.dial() else {
            return; // Unreachable (e.g. TCP listener not up yet); retry.
        };
        let hello = conn.tx.send(WireFrame::Hello {
            client: self.id,
            rank: self.rank,
        });
        if hello.is_err() {
            return; // Server gone; retry on the next attempt.
        }
        let _ = conn.tx.send(WireFrame::Subscribe {
            client: self.id,
            from_step: self.next_step,
            credits: self.credits,
        });
        self.conn = Some(conn);
    }

    fn resubscribe(&mut self) {
        let Some(conn) = self.conn.as_ref() else {
            return;
        };
        let sent = conn.tx.send(WireFrame::Subscribe {
            client: self.id,
            from_step: self.next_step,
            credits: self.credits,
        });
        if sent.is_err() {
            self.conn = None;
        }
    }

    /// Reliable stream teardown: retries `Close` until the server's echo
    /// confirms it landed, so a lost final Ack/Close on a lossy
    /// transport cannot leave the server (and with it the serve
    /// driver's drain) waiting on this client forever.
    fn close_handshake(&mut self) {
        if self.closed {
            return;
        }
        for _ in 0..40 {
            let Some(conn) = self.conn.as_mut() else {
                break; // Never connected (or server gone): nothing to close.
            };
            // Cement the whole-progress claim before closing, so the
            // server's frontier fold reflects this client's final cursor
            // even if earlier Acks were lost.
            let _ = conn.tx.send(WireFrame::Frontier {
                client: self.id,
                consumed: self.next_step,
            });
            if conn.tx.send(WireFrame::Close { client: self.id }).is_err() {
                break;
            }
            match conn.rx.recv(Duration::from_millis(100)) {
                Ok(WireFrame::Close { .. }) => {
                    self.closed = true;
                    return;
                }
                Ok(WireFrame::Batch { step, .. }) if step < self.next_step => {
                    // A straggling window resend: re-ack so the server's
                    // retransmit buffer drains.
                    let _ = conn.tx.send(WireFrame::Ack {
                        client: self.id,
                        step,
                    });
                }
                Ok(_) => {}
                Err(NetError::Timeout) => {} // Close lost: retry.
                Err(NetError::Closed | NetError::Corrupt) => break,
            }
        }
        self.closed = true; // Best effort exhausted.
    }

    /// Pulls the next batch, blocking (with reconnects and window
    /// re-subscriptions while the network or the pipeline recovers)
    /// until it arrives. Returns `None` once the stream is exhausted or
    /// the server stays unreachable past the retry budget. The batch is
    /// shared on loopback and decoded-once on network transports.
    pub fn next(&mut self) -> Option<(u64, Arc<ConstructedBatch>)> {
        if self.next_step >= self.steps {
            self.close_handshake();
            return None;
        }
        let want = self.next_step;
        // Generous budget: mirrors ServeClient::next — supervised
        // restarts, backpressure stalls, and (here) loss recovery all
        // spend retries.
        let mut quiet_timeouts = 0u32;
        for _ in 0..600 {
            if self.conn.is_none() {
                if self.ever_connected {
                    // Redial under exponential backoff with jitter, so
                    // a fleet of clients orphaned by a server restart
                    // does not stampede back in lockstep. Each redial
                    // spends retry budget; when it runs dry the client
                    // gives up rather than spinning forever.
                    if self.stats.retry_budget == 0 {
                        return None;
                    }
                    self.stats.retry_budget -= 1;
                    self.stats.reconnects += 1;
                    self.sleep_backoff();
                }
                self.redial();
                if self.conn.is_none() {
                    if !self.ever_connected {
                        // First-ever dial failed (e.g. listener not up
                        // yet): same backoff schedule, same budget.
                        if self.stats.retry_budget == 0 {
                            return None;
                        }
                        self.stats.retry_budget -= 1;
                        self.sleep_backoff();
                    }
                    continue;
                }
                self.ever_connected = true;
            }
            let Some(conn) = self.conn.as_mut() else {
                continue;
            };
            match conn.rx.recv(self.pull_timeout) {
                Ok(WireFrame::Batch { step, payload, .. }) => {
                    quiet_timeouts = 0;
                    if step < want {
                        // Window resend of an already-consumed step:
                        // re-ack so the server trims it.
                        let _ = conn.tx.send(WireFrame::Ack {
                            client: self.id,
                            step,
                        });
                        continue;
                    }
                    if step > want {
                        // Early arrival while `want` was lost; the
                        // timeout-driven resubscribe will recover it.
                        continue;
                    }
                    let Ok(batch) = payload.batch() else {
                        continue; // Undecodable payload: same as lost.
                    };
                    let _ = conn.tx.send(WireFrame::Ack {
                        client: self.id,
                        step,
                    });
                    let _ = conn.tx.send(WireFrame::Credit {
                        client: self.id,
                        grant: 1,
                    });
                    self.next_step = want + 1;
                    if self.next_step % FRONTIER_ANNOUNCE_EVERY == 0 {
                        // Periodic whole-progress announcement: on a
                        // lossy transport a run of lost Acks would leave
                        // the server's frontier fold (and its retransmit
                        // buffer) stuck at a stale cursor.
                        let _ = conn.tx.send(WireFrame::Frontier {
                            client: self.id,
                            consumed: self.next_step,
                        });
                    }
                    if self.next_step == self.steps {
                        let _ = conn.tx.send(WireFrame::Close { client: self.id });
                    }
                    self.backoff.reset();
                    return Some((step, batch));
                }
                Ok(WireFrame::Close { .. }) => {
                    self.conn = None; // Server shed us; re-dial.
                }
                Ok(WireFrame::Reject { .. }) => {
                    // Admission refusal: the server is over its session
                    // or retransmit-byte cap. Back off harder than a
                    // plain disconnect before trying again.
                    self.stats.rejections += 1;
                    self.backoff.penalize();
                    self.conn = None;
                }
                Ok(_) => {
                    quiet_timeouts = 0;
                }
                Err(NetError::Timeout) => {
                    // Lost Batch/Subscribe/Ack/Credit all collapse to
                    // this: resync the window from the cursor. If even
                    // repeated re-subscriptions stay unanswered, the
                    // session itself may be broken (e.g. its Hello was
                    // lost); tear it down and re-dial fresh.
                    quiet_timeouts += 1;
                    if quiet_timeouts >= 3 {
                        quiet_timeouts = 0;
                        self.conn = None;
                    } else {
                        self.resubscribe();
                    }
                }
                // A hang-up or a desynchronized stream both mean this
                // connection is done for; redial and resume from the
                // cursor.
                Err(NetError::Closed | NetError::Corrupt) => {
                    self.conn = None;
                }
            }
        }
        None
    }
}

impl Drop for RemoteClient {
    fn drop(&mut self) {
        if !self.closed {
            // Abandoned (or never fully torn down): tell the server so
            // its capability releases and the serve driver stops waiting
            // for a client that will never pull again.
            if let Some(conn) = self.conn.as_ref() {
                let _ = conn.tx.send(WireFrame::Close { client: self.id });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASE: Duration = Duration::from_millis(2);
    const CAP: Duration = Duration::from_millis(250);

    fn schedule(seed: u64, n: usize) -> Vec<Duration> {
        let mut b = RedialBackoff::new(seed, BASE, CAP);
        (0..n).map(|_| b.next_delay()).collect()
    }

    #[test]
    fn backoff_schedule_is_deterministic_per_seed() {
        assert_eq!(schedule(7, 12), schedule(7, 12));
        assert_ne!(schedule(7, 12), schedule(8, 12));
    }

    #[test]
    fn backoff_delays_grow_exponentially_within_the_envelope() {
        let delays = schedule(42, 16);
        for (attempt, d) in delays.iter().enumerate() {
            // Envelope for attempt k is [ceil/2, ceil] with
            // ceil = min(cap, base << k).
            let ceil = BASE.saturating_mul(1u32 << attempt.min(20)).min(CAP);
            assert!(*d >= ceil / 2, "attempt {attempt}: {d:?} below {ceil:?}/2");
            assert!(*d <= ceil, "attempt {attempt}: {d:?} above {ceil:?}");
        }
        // The tail must have reached the cap's envelope, not stayed low.
        assert!(delays[15] >= CAP / 2);
    }

    #[test]
    fn backoff_reset_returns_to_the_initial_envelope() {
        let mut b = RedialBackoff::new(3, BASE, CAP);
        for _ in 0..10 {
            b.next_delay();
        }
        b.reset();
        let d = b.next_delay();
        assert!(d <= BASE, "post-reset delay {d:?} exceeds base {BASE:?}");
    }

    fn test_server(config: ServerConfig) -> (msd_actor::ActorSystem, DataServer) {
        let system = msd_actor::ActorSystem::new("server-test");
        let mesh = msd_mesh::DeviceMesh::pp_dp_cp_tp(1, 1, 1, 1).unwrap();
        let ctor = system.spawn(
            "ctor",
            crate::system::runtime::ConstructorActor::new(
                crate::constructor::DataConstructor::new(mesh, 64),
                0,
                Vec::new(),
                Default::default(),
            ),
        );
        // The serve driver acquires every rostered client at 0 before
        // it starts; the server itself acquires nothing on construction.
        let hub = Arc::new(FrontierHub::new());
        for client in [0, 1] {
            hub.acquire(Holder::Client(client), 0);
        }
        let server = DataServer::new(
            vec![ctor],
            vec![(0, 0, 0), (1, 1, 0)],
            4,
            Duration::from_millis(100),
            config,
            Gcs::new(),
            hub,
        );
        (system, server)
    }

    /// Registers a live sender for `session`, as `ServerMsg::Session`
    /// would before any frame of a real dial arrives.
    fn open_session(server: &mut DataServer, session: u64) {
        let (_, server_end) = crate::system::net::LoopbackTransport.pair();
        let (tx, _rx) = server_end.split();
        server.sessions.insert(session, tx);
    }

    #[test]
    fn admission_rejects_dials_past_the_session_limit() {
        let (_system, mut server) = test_server(ServerConfig {
            max_sessions: 1,
            ..ServerConfig::default()
        });
        open_session(&mut server, 1);
        server.handle_frame(1, WireFrame::Hello { client: 0, rank: 0 });
        assert_eq!(server.clients[&0].session, Some(1));

        // The fleet is full: client 1's dial is refused.
        open_session(&mut server, 2);
        server.handle_frame(2, WireFrame::Hello { client: 1, rank: 1 });
        assert_eq!(server.rejections, 1);
        assert_eq!(server.clients[&1].session, None);

        // Client 0 rebinding its *own* connection is not a new session.
        open_session(&mut server, 3);
        server.handle_frame(3, WireFrame::Hello { client: 0, rank: 0 });
        assert_eq!(server.clients[&0].session, Some(3));
        assert_eq!(server.rejections, 1);

        let log = server.gcs.fault_log("data-server");
        assert!(
            log.iter().any(|r| r
                .detail
                .contains("rejected client 1 (rank 1, session 2): session limit reached")),
            "rejection must land in the GCS fault log with id, rank, and reason: {log:?}"
        );
    }

    #[test]
    fn lease_expiry_evicts_silent_clients_exactly_once() {
        let (_system, mut server) = test_server(ServerConfig {
            lease: Some(Duration::from_millis(10)),
            ..ServerConfig::default()
        });
        open_session(&mut server, 1);
        server.handle_frame(1, WireFrame::Hello { client: 0, rank: 0 });
        server.handle_frame(
            1,
            WireFrame::Subscribe {
                client: 0,
                from_step: 0,
                credits: 2,
            },
        );
        std::thread::sleep(Duration::from_millis(30));
        server.sweep_leases();

        // Both placed clients went silent past the lease — the bound one
        // and the one that never dialed each pin a capability, so both
        // are reaped.
        assert_eq!(server.evictions, 2);
        let state = &server.clients[&0];
        assert!(!state.subscribed && state.session.is_none());
        assert!(state.unacked.is_empty() && state.unacked_bytes == 0);
        assert!(!state.done, "eviction must not finish the stream");

        // Latched: staying silent does not re-evict every sweep.
        std::thread::sleep(Duration::from_millis(30));
        server.sweep_leases();
        assert_eq!(server.evictions, 2);

        let log = server.gcs.fault_log("data-server");
        assert!(
            log.iter().any(
                |r| r.detail.contains("evicted client 0 (rank 0, session 1)")
                    && r.detail.contains("lease expired")
            ),
            "eviction must land in the GCS fault log with id, rank, and reason: {log:?}"
        );

        // A late return re-subscribes from its cursor, gap-free.
        open_session(&mut server, 5);
        server.handle_frame(5, WireFrame::Hello { client: 0, rank: 0 });
        server.handle_frame(
            5,
            WireFrame::Subscribe {
                client: 0,
                from_step: 2,
                credits: 2,
            },
        );
        let state = &server.clients[&0];
        assert!(state.subscribed && !state.reaped);
        assert_eq!(state.session, Some(5));
        assert_eq!(state.base, 2);
    }

    #[test]
    fn lease_sweep_touches_only_expired_buckets() {
        let lease = Duration::from_millis(200); // Wheel granularity: 50 ms.
        let (_system, mut server) = test_server(ServerConfig {
            lease: Some(lease),
            ..ServerConfig::default()
        });

        // Nothing is due: a sweep visits zero sessions no matter how
        // many are parked (the old implementation walked every client
        // on every tick — the regression this test pins).
        server.sweep_leases();
        assert_eq!(server.sweep_visited, 0);

        // A renewal must not touch the wheel either (lazy re-bucket).
        std::thread::sleep(Duration::from_millis(80));
        open_session(&mut server, 1);
        server.handle_frame(1, WireFrame::Hello { client: 0, rank: 0 });
        server.sweep_leases();
        assert_eq!(server.sweep_visited, 0);

        // Past the original deadlines: exactly the one due bucket (both
        // placed clients) is visited. The silent client is evicted; the
        // renewed one is alive and merely re-bucketed at its real
        // deadline.
        std::thread::sleep(Duration::from_millis(140));
        server.sweep_leases();
        assert_eq!(server.sweep_visited, 2);
        assert_eq!(server.evictions, 1);
        assert!(server.clients[&0].in_wheel, "renewed client re-bucketed");

        // The renewed client's lease eventually expires too — one more
        // visit, from its re-bucketed slot.
        std::thread::sleep(Duration::from_millis(150));
        server.sweep_leases();
        assert_eq!(server.sweep_visited, 3);
        assert_eq!(server.evictions, 2);

        // Popped buckets and the reaped latch: further ticks are free.
        server.sweep_leases();
        assert_eq!(server.sweep_visited, 3);
    }

    #[test]
    fn aggregate_cap_sheds_the_most_retained_idle_client() {
        let (_system, mut server) = test_server(ServerConfig {
            aggregate_cap_bytes: 64,
            lease: None,
            ..ServerConfig::default()
        });
        open_session(&mut server, 1);
        server.handle_frame(1, WireFrame::Hello { client: 0, rank: 0 });
        open_session(&mut server, 2);
        server.handle_frame(2, WireFrame::Hello { client: 1, rank: 1 });

        // Hand-plant retained bytes: client 1 hoards more than client 0.
        for (client, bytes) in [(0u32, 40u64), (1, 100)] {
            let state = server.clients.get_mut(&client).unwrap();
            state.subscribed = true;
            state.unacked_bytes = bytes;
            server.retained_bytes += bytes;
        }
        assert_eq!(server.retained_bytes, 140);

        // Client 0 is active (on the ring); the shed must pick the idle
        // hoarder, which alone brings the total back under the cap.
        server.enqueue_ring(0);
        server.enforce_aggregate_cap();
        assert_eq!(server.shed_evictions, 1);
        assert_eq!(server.retained_bytes, 40);
        let shed = &server.clients[&1];
        assert!(shed.session.is_none() && shed.unacked_bytes == 0);
        let kept = &server.clients[&0];
        assert!(kept.session.is_some() && kept.unacked_bytes == 40);
        assert!(
            server
                .gcs
                .fault_log("data-server")
                .iter()
                .any(|r| r.detail.contains("aggregate retransmit cap")),
            "shed must leave a fault-log trail"
        );
    }

    /// One dummy batch to plant in a retransmit buffer (zero payload
    /// bytes, which keeps the byte gauges trivially consistent).
    fn dummy_shared_batch() -> SharedBatch {
        SharedBatch::new(Arc::new(ConstructedBatch {
            bucket: 0,
            microbatches: Vec::new(),
            deliveries: Vec::new(),
        }))
    }

    #[test]
    fn eviction_releases_the_frontier_capability() {
        let (_system, mut server) = test_server(ServerConfig {
            lease: Some(Duration::from_millis(10)),
            ..ServerConfig::default()
        });
        // Every placed client holds a capability from the roster acquire.
        assert!(server.hub.holds(Holder::Client(0)));
        assert!(server.hub.holds(Holder::Client(1)));

        open_session(&mut server, 1);
        server.handle_frame(1, WireFrame::Hello { client: 0, rank: 0 });
        server.handle_frame(
            1,
            WireFrame::Subscribe {
                client: 0,
                from_step: 0,
                credits: 4,
            },
        );
        server.handle_frame(1, WireFrame::Ack { client: 0, step: 1 });
        assert_eq!(server.hub.cursor(Holder::Client(0)), Some(2));

        // Client 0 goes silent and client 1 never dials: both evicted.
        std::thread::sleep(Duration::from_millis(30));
        server.sweep_leases();
        assert_eq!(server.evictions, 2);

        // Eviction *releases* the capabilities — the departed clients
        // leave the fold instead of pinning it at their stale cursors.
        assert!(!server.hub.holds(Holder::Client(0)));
        assert!(!server.hub.holds(Holder::Client(1)));
        assert_eq!(server.hub.releases(), 2);

        // Nor can a departed client falsely advance retirement: a stale
        // progress report for a released holder is dropped on the floor.
        server.hub.advance(Holder::Client(0), 99);
        assert!(server.hub.frontier() < 99);
        assert!(!server.hub.holds(Holder::Client(0)));

        // A late return re-acquires at its cursor through Subscribe and
        // is part of the fold again.
        open_session(&mut server, 5);
        server.handle_frame(5, WireFrame::Hello { client: 0, rank: 0 });
        server.handle_frame(
            5,
            WireFrame::Subscribe {
                client: 0,
                from_step: 2,
                credits: 4,
            },
        );
        assert!(server.hub.holds(Holder::Client(0)));
        assert_eq!(server.hub.cursor(Holder::Client(0)), Some(2));
    }

    #[test]
    fn close_releases_the_frontier_capability() {
        let (_system, mut server) = test_server(ServerConfig::default());
        open_session(&mut server, 1);
        server.handle_frame(1, WireFrame::Hello { client: 0, rank: 0 });
        server.handle_frame(
            1,
            WireFrame::Subscribe {
                client: 0,
                from_step: 0,
                credits: 4,
            },
        );
        server.handle_frame(1, WireFrame::Close { client: 0 });
        assert!(server.clients[&0].done);
        assert!(!server.hub.holds(Holder::Client(0)));
        // The still-placed laggard keeps the frontier pinned at 0: a
        // peer departing must never advance retirement past a live
        // holder's cursor.
        assert!(server.hub.holds(Holder::Client(1)));
        assert_eq!(server.hub.frontier(), 0);
    }

    #[test]
    fn frontier_frame_trims_retransmit_and_advances_the_fold() {
        let (_system, mut server) = test_server(ServerConfig::default());
        open_session(&mut server, 1);
        server.handle_frame(1, WireFrame::Hello { client: 0, rank: 0 });
        server.handle_frame(
            1,
            WireFrame::Subscribe {
                client: 0,
                from_step: 0,
                credits: 4,
            },
        );
        // Plant an unacked window as if steps 0..3 were sent and every
        // Ack was lost.
        {
            let state = server.clients.get_mut(&0).unwrap();
            for step in 0..3 {
                state.unacked.insert(step, dummy_shared_batch());
            }
        }
        assert_eq!(server.clients[&0].unacked.len(), 3);

        // The whole-progress claim trims below `consumed` and folds the
        // capability forward, exactly as the lost Acks would have.
        server.handle_frame(
            1,
            WireFrame::Frontier {
                client: 0,
                consumed: 2,
            },
        );
        assert_eq!(server.clients[&0].unacked.len(), 1);
        assert_eq!(server.hub.cursor(Holder::Client(0)), Some(2));

        // Stale announcements never rewind the cursor.
        server.handle_frame(
            1,
            WireFrame::Frontier {
                client: 0,
                consumed: 1,
            },
        );
        assert_eq!(server.hub.cursor(Holder::Client(0)), Some(2));
        assert_eq!(server.clients[&0].unacked.len(), 1);
    }

    #[test]
    fn backoff_penalize_skips_ahead() {
        let mut fresh = RedialBackoff::new(5, BASE, CAP);
        let mut punished = RedialBackoff::new(5, BASE, CAP);
        punished.penalize();
        // Same seed, same draw sequence: the penalized envelope is 4x
        // the fresh one until both saturate at the cap.
        let f = fresh.next_delay();
        let p = punished.next_delay();
        assert!(p > f, "penalized {p:?} not above fresh {f:?}");
    }
}
