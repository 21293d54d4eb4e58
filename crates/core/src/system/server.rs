//! The loader-side data server of the distributed serving plane.
//!
//! [`DataServer`] is the actor behind every [`ThreadedPipeline`] serve
//! session, in-process or distributed: trainer clients dial in over a
//! [`Transport`] (the in-process loopback for local `serve`), are mapped
//! onto the device mesh via [`msd_mesh::ClientPlaceTree`] (DP-rank →
//! constructor bucket), and stream their per-step batches under
//! credit-based flow control.
//!
//! ## Protocol walk-through
//!
//! ```text
//! client                         server
//!   | -- Hello{client, rank} ----> |   bind session, place on the mesh
//!   | -- Subscribe{cursor, W} ---> |   window = [cursor, cursor + W)
//!   | <------- Batch{step} ------- |   pulled from the bucket constructor
//!   | -- Frontier{consumed} -----> |   cumulative: acknowledges, folds the
//!   |                              |   step frontier, slides the window
//!   |            ...               |
//!   | -- Close{client} ----------> |   capability released
//! ```
//!
//! Per client the server keeps cursors, never batches: the consumed
//! cursor (from `Subscribe`/`Frontier`), the next step to pull, one
//! pending pull, and the window `W`. It pulls a step from the client's
//! constructor only while the step is below `consumed + W`; the
//! constructor answers by telling the server [`ServerMsg::Ready`] once
//! the step is built, and the server sends it straight to the wire —
//! nothing polls. It folds every consumed report into the
//! session's frontier hub, so a slow (or vanished) trainer rank freezes
//! its own capability and the serve driver's bounded-queue backpressure
//! stalls the pipeline — queues never balloon on behalf of a rank that
//! is not consuming.
//!
//! ## Reconnect and resume
//!
//! The constructor's ready queue keeps every step at or above the
//! frontier, so it is the one copy a resend needs. A client that loses
//! its connection (or just a frame, under the chaos transport) re-dials
//! and re-`Subscribe`s from its consumed cursor; the server rebinds the
//! session, rewinds its pull cursor there and re-pulls from the ready
//! queue, and the client discards anything below its cursor — the
//! resumed stream is gap-free and duplicate-free by construction.
//!
//! ## Failure domains
//!
//! Resume alone degrades badly when a client dies *silently*: its
//! frontier capability would otherwise freeze retirement forever,
//! stalling every healthy client through the serve driver's
//! bounded-queue backpressure. [`ServerConfig`] closes those gaps:
//!
//! - **Session leases** — any frame renews a client's lease; expiry
//!   evicts the session (capability released, GCS fault logged,
//!   eviction metric bumped). A late-returning client still resumes
//!   gap-free: its re-`Subscribe` re-acquires its capability at its
//!   cursor, and its constructor still queues every step at or above
//!   the frontier.
//! - **Admission control** — dials beyond
//!   [`ServerConfig::max_sessions`] are refused with a wire
//!   [`WireFrame::Reject`] instead of being stranded; rejected clients
//!   back off before retrying.
//! - **Client backoff** — [`RemoteClient`] redials under seeded
//!   exponential backoff with jitter ([`RedialBackoff`]) and a retry
//!   budget surfaced in [`ClientStats`], so a server restart sees a
//!   spread-out redial wave instead of a thundering herd.
//!
//! [`ThreadedPipeline`]: crate::system::runtime::ThreadedPipeline

use std::collections::{BTreeMap, HashMap};
use std::io;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use msd_actor::actor::ReplyTo;
use msd_actor::{Actor, ActorRef, Ctx, Gcs};
use msd_mesh::Rank;
use msd_sim::SimRng;
use parking_lot::Mutex;

use crate::constructor::ConstructedBatch;
use crate::system::frontier::{FrontierHub, Holder};
use crate::system::net::{
    BatchPayload, FrameRx, FrameTx, NetError, RejectReason, SharedBatch, Transport, TryRecv,
    WireConn, WireFrame,
};
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

/// Robustness knobs of a [`DataServer`]: admission control and session
/// leases (ROADMAP item 2). Threaded through `ServeOptions::server`; the
/// defaults are permissive enough that a healthy deployment never trips
/// them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerConfig {
    /// Maximum concurrently bound sessions. A dial that would bind a
    /// session beyond this is refused with
    /// [`WireFrame::Reject`]`{`[`RejectReason::SessionLimit`]`}`.
    pub max_sessions: usize,
    /// Session lease: a subscribed, unfinished client whose last frame
    /// is older than this is evicted — its frontier capability is
    /// released so the rest of the pipeline keeps flowing. `None`
    /// disables leases.
    pub lease: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_sessions: 1024,
            lease: Some(Duration::from_secs(30)),
        }
    }
}

/// Messages understood by the data-server actor.
pub enum ServerMsg {
    /// A freshly dialed connection's server-side sender. Its receive
    /// half drains into this mailbox as [`ServerMsg::Frame`]s, on
    /// whichever thread delivered them (see `DataServerHandle::register`).
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
    /// A session's receive half observed the peer hang up (or its byte
    /// stream go corrupt).
    Gone {
        /// The dead session.
        session: u64,
    },
    /// A constructor's answer to the server's pull of `step` for
    /// `client`, told into this mailbox once the step is built.
    Ready {
        /// The client the pull was issued for.
        client: u32,
        /// The pulled serve step.
        step: u64,
        /// The constructed batch, shared with every bucket-mate.
        batch: SharedBatch,
    },
    /// Report per-client serving state.
    Status(ReplyTo<ServerStatus>),
    /// The serve driver ended the session before its last step: every
    /// unfinished client is told ([`RejectReason::Ended`]) now, and every
    /// later dial on its `Hello` or `Subscribe`.
    End,
}

/// One client's row in a [`ServerStatus`] snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientServeStat {
    /// The client.
    pub client: u32,
    /// Whether a session is currently bound.
    pub connected: bool,
    /// The client's consumed cursor: every step below it is reported
    /// consumed (by `Subscribe` or `Frontier`).
    pub consumed: u64,
    /// Next step the server will pull from the constructor.
    pub next_pull: u64,
    /// Steps pulled but not yet reported consumed (`next_pull −
    /// consumed`); the server keeps no copy of them.
    pub unacked: usize,
    /// `Subscribe` frames seen after the first (reconnects + loss
    /// recoveries).
    pub resumes: u64,
    /// Whether the client's stream is finished (consumed or closed).
    pub done: bool,
    /// Times this client's session was evicted on lease expiry.
    pub evictions: u64,
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
    /// Batch bytes the server retains on behalf of its clients: always
    /// 0, because a sent batch goes straight to the wire and resends
    /// re-pull from the constructor's ready queue. Kept so existing
    /// readers of the gauge still see it.
    pub retained_bytes: u64,
    /// Cumulative sessions visited by lease sweeps. A sweep runs only
    /// when the expiry wheel's first bucket comes due and touches only
    /// the due buckets, so this grows with expirations — not with
    /// sessions or elapsed time (the regression the wheel exists to
    /// prevent).
    pub sweep_visited: u64,
    /// The serve session's global step frontier: every step below this
    /// is provably consumed by every live capability holder.
    pub frontier: u64,
}

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
    /// Consumed cursor: the highest `Subscribe`/`Frontier` report.
    consumed: u64,
    /// Window `W` of the latest `Subscribe`: the server may pull/send
    /// steps below `consumed + window`.
    window: u64,
    /// Next step to pull from the constructor.
    next_pull: u64,
    /// The step of the one pull in flight; its `Ready` issues the next.
    pending: Option<u64>,
    /// Liveness lease: renewed by any frame from this client.
    last_seen: Instant,
    /// Latched by eviction so a client that stays silent is reaped
    /// exactly once per silence period; cleared by its next frame.
    reaped: bool,
    resumes: u64,
    evictions: u64,
    done: bool,
    /// Whether this client sits in an expiry-wheel bucket (dedup bit;
    /// lease renewals re-bucket lazily at sweep time).
    in_wheel: bool,
}

impl ClientState {
    /// Whether the window has room for the next pull.
    fn may_pull(&self, steps: u64) -> bool {
        self.next_pull < steps.min(self.consumed.saturating_add(self.window))
    }
}

/// The serving-plane server actor. See the module docs for the
/// protocol; construction happens inside
/// [`ThreadedPipeline::serve_distributed`].
///
/// [`ThreadedPipeline::serve_distributed`]: crate::system::runtime::ThreadedPipeline::serve_distributed
pub struct DataServer {
    /// This server's own mailbox: constructors answer its pulls by
    /// telling it [`ServerMsg::Ready`].
    me: ActorRef<ServerMsg>,
    constructors: Vec<ActorRef<ConstructorMsg>>,
    steps: u64,
    sessions: HashMap<u64, Box<dyn FrameTx>>,
    clients: HashMap<u32, ClientState>,
    config: ServerConfig,
    gcs: Gcs,
    /// The serve session's step-frontier fold. Every placed client holds
    /// a capability in it; `Subscribe`/`Frontier` frames advance
    /// the client's cursor, and [`DataServer::finish`] /
    /// [`DataServer::evict`] *release* the capability so a departed
    /// client can neither hold global retirement back nor falsely
    /// advance it.
    hub: Arc<FrontierHub>,
    frames_rx: u64,
    batches_tx: u64,
    evictions: u64,
    rejections: u64,
    /// Count of clients with a bound session (the admission-control
    /// denominator), maintained incrementally so admission is O(1).
    bound: usize,
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
    /// Set by [`ServerMsg::End`]: the stream will not grow any further.
    ended: bool,
}

impl DataServer {
    /// Creates the server for one serve session. `me` is the server's
    /// own handle; `placements` carries `(client, rank, constructor
    /// index)` triples — the mesh lookup happened in the caller, which
    /// owns the `ClientPlaceTree`.
    pub fn new(
        me: ActorRef<ServerMsg>,
        constructors: Vec<ActorRef<ConstructorMsg>>,
        placements: Vec<(u32, Rank, usize)>,
        steps: u64,
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
                        consumed: 0,
                        window: 0,
                        next_pull: 0,
                        pending: None,
                        last_seen: Instant::now(),
                        reaped: false,
                        resumes: 0,
                        evictions: 0,
                        done: false,
                        in_wheel: false,
                    },
                )
            })
            .collect();
        let mut server = DataServer {
            me,
            constructors,
            steps,
            sessions: HashMap::new(),
            clients,
            config,
            gcs,
            hub,
            frames_rx: 0,
            batches_tx: 0,
            evictions: 0,
            rejections: 0,
            bound: 0,
            wheel: BTreeMap::new(),
            epoch: Instant::now(),
            wheel_granularity: config.lease.map_or(Duration::from_millis(1), |lease| {
                (lease / 4).max(Duration::from_millis(1))
            }),
            sweep_visited: 0,
            ended: false,
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

    /// When the expiry wheel's first bucket is due: the end of its
    /// span, by which every lease deadline in it has passed — so a sweep
    /// then leaves nothing in that bucket and the deadline moves on.
    fn next_sweep(&self) -> Option<Instant> {
        let (&bucket, _) = self.wheel.first_key_value()?;
        let buckets = u32::try_from(bucket.saturating_add(1)).unwrap_or(u32::MAX);
        self.epoch
            .checked_add(self.wheel_granularity.saturating_mul(buckets))
    }

    /// Issues the client's next pull while the window has room and no
    /// pull is in flight. The constructor answers by telling this server
    /// [`ServerMsg::Ready`] once the step is built; a pull lost to a
    /// constructor restart is re-issued by the client's re-`Subscribe`.
    fn pull(&mut self, client: u32) {
        let Some(state) = self.clients.get_mut(&client) else {
            return;
        };
        if state.done || !state.subscribed || state.pending.is_some() || !state.may_pull(self.steps)
        {
            return;
        }
        let step = state.next_pull;
        let reply = ReplyTo::tell(&self.me, move |(step, batch)| ServerMsg::Ready {
            client,
            step,
            batch,
        });
        if self.constructors[state.ctor].tell(ConstructorMsg::Pull {
            client,
            step,
            reply,
        }) {
            state.pending = Some(step);
            state.next_pull = step + 1;
        }
    }

    /// A constructor's answer: send the batch if it is the client's
    /// pending step, then pull the next one. Any other step is stale — a
    /// pull a re-`Subscribe`, a finish or an eviction superseded — and is
    /// dropped.
    fn ready(&mut self, client: u32, step: u64, batch: SharedBatch) {
        let Some(state) = self.clients.get_mut(&client) else {
            return;
        };
        if state.pending != Some(step) {
            return;
        }
        let start = Instant::now();
        state.pending = None;
        // The constructor hands every bucket-mate the same wrapper, so the
        // memoized wire form is shared (and, on serializing transports,
        // already sealed at construct time).
        self.send_batch(client, step, batch);
        self.pull(client);
        crate::metrics::record_stage(crate::metrics::Stage::Pump, start.elapsed());
    }

    /// Sends one batch frame to a client's bound session; a send failure
    /// unbinds the session (the reader's `Gone` may still be in flight).
    fn send_batch(&mut self, client: u32, step: u64, shared: SharedBatch) {
        let Some(session) = self.clients.get(&client).and_then(|s| s.session) else {
            return;
        };
        let frame = WireFrame::Batch {
            client,
            step,
            payload: BatchPayload::Shared(shared),
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
        self.hub.release(Holder::Client(client));
    }

    /// Tells `client` on `session` that the stream ended early, and
    /// finishes it.
    fn end(&mut self, client: u32, session: u64) {
        if let Some(tx) = self.sessions.get(&session) {
            let _ = tx.send(WireFrame::Reject {
                client,
                reason: RejectReason::Ended,
            });
        }
        self.finish(client);
    }

    /// Evicts a client's session: unbinds the session and releases its
    /// frontier capability so retirement
    /// (and with it every healthy client) stops waiting on a client that
    /// went silent. Unlike [`DataServer::finish`] the stream is *not*
    /// marked done — a late-returning client re-`Subscribe`s from its
    /// cursor, re-acquiring its capability there, and re-pulls from a
    /// ready queue that still holds every step at or above the frontier.
    fn evict(&mut self, client: u32, reason: &str) {
        let Some(state) = self.clients.get_mut(&client) else {
            return;
        };
        let session = state.session.take();
        if let Some(session) = session {
            self.sessions.remove(&session);
            self.bound = self.bound.saturating_sub(1);
        }
        state.subscribed = false;
        state.pending = None;
        // Nothing is in flight to a client with no session.
        state.next_pull = state.consumed;
        state.reaped = true;
        state.evictions += 1;
        let rank = state.rank;
        self.evictions += 1;
        crate::metrics::record_session_evicted();
        let session = session.map_or_else(|| "none".to_string(), |s| s.to_string());
        self.gcs.log_fault(
            "data-server",
            format!("evicted client {client} (rank {rank}, session {session}): {reason}"),
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

    /// Admission check for a dial: whether binding it would exceed
    /// [`ServerConfig::max_sessions`]. A client that already has a bound
    /// session only rebinds or replaces it, which never grows the
    /// session count, so it is always admitted.
    fn over_session_limit(&self, client: u32) -> bool {
        self.clients
            .get(&client)
            .is_some_and(|state| state.session.is_none() && self.bound >= self.config.max_sessions)
    }

    /// Refuses a dial over the session limit: sends `Reject` on the
    /// dialing session, drops the session, and leaves a post-mortem
    /// trail (GCS fault log entry with session id, rank, and reason;
    /// rejection metric).
    fn reject(&mut self, client: u32, session: u64) {
        let reason = RejectReason::SessionLimit;
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
                if self.ended {
                    self.end(client, session);
                    return;
                }
                if self.over_session_limit(client) {
                    self.reject(client, session);
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
                if self.ended {
                    self.end(client, session);
                    return;
                }
                // A Subscribe binds too: on a lossy transport the Hello
                // may simply never have arrived, and ignoring the
                // Subscribe would strand the client on an unbound
                // session. Session ids are monotone, so a delayed frame
                // from a pre-reconnect session can never rebind
                // backwards.
                if self.over_session_limit(client) {
                    self.reject(client, session);
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
                // Everything below the client's cursor is consumed; a
                // reordered stale Subscribe never rewinds the report.
                state.consumed = state.consumed.max(from_step);
                state.window = u64::from(credits);
                // Re-pull the window from the cursor: whatever was in
                // flight may be lost, and the ready queue still holds
                // every step at or above the frontier. Re-pulls are
                // idempotent, and the client discards steps below its
                // cursor.
                state.next_pull = from_step;
                state.pending = None;
                // A subscribe at (or past) the end of the stream is an
                // idle attach: the client wants a bound session but no
                // batches. Finish it immediately so its capability
                // releases and retirement never waits on a parked
                // spectator — the session itself stays bound.
                if from_step >= self.steps {
                    self.finish(client);
                }
                self.pull(client);
            }
            WireFrame::Frontier { consumed, .. } => {
                if let Some(state) = self.clients.get_mut(&client) {
                    // The one consumed report: cumulative, so a lost one
                    // is subsumed by the next. It acknowledges every step
                    // below `consumed`, slides the window to
                    // `consumed + W`, and folds the client's capability
                    // forward (the hub drops stale/regressive reports).
                    state.consumed = state.consumed.max(consumed);
                    self.hub.advance(Holder::Client(client), consumed);
                    if state.consumed >= self.steps {
                        self.finish(client);
                    }
                    self.pull(client);
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
            WireFrame::Batch { .. }
            | WireFrame::Reject { .. }
            | WireFrame::Ack { .. }
            | WireFrame::Credit { .. } => {
                // Clients never send batches or rejections, and
                // `Frontier` carries what `Ack`/`Credit` once did; ignore.
            }
        }
    }

    fn status(&self) -> ServerStatus {
        let mut clients: Vec<ClientServeStat> = self
            .clients
            .iter()
            .map(|(client, s)| ClientServeStat {
                client: *client,
                connected: s.session.is_some(),
                consumed: s.consumed,
                next_pull: s.next_pull,
                unacked: s.next_pull.saturating_sub(s.consumed) as usize,
                resumes: s.resumes,
                done: s.done,
                evictions: s.evictions,
            })
            .collect();
        clients.sort_by_key(|c| c.client);
        debug_assert_eq!(
            self.bound,
            clients.iter().filter(|c| c.connected).count(),
            "incremental bound-session counter drifted"
        );
        ServerStatus {
            clients,
            frames_rx: self.frames_rx,
            batches_tx: self.batches_tx,
            evictions: self.evictions,
            rejections: self.rejections,
            retained_bytes: 0,
            sweep_visited: self.sweep_visited,
            frontier: self.hub.frontier(),
        }
    }

    /// Lease sweep, run when the actor deadline
    /// ([`DataServer::next_sweep`]) passes: evict unfinished clients
    /// that have gone silent past the lease. Subscribed or not: even a
    /// client that never dialed (or whose session died with a server
    /// restart) pins its frontier capability, so silence past the lease
    /// always reaps it — which is why every placed client is armed at
    /// construction.
    ///
    /// Cost: only the expiry-wheel buckets at or before the current
    /// instant are popped, so a sweep touches only the sessions that
    /// were due, no matter how many are connected. A client whose lease
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
        // re-scanning the live map would revisit it in the same sweep.
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
}

impl Actor for DataServer {
    type Msg = ServerMsg;

    /// Lease expiry needs no ticker: the run loop calls
    /// [`Actor::deadline_passed`] when the wheel's first bucket is due.
    fn deadline(&self) -> Option<Instant> {
        self.next_sweep()
    }

    fn deadline_passed(&mut self, _ctx: &mut Ctx) {
        self.sweep_leases();
    }

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
            ServerMsg::Ready {
                client,
                step,
                batch,
            } => self.ready(client, step, batch),
            ServerMsg::Status(reply) => {
                reply.send(self.status());
            }
            ServerMsg::End => {
                self.ended = true;
                let bound: Vec<(u32, u64)> = self
                    .clients
                    .iter()
                    .filter(|(_, state)| !state.done)
                    .filter_map(|(client, state)| Some((*client, state.session?)))
                    .collect();
                for (client, session) in bound {
                    self.end(client, session);
                }
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
        DataServerHandle {
            actor,
            transport,
            placements,
            next_session: Arc::new(AtomicU64::new(1)),
            steps,
            pull_timeout,
            credits,
        }
    }

    /// Threads this server runs to read session receivers: always 0,
    /// because each session's frames reach the mailbox on the thread
    /// that delivered them. Kept because the benchmark's
    /// `reader.threads` metric reads it.
    pub fn reader_threads(&self) -> usize {
        0
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

    /// Opens one transport connection, registers its server end, and
    /// returns the client end.
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
    /// session id, hands the sender to the actor, and installs a waker
    /// on the receive half that drains it into the actor's mailbox (see
    /// [`drain_session`]). The TCP accept loop and the in-process `dial`
    /// path both funnel through here.
    fn register(&self, server_end: WireConn) -> u64 {
        let session = self.next_session.fetch_add(1, Ordering::SeqCst);
        let (tx, mut rx) = server_end.split();
        self.actor.tell(ServerMsg::Session { session, tx });
        let slot: Arc<SessionSlot> = Arc::default();
        let (woken, server) = (Arc::clone(&slot), self.actor.clone());
        // Install before the receiver is in the slot: the install fires
        // the waker once, and a fire under the slot lock would deadlock.
        // This one finds the slot empty; the drain below picks up
        // whatever was sent before registration.
        rx.set_waker(Arc::new(move || drain_session(&woken, session, &server)));
        *slot.lock() = Some(rx);
        drain_session(&slot, session, &self.actor);
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
                            if handle.actor.is_stopped() {
                                return;
                            }
                            handle.register(conn);
                        }
                        // Nothing to accept, or a failed accept (e.g.
                        // EMFILE): either way, stop once the server has
                        // stopped for good rather than retrying forever.
                        // Not on `!is_alive()`: that also reads true
                        // before the server's first incarnation runs and
                        // while a crash restarts it.
                        Err(_) => {
                            if handle.actor.is_stopped() {
                                return;
                            }
                            std::thread::sleep(idle_wait);
                            idle_wait = (idle_wait * 2).min(IDLE_MAX);
                        }
                    }
                }
            })?;
        Ok(local)
    }
}

/// A session's receive half, shared by every thread that fires its
/// waker; `None` once the session is gone. The lock serializes
/// concurrent wakes, so frames reach the mailbox in arrival order.
type SessionSlot = Mutex<Option<Box<dyn FrameRx>>>;

/// Moves every frame observable on a session's receive half into the
/// server's mailbox, and tells [`ServerMsg::Gone`] once the peer hangs
/// up. Runs on whichever thread fired the waker: the sending client's
/// on loopback, the connection's reader thread on TCP. It never runs on
/// the server actor's thread, since server→client lanes end at clients,
/// which install no waker; and it calls only `try_recv` and the
/// unbounded, non-blocking `tell`, so it never waits on the server.
fn drain_session(slot: &SessionSlot, session: u64, server: &ActorRef<ServerMsg>) {
    let mut slot = slot.lock();
    let Some(rx) = slot.as_mut() else {
        return;
    };
    loop {
        let (msg, last) = match rx.try_recv() {
            TryRecv::Frame(frame) => (ServerMsg::Frame { session, frame }, false),
            TryRecv::Empty => return,
            TryRecv::Closed | TryRecv::Corrupt => (ServerMsg::Gone { session }, true),
        };
        // A failed `tell` means the server stopped for good: a supervised
        // restart keeps the mailbox, so it does not fail during one.
        if !server.tell(msg) || last {
            *slot = None;
            return;
        }
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

/// A trainer client of a serve session, in-process
/// ([`ThreadedPipeline::serve`] hands these out over the loopback) or in
/// another process ([`RemoteClient::over_tcp`]). Pulls are strictly
/// ordered, the client carries its own consumed cursor and reports it
/// with one cumulative [`WireFrame::Frontier`] per consumed step, and a
/// lost connection (or lost frames, on a lossy transport) is survived by
/// re-dialing and re-subscribing from that cursor — under the seeded
/// exponential backoff of [`RedialBackoff`], with the retry budget and
/// backoff counters surfaced in [`ClientStats`]. Dropping it mid-stream
/// closes its stream, so the rest of the session never waits on it.
///
/// [`ThreadedPipeline::serve`]: crate::system::runtime::ThreadedPipeline::serve
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
    /// session's step count, the per-pull timeout, and the window
    /// `W`. The connection is dialed lazily on the first
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
    /// confirms it landed, so a lost final Frontier/Close on a lossy
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
            // Cement the consumed report before closing, so the server's
            // frontier fold reflects this client's final cursor even if
            // earlier reports were lost.
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
                Ok(_) => {}
                Err(NetError::Timeout) => {} // Close lost: retry.
                Err(NetError::Closed | NetError::Corrupt) => break,
            }
        }
        self.closed = true; // Best effort exhausted.
    }

    /// Pulls the next batch, blocking (with reconnects and window
    /// re-subscriptions while the network or the pipeline recovers)
    /// until it arrives. Returns `None` once the stream is exhausted, the
    /// server says the session ended early, or the server stays
    /// unreachable past the retry budget. The batch is
    /// shared on loopback and decoded-once on network transports.
    pub fn next(&mut self) -> Option<(u64, Arc<ConstructedBatch>)> {
        if self.closed || self.next_step >= self.steps {
            self.close_handshake();
            return None;
        }
        let want = self.next_step;
        // Generous budget: supervised restarts, backpressure stalls and
        // loss recovery all spend retries.
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
                    if step != want {
                        // A resend of an already-consumed step, or an
                        // early arrival while `want` was lost (the
                        // timeout-driven resubscribe recovers it).
                        continue;
                    }
                    let Ok(batch) = payload.batch() else {
                        continue; // Undecodable payload: same as lost.
                    };
                    self.next_step = want + 1;
                    // One cumulative report both acknowledges the step
                    // and slides the server's window; a lost one is
                    // subsumed by the next.
                    let _ = conn.tx.send(WireFrame::Frontier {
                        client: self.id,
                        consumed: self.next_step,
                    });
                    if self.next_step == self.steps {
                        let _ = conn.tx.send(WireFrame::Close { client: self.id });
                    }
                    self.backoff.reset();
                    return Some((step, batch));
                }
                Ok(WireFrame::Close { .. }) => {
                    self.conn = None; // Server shed us; re-dial.
                }
                Ok(WireFrame::Reject {
                    reason: RejectReason::Ended,
                    ..
                }) => {
                    // The session ended early: the stream is over, and
                    // the server has already finished this client.
                    self.closed = true;
                    return None;
                }
                Ok(WireFrame::Reject { .. }) => {
                    // Admission refusal: the server is at its session
                    // limit. Back off harder than a plain disconnect
                    // before trying again.
                    self.stats.rejections += 1;
                    self.backoff.penalize();
                    self.conn = None;
                }
                Ok(_) => {
                    quiet_timeouts = 0;
                }
                Err(NetError::Timeout) => {
                    // Lost Batch/Subscribe/Frontier all collapse to
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
        if self.closed {
            return;
        }
        // Abandoned (or never fully torn down): tell the server so its
        // capability releases and the serve driver stops waiting for a
        // client that will never pull again. A client dropped before its
        // first `next` has never dialed, yet its capability pins the
        // frontier from step 0 until its lease runs out: dial once to
        // say so.
        if self.conn.is_none() && !self.ever_connected {
            self.conn = self.dialer.dial();
        }
        if let Some(conn) = self.conn.as_ref() {
            let _ = conn.tx.send(WireFrame::Close { client: self.id });
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

    /// Stands in for the server's own mailbox: the constructor's
    /// `Ready`s land here unread, and tests hand them to the server
    /// directly.
    struct Unread;

    impl Actor for Unread {
        type Msg = ServerMsg;
        fn handle(&mut self, _msg: ServerMsg, _ctx: &mut Ctx) {}
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
        let me = system.spawn("server", Unread);
        let server = DataServer::new(
            me,
            vec![ctor],
            vec![(0, 0, 0), (1, 1, 0)],
            4,
            config,
            Gcs::new(),
            hub,
        );
        (system, server)
    }

    /// Registers a live sender for `session`, as `ServerMsg::Session`
    /// would before any frame of a real dial arrives. Returns the
    /// client's end.
    fn open_session(server: &mut DataServer, session: u64) -> WireConn {
        let (client_end, server_end) = crate::system::net::LoopbackTransport.pair();
        let (tx, _rx) = server_end.split();
        server.sessions.insert(session, tx);
        client_end
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
        assert!(state.pending.is_none() && state.next_pull == state.consumed);
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
        assert_eq!(state.consumed, 2);
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
        // on every sweep — the regression this test pins).
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

        // Popped buckets and the reaped latch: further sweeps are free.
        server.sweep_leases();
        assert_eq!(server.sweep_visited, 3);
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
        server.handle_frame(
            1,
            WireFrame::Frontier {
                client: 0,
                consumed: 2,
            },
        );
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

    /// Binds client 0 on session 1 and subscribes it from step 0 with a
    /// window of `credits`.
    fn subscribe_client_0(server: &mut DataServer, credits: u32) {
        open_session(server, 1);
        server.handle_frame(1, WireFrame::Hello { client: 0, rank: 0 });
        server.handle_frame(
            1,
            WireFrame::Subscribe {
                client: 0,
                from_step: 0,
                credits,
            },
        );
    }

    fn report(server: &mut DataServer, consumed: u64) {
        server.handle_frame(
            1,
            WireFrame::Frontier {
                client: 0,
                consumed,
            },
        );
    }

    #[test]
    fn frontier_frame_advances_the_fold_and_slides_the_window() {
        let (_system, mut server) = test_server(ServerConfig::default());
        subscribe_client_0(&mut server, 2);
        // As if steps 0 and 1 were sent: the window [0, 2) is full.
        server.clients.get_mut(&0).unwrap().next_pull = 2;
        assert!(!server.clients[&0].may_pull(server.steps));

        // One cumulative report acknowledges, folds the capability
        // forward, and slides the send limit to `consumed + W`.
        report(&mut server, 1);
        let state = &server.clients[&0];
        assert_eq!(state.consumed + state.window, 3);
        assert!(state.may_pull(server.steps));
        assert_eq!(server.hub.cursor(Holder::Client(0)), Some(1));

        // Stale reports never rewind the cursor or shrink the window.
        report(&mut server, 0);
        assert_eq!(server.clients[&0].consumed, 1);
        assert_eq!(server.hub.cursor(Holder::Client(0)), Some(1));

        // Consuming the last step finishes the stream.
        let steps = server.steps;
        report(&mut server, steps);
        assert!(server.clients[&0].done);
        assert!(!server.hub.holds(Holder::Client(0)));
    }

    #[test]
    fn resubscribe_rewinds_the_pull_cursor() {
        let (_system, mut server) = test_server(ServerConfig::default());
        subscribe_client_0(&mut server, 4);
        // Steps 0..3 were sent; the client consumed step 0, then lost
        // step 1 on the wire.
        server.clients.get_mut(&0).unwrap().next_pull = 3;
        report(&mut server, 1);
        assert_eq!(server.status().clients[0].unacked, 2);

        server.handle_frame(
            1,
            WireFrame::Subscribe {
                client: 0,
                from_step: 1,
                credits: 4,
            },
        );
        // The pull cursor rewinds to the resume point, and the lost step
        // is re-pulled from the constructor's ready queue at once.
        let state = &server.clients[&0];
        assert_eq!(state.resumes, 1);
        assert_eq!(state.consumed, 1);
        assert_eq!(state.pending, Some(1));
        assert_eq!(state.next_pull, 2);
    }

    fn batch() -> SharedBatch {
        SharedBatch::new(Arc::new(ConstructedBatch {
            bucket: 0,
            microbatches: Vec::new(),
            deliveries: Vec::new(),
        }))
    }

    #[test]
    fn ready_sends_the_pending_step_and_pulls_the_next() {
        let (_system, mut server) = test_server(ServerConfig::default());
        let mut client = open_session(&mut server, 1);
        server.handle_frame(1, WireFrame::Hello { client: 0, rank: 0 });
        server.handle_frame(
            1,
            WireFrame::Subscribe {
                client: 0,
                from_step: 0,
                credits: 2,
            },
        );
        // Subscribe issues the first pull; one pull is in flight at a time.
        assert_eq!(server.clients[&0].pending, Some(0));
        assert_eq!(server.clients[&0].next_pull, 1);

        // A Ready for any other step is stale and dropped.
        server.ready(0, 1, batch());
        assert_eq!(
            (server.batches_tx, server.clients[&0].pending),
            (0, Some(0))
        );

        // The pending step is sent and the next pull goes out.
        server.ready(0, 0, batch());
        assert_eq!(server.batches_tx, 1);
        assert_eq!(server.clients[&0].pending, Some(1));
        match client.rx.recv(Duration::from_secs(1)) {
            Ok(WireFrame::Batch { step: 0, .. }) => {}
            other => panic!("expected step 0's batch, got {other:?}"),
        }

        // The window [0, 2) is then full: no pull until a Frontier
        // slides it.
        server.ready(0, 1, batch());
        assert_eq!(server.clients[&0].pending, None);
        report(&mut server, 1);
        assert_eq!(server.clients[&0].pending, Some(2));

        // A Subscribe supersedes the pull in flight: its late Ready is
        // dropped, and the re-pull from the cursor is the pending one.
        server.handle_frame(
            1,
            WireFrame::Subscribe {
                client: 0,
                from_step: 1,
                credits: 2,
            },
        );
        assert_eq!(server.clients[&0].pending, Some(1));
        server.ready(0, 2, batch());
        assert_eq!(server.batches_tx, 2);
    }

    #[test]
    fn the_server_deadline_is_the_end_of_the_first_due_bucket() {
        let lease = Duration::from_millis(40); // Wheel granularity: 10 ms.
        let (_system, mut server) = test_server(ServerConfig {
            lease: Some(lease),
            ..ServerConfig::default()
        });
        // Both placed clients are armed at construction, in one bucket.
        let at = server.next_sweep().expect("armed leases set a deadline");
        assert!(at >= server.clients[&0].last_seen + lease);
        assert!(at <= server.epoch + lease + server.wheel_granularity);

        // Sweeping at the deadline empties that bucket: the silent
        // clients are evicted and, latched, leave no deadline behind.
        std::thread::sleep(at.saturating_duration_since(Instant::now()));
        server.sweep_leases();
        assert_eq!(server.evictions, 2);
        assert_eq!(server.next_sweep(), None);

        // Leases off: no deadline at all.
        let (_system, server) = test_server(ServerConfig {
            lease: None,
            ..ServerConfig::default()
        });
        assert_eq!(server.next_sweep(), None);
    }

    /// A constructor with every step already built: it answers each
    /// pull at once.
    struct Stocked;

    impl Actor for Stocked {
        type Msg = ConstructorMsg;
        fn handle(&mut self, msg: ConstructorMsg, _ctx: &mut Ctx) {
            if let ConstructorMsg::Pull { step, reply, .. } = msg {
                reply.send((step, batch()));
            }
        }
    }

    #[test]
    fn the_tcp_accept_loop_outlasts_a_server_that_has_not_started() {
        const STEPS: u64 = 6;
        let system = msd_actor::ActorSystem::new("accept-test");
        let ctor = system.spawn("ctor", Stocked);
        let hub = Arc::new(FrontierHub::new());
        hub.acquire(Holder::Client(0), 0);
        // The server's first incarnation is held in its factory until
        // the test releases it, so the accept loop polls first.
        let (release, gate) = std::sync::mpsc::channel::<()>();
        let server =
            system.spawn_supervised_with("server", msd_actor::RestartPolicy::Never, move |me| {
                let _ = gate.recv();
                DataServer::new(
                    me.clone(),
                    vec![ctor.clone()],
                    vec![(0, 0, 0)],
                    STEPS,
                    ServerConfig::default(),
                    Gcs::new(),
                    hub.clone(),
                )
            });
        let handle = DataServerHandle::new(
            server.clone(),
            Arc::new(crate::system::net::LoopbackTransport),
            Arc::new(HashMap::from([(0, 0)])),
            STEPS,
            Duration::from_millis(200),
            2,
        );
        let addr = handle.serve_tcp("127.0.0.1:0").expect("bind a listener");
        // Time for the accept loop's first polls, which find no server
        // running yet. The fixed loop passes however it interleaves.
        std::thread::sleep(Duration::from_millis(100));
        assert!(
            !server.is_alive(),
            "the server started before the test let it"
        );
        drop(release);

        let (done, streamed) = std::sync::mpsc::channel();
        let client = std::thread::spawn(move || {
            let mut client =
                RemoteClient::over_tcp(addr, 0, 0, STEPS, Duration::from_millis(200), 2);
            let mut steps = Vec::new();
            while let Some((step, _)) = client.next() {
                steps.push(step);
            }
            let _ = done.send(steps);
        });
        let steps = streamed
            .recv_timeout(Duration::from_secs(20))
            .expect("the TCP client never finished: the accept loop gave up on the server");
        client.join().expect("client thread");
        assert_eq!(steps, (0..STEPS).collect::<Vec<_>>());
        server.stop();
        system.shutdown();
    }

    #[test]
    fn a_session_binds_and_hangs_up_with_no_reader_thread() {
        const STEPS: u64 = 6;
        let system = msd_actor::ActorSystem::new("drain-test");
        let ctor = system.spawn("ctor", Stocked);
        let hub = Arc::new(FrontierHub::new());
        hub.acquire(Holder::Client(0), 0);
        let server =
            system.spawn_supervised_with("server", msd_actor::RestartPolicy::Never, move |me| {
                DataServer::new(
                    me.clone(),
                    vec![ctor.clone()],
                    vec![(0, 0, 0)],
                    STEPS,
                    ServerConfig::default(),
                    Gcs::new(),
                    hub.clone(),
                )
            });
        let handle = DataServerHandle::new(
            server.clone(),
            Arc::new(crate::system::net::LoopbackTransport),
            Arc::new(HashMap::from([(0, 0)])),
            STEPS,
            Duration::from_millis(200),
            2,
        );

        // The client speaks before its server end is registered: the
        // waker installed at registration fires into an empty slot, so
        // only the drain after filling it can deliver these frames.
        let (client_end, server_end) = crate::system::net::LoopbackTransport.pair();
        client_end
            .tx
            .send(WireFrame::Hello { client: 0, rank: 0 })
            .unwrap();
        client_end
            .tx
            .send(WireFrame::Subscribe {
                client: 0,
                from_step: 2,
                credits: 0,
            })
            .unwrap();
        handle.register(server_end);
        let status = handle.status().expect("server status");
        assert_eq!(status.frames_rx, 2);
        let row = &status.clients[0];
        assert!(row.connected, "Hello sent before registration never bound");
        assert_eq!(
            (row.consumed, row.next_pull),
            (2, 2),
            "Subscribe sent before registration never landed"
        );

        // Dropping the client end fires the hang-up wake on this thread,
        // which tells `Gone` before the status ask below is sent.
        drop(client_end);
        let status = handle.status().expect("server status");
        assert!(
            !status.clients[0].connected,
            "hang-up left the session bound"
        );
        assert_eq!(handle.reader_threads(), 0);

        server.stop();
        system.shutdown();
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
