//! The actor trait and typed actor references.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, Receiver, Sender};

/// A message-processing actor.
///
/// Actors own their state exclusively; all interaction flows through the
/// mailbox. `handle` runs on the actor's dedicated thread.
pub trait Actor: Send + 'static {
    /// The message type this actor processes.
    type Msg: Send + 'static;

    /// Processes one message.
    fn handle(&mut self, msg: Self::Msg, ctx: &mut Ctx);

    /// Called when the actor (re)starts, before the first message.
    fn started(&mut self, _ctx: &mut Ctx) {}

    /// The instant this actor next wants [`Actor::deadline_passed`] to
    /// run, if any. The run loop reads it before every receive and waits
    /// for a message no longer than until then, so timed work (lease
    /// expiry, say) needs no ticker thread and a busy mailbox cannot
    /// starve it.
    fn deadline(&self) -> Option<Instant> {
        None
    }

    /// Runs on the actor's thread once [`Actor::deadline`] has passed. It
    /// must move the deadline forward (or clear it), or it runs again at
    /// once.
    fn deadline_passed(&mut self, _ctx: &mut Ctx) {}

    /// Called when the actor stops cleanly.
    fn stopped(&mut self) {}
}

/// Execution context handed to [`Actor::handle`].
pub struct Ctx {
    /// Actor name (unique within the system).
    pub name: String,
    /// Number of restarts this actor has undergone.
    pub restarts: u32,
    pub(crate) stop_requested: bool,
}

impl Ctx {
    /// Requests a clean stop after the current message.
    pub fn stop(&mut self) {
        self.stop_requested = true;
    }
}

/// Control envelope around user messages.
pub(crate) enum Envelope<M> {
    /// A user message.
    Msg(M),
    /// Clean shutdown request.
    Stop,
    /// Injected fault: panic inside the actor loop (fault injection).
    Crash(String),
    /// Injected fault: sleep before processing further messages.
    Delay(Duration),
}

/// Errors returned by [`ActorRef::ask`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AskError {
    /// The actor's mailbox is closed (actor dead and not restartable).
    Dead,
    /// No reply arrived within the timeout — the paper's RPC-timeout
    /// failure signal.
    Timeout,
}

impl std::fmt::Display for AskError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AskError::Dead => write!(f, "actor is dead"),
            AskError::Timeout => write!(f, "ask timed out"),
        }
    }
}

impl std::error::Error for AskError {}

/// A cloneable, typed handle to an actor.
pub struct ActorRef<M> {
    pub(crate) name: String,
    /// Shared so a supervisor can hold a [`WeakRef`] that does not keep
    /// the mailbox open.
    pub(crate) tx: Arc<Sender<Envelope<M>>>,
    pub(crate) alive: Arc<AtomicBool>,
    pub(crate) processed: Arc<AtomicU64>,
    pub(crate) queued: Arc<AtomicUsize>,
}

impl<M> Clone for ActorRef<M> {
    fn clone(&self) -> Self {
        ActorRef {
            name: self.name.clone(),
            tx: self.tx.clone(),
            alive: self.alive.clone(),
            processed: self.processed.clone(),
            queued: self.queued.clone(),
        }
    }
}

impl<M: Send + 'static> ActorRef<M> {
    /// The actor's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Whether the actor thread is currently running.
    pub fn is_alive(&self) -> bool {
        self.alive.load(Ordering::SeqCst)
    }

    /// Messages processed so far (across restarts).
    pub fn processed(&self) -> u64 {
        self.processed.load(Ordering::SeqCst)
    }

    /// Envelopes currently sitting in the mailbox (sent but not yet
    /// dequeued). The backpressure signal for bounded prefetch: producers
    /// can stall when a consumer's mailbox grows past a budget.
    pub fn mailbox_depth(&self) -> usize {
        self.queued.load(Ordering::SeqCst)
    }

    fn send_envelope(&self, envelope: Envelope<M>) -> bool {
        send_counted(&self.tx, &self.queued, envelope)
    }

    /// A handle that does not keep the mailbox open.
    pub(crate) fn downgrade(&self) -> WeakRef<M> {
        WeakRef {
            name: self.name.clone(),
            tx: Arc::downgrade(&self.tx),
            alive: self.alive.clone(),
            processed: self.processed.clone(),
            queued: self.queued.clone(),
        }
    }

    /// Fire-and-forget send. Returns `false` if the mailbox is closed.
    pub fn tell(&self, msg: M) -> bool {
        self.send_envelope(Envelope::Msg(msg))
    }

    /// Request/response: builds a message embedding a reply channel and
    /// waits for the reply with a timeout.
    ///
    /// # Examples
    ///
    /// ```ignore
    /// let reply: Result<u64, AskError> =
    ///     actor.ask(|tx| Msg::Get { reply: tx }, Duration::from_secs(1));
    /// ```
    pub fn ask<R: Send + 'static>(
        &self,
        build: impl FnOnce(ReplyTo<R>) -> M,
        timeout: Duration,
    ) -> Result<R, AskError> {
        self.ask_pipelined(build)?.wait(timeout)
    }

    /// Pipelined request/response: enqueues the request and returns a
    /// [`PendingReply`] immediately, so a caller can issue asks to many
    /// actors and only then collect the replies — one round-trip of latency
    /// across the whole fleet instead of one per actor.
    ///
    /// # Examples
    ///
    /// ```ignore
    /// let pending: Vec<_> = fleet
    ///     .iter()
    ///     .map(|a| a.ask_pipelined(Msg::Get))
    ///     .collect::<Result<_, _>>()?;
    /// for p in pending {
    ///     let value = p.wait(Duration::from_secs(1))?;
    /// }
    /// ```
    pub fn ask_pipelined<R: Send + 'static>(
        &self,
        build: impl FnOnce(ReplyTo<R>) -> M,
    ) -> Result<PendingReply<R>, AskError> {
        let (tx, rx) = bounded(1);
        let msg = build(ReplyTo(Reply::Channel(tx)));
        if !self.send_envelope(Envelope::Msg(msg)) {
            return Err(AskError::Dead);
        }
        Ok(PendingReply {
            rx,
            alive: self.alive.clone(),
        })
    }

    /// Requests a clean stop (processed in mailbox order).
    pub fn stop(&self) {
        let _ = self.send_envelope(Envelope::Stop);
    }

    /// Fault injection: makes the actor panic when it dequeues this
    /// envelope. A supervised actor will restart; a plain actor dies.
    pub fn inject_crash(&self, reason: impl Into<String>) {
        let _ = self.send_envelope(Envelope::Crash(reason.into()));
    }

    /// Fault injection: stalls the actor for `d` (models slow workers and
    /// partial network partitions — `ask` timeouts then fire).
    pub fn inject_delay(&self, d: Duration) {
        let _ = self.send_envelope(Envelope::Delay(d));
    }
}

/// What a supervisor keeps to hand each incarnation its own [`ActorRef`]
/// without holding the mailbox open: once every strong handle drops, the
/// actor's receive ends as it would without a supervisor.
pub(crate) struct WeakRef<M> {
    name: String,
    tx: Weak<Sender<Envelope<M>>>,
    alive: Arc<AtomicBool>,
    processed: Arc<AtomicU64>,
    queued: Arc<AtomicUsize>,
}

impl<M> WeakRef<M> {
    /// A strong handle, unless every strong handle has dropped.
    pub(crate) fn upgrade(&self) -> Option<ActorRef<M>> {
        Some(ActorRef {
            name: self.name.clone(),
            tx: self.tx.upgrade()?,
            alive: self.alive.clone(),
            processed: self.processed.clone(),
            queued: self.queued.clone(),
        })
    }
}

/// An in-flight [`ActorRef::ask_pipelined`] reply.
pub struct PendingReply<R> {
    rx: Receiver<R>,
    alive: Arc<AtomicBool>,
}

impl<R> PendingReply<R> {
    /// Blocks up to `timeout` for the reply.
    pub fn wait(self, timeout: Duration) -> Result<R, AskError> {
        self.rx.recv_timeout(timeout).map_err(|_| {
            if self.alive.load(Ordering::SeqCst) {
                AskError::Timeout
            } else {
                AskError::Dead
            }
        })
    }
}

/// One-shot reply carried inside request messages: either the channel an
/// [`ActorRef::ask`] waits on, or a message told to another actor
/// ([`ReplyTo::tell`]). The replying actor cannot tell them apart.
pub struct ReplyTo<R>(Reply<R>);

enum Reply<R> {
    Channel(Sender<R>),
    Tell(Box<dyn FnOnce(R) -> bool + Send>),
}

impl<R> ReplyTo<R> {
    /// A reply that arrives in `actor`'s mailbox as `wrap(value)`: the
    /// replier pushes its answer to the requesting actor instead of
    /// waking a blocked asker.
    pub fn tell<M: Send + 'static>(
        actor: &ActorRef<M>,
        wrap: impl FnOnce(R) -> M + Send + 'static,
    ) -> Self {
        let tx = actor.tx.clone();
        let queued = actor.queued.clone();
        ReplyTo(Reply::Tell(Box::new(move |value| {
            send_counted(&tx, &queued, Envelope::Msg(wrap(value)))
        })))
    }

    /// Sends the reply; returns `false` if the asker gave up or the
    /// actor to tell has stopped.
    pub fn send(self, value: R) -> bool {
        match self.0 {
            Reply::Channel(tx) => tx.send(value).is_ok(),
            Reply::Tell(tell) => tell(value),
        }
    }
}

/// Enqueues `envelope`, keeping the mailbox-depth gauge in step.
fn send_counted<M>(tx: &Sender<Envelope<M>>, queued: &AtomicUsize, envelope: Envelope<M>) -> bool {
    queued.fetch_add(1, Ordering::SeqCst);
    if tx.send(envelope).is_ok() {
        true
    } else {
        queued.fetch_sub(1, Ordering::SeqCst);
        false
    }
}

/// Internal: the receiving half plus shared liveness flags.
pub(crate) struct Mailbox<M> {
    pub rx: Receiver<Envelope<M>>,
    pub alive: Arc<AtomicBool>,
    pub processed: Arc<AtomicU64>,
    pub queued: Arc<AtomicUsize>,
}

/// Creates a connected `(ActorRef, Mailbox)` pair.
pub(crate) fn mailbox<M: Send + 'static>(name: &str) -> (ActorRef<M>, Mailbox<M>) {
    let (tx, rx) = crossbeam::channel::unbounded();
    let alive = Arc::new(AtomicBool::new(false));
    let processed = Arc::new(AtomicU64::new(0));
    let queued = Arc::new(AtomicUsize::new(0));
    (
        ActorRef {
            name: name.to_string(),
            tx: Arc::new(tx),
            alive: alive.clone(),
            processed: processed.clone(),
            queued: queued.clone(),
        },
        Mailbox {
            rx,
            alive,
            processed,
            queued,
        },
    )
}
