//! Actor system: spawning, supervision, restart policies.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use crossbeam::channel::{RecvTimeoutError, TryRecvError};
use parking_lot::Mutex;

use crate::actor::{mailbox, Actor, ActorRef, Ctx, Envelope, Mailbox};

/// What to do when an actor panics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RestartPolicy {
    /// Let the actor die; `ask` calls then return `Dead`.
    Never,
    /// Recreate the actor from its factory, up to `max_restarts` times.
    Restart {
        /// Maximum number of restarts before giving up.
        max_restarts: u32,
    },
}

/// Owns actor threads and joins them on shutdown.
///
/// # Examples
///
/// ```
/// use msd_actor::{Actor, ActorSystem, Ctx};
///
/// struct Counter(u64);
/// enum Msg { Add(u64), Get(msd_actor::actor::ReplyTo<u64>) }
/// impl Actor for Counter {
///     type Msg = Msg;
///     fn handle(&mut self, msg: Msg, _ctx: &mut Ctx) {
///         match msg {
///             Msg::Add(n) => self.0 += n,
///             Msg::Get(reply) => { reply.send(self.0); }
///         }
///     }
/// }
///
/// let system = ActorSystem::new("demo");
/// let counter = system.spawn("counter", Counter(0));
/// counter.tell(Msg::Add(2));
/// counter.tell(Msg::Add(3));
/// let v = counter.ask(Msg::Get, std::time::Duration::from_secs(1)).unwrap();
/// assert_eq!(v, 5);
/// counter.stop(); // Actors run until stopped (or every sender drops)...
/// system.shutdown(); // ...and shutdown joins their threads.
/// ```
/// Handles are shared behind an `Arc`, so the system is cheaply clonable:
/// a clone spawns into (and is joined with) the same thread pool. This is
/// what lets a control-plane actor provision *new* supervised actors at
/// runtime — it carries a clone of the system it lives in.
#[derive(Clone)]
pub struct ActorSystem {
    name: String,
    handles: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl ActorSystem {
    /// Creates a named system.
    pub fn new(name: impl Into<String>) -> Self {
        ActorSystem {
            name: name.into(),
            handles: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// System name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Spawns an unsupervised actor on its own thread.
    pub fn spawn<A: Actor>(&self, name: &str, actor: A) -> ActorRef<A::Msg> {
        let (aref, mbox) = mailbox::<A::Msg>(name);
        let name = name.to_string();
        let handle = std::thread::Builder::new()
            .name(format!("{}/{}", self.name, name))
            .spawn(move || {
                let mut actor = actor;
                let result = catch_unwind(AssertUnwindSafe(|| {
                    run_actor_loop(&mut actor, &mbox, &name, 0)
                }));
                mbox.alive.store(false, Ordering::SeqCst);
                mbox.stopped.store(true, Ordering::SeqCst);
                // An unsupervised panic stays contained to this actor; the
                // harness observes it through `is_stopped` / ask errors.
                drop(result);
            })
            .expect("failed to spawn actor thread");
        self.handles.lock().push(handle);
        aref
    }

    /// Spawns a supervised actor: after a panic the actor is rebuilt from
    /// `factory` (state resets to the factory's output — recovering durable
    /// state from the GCS is the actor's job in `started`).
    pub fn spawn_supervised<A: Actor>(
        &self,
        name: &str,
        policy: RestartPolicy,
        factory: impl Fn() -> A + Send + 'static,
    ) -> ActorRef<A::Msg> {
        self.spawn_supervised_with(name, policy, move |_| factory())
    }

    /// [`ActorSystem::spawn_supervised`] for an actor that needs its own
    /// handle — to have other actors reply into its mailbox with
    /// [`ReplyTo::tell`](crate::actor::ReplyTo::tell). Every incarnation's
    /// factory receives the same handle, so replies addressed to a crashed
    /// incarnation reach its successor.
    pub fn spawn_supervised_with<A: Actor>(
        &self,
        name: &str,
        policy: RestartPolicy,
        factory: impl Fn(&ActorRef<A::Msg>) -> A + Send + 'static,
    ) -> ActorRef<A::Msg> {
        let (aref, mbox) = mailbox::<A::Msg>(name);
        let weak = aref.downgrade();
        let mut first = Some(aref.clone());
        let name = name.to_string();
        let handle = std::thread::Builder::new()
            .name(format!("{}/{}", self.name, name))
            .spawn(move || {
                let mut restarts = 0u32;
                loop {
                    // Every strong handle has dropped: nothing could reach
                    // a new incarnation, so none starts.
                    let Some(me) = first.take().or_else(|| weak.upgrade()) else {
                        break;
                    };
                    let mut actor = factory(&me);
                    drop(me);
                    let finished = catch_unwind(AssertUnwindSafe(|| {
                        run_actor_loop(&mut actor, &mbox, &name, restarts)
                    }));
                    match finished {
                        Ok(()) => break, // Clean stop or mailbox closed.
                        Err(_) => {
                            mbox.alive.store(false, Ordering::SeqCst);
                            match policy {
                                RestartPolicy::Never => break,
                                RestartPolicy::Restart { max_restarts } => {
                                    if restarts >= max_restarts {
                                        break;
                                    }
                                    restarts += 1;
                                }
                            }
                        }
                    }
                }
                mbox.alive.store(false, Ordering::SeqCst);
                mbox.stopped.store(true, Ordering::SeqCst);
            })
            .expect("failed to spawn supervised actor thread");
        self.handles.lock().push(handle);
        aref
    }

    /// Joins all actor threads. Call after stopping actors; joining with
    /// live unstopped actors blocks until their mailboxes close.
    pub fn shutdown(&self) {
        let handles: Vec<_> = self.handles.lock().drain(..).collect();
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Drop for ActorSystem {
    fn drop(&mut self) {
        // Detach remaining threads; they exit when their senders drop.
    }
}

/// Runs the message loop until Stop, mailbox closure, or panic.
fn run_actor_loop<A: Actor>(actor: &mut A, mbox: &Mailbox<A::Msg>, name: &str, restarts: u32) {
    let mut ctx = Ctx {
        name: name.to_string(),
        restarts,
        stop_requested: false,
    };
    mbox.alive.store(true, Ordering::SeqCst);
    actor.started(&mut ctx);
    // Whether the actor may have idle work: true until its `idle` says
    // otherwise, and again after every message.
    let mut idle = true;
    while !ctx.stop_requested {
        let deadline = actor.deadline();
        if deadline.is_some_and(|at| at <= Instant::now()) {
            actor.deadline_passed(&mut ctx);
            continue;
        }
        let envelope = match mbox.rx.try_recv() {
            Ok(envelope) => envelope,
            Err(TryRecvError::Disconnected) => break, // All senders dropped.
            Err(TryRecvError::Empty) if idle => {
                idle = actor.idle(&mut ctx);
                continue;
            }
            Err(TryRecvError::Empty) => match deadline {
                None => match mbox.rx.recv() {
                    Ok(envelope) => envelope,
                    Err(_) => break,
                },
                Some(at) => match mbox
                    .rx
                    .recv_timeout(at.saturating_duration_since(Instant::now()))
                {
                    Ok(envelope) => envelope,
                    Err(RecvTimeoutError::Timeout) => continue,
                    Err(RecvTimeoutError::Disconnected) => break,
                },
            },
        };
        idle = true;
        mbox.queued.fetch_sub(1, Ordering::SeqCst);
        match envelope {
            Envelope::Msg(m) => {
                // Count at dequeue, before any reply can be observed, so
                // `processed()` is never behind a reply the asker holds.
                mbox.processed.fetch_add(1, Ordering::SeqCst);
                actor.handle(m, &mut ctx);
            }
            Envelope::Stop => break,
            Envelope::Crash(reason) => {
                panic!("injected crash in actor {name}: {reason}");
            }
            Envelope::Delay(d) => std::thread::sleep(d),
        }
    }
    mbox.alive.store(false, Ordering::SeqCst);
    actor.stopped();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actor::{AskError, ReplyTo};
    use std::time::Duration;

    struct Counter {
        value: u64,
    }

    enum CounterMsg {
        Add(u64),
        Get(ReplyTo<u64>),
        SlowGet(ReplyTo<u64>, Duration),
    }

    impl Actor for Counter {
        type Msg = CounterMsg;
        fn handle(&mut self, msg: CounterMsg, _ctx: &mut Ctx) {
            match msg {
                CounterMsg::Add(n) => self.value += n,
                CounterMsg::Get(reply) => {
                    reply.send(self.value);
                }
                CounterMsg::SlowGet(reply, delay) => {
                    std::thread::sleep(delay);
                    reply.send(self.value);
                }
            }
        }
    }

    fn ask_timeout() -> Duration {
        Duration::from_secs(5)
    }

    #[test]
    fn tell_then_ask_observes_ordering() {
        let sys = ActorSystem::new("t");
        let a = sys.spawn("counter", Counter { value: 0 });
        for _ in 0..100 {
            a.tell(CounterMsg::Add(1));
        }
        let v = a.ask(CounterMsg::Get, ask_timeout()).unwrap();
        assert_eq!(v, 100);
        a.stop();
        sys.shutdown();
    }

    #[test]
    fn ask_timeout_fires_on_slow_actor() {
        let sys = ActorSystem::new("t");
        let a = sys.spawn("counter", Counter { value: 7 });
        let r = a.ask(
            |tx| CounterMsg::SlowGet(tx, Duration::from_millis(300)),
            Duration::from_millis(20),
        );
        assert_eq!(r, Err(AskError::Timeout));
        a.stop();
        sys.shutdown();
    }

    #[test]
    fn unsupervised_crash_kills_actor() {
        let sys = ActorSystem::new("t");
        let a = sys.spawn("counter", Counter { value: 0 });
        a.tell(CounterMsg::Add(1));
        a.inject_crash("boom");
        sys.shutdown();
        assert!(!a.is_alive());
        let r = a.ask(CounterMsg::Get, Duration::from_millis(100));
        assert!(r.is_err());
    }

    #[test]
    fn supervised_crash_restarts_with_fresh_state() {
        let sys = ActorSystem::new("t");
        let a = sys.spawn_supervised(
            "counter",
            RestartPolicy::Restart { max_restarts: 3 },
            || Counter { value: 0 },
        );
        a.tell(CounterMsg::Add(41));
        assert_eq!(a.ask(CounterMsg::Get, ask_timeout()).unwrap(), 41);
        a.inject_crash("boom");
        // After restart, in-memory state is reset (durable state would be
        // re-hydrated from the GCS in `started`).
        let mut value = None;
        for _ in 0..50 {
            match a.ask(CounterMsg::Get, Duration::from_millis(200)) {
                Ok(v) => {
                    value = Some(v);
                    break;
                }
                Err(_) => std::thread::sleep(Duration::from_millis(10)),
            }
        }
        assert_eq!(value, Some(0));
        assert!(!a.is_stopped(), "a restarted actor reads stopped");
        a.tell(CounterMsg::Add(5));
        assert_eq!(a.ask(CounterMsg::Get, ask_timeout()).unwrap(), 5);
        a.stop();
        sys.shutdown();
        assert!(a.is_stopped());
    }

    #[test]
    fn cloned_system_spawns_into_the_same_pool() {
        let sys = ActorSystem::new("t");
        let cloned = sys.clone();
        assert_eq!(cloned.name(), "t");
        let a = cloned.spawn("counter", Counter { value: 0 });
        a.tell(CounterMsg::Add(9));
        assert_eq!(a.ask(CounterMsg::Get, ask_timeout()).unwrap(), 9);
        a.stop();
        // Joining the *original* system reaps the clone-spawned thread.
        sys.shutdown();
        assert!(!a.is_alive());
    }

    #[test]
    fn restart_budget_is_bounded() {
        let sys = ActorSystem::new("t");
        let a = sys.spawn_supervised(
            "counter",
            RestartPolicy::Restart { max_restarts: 1 },
            || Counter { value: 0 },
        );
        a.inject_crash("first");
        a.inject_crash("second");
        sys.shutdown();
        assert!(!a.is_alive());
        assert!(a.is_stopped());
    }

    #[test]
    fn an_actor_not_yet_started_is_neither_alive_nor_stopped() {
        let sys = ActorSystem::new("t");
        let (release, gate) = std::sync::mpsc::channel::<()>();
        let a = sys.spawn_supervised("counter", RestartPolicy::Never, move || {
            let _ = gate.recv(); // Held until the test releases it.
            Counter { value: 0 }
        });
        assert!(!a.is_alive());
        assert!(!a.is_stopped());
        drop(release);
        assert_eq!(a.ask(CounterMsg::Get, ask_timeout()).unwrap(), 0);
        a.stop();
        sys.shutdown();
        assert!(a.is_stopped());
    }

    #[test]
    fn processed_counter_advances() {
        let sys = ActorSystem::new("t");
        let a = sys.spawn("counter", Counter { value: 0 });
        for _ in 0..10 {
            a.tell(CounterMsg::Add(1));
        }
        let _ = a.ask(CounterMsg::Get, ask_timeout()).unwrap();
        assert!(a.processed() >= 11);
        a.stop();
        sys.shutdown();
    }

    #[test]
    fn pipelined_asks_collect_out_of_band() {
        let sys = ActorSystem::new("t");
        let a = sys.spawn("a", Counter { value: 1 });
        let b = sys.spawn("b", Counter { value: 2 });
        // Issue both asks before collecting either reply.
        let pa = a.ask_pipelined(CounterMsg::Get).unwrap();
        let pb = b.ask_pipelined(CounterMsg::Get).unwrap();
        assert_eq!(pb.wait(ask_timeout()).unwrap(), 2);
        assert_eq!(pa.wait(ask_timeout()).unwrap(), 1);
        a.stop();
        b.stop();
        sys.shutdown();
    }

    #[test]
    fn mailbox_depth_tracks_backlog() {
        let sys = ActorSystem::new("t");
        let a = sys.spawn("counter", Counter { value: 0 });
        // Stall the actor so sends pile up behind the delay envelope.
        a.inject_delay(Duration::from_millis(150));
        std::thread::sleep(Duration::from_millis(20)); // Let the stall start.
        for _ in 0..10 {
            a.tell(CounterMsg::Add(1));
        }
        assert!(a.mailbox_depth() >= 10);
        let _ = a.ask(CounterMsg::Get, ask_timeout()).unwrap();
        assert_eq!(a.mailbox_depth(), 0);
        a.stop();
        sys.shutdown();
    }

    /// Reports each passed deadline on `fired` and clears it.
    struct Timed {
        at: Option<Instant>,
        fired: std::sync::mpsc::Sender<Instant>,
    }

    impl Actor for Timed {
        type Msg = ();
        fn handle(&mut self, _msg: (), _ctx: &mut Ctx) {
            std::thread::sleep(Duration::from_micros(200));
        }
        fn deadline(&self) -> Option<Instant> {
            self.at
        }
        fn deadline_passed(&mut self, _ctx: &mut Ctx) {
            let _ = self.fired.send(Instant::now());
            self.at = None;
        }
    }

    fn spawn_timed(
        sys: &ActorSystem,
        after: Duration,
    ) -> (ActorRef<()>, Instant, std::sync::mpsc::Receiver<Instant>) {
        let (fired, rx) = std::sync::mpsc::channel();
        let at = Instant::now() + after;
        let a = sys.spawn(
            "timed",
            Timed {
                at: Some(at),
                fired,
            },
        );
        (a, at, rx)
    }

    #[test]
    fn deadline_fires_on_an_idle_mailbox() {
        let sys = ActorSystem::new("t");
        let (a, at, fired) = spawn_timed(&sys, Duration::from_millis(30));
        let when = fired
            .recv_timeout(ask_timeout())
            .expect("deadline never fired");
        assert!(when >= at);
        assert!(
            fired.recv_timeout(Duration::from_millis(50)).is_err(),
            "fired twice"
        );
        a.stop();
        sys.shutdown();
    }

    #[test]
    fn deadline_fires_on_time_under_a_busy_mailbox() {
        let sys = ActorSystem::new("t");
        let (a, at, fired) = spawn_timed(&sys, Duration::from_millis(50));
        // Keep messages queued for well past the deadline, so the actor
        // never waits on an empty mailbox.
        let spammer = {
            let a = a.clone();
            std::thread::spawn(move || {
                let until = Instant::now() + Duration::from_millis(400);
                while Instant::now() < until {
                    if a.mailbox_depth() < 16 {
                        a.tell(());
                    } else {
                        std::thread::yield_now();
                    }
                }
            })
        };
        let when = fired
            .recv_timeout(ask_timeout())
            .expect("deadline never fired");
        assert!(when >= at);
        assert!(
            when < at + Duration::from_millis(150),
            "deadline starved by a busy mailbox: fired {:?} late",
            when - at
        );
        spammer.join().unwrap();
        a.stop();
        sys.shutdown();
    }

    enum Collected {
        Value(u64),
        Take(ReplyTo<Vec<u64>>),
    }

    struct Collector(Vec<u64>);

    impl Actor for Collector {
        type Msg = Collected;
        fn handle(&mut self, msg: Collected, _ctx: &mut Ctx) {
            match msg {
                Collected::Value(v) => self.0.push(v),
                Collected::Take(reply) => {
                    reply.send(std::mem::take(&mut self.0));
                }
            }
        }
    }

    #[test]
    fn tell_reply_lands_in_the_target_mailbox() {
        let sys = ActorSystem::new("t");
        let counter = sys.spawn("counter", Counter { value: 0 });
        let collector_sys = ActorSystem::new("c");
        let collector = collector_sys.spawn("collector", Collector(Vec::new()));
        counter.tell(CounterMsg::Add(7));
        counter.tell(CounterMsg::Get(ReplyTo::tell(&collector, Collected::Value)));
        // The counter's reply is queued ahead of anything it handles
        // later, so one more ask orders it before the Take below.
        counter.ask(CounterMsg::Get, ask_timeout()).unwrap();
        let got = collector.ask(Collected::Take, ask_timeout()).unwrap();
        assert_eq!(got, vec![7]);

        // Once the target has stopped, a tell reply reports the loss.
        collector.stop();
        collector_sys.shutdown();
        assert!(!ReplyTo::tell(&collector, Collected::Value).send(1));
        counter.stop();
        sys.shutdown();
    }

    /// Tells itself `Add(1)` on start, through the handle its factory got.
    struct SelfTeller {
        me: ActorRef<CounterMsg>,
        value: u64,
    }

    impl Actor for SelfTeller {
        type Msg = CounterMsg;
        fn started(&mut self, _ctx: &mut Ctx) {
            self.me.tell(CounterMsg::Add(1));
        }
        fn handle(&mut self, msg: CounterMsg, _ctx: &mut Ctx) {
            match msg {
                CounterMsg::Add(n) => self.value += n,
                CounterMsg::Get(reply) | CounterMsg::SlowGet(reply, _) => {
                    reply.send(self.value);
                }
            }
        }
    }

    #[test]
    fn every_incarnation_gets_its_own_handle() {
        let sys = ActorSystem::new("t");
        let a =
            sys.spawn_supervised_with("self", RestartPolicy::Restart { max_restarts: 1 }, |me| {
                SelfTeller {
                    me: me.clone(),
                    value: 0,
                }
            });
        // The self-told Add may land behind a Get sent at spawn: poll.
        let reaches_one = |a: &ActorRef<CounterMsg>| {
            let until = Instant::now() + ask_timeout();
            while Instant::now() < until {
                if a.ask(CounterMsg::Get, ask_timeout()) == Ok(1) {
                    return true;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            false
        };
        assert!(reaches_one(&a));
        a.inject_crash("boom");
        assert!(reaches_one(&a), "the restarted incarnation lost its handle");
        a.stop();
        sys.shutdown();
    }

    #[test]
    fn supervised_actor_ends_when_every_handle_drops() {
        let sys = ActorSystem::new("t");
        let a = sys.spawn_supervised(
            "counter",
            RestartPolicy::Restart { max_restarts: 1 },
            || Counter { value: 0 },
        );
        a.tell(CounterMsg::Add(1));
        drop(a);
        let (done, joined) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            sys.shutdown();
            let _ = done.send(());
        });
        joined
            .recv_timeout(ask_timeout())
            .expect("the supervisor kept an unreachable actor alive");
    }

    #[test]
    fn injected_delay_stalls_processing() {
        let sys = ActorSystem::new("t");
        let a = sys.spawn("counter", Counter { value: 0 });
        a.inject_delay(Duration::from_millis(100));
        a.tell(CounterMsg::Add(1));
        let t0 = std::time::Instant::now();
        let v = a.ask(CounterMsg::Get, ask_timeout()).unwrap();
        assert_eq!(v, 1);
        assert!(t0.elapsed() >= Duration::from_millis(80));
        a.stop();
        sys.shutdown();
    }

    /// An actor with `left` quanta of idle work, 1 ms each, that notes
    /// how many quanta had run whenever a `Note` is handled.
    struct Idler {
        left: u32,
        ran: u32,
        seen: Vec<u32>,
    }

    enum IdlerMsg {
        /// Blocks the actor until the sender side is dropped.
        Gate(std::sync::mpsc::Receiver<()>),
        Note,
        Seen(ReplyTo<Vec<u32>>),
        /// `(quanta run, quanta left)`.
        Progress(ReplyTo<(u32, u32)>),
    }

    impl Actor for Idler {
        type Msg = IdlerMsg;
        fn handle(&mut self, msg: IdlerMsg, _ctx: &mut Ctx) {
            match msg {
                IdlerMsg::Gate(gate) => drop(gate.recv()),
                IdlerMsg::Note => self.seen.push(self.ran),
                IdlerMsg::Seen(reply) => {
                    reply.send(self.seen.clone());
                }
                IdlerMsg::Progress(reply) => {
                    reply.send((self.ran, self.left));
                }
            }
        }

        fn idle(&mut self, _ctx: &mut Ctx) -> bool {
            if self.left == 0 {
                return false;
            }
            std::thread::sleep(Duration::from_millis(1));
            self.left -= 1;
            self.ran += 1;
            self.left > 0
        }
    }

    #[test]
    fn idle_work_runs_only_on_an_empty_mailbox_and_asks_cut_in() {
        const QUANTA: u32 = 5_000;
        let sys = ActorSystem::new("t");
        let a = sys.spawn(
            "idler",
            Idler {
                left: QUANTA,
                ran: 0,
                seen: Vec::new(),
            },
        );
        // Hold the actor in a handler while ten notes queue up behind it:
        // once released it finds its mailbox non-empty until the last
        // note, so no quantum runs between them.
        let (release, gate) = std::sync::mpsc::channel::<()>();
        a.tell(IdlerMsg::Gate(gate));
        for _ in 0..10 {
            a.tell(IdlerMsg::Note);
        }
        drop(release);
        let seen = a.ask(IdlerMsg::Seen, ask_timeout()).unwrap();
        assert_eq!(seen.len(), 10);
        assert!(seen.iter().all(|&ran| ran == seen[0]), "{seen:?}");
        // Idle work resumes on the empty mailbox, and an ask is answered
        // between two quanta, long before the work is done.
        let mut progress = a.ask(IdlerMsg::Progress, ask_timeout()).unwrap();
        while progress.0 == seen[0] {
            std::thread::sleep(Duration::from_millis(5));
            progress = a.ask(IdlerMsg::Progress, ask_timeout()).unwrap();
        }
        let (ran, left) = progress;
        assert!(ran > seen[0] && left > 0, "{progress:?}");
        assert_eq!(ran + left, QUANTA);
        a.stop();
        sys.shutdown();
    }
}
