//! Step-frontier progress tracking for the serve plane.
//!
//! Every consumer of the serve stream — a client session tracked by the
//! [`DataServer`], whether it dials over the in-process loopback or from
//! another process — holds a *capability* at
//! the lowest step it may still need. The [`FrontierHub`] is the serve
//! plane's only record of consumer progress: the driver reads it for
//! backpressure and for the end-of-session drain, and folds its cursors
//! into a single global frontier, the minimum over all live holders. The
//! fold follows timely dataflow's progress-tracking contract ("timestamp
//! t can never appear here again"):
//!
//! * the frontier is **monotone non-decreasing** — once a step retires it
//!   stays retired, so pruning a plan-log prefix or a ready queue below
//!   the frontier is provably safe, not a window-size guess;
//! * a holder's cursor only moves forward (`advance` takes the max);
//! * releasing a capability (client `Close`, drop, or lease eviction)
//!   removes the holder from the fold — a departed consumer can neither
//!   hold back nor falsely advance global retirement;
//! * re-acquiring below the frontier is *clamped up*: the granted cursor is
//!   `max(requested, frontier)`, because steps below the frontier have
//!   already been retired and can never be replayed from retained state.
//!
//! The fold's highest cursor is the serve plane's demand: the driver
//! broadcasts a step only once some client has consumed the one before,
//! so it runs one step ahead of the fastest consumer, and the lowest
//! cursor caps it at `queue_depth` steps ahead of the slowest.
//!
//! Retirement policy everywhere downstream is then a single rule:
//! `step < frontier ⇒ retire eagerly; step ≥ frontier ⇒ must retain`.
//! The driver's retained window (the constructors' one ready queue) and
//! the GCS plan log both follow it; a constructor whose clients all hold
//! live capabilities has its share of the window trimmed below the
//! lowest of their own cursors, which is never below the frontier.
//!
//! [`DataServer`]: crate::system::server::DataServer

use std::collections::{BTreeMap, HashMap};
use std::ops::RangeInclusive;
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::Instant;

/// A capability holder in the frontier fold. Consumers are the only
/// holders: constructors keep no cursors and no steps of their own; the
/// serve driver trims each one's share of its retained window by the
/// frontier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Holder {
    /// A serve-stream consumer — a data-server client session, local or
    /// remote — keyed by client id. Its cursor is the next step it will
    /// consume.
    Client(u32),
}

impl std::fmt::Display for Holder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let Holder::Client(id) = self;
        write!(f, "client/{id}")
    }
}

#[derive(Debug, Default)]
struct HubState {
    /// Live capability cursors.
    holders: HashMap<Holder, u64>,
    /// Count-multiset of cursors for O(log n) min maintenance.
    counts: BTreeMap<u64, u32>,
    /// The folded global frontier. Monotone: only ever ratcheted up.
    frontier: u64,
    /// Acquires that asked for a cursor below the frontier and were
    /// clamped up (resume-after-retirement).
    clamped_acquires: u64,
    /// Capabilities released (close, eviction, completion).
    releases: u64,
    /// Threads blocked in [`FrontierHub::wait_until`]. A change signals
    /// the condvar only when there are some: a wake is a syscall even
    /// with nobody waiting, and cursors advance every step.
    waiters: u32,
}

impl HubState {
    fn count_insert(&mut self, cursor: u64) {
        *self.counts.entry(cursor).or_insert(0) += 1;
    }

    fn count_remove(&mut self, cursor: u64) {
        if let Some(n) = self.counts.get_mut(&cursor) {
            *n -= 1;
            if *n == 0 {
                self.counts.remove(&cursor);
            }
        }
    }

    /// The live cursors, lowest to highest.
    fn cursors(&self) -> Option<RangeInclusive<u64>> {
        let (&min, _) = self.counts.first_key_value()?;
        let (&max, _) = self.counts.last_key_value()?;
        Some(min..=max)
    }

    /// Ratchets the frontier up to the current min over live holders.
    /// With no holders the frontier stays where it is — an empty fold
    /// proves nothing new retired.
    fn refold(&mut self) {
        if let Some((&min, _)) = self.counts.iter().next() {
            self.frontier = self.frontier.max(min);
        }
    }
}

/// Shared fold of consumed-frontier reports (see module docs).
///
/// Cheap to clone behind an `Arc`; all methods take `&self`.
#[derive(Debug, Default)]
pub struct FrontierHub {
    state: Mutex<HubState>,
    /// Signalled by [`FrontierHub::wake`] and every cursor change.
    changed: Condvar,
}

/// A point-in-time snapshot of the fold, for checkpointing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrontierSnapshot {
    /// The folded global frontier.
    pub frontier: u64,
    /// Live holders and their cursors, sorted for determinism.
    pub holders: Vec<(Holder, u64)>,
}

/// The serve driver's GCS-persisted frontier record (MSDB frame kind
/// 13, see [`crate::codec::encode_frontier_checkpoint`]). Steps are
/// session-local; `plan_base` maps them onto the planner's global step
/// counter so recovery can prove which plan-log entries are retired:
/// plan-log step `plan_base + frontier` is the retirement floor.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FrontierCheckpoint {
    /// Folded global frontier, in session steps.
    pub frontier: u64,
    /// Steps the serve driver had served when this was written.
    pub served: u64,
    /// Planner global step of this session's step 0.
    pub plan_base: u64,
    /// Plan-log entries below this *planner* step have been pruned.
    pub pruned_below: u64,
    /// Live holders and their cursors at checkpoint time.
    pub holders: Vec<(Holder, u64)>,
}

impl FrontierHub {
    /// Creates an empty hub with the frontier at 0.
    pub fn new() -> Self {
        FrontierHub::default()
    }

    /// The fold's state. The `expect` cannot fire: a mutex is poisoned
    /// only by a panic while it is held, and no hub method can panic
    /// while holding this one. Every critical section is map and
    /// multiset bookkeeping on integers — no indexing, no unwrap — and
    /// its only arithmetic is counters bounded by the number of holders
    /// or of calls, plus a multiset decrement that runs only on a count
    /// of at least 1 (zero counts are removed). The one call into caller
    /// code is [`FrontierHub::wait_until`]'s condition, which the serve
    /// driver passes as a flag load and cursor comparisons.
    fn state(&self) -> MutexGuard<'_, HubState> {
        self.state
            .lock()
            .expect("frontier hub lock: no hub method panics while holding it")
    }

    /// Wakes every [`FrontierHub::wait_until`] caller to re-check its
    /// condition — for whoever flips a flag a condition reads (a
    /// session's stop). Cursor changes wake waiters on their own.
    pub fn wake(&self) {
        self.notify(&self.state());
    }

    /// Signals waiters, if any, with the lock held (so none can miss it
    /// between checking its condition and blocking).
    fn notify(&self, s: &HubState) {
        if s.waiters > 0 {
            self.changed.notify_all();
        }
    }

    /// Blocks until `ready(cursors)` holds or `deadline` passes, where
    /// `cursors` runs from the lowest live client cursor to the highest
    /// (`None` with no live holder), re-checking after every acquire,
    /// advance, release and [`FrontierHub::wake`]. Returns whether
    /// `ready` held.
    pub fn wait_until(
        &self,
        deadline: Instant,
        mut ready: impl FnMut(Option<RangeInclusive<u64>>) -> bool,
    ) -> bool {
        let mut s = self.state();
        while !ready(s.cursors()) {
            let Some(left) = deadline.checked_duration_since(Instant::now()) else {
                return false;
            };
            s.waiters += 1;
            s = self
                .changed
                .wait_timeout(s, left)
                .expect("frontier hub lock: no hub method panics while holding it")
                .0;
            s.waiters -= 1;
        }
        true
    }

    /// Acquires (or re-acquires) a capability at `at`. Returns the granted
    /// cursor: `max(at, frontier)` — steps below the frontier are already
    /// retired and cannot be held. Re-acquiring an existing holder rebinds
    /// its cursor (still clamped to both the frontier and its own previous
    /// cursor, so a holder can never rewind the fold).
    pub fn acquire(&self, holder: Holder, at: u64) -> u64 {
        let mut s = self.state();
        let mut granted = at.max(s.frontier);
        if at < s.frontier {
            s.clamped_acquires += 1;
        }
        if let Some(&prev) = s.holders.get(&holder) {
            granted = granted.max(prev);
            s.count_remove(prev);
        }
        s.holders.insert(holder, granted);
        s.count_insert(granted);
        s.refold();
        self.notify(&s);
        granted
    }

    /// Advances a holder's cursor to `to` (monotone: `max` with the current
    /// cursor). Reports from a holder that no longer exists are dropped —
    /// a released capability is gone and cannot influence the fold.
    pub fn advance(&self, holder: Holder, to: u64) {
        let mut s = self.state();
        let Some(&prev) = s.holders.get(&holder) else {
            return;
        };
        if to <= prev {
            return;
        }
        s.count_remove(prev);
        s.holders.insert(holder, to);
        s.count_insert(to);
        s.refold();
        self.notify(&s);
    }

    /// Releases a holder's capability, removing it from the fold. The
    /// frontier ratchets to the min of the *remaining* holders; releasing
    /// the last holder leaves it unchanged (nothing new is proven).
    pub fn release(&self, holder: Holder) {
        let mut s = self.state();
        let Some(prev) = s.holders.remove(&holder) else {
            return;
        };
        s.releases += 1;
        s.count_remove(prev);
        s.refold();
        self.notify(&s);
    }

    /// The current global frontier: every step below it is retired.
    pub fn frontier(&self) -> u64 {
        self.state().frontier
    }

    /// The lowest cursor over live client holders, if any — the first
    /// key of the cursor multiset, and the start of the range a
    /// [`FrontierHub::wait_until`] condition sees: `None` means no client
    /// still consuming.
    pub fn min_client_cursor(&self) -> Option<u64> {
        self.state().counts.keys().next().copied()
    }

    /// Whether `holder` currently holds a capability.
    pub fn holds(&self, holder: Holder) -> bool {
        self.state().holders.contains_key(&holder)
    }

    /// A holder's current cursor, if live.
    pub fn cursor(&self, holder: Holder) -> Option<u64> {
        self.state().holders.get(&holder).copied()
    }

    /// Acquires clamped up because they asked below the frontier.
    pub fn clamped_acquires(&self) -> u64 {
        self.state().clamped_acquires
    }

    /// Capabilities released so far.
    pub fn releases(&self) -> u64 {
        self.state().releases
    }

    /// Snapshot of the fold for checkpointing.
    pub fn snapshot(&self) -> FrontierSnapshot {
        let s = self.state();
        let mut holders: Vec<(Holder, u64)> = s.holders.iter().map(|(h, c)| (*h, *c)).collect();
        holders.sort();
        FrontierSnapshot {
            frontier: s.frontier,
            holders,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn frontier_is_min_over_live_holders() {
        let hub = FrontierHub::new();
        hub.acquire(Holder::Client(0), 0);
        hub.acquire(Holder::Client(1), 0);
        assert_eq!(hub.frontier(), 0);
        hub.advance(Holder::Client(0), 10);
        assert_eq!(hub.frontier(), 0, "client 1 still at 0");
        hub.advance(Holder::Client(1), 7);
        assert_eq!(hub.frontier(), 7);
        hub.advance(Holder::Client(1), 20);
        assert_eq!(hub.frontier(), 10, "client 0 is now the straggler");
    }

    #[test]
    fn release_removes_holder_from_fold() {
        let hub = FrontierHub::new();
        hub.acquire(Holder::Client(0), 0);
        hub.acquire(Holder::Client(1), 0);
        hub.advance(Holder::Client(0), 50);
        assert_eq!(hub.frontier(), 0);
        hub.release(Holder::Client(1));
        assert_eq!(hub.frontier(), 50, "laggard's release unblocks the fold");
        assert_eq!(hub.releases(), 1);
    }

    #[test]
    fn released_holder_cannot_advance_or_hold_back() {
        let hub = FrontierHub::new();
        hub.acquire(Holder::Client(0), 0);
        hub.acquire(Holder::Client(1), 0);
        hub.advance(Holder::Client(0), 5);
        hub.release(Holder::Client(1));
        assert_eq!(hub.frontier(), 5);
        // A stale report from the departed holder is dropped.
        hub.advance(Holder::Client(1), 1000);
        assert_eq!(hub.frontier(), 5);
        assert!(!hub.holds(Holder::Client(1)));
    }

    #[test]
    fn reacquire_below_frontier_is_clamped() {
        let hub = FrontierHub::new();
        hub.acquire(Holder::Client(0), 0);
        hub.advance(Holder::Client(0), 40);
        assert_eq!(hub.frontier(), 40);
        // A rejoining client asking for retired steps is clamped up.
        let granted = hub.acquire(Holder::Client(1), 3);
        assert_eq!(granted, 40);
        assert_eq!(hub.frontier(), 40);
        assert_eq!(hub.clamped_acquires(), 1);
    }

    #[test]
    fn frontier_is_monotone_across_release_of_last_holder() {
        let hub = FrontierHub::new();
        hub.acquire(Holder::Client(0), 0);
        hub.advance(Holder::Client(0), 12);
        hub.release(Holder::Client(0));
        assert_eq!(hub.frontier(), 12, "empty fold keeps the last frontier");
        // A fresh join at 0 is clamped to the retired prefix.
        assert_eq!(hub.acquire(Holder::Client(2), 0), 12);
    }

    #[test]
    fn reacquire_never_rewinds_an_existing_holder() {
        let hub = FrontierHub::new();
        hub.acquire(Holder::Client(0), 0);
        hub.advance(Holder::Client(0), 9);
        let granted = hub.acquire(Holder::Client(0), 2);
        assert_eq!(granted, 9, "rebind keeps the forward-most cursor");
        assert_eq!(hub.cursor(Holder::Client(0)), Some(9));
    }

    #[test]
    fn min_client_cursor_is_the_lowest_live_cursor() {
        let hub = FrontierHub::new();
        assert_eq!(hub.min_client_cursor(), None);
        hub.acquire(Holder::Client(7), 4);
        hub.acquire(Holder::Client(2), 9);
        assert_eq!(hub.min_client_cursor(), Some(4));
        hub.advance(Holder::Client(7), 12);
        assert_eq!(hub.min_client_cursor(), Some(9));
        hub.release(Holder::Client(2));
        assert_eq!(hub.min_client_cursor(), Some(12));
        // An empty fold reports no consumer, though the frontier stays.
        hub.release(Holder::Client(7));
        assert_eq!(hub.min_client_cursor(), None);
        assert_eq!(hub.frontier(), 12);
    }

    /// Runs `change` on another thread after a beat, while this one
    /// waits for the lowest cursor to leave 0; returns what the wait
    /// returned and how long it took.
    fn wait_across(
        hub: &std::sync::Arc<FrontierHub>,
        change: impl FnOnce(&FrontierHub) + Send + 'static,
    ) -> (bool, Duration) {
        let other = hub.clone();
        let changer = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            change(&other);
        });
        let start = Instant::now();
        let woke = hub.wait_until(start + Duration::from_secs(5), |live| {
            live.is_none_or(|c| *c.start() != 0)
        });
        changer.join().unwrap();
        (woke, start.elapsed())
    }

    #[test]
    fn wait_wakes_on_advance_and_on_release() {
        let hub = std::sync::Arc::new(FrontierHub::new());
        hub.acquire(Holder::Client(0), 0);
        let (woke, took) = wait_across(&hub, |hub| hub.advance(Holder::Client(0), 3));
        assert!(
            woke && took < Duration::from_secs(1),
            "advance: {woke} after {took:?}"
        );

        let hub = std::sync::Arc::new(FrontierHub::new());
        hub.acquire(Holder::Client(0), 0);
        hub.acquire(Holder::Client(1), 4);
        let (woke, took) = wait_across(&hub, |hub| hub.release(Holder::Client(0)));
        assert!(
            woke && took < Duration::from_secs(1),
            "release: {woke} after {took:?}"
        );
    }

    #[test]
    fn wait_returns_false_at_its_deadline() {
        let hub = FrontierHub::new();
        hub.acquire(Holder::Client(0), 0);
        let start = Instant::now();
        let deadline = start + Duration::from_millis(30);
        let above_0 = |live: Option<RangeInclusive<u64>>| live.is_none_or(|c| *c.start() != 0);
        assert!(!hub.wait_until(deadline, above_0));
        assert!(Instant::now() >= deadline);
        // An advance that leaves the lowest cursor in place wakes the
        // waiter but does not satisfy it.
        hub.acquire(Holder::Client(1), 0);
        hub.advance(Holder::Client(1), 5);
        assert!(!hub.wait_until(Instant::now() + Duration::from_millis(10), above_0));
        // The highest cursor is there too: the serve driver's demand.
        assert!(hub.wait_until(Instant::now(), |live| live == Some(0..=5)));
    }

    #[test]
    fn wake_rechecks_a_condition_outside_the_hub() {
        let hub = std::sync::Arc::new(FrontierHub::new());
        hub.acquire(Holder::Client(0), 0);
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let flag = stop.clone();
        let other = hub.clone();
        let stopper = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            flag.store(true, std::sync::atomic::Ordering::SeqCst);
            other.wake();
        });
        let start = Instant::now();
        assert!(hub.wait_until(start + Duration::from_secs(5), |_| stop
            .load(std::sync::atomic::Ordering::SeqCst)));
        assert!(start.elapsed() < Duration::from_secs(1));
        stopper.join().unwrap();
    }

    #[test]
    fn snapshot_is_sorted_and_complete() {
        let hub = FrontierHub::new();
        // Lowest holder first: a sole holder at 5 would ratchet the
        // frontier to 5 and clamp every later acquire up to it.
        hub.acquire(Holder::Client(0), 2);
        hub.acquire(Holder::Client(3), 5);
        hub.acquire(Holder::Client(1), 8);
        let snap = hub.snapshot();
        assert_eq!(snap.frontier, 2);
        assert_eq!(
            snap.holders,
            vec![
                (Holder::Client(0), 2),
                (Holder::Client(1), 8),
                (Holder::Client(3), 5),
            ]
        );
    }
}
