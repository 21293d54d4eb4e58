//! Size-classed buffer pool with timely-allocator-style reclaim.
//!
//! The serve path is zero-copy for payload *views* (every `Bytes` is a
//! sub-slice of some larger buffer), but before this module each of
//! those backing buffers was a fresh heap allocation: one per decoded
//! storage block, one per synthesized sample, one per encoded wire
//! frame, one per TCP frame reassembly. At steady state the contents
//! churn but the *shapes* repeat, which is exactly the case a pool
//! wins: hand the same few backing allocations around forever.
//!
//! The catch is ownership. A pooled buffer is usually frozen into
//! `Bytes` and sliced into views that outlive the pipeline stage that
//! produced them — the pool must never recycle a buffer while any view
//! is alive, or payload bytes would be scribbled mid-flight. The pool
//! borrows the timely-dataflow allocator trick: when a buffer is
//! frozen, the pool *parks a clone* of the `Bytes` handle. Once every
//! consumer view drops, the parked handle is the unique owner
//! ([`Bytes::is_unique`]), and a later lease reclaims the storage via
//! [`Bytes::try_into_mut`] — full capacity back, together with the
//! shared header its views counted on.
//!
//! A pooled buffer keeps that header for life: the free lists hold
//! [`BytesMut`], a lease fills one, and [`PooledBuf::freeze`] shares it
//! as it is. So once a class is warm, the whole cycle — lease, fill,
//! freeze, views drop, reclaim, lease again — makes no free and no
//! malloc.
//!
//! Reclaim is a clock sweep, oldest first. A class parks its buffers in
//! a queue in freeze order, and every lease advances over at most
//! `SWEEP_STEP` of the oldest: each whose views have all dropped goes
//! onto the class free list, each still viewed moves to the back of the
//! queue. So a lease costs the same however many buffers are parked, a
//! buffer long held — a Source Loader's raw samples wait in its buffer
//! until a plan pops them — costs one queue slot and a look per turn of
//! the sweep, and a buffer comes back within one turn of its last view
//! dropping.
//!
//! Three ways storage comes back:
//! - **steal** — the lease's own sweep reclaimed a parked `Bytes` that
//!   went unique;
//! - **hit** — a buffer was waiting on the free list (recycled, or
//!   reclaimed by an earlier lease's sweep);
//! - **miss** — nothing available; a fresh buffer is allocated.
//!
//! What the pool holds idle follows demand, not its peak: every
//! `TRIM_INTERVAL` leases of a class, the free-listed buffers that no lease
//! in that interval needed go back to the allocator. A burst — the serve
//! driver running `queue_depth` steps ahead of a stalled client, say —
//! would otherwise pin its peak forever.
//! Some demand cycles slower than that: a serve window hands its raw
//! samples back a retired step at a time, out of step with the loaders
//! leasing new ones, so an interval can miss the cycle's peak and shed
//! what a later lease needs. A lease that misses after a trim shed
//! buffers shows it, and its class trims only every
//! `SLOW_TRIM_INTERVAL` leases from then on, long enough to see the
//! whole cycle.
//!
//! Leases above 1 MiB (`LARGE_LEASE_BYTES`) — TCP frame bodies, stored
//! row groups — skip the size classes. Their shapes repeat only
//! roughly (an `image_tcp` frame is about 3.0 MiB, a few percent either
//! way), so a power-of-two class would hand each a 4 MiB buffer, and a
//! class keeps what its trim interval saw at once: the burst's peak, in
//! frame buffers. One list serves them instead, best fit: a lease takes
//! the smallest idle buffer that fits, and a miss allocates the request
//! plus a sixteenth. Every lease reclaims whatever of the list went
//! unique, and the list then keeps at most one idle buffer, the largest,
//! which fits any frame seen so far; a dropped lease that finds one
//! keeps the larger of the two. So the list holds the frames in flight
//! plus one, not its peak.
//!
//! Requests above `max_class_bytes` fall through to plain allocation
//! (counted as misses) and are never pooled, so exhaustion or odd sizes
//! degrade to exactly the pre-pool behavior — no blocking, no deadlock.
//! All internal locks are short push/pop critical sections on per-class
//! free lists and the large list.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex, OnceLock};

use bytes::{Bytes, BytesMut};

use crate::metrics::Counter;

/// Tuning knobs for a [`BufferPool`].
#[derive(Debug, Clone, Copy)]
pub struct PoolConfig {
    /// Smallest size class in bytes (requests below it round up).
    pub min_class_bytes: usize,
    /// Largest lease the pool serves, in bytes (requests above it bypass
    /// the pool). Leases above 1 MiB come from the large list, the rest
    /// from the power-of-two classes.
    pub max_class_bytes: usize,
    /// Cap on idle buffers a dropped, never-frozen [`PooledBuf`] may
    /// join per class; overflow is dropped (counted as a resize) so the
    /// pool cannot hoard memory. The large list keeps at most one idle
    /// buffer, none when this is 0.
    pub max_free_per_class: usize,
    /// Cap on parked frozen handles per class (and on the large list)
    /// awaiting reclaim. It must
    /// cover the frozen buffers that are alive at once (a loader fleet's
    /// buffered raw samples): a buffer frozen past the cap is never
    /// reclaimed, so its class pays a fresh allocation for it later.
    pub max_parked_per_class: usize,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            min_class_bytes: 1 << 10,
            max_class_bytes: 16 << 20,
            max_free_per_class: 32,
            max_parked_per_class: 4096,
        }
    }
}

/// Leases of one size class between two trims of its free list.
const TRIM_INTERVAL: u32 = 256;

/// The trim interval of a class whose trim shed buffers a later lease
/// needed: about three seconds of a loader fleet's raw-sample leases.
const SLOW_TRIM_INTERVAL: u32 = TRIM_INTERVAL << 8;

/// Parked buffers one lease sweeps, oldest first.
const SWEEP_STEP: usize = 8;

/// Leases above this many bytes come from the large list, not a class.
const LARGE_LEASE_BYTES: usize = 1 << 20;

/// Where a lease is served from, or a returned buffer kept.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Home {
    /// The power-of-two size class of this index.
    Class(usize),
    /// The large list.
    Large,
}

/// One power-of-two size class: recycled buffers ready to hand out, plus
/// frozen handles parked until their consumers drop.
#[derive(Debug, Default)]
struct SizeClass {
    free: Mutex<FreeList>,
    /// Frozen handles in freeze order, oldest at the front.
    parked: Mutex<VecDeque<Bytes>>,
}

/// Advances a class's sweep over at most [`SWEEP_STEP`] of its oldest
/// parked buffers: each whose views have all dropped goes onto `free`,
/// header and all, each still viewed to the back of the queue. Returns
/// whether it reclaimed any.
fn sweep_oldest(parked: &mut VecDeque<Bytes>, free: &mut Vec<BytesMut>) -> bool {
    let before = free.len();
    for _ in 0..SWEEP_STEP.min(parked.len()) {
        let Some(oldest) = parked.pop_front() else {
            break;
        };
        match oldest.try_into_mut() {
            Ok(mut buf) => {
                buf.clear();
                free.push(buf);
            }
            Err(viewed) => parked.push_back(viewed),
        }
    }
    free.len() > before
}

/// A class's recycled buffers, with the demand bookkeeping behind
/// trimming.
#[derive(Debug, Default)]
struct FreeList {
    bufs: Vec<BytesMut>,
    /// Leases of this class since the last trim.
    leases: u32,
    /// Fewest buffers on hand at any of those leases (each of which took
    /// one): all but one of them sat unused through the whole interval.
    /// Starts at 0, so the first interval — warm-up — never trims.
    low_water: usize,
    /// Whether the last trim shed buffers: a miss since then means it
    /// shed what demand came back for.
    shed: bool,
    /// Whether that happened: the class trims every
    /// [`SLOW_TRIM_INTERVAL`] leases instead of [`TRIM_INTERVAL`].
    slow: bool,
}

/// Leases above [`LARGE_LEASE_BYTES`], served best fit from one list.
#[derive(Debug, Default)]
struct LargeList {
    /// Idle buffers: at most one once a lease or a return has sorted
    /// them.
    free: Vec<BytesMut>,
    /// Frozen handles with their buffers' capacities, in freeze order.
    parked: VecDeque<(Bytes, usize)>,
}

impl LargeList {
    /// Serves a lease of `capacity` bytes: reclaims every parked buffer
    /// whose views have all dropped (a few frames are in flight, not
    /// thousands) and takes the smallest idle buffer that fits. Returns
    /// it, if one fits, and whether the reclaim found any.
    fn take(&mut self, capacity: usize) -> (Option<BytesMut>, bool) {
        let before = self.free.len();
        for _ in 0..self.parked.len() {
            let Some((oldest, cap)) = self.parked.pop_front() else {
                break;
            };
            match oldest.try_into_mut() {
                Ok(mut buf) => {
                    buf.clear();
                    self.free.push(buf);
                }
                Err(viewed) => self.parked.push_back((viewed, cap)),
            }
        }
        let stolen = self.free.len() > before;
        let fit = (0..self.free.len())
            .filter(|&i| self.free[i].capacity() >= capacity)
            .min_by_key(|&i| self.free[i].capacity());
        (fit.map(|i| self.free.swap_remove(i)), stolen)
    }

    /// Frees every idle buffer but the largest (all of them when `keep`
    /// is 0) and returns how many it freed. Freeing a few frame buffers
    /// under the lock is cheap next to the frames' own transfer.
    fn shed_surplus(&mut self, keep: usize) -> usize {
        let surplus = self.free.len().saturating_sub(keep);
        if surplus > 0 {
            if let Some(largest) = (0..self.free.len()).max_by_key(|&i| self.free[i].capacity()) {
                self.free.swap(0, largest);
            }
            self.free.truncate(keep);
        }
        surplus
    }

    /// Idle buffers and their bytes: free-listed ones plus parked ones
    /// no view holds any more.
    fn idle(&self) -> (usize, u64) {
        let free = self.free.iter().map(BytesMut::capacity);
        let parked = self.parked.iter().filter(|(b, _)| b.is_unique());
        free.chain(parked.map(|&(_, cap)| cap))
            .fold((0, 0), |(n, bytes), cap| (n + 1, bytes + cap as u64))
    }
}

/// Traffic counters for one pool (all monotone; snapshot via
/// [`BufferPool::counters`] and diff with [`PoolCounters::since`]).
#[derive(Debug, Default)]
struct CounterSet {
    leases: Counter,
    hits: Counter,
    misses: Counter,
    steals: Counter,
    resizes: Counter,
    bytes_allocated: Counter,
    bytes_recycled: Counter,
}

/// Point-in-time copy of a pool's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolCounters {
    /// Buffer requests served (every would-be allocation on the hot
    /// path is exactly one lease).
    pub leases: u64,
    /// Leases served from a class free list.
    pub hits: u64,
    /// Leases that fell through to a fresh heap allocation.
    pub misses: u64,
    /// Leases served by reclaiming a parked frozen buffer whose views
    /// had all dropped.
    pub steals: u64,
    /// Buffers shed because a free or parked list was at capacity.
    pub resizes: u64,
    /// Total bytes of fresh backing storage allocated.
    pub bytes_allocated: u64,
    /// Total bytes of backing storage handed out from recycled buffers.
    pub bytes_recycled: u64,
}

impl PoolCounters {
    /// Fraction of leases served without touching the allocator
    /// (`(hits + steals) / leases`; 0 when idle).
    pub fn hit_rate(&self) -> f64 {
        if self.leases == 0 {
            0.0
        } else {
            (self.hits + self.steals) as f64 / self.leases as f64
        }
    }

    /// Counter deltas since an earlier snapshot of the same pool.
    pub fn since(&self, earlier: &PoolCounters) -> PoolCounters {
        PoolCounters {
            leases: self.leases.saturating_sub(earlier.leases),
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
            steals: self.steals.saturating_sub(earlier.steals),
            resizes: self.resizes.saturating_sub(earlier.resizes),
            bytes_allocated: self.bytes_allocated.saturating_sub(earlier.bytes_allocated),
            bytes_recycled: self.bytes_recycled.saturating_sub(earlier.bytes_recycled),
        }
    }
}

/// A size-classed slab pool of reusable backing buffers.
#[derive(Debug)]
pub struct BufferPool {
    config: PoolConfig,
    classes: Vec<SizeClass>,
    large: Mutex<LargeList>,
    counters: CounterSet,
}

impl BufferPool {
    /// Creates a pool with the given knobs (class sizes are the powers
    /// of two from `min_class_bytes` to 1 MiB inclusive; the large list
    /// serves the rest up to `max_class_bytes`).
    pub fn new(config: PoolConfig) -> Self {
        let min = config.min_class_bytes.next_power_of_two().max(1);
        let max = config.max_class_bytes.next_power_of_two().max(min);
        let config = PoolConfig {
            min_class_bytes: min,
            max_class_bytes: max,
            ..config
        };
        let top = max.min(LARGE_LEASE_BYTES).max(min);
        let count = (top.trailing_zeros() - min.trailing_zeros()) as usize + 1;
        let classes = (0..count).map(|_| SizeClass::default()).collect();
        BufferPool {
            config,
            classes,
            large: Mutex::default(),
            counters: CounterSet::default(),
        }
    }

    /// The effective configuration (class bounds rounded to powers of
    /// two).
    pub fn config(&self) -> PoolConfig {
        self.config
    }

    /// Where a lease of `capacity` bytes is served: the smallest class at
    /// least that large, or the large list above the biggest class;
    /// `None` when the request is bigger than `max_class_bytes` and must
    /// bypass the pool.
    fn request_home(&self, capacity: usize) -> Option<Home> {
        let rounded = capacity
            .max(self.config.min_class_bytes)
            .next_power_of_two();
        if rounded > self.config.max_class_bytes {
            None
        } else if rounded > self.class_size(self.classes.len() - 1) {
            Some(Home::Large)
        } else {
            Some(Home::Class(
                (rounded.trailing_zeros() - self.config.min_class_bytes.trailing_zeros()) as usize,
            ))
        }
    }

    /// Where a buffer of `capacity` bytes is kept: the largest class no
    /// bigger than the buffer (so a lease from that class always has
    /// enough room), or the large list above the biggest class; `None`
    /// when the buffer is too small to be worth keeping.
    fn return_home(&self, capacity: usize) -> Option<Home> {
        if capacity < self.config.min_class_bytes {
            return None;
        }
        let top = self.classes.len() - 1;
        if capacity > self.class_size(top) {
            // A pool whose classes reach `max_class_bytes` has no large
            // list: its largest class keeps the buffer.
            return Some(if self.config.max_class_bytes > self.class_size(top) {
                Home::Large
            } else {
                Home::Class(top)
            });
        }
        let log2 = usize::BITS - 1 - capacity.leading_zeros();
        Some(Home::Class(
            (log2 - self.config.min_class_bytes.trailing_zeros()) as usize,
        ))
    }

    /// Bytes a lease from class `idx` guarantees.
    fn class_size(&self, idx: usize) -> usize {
        self.config.min_class_bytes << idx
    }

    /// Idle buffers the large list keeps: one, none if the pool keeps no
    /// free buffers at all.
    fn large_keep(&self) -> usize {
        self.config.max_free_per_class.min(1)
    }

    /// Lease `idx` of a class: sweeps its parked buffers, trims its free
    /// list (shed buffers go into `shed`) and pops one. Returns it, if
    /// any, and whether the sweep reclaimed any.
    fn take_class(&self, idx: usize, shed: &mut Vec<BytesMut>) -> (Option<BytesMut>, bool) {
        let class = &self.classes[idx];
        // Lock order: free, then parked (as `idle_buffers`).
        let mut free = class.free.lock().expect("pool free lock");
        // Reclaimed buffers join the free list uncapped: the parked
        // cap bounds them, and the trim below sheds what demand
        // leaves unused.
        let stolen = sweep_oldest(
            &mut class.parked.lock().expect("pool parked lock"),
            &mut free.bufs,
        );
        free.low_water = free.low_water.min(free.bufs.len());
        free.leases += 1;
        let interval = if free.slow {
            SLOW_TRIM_INTERVAL
        } else {
            TRIM_INTERVAL
        };
        if free.leases >= interval {
            free.leases = 0;
            let on_hand = std::mem::replace(&mut free.low_water, usize::MAX);
            shed.extend(free.bufs.drain(..on_hand.saturating_sub(1)));
            free.shed = !shed.is_empty();
        }
        let buf = free.bufs.pop();
        free.slow |= buf.is_none() && free.shed;
        (buf, stolen)
    }

    /// A fresh allocation of `size` bytes: a miss.
    fn allocate(&self, size: usize) -> BytesMut {
        self.counters.misses.inc();
        self.counters.bytes_allocated.add(size as u64);
        BytesMut::with_capacity(size)
    }

    /// The core acquisition path: steal from parked, else pop free,
    /// else allocate. Returns the buffer plus whether it has a home in
    /// the pool (and should return to it when done).
    fn acquire(&self, capacity: usize) -> (BytesMut, bool) {
        self.counters.leases.inc();
        let Some(home) = self.request_home(capacity) else {
            return (self.allocate(capacity), false);
        };
        // Shed buffers are freed once the lock is released; the list
        // only allocates on a lease that sheds.
        let mut shed: Vec<BytesMut> = Vec::new();
        let (buf, stolen) = match home {
            Home::Class(idx) => self.take_class(idx, &mut shed),
            Home::Large => {
                let mut large = self.large.lock().expect("pool large lock");
                let taken = large.take(capacity);
                let freed = large.shed_surplus(self.large_keep());
                self.counters.resizes.add(freed as u64);
                taken
            }
        };
        self.counters.resizes.add(shed.len() as u64);
        let Some(buf) = buf else {
            let size = match home {
                Home::Class(idx) => self.class_size(idx).max(capacity),
                Home::Large => capacity + capacity / 16,
            };
            return (self.allocate(size), true);
        };
        if stolen {
            self.counters.steals.inc();
        } else {
            self.counters.hits.inc();
        }
        self.counters.bytes_recycled.add(buf.capacity() as u64);
        (buf, true)
    }

    /// Leases a buffer with room for at least `capacity` bytes. Returns
    /// a [`PooledBuf`] that recycles itself back into this pool on drop
    /// or freeze.
    pub fn lease(self: &Arc<Self>, capacity: usize) -> PooledBuf {
        let (buf, pooled) = self.acquire(capacity);
        PooledBuf {
            buf: Some(buf),
            pool: pooled.then(|| Arc::clone(self)),
        }
    }

    /// Returns a never-frozen buffer to its class's free list, header
    /// and all, or to the large list, which keeps the larger of it and
    /// the buffer already idle there. Contents are discarded; too-small
    /// buffers are simply dropped.
    fn recycle(&self, mut buf: BytesMut) {
        buf.clear();
        match self.return_home(buf.capacity()) {
            None => {}
            Some(Home::Large) => {
                let mut large = self.large.lock().expect("pool large lock");
                large.free.push(buf);
                let freed = large.shed_surplus(self.large_keep());
                self.counters.resizes.add(freed as u64);
            }
            Some(Home::Class(idx)) => {
                let mut free = self.classes[idx].free.lock().expect("pool free lock");
                if free.bufs.len() < self.config.max_free_per_class {
                    free.bufs.push(buf);
                } else {
                    self.counters.resizes.inc();
                }
            }
        }
    }

    /// Parks a clone of a frozen buffer so its backing storage can be
    /// stolen back once every other view drops.
    fn park(&self, capacity: usize, bytes: Bytes) {
        let cap = self.config.max_parked_per_class;
        let room = match self.return_home(capacity) {
            None => return,
            Some(Home::Large) => {
                let mut large = self.large.lock().expect("pool large lock");
                let room = large.parked.len() < cap;
                if room {
                    large.parked.push_back((bytes, capacity));
                }
                room
            }
            Some(Home::Class(idx)) => {
                let mut parked = self.classes[idx].parked.lock().expect("pool parked lock");
                let room = parked.len() < cap;
                if room {
                    parked.push_back(bytes);
                }
                room
            }
        };
        if !room {
            self.counters.resizes.inc();
        }
    }

    /// Freezes an externally built buffer through the pool: the caller
    /// gets the `Bytes`, the pool parks a clone for later reclaim.
    pub fn seal(&self, buf: BytesMut) -> Bytes {
        let capacity = buf.capacity();
        let bytes = buf.freeze();
        self.park(capacity, bytes.clone());
        bytes
    }

    /// Snapshot of this pool's traffic counters.
    pub fn counters(&self) -> PoolCounters {
        PoolCounters {
            leases: self.counters.leases.get(),
            hits: self.counters.hits.get(),
            misses: self.counters.misses.get(),
            steals: self.counters.steals.get(),
            resizes: self.counters.resizes.get(),
            bytes_allocated: self.counters.bytes_allocated.get(),
            bytes_recycled: self.counters.bytes_recycled.get(),
        }
    }

    /// Idle buffers held and their bytes, summed across classes and
    /// the large list: free-listed ones plus parked ones no view holds
    /// any more (a parked buffer a consumer still views is in use, not
    /// idle). A class's parked buffers count at its class size.
    fn idle(&self) -> (usize, u64) {
        let (mut count, mut bytes) = self.large.lock().expect("pool large lock").idle();
        for (idx, class) in self.classes.iter().enumerate() {
            let free = class.free.lock().expect("pool free lock");
            let parked = class.parked.lock().expect("pool parked lock");
            let unique = parked.iter().filter(|b| b.is_unique()).count();
            count += free.bufs.len() + unique;
            bytes += free.bufs.iter().map(|b| b.capacity() as u64).sum::<u64>()
                + (unique * self.class_size(idx)) as u64;
        }
        (count, bytes)
    }

    /// Idle buffers currently held: free-listed ones plus parked ones no
    /// view holds any more. Test/diagnostic aid.
    pub fn idle_buffers(&self) -> usize {
        self.idle().0
    }

    /// Bytes of the idle buffers [`BufferPool::idle_buffers`] counts:
    /// the heap the pool holds that no lease or view is using.
    pub fn idle_bytes(&self) -> u64 {
        self.idle().1
    }

    /// Idle buffers of the large list alone. Test/diagnostic aid.
    pub fn idle_large_buffers(&self) -> usize {
        self.large.lock().expect("pool large lock").idle().0
    }
}

impl msd_storage::BlockAlloc for BufferPool {
    fn lease_block(&self, capacity: usize) -> BytesMut {
        self.acquire(capacity).0
    }

    fn seal_block(&self, buf: BytesMut) -> Bytes {
        self.seal(buf)
    }
}

/// The process-wide pool every hot path draws from by default.
pub fn global() -> &'static Arc<BufferPool> {
    static POOL: OnceLock<Arc<BufferPool>> = OnceLock::new();
    POOL.get_or_init(|| Arc::new(BufferPool::new(PoolConfig::default())))
}

/// An owned lease on a pool buffer. Dereferences to the underlying
/// `Vec<u8>` for filling; [`PooledBuf::freeze`] turns it into shareable
/// `Bytes` while parking a reclaim handle in the pool, and plain drop
/// recycles the storage immediately.
#[derive(Debug)]
pub struct PooledBuf {
    buf: Option<BytesMut>,
    pool: Option<Arc<BufferPool>>,
}

impl PooledBuf {
    /// Freezes the buffer into immutable shareable `Bytes` over the
    /// lease's own storage and header, so freezing allocates nothing.
    /// The pool keeps a parked clone, so once every returned view drops
    /// the backing storage is stolen back by a later lease.
    pub fn freeze(mut self) -> Bytes {
        let buf = self.buf.take().expect("freeze consumed buffer");
        let capacity = buf.capacity();
        let bytes = buf.freeze();
        if let Some(pool) = self.pool.take() {
            pool.park(capacity, bytes.clone());
        }
        bytes
    }
}

impl std::ops::Deref for PooledBuf {
    type Target = Vec<u8>;

    fn deref(&self) -> &Vec<u8> {
        self.buf.as_ref().expect("lease still held").as_vec()
    }
}

impl std::ops::DerefMut for PooledBuf {
    fn deref_mut(&mut self) -> &mut Vec<u8> {
        // The lease's `BytesMut` is the unique owner of its shared
        // header: it came fresh from the allocator, or from a parked
        // handle `Bytes::try_into_mut` found to be the last view, and
        // nothing shares it before `freeze` consumes the lease.
        self.buf.as_mut().expect("lease still held").as_mut_vec()
    }
}

impl Drop for PooledBuf {
    fn drop(&mut self) {
        if let (Some(buf), Some(pool)) = (self.buf.take(), self.pool.take()) {
            pool.recycle(buf);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool() -> Arc<BufferPool> {
        Arc::new(BufferPool::new(PoolConfig::default()))
    }

    #[test]
    fn dropped_lease_is_a_hit_next_time() {
        let p = pool();
        let lease = p.lease(4096);
        assert!(lease.capacity() >= 4096);
        drop(lease);
        let again = p.lease(4096);
        let c = p.counters();
        assert_eq!((c.leases, c.hits, c.misses), (2, 1, 1));
        drop(again);
    }

    #[test]
    fn frozen_buffer_reclaims_only_after_views_drop() {
        let p = pool();
        let mut lease = p.lease(2048);
        lease.extend_from_slice(&[7u8; 100]);
        let frozen = lease.freeze();
        let view = frozen.slice(10..20);
        drop(frozen);
        assert_eq!(p.idle_buffers(), 0, "a viewed buffer is not idle");

        // A view is still alive: the lease below must not steal it.
        let second = p.lease(2048);
        assert_eq!(p.counters().steals, 0);
        assert_eq!(&view[..], &[7u8; 10]);
        drop(second);
        drop(view);
        assert_eq!(p.idle_buffers(), 2, "one free-listed, one parked unviewed");

        // All views gone: now the backing vec comes back as a steal.
        let third = p.lease(2048);
        let c = p.counters();
        assert_eq!(c.steals, 1);
        assert!(third.is_empty() && third.capacity() >= 2048);
    }

    #[test]
    fn idle_surplus_of_a_burst_is_trimmed_to_demand() {
        let p = pool();
        // A burst: eight buffers of one class in flight at once.
        let burst: Vec<PooledBuf> = (0..8).map(|_| p.lease(4096)).collect();
        drop(burst);
        assert_eq!(p.idle_buffers(), 8);
        // Steady demand of two at a time. The interval the burst fell in
        // never trims; the first full interval after it does.
        for _ in 0..TRIM_INTERVAL {
            let (_a, _b) = (p.lease(4096), p.lease(4096));
        }
        assert_eq!(p.idle_buffers(), 2, "what demand needs, not its peak");
        let before = p.counters();
        for _ in 0..4 * TRIM_INTERVAL {
            let (_a, _b) = (p.lease(4096), p.lease(4096));
        }
        let after = p.counters().since(&before);
        assert_eq!((after.misses, after.resizes), (0, 0), "stable once sized");
        assert_eq!(p.idle_buffers(), 2);
    }

    #[test]
    fn oversize_requests_bypass_the_pool() {
        let p = pool();
        let big = p.lease((16 << 20) + 1);
        drop(big);
        let again = p.lease((16 << 20) + 1);
        let c = p.counters();
        assert_eq!((c.hits, c.steals, c.misses), (0, 0, 2));
        drop(again);
    }

    #[test]
    fn seal_parks_for_later_steal() {
        let p = pool();
        let mut buf = msd_storage::BlockAlloc::lease_block(&*p, 100);
        buf.put_slice(&[1u8; 64]);
        let bytes = p.seal(buf);
        drop(bytes);
        let again = msd_storage::BlockAlloc::lease_block(&*p, 100);
        assert!(again.is_empty() && again.capacity() >= 1024);
        let c = p.counters();
        assert_eq!((c.leases, c.misses, c.steals), (2, 1, 1));
    }

    #[test]
    fn class_mapping_round_trips() {
        let p = pool();
        assert_eq!(p.request_home(1), Some(Home::Class(0)));
        assert_eq!(p.request_home(1024), Some(Home::Class(0)));
        assert_eq!(p.request_home(1025), Some(Home::Class(1)));
        assert_eq!(p.request_home(1 << 20), p.return_home(1 << 20));
        assert_eq!(p.request_home((1 << 20) + 1), Some(Home::Large));
        assert_eq!(p.request_home(16 << 20), p.return_home(16 << 20));
        assert_eq!(p.request_home((16 << 20) + 1), None);
        assert_eq!(p.return_home(1023), None);
        assert_eq!(p.return_home(3000), Some(Home::Class(1)));
        assert_eq!(p.return_home(usize::MAX / 2 + 1), p.return_home(16 << 20));
    }

    #[test]
    fn large_leases_fit_the_request_and_keep_one_idle_buffer() {
        let p = pool();
        let frame = 3 << 20;
        let burst: Vec<PooledBuf> = (0..3).map(|_| p.lease(frame)).collect();
        assert!(burst.iter().all(|b| b.capacity() < 4 << 20));
        drop(burst);
        assert_eq!(p.idle_buffers(), 1, "the largest stays, the rest go");
        let again = p.lease(frame - 4096);
        let c = p.counters();
        assert_eq!((c.misses, c.hits, c.resizes), (3, 1, 2));
        assert_eq!(p.idle_buffers(), 0);
        drop(again);
        assert_eq!(p.idle_bytes(), (frame + frame / 16) as u64);
    }

    use bytes::BufMut;
}
