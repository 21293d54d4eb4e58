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
//! ([`Bytes::is_unique`]), and the next lease reclaims the backing
//! `Vec<u8>` via [`Bytes::try_reclaim`] — no free, no malloc, full
//! capacity back.
//!
//! Three ways storage comes back:
//! - **steal** — a parked `Bytes` went unique and its backing vec was
//!   reclaimed on lease;
//! - **hit** — a plain recycled vec was waiting on the class free list;
//! - **miss** — nothing available; a fresh vec is allocated.
//!
//! What the pool holds idle follows demand, not its peak: every
//! `TRIM_INTERVAL` leases of a class, the free-listed vecs that no lease
//! in that interval needed go back to the allocator. A burst — the serve
//! driver running `queue_depth` steps ahead of a stalled client, say —
//! would otherwise pin its peak in multi-megabyte frame buffers forever.
//!
//! Buffers larger than the biggest size class fall through to plain
//! allocation (counted as misses) and are never pooled, so exhaustion
//! or odd sizes degrade to exactly the pre-pool behavior — no blocking,
//! no deadlock. All internal locks are short push/pop critical
//! sections on per-class free lists.

use std::sync::{Arc, Mutex, OnceLock};

use bytes::{Bytes, BytesMut};

use crate::metrics::Counter;

/// Tuning knobs for a [`BufferPool`].
#[derive(Debug, Clone, Copy)]
pub struct PoolConfig {
    /// Smallest size class in bytes (requests below it round up).
    pub min_class_bytes: usize,
    /// Largest size class in bytes (requests above it bypass the pool).
    pub max_class_bytes: usize,
    /// Cap on idle recycled vecs kept per class; overflow is dropped
    /// (counted as a resize) so the pool cannot hoard memory.
    pub max_free_per_class: usize,
    /// Cap on parked frozen handles per class awaiting reclaim.
    pub max_parked_per_class: usize,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            min_class_bytes: 1 << 10,
            max_class_bytes: 16 << 20,
            max_free_per_class: 32,
            max_parked_per_class: 256,
        }
    }
}

/// Leases of one size class between two trims of its free list.
const TRIM_INTERVAL: u32 = 256;

/// One power-of-two size class: recycled vecs ready to hand out, plus
/// frozen handles parked until their consumers drop.
#[derive(Debug, Default)]
struct SizeClass {
    free: Mutex<FreeList>,
    parked: Mutex<Vec<Bytes>>,
}

/// A class's recycled vecs, with the demand bookkeeping behind trimming.
#[derive(Debug, Default)]
struct FreeList {
    vecs: Vec<Vec<u8>>,
    /// Leases of this class since the last trim.
    leases: u32,
    /// Fewest vecs on hand at any of those leases (each of which took
    /// one): all but one of them sat unused through the whole interval.
    /// Starts at 0, so the first interval — warm-up — never trims.
    low_water: usize,
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
    counters: CounterSet,
}

impl BufferPool {
    /// Creates a pool with the given knobs (class sizes are the powers
    /// of two from `min_class_bytes` to `max_class_bytes` inclusive).
    pub fn new(config: PoolConfig) -> Self {
        let min = config.min_class_bytes.next_power_of_two().max(1);
        let max = config.max_class_bytes.next_power_of_two().max(min);
        let config = PoolConfig {
            min_class_bytes: min,
            max_class_bytes: max,
            ..config
        };
        let count = (max.trailing_zeros() - min.trailing_zeros()) as usize + 1;
        let classes = (0..count).map(|_| SizeClass::default()).collect();
        BufferPool {
            config,
            classes,
            counters: CounterSet::default(),
        }
    }

    /// The effective configuration (class bounds rounded to powers of
    /// two).
    pub fn config(&self) -> PoolConfig {
        self.config
    }

    /// Size class that serves a lease of `capacity` bytes (the smallest
    /// class at least that large), or `None` when the request is bigger
    /// than every class and must bypass the pool.
    fn request_class(&self, capacity: usize) -> Option<usize> {
        let rounded = capacity
            .max(self.config.min_class_bytes)
            .next_power_of_two();
        if rounded > self.config.max_class_bytes {
            None
        } else {
            Some((rounded.trailing_zeros() - self.config.min_class_bytes.trailing_zeros()) as usize)
        }
    }

    /// Size class a buffer of `capacity` bytes can be stored under (the
    /// largest class no bigger than the buffer, so a lease from that
    /// class always has enough room), or `None` when the buffer is too
    /// small to be worth keeping.
    fn return_class(&self, capacity: usize) -> Option<usize> {
        if capacity < self.config.min_class_bytes {
            return None;
        }
        let floor = self
            .config
            .max_class_bytes
            .min(1 << (usize::BITS - 1 - capacity.leading_zeros()));
        Some((floor.trailing_zeros() - self.config.min_class_bytes.trailing_zeros()) as usize)
    }

    /// Bytes a lease from class `idx` guarantees.
    fn class_size(&self, idx: usize) -> usize {
        self.config.min_class_bytes << idx
    }

    /// The core acquisition path: steal from parked, else pop free,
    /// else allocate. Returns the vec plus whether it belongs to a
    /// class (and should return to the pool when done).
    fn acquire(&self, capacity: usize) -> (Vec<u8>, bool) {
        self.counters.leases.inc();
        let Some(idx) = self.request_class(capacity) else {
            self.counters.misses.inc();
            self.counters.bytes_allocated.add(capacity as u64);
            return (Vec::with_capacity(capacity), false);
        };
        let class = &self.classes[idx];

        // Sweep the parked list: any frozen buffer whose consumers have
        // all dropped is uniquely owned and its backing vec comes back.
        let mut reclaimed: Vec<Vec<u8>> = Vec::new();
        {
            let mut parked = class.parked.lock().expect("pool parked lock");
            let mut i = 0;
            while i < parked.len() {
                if parked[i].is_unique() {
                    match parked.swap_remove(i).try_reclaim() {
                        Ok(mut vec) => {
                            vec.clear();
                            reclaimed.push(vec);
                        }
                        Err(bytes) => {
                            parked.insert(i, bytes);
                            i += 1;
                        }
                    }
                } else {
                    i += 1;
                }
            }
        }

        let stolen = !reclaimed.is_empty();
        let vec = {
            // Reclaims serve this lease and top up the free list for
            // future hits.
            let mut free = class.free.lock().expect("pool free lock");
            free.vecs.append(&mut reclaimed);
            free.low_water = free.low_water.min(free.vecs.len());
            free.leases += 1;
            // Shed vecs leave through `reclaimed`, to be freed once the
            // lock is released.
            if free.leases == TRIM_INTERVAL {
                free.leases = 0;
                let on_hand = std::mem::replace(&mut free.low_water, usize::MAX);
                reclaimed.extend(free.vecs.drain(..on_hand.saturating_sub(1)));
            }
            let vec = free.vecs.pop();
            let cap = self.config.max_free_per_class.min(free.vecs.len());
            reclaimed.extend(free.vecs.drain(cap..));
            vec
        };
        self.counters.resizes.add(reclaimed.len() as u64);
        if vec.is_some() {
            if stolen {
                self.counters.steals.inc();
            } else {
                self.counters.hits.inc();
            }
        }
        match vec {
            Some(vec) => {
                self.counters.bytes_recycled.add(vec.capacity() as u64);
                (vec, true)
            }
            None => {
                let size = self.class_size(idx).max(capacity);
                self.counters.misses.inc();
                self.counters.bytes_allocated.add(size as u64);
                (Vec::with_capacity(size), true)
            }
        }
    }

    /// Leases a buffer with room for at least `capacity` bytes. Returns
    /// a [`PooledBuf`] that recycles itself back into this pool on drop
    /// or freeze.
    pub fn lease(self: &Arc<Self>, capacity: usize) -> PooledBuf {
        let (vec, pooled) = self.acquire(capacity);
        PooledBuf {
            vec: Some(vec),
            pool: pooled.then(|| Arc::clone(self)),
        }
    }

    /// Leases a raw `Vec<u8>` for callers whose buffer ownership moves
    /// outside `PooledBuf`'s RAII (e.g. the TCP writer's per-connection
    /// head scratch, held for the connection's life). Pair with
    /// [`BufferPool::recycle_vec`].
    pub fn lease_vec(&self, capacity: usize) -> Vec<u8> {
        self.acquire(capacity).0
    }

    /// Returns a raw vec (from [`BufferPool::lease_vec`] or anywhere
    /// else) to the free lists. Contents are discarded; too-small or
    /// over-capacity vecs are simply dropped.
    pub fn recycle_vec(&self, mut vec: Vec<u8>) {
        vec.clear();
        let Some(idx) = self.return_class(vec.capacity()) else {
            return;
        };
        let mut free = self.classes[idx].free.lock().expect("pool free lock");
        if free.vecs.len() < self.config.max_free_per_class {
            free.vecs.push(vec);
        } else {
            self.counters.resizes.inc();
        }
    }

    /// Parks a clone of a frozen buffer so its backing storage can be
    /// stolen back once every other view drops.
    fn park(&self, capacity: usize, bytes: Bytes) {
        let Some(idx) = self.return_class(capacity) else {
            return;
        };
        let mut parked = self.classes[idx].parked.lock().expect("pool parked lock");
        if parked.len() < self.config.max_parked_per_class {
            parked.push(bytes);
        } else {
            self.counters.resizes.inc();
        }
    }

    /// Freezes an externally built buffer through the pool: the caller
    /// gets the `Bytes`, the pool parks a clone for later reclaim.
    pub fn seal(&self, buf: BytesMut) -> Bytes {
        let vec = buf.into_vec();
        let capacity = vec.capacity();
        let bytes = Bytes::from(vec);
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

    /// Idle buffers currently held (free-listed plus parked), summed
    /// across classes. Test/diagnostic aid.
    pub fn idle_buffers(&self) -> usize {
        self.classes
            .iter()
            .map(|c| {
                c.free.lock().expect("pool free lock").vecs.len()
                    + c.parked.lock().expect("pool parked lock").len()
            })
            .sum()
    }
}

impl msd_storage::BlockAlloc for BufferPool {
    fn lease_block(&self, capacity: usize) -> BytesMut {
        BytesMut::from_vec(self.lease_vec(capacity))
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
    vec: Option<Vec<u8>>,
    pool: Option<Arc<BufferPool>>,
}

impl PooledBuf {
    /// Freezes the buffer into immutable shareable `Bytes`. The pool
    /// keeps a parked clone, so once every returned view drops the
    /// backing storage is stolen back by a later lease.
    pub fn freeze(mut self) -> Bytes {
        let vec = self.vec.take().expect("freeze consumed buffer");
        let capacity = vec.capacity();
        let bytes = Bytes::from(vec);
        if let Some(pool) = self.pool.take() {
            pool.park(capacity, bytes.clone());
        }
        bytes
    }

    /// Moves the buffer out without pooling the storage (the caller
    /// takes full ownership; nothing is parked or recycled).
    pub fn into_vec(mut self) -> Vec<u8> {
        self.vec.take().expect("into_vec consumed buffer")
    }
}

impl std::ops::Deref for PooledBuf {
    type Target = Vec<u8>;

    fn deref(&self) -> &Vec<u8> {
        self.vec.as_ref().expect("lease still held")
    }
}

impl std::ops::DerefMut for PooledBuf {
    fn deref_mut(&mut self) -> &mut Vec<u8> {
        self.vec.as_mut().expect("lease still held")
    }
}

impl Drop for PooledBuf {
    fn drop(&mut self) {
        if let (Some(vec), Some(pool)) = (self.vec.take(), self.pool.take()) {
            pool.recycle_vec(vec);
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

        // A view is still alive: the lease below must not steal it.
        let second = p.lease(2048);
        assert_eq!(p.counters().steals, 0);
        assert_eq!(&view[..], &[7u8; 10]);
        drop(second);
        drop(view);

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
    fn raw_vec_cycle_round_trips() {
        let p = pool();
        let mut v = p.lease_vec(100);
        v.extend_from_slice(b"head bytes");
        p.recycle_vec(v);
        let v2 = p.lease_vec(100);
        assert!(v2.is_empty() && v2.capacity() >= 1024);
        assert_eq!(p.counters().hits, 1);
    }

    #[test]
    fn seal_parks_for_later_steal() {
        let p = pool();
        let mut buf = BytesMut::with_capacity(4096);
        buf.put_slice(&[1u8; 64]);
        let bytes = p.seal(buf);
        drop(bytes);
        p.lease(4096);
        assert_eq!(p.counters().steals, 1);
    }

    #[test]
    fn class_mapping_round_trips() {
        let p = pool();
        assert_eq!(p.request_class(1), Some(0));
        assert_eq!(p.request_class(1024), Some(0));
        assert_eq!(p.request_class(1025), Some(1));
        assert_eq!(p.request_class(16 << 20), p.return_class(16 << 20));
        assert_eq!(p.request_class((16 << 20) + 1), None);
        assert_eq!(p.return_class(1023), None);
        assert_eq!(p.return_class(3000), Some(1));
        assert_eq!(p.return_class(usize::MAX / 2 + 1), p.return_class(16 << 20));
    }

    use bytes::BufMut;
}
