//! Buffer-pool contract suite.
//!
//! The pool's one dangerous property is recycling: handing back a
//! buffer some consumer still views would scribble payload bytes
//! mid-flight. These tests pin the safety contract (a frozen buffer is
//! never reused while any `Bytes` view is alive) under concurrency,
//! prove exhaustion degrades to plain allocation instead of blocking,
//! sweep the size-class boundaries with a proptest, and run the full
//! distributed conformance harness over the pooled hot paths — serving
//! through the pool must stay byte-identical to the local reference.

mod harness;

use std::sync::Arc;
use std::time::Duration;

use harness::{assert_byte_identical, assert_ordered_full, local_streams, remote_streams};
use megascale_data::core::pool::{global, BufferPool, PoolConfig};
use megascale_data::core::system::net::Transport;
use megascale_data::core::system::tcp::TcpTransport;
use proptest::prelude::*;

/// A deterministic fill pattern distinct per tag.
fn pattern(tag: u8, len: usize) -> Vec<u8> {
    (0..len).map(|i| (i as u8).wrapping_mul(31) ^ tag).collect()
}

#[test]
fn concurrent_lease_freeze_reclaim_is_safe_and_accounted() {
    const THREADS: usize = 8;
    const ROUNDS: usize = 200;
    let pool = Arc::new(BufferPool::new(PoolConfig::default()));
    let workers: Vec<_> = (0..THREADS)
        .map(|t| {
            let pool = Arc::clone(&pool);
            std::thread::spawn(move || {
                let tag = t as u8;
                let mut held = Vec::new();
                for round in 0..ROUNDS {
                    let len = 512 + (round * 97 + t * 13) % 8192;
                    let mut lease = pool.lease(len);
                    assert!(lease.capacity() >= len, "lease shorter than requested");
                    assert!(lease.is_empty(), "lease arrived dirty");
                    let expect = pattern(tag, len);
                    lease.extend_from_slice(&expect);
                    match round % 3 {
                        // Freeze and hold a view across later leases: the
                        // pool must not steal it back while we look.
                        0 => held.push((lease.freeze(), expect)),
                        // Freeze and drop immediately: eligible for steal.
                        1 => drop(lease.freeze()),
                        // Plain drop: straight back to the free list.
                        _ => drop(lease),
                    }
                    if round % 16 == 0 {
                        for (bytes, expect) in &held {
                            assert_eq!(
                                bytes.as_ref(),
                                expect.as_slice(),
                                "held view mutated while pool recycled"
                            );
                        }
                        held.clear();
                    }
                }
                for (bytes, expect) in &held {
                    assert_eq!(bytes.as_ref(), expect.as_slice());
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("pool worker panicked");
    }
    let c = pool.counters();
    assert_eq!(
        c.leases,
        (THREADS * ROUNDS) as u64,
        "every request is exactly one lease"
    );
    assert_eq!(
        c.hits + c.misses + c.steals,
        c.leases,
        "every lease is exactly one of hit/miss/steal"
    );
    assert!(
        c.hits + c.steals > c.misses,
        "steady-state churn should mostly recycle (hits {} steals {} misses {})",
        c.hits,
        c.steals,
        c.misses
    );
}

#[test]
fn refcount_held_buffers_are_never_recycled_early() {
    let pool = Arc::new(BufferPool::new(PoolConfig::default()));
    let mut first = pool.lease(4096);
    let expect = pattern(0xA5, 1000);
    first.extend_from_slice(&expect);
    let frozen = first.freeze();
    let view = frozen.slice(100..900);
    drop(frozen);

    // Churn the same size class hard while `view` is alive. Plain
    // drops recycle via the free list, so the only way `steals` can
    // move is if the pool wrongly reclaims the still-viewed buffer.
    for round in 0..64 {
        let mut lease = pool.lease(4096);
        lease.extend_from_slice(&pattern(round as u8, 4096));
        drop(lease);
    }
    assert_eq!(
        pool.counters().steals,
        0,
        "a buffer with a live view must never be stolen"
    );
    assert_eq!(view.as_ref(), &expect[100..900], "live view was scribbled");

    // Dropping the last view makes the buffer reclaimable.
    drop(view);
    drop(pool.lease(4096));
    assert!(
        pool.counters().steals >= 1,
        "unique parked buffer not reclaimed"
    );
}

#[test]
fn exhaustion_falls_back_to_plain_allocation_without_deadlock() {
    // A pool that can keep nothing: every return is shed, every lease
    // must fall through to a fresh allocation — and never block.
    let pool = Arc::new(BufferPool::new(PoolConfig {
        max_free_per_class: 0,
        max_parked_per_class: 0,
        ..PoolConfig::default()
    }));
    let workers: Vec<_> = (0..8)
        .map(|t| {
            let pool = Arc::clone(&pool);
            std::thread::spawn(move || {
                for round in 0..100 {
                    let len = 1024 + (round * 131 + t * 17) % 4096;
                    let mut lease = pool.lease(len);
                    lease.extend_from_slice(&pattern(t as u8, len));
                    if round % 2 == 0 {
                        drop(lease.freeze());
                    }
                }
            })
        })
        .collect();
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    for w in workers {
        assert!(
            std::time::Instant::now() < deadline,
            "exhausted pool appears wedged"
        );
        w.join().expect("exhausted-pool worker panicked");
    }
    let c = pool.counters();
    assert_eq!(
        c.misses, c.leases,
        "nothing can be recycled at zero capacity"
    );
    assert_eq!(c.hits + c.steals, 0);
    assert_eq!(
        pool.idle_buffers(),
        0,
        "zero-capacity pool retained buffers"
    );

    // Oversize requests bypass the pool entirely, also without blocking.
    let big = pool.lease((16 << 20) + 1);
    assert!(big.capacity() > 16 << 20);
}

#[test]
fn long_held_frozen_leases_come_back_oldest_first_without_misses() {
    // A loader fleet's buffered raw samples: 600 frozen leases of one
    // class alive at once (more than the 256 parked handles the pool used
    // to keep), released oldest first in plan-sized batches and leased
    // again by the refill that follows.
    const LIVE: usize = 600;
    const BATCH: usize = 128;
    const LEN: usize = 8192;
    let pool = Arc::new(BufferPool::new(PoolConfig::default()));
    let mut next_tag = 0u8;
    let mut lease_frozen = || {
        let mut lease = pool.lease(LEN);
        assert!(lease.is_empty(), "lease arrived dirty");
        let expect = pattern(next_tag, LEN);
        next_tag = next_tag.wrapping_add(1);
        lease.extend_from_slice(&expect);
        (lease.freeze(), expect)
    };
    let mut live: std::collections::VecDeque<_> = (0..LIVE).map(|_| lease_frozen()).collect();
    let filled = pool.counters();
    assert_eq!((filled.misses, filled.resizes), (LIVE as u64, 0));

    for _ in 0..4 * LIVE / BATCH {
        for (bytes, expect) in live.drain(..BATCH) {
            assert_eq!(bytes.as_ref(), expect.as_slice(), "held view mutated");
        }
        live.extend((0..BATCH).map(|_| lease_frozen()));
    }
    let relet = pool.counters().since(&filled);
    assert_eq!(relet.leases, (4 * LIVE / BATCH * BATCH) as u64);
    assert_eq!((relet.misses, relet.resizes), (0, 0), "{relet:?}");
    for (bytes, expect) in &live {
        assert_eq!(bytes.as_ref(), expect.as_slice(), "held view mutated");
    }
}

#[test]
fn buffers_back_a_burst_at_a_time_stop_missing_once_warm() {
    // A serve window's raw samples: loaders lease them one at a time, 100
    // a round, and a retiring window step hands them back all at once,
    // here every third round, 300 at a time. The cycle is longer than the
    // pool's first trim interval, so an interval can miss its peak; the
    // pool must learn the cycle instead of shedding what the next rounds
    // lease again.
    const LIVE: usize = 600;
    const ROUND: usize = 100;
    const BURST: usize = 300;
    const LEN: usize = 8192;
    let pool = Arc::new(BufferPool::new(PoolConfig::default()));
    let mut live = std::collections::VecDeque::new();
    let mut retiring = Vec::new();
    let mut warm = None;
    let mut most_idle = 0;
    for round in 0..300 {
        for _ in 0..ROUND {
            let mut lease = pool.lease(LEN);
            lease.resize(LEN, round as u8);
            live.push_back(lease.freeze());
        }
        retiring.extend(live.drain(..live.len().saturating_sub(LIVE)));
        if retiring.len() == BURST {
            retiring.clear();
        }
        if round == 100 {
            warm = Some(pool.counters());
        }
        if warm.is_some() {
            most_idle = most_idle.max(pool.idle_buffers());
        }
    }
    let since = pool.counters().since(&warm.expect("warmed"));
    assert_eq!((since.misses, since.resizes), (0, 0), "{since:?}");
    assert!(most_idle <= BURST, "{most_idle} buffers idle");
}

#[test]
fn large_frames_hold_what_is_in_flight_plus_one() {
    // TCP frame bodies like `image_tcp`'s: 64 samples of ~49 KB, about
    // 3.0 MiB, a few percent either way. A burst of four is in flight at
    // once, then frames come one at a time, each frozen for its views
    // and consumed before the next.
    const MIB: usize = 1 << 20;
    let pool = Arc::new(BufferPool::new(PoolConfig::default()));
    let frame = |len: usize, tag: u8| {
        let mut lease = pool.lease(len);
        assert!(lease.capacity() >= len, "lease shorter than requested");
        assert!(lease.capacity() < 4 * MIB, "a {len}-byte frame took 4 MiB");
        lease.resize(len, tag);
        lease.freeze()
    };
    let burst: Vec<_> = (0..4).map(|i| frame(3 * MIB + i * 4096, i as u8)).collect();
    let mut largest = 3 * MIB + 3 * 4096;
    drop(burst);

    for i in 0..50usize {
        let len = 29 * MIB / 10 + (i * 7919) % (MIB / 5);
        let before = pool.counters();
        let body = frame(len, i as u8);
        let served = pool.counters().since(&before);
        if len <= largest {
            assert_eq!(served.misses, 0, "frame {i} of {len} bytes missed");
        }
        largest = largest.max(len);
        assert!(
            pool.idle_large_buffers() <= 1,
            "{} idle large buffers beside the frame in flight",
            pool.idle_large_buffers()
        );
        let view = body.slice(len - 16..);
        drop(body);
        assert!(view.iter().all(|&b| b == i as u8), "frame scribbled");
    }
    let c = pool.counters();
    assert_eq!(c.hits + c.misses + c.steals, c.leases);
}

#[test]
fn pooled_serving_stays_byte_identical_to_local_reference() {
    // The end-to-end safety proof: with every hot path drawing from the
    // global pool (synthetic payloads, batch encode, TCP frame recv),
    // distributed serving over real sockets must still deliver streams
    // byte-identical to the unpooled-era local reference.
    let (clients, steps, seed) = (4u32, 5u64, 33u64);
    let before = global().counters();
    let reference = local_streams(seed, clients, steps);
    assert_ordered_full(&reference, steps);
    let transport: Arc<dyn Transport> = Arc::new(TcpTransport::new().expect("bind tcp transport"));
    let streams = remote_streams(transport, seed, clients, steps);
    assert_ordered_full(&streams, steps);
    assert_byte_identical(&reference, &streams, "pooled tcp");

    // The run actually went through the pool, and the books balance.
    let delta = global().counters().since(&before);
    assert!(delta.leases > 0, "serve run bypassed the pool");
    assert_eq!(delta.hits + delta.misses + delta.steals, delta.leases);
    assert!(
        delta.hits + delta.steals > 0,
        "steady-state serving recycled nothing"
    );
}

proptest! {
    // Size-class boundary sweep: for capacities straddling every
    // power-of-two class edge, a lease always has room, round-trips
    // content intact, and the books always balance.
    #[test]
    fn boundary_requests_lease_and_recycle(
        k in 10u32..24,
        delta in -1i64..2,
        fill in any::<u8>(),
    ) {
        let pool = Arc::new(BufferPool::new(PoolConfig::default()));
        let len = ((1u64 << k) as i64 + delta) as usize;
        let mut lease = pool.lease(len);
        prop_assert!(lease.capacity() >= len);
        lease.resize(len, fill);
        let frozen = lease.freeze();
        prop_assert_eq!(frozen.len(), len);
        prop_assert!(frozen.iter().all(|&b| b == fill));
        drop(frozen);

        // Same-size follow-up: in-class sizes recycle, oversize ones
        // (beyond the largest class) are honest misses.
        let again = pool.lease(len);
        prop_assert!(again.capacity() >= len);
        let c = pool.counters();
        prop_assert_eq!(c.leases, 2);
        prop_assert_eq!(c.hits + c.misses + c.steals, c.leases);
        if len <= 16 << 20 {
            prop_assert_eq!(c.steals, 1, "parked buffer should be reclaimed");
        } else {
            prop_assert_eq!(c.misses, 2, "oversize requests must bypass the pool");
        }
    }
}
