//! The benchmark's counting allocator: `System` plus three process-wide
//! counters. Every allocation of the program under test goes through it,
//! so `allocs_per_sample`, `alloc_bytes_per_sample` and `heap_p50_mb` are
//! counts made outside the program, with no sampler thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// `System`, counting calls, requested bytes and live bytes.
pub struct Counting;

// Statistics only: nothing is published through these, so `Relaxed`.
static CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
/// Live bytes, kept as wrapping `u64` arithmetic (adds and subs pair up).
static LIVE: AtomicU64 = AtomicU64::new(0);

fn grew(bytes: usize) {
    CALLS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    LIVE.fetch_add(bytes as u64, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        // SAFETY: the caller's layout is passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        // SAFETY: the caller's layout is passed through as received.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: `ptr` was returned by `System` for this same layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // One allocator call asking for `new_size` bytes; the old block's
        // bytes stop being live.
        grew(new_size);
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: `ptr`/`layout` describe a live `System` block and
        // `new_size` is the caller's, passed through as received.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// One reading of the three counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocSnap {
    /// Allocator calls (`alloc`, `alloc_zeroed`, `realloc`) so far.
    pub calls: u64,
    /// Bytes requested by those calls so far.
    pub bytes: u64,
    /// Bytes allocated and not yet freed.
    pub live: u64,
}

/// Reads the counters (three relaxed loads; no lock, no allocation).
pub fn snapshot() -> AllocSnap {
    AllocSnap {
        calls: CALLS.load(Ordering::Relaxed),
        bytes: BYTES.load(Ordering::Relaxed),
        live: LIVE.load(Ordering::Relaxed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Barrier};

    /// Other tests allocate concurrently, so totals are lower bounds; the
    /// live figure is checked on the difference a held block makes.
    #[test]
    fn counters_add_up_under_two_threads() {
        const N: usize = 2000;
        const SIZE: usize = 4096;
        let before = snapshot();
        let gate = Arc::new(Barrier::new(2));
        let held: Vec<Vec<Vec<u8>>> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..2)
                .map(|_| {
                    let gate = Arc::clone(&gate);
                    s.spawn(move || {
                        gate.wait(); // Both threads allocate at once.
                        (0..N)
                            .map(|_| std::hint::black_box(Vec::with_capacity(SIZE)))
                            .collect::<Vec<Vec<u8>>>()
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        let during = snapshot();
        assert!(during.calls - before.calls >= 2 * N as u64);
        assert!(during.bytes - before.bytes >= (2 * N * SIZE) as u64);
        drop(held);
        let after = snapshot();
        // Freed bytes leave `live`, never `bytes`.
        assert!(after.bytes >= during.bytes);
        assert!(during.live.wrapping_sub(after.live) as i64 >= (2 * N * SIZE) as i64 / 2);
    }

    #[test]
    fn realloc_counts_one_call_for_the_new_size() {
        let mut v: Vec<u8> = Vec::with_capacity(1 << 20);
        let before = snapshot();
        v.reserve_exact(2 << 20);
        let after = snapshot();
        std::hint::black_box(&v);
        assert!(after.calls > before.calls);
        assert!(after.bytes - before.bytes >= 2 << 20);
    }
}
