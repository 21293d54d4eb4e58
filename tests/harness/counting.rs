//! A counting global allocator that counts only the threads that opt in,
//! for the counted test suites (`planner_scaling.rs`, `wire_allocs.rs`,
//! `loader_allocs.rs`, `control_allocs.rs`, `source_scaling.rs`).
//! A test crate includes it with
//! `#[path = "harness/counting.rs"] mod counting;`, which installs it as
//! that test binary's global allocator, and reads counts through
//! [`counted`]. Counts are exact: only the calling thread is counted, so
//! other tests running concurrently cannot disturb them.
//!
//! A binary that holds a single test may instead count every thread with
//! [`count_every_thread`] and read the totals with [`process_calls`] and
//! [`process_bytes`], to see what a multi-threaded runtime allocates as a
//! whole.

// A `GlobalAlloc` is an `unsafe impl`; this module is the only place the
// test suite needs one.
#![allow(unsafe_code)]
#![allow(dead_code)] // Each test crate uses one of the two counting modes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// `System`, counting the calls and requested bytes of threads that
/// opted in.
struct ThreadCounting;

thread_local! {
    // Const-initialised and without destructors: reading or writing them
    // never allocates, so the allocator may touch them.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static CALLS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
    static FREED: Cell<u64> = const { Cell::new(0) };
}

/// Process-wide mode: every thread's calls, once switched on.
static EVERY_THREAD: AtomicBool = AtomicBool::new(false);
static PROCESS_CALLS: AtomicU64 = AtomicU64::new(0);
static PROCESS_BYTES: AtomicU64 = AtomicU64::new(0);

fn grew(bytes: usize) {
    if EVERY_THREAD.load(Ordering::Relaxed) {
        PROCESS_CALLS.fetch_add(1, Ordering::Relaxed);
        PROCESS_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
    if COUNTING.with(Cell::get) {
        CALLS.with(|c| c.set(c.get() + 1));
        BYTES.with(|b| b.set(b.get() + bytes as u64));
    }
}

fn shrank(bytes: usize) {
    if COUNTING.with(Cell::get) {
        FREED.with(|f| f.set(f.get() + bytes as u64));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocator state.
unsafe impl GlobalAlloc for ThreadCounting {
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
        shrank(layout.size());
        // SAFETY: `ptr` was returned by `System` for this same layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        grew(new_size);
        shrank(layout.size());
        // SAFETY: `ptr`/`layout` describe a live `System` block and
        // `new_size` is the caller's, passed through as received.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: ThreadCounting = ThreadCounting;

/// `(f's result, allocator calls, requested bytes)` of `f` on this
/// thread.
pub fn counted<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let before = (CALLS.with(Cell::get), BYTES.with(Cell::get));
    COUNTING.with(|c| c.set(true));
    let out = f();
    COUNTING.with(|c| c.set(false));
    let calls = CALLS.with(Cell::get) - before.0;
    let bytes = BYTES.with(Cell::get) - before.1;
    (out, calls, bytes)
}

/// `(f's result, growth of this thread's live heap)` over `f`: the bytes
/// its allocations requested less the bytes of the blocks it freed (a
/// `realloc` counts as both).
pub fn counted_live<T>(f: impl FnOnce() -> T) -> (T, i64) {
    let freed = FREED.with(Cell::get);
    let (out, _, bytes) = counted(f);
    let freed = FREED.with(Cell::get) - freed;
    (out, bytes as i64 - freed as i64)
}

/// Switches on process-wide counting: from now on [`process_calls`] and
/// [`process_bytes`] count the allocator calls and requested bytes of
/// every thread.
pub fn count_every_thread() {
    EVERY_THREAD.store(true, Ordering::Relaxed);
}

/// Allocator calls of every thread since [`count_every_thread`].
pub fn process_calls() -> u64 {
    PROCESS_CALLS.load(Ordering::Relaxed)
}

/// Bytes requested by every thread since [`count_every_thread`] (a
/// `realloc` counts its new size).
pub fn process_bytes() -> u64 {
    PROCESS_BYTES.load(Ordering::Relaxed)
}
