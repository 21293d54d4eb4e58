//! Counted loader refill and materialization: what the allocator sees
//! when a warmed synthetic text loader admits samples and then
//! materializes them, read from a counting global allocator that counts
//! only the calling thread.
//!
//! A refill admits samples as metadata into a buffer whose capacity is
//! already there: no allocator call at all. Materializing a text sample
//! synthesizes it into a pooled lease, freezes it and tokenizes it; the
//! raw lease's last view drops there, so the next sample's lease
//! reclaims it, shared header and all. What is left per sample is its
//! token payload: one `Vec` and the header its `Bytes` views share —
//! exactly two allocator calls.
//!
//! The loader draws from the process-global pool, so only one test here
//! materializes: the other only admits, which touches no pool.

#[path = "harness/counting.rs"]
mod counting;

use counting::{counted, counted_live};
use megascale_data::core::loader::{LoaderConfig, SourceLoader};
use megascale_data::data::catalog::text_only;
use megascale_data::sim::SimRng;

/// Samples one refill admits.
const N: usize = 64;

fn text_loader() -> SourceLoader {
    let spec = text_only(&mut SimRng::seed(7), 1).sources()[0].clone();
    SourceLoader::synthetic(spec, LoaderConfig::solo(0), 42)
}

/// Pops and drops every buffered sample.
fn drain(loader: &mut SourceLoader) {
    let ids: Vec<u64> = loader
        .summary()
        .samples
        .iter()
        .map(|m| m.sample_id)
        .collect();
    drop(loader.pop(&ids));
}

#[test]
fn a_warmed_refill_allocates_nothing_and_materializing_makes_two_calls_a_sample() {
    let mut loader = text_loader();
    // Warm-up: the pool's class, its parked queue and free list, and the
    // loader's buffer reach their steady capacities.
    for _ in 0..4 {
        loader.refill(N).unwrap();
        loader.materialize(N);
        drain(&mut loader);
    }
    for _ in 0..4 {
        let (filled, calls, _) = counted(|| loader.refill(N));
        filled.unwrap();
        assert_eq!(loader.buffered(), N);
        assert_eq!(calls, 0, "allocator calls to admit {N} samples");
        let (made, calls, _) = counted(|| loader.materialize(N));
        assert_eq!(made, N);
        assert_eq!(
            calls,
            2 * N as u64,
            "allocator calls to materialize {N} samples"
        );
        drain(&mut loader);
    }
}

#[test]
fn admitted_samples_cost_the_live_heap_at_most_64_bytes_each() {
    const ADMITTED: usize = 512;
    let mut loader = text_loader();
    let (filled, grown) = counted_live(|| loader.refill(ADMITTED));
    filled.unwrap();
    assert_eq!(loader.buffered(), ADMITTED);
    assert!(
        grown <= 64 * ADMITTED as i64,
        "admitting {ADMITTED} samples grew the live heap by {grown} B"
    );
}
