//! Counted loader refill: what the allocator sees when a warmed synthetic
//! text loader refills its buffer, read from a counting global allocator
//! that counts only the calling thread.
//!
//! A text sample is synthesized into a pooled lease, frozen, and
//! tokenized at refill; the raw lease's last view drops there, so the
//! next sample's lease reclaims it, shared header and all. What is left
//! per sample is its token payload: one `Vec` and the header its `Bytes`
//! views share — exactly two allocator calls.
//!
//! The loader draws from the process-global pool, so this binary holds
//! this one test: no concurrent test touches that pool.

#[path = "harness/counting.rs"]
mod counting;

use counting::counted;
use megascale_data::core::loader::{LoaderConfig, SourceLoader};
use megascale_data::data::catalog::text_only;
use megascale_data::sim::SimRng;

/// Samples one refill produces.
const N: usize = 64;

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
fn a_warmed_text_refill_makes_two_allocator_calls_per_sample() {
    let spec = text_only(&mut SimRng::seed(7), 1).sources()[0].clone();
    let mut loader = SourceLoader::synthetic(spec, LoaderConfig::solo(0), 42);
    // Warm-up: the pool's class, its parked queue and free list, and the
    // loader's buffer reach their steady capacities.
    for _ in 0..4 {
        loader.refill(N).unwrap();
        drain(&mut loader);
    }
    for _ in 0..4 {
        let (filled, calls, _) = counted(|| loader.refill(N));
        filled.unwrap();
        assert_eq!(loader.buffered(), N);
        assert_eq!(calls, 2 * N as u64, "allocator calls to refill {N} samples");
        drain(&mut loader);
    }
}
