//! Counted send path: what the allocator sees when a batch is sealed for
//! the wire and when a pool lease reclaims a parked buffer, read from a
//! counting global allocator that counts only the calling thread.
//!
//! 1. **A batch's wire form holds no payload copy.** `BatchFrame::encode`
//!    of a 64 × 48 KiB batch (the `image_*` shape) makes at most two
//!    allocator calls — the metadata and the payload offsets — and
//!    requests under 8 KiB, against the 3 MiB the contiguous form needs.
//! 2. **A steal is free.** A pool lease served by reclaiming a parked
//!    buffer makes no allocator call.
//! 3. **So is the whole cycle.** Once a class is warm, lease → fill →
//!    freeze → views drop → lease → freeze makes no allocator call: a
//!    pooled buffer keeps the shared header its views count on, so
//!    freezing it allocates none and reclaiming it frees none. A dropped,
//!    never-frozen lease keeps its header too.

#[path = "harness/counting.rs"]
mod counting;

use std::sync::Arc;

use bytes::Bytes;
use counting::counted;
use megascale_data::core::codec::{encode_batch, encoded_batch_len, BatchFrame};
use megascale_data::core::constructor::{
    ClientDelivery, ConstructedBatch, Microbatch, PackedSequence, Segment,
};
use megascale_data::core::pool::{BufferPool, PoolConfig};
use megascale_data::mesh::DeliveryKind;

/// Bytes of one image sample's payload.
const PAYLOAD: usize = 48 << 10;

/// A bucket-step of the `image_*` shape: two microbatches of 32 samples,
/// one sequence and one 48 KiB payload per sample, two receiving ranks.
fn image_batch() -> ConstructedBatch {
    let microbatches = (0..2u32)
        .map(|bin| {
            let ids = (0..32u64).map(|i| u64::from(bin) * 32 + i);
            Microbatch {
                bin,
                sequences: ids
                    .clone()
                    .map(|sample_id| PackedSequence {
                        segments: vec![Segment {
                            sample_id,
                            tokens: 256,
                        }]
                        .into(),
                        tokens: 256,
                        padding: 0,
                    })
                    .collect(),
                payloads: ids
                    .map(|id| (id, Bytes::from(vec![id as u8; PAYLOAD])))
                    .collect(),
                payload_bytes: (32 * PAYLOAD) as u64,
            }
        })
        .collect();
    let deliveries = (0..2)
        .map(|rank| ClientDelivery {
            rank,
            kind: DeliveryKind::Payload,
            cp_slices: vec![],
            bytes: (64 * PAYLOAD) as u64,
        })
        .collect();
    ConstructedBatch {
        bucket: 0,
        microbatches,
        deliveries,
    }
}

#[test]
fn sealing_a_batch_for_the_wire_copies_no_payload() {
    let batch = image_batch();
    let (frame, calls, bytes) = counted(|| BatchFrame::encode(&batch));
    assert!(calls <= 2, "{calls} allocator calls to seal one batch");
    assert!(
        bytes < 8 << 10,
        "{bytes} bytes requested to seal a {}-byte frame",
        encoded_batch_len(&batch)
    );
    let mut wire = Vec::new();
    frame.for_each_part(&batch, |part| wire.extend_from_slice(part));
    assert_eq!(wire, encode_batch(&batch), "parts are not the frame");
}

#[test]
fn a_pool_lease_that_steals_makes_no_allocator_call() {
    let pool = Arc::new(BufferPool::new(PoolConfig::default()));
    let park = || {
        let mut lease = pool.lease(PAYLOAD);
        lease.extend_from_slice(&[7; 64]);
        drop(lease.freeze()); // Parked, and unique again at once.
    };
    // A miss, then a steal: the class's free list has its room after it.
    park();
    park();
    let before = pool.counters();
    let (lease, calls, _) = counted(|| pool.lease(PAYLOAD));
    let served = pool.counters().since(&before);
    assert_eq!((served.leases, served.steals), (1, 1), "{served:?}");
    assert_eq!(calls, 0, "a steal called the allocator");
    assert!(lease.is_empty() && lease.capacity() >= PAYLOAD);
}

#[test]
fn a_warmed_pool_cycle_makes_no_allocator_call() {
    let pool = Arc::new(BufferPool::new(PoolConfig::default()));
    let cycle = || {
        let mut lease = pool.lease(PAYLOAD);
        lease.extend_from_slice(&[7; 64]);
        let frozen = lease.freeze();
        let view = frozen.slice(8..16);
        drop(frozen);
        assert_eq!(&view[..], &[7; 8]);
        drop(view); // The parked handle is the last view now.
        drop(pool.lease(PAYLOAD)); // Steals it, never freezes it.
        let mut again = pool.lease(PAYLOAD);
        again.extend_from_slice(&[9; 64]);
        again.freeze()
    };
    drop(cycle()); // Warm-up: the class's first buffer and its lists.
    let before = pool.counters();
    let (frozen, calls, _) = counted(cycle);
    let served = pool.counters().since(&before);
    assert_eq!((served.leases, served.misses), (3, 0), "{served:?}");
    assert_eq!(calls, 0, "a warmed lease/freeze cycle called the allocator");
    assert_eq!(&frozen[..], &[9; 64]);
}
