//! Property fuzz for the full MSDB codec.
//!
//! Every frame kind — the GCS blob kinds (1–4, the kind-13 frontier
//! checkpoint, the kind-15 plan store and the kind-16 topology), the
//! distributed-serving wire kinds (5–10, the kind-12 `Reject`, and the
//! kind-14 `Frontier` announcement), and the binary batch payload frame
//! (kind 11) — must satisfy three properties under adversarial bytes:
//!
//! 1. **Round-trip**: `decode(encode(x)) == x`.
//! 2. **Truncation**: every strict prefix of a valid frame decodes to
//!    `Err` through *every* decoder — never a panic, never an `Ok`.
//! 3. **Bit flips**: any single-bit corruption anywhere in a frame is
//!    caught before any decoded data is consumed. This is a
//!    *guarantee*, not a likelihood: the FNV-1a checksums are injective
//!    per byte position, so one flipped byte can never collide. The
//!    one subtlety is the wire `Batch` frame: its head checksum
//!    deliberately excludes the payload region (scatter-gather send
//!    never re-hashes a multi-megabyte payload per client), so a
//!    payload flip decodes `Ok` at the wire layer and is caught by the
//!    payload's own kind-11 wide seal when the batch is opened —
//!    `flip_caught` encodes exactly that two-layer contract.
//!
//! Arbitrary garbage — anything that is not an `MSDB` frame — additionally
//! must error through every decoder, without a panic and without
//! recursing on its length.

mod harness;

/// The materialised position ids a sequence used to carry on the wire;
/// compiled into `msd_core`'s unit tests as the reference for the
/// derived ones.
#[path = "../crates/core/src/constructor/reference.rs"]
mod reference;

use proptest::prelude::*;

use harness::{arb_plan, stores_bit_identical};
use megascale_data::core::codec::{
    decode_batch, decode_batch_shared, decode_controller_checkpoint, decode_frontier_checkpoint,
    decode_loader_checkpoint, decode_plan_log, decode_plan_store, decode_planner_checkpoint,
    decode_topology, decode_wire_frame, decode_wire_frame_shared, encode_batch,
    encode_controller_checkpoint, encode_frontier_checkpoint, encode_loader_checkpoint,
    encode_plan_log, encode_plan_store, encode_planner_checkpoint, encode_topology,
    encode_wire_frame, is_binary, BatchFrame,
};
use megascale_data::core::constructor::{
    ClientDelivery, ConstructedBatch, Microbatch, PackedSequence, Segment,
};
use megascale_data::core::loader::LoaderCheckpoint;
use megascale_data::core::planner::PlannerCheckpoint;
use megascale_data::core::replay::PlanStore;
use megascale_data::core::system::controller::{ControllerCheckpoint, SlotRecord};
use megascale_data::core::system::core::CoreCheckpoint;
use megascale_data::core::system::frontier::{FrontierCheckpoint, Holder};
use megascale_data::core::system::net::{BatchPayload, RejectReason, WireFrame};
use megascale_data::core::window::Window;
use megascale_data::mesh::{Axis, ClientPlaceTree, DeliveryKind, DeviceMesh};

use std::collections::BTreeMap;

fn rng_state() -> impl Strategy<Value = [u64; 4]> {
    (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()).prop_map(|(a, b, c, d)| [a, b, c, d])
}

fn planner_cp() -> impl Strategy<Value = CoreCheckpoint> {
    (any::<u64>(), rng_state(), any::<u64>()).prop_map(|(step, rng, replayed_steps)| {
        CoreCheckpoint {
            planner: PlannerCheckpoint {
                step,
                rng_state: rng,
            },
            replayed_steps,
        }
    })
}

fn loader_cp() -> impl Strategy<Value = LoaderCheckpoint> {
    (any::<u32>(), any::<u64>(), rng_state(), any::<u64>()).prop_map(
        |(loader_id, cursor, rng, version)| LoaderCheckpoint {
            loader_id,
            cursor,
            rng_state: rng,
            version,
        },
    )
}

fn plan_log() -> impl Strategy<Value = BTreeMap<u32, Window<u64>>> {
    proptest::collection::vec(
        (0u32..64, proptest::collection::vec(any::<u64>(), 0..8)),
        0..6,
    )
    .prop_map(|entries| {
        entries
            .into_iter()
            .map(|(loader, ids)| (loader, ids.into()))
            .collect()
    })
}

fn controller_cp() -> impl Strategy<Value = ControllerCheckpoint> {
    (
        any::<u64>(),
        any::<u32>(),
        (any::<u64>(), any::<u64>(), any::<u64>()),
        proptest::collection::vec(
            (any::<u32>(), any::<u32>(), 0u32..256, 1u32..256).prop_map(
                |(source, loader_id, shard, shards)| SlotRecord {
                    source,
                    loader_id,
                    shard,
                    shards,
                },
            ),
            0..6,
        ),
    )
        .prop_map(|(seq, next_loader_id, (ups, downs, rebalances), slots)| {
            ControllerCheckpoint {
                seq,
                next_loader_id,
                scale_ups: ups,
                scale_downs: downs,
                rebalances,
                slots,
            }
        })
}

fn frontier_cp() -> impl Strategy<Value = FrontierCheckpoint> {
    (
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        proptest::collection::vec(
            (any::<u32>(), any::<u64>()).prop_map(|(id, cursor)| (Holder::Client(id), cursor)),
            0..8,
        ),
    )
        .prop_map(
            |(frontier, served, plan_base, pruned_below, holders)| FrontierCheckpoint {
                frontier,
                served,
                plan_base,
                pruned_below,
                holders,
            },
        )
}

fn wire_frame() -> impl Strategy<Value = WireFrame> {
    prop_oneof![
        (any::<u32>(), any::<u32>()).prop_map(|(client, rank)| WireFrame::Hello { client, rank }),
        (any::<u32>(), any::<u64>(), any::<u32>()).prop_map(|(client, from_step, credits)| {
            WireFrame::Subscribe {
                client,
                from_step,
                credits,
            }
        }),
        (
            any::<u32>(),
            any::<u64>(),
            proptest::collection::vec(any::<u8>(), 0..48),
        )
            .prop_map(|(client, step, payload)| WireFrame::Batch {
                client,
                step,
                payload: BatchPayload::Encoded(bytes::Bytes::from(payload)),
            }),
        (any::<u32>(), any::<u64>()).prop_map(|(client, step)| WireFrame::Ack { client, step }),
        (any::<u32>(), any::<u32>())
            .prop_map(|(client, grant)| WireFrame::Credit { client, grant }),
        any::<u32>().prop_map(|client| WireFrame::Close { client }),
        (any::<u32>(), any::<u64>())
            .prop_map(|(client, consumed)| WireFrame::Frontier { client, consumed }),
        (
            any::<u32>(),
            prop_oneof![Just(RejectReason::SessionLimit), Just(RejectReason::Ended)]
        )
            .prop_map(|(client, reason)| WireFrame::Reject { client, reason }),
    ]
}

fn delivery_kind() -> impl Strategy<Value = DeliveryKind> {
    prop_oneof![
        Just(DeliveryKind::Payload),
        Just(DeliveryKind::MetadataOnly),
        Just(DeliveryKind::Elided),
    ]
}

/// Sequences the decoder accepts: tokens are the segments' sum. Lengths
/// stay small so [`reference::position_ids`] can materialise them.
fn packed_sequence() -> impl Strategy<Value = PackedSequence> {
    (
        proptest::collection::vec(
            (any::<u64>(), 0u64..48).prop_map(|(sample_id, tokens)| Segment { sample_id, tokens }),
            0..4,
        ),
        0u64..48,
    )
        .prop_map(|(segments, padding)| PackedSequence {
            tokens: segments.iter().map(|s| s.tokens).sum(),
            segments: segments.into(),
            padding,
        })
}

/// Microbatches with arbitrary payload byte runs, 0-byte runs included
/// (`0..max_payload` sizes; the multi-MB end is a dedicated test —
/// too slow for every proptest case).
fn microbatch(max_payload: usize) -> impl Strategy<Value = Microbatch> {
    (
        any::<u32>(),
        proptest::collection::vec(packed_sequence(), 0..3),
        proptest::collection::vec(
            (
                any::<u64>(),
                proptest::collection::vec(any::<u8>(), 0..max_payload),
            ),
            0..3,
        ),
        any::<u64>(),
    )
        .prop_map(|(bin, sequences, payloads, payload_bytes)| Microbatch {
            bin,
            sequences,
            payloads: payloads
                .into_iter()
                .map(|(id, bytes)| (id, bytes::Bytes::from(bytes)))
                .collect(),
            payload_bytes,
        })
}

fn client_delivery() -> impl Strategy<Value = ClientDelivery> {
    (
        any::<u32>(),
        delivery_kind(),
        proptest::collection::vec(
            proptest::collection::vec((any::<u64>(), any::<u64>()), 0..3),
            0..3,
        ),
        any::<u64>(),
    )
        .prop_map(|(rank, kind, cp_slices, bytes)| ClientDelivery {
            rank,
            kind,
            cp_slices,
            bytes,
        })
}

fn constructed_batch() -> impl Strategy<Value = ConstructedBatch> {
    (
        any::<u32>(),
        proptest::collection::vec(microbatch(96), 0..3),
        proptest::collection::vec(client_delivery(), 0..3),
    )
        .prop_map(|(bucket, microbatches, deliveries)| ConstructedBatch {
            bucket,
            microbatches,
            deliveries,
        })
}

fn plan_store() -> impl Strategy<Value = PlanStore> {
    proptest::collection::vec(arb_plan(), 0..4).prop_map(|plans| {
        let mut store = PlanStore::new();
        for plan in plans {
            store.insert(plan);
        }
        store
    })
}

/// Place trees over every axis subset and order (the first size drawn
/// for an axis wins), the empty one-rank mesh included.
fn topology() -> impl Strategy<Value = ClientPlaceTree> {
    proptest::collection::vec((0usize..4, 1u32..5), 0..6).prop_map(|draws| {
        let mut dims: Vec<(Axis, u32)> = Vec::new();
        for (axis, size) in draws {
            let axis = Axis::CANONICAL[axis];
            if dims.iter().all(|(seen, _)| *seen != axis) {
                dims.push((axis, size));
            }
        }
        ClientPlaceTree::from_device_mesh(&DeviceMesh::new(dims).unwrap())
    })
}

/// Any valid frame of any kind, as its encoded bytes.
fn arb_frame() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        planner_cp().prop_map(|cp| encode_planner_checkpoint(&cp)),
        plan_log().prop_map(|d| encode_plan_log(&d)),
        loader_cp().prop_map(|cp| encode_loader_checkpoint(&cp)),
        controller_cp().prop_map(|cp| encode_controller_checkpoint(&cp)),
        frontier_cp().prop_map(|cp| encode_frontier_checkpoint(&cp)),
        wire_frame().prop_map(|f| encode_wire_frame(&f)),
        constructed_batch().prop_map(|b| encode_batch(&b)),
        plan_store().prop_map(|s| encode_plan_store(&s)),
        topology().prop_map(|t| encode_topology(&t)),
    ]
}

/// Index of `decode_wire_frame` in [`decoder_verdicts`].
const WIRE: usize = 5;

/// Whether each decoder rejected `data`, one entry per frame family in a
/// fixed order. The calls themselves must never panic — that is half of
/// every property here.
fn decoder_verdicts(data: &[u8]) -> [bool; 9] {
    [
        decode_planner_checkpoint(data).is_err(),
        decode_plan_log(data).is_err(),
        decode_loader_checkpoint(data).is_err(),
        decode_controller_checkpoint(data).is_err(),
        decode_frontier_checkpoint(data).is_err(),
        decode_wire_frame(data).is_err(),
        decode_batch(data).is_err(),
        decode_plan_store(data).is_err(),
        decode_topology(data).is_err(),
    ]
}

/// Whether every decoder — the zero-copy batch reader included — errored
/// on `data`.
fn all_decoders_err(data: &[u8]) -> bool {
    decoder_verdicts(data).iter().all(|rejected| *rejected)
        && decode_batch_shared(&bytes::Bytes::copy_from_slice(data)).is_err()
}

/// Whether a corrupted frame is caught before any decoded data is
/// consumed. Every decoder must err outright, except `decode_wire_frame`
/// on a batch frame whose *payload region* was hit: the head seal
/// excludes the payload by design, so the wire layer decodes `Ok` and
/// the corruption must instead trip the payload's own kind-11 seal in
/// `BatchPayload::batch()`.
fn flip_caught(data: &[u8]) -> bool {
    let mut verdicts = decoder_verdicts(data);
    verdicts[WIRE] = match decode_wire_frame(data) {
        Err(_) => true,
        Ok(WireFrame::Batch { payload, .. }) => payload.batch().is_err(),
        Ok(_) => false,
    };
    verdicts.iter().all(|caught| *caught)
}

proptest! {
    #[test]
    fn planner_checkpoint_roundtrips(cp in planner_cp()) {
        prop_assert_eq!(decode_planner_checkpoint(&encode_planner_checkpoint(&cp)).unwrap(), cp);
    }

    #[test]
    fn plan_log_roundtrips(d in plan_log()) {
        prop_assert_eq!(decode_plan_log(&encode_plan_log(&d)).unwrap(), d);
    }

    #[test]
    fn loader_checkpoint_roundtrips(cp in loader_cp()) {
        prop_assert_eq!(decode_loader_checkpoint(&encode_loader_checkpoint(&cp)).unwrap(), cp);
    }

    #[test]
    fn controller_checkpoint_roundtrips(cp in controller_cp()) {
        prop_assert_eq!(
            decode_controller_checkpoint(&encode_controller_checkpoint(&cp)).unwrap(),
            cp
        );
    }

    #[test]
    fn frontier_checkpoint_roundtrips(cp in frontier_cp()) {
        prop_assert_eq!(
            decode_frontier_checkpoint(&encode_frontier_checkpoint(&cp)).unwrap(),
            cp
        );
    }

    #[test]
    fn wire_frames_roundtrip(frame in wire_frame()) {
        let encoded = encode_wire_frame(&frame);
        prop_assert!(is_binary(&encoded));
        prop_assert_eq!(decode_wire_frame(&encoded).unwrap(), frame);
    }

    /// Stores round-trip bit-exactly (NaN payloads and the sign of zero
    /// among the bin costs) and encode canonically.
    #[test]
    fn plan_store_roundtrips(store in plan_store()) {
        let encoded = encode_plan_store(&store);
        prop_assert!(is_binary(&encoded));
        let decoded = decode_plan_store(&encoded).unwrap();
        prop_assert!(stores_bit_identical(&store, &decoded));
        prop_assert_eq!(encode_plan_store(&decoded), encoded);
    }

    #[test]
    fn topology_roundtrips(tree in topology()) {
        let encoded = encode_topology(&tree);
        prop_assert!(is_binary(&encoded));
        prop_assert_eq!(decode_topology(&encoded).unwrap(), tree);
    }

    /// Every strict prefix of every frame kind errors through every
    /// decoder (exhaustive over cut points — frames are small).
    #[test]
    fn truncation_always_errors(frame in arb_frame()) {
        for cut in 0..frame.len() {
            prop_assert!(
                all_decoders_err(&frame[..cut]),
                "a {}-byte prefix of a {}-byte frame decoded",
                cut,
                frame.len()
            );
        }
    }

    /// Any single-bit flip is caught before decoded data is consumed —
    /// the checksum guarantee (sampled bit positions; the checksum
    /// argument covers all of them uniformly). See [`flip_caught`] for
    /// the wire-batch payload subtlety.
    #[test]
    fn single_bit_flips_always_error(frame in arb_frame(), picks in proptest::collection::vec(any::<u32>(), 8)) {
        for pick in picks {
            let bit = pick as usize % (frame.len() * 8);
            let mut flipped = frame.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            prop_assert!(
                flip_caught(&flipped),
                "flipping bit {} of a {}-byte frame still decoded",
                bit,
                frame.len()
            );
        }
    }

    /// The deferred-detection path, exercised end-to-end: a wire batch
    /// frame carrying a *valid* kind-11 payload. A flip in the head
    /// region errors at the wire layer (head checksum); a flip in the
    /// payload region decodes at the wire layer but must then fail the
    /// payload's own wide seal — corruption is never consumable either
    /// way.
    #[test]
    fn wire_batch_payload_flips_defer_to_the_batch_seal(
        batch in constructed_batch(),
        client in any::<u32>(),
        step in any::<u64>(),
        picks in proptest::collection::vec(any::<u32>(), 8),
    ) {
        let payload = encode_batch(&batch);
        let frame = encode_wire_frame(&WireFrame::Batch {
            client,
            step,
            payload: BatchPayload::Encoded(bytes::Bytes::from(payload.clone())),
        });
        let head_len = frame.len() - payload.len();
        prop_assert_eq!(&frame[head_len..], &payload[..]);
        for pick in picks {
            let bit = pick as usize % (frame.len() * 8);
            let mut flipped = frame.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            if bit / 8 < head_len {
                prop_assert!(
                    decode_wire_frame(&flipped).is_err(),
                    "flipping head bit {} still decoded at the wire layer",
                    bit
                );
            } else {
                match decode_wire_frame(&flipped) {
                    Ok(WireFrame::Batch { payload, .. }) => prop_assert!(
                        payload.batch().is_err(),
                        "payload bit {} flipped, batch still opened",
                        bit
                    ),
                    other => prop_assert!(
                        false,
                        "payload flip changed the wire-layer outcome: {:?}",
                        other
                    ),
                }
            }
        }
    }

    /// Anything that is not a sealed `MSDB` frame errors through every
    /// decoder (for random bytes to pass, a random 32-bit tail would
    /// have to match the FNV-1a of a body that starts with the magic).
    /// The second generator is the shape a recursive-descent text parser
    /// dies on: one opening or prefix byte repeated up to 64 KiB.
    #[test]
    fn garbage_never_panics(
        bytes in proptest::collection::vec(any::<u8>(), 0..96),
        byte in 0usize..5,
        run in 0usize..(64 << 10) + 1,
    ) {
        prop_assert!(all_decoders_err(&bytes), "random bytes decoded");
        prop_assert!(all_decoders_err(&vec![b"[{\"-0"[byte]; run]));
        prop_assert!(all_decoders_err(&[]));
    }

    /// A valid frame of one kind decodes through its own decoder and
    /// errors through every *other* kind's (kind confusion is caught
    /// even with a valid checksum).
    #[test]
    fn kind_confusion_always_errors(
        cps in (planner_cp(), plan_log(), loader_cp(), controller_cp(), frontier_cp()),
        frame in wire_frame(),
        batch in constructed_batch(),
        store in plan_store(),
        tree in topology(),
    ) {
        // In `decoder_verdicts` order.
        let frames = [
            encode_planner_checkpoint(&cps.0),
            encode_plan_log(&cps.1),
            encode_loader_checkpoint(&cps.2),
            encode_controller_checkpoint(&cps.3),
            encode_frontier_checkpoint(&cps.4),
            encode_wire_frame(&frame),
            encode_batch(&batch),
            encode_plan_store(&store),
            encode_topology(&tree),
        ];
        for (own, encoded) in frames.iter().enumerate() {
            for (decoder, rejected) in decoder_verdicts(encoded).into_iter().enumerate() {
                prop_assert_eq!(
                    rejected,
                    decoder != own,
                    "frame {} through decoder {}",
                    own,
                    decoder
                );
            }
        }
    }

    /// Every encoder sizes its frame before writing it, and sizes it
    /// exactly: the encoded `Vec` never grew, so its capacity is its
    /// length. A size that undercounts still writes the right bytes (the
    /// `Vec` just reallocates), so no round-trip or golden test sees it.
    #[test]
    fn encoders_presize_exactly(
        cps in (planner_cp(), plan_log(), loader_cp(), controller_cp(), frontier_cp()),
        frame in wire_frame(),
        batch in constructed_batch(),
        store in plan_store(),
        tree in topology(),
    ) {
        let frames = [
            encode_planner_checkpoint(&cps.0),
            encode_plan_log(&cps.1),
            encode_loader_checkpoint(&cps.2),
            encode_controller_checkpoint(&cps.3),
            encode_frontier_checkpoint(&cps.4),
            encode_wire_frame(&frame),
            encode_batch(&batch),
            encode_plan_store(&store),
            encode_topology(&tree),
        ];
        for (kind, encoded) in frames.iter().enumerate() {
            prop_assert_eq!(
                encoded.capacity(),
                encoded.len(),
                "frame {} (in `decoder_verdicts` order) was resized",
                kind
            );
        }
    }

    /// The binary batch frame round-trips over arbitrary batches —
    /// payload runs of every size in range, 0 bytes included.
    #[test]
    fn batch_frames_roundtrip(batch in constructed_batch()) {
        let encoded = encode_batch(&batch);
        prop_assert!(is_binary(&encoded));
        prop_assert_eq!(decode_batch(&encoded).unwrap(), batch);
    }

    /// The send-side form of a batch frame — metadata and seal, with the
    /// payloads left in the batch — yields the contiguous frame's bytes,
    /// seal included, when its parts are laid end to end.
    #[test]
    fn batch_frame_parts_concatenate_to_the_encoding(batch in constructed_batch()) {
        let frame = BatchFrame::encode(&batch);
        let mut parts = Vec::new();
        frame.for_each_part(&batch, |part| parts.extend_from_slice(part));
        prop_assert_eq!(frame.encoded_len(), parts.len());
        prop_assert_eq!(parts, encode_batch(&batch));
    }

    /// The position ids a client derives from a decoded sequence — as an
    /// iterator or written into a tensor — are exactly the ids the v3
    /// frame materialised and shipped.
    #[test]
    fn derived_position_ids_match_the_materialised_reference(seq in packed_sequence()) {
        let batch = ConstructedBatch {
            bucket: 0,
            microbatches: vec![Microbatch {
                bin: 0,
                sequences: vec![seq.clone()],
                payloads: vec![],
                payload_bytes: 0,
            }],
            deliveries: vec![],
        };
        let decoded = decode_batch(&encode_batch(&batch)).unwrap();
        let want = reference::position_ids(&seq.segments, seq.padding);
        for seq in [&seq, &decoded.microbatches[0].sequences[0]] {
            prop_assert_eq!(seq.position_ids().collect::<Vec<_>>(), want.clone());
            let mut filled = vec![u32::MAX; seq.padded_len() as usize];
            seq.fill_position_ids(&mut filled);
            prop_assert_eq!(&filled, &want);
        }
    }
}

/// Multi-MB payload runs round-trip too — one deterministic case rather
/// than a proptest dimension, because encoding megabytes per case would
/// dominate the suite's runtime.
#[test]
fn multi_mb_batch_payloads_roundtrip() {
    let payload: Vec<u8> = (0..3 * 1024 * 1024u32).map(|i| (i % 253) as u8).collect();
    let batch = ConstructedBatch {
        bucket: 1,
        microbatches: vec![Microbatch {
            bin: 0,
            sequences: vec![],
            payloads: vec![
                (7, bytes::Bytes::from(payload.clone())),
                (8, bytes::Bytes::new()),
            ],
            payload_bytes: payload.len() as u64,
        }],
        deliveries: vec![],
    };
    let encoded = encode_batch(&batch);
    // Framing overhead stays fixed-size: header + fields + checksum,
    // no per-payload-byte expansion.
    assert!(encoded.len() < payload.len() + 256);
    assert_eq!(decode_batch(&encoded).unwrap(), batch);
    // Truncating a multi-MB frame anywhere still errors (sampled cuts;
    // the exhaustive sweep runs on small frames in `truncation_always_errors`).
    for cut in [0, 1, 5, encoded.len() / 2, encoded.len() - 1] {
        assert!(decode_batch(&encoded[..cut]).is_err());
    }
}

/// The wire layer does not look inside a batch payload (its seal is the
/// payload's own), so a well-formed frame can carry any bytes there —
/// here 64 KiB of `[`, enough to overflow the stack of anything that
/// recurses on it. It must decode as a frame and then fail as a batch,
/// not take the receiving process down.
#[test]
fn wire_batch_with_a_non_frame_payload_errors_when_opened() {
    let frame = encode_wire_frame(&WireFrame::Batch {
        client: 1,
        step: 2,
        payload: BatchPayload::Encoded(vec![b'['; 1 << 16].into()),
    });
    match decode_wire_frame_shared(&frame.into()).unwrap() {
        WireFrame::Batch { payload, .. } => assert!(payload.batch().is_err()),
        other => panic!("decoded as {other:?}"),
    }
}
