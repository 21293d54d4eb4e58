//! Golden bytes for every `MSDB` frame kind.
//!
//! One fixed value of each kind is encoded and compared, byte for byte,
//! with the hex the codec wrote when the vectors were captured. A change
//! that moves any byte of any frame fails here, even when it still
//! round-trips: the frames are durable (GCS blobs outlive the process
//! that wrote them) and cross the wire between builds, so a layout change
//! is a `VERSION` bump, never a side effect. Wire kinds also pin
//! `encoded_wire_frame_len`, which senders size their buffers with.
//!
//! On a mismatch the test prints every frame's current hex in the form
//! of the table below.

use std::collections::BTreeMap;

use bytes::Bytes;
use megascale_data::core::codec::{
    encode_batch, encode_controller_checkpoint, encode_frontier_checkpoint,
    encode_loader_checkpoint, encode_plan_log, encode_plan_store, encode_planner_checkpoint,
    encode_topology, encode_wire_frame, encode_wire_frame_parts, encoded_wire_frame_len,
};
use megascale_data::core::constructor::{
    ClientDelivery, ConstructedBatch, Microbatch, PackedSequence, Segment,
};
use megascale_data::core::loader::LoaderCheckpoint;
use megascale_data::core::plan::{BinPlan, BucketPlan, LoadingPlan};
use megascale_data::core::planner::PlannerCheckpoint;
use megascale_data::core::replay::PlanStore;
use megascale_data::core::system::controller::{ControllerCheckpoint, SlotRecord};
use megascale_data::core::system::core::CoreCheckpoint;
use megascale_data::core::system::frontier::{FrontierCheckpoint, Holder};
use megascale_data::core::system::net::{BatchPayload, RejectReason, WireFrame};
use megascale_data::core::window::Window;
use megascale_data::mesh::{Axis, ClientPlaceTree, DeliveryKind, DeviceMesh, DistributeAxis};

/// `(name, hex)` of every frame, as captured.
const GOLDEN: &[(&str, &str)] = &[
    (
        "1 planner",
        "4d53444205012a000000000000000100000000000000ffffffffffffffff0300\
         000000000000f0debc9a785634120700000000000000a24f9a75",
    ),
    (
        "2 plan log",
        "4d53444205020300000000000000030000000a000000000000000b0000000000\
         00000c0000000000000003000000000000000700000001000000ffffffffffff\
         ffff7c387bff",
    ),
    (
        "3 loader",
        "4d53444205030900000000000000000100000500000000000000060000000000\
         0000070000000000000008000000000000000300000000000000dedd0711",
    ),
    (
        "4 controller",
        "4d53444205040b00000000000000110000000400000000000000020000000000\
         0000010000000000000002000000000000001000000001000000020000000300\
         00000300000000000000010000004b9bcc3e",
    ),
    ("5 hello", "4d53444205050100000004030201eccd0d1f"),
    (
        "6 subscribe",
        "4d534442050602000000000000000001000008000000c5936e99",
    ),
    (
        "7 batch",
        "4d5344420507030000000900000000000000030000002ae1db4d070809",
    ),
    ("8 ack", "4d534442050804000000ffffffffffffffff76234545"),
    ("9 credit", "4d534442050905000000030000009b100ce1"),
    ("10 close", "4d534442050affffffff901bba00"),
    ("12 reject", "4d534442050c06000000009851ef56"),
    ("12 reject ended", "4d534442050c0600000002be54ef58"),
    (
        "14 frontier",
        "4d534442050e070000004d00000000000000527b1e6f",
    ),
    (
        "7 batch head",
        "4d5344420507030000000900000000000000030000002ae1db4d",
    ),
    (
        "11 batch",
        "4d534442050b03000000030000000b000000000000000500000000000000ffff\
         ffffffffffff03000000000000000c0000000000000004000000000000000200\
         0000000000000200000008000000000000000200000000000000020000000000\
         000000000000000000000000000000000000020000000b000000000000000500\
         0000a5a5a5a5a5ffffffffffffffff0000000005000000000000000100000001\
         0000000400000000000000000000000000000001000000010000000c00000000\
         0000000300000001020303000000000000000300000000000000000800000000\
         0000000200000002000000000000000000000004000000000000000400000000\
         0000000800000000000000000000000500000001000000000000000000000000\
         070000000200000000000000000100000000000000b5565466e263123d",
    ),
    (
        "13 frontier checkpoint",
        "4d534442050d0300000000000000050000000000000001000000000000000200\
         0000000000000200000000010000000400000000000000000900000003000000\
         000000000f56dc32",
    ),
    (
        "15 plan store",
        "4d534442050f0200000000000000000000000002000000010000000200000002\
         000000030000000200000000000000020000000a00000000000000ffffffffff\
         ffffff00000000000000800100000000000000efbeadde0000f87f0400000000\
         0000000000000004000000030200010300000000000000030000000a00000000\
         0000000b000000000000000c0000000000000003000000000000000700000001\
         000000ffffffffffffffff000000000700000000000000020200000001000000\
         0200000002000000030000000200000000000000020000000a00000000000000\
         ffffffffffffffff00000000000000800100000000000000efbeadde0000f87f\
         0400000000000000000000000400000003020001030000000000000003000000\
         0a000000000000000b000000000000000c000000000000000300000000000000\
         0700000001000000ffffffffffffffff02000000030000006175780800000000\
         0000000002000000010000000200000002000000030000000200000000000000\
         020000000a00000000000000ffffffffffffffff000000000000008001000000\
         00000000efbeadde0000f87f0400000000000000000000000400000003020001\
         0300000000000000030000000a000000000000000b000000000000000c000000\
         0000000003000000000000000700000001000000ffffffffffffffff00000000\
         07000000656e636f646572070000000000000001020000000100000002000000\
         02000000030000000200000000000000020000000a00000000000000ffffffff\
         ffffffff00000000000000800100000000000000efbeadde0000f87f04000000\
         000000000000000004000000030200010300000000000000030000000a000000\
         000000000b000000000000000c00000000000000030000000000000007000000\
         01000000ffffffffffffffff0200000003000000617578080000000000000000\
         0200000001000000020000000200000003000000020000000000000002000000\
         0a00000000000000ffffffffffffffff00000000000000800100000000000000\
         efbeadde0000f87f040000000000000000000000040000000302000103000000\
         00000000030000000a000000000000000b000000000000000c00000000000000\
         03000000000000000700000001000000ffffffffffffffff0000000007000000\
         656e636f64657207000000000000000002000000010000000200000002000000\
         030000000200000000000000020000000a00000000000000ffffffffffffffff\
         00000000000000800100000000000000efbeadde0000f87f0400000000000000\
         0000000004000000030200010300000000000000030000000a00000000000000\
         0b000000000000000c0000000000000003000000000000000700000001000000\
         ffffffffffffffff0000000009e2a545",
    ),
    (
        "16 topology",
        "4d5344420510030000000103000000000200000003020000006a0ba88c",
    ),
];

fn directives() -> BTreeMap<u32, Window<u64>> {
    BTreeMap::from([
        (0, vec![10, 11, 12].into()),
        (3, vec![].into()),
        (7, vec![u64::MAX].into()),
    ])
}

/// A plan with two bins — one costing `-0.0`, one a NaN with a payload —
/// and `depth` levels of sub-plans beneath it.
fn plan(step: u64, depth: usize) -> LoadingPlan {
    let subplans = match depth {
        0 => BTreeMap::new(),
        _ => BTreeMap::from([
            ("encoder".to_string(), plan(step, depth - 1)),
            ("aux".to_string(), plan(step + 1, 0)),
        ]),
    };
    LoadingPlan {
        step,
        axis: [
            DistributeAxis::DP,
            DistributeAxis::CP,
            DistributeAxis::World,
        ][depth % 3],
        buckets: vec![
            BucketPlan {
                bucket: 1,
                clients: vec![2, 3],
                bins: vec![
                    BinPlan {
                        bin: 0,
                        samples: vec![10, u64::MAX],
                        total_cost: -0.0,
                    },
                    BinPlan {
                        bin: 1,
                        samples: vec![],
                        total_cost: f64::from_bits(0x7ff8_0000_dead_beef),
                    },
                ],
            },
            BucketPlan {
                bucket: 4,
                clients: vec![],
                bins: vec![],
            },
        ],
        broadcast_axes: vec![Axis::TP, Axis::CP, Axis::PP, Axis::DP],
        directives: directives(),
        subplans,
    }
}

fn batch() -> ConstructedBatch {
    ConstructedBatch {
        bucket: 3,
        microbatches: vec![
            Microbatch {
                bin: 0,
                sequences: vec![
                    PackedSequence {
                        segments: vec![
                            Segment {
                                sample_id: 11,
                                tokens: 5,
                            },
                            Segment {
                                sample_id: u64::MAX,
                                tokens: 3,
                            },
                        ]
                        .into(),
                        tokens: 8,
                        padding: 2,
                    },
                    PackedSequence {
                        segments: vec![].into(),
                        tokens: 0,
                        padding: 0,
                    },
                ],
                payloads: vec![(11, Bytes::from(vec![0xa5; 5])), (u64::MAX, Bytes::new())],
                payload_bytes: 5,
            },
            Microbatch {
                bin: 1,
                sequences: vec![PackedSequence {
                    segments: vec![Segment {
                        sample_id: 12,
                        tokens: 4,
                    }]
                    .into(),
                    tokens: 4,
                    padding: 0,
                }],
                payloads: vec![(12, Bytes::from_static(&[1, 2, 3]))],
                payload_bytes: 3,
            },
        ],
        deliveries: vec![
            ClientDelivery {
                rank: 0,
                kind: DeliveryKind::Payload,
                cp_slices: vec![vec![(0, 4), (4, 8)], vec![]],
                bytes: 8,
            },
            ClientDelivery {
                rank: 5,
                kind: DeliveryKind::MetadataOnly,
                cp_slices: vec![],
                bytes: 0,
            },
            ClientDelivery {
                rank: 7,
                kind: DeliveryKind::Elided,
                cp_slices: vec![vec![]],
                bytes: 0,
            },
        ],
    }
}

/// The wire frames, one per wire kind: 5, 6, 7 (with a 3-byte payload),
/// 8, 9, 10, 12 and 14.
fn wire_frames() -> Vec<(&'static str, WireFrame)> {
    vec![
        (
            "5 hello",
            WireFrame::Hello {
                client: 1,
                rank: 0x0102_0304,
            },
        ),
        (
            "6 subscribe",
            WireFrame::Subscribe {
                client: 2,
                from_step: 1 << 40,
                credits: 8,
            },
        ),
        (
            "7 batch",
            WireFrame::Batch {
                client: 3,
                step: 9,
                payload: BatchPayload::Encoded(Bytes::from_static(&[7, 8, 9])),
            },
        ),
        (
            "8 ack",
            WireFrame::Ack {
                client: 4,
                step: u64::MAX,
            },
        ),
        (
            "9 credit",
            WireFrame::Credit {
                client: 5,
                grant: 3,
            },
        ),
        ("10 close", WireFrame::Close { client: u32::MAX }),
        (
            "12 reject",
            WireFrame::Reject {
                client: 6,
                reason: RejectReason::SessionLimit,
            },
        ),
        (
            "12 reject ended",
            WireFrame::Reject {
                client: 6,
                reason: RejectReason::Ended,
            },
        ),
        (
            "14 frontier",
            WireFrame::Frontier {
                client: 7,
                consumed: 77,
            },
        ),
    ]
}

/// Every frame, named by kind, in the order of [`GOLDEN`].
fn frames() -> Vec<(String, Vec<u8>)> {
    let mut store = PlanStore::new();
    store.insert(plan(0, 0));
    store.insert(plan(7, 2));
    let mesh = DeviceMesh::new(vec![(Axis::DP, 3), (Axis::PP, 2), (Axis::TP, 2)]).unwrap();
    let mut out = vec![
        (
            "1 planner".to_string(),
            encode_planner_checkpoint(&CoreCheckpoint {
                planner: PlannerCheckpoint {
                    step: 42,
                    rng_state: [1, u64::MAX, 3, 0x1234_5678_9abc_def0],
                },
                replayed_steps: 7,
            }),
        ),
        ("2 plan log".to_string(), encode_plan_log(&directives())),
        (
            "3 loader".to_string(),
            encode_loader_checkpoint(&LoaderCheckpoint {
                loader_id: 9,
                cursor: 1 << 40,
                rng_state: [5, 6, 7, 8],
                version: 3,
            }),
        ),
        (
            "4 controller".to_string(),
            encode_controller_checkpoint(&ControllerCheckpoint {
                seq: 11,
                next_loader_id: 17,
                scale_ups: 4,
                scale_downs: 2,
                rebalances: 1,
                slots: vec![
                    SlotRecord {
                        source: 0,
                        loader_id: 16,
                        shard: 1,
                        shards: 2,
                    },
                    SlotRecord {
                        source: 3,
                        loader_id: 3,
                        shard: 0,
                        shards: 1,
                    },
                ],
            }),
        ),
    ];
    for (name, frame) in wire_frames() {
        out.push((name.to_string(), encode_wire_frame(&frame)));
    }
    let mut head = Vec::new();
    encode_wire_frame_parts(&wire_frames()[2].1, &mut head);
    out.push(("7 batch head".to_string(), head));
    out.extend([
        ("11 batch".to_string(), encode_batch(&batch())),
        (
            "13 frontier checkpoint".to_string(),
            encode_frontier_checkpoint(&FrontierCheckpoint {
                frontier: 3,
                served: 5,
                plan_base: 1,
                pruned_below: 2,
                holders: vec![(Holder::Client(1), 4), (Holder::Client(9), 3)],
            }),
        ),
        ("15 plan store".to_string(), encode_plan_store(&store)),
        (
            "16 topology".to_string(),
            encode_topology(&ClientPlaceTree::from_device_mesh(&mesh)),
        ),
    ]);
    out
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// `frames()` as the source text of [`GOLDEN`], 64 hex digits a line.
fn render(frames: &[(String, Vec<u8>)]) -> String {
    let mut out = String::from("const GOLDEN: &[(&str, &str)] = &[\n");
    for (name, bytes) in frames {
        let hex = hex(bytes);
        let lines: Vec<&str> = hex
            .as_bytes()
            .chunks(64)
            .map(|c| std::str::from_utf8(c).unwrap())
            .collect();
        out += &format!(
            "    (\n        {name:?},\n        \"{}\",\n    ),\n",
            lines.join("\\\n         ")
        );
    }
    out + "];\n"
}

#[test]
fn every_frame_kind_encodes_to_its_golden_bytes() {
    let frames = frames();
    let got: Vec<(&str, String)> = frames.iter().map(|(n, b)| (n.as_str(), hex(b))).collect();
    let want: Vec<(&str, String)> = GOLDEN.iter().map(|(n, h)| (*n, h.to_string())).collect();
    assert!(
        got == want,
        "frames differ from their golden bytes; current:\n{}",
        render(&frames)
    );
}

#[test]
fn wire_frame_lengths_match_their_golden_encodings() {
    for (name, frame) in wire_frames() {
        let (_, golden) = GOLDEN
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("no golden bytes for {name}"));
        assert_eq!(encoded_wire_frame_len(&frame) * 2, golden.len(), "{name}");
    }
}
