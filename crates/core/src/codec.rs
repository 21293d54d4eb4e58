//! The `MSDB` codec: the one serialisation format of the workspace.
//!
//! Everything the runtime persists to the control store or puts on the
//! serving plane's wire is a length-prefixed little-endian binary frame:
//!
//! ```text
//! +---------+------------+---------+----------------------+----------+
//! | MSDB(4) | version(1) | kind(1) | kind-specific fields | checksum |
//! +---------+------------+---------+----------------------+----------+
//! ```
//!
//! | kind | frame | |
//! |---|---|---|
//! | 1 | planner checkpoint ([`CoreCheckpoint`]) | GCS `planner` |
//! | 2 | plan-log entry (a step's pop directives) | GCS `plan/{step}` |
//! | 3 | loader checkpoint ([`LoaderCheckpoint`]) | GCS `loader/{id}` |
//! | 4 | elastic-controller checkpoint ([`ControllerCheckpoint`]) | GCS `controller` |
//! | 5–10, 12, 14 | wire control frames and the batch container (kind 7) | [`WireFrame`] |
//! | 11 | batch payload ([`ConstructedBatch`]) | body of a `WireFrame::Batch` |
//! | 13 | frontier checkpoint ([`FrontierCheckpoint`]) | GCS `frontier` |
//! | 15 | Replay Mode plan store ([`PlanStore`]) | GCS `planner/replay` |
//! | 16 | trainer topology ([`ClientPlaceTree`], as its mesh dims) | GCS `planner/tree` |
//!
//! There is no other reader: input that does not open as an `MSDB` frame
//! of the expected kind and of exactly [`VERSION`] is a [`CodecError`],
//! which the restart paths turn into a fault-log record and a fresh
//! start. Decoders never panic and never recurse on input depth — every
//! count read from a frame is bounded by the bytes that remain (a
//! decoder reserves room for at most as many records as those bytes
//! could hold), and the one nested structure (a plan's sub-plans, kind
//! 15) carries an explicit depth that errors past [`MAX_SUBPLAN_DEPTH`].
//!
//! # Where a layout is declared
//!
//! Each layout is declared once, in wire order, and that declaration is
//! its encoder, its bounded decoder and its exact size (the private
//! `Field` trait). `record!` lists every struct's fields (kinds 1, 3, 4
//! and 13, a stored plan's buckets and bins, kind 11's delivery table,
//! kind 7's head); `tags!` gives each field-less enum its one-byte tags,
//! an unknown byte being an error at its offset; `wire_kinds!` lists the
//! control frames (kinds 5, 6, 8–10, 12 and 14). A `Vec`, `BTreeMap` or
//! `String` is a `u32` count, then its items (a [`Window`] is written as
//! the `Vec` it views); map keys must ascend strictly, as the encoder
//! writes them. Written by hand are [`Holder`],
//! [`LoadingPlan`] (it counts its nesting), [`PlanStore`] (its steps
//! ascend), and the zero-copy paths: kind 11's sample and segment walk,
//! [`BatchFrame`], kind 7's payload. To add a field to a kind, add
//! `name: type` to its declaration where the field goes on the wire,
//! bump [`VERSION`], and recapture `tests/codec_golden.rs`.
//!
//! # The batch frames
//!
//! The batch frame (kind 11) carries each packed sequence as its segment
//! table, never its position ids: those are a function of the segment
//! lengths and the padding ([`PackedSequence::position_ids`]). All the
//! frame's segments travel as one table up front, and decoding reads
//! them into one shared table that every decoded sequence views. The
//! decoder checks what that derivation relies on — a sequence's tokens
//! are the sum of its segments', and `tokens + padding` fits in a `u64`.
//!
//! Every frame ends in a 32-bit FNV-1a checksum over everything before
//! it, so any single-bit corruption anywhere in a frame is guaranteed to
//! surface as a [`CodecError`], never as a silently mis-decoded value.
//!
//! Two deviations keep multi-megabyte batches fast to seal and free of
//! copies on the send side:
//!
//! - The kind-11 frame seals with an 8-byte trailer computed by a
//!   *word-wise* 64-bit FNV-1a (`fnv1a64`) — one multiply per 8 bytes
//!   instead of per byte, with the same single-corruption guarantee.
//!   The hash streams over pieces, so a batch is sealed without being
//!   assembled: a [`BatchFrame`] is the frame's metadata and seal, a
//!   few KB, while the payload bytes stay in the samples' own [`Bytes`],
//!   hashed where they lie.
//! - The `WireFrame::Batch` container (kind 7) is **head-sealed**:
//!   a fixed 26-byte head (client, step, payload length, then a
//!   byte-wise checksum over the head alone) followed by the raw
//!   payload bytes. The payload region is *excluded* from the head
//!   checksum because it is itself a sealed kind-11 frame; excluding it
//!   lets senders follow the head with the memoized payload parts
//!   without re-hashing or copying them per client
//!   ([`encode_wire_frame_parts`]), and lets receivers slice it
//!   zero-copy out of the receive buffer ([`decode_wire_frame_shared`]).

use std::collections::BTreeMap;
use std::sync::Arc;

use bytes::Bytes;

use crate::constructor::{
    ClientDelivery, ConstructedBatch, Microbatch, PackedSequence, Segment, Segments,
};
use crate::loader::LoaderCheckpoint;
use crate::plan::{BinPlan, BucketPlan, LoadingPlan};
use crate::planner::PlannerCheckpoint;
use crate::replay::PlanStore;
use crate::system::controller::{ControllerCheckpoint, SlotRecord};
use crate::system::core::CoreCheckpoint;
use crate::system::frontier::{FrontierCheckpoint, Holder};
use crate::system::net::{BatchPayload, RejectReason, WireFrame};
use crate::window::Window;
use msd_mesh::{Axis, ClientPlaceTree, DeliveryKind, DeviceMesh, DistributeAxis};

/// Frame magic of every blob and wire frame.
pub const MAGIC: [u8; 4] = *b"MSDB";
/// Current frame version (2 added the trailing FNV-1a frame checksum;
/// 3 added the binary batch payload frame, kind 11, and the head-sealed
/// batch container; 4 dropped kind 11's position-id run; 5 dropped the
/// run of undrawn sample ids from every plan in kind 15).
pub const VERSION: u8 = 5;
/// Oldest frame version decoders still accept. No encoder in the tree
/// writes anything but [`VERSION`]; the range exists for the next bump.
pub const MIN_VERSION: u8 = VERSION;
/// Bytes before a frame's kind-specific fields: magic, version, kind.
const HEADER_LEN: usize = MAGIC.len() + 2;

/// Frame kind: planner checkpoint ([`CoreCheckpoint`]).
const KIND_PLANNER: u8 = 1;
/// Frame kind: plan-log entry (pop directives).
const KIND_PLAN_LOG: u8 = 2;
/// Frame kind: loader checkpoint ([`LoaderCheckpoint`]).
const KIND_LOADER: u8 = 3;
/// Frame kind: elastic-controller checkpoint ([`ControllerCheckpoint`]).
const KIND_CONTROLLER: u8 = 4;
/// Wire kind: client introduction ([`WireFrame::Hello`]).
const KIND_WIRE_HELLO: u8 = 5;
/// Wire kind: stream (re)subscription ([`WireFrame::Subscribe`]).
const KIND_WIRE_SUBSCRIBE: u8 = 6;
/// Wire kind: one serve step's batch ([`WireFrame::Batch`]).
const KIND_WIRE_BATCH: u8 = 7;
/// Wire kind: batch receipt ([`WireFrame::Ack`]).
const KIND_WIRE_ACK: u8 = 8;
/// Wire kind: flow-control credit grant ([`WireFrame::Credit`]).
const KIND_WIRE_CREDIT: u8 = 9;
/// Wire kind: clean stream teardown ([`WireFrame::Close`]).
const KIND_WIRE_CLOSE: u8 = 10;
/// Wire kind: binary batch payload (a serialized
/// [`ConstructedBatch`] — the body of a [`WireFrame::Batch`]).
const KIND_BATCH: u8 = 11;
/// Wire kind: admission refusal ([`WireFrame::Reject`]).
const KIND_WIRE_REJECT: u8 = 12;
/// Frame kind: serve-plane frontier checkpoint
/// ([`FrontierCheckpoint`]).
const KIND_FRONTIER: u8 = 13;
/// Wire kind: consumed-frontier announcement ([`WireFrame::Frontier`]).
const KIND_WIRE_FRONTIER: u8 = 14;
/// Frame kind: Replay Mode plan store ([`PlanStore`]).
const KIND_PLAN_STORE: u8 = 15;
/// Frame kind: trainer topology (the mesh dims of a [`ClientPlaceTree`]).
const KIND_TOPOLOGY: u8 = 16;

/// Why a blob failed to decode. Errors raised while walking a frame
/// carry the frame length and the byte offset the decoder was at when it
/// gave up, so a wire-corruption report can name the exact spot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError {
    detail: String,
    frame_len: Option<usize>,
    offset: Option<usize>,
}

impl CodecError {
    /// Builds a context-free error (also used by the wire payload
    /// parser in [`crate::system::net`]).
    pub(crate) fn new(detail: impl Into<String>) -> Self {
        CodecError {
            detail: detail.into(),
            frame_len: None,
            offset: None,
        }
    }

    /// Builds an error positioned inside a frame.
    fn at(detail: impl Into<String>, offset: usize, frame_len: usize) -> Self {
        CodecError {
            detail: detail.into(),
            frame_len: Some(frame_len),
            offset: Some(offset),
        }
    }

    /// Attaches the frame length when it is not already known.
    fn with_frame_len(mut self, frame_len: usize) -> Self {
        self.frame_len.get_or_insert(frame_len);
        self
    }

    /// What went wrong, without the positional context.
    pub fn detail(&self) -> &str {
        &self.detail
    }

    /// Total length of the frame being decoded, when known.
    pub fn frame_len(&self) -> Option<usize> {
        self.frame_len
    }

    /// Byte offset the decoder had reached when it failed, when known.
    pub fn offset(&self) -> Option<usize> {
        self.offset
    }
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "codec error: {}", self.detail)?;
        match (self.offset, self.frame_len) {
            (Some(off), Some(len)) => write!(f, " (at byte {off} of a {len}-byte frame)"),
            (None, Some(len)) => write!(f, " (in a {len}-byte frame)"),
            (Some(off), None) => write!(f, " (at byte {off})"),
            (None, None) => Ok(()),
        }
    }
}

impl std::error::Error for CodecError {}

/// Whether `data` carries the frame magic (and a full header).
pub fn is_binary(data: &[u8]) -> bool {
    data.len() >= HEADER_LEN && data.starts_with(&MAGIC)
}

/// A bounds-checked little-endian reader: every read of bytes the frame
/// does not hold is an error, never a panic. Tracks its absolute offset
/// within the frame so every error can name the byte it tripped on.
struct Reader<'a> {
    data: &'a [u8],
    /// Absolute offset of the next unread byte within the whole frame.
    pos: usize,
    /// Whole-frame length (header + body + checksum), for error context.
    frame_len: usize,
    /// Sub-plan nesting of the plan being read ([`LoadingPlan`]'s
    /// decoder counts it here).
    depth: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.data.len() < n {
            return Err(CodecError::at(
                format!(
                    "truncated frame: wanted {n} more bytes, have {}",
                    self.data.len()
                ),
                self.pos,
                self.frame_len,
            ));
        }
        let (head, rest) = self.data.split_at(n);
        self.data = rest;
        self.pos += n;
        Ok(head)
    }

    /// The next `N` bytes, for a fixed-width field.
    fn array<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        let mut out = [0; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }

    /// Room to reserve for `count` records of at least `min_len` bytes:
    /// no more than the remaining bytes could hold, so a hostile count
    /// cannot reserve memory its frame does not carry.
    fn capacity(&self, count: usize, min_len: usize) -> usize {
        count.min(self.data.len() / min_len)
    }

    fn finish(&self) -> Result<(), CodecError> {
        if self.data.is_empty() {
            Ok(())
        } else {
            Err(CodecError::at(
                format!("{} trailing bytes after frame", self.data.len()),
                self.pos,
                self.frame_len,
            ))
        }
    }
}

/// A value with one wire layout: what it writes, how it reads back, and
/// exactly how many bytes that takes. Every layout of the codec is built
/// from these, so each is stated once.
///
/// The size method is `encoded_len`, not `len`: inside a declaration,
/// `self.items.len()` would resolve to the inherent `Vec::len` and size
/// frames short without changing a byte of them.
trait Field: Sized {
    /// The fewest bytes an encoded value takes. Decoders reserve room for
    /// at most `remaining / MIN_LEN` items of a count.
    const MIN_LEN: usize;
    /// Appends the value's bytes.
    fn put(&self, buf: &mut Vec<u8>);
    /// Reads a value back; malformed bytes are an error, never a panic.
    fn get(r: &mut Reader<'_>) -> Result<Self, CodecError>;
    /// Exactly the bytes [`Field::put`] appends: `MIN_LEN`, unless the
    /// value's size varies.
    fn encoded_len(&self) -> usize {
        Self::MIN_LEN
    }
}

/// Little-endian fixed-width numbers. `f64` is bit-exact: NaN payloads
/// and the sign of zero survive.
macro_rules! le_fields {
    ($($t:ty),+) => {$(
        impl Field for $t {
            const MIN_LEN: usize = size_of::<$t>();
            fn put(&self, buf: &mut Vec<u8>) {
                buf.extend_from_slice(&self.to_le_bytes());
            }
            fn get(r: &mut Reader<'_>) -> Result<Self, CodecError> {
                Ok(<$t>::from_le_bytes(r.array()?))
            }
        }
    )+};
}

le_fields!(u8, u32, u64, f64);

/// An RNG state.
impl Field for [u64; 4] {
    const MIN_LEN: usize = 4 * 8;
    fn put(&self, buf: &mut Vec<u8>) {
        for word in self {
            word.put(buf);
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok([u64::get(r)?, u64::get(r)?, u64::get(r)?, u64::get(r)?])
    }
}

impl<A: Field, B: Field> Field for (A, B) {
    const MIN_LEN: usize = A::MIN_LEN + B::MIN_LEN;
    fn put(&self, buf: &mut Vec<u8>) {
        self.0.put(buf);
        self.1.put(buf);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok((A::get(r)?, B::get(r)?))
    }
    fn encoded_len(&self) -> usize {
        self.0.encoded_len() + self.1.encoded_len()
    }
}

/// A `u32` count, then the items.
impl<T: Field> Field for Vec<T> {
    const MIN_LEN: usize = 4;
    fn put(&self, buf: &mut Vec<u8>) {
        put_items(self, buf);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let count = u32::get(r)? as usize;
        let mut out = Vec::with_capacity(r.capacity(count, T::MIN_LEN));
        for _ in 0..count {
            out.push(T::get(r)?);
        }
        Ok(out)
    }
    fn encoded_len(&self) -> usize {
        items_len(self)
    }
}

/// Written and read as the `Vec` of its rows: a directive window's bytes
/// are the bytes of the `Vec<u64>` it replaced.
impl<T: Field> Field for Window<T> {
    const MIN_LEN: usize = 4;
    fn put(&self, buf: &mut Vec<u8>) {
        put_items(self, buf);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Vec::get(r).map(Window::from)
    }
    fn encoded_len(&self) -> usize {
        items_len(self)
    }
}

/// A sequence's layout: a `u32` count, then the items.
fn put_items<T: Field>(items: &[T], buf: &mut Vec<u8>) {
    (items.len() as u32).put(buf);
    for item in items {
        item.put(buf);
    }
}

/// Exactly the bytes [`put_items`] appends.
fn items_len<T: Field>(items: &[T]) -> usize {
    4 + items.iter().map(Field::encoded_len).sum::<usize>()
}

/// A `u32` count, then the entries in key order. Decoding accepts only
/// strictly ascending keys, the order the encoder writes: a repeated
/// key would otherwise overwrite an entry without a word.
impl<K: Field + Ord, V: Field> Field for BTreeMap<K, V> {
    const MIN_LEN: usize = 4;
    fn put(&self, buf: &mut Vec<u8>) {
        (self.len() as u32).put(buf);
        for (key, value) in self {
            key.put(buf);
            value.put(buf);
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let count = u32::get(r)?;
        let mut out = BTreeMap::new();
        for _ in 0..count {
            let at = r.pos;
            let key = K::get(r)?;
            if out.last_key_value().is_some_and(|(last, _)| *last >= key) {
                return Err(CodecError::at(
                    "map keys are not in strictly ascending order",
                    at,
                    r.frame_len,
                ));
            }
            let value = V::get(r)?;
            out.insert(key, value);
        }
        Ok(out)
    }
    fn encoded_len(&self) -> usize {
        4 + self
            .iter()
            .map(|(key, value)| key.encoded_len() + value.encoded_len())
            .sum::<usize>()
    }
}

/// A `u32` byte length, then UTF-8.
impl Field for String {
    const MIN_LEN: usize = 4;
    fn put(&self, buf: &mut Vec<u8>) {
        (self.len() as u32).put(buf);
        buf.extend_from_slice(self.as_bytes());
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let len = u32::get(r)? as usize;
        let at = r.pos;
        std::str::from_utf8(r.take(len)?)
            .map(str::to_owned)
            .map_err(|e| CodecError::at(format!("string: {e}"), at, r.frame_len))
    }
    fn encoded_len(&self) -> usize {
        4 + self.len()
    }
}

/// Declares structs' layouts: each struct's fields, in wire order, with
/// their types. Decoding builds a struct in the order written, so the
/// declaration is the wire order whatever the struct's own field order.
macro_rules! record {
    ($($ty:ident { $($field:ident: $fty:ty),+ $(,)? })+) => {$(
        impl Field for $ty {
            const MIN_LEN: usize = 0 $(+ <$fty as Field>::MIN_LEN)+;
            fn put(&self, buf: &mut Vec<u8>) {
                $(Field::put(&self.$field, buf);)+
            }
            fn get(r: &mut Reader<'_>) -> Result<Self, CodecError> {
                Ok($ty { $($field: <$fty as Field>::get(r)?),+ })
            }
            fn encoded_len(&self) -> usize {
                0 $(+ Field::encoded_len(&self.$field))+
            }
        }
    )+};
}

/// Declares a field-less enum's one-byte tags. An unknown byte is an
/// error naming `$what` and its offset.
macro_rules! tags {
    ($ty:ty, $what:literal { $($tag:literal => $variant:path),+ $(,)? }) => {
        impl Field for $ty {
            const MIN_LEN: usize = 1;
            fn put(&self, buf: &mut Vec<u8>) {
                let tag: u8 = match *self { $($variant => $tag),+ };
                tag.put(buf);
            }
            fn get(r: &mut Reader<'_>) -> Result<Self, CodecError> {
                let at = r.pos;
                match u8::get(r)? {
                    $($tag => Ok($variant),)+
                    other => Err(CodecError::at(
                        format!("unknown {} {other}", $what),
                        at,
                        r.frame_len,
                    )),
                }
            }
        }
    };
}

tags!(Axis, "mesh axis tag" { 0 => Axis::PP, 1 => Axis::DP, 2 => Axis::CP, 3 => Axis::TP });
tags!(DistributeAxis, "distribute axis tag" {
    0 => DistributeAxis::DP,
    1 => DistributeAxis::CP,
    2 => DistributeAxis::World,
});
tags!(DeliveryKind, "delivery kind tag" {
    0 => DeliveryKind::Payload,
    1 => DeliveryKind::MetadataOnly,
    2 => DeliveryKind::Elided,
});
// Code 1 named a retired reason; it stays unknown.
tags!(RejectReason, "reject reason code" {
    0 => RejectReason::SessionLimit,
    2 => RejectReason::Ended,
});

// Every record's layout: its fields, in wire order.
record! {
    PlannerCheckpoint { step: u64, rng_state: [u64; 4] }
    CoreCheckpoint { planner: PlannerCheckpoint, replayed_steps: u64 }
    LoaderCheckpoint { loader_id: u32, cursor: u64, rng_state: [u64; 4], version: u64 }
    ControllerCheckpoint {
        seq: u64,
        next_loader_id: u32,
        scale_ups: u64,
        scale_downs: u64,
        rebalances: u64,
        slots: Vec<SlotRecord>,
    }
    SlotRecord { source: u32, loader_id: u32, shard: u32, shards: u32 }
    FrontierCheckpoint {
        frontier: u64,
        served: u64,
        plan_base: u64,
        pruned_below: u64,
        holders: Vec<(Holder, u64)>,
    }
    BucketPlan { bucket: u32, clients: Vec<u32>, bins: Vec<BinPlan> }
    BinPlan { bin: u32, samples: Vec<u64>, total_cost: f64 }
    ClientDelivery { rank: u32, kind: DeliveryKind, bytes: u64, cp_slices: Vec<Vec<(u64, u64)>> }
    BatchHead { client: u32, step: u64, payload_len: u32 }
}

/// A one-byte holder tag, then the holder's id. Clients are the only
/// holders; tag 1 once named a constructor holder and is no longer
/// accepted.
impl Field for Holder {
    const MIN_LEN: usize = 1 + 4;
    fn put(&self, buf: &mut Vec<u8>) {
        let Holder::Client(id) = self;
        0u8.put(buf);
        id.put(buf);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let at = r.pos;
        match u8::get(r)? {
            0 => Ok(Holder::Client(u32::get(r)?)),
            tag => Err(CodecError::at(
                format!("unknown holder tag {tag}"),
                at,
                r.frame_len,
            )),
        }
    }
}

/// Deepest sub-plan nesting a plan-store frame may carry. The planner
/// nests one level (the VLM `"encoder"` sub-plan); the cap is what keeps
/// [`decode_plan_store`] from recursing on input depth.
pub const MAX_SUBPLAN_DEPTH: usize = 4;

/// Most trainer ranks a topology frame may describe: decoding rebuilds
/// the place tree, one node per rank, so the product of the dims is
/// bounded before anything is allocated for it.
pub const MAX_TOPOLOGY_RANKS: u32 = 1 << 20;

/// A plan's fields in wire order, its sub-plans last. Written by hand
/// only so that decoding counts its nesting in the reader: a frame
/// nesting sub-plans past [`MAX_SUBPLAN_DEPTH`] is an error, so the
/// recursion is bounded by the cap, not by the input.
impl Field for LoadingPlan {
    const MIN_LEN: usize = 8 + 1 + 4 * 4;
    fn put(&self, buf: &mut Vec<u8>) {
        self.step.put(buf);
        self.axis.put(buf);
        self.buckets.put(buf);
        self.broadcast_axes.put(buf);
        self.directives.put(buf);
        self.subplans.put(buf);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        if r.depth > MAX_SUBPLAN_DEPTH {
            return Err(CodecError::at(
                format!("sub-plans nested deeper than {MAX_SUBPLAN_DEPTH}"),
                r.pos,
                r.frame_len,
            ));
        }
        r.depth += 1;
        let plan = LoadingPlan {
            step: Field::get(r)?,
            axis: Field::get(r)?,
            buckets: Field::get(r)?,
            broadcast_axes: Field::get(r)?,
            directives: Field::get(r)?,
            subplans: Field::get(r)?,
        };
        r.depth -= 1;
        Ok(plan)
    }
    fn encoded_len(&self) -> usize {
        self.step.encoded_len()
            + self.axis.encoded_len()
            + self.buckets.encoded_len()
            + self.broadcast_axes.encoded_len()
            + self.directives.encoded_len()
            + self.subplans.encoded_len()
    }
}

/// A `u32` count, then the plans in strictly ascending step order, as
/// the store keeps them.
impl Field for PlanStore {
    const MIN_LEN: usize = 4;
    fn put(&self, buf: &mut Vec<u8>) {
        (self.len() as u32).put(buf);
        for plan in self.plans() {
            plan.put(buf);
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let count = u32::get(r)?;
        let mut store = PlanStore::new();
        for _ in 0..count {
            let at = r.pos;
            let plan: LoadingPlan = Field::get(r)?;
            if store.last_step().is_some_and(|last| plan.step <= last) {
                return Err(CodecError::at(
                    format!("plan for step {} is out of order", plan.step),
                    at,
                    r.frame_len,
                ));
            }
            store.insert(plan);
        }
        Ok(store)
    }
    fn encoded_len(&self) -> usize {
        4 + self.plans().map(Field::encoded_len).sum::<usize>()
    }
}

/// Writes the header every frame opens with.
fn put_header(buf: &mut Vec<u8>, kind: u8) {
    buf.extend_from_slice(&MAGIC);
    VERSION.put(buf);
    kind.put(buf);
}

/// Encodes `value` as a frame of `kind`, in one exactly-sized buffer.
fn encode<T: Field>(kind: u8, value: &T) -> Vec<u8> {
    let mut buf = Vec::new();
    encode_into(kind, value, &mut buf);
    buf
}

/// [`encode`] into `buf`: cleared first, its capacity kept, and grown
/// only if it is smaller than the frame, to the frame's exact size.
fn encode_into<T: Field>(kind: u8, value: &T, buf: &mut Vec<u8>) {
    buf.clear();
    buf.reserve_exact(HEADER_LEN + value.encoded_len() + CHECKSUM_LEN);
    put_header(buf, kind);
    value.put(buf);
    debug_assert_eq!(buf.len(), HEADER_LEN + value.encoded_len());
    seal(buf);
}

/// Decodes a frame of `kind` holding exactly one `T`.
fn decode<T: Field>(data: &[u8], kind: u8) -> Result<T, CodecError> {
    let mut r = open_frame(data, kind)?;
    let value = T::get(&mut r)?;
    r.finish()?;
    Ok(value)
}

/// Trailing checksum width.
const CHECKSUM_LEN: usize = 4;

/// 32-bit FNV-1a over `data`. Each step `h = (h ^ byte) * prime` is
/// injective in `h` (the prime is odd, hence invertible mod 2³²), so two
/// frames differing in exactly one byte can never share a checksum —
/// single-bit corruption is *guaranteed* to be caught, not just likely.
fn fnv1a(data: &[u8]) -> u32 {
    let mut h: u32 = 0x811c_9dc5;
    for b in data {
        h ^= u32::from(*b);
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

/// Appends the frame checksum; every encoder's final step.
fn seal(buf: &mut Vec<u8>) {
    let sum = fnv1a(buf);
    sum.put(buf);
}

/// Trailing checksum width of the kind-11 batch frame.
const BATCH_CHECKSUM_LEN: usize = 8;

/// 64-bit FNV-1a over little-endian 64-bit *words* (the zero-padded
/// tail counts as one word), seeded with the input length and run as
/// **four independent lanes** taking words round-robin. A single FNV
/// chain is latency-bound — each `(h ^ word) * prime` multiply waits on
/// the previous one — so four interleaved chains run ~4× faster on any
/// out-of-order core, keeping the integrity pass on multi-megabyte
/// batch frames at memcpy-like speed (the byte-wise [`fnv1a`] would
/// dominate the decode).
///
/// The single-corruption guarantee carries over: each lane step
/// `h = (h ^ word) * prime` is injective in `h` (the prime is odd) and
/// injective in `word` for fixed `h`, and the final fold
/// `h = (h * prime) ^ lane` is injective in every lane separately. A
/// flipped byte lands in exactly one word, hence perturbs exactly one
/// lane, hence always changes the fold; the length seed separates
/// frames whose difference hides in the zero padding.
///
/// Streaming: words are cut at multiples of 8 from the start of the
/// whole input, so a word may straddle two [`Fnv1a64::write`] calls and
/// the hash of the pieces equals the hash of their concatenation at
/// every split point. [`fnv1a64`] is the one-piece form.
struct Fnv1a64 {
    lanes: [u64; 4],
    /// Lane the next full word goes to.
    next: usize,
    /// The bytes of a word not yet complete, carried to the next piece.
    partial: [u8; 8],
    partial_len: usize,
}

impl Fnv1a64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

    /// A hasher for an input of `len` bytes in total, however it is
    /// split into pieces.
    fn new(len: usize) -> Self {
        let o = Self::OFFSET;
        let mut lanes = [o, o ^ 1, o ^ 2, o ^ 3];
        lanes[0] = (lanes[0] ^ len as u64).wrapping_mul(Self::PRIME);
        Fnv1a64 {
            lanes,
            next: 0,
            partial: [0; 8],
            partial_len: 0,
        }
    }

    fn word(&mut self, word: [u8; 8]) {
        let lane = &mut self.lanes[self.next];
        *lane = (*lane ^ u64::from_le_bytes(word)).wrapping_mul(Self::PRIME);
        self.next = (self.next + 1) % 4;
    }

    /// Hashes the next piece of the input.
    fn write(&mut self, mut data: &[u8]) {
        if self.partial_len > 0 {
            let take = data.len().min(8 - self.partial_len);
            let (head, rest) = data.split_at(take);
            self.partial[self.partial_len..][..take].copy_from_slice(head);
            self.partial_len += take;
            data = rest;
            if self.partial_len < 8 {
                return;
            }
            self.partial_len = 0;
            self.word(self.partial);
        }
        // Single words until the round-robin is back at lane 0, then
        // whole four-lane blocks, then single words again.
        while self.next != 0 {
            let Some((w, rest)) = data.split_first_chunk::<8>() else {
                break;
            };
            self.word(*w);
            data = rest;
        }
        while let Some((block, rest)) = data.split_first_chunk::<32>() {
            for (i, lane) in self.lanes.iter_mut().enumerate() {
                *lane = (*lane ^ le_u64(block, 8 * i)).wrapping_mul(Self::PRIME);
            }
            data = rest;
        }
        while let Some((w, rest)) = data.split_first_chunk::<8>() {
            self.word(*w);
            data = rest;
        }
        self.partial[..data.len()].copy_from_slice(data);
        self.partial_len = data.len();
    }

    /// The hash of everything written: a zero-padded partial word counts
    /// as one more word, then the lanes fold.
    fn finish(mut self) -> u64 {
        if self.partial_len > 0 {
            self.partial[self.partial_len..].fill(0);
            self.word(self.partial);
        }
        let mut h = self.lanes[0];
        for lane in &self.lanes[1..] {
            h = h.wrapping_mul(Self::PRIME) ^ lane;
        }
        h
    }
}

/// The little-endian `u64` at `bytes[at..at + 8]`, for callers that
/// hold whole fixed-size rows (the bytes are there by construction).
fn le_u64(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(std::array::from_fn(|i| bytes[at + i]))
}

/// [`Fnv1a64`] over one contiguous input.
fn fnv1a64(data: &[u8]) -> u64 {
    let mut hasher = Fnv1a64::new(data.len());
    hasher.write(data);
    hasher.finish()
}

/// Appends the wide batch-frame checksum; [`encode_batch_into`]'s final
/// step.
fn seal_batch(buf: &mut Vec<u8>) {
    let sum = fnv1a64(buf);
    sum.put(buf);
}

/// The one header check every frame opener shares: `data` (the start of
/// a `frame_len`-byte frame) must start with the magic and carry an
/// accepted version. Returns the kind byte and a reader positioned on
/// the bytes after the header.
fn open_header(data: &[u8], frame_len: usize) -> Result<(u8, Reader<'_>), CodecError> {
    let mut r = Reader {
        data,
        pos: 0,
        frame_len,
        depth: 0,
    };
    if r.array()? != MAGIC {
        return Err(CodecError::at("missing MSDB magic", 0, frame_len));
    }
    let version = u8::get(&mut r)?;
    if !(MIN_VERSION..=VERSION).contains(&version) {
        return Err(CodecError::at(
            format!("unsupported frame version {version}"),
            MAGIC.len(),
            frame_len,
        ));
    }
    Ok((u8::get(&mut r)?, r))
}

/// Strips and validates the header plus the wide trailing checksum of a
/// kind-11 batch frame, returning a reader over the body only.
fn open_batch_frame(data: &[u8]) -> Result<Reader<'_>, CodecError> {
    let Some((body, tail)) = data
        .split_last_chunk::<BATCH_CHECKSUM_LEN>()
        .filter(|(body, _)| body.len() >= HEADER_LEN)
    else {
        return Err(
            CodecError::new(format!("batch frame too short: {} bytes", data.len()))
                .with_frame_len(data.len()),
        );
    };
    let (kind, r) = open_header(body, data.len())?;
    if kind != KIND_BATCH {
        return Err(CodecError::at(
            format!("frame kind mismatch: expected {KIND_BATCH}, got {kind}"),
            MAGIC.len() + 1,
            data.len(),
        ));
    }
    let stored = u64::from_le_bytes(*tail);
    let computed = fnv1a64(body);
    if stored != computed {
        return Err(CodecError::new(format!(
            "frame checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
        ))
        .with_frame_len(data.len()));
    }
    Ok(r)
}

/// Strips and validates the frame header plus the trailing checksum,
/// returning a reader over the body only.
fn open_frame(data: &[u8], kind: u8) -> Result<Reader<'_>, CodecError> {
    let (got, r) = open_any_frame(data)?;
    if got != kind {
        return Err(
            CodecError::new(format!("frame kind mismatch: expected {kind}, got {got}"))
                .with_frame_len(data.len()),
        );
    }
    Ok(r)
}

/// Like [`open_frame`], but yields whichever kind the frame carries
/// (the wire decoder dispatches on it).
fn open_any_frame(data: &[u8]) -> Result<(u8, Reader<'_>), CodecError> {
    let Some((body, tail)) = data
        .split_last_chunk::<CHECKSUM_LEN>()
        .filter(|(body, _)| body.len() >= HEADER_LEN)
    else {
        return Err(
            CodecError::new(format!("frame too short: {} bytes", data.len()))
                .with_frame_len(data.len()),
        );
    };
    let opened = open_header(body, data.len())?;
    let stored = u32::from_le_bytes(*tail);
    let computed = fnv1a(body);
    if stored != computed {
        return Err(CodecError::new(format!(
            "frame checksum mismatch: stored {stored:#010x}, computed {computed:#010x}"
        ))
        .with_frame_len(data.len()));
    }
    Ok(opened)
}

/// Encodes a planner checkpoint.
pub fn encode_planner_checkpoint(cp: &CoreCheckpoint) -> Vec<u8> {
    encode(KIND_PLANNER, cp)
}

/// Decodes a planner checkpoint.
pub fn decode_planner_checkpoint(data: &[u8]) -> Result<CoreCheckpoint, CodecError> {
    decode(data, KIND_PLANNER)
}

/// Encodes one plan-log entry: the step's pop directives (`loader id →
/// sample ids`, ids in plan order).
pub fn encode_plan_log(directives: &BTreeMap<u32, Window<u64>>) -> Vec<u8> {
    encode(KIND_PLAN_LOG, directives)
}

/// Decodes a plan-log entry.
pub fn decode_plan_log(data: &[u8]) -> Result<BTreeMap<u32, Window<u64>>, CodecError> {
    decode(data, KIND_PLAN_LOG)
}

/// Encodes a loader checkpoint (62 bytes: 52 of fields).
pub fn encode_loader_checkpoint(cp: &LoaderCheckpoint) -> Vec<u8> {
    encode(KIND_LOADER, cp)
}

/// [`encode_loader_checkpoint`] into `buf` (cleared first, capacity
/// kept): re-encoding into a buffer that held a checkpoint before makes
/// no allocator call.
pub fn encode_loader_checkpoint_into(cp: &LoaderCheckpoint, buf: &mut Vec<u8>) {
    encode_into(KIND_LOADER, cp, buf);
}

/// Decodes a loader checkpoint.
pub fn decode_loader_checkpoint(data: &[u8]) -> Result<LoaderCheckpoint, CodecError> {
    decode(data, KIND_LOADER)
}

/// Encodes an elastic-controller checkpoint: event sequence, id
/// allocator, lifetime decision counters, and the live loader topology
/// (16 bytes per slot).
pub fn encode_controller_checkpoint(cp: &ControllerCheckpoint) -> Vec<u8> {
    encode(KIND_CONTROLLER, cp)
}

/// Decodes an elastic-controller checkpoint.
pub fn decode_controller_checkpoint(data: &[u8]) -> Result<ControllerCheckpoint, CodecError> {
    decode(data, KIND_CONTROLLER)
}

/// Encodes a serve-plane frontier checkpoint: the folded frontier, the
/// driver's served/pruning cursors, and every live capability holder
/// (13 bytes per holder).
pub fn encode_frontier_checkpoint(cp: &FrontierCheckpoint) -> Vec<u8> {
    encode(KIND_FRONTIER, cp)
}

/// Decodes a frontier checkpoint.
pub fn decode_frontier_checkpoint(data: &[u8]) -> Result<FrontierCheckpoint, CodecError> {
    decode(data, KIND_FRONTIER)
}

/// Encodes a Replay Mode plan store: its plans in step order, bin costs
/// bit-exact.
///
/// # Panics
///
/// If a plan nests sub-plans deeper than [`MAX_SUBPLAN_DEPTH`] — such a
/// frame would not decode, and no planner builds one.
pub fn encode_plan_store(store: &PlanStore) -> Vec<u8> {
    fn nesting(plan: &LoadingPlan) -> usize {
        plan.subplans
            .values()
            .map(|sub| 1 + nesting(sub))
            .max()
            .unwrap_or(0)
    }
    assert!(
        store.plans().all(|plan| nesting(plan) <= MAX_SUBPLAN_DEPTH),
        "plan nests sub-plans deeper than {MAX_SUBPLAN_DEPTH}; no planner builds that"
    );
    encode(KIND_PLAN_STORE, store)
}

/// Decodes a Replay Mode plan store. Plans must arrive in strictly
/// ascending step order, as [`encode_plan_store`] writes them.
pub fn decode_plan_store(data: &[u8]) -> Result<PlanStore, CodecError> {
    decode(data, KIND_PLAN_STORE)
}

/// Encodes a trainer topology as the dims of its device mesh — the tree
/// is a pure function of them ([`ClientPlaceTree::from_device_mesh`]).
pub fn encode_topology(tree: &ClientPlaceTree) -> Vec<u8> {
    encode(KIND_TOPOLOGY, &tree.mesh().dims().to_vec())
}

/// Decodes a trainer topology and rebuilds its place tree. Dims no mesh
/// accepts (a zero size, a repeated axis) and meshes past
/// [`MAX_TOPOLOGY_RANKS`] are errors.
pub fn decode_topology(data: &[u8]) -> Result<ClientPlaceTree, CodecError> {
    let dims: Vec<(Axis, u32)> = decode(data, KIND_TOPOLOGY)?;
    let ranks = dims
        .iter()
        .try_fold(1u32, |n, (_, size)| n.checked_mul(*size));
    if ranks.is_none_or(|n| n > MAX_TOPOLOGY_RANKS) {
        return Err(
            CodecError::new(format!("mesh exceeds {MAX_TOPOLOGY_RANKS} ranks"))
                .with_frame_len(data.len()),
        );
    }
    let mesh = DeviceMesh::new(dims)
        .map_err(|e| CodecError::new(format!("invalid mesh: {e}")).with_frame_len(data.len()))?;
    Ok(ClientPlaceTree::from_device_mesh(&mesh))
}

/// The fixed head of the `WireFrame::Batch` container (kind 7): the
/// payload's length stands where the payload's bytes would.
struct BatchHead {
    client: u32,
    step: u64,
    payload_len: u32,
}

/// Byte length of the head-sealed `WireFrame::Batch` head: header,
/// [`BatchHead`], head checksum. The payload bytes follow immediately
/// after.
const WIRE_BATCH_HEAD_LEN: usize = HEADER_LEN + <BatchHead as Field>::MIN_LEN + CHECKSUM_LEN;

/// Declares the wire kinds once: each control frame's kind byte, its
/// [`WireFrame`] variant and its fields in wire order. The batch
/// container (kind 7) is the one variant not listed: its sealed part is
/// a [`BatchHead`], and its payload follows the seal.
macro_rules! wire_kinds {
    ($($kind:ident => $variant:ident { $($field:ident: $ty:ty),+ }),+ $(,)?) => {
        /// Bytes between the header and the end of the frame, the
        /// checksum aside: the fields, and a batch's payload.
        fn wire_body_len(frame: &WireFrame) -> usize {
            match frame {
                $(WireFrame::$variant { $($field),+ } => 0 $(+ Field::encoded_len($field))+,)+
                WireFrame::Batch { payload, .. } => {
                    <BatchHead as Field>::MIN_LEN + payload.wire_len()
                }
            }
        }

        /// Writes the frame's header and the fields its checksum covers,
        /// and returns a batch's payload, which follows the checksum.
        fn put_wire_head<'a>(frame: &'a WireFrame, buf: &mut Vec<u8>) -> Option<&'a BatchPayload> {
            match frame {
                $(WireFrame::$variant { $($field),+ } => {
                    put_header(buf, $kind);
                    $(Field::put($field, buf);)+
                    None
                })+
                WireFrame::Batch { client, step, payload } => {
                    put_header(buf, KIND_WIRE_BATCH);
                    let payload_len = payload.wire_len() as u32;
                    BatchHead { client: *client, step: *step, payload_len }.put(buf);
                    Some(payload)
                }
            }
        }

        /// Reads the fields of a control frame of `kind`.
        fn get_control_frame(kind: u8, r: &mut Reader<'_>) -> Result<WireFrame, CodecError> {
            match kind {
                $($kind => Ok(WireFrame::$variant { $($field: <$ty as Field>::get(r)?),+ }),)+
                other => Err(CodecError::new(format!("not a wire frame kind: {other}"))
                    .with_frame_len(r.frame_len)),
            }
        }
    };
}

wire_kinds! {
    KIND_WIRE_HELLO => Hello { client: u32, rank: u32 },
    KIND_WIRE_SUBSCRIBE => Subscribe { client: u32, from_step: u64, credits: u32 },
    KIND_WIRE_ACK => Ack { client: u32, step: u64 },
    KIND_WIRE_CREDIT => Credit { client: u32, grant: u32 },
    KIND_WIRE_CLOSE => Close { client: u32 },
    KIND_WIRE_REJECT => Reject { client: u32, reason: RejectReason },
    KIND_WIRE_FRONTIER => Frontier { client: u32, consumed: u64 },
}

/// Exact encoded length of a wire frame, from the same declaration as
/// [`encode_wire_frame_parts`]. Lets encoders presize scratch (or lease
/// a pooled buffer of the right class) instead of growing a `Vec` by
/// doubling. A batch frame is sized without building its payload's wire
/// form ([`BatchPayload::wire_len`]).
pub fn encoded_wire_frame_len(frame_in: &WireFrame) -> usize {
    HEADER_LEN + wire_body_len(frame_in) + CHECKSUM_LEN
}

/// Encodes one wire frame of the distributed serving plane's MSDB
/// protocol. A [`WireFrame::Batch`] carrying a shared in-process payload
/// is serialized here — encoding is exactly the point where a batch
/// leaves shared memory.
pub fn encode_wire_frame(frame_in: &WireFrame) -> Vec<u8> {
    let mut buf = Vec::with_capacity(encoded_wire_frame_len(frame_in));
    encode_wire_frame_into(frame_in, &mut buf);
    debug_assert_eq!(buf.len(), encoded_wire_frame_len(frame_in));
    buf
}

/// Like [`encode_wire_frame`], but writes into a caller-owned scratch
/// buffer (cleared first, capacity kept). Steady-state senders reuse one
/// scratch across every frame of a connection, so per-frame encoding
/// costs no allocation at all once the buffer has grown to the largest
/// frame. The contiguous form is the head followed by the payload's
/// parts ([`encode_wire_frame_parts`]).
pub fn encode_wire_frame_into(frame_in: &WireFrame, buf: &mut Vec<u8>) {
    if let Some(payload) = encode_wire_frame_parts(frame_in, buf) {
        buf.reserve(payload.wire_len());
        payload.for_each_part(|part| buf.extend_from_slice(part));
    }
}

/// Scatter-gather encoder: writes the frame's (sealed, self-contained)
/// head into `head` and returns the batch payload whose parts
/// ([`BatchPayload::for_each_part`]) follow it on the wire, if any.
/// Senders that can write many buffers (the TCP writer) skip assembling
/// the contiguous form, so a multi-megabyte batch leaves the process
/// without a payload byte being copied or re-hashed: a shared batch's
/// parts are its memoized [`BatchFrame`] metadata interleaved with the
/// samples' own `Bytes`.
pub fn encode_wire_frame_parts<'a>(
    frame_in: &'a WireFrame,
    head: &mut Vec<u8>,
) -> Option<&'a BatchPayload> {
    head.clear();
    let payload = put_wire_head(frame_in, head);
    let sum = fnv1a(head);
    sum.put(head);
    payload
}

/// Decodes one wire frame from its contiguous byte form. A decoded batch
/// carries its payload as [`BatchPayload::Encoded`] bytes; parsing the
/// batch itself is deferred to [`BatchPayload::batch`] so relays never
/// pay for it.
///
/// Transports hold the receive buffer as [`Bytes`] and should prefer
/// [`decode_wire_frame_shared`], which hands the batch payload out as a
/// zero-copy view; this slice-based form copies it.
pub fn decode_wire_frame(data: &[u8]) -> Result<WireFrame, CodecError> {
    decode_wire(data, |at| Bytes::copy_from_slice(&data[at..]))
}

/// Like [`decode_wire_frame`], but slices a batch frame's payload
/// zero-copy out of the shared receive buffer — the decoded
/// [`BatchPayload::Encoded`] view keeps `data`'s allocation alive
/// instead of copying megabytes.
pub fn decode_wire_frame_shared(data: &Bytes) -> Result<WireFrame, CodecError> {
    decode_wire(data, |at| data.slice(at..))
}

/// Shared walk of the two wire decoders: `payload_from(at)` is a batch
/// payload's bytes, the frame's from offset `at` on.
fn decode_wire(
    data: &[u8],
    payload_from: impl FnOnce(usize) -> Bytes,
) -> Result<WireFrame, CodecError> {
    // The batch container is the one head-sealed kind.
    if !(is_binary(data) && data.get(MAGIC.len() + 1) == Some(&KIND_WIRE_BATCH)) {
        return decode_sealed_wire_frame(data);
    }
    let BatchHead { client, step, .. } = decode_wire_batch_head(data, data.len())?;
    let payload = BatchPayload::Encoded(payload_from(WIRE_BATCH_HEAD_LEN));
    Ok(WireFrame::Batch {
        client,
        step,
        payload,
    })
}

/// Validates a head-sealed batch head (checksum over the head bytes
/// only) and the payload length it declares against the frame's total
/// byte count (`total_len` — head plus payload, however the two were
/// transferred).
fn decode_wire_batch_head(data: &[u8], total_len: usize) -> Result<BatchHead, CodecError> {
    let Some((sealed, tail)) = data
        .get(..WIRE_BATCH_HEAD_LEN)
        .and_then(<[u8]>::split_last_chunk::<CHECKSUM_LEN>)
    else {
        return Err(CodecError::at(
            format!(
                "truncated batch head: {} of {WIRE_BATCH_HEAD_LEN} bytes",
                data.len()
            ),
            data.len(),
            total_len,
        ));
    };
    let (_, mut r) = open_header(sealed, total_len)?;
    let stored = u32::from_le_bytes(*tail);
    let computed = fnv1a(sealed);
    if stored != computed {
        return Err(CodecError::new(format!(
            "batch head checksum mismatch: stored {stored:#010x}, computed {computed:#010x}"
        ))
        .with_frame_len(total_len));
    }
    let head = BatchHead::get(&mut r)?;
    let payload_len = head.payload_len as usize;
    if total_len != WIRE_BATCH_HEAD_LEN + payload_len {
        return Err(CodecError::at(
            format!(
                "batch head declares a {payload_len}-byte payload, frame carries {}",
                total_len - WIRE_BATCH_HEAD_LEN
            ),
            WIRE_BATCH_HEAD_LEN,
            total_len,
        ));
    }
    Ok(head)
}

/// Decodes the whole-frame-sealed wire kinds: every control frame. The
/// batch container (kind 7) is head-sealed and never decodes here.
fn decode_sealed_wire_frame(data: &[u8]) -> Result<WireFrame, CodecError> {
    let (kind, mut r) = open_any_frame(data)?;
    let frame_out = get_control_frame(kind, &mut r)?;
    r.finish()?;
    Ok(frame_out)
}

// ---------------------------------------------------------------------
// Binary batch payload (kind 11): the body of a `WireFrame::Batch`.

/// One segment-table row: sample id, tokens.
const SEGMENT_RECORD_LEN: usize = 8 + 8;
/// One sequence record: tokens, padding, segment count.
const SEQUENCE_RECORD_LEN: usize = 8 + 8 + 4;

/// Every packed sequence of `batch`, in frame order.
fn batch_sequences(batch: &ConstructedBatch) -> impl Iterator<Item = &PackedSequence> {
    batch.microbatches.iter().flat_map(|mb| &mb.sequences)
}

/// Every sample payload of `batch`, in frame order.
fn batch_payloads(batch: &ConstructedBatch) -> impl Iterator<Item = &[u8]> {
    batch
        .microbatches
        .iter()
        .flat_map(|mb| mb.payloads.iter().map(|(_, payload)| payload.as_ref()))
}

/// The shape of a batch's kind-11 frame: `(bytes that are not payload —
/// header, fields and seal —, payload bytes, payload count)`.
fn batch_frame_shape(batch: &ConstructedBatch) -> (usize, usize, usize) {
    let mut n = HEADER_LEN; // magic + version + kind
    n += 4 + 4 + 4; // bucket + segment count + microbatch count
    let (mut payload_bytes, mut payloads) = (0, 0);
    for mb in &batch.microbatches {
        n += 4 + 4; // bin + sequence count
        for seq in &mb.sequences {
            n += SEQUENCE_RECORD_LEN + seq.segments.len() * SEGMENT_RECORD_LEN;
        }
        n += 4; // payload count
        for (_, payload) in &mb.payloads {
            n += 8 + 4; // sample id + length, then the raw bytes
            payload_bytes += payload.len();
        }
        payloads += mb.payloads.len();
        n += 8; // payload_bytes
    }
    n += batch.deliveries.encoded_len();
    (n + BATCH_CHECKSUM_LEN, payload_bytes, payloads)
}

/// Exact encoded size of a batch frame (header + body + checksum).
/// Encoders pre-size their buffer with this, so building even a
/// multi-megabyte batch frame is a single allocation with zero
/// reallocation — and zero per-sample or per-sequence allocations.
pub fn encoded_batch_len(batch: &ConstructedBatch) -> usize {
    let (meta, payload_bytes, _) = batch_frame_shape(batch);
    meta + payload_bytes
}

/// Encodes a constructed batch as a binary `MSDB` frame (kind 11) into
/// a caller-owned scratch buffer (cleared first, capacity kept). The
/// frame opens with one table of every sequence's segments, in sequence
/// order; each sequence record then names only its segment count. Sample
/// payloads are written as raw byte runs — each payload's [`Bytes`]
/// view is copied once, directly into the scratch, with no per-sample
/// allocation and no inflation. Senders do not need this contiguous
/// form: [`BatchFrame`] is the same frame without the payload copies.
pub fn encode_batch_into(batch: &ConstructedBatch, buf: &mut Vec<u8>) {
    buf.clear();
    buf.reserve(encoded_batch_len(batch));
    put_batch_fields(batch, buf, |buf, payload| buf.extend_from_slice(payload));
    seal_batch(buf);
    debug_assert_eq!(buf.len(), encoded_batch_len(batch));
}

/// The one field walk of a kind-11 frame: writes every byte that is not
/// a sample payload (the seal excepted) into `buf`, and calls
/// `payload_at` where each payload's bytes go — [`encode_batch_into`]
/// copies them there, [`BatchFrame::encode`] records the offset.
fn put_batch_fields(
    batch: &ConstructedBatch,
    buf: &mut Vec<u8>,
    mut payload_at: impl FnMut(&mut Vec<u8>, &[u8]),
) {
    put_header(buf, KIND_BATCH);
    batch.bucket.put(buf);
    let segments: usize = batch_sequences(batch).map(|s| s.segments.len()).sum();
    (segments as u32).put(buf);
    for seg in batch_sequences(batch).flat_map(|s| &s.segments) {
        seg.sample_id.put(buf);
        seg.tokens.put(buf);
    }
    (batch.microbatches.len() as u32).put(buf);
    for mb in &batch.microbatches {
        mb.bin.put(buf);
        (mb.sequences.len() as u32).put(buf);
        for seq in &mb.sequences {
            seq.tokens.put(buf);
            seq.padding.put(buf);
            (seq.segments.len() as u32).put(buf);
        }
        (mb.payloads.len() as u32).put(buf);
        for (sample_id, payload) in &mb.payloads {
            sample_id.put(buf);
            (payload.len() as u32).put(buf);
            payload_at(buf, payload);
        }
        mb.payload_bytes.put(buf);
    }
    batch.deliveries.put(buf);
}

/// Encodes a constructed batch into a fresh, exactly-sized buffer.
pub fn encode_batch(batch: &ConstructedBatch) -> Vec<u8> {
    let mut buf = Vec::with_capacity(encoded_batch_len(batch));
    encode_batch_into(batch, &mut buf);
    buf
}

/// A batch's kind-11 frame with the payload bytes left where they are:
/// every other byte of the frame in wire order, seal included, plus the
/// offset at which each sample payload goes. That is a few KB for a
/// multi-megabyte batch. The frame's bytes are this metadata
/// interleaved with the batch's own payload views
/// ([`BatchFrame::for_each_part`]), byte-identical to
/// [`encode_batch`]'s contiguous form — so a sender writes them out
/// vectored and no payload is ever copied into a send buffer.
#[derive(Debug)]
pub struct BatchFrame {
    /// Every non-payload byte of the frame, in order, seal included.
    meta: Vec<u8>,
    /// Offset into `meta` at which each payload goes, in frame order.
    splits: Vec<usize>,
    /// Length of the whole frame, payloads included.
    len: usize,
}

impl BatchFrame {
    /// Builds the frame of `batch`: one walk writes the metadata into
    /// one exactly-sized buffer and records the payload offsets into
    /// another, then one streaming pass over the parts computes the seal.
    /// Each payload is hashed in place, never copied.
    pub fn encode(batch: &ConstructedBatch) -> Self {
        let (meta_len, payload_bytes, payloads) = batch_frame_shape(batch);
        let mut meta = Vec::with_capacity(meta_len);
        let mut splits = Vec::with_capacity(payloads);
        put_batch_fields(batch, &mut meta, |meta, _| splits.push(meta.len()));
        let mut frame = BatchFrame {
            meta,
            splits,
            len: meta_len + payload_bytes,
        };
        let mut hasher = Fnv1a64::new(frame.len - BATCH_CHECKSUM_LEN);
        frame.for_each_part(batch, |part| hasher.write(part));
        hasher.finish().put(&mut frame.meta);
        debug_assert_eq!(frame.meta.len(), meta_len);
        frame
    }

    /// Length of the whole frame on the wire, payloads included.
    pub fn encoded_len(&self) -> usize {
        self.len
    }

    /// Calls `f` on the frame's bytes in wire order: metadata slices
    /// interleaved with `batch`'s payload views. `batch` must be the
    /// batch the frame was encoded from.
    pub fn for_each_part<'a>(&'a self, batch: &'a ConstructedBatch, mut f: impl FnMut(&'a [u8])) {
        debug_assert_eq!(batch_payloads(batch).count(), self.splits.len());
        let mut at = 0;
        for (split, payload) in self.splits.iter().zip(batch_payloads(batch)) {
            f(&self.meta[at..*split]);
            f(payload);
            at = *split;
        }
        f(&self.meta[at..]);
    }
}

/// Decodes a batch payload. Errors carry the frame length and the
/// offending byte offset (see [`CodecError::offset`]).
///
/// Sample payloads are copied out of `data`; receivers that hold the
/// frame as [`Bytes`] should prefer [`decode_batch_shared`], which
/// hands them out as zero-copy views instead.
pub fn decode_batch(data: &[u8]) -> Result<ConstructedBatch, CodecError> {
    decode_batch_impl(data, None)
}

/// Like [`decode_batch`], but each decoded sample payload is an O(1)
/// [`Bytes::slice`] view of `data` — the one integrity pass over the
/// frame (the wide trailer check) is the only per-byte work, and the
/// receive buffer's allocation is shared by every payload it carried.
pub fn decode_batch_shared(data: &Bytes) -> Result<ConstructedBatch, CodecError> {
    decode_batch_impl(data, Some(data))
}

/// Reads the frame's segment table into one shared allocation: a row
/// count, then one bounds check over all the rows (a hostile count fails
/// it before anything is allocated).
fn get_segment_table(r: &mut Reader<'_>) -> Result<Arc<[Segment]>, CodecError> {
    let count = u32::get(r)? as usize;
    let raw = r.take(count.saturating_mul(SEGMENT_RECORD_LEN))?;
    Ok(raw
        .chunks_exact(SEGMENT_RECORD_LEN)
        .map(|row| Segment {
            sample_id: le_u64(row, 0),
            tokens: le_u64(row, 8),
        })
        .collect())
}

/// Reads one sequence record, whose segments are the next rows of
/// `table` from `*next_row` on, and checks what its position ids are
/// derived from: the rows exist, their tokens sum to the sequence's, and
/// `tokens + padding` does not overflow.
fn get_sequence(
    r: &mut Reader<'_>,
    table: &Arc<[Segment]>,
    next_row: &mut usize,
) -> Result<PackedSequence, CodecError> {
    let at = r.pos;
    let tokens = u64::get(r)?;
    let padding = u64::get(r)?;
    let count = u32::get(r)? as usize;
    let rows = *next_row..*next_row + count;
    let Some(segments) = table.get(rows.clone()) else {
        return Err(CodecError::at(
            format!(
                "sequence claims {count} segment rows, {} remain",
                table.len() - *next_row
            ),
            at + 16,
            r.frame_len,
        ));
    };
    let held = segments
        .iter()
        .try_fold(0u64, |sum, seg| sum.checked_add(seg.tokens));
    if held != Some(tokens) {
        let held = held.map_or_else(|| "more than u64::MAX".to_string(), |n| n.to_string());
        return Err(CodecError::at(
            format!("sequence declares {tokens} tokens, its segments hold {held}"),
            at,
            r.frame_len,
        ));
    }
    if tokens.checked_add(padding).is_none() {
        return Err(CodecError::at(
            format!("{tokens} tokens + {padding} padding overflows a u64"),
            at + 8,
            r.frame_len,
        ));
    }
    *next_row = rows.end;
    Ok(PackedSequence {
        segments: Segments::new(Arc::clone(table), rows.start as u32..rows.end as u32),
        tokens,
        padding,
    })
}

/// Shared walk of [`decode_batch`]/[`decode_batch_shared`]: when
/// `share` is given (the same buffer `data` borrows from), payloads are
/// sliced from it zero-copy; otherwise they are copied.
fn decode_batch_impl(data: &[u8], share: Option<&Bytes>) -> Result<ConstructedBatch, CodecError> {
    let mut r = open_batch_frame(data)?;
    let bucket = u32::get(&mut r)?;
    let table = get_segment_table(&mut r)?;
    let mut next_row = 0;
    let mb_count = u32::get(&mut r)? as usize;
    // Microbatch: bin, sequence count, payload count, payload bytes.
    let mut microbatches = Vec::with_capacity(r.capacity(mb_count, 4 + 4 + 4 + 8));
    for _ in 0..mb_count {
        let bin = u32::get(&mut r)?;
        let seq_count = u32::get(&mut r)? as usize;
        let mut sequences = Vec::with_capacity(r.capacity(seq_count, SEQUENCE_RECORD_LEN));
        for _ in 0..seq_count {
            sequences.push(get_sequence(&mut r, &table, &mut next_row)?);
        }
        let payload_count = u32::get(&mut r)? as usize;
        // Payload: sample id, length.
        let mut payloads = Vec::with_capacity(r.capacity(payload_count, 8 + 4));
        for _ in 0..payload_count {
            let sample_id = u64::get(&mut r)?;
            let len = u32::get(&mut r)? as usize;
            let start = r.pos;
            let raw = r.take(len)?;
            let payload = match share {
                Some(buf) => buf.slice(start..start + len),
                None => Bytes::copy_from_slice(raw),
            };
            payloads.push((sample_id, payload));
        }
        let payload_bytes = u64::get(&mut r)?;
        microbatches.push(Microbatch {
            bin,
            sequences,
            payloads,
            payload_bytes,
        });
    }
    if next_row != table.len() {
        return Err(CodecError::at(
            format!(
                "{} of {} segment rows belong to no sequence",
                table.len() - next_row,
                table.len()
            ),
            r.pos,
            data.len(),
        ));
    }
    let deliveries = Field::get(&mut r)?;
    r.finish()?;
    Ok(ConstructedBatch {
        bucket,
        microbatches,
        deliveries,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::BufMut;

    /// A buffer holding a frame header, for hand-built frames.
    fn frame(kind: u8, capacity: usize) -> Vec<u8> {
        let mut buf = Vec::with_capacity(HEADER_LEN + capacity + CHECKSUM_LEN);
        put_header(&mut buf, kind);
        buf
    }

    fn core_cp() -> CoreCheckpoint {
        CoreCheckpoint {
            planner: PlannerCheckpoint {
                step: 42,
                rng_state: [1, u64::MAX, 3, 0x1234_5678_9ABC_DEF0],
            },
            replayed_steps: 7,
        }
    }

    fn loader_cp() -> LoaderCheckpoint {
        LoaderCheckpoint {
            loader_id: 9,
            cursor: 1 << 40,
            rng_state: [5, 6, 7, 8],
            version: 3,
        }
    }

    fn directives() -> BTreeMap<u32, Window<u64>> {
        BTreeMap::from([
            (0, vec![10, 11, 12].into()),
            (3, vec![].into()),
            (7, vec![u64::MAX].into()),
        ])
    }

    fn controller_cp() -> ControllerCheckpoint {
        ControllerCheckpoint {
            seq: 11,
            next_loader_id: 17,
            scale_ups: 4,
            scale_downs: 2,
            rebalances: 1,
            slots: vec![
                SlotRecord {
                    source: 0,
                    loader_id: 0,
                    shard: 0,
                    shards: 1,
                },
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
        }
    }

    #[test]
    fn controller_checkpoint_roundtrips_and_rejects_corruption() {
        let cp = controller_cp();
        assert_eq!(
            decode_controller_checkpoint(&encode_controller_checkpoint(&cp)).unwrap(),
            cp
        );
        // Empty topology is legal (everything retired mid-teardown).
        let empty = ControllerCheckpoint {
            slots: vec![],
            ..controller_cp()
        };
        assert_eq!(
            decode_controller_checkpoint(&encode_controller_checkpoint(&empty)).unwrap(),
            empty
        );
        // Corruption surfaces as an error, not a panic.
        let full = encode_controller_checkpoint(&cp);
        assert!(decode_controller_checkpoint(&full[..full.len() - 3]).is_err());
        assert!(decode_controller_checkpoint(b"{nope").is_err());
        // Kind confusion: a controller frame is not a loader checkpoint.
        assert!(decode_loader_checkpoint(&full).is_err());
    }

    #[test]
    fn binary_roundtrips() {
        assert_eq!(
            decode_planner_checkpoint(&encode_planner_checkpoint(&core_cp())).unwrap(),
            core_cp()
        );
        assert_eq!(
            decode_loader_checkpoint(&encode_loader_checkpoint(&loader_cp())).unwrap(),
            loader_cp()
        );
        assert_eq!(
            decode_plan_log(&encode_plan_log(&directives())).unwrap(),
            directives()
        );
    }

    #[test]
    fn directive_windows_encode_as_the_vecs_they_view() {
        // Windows at offsets of one shared table, as a plan holds them.
        let table: std::sync::Arc<[u64]> = vec![10, 11, 12, u64::MAX].into();
        let windows: Vec<Window<u64>> = Window::split(&table, [3, 3, 4]).collect();
        let shared: BTreeMap<u32, Window<u64>> = [0, 3, 7].into_iter().zip(windows).collect();
        let vecs: BTreeMap<u32, Vec<u64>> = shared.iter().map(|(k, w)| (*k, w.to_vec())).collect();
        let encoded = encode_plan_log(&shared);
        assert_eq!(encoded, encode(KIND_PLAN_LOG, &vecs));
        assert_eq!(encoded, encode_plan_log(&directives()));
        assert_eq!(decode_plan_log(&encoded).unwrap(), shared);
    }

    #[test]
    fn loader_checkpoint_encodes_in_place_into_a_reused_buffer() {
        let want = encode_loader_checkpoint(&loader_cp());
        let mut buf = b"an older, longer blob left in the buffer".repeat(2);
        let capacity = buf.capacity();
        encode_loader_checkpoint_into(&loader_cp(), &mut buf);
        assert_eq!(buf, want);
        assert_eq!(buf.capacity(), capacity, "the buffer was reallocated");
        // And into an empty one, at the frame's exact size.
        let mut fresh = Vec::new();
        encode_loader_checkpoint_into(&loader_cp(), &mut fresh);
        assert_eq!((fresh.len(), fresh.capacity()), (62, 62));
        assert_eq!(fresh, want);
    }

    #[test]
    fn corrupt_blobs_error() {
        // No magic.
        assert!(decode_loader_checkpoint(b"{not json").is_err());
        // Valid magic, truncated body.
        let full = encode_loader_checkpoint(&loader_cp());
        for cut in [6, 10, full.len() - 1] {
            assert!(decode_loader_checkpoint(&full[..cut]).is_err(), "cut {cut}");
        }
        // Trailing garbage.
        let mut long = full.clone();
        long.push(0);
        assert!(decode_loader_checkpoint(&long).is_err());
        // Kind confusion: a loader frame is not a planner checkpoint.
        assert!(decode_planner_checkpoint(&full).is_err());
        // Unknown version.
        let mut bad = full;
        bad[4] = 99;
        assert!(decode_loader_checkpoint(&bad).is_err());
    }

    /// A batch exercising every field: multiple microbatches, packed
    /// sequences with segments (and one without), payload byte runs
    /// (including an empty one), and CP-sliced deliveries.
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
                        PackedSequence {
                            segments: vec![Segment {
                                sample_id: 12,
                                tokens: 4,
                            }]
                            .into(),
                            tokens: 4,
                            padding: 0,
                        },
                    ],
                    payloads: vec![
                        (11, Bytes::from(vec![231u8; 300])),
                        (u64::MAX, Bytes::new()), // 0-byte payload is legal
                    ],
                    payload_bytes: 300,
                },
                Microbatch {
                    bin: 1,
                    sequences: vec![],
                    payloads: vec![(42, Bytes::from(vec![1, 2, 3]))],
                    payload_bytes: 3,
                },
            ],
            deliveries: vec![
                ClientDelivery {
                    rank: 0,
                    kind: DeliveryKind::Payload,
                    cp_slices: vec![vec![(0, 4), (4, 8)], vec![]],
                    bytes: 303,
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
                    cp_slices: vec![],
                    bytes: 0,
                },
            ],
        }
    }

    #[test]
    fn batch_roundtrips_and_sizes_exactly() {
        let b = batch();
        let encoded = encode_batch(&b);
        assert_eq!(encoded.len(), encoded_batch_len(&b));
        let decoded = decode_batch(&encoded).unwrap();
        assert_eq!(decoded, b);
        // Every decoded sequence views the frame's one segment table, and
        // its position ids come back derived from it.
        let first = &decoded.microbatches[0].sequences[0];
        for seq in &decoded.microbatches[0].sequences {
            assert!(seq.segments.shares_table(&first.segments));
        }
        let ids: Vec<u32> = first.position_ids().collect();
        assert_eq!(ids, [0, 1, 2, 3, 4, 0, 1, 2, 0, 0]);
        // The scratch-buffer path produces identical bytes and reuses
        // capacity across calls.
        let mut scratch = Vec::new();
        encode_batch_into(&b, &mut scratch);
        assert_eq!(scratch, encoded);
        let cap = scratch.capacity();
        encode_batch_into(&b, &mut scratch);
        assert_eq!(scratch, encoded);
        assert_eq!(scratch.capacity(), cap, "scratch buffer was reallocated");
        // An empty batch is legal (a bucket with nothing to deliver).
        let empty = ConstructedBatch {
            bucket: 0,
            microbatches: vec![],
            deliveries: vec![],
        };
        assert_eq!(decode_batch(&encode_batch(&empty)).unwrap(), empty);
    }

    #[test]
    fn streaming_seal_equals_the_one_shot_hash_at_every_pair_of_splits() {
        let data: Vec<u8> = (0..203u32).map(|i| (i * 7 + 3) as u8).collect();
        let want = fnv1a64(&data);
        for i in 0..=data.len() {
            for j in i..=data.len() {
                let mut hasher = Fnv1a64::new(data.len());
                for piece in [&data[..i], &data[i..j], &data[j..]] {
                    hasher.write(piece);
                }
                assert_eq!(hasher.finish(), want, "split at {i} and {j}");
            }
        }
    }

    #[test]
    fn batch_frame_parts_are_the_contiguous_encoding() {
        let empty = ConstructedBatch {
            bucket: 0,
            microbatches: vec![],
            deliveries: vec![],
        };
        for b in [batch(), empty] {
            let frame = BatchFrame::encode(&b);
            let mut parts = Vec::new();
            frame.for_each_part(&b, |part| parts.extend_from_slice(part));
            assert_eq!(parts, encode_batch(&b));
            assert_eq!(frame.encoded_len(), encoded_batch_len(&b));
        }
    }

    #[test]
    fn batch_decode_errors_carry_frame_length_and_offset() {
        let b = batch();
        let full = encode_batch(&b);
        // Raw truncation is caught by the checksum first; the error
        // still names the (truncated) frame length.
        let cut = full.len() / 2;
        let err = decode_batch(&full[..cut]).unwrap_err();
        assert_eq!(err.frame_len(), Some(cut));
        // A *resealed* truncation (valid checksum, body cut short) is
        // caught by the body walk with the offending byte offset.
        let resealed = reseal_batch(full[..cut].to_vec());
        let err = decode_batch(&resealed).unwrap_err();
        assert_eq!(err.frame_len(), Some(resealed.len()));
        assert!(err.offset().is_some(), "offset dropped: {err}");
        let rendered = err.to_string();
        assert!(
            rendered.contains(&format!("{}-byte frame", resealed.len())),
            "frame length missing from: {rendered}"
        );
        // Checksum corruption: the frame length survives even when no
        // single offset is to blame.
        let mut flipped = full.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x40;
        let err = decode_batch(&flipped).unwrap_err();
        assert_eq!(err.frame_len(), Some(full.len()));
        // Kind confusion is positioned context too.
        let err = decode_batch(&encode_loader_checkpoint(&loader_cp())).unwrap_err();
        assert!(err.frame_len().is_some());
    }

    /// A hand-built kind-11 frame: the segment table `rows`, then one
    /// microbatch holding one `(tokens, padding, row count)` sequence, no
    /// payloads and no deliveries. Returns the frame and the offset of the
    /// sequence record.
    fn one_sequence_frame(rows: &[(u64, u64)], seq: (u64, u64, u32)) -> (Vec<u8>, usize) {
        let mut buf = frame(KIND_BATCH, 0);
        buf.put_u32_le(0); // bucket
        buf.put_u32_le(rows.len() as u32);
        for (sample_id, tokens) in rows {
            buf.put_u64_le(*sample_id);
            buf.put_u64_le(*tokens);
        }
        buf.put_u32_le(1); // microbatches
        buf.put_u32_le(0); // bin
        buf.put_u32_le(1); // sequences
        let at = buf.len();
        buf.put_u64_le(seq.0);
        buf.put_u64_le(seq.1);
        buf.put_u32_le(seq.2);
        buf.put_u32_le(0); // payloads
        buf.put_u64_le(0); // payload bytes
        buf.put_u32_le(0); // deliveries
        seal_batch(&mut buf);
        (buf, at)
    }

    #[test]
    fn batch_decode_checks_what_position_ids_derive_from() {
        let (frame, _) = one_sequence_frame(&[(1, 3), (2, 4)], (7, u64::MAX - 7, 2));
        let decoded = decode_batch(&frame).unwrap();
        assert_eq!(decoded.microbatches[0].sequences[0].padded_len(), u64::MAX);
        // (rows, sequence, error detail, offending field within the record)
        let bad: [(&[(u64, u64)], _, _, _); 4] = [
            (&[(1, 3), (2, 4)], (8, 0, 2), "its segments hold 7", 0),
            (&[(1, u64::MAX), (2, 1)], (0, 0, 2), "more than u64::MAX", 0),
            (&[(1, 3)], (3, u64::MAX - 2, 1), "overflows", 8),
            (&[(1, 3)], (3, 0, 2), "claims 2 segment rows, 1 remain", 16),
        ];
        for (rows, seq, why, field) in bad {
            let (frame, at) = one_sequence_frame(rows, seq);
            let err = decode_batch(&frame).unwrap_err();
            assert!(err.detail().contains(why), "wanted {why:?}, got {err}");
            assert_eq!(err.offset(), Some(at + field), "{err}");
        }
        // A row no sequence claims is malformed too; the error names the
        // end of the microbatches.
        let (frame, at) = one_sequence_frame(&[(1, 3), (2, 4)], (3, 0, 1));
        let err = decode_batch(&frame).unwrap_err();
        assert!(err.detail().contains("1 of 2 segment rows"), "{err}");
        assert_eq!(err.offset(), Some(at + SEQUENCE_RECORD_LEN + 4 + 8));
    }

    #[test]
    fn hostile_counts_reserve_no_more_than_the_frame_carries() {
        // 40 sealed bytes declaring 65,535 sequences: decoders used to
        // reserve room for all of them (≈ 5 MiB) before running out.
        let mut buf = frame(KIND_BATCH, 0);
        buf.put_u32_le(0); // bucket
        buf.put_u32_le(0); // segment rows
        buf.put_u32_le(1); // microbatches
        buf.put_u32_le(0); // bin
        buf.put_u32_le(u16::MAX.into()); // sequences
        let at = buf.len();
        buf.put_slice(&[0; 6]);
        seal_batch(&mut buf);
        assert_eq!(buf.len(), 40);
        let err = decode_batch(&buf).unwrap_err();
        assert!(err.detail().contains("truncated"), "{err}");
        // The 6 bytes left after that count hold no sequence record, so
        // the decoder reserves room for none.
        let r = Reader {
            data: &buf[at..buf.len() - BATCH_CHECKSUM_LEN],
            pos: at,
            frame_len: buf.len(),
            depth: 0,
        };
        assert_eq!(r.capacity(u16::MAX.into(), SEQUENCE_RECORD_LEN), 0);
        assert_eq!(r.capacity(u16::MAX.into(), 2), 3);
        assert_eq!(r.capacity(1, 2), 1);
    }

    #[test]
    fn batch_kind_confused_frames_error_through_checkpoint_decoders() {
        let wire = encode_batch(&batch());
        assert!(decode_planner_checkpoint(&wire).is_err());
        assert!(decode_plan_log(&wire).is_err());
        assert!(decode_loader_checkpoint(&wire).is_err());
        assert!(decode_controller_checkpoint(&wire).is_err());
        assert!(decode_wire_frame(&wire).is_err());
    }

    /// Re-seals `frame` after a header edit (valid checksum, so the
    /// *semantic* validation is what must reject or accept it).
    fn reseal(mut frame: Vec<u8>) -> Vec<u8> {
        frame.truncate(frame.len() - CHECKSUM_LEN);
        seal(&mut frame);
        frame
    }

    /// [`reseal`] for kind-11 batch frames, which carry the wide
    /// trailer.
    fn reseal_batch(mut frame: Vec<u8>) -> Vec<u8> {
        frame.truncate(frame.len().saturating_sub(BATCH_CHECKSUM_LEN));
        seal_batch(&mut frame);
        frame
    }

    #[test]
    fn maps_decode_only_in_ascending_key_order() {
        // A plan-log entry `{1: [5], 2: [6]}` whose second key is rewritten
        // to repeat the first (1) or to come before it (0), then resealed.
        let wire = encode_plan_log(&BTreeMap::from([(1, vec![5].into()), (2, vec![6].into())]));
        let second_key = HEADER_LEN + 4 + 4 + 4 + 8;
        assert_eq!(wire[second_key], 2);
        for key in [1, 0] {
            let mut bad = wire.clone();
            bad[second_key] = key;
            let err = decode_plan_log(&reseal(bad)).unwrap_err();
            assert!(err.detail().contains("ascending"), "{err}");
            assert_eq!(err.offset(), Some(second_key), "{err}");
        }
    }

    #[test]
    fn frontier_checkpoint_with_holder_tag_1_errors() {
        let cp = FrontierCheckpoint {
            frontier: 3,
            served: 5,
            plan_base: 0,
            pruned_below: 0,
            holders: vec![(Holder::Client(1), 4)],
        };
        let mut bad = encode_frontier_checkpoint(&cp);
        let tag = HEADER_LEN + 4 * 8 + 4;
        assert_eq!(bad[tag], 0);
        bad[tag] = 1;
        let err = decode_frontier_checkpoint(&reseal(bad)).unwrap_err();
        assert!(err.to_string().contains("unknown holder tag 1"), "{err}");
    }

    #[test]
    fn versions_below_and_above_current_error_with_a_valid_seal() {
        let cp = loader_cp();
        for bad_version in [VERSION - 1, VERSION + 1] {
            let mut bad = encode_loader_checkpoint(&cp);
            assert_eq!(bad[4], VERSION);
            bad[4] = bad_version;
            let bad = reseal(bad);
            assert!(
                decode_loader_checkpoint(&bad).is_err(),
                "version {bad_version} decoded"
            );
        }
        // The two openers with their own seals share the same check.
        let mut payload = encode_batch(&batch());
        payload[4] = VERSION - 1;
        assert!(decode_batch(&reseal_batch(payload)).is_err());
        let mut head = encode_wire_frame(&WireFrame::Batch {
            client: 1,
            step: 2,
            payload: BatchPayload::Encoded(Bytes::new()),
        });
        head[4] = VERSION - 1;
        assert!(decode_wire_frame(&reseal(head)).is_err());
    }

    #[test]
    fn split_decode_of_a_bare_batch_head_checks_the_declared_length() {
        // The head part of a split encode, received on its own, is a
        // contiguous frame: valid exactly when it declares an empty
        // payload.
        let mut head = Vec::new();
        let empty = WireFrame::Batch {
            client: 3,
            step: 9,
            payload: BatchPayload::Encoded(Bytes::new()),
        };
        assert_eq!(
            encode_wire_frame_parts(&empty, &mut head).map(BatchPayload::wire_len),
            Some(0)
        );
        assert_eq!(decode_wire_frame(&head).unwrap(), empty);
        let full = WireFrame::Batch {
            client: 3,
            step: 9,
            payload: BatchPayload::Encoded(Bytes::from(vec![5u8; 64])),
        };
        encode_wire_frame_parts(&full, &mut head);
        assert!(decode_wire_frame(&head).is_err());
    }

    /// A plan exercising every field, with `depth` levels of sub-plans
    /// beneath it.
    fn plan(step: u64, depth: usize) -> LoadingPlan {
        let subplans = match depth {
            0 => BTreeMap::new(),
            _ => BTreeMap::from([("encoder".to_string(), plan(step, depth - 1))]),
        };
        LoadingPlan {
            step,
            axis: DistributeAxis::CP,
            buckets: vec![BucketPlan {
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
                        total_cost: 5.5,
                    },
                ],
            }],
            broadcast_axes: vec![Axis::TP, Axis::CP],
            directives: directives(),
            subplans,
        }
    }

    #[test]
    fn plan_store_roundtrips_up_to_the_subplan_cap_and_errors_past_it() {
        let mut store = PlanStore::new();
        store.insert(plan(0, 0));
        store.insert(plan(7, 1));
        store.insert(plan(9, MAX_SUBPLAN_DEPTH));
        let back = decode_plan_store(&encode_plan_store(&store)).unwrap();
        assert_eq!(back, store);
        let cost = back.get(0).unwrap().buckets[0].bins[0].total_cost;
        assert_eq!(cost.to_bits(), (-0.0f64).to_bits(), "sign of zero lost");
        assert_eq!(
            decode_plan_store(&encode_plan_store(&PlanStore::new())).unwrap(),
            PlanStore::new()
        );

        // Hand-built: `levels` empty plans, each the only sub-plan of the
        // one before. The sub-plan map is a plan's last field, so nesting
        // is a repeated prefix — a decoder recursing on it would need one
        // stack frame per level.
        let nested = |levels: usize| {
            let mut buf = frame(KIND_PLAN_STORE, 0);
            buf.put_u32_le(1);
            for level in 0..levels {
                buf.put_u64_le(0); // step
                buf.put_u8(0); // axis
                buf.put_u32_le(0); // buckets
                buf.put_u32_le(0); // broadcast axes
                buf.put_u32_le(0); // directives
                if level + 1 < levels {
                    buf.put_u32_le(1); // one sub-plan, named "x"
                    buf.put_u32_le(1);
                    buf.put_u8(b'x');
                } else {
                    buf.put_u32_le(0);
                }
            }
            seal(&mut buf);
            buf
        };
        assert!(decode_plan_store(&nested(MAX_SUBPLAN_DEPTH + 1)).is_ok());
        let err = decode_plan_store(&nested(MAX_SUBPLAN_DEPTH + 2)).unwrap_err();
        assert!(err.detail().contains("nested deeper"), "{err}");
        assert!(decode_plan_store(&nested(1 << 16)).is_err());
    }

    #[test]
    fn plan_store_rejects_out_of_order_steps() {
        let mut buf = frame(KIND_PLAN_STORE, 0);
        buf.put_u32_le(2);
        plan(3, 0).put(&mut buf);
        plan(3, 0).put(&mut buf);
        seal(&mut buf);
        let err = decode_plan_store(&buf).unwrap_err();
        assert!(err.detail().contains("out of order"), "{err}");
    }

    #[test]
    fn topology_roundtrips_and_rejects_dims_no_mesh_accepts() {
        let mesh = DeviceMesh::new(vec![(Axis::DP, 3), (Axis::PP, 2), (Axis::TP, 2)]).unwrap();
        let tree = ClientPlaceTree::from_device_mesh(&mesh);
        assert_eq!(decode_topology(&encode_topology(&tree)).unwrap(), tree);

        let topology = |dims: &[(u8, u32)]| {
            let mut buf = frame(KIND_TOPOLOGY, 0);
            buf.put_u32_le(dims.len() as u32);
            for (tag, size) in dims {
                buf.put_u8(*tag);
                buf.put_u32_le(*size);
            }
            seal(&mut buf);
            buf
        };
        assert!(decode_topology(&topology(&[(1, 2), (3, 2)])).is_ok());
        for (bad, why) in [
            (topology(&[(1, 0)]), "size 0"),
            (topology(&[(1, 2), (1, 2)]), "duplicate axis"),
            (topology(&[(9, 2)]), "axis tag"),
            (topology(&[(1, 1 << 31), (2, 1 << 31)]), "ranks"),
            (topology(&[(1, MAX_TOPOLOGY_RANKS), (2, 2)]), "ranks"),
        ] {
            let err = decode_topology(&bad).unwrap_err();
            assert!(err.detail().contains(why), "wanted {why:?}, got {err}");
        }
    }

    #[test]
    fn wire_frame_scratch_encoder_matches_and_reuses_capacity() {
        let frames = [
            WireFrame::Hello { client: 1, rank: 2 },
            WireFrame::Batch {
                client: 3,
                step: 9,
                payload: BatchPayload::Encoded(Bytes::from(vec![5u8; 64])),
            },
            WireFrame::Close { client: 1 },
            WireFrame::Reject {
                client: 4,
                reason: RejectReason::SessionLimit,
            },
        ];
        let mut scratch = Vec::new();
        for f in &frames {
            encode_wire_frame_into(f, &mut scratch);
            assert_eq!(scratch, encode_wire_frame(f));
            assert_eq!(decode_wire_frame(&scratch).unwrap(), *f);
        }
        // Once grown past the largest frame, encoding stops allocating.
        let cap = scratch.capacity();
        for f in &frames {
            encode_wire_frame_into(f, &mut scratch);
        }
        assert_eq!(scratch.capacity(), cap, "scratch buffer was reallocated");
    }

    #[test]
    fn reject_frames_round_trip_and_validate_reason_codes() {
        let frame = WireFrame::Reject {
            client: 42,
            reason: RejectReason::SessionLimit,
        };
        let wire = encode_wire_frame(&frame);
        assert_eq!(wire.len(), encoded_wire_frame_len(&frame));
        assert_eq!(decode_wire_frame(&wire).unwrap(), frame);
        // A flipped checksum bit is caught like any other frame.
        let mut flipped = wire.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x01;
        assert!(decode_wire_frame(&flipped).is_err());
        // An unknown reason code is a decode error even under a valid
        // checksum — fuzzed frames can't smuggle an unclassifiable
        // refusal through. Code 1 belonged to a retired reason.
        let reason_at = MAGIC.len() + 2 + 4;
        for code in [1, 0xEE] {
            let mut bad = wire.clone();
            bad[reason_at] = code;
            let err = decode_wire_frame(&reseal(bad)).unwrap_err();
            assert!(
                err.to_string().contains("unknown reject reason"),
                "unexpected error: {err}"
            );
        }
    }
}
