//! Data Constructor: microbatch assembly and parallelism transformation.
//!
//! The constructor is the data sink for a consumer bucket (e.g. one DP
//! group). It aggregates samples from Source Loaders, performs the
//! microbatch transformations of Fig 1 — packing fragmented subsequences
//! into complete sequences with segment masks and padding — and applies
//! the parallelism transformation so each trainer client receives exactly
//! its slice:
//!
//! - CP ranks get sequence shards (contiguous or zig-zag);
//! - PP stages beyond 0 get metadata only;
//! - TP/CP ranks covered by `broadcast_at` are elided entirely.
//!
//! A packed sequence *is* its segment table: the position ids (RoPE
//! input) are a pure function of the segment lengths and the padding, so
//! they are derived where they are consumed
//! ([`PackedSequence::position_ids`], [`PackedSequence::fill_position_ids`])
//! and never held or shipped. The segments of a microbatch live in one
//! shared table, each sequence a [`Segments`] window onto it.
//!
//! Because *one* constructor serves the whole bucket, CP/PP rank loaders
//! are never replicated — the parallelism-redundancy fix of Fig 6.

use std::collections::HashMap;

use bytes::Bytes;
use msd_data::{Modality, Sample, TransformPipeline, TransformScratch};
use msd_mesh::{cp_range, delivery_kind, Axis, DeliveryKind, DeviceMesh, Rank};

use crate::plan::BucketPlan;
use crate::window::{self, Window};

/// One packed segment (one original sample) inside a packed sequence.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Segment {
    /// Originating sample.
    pub sample_id: u64,
    /// Tokens this segment contributes.
    pub tokens: u64,
}

/// A packed sequence's segments: a window onto a segment table shared by
/// every sequence of a microbatch (or of a decoded batch).
pub type Segments = Window<Segment>;

/// A complete (packed) sequence.
#[derive(Debug, Clone, PartialEq)]
pub struct PackedSequence {
    /// Segments in packing order.
    pub segments: Segments,
    /// Real tokens (sum of segments).
    pub tokens: u64,
    /// Dummy tokens appended to reach the padded length.
    pub padding: u64,
}

impl PackedSequence {
    /// Padded length (`tokens + padding`).
    pub fn padded_len(&self) -> u64 {
        self.tokens + self.padding
    }

    /// Position ids (RoPE input), derived from the segment lengths:
    /// `0..tokens` for every segment, restarting at each boundary, then
    /// `padding` zeros — [`padded_len`](Self::padded_len) ids in all.
    pub fn position_ids(&self) -> impl Iterator<Item = u32> + '_ {
        self.segments
            .iter()
            .flat_map(|seg| 0..seg.tokens as u32)
            .chain(std::iter::repeat_n(0, self.padding as usize))
    }

    /// Writes [`position_ids`](Self::position_ids) into `out`, for a
    /// trainer that wants the tensor.
    ///
    /// # Panics
    ///
    /// If `out` is not [`padded_len`](Self::padded_len) ids long.
    pub fn fill_position_ids(&self, out: &mut [u32]) {
        assert_eq!(
            out.len() as u64,
            self.padded_len(),
            "position-id buffer must hold padded_len() ids"
        );
        let mut rest = out;
        for seg in &self.segments {
            let (run, tail) = rest.split_at_mut(seg.tokens as usize);
            for (slot, id) in run.iter_mut().zip(0..) {
                *slot = id;
            }
            rest = tail;
        }
        rest.fill(0);
    }
}

/// One assembled microbatch.
///
/// The microbatch carries its samples' actual payload bytes as shared
/// [`Bytes`] views: assembling a batch bumps refcounts on the loaders'
/// buffers, and cloning a batch (or handing it to N serving clients)
/// never duplicates payload data.
#[derive(Debug, Clone, PartialEq)]
pub struct Microbatch {
    /// Bin index within the bucket.
    pub bin: u32,
    /// Packed sequences.
    pub sequences: Vec<PackedSequence>,
    /// Transformed payloads, `(sample id, bytes)` in bin order — shared
    /// slices of the samples popped from loader buffers, not copies.
    pub payloads: Vec<(u64, Bytes)>,
    /// Payload bytes carried (sum of transformed sample payloads).
    pub payload_bytes: u64,
}

impl Microbatch {
    /// Total real tokens in the microbatch.
    pub fn tokens(&self) -> u64 {
        self.sequences.iter().map(|s| s.tokens).sum()
    }

    /// Total padded tokens.
    pub fn padded_tokens(&self) -> u64 {
        self.sequences.iter().map(PackedSequence::padded_len).sum()
    }
}

/// What one trainer client receives for a bucket's batch.
#[derive(Debug, Clone, PartialEq)]
pub struct ClientDelivery {
    /// Target rank.
    pub rank: Rank,
    /// Payload, metadata-only, or elided.
    pub kind: DeliveryKind,
    /// For CP ranks receiving payloads: the token range of each packed
    /// sequence this rank owns, per microbatch (`[mb][seq] -> (start,end)`).
    pub cp_slices: Vec<Vec<(u64, u64)>>,
    /// Estimated bytes shipped to this client.
    pub bytes: u64,
}

/// A fully constructed batch for one bucket.
#[derive(Debug, Clone, PartialEq)]
pub struct ConstructedBatch {
    /// Bucket index.
    pub bucket: u32,
    /// Assembled microbatches.
    pub microbatches: Vec<Microbatch>,
    /// Per-client deliveries.
    pub deliveries: Vec<ClientDelivery>,
}

/// The Data Constructor component for one bucket.
#[derive(Debug, Clone)]
pub struct DataConstructor {
    mesh: DeviceMesh,
    /// Maximum packed-sequence length (the trainer context length).
    pub max_seq_len: u64,
    /// Pad packed sequences up to a multiple of this (1 = exact packing).
    pub pad_multiple: u64,
}

impl DataConstructor {
    /// Creates a constructor for the given trainer mesh and context length.
    pub fn new(mesh: DeviceMesh, max_seq_len: u64) -> Self {
        DataConstructor {
            mesh,
            max_seq_len: max_seq_len.max(1),
            pad_multiple: 1,
        }
    }

    /// First-fit packing of samples (in plan order) into sequences of at
    /// most `max_seq_len` tokens. Oversized samples are truncated to fit.
    /// The sequences share one segment table, laid out sequence by
    /// sequence.
    pub fn pack(&self, samples: &[(u64, u64)]) -> Vec<PackedSequence> {
        let clamp = |tokens: u64| tokens.clamp(1, self.max_seq_len);
        // First fit over the open sequences: each sequence's load, and
        // each sample's sequence.
        let mut loads: Vec<u64> = Vec::with_capacity(samples.len());
        let mut slot: Vec<u32> = Vec::with_capacity(samples.len());
        for (_, tokens) in samples {
            let tokens = clamp(*tokens);
            let seq = match loads.iter().position(|l| l + tokens <= self.max_seq_len) {
                Some(i) => {
                    loads[i] += tokens;
                    i
                }
                None => {
                    loads.push(tokens);
                    loads.len() - 1
                }
            };
            slot.push(seq as u32);
        }
        // One counting pass: `cursor[s]` starts at sequence `s`'s first
        // table row and ends one past its last, and each sample's
        // sequence index becomes its row.
        let mut cursor = vec![0u32; loads.len()];
        for &seq in &slot {
            cursor[seq as usize] += 1;
        }
        let mut next = 0;
        for c in &mut cursor {
            let count = *c;
            *c = next;
            next += count;
        }
        for row in &mut slot {
            let c = &mut cursor[*row as usize];
            *row = *c;
            *c += 1;
        }
        let table = window::table(samples.len(), Segment::default(), |rows| {
            for ((sample_id, tokens), row) in samples.iter().zip(&slot) {
                rows[*row as usize] = Segment {
                    sample_id: *sample_id,
                    tokens: clamp(*tokens),
                };
            }
        });
        loads
            .iter()
            .zip(Segments::split(&table, cursor))
            .map(|(&tokens, segments)| {
                let padded = tokens.div_ceil(self.pad_multiple) * self.pad_multiple;
                PackedSequence {
                    segments,
                    tokens,
                    padding: padded - tokens,
                }
            })
            .collect()
    }

    /// Assembles one bucket's batch: microbatch transforms + parallelism
    /// transforms. `samples` maps sample id → transformed sample.
    pub fn construct(
        &self,
        bucket_plan: &BucketPlan,
        samples: &HashMap<u64, Sample>,
        broadcast_axes: &[Axis],
    ) -> ConstructedBatch {
        self.build(bucket_plan, broadcast_axes, |id| samples.get(&id))
    }

    /// The batch of `bucket_plan`, each planned id's transformed sample
    /// read through `sample` in plan order (`None`: missing, skipped).
    fn build<'a>(
        &self,
        bucket_plan: &BucketPlan,
        broadcast_axes: &[Axis],
        mut sample: impl FnMut(u64) -> Option<&'a Sample>,
    ) -> ConstructedBatch {
        let microbatches: Vec<Microbatch> = bucket_plan
            .bins
            .iter()
            .map(|bin| {
                let mut toks = Vec::with_capacity(bin.samples.len());
                let mut payloads: Vec<(u64, Bytes)> = Vec::with_capacity(bin.samples.len());
                for s in bin.samples.iter().filter_map(|id| sample(*id)) {
                    toks.push((s.meta.sample_id, s.meta.total_tokens().max(1)));
                    // A refcount bump, not a copy: the batch shares the
                    // popped samples' allocations.
                    payloads.push((s.meta.sample_id, s.payload.clone()));
                }
                let payload_bytes: u64 = payloads.iter().map(|(_, p)| p.len() as u64).sum();
                Microbatch {
                    bin: bin.bin,
                    sequences: self.pack(&toks),
                    payloads,
                    payload_bytes,
                }
            })
            .collect();

        let cp = self.mesh.size(Axis::CP);
        let payload: u64 = microbatches.iter().map(|m| m.payload_bytes).sum();
        let sequences: u64 = microbatches.iter().map(|m| m.sequences.len() as u64).sum();
        let deliveries = bucket_plan
            .clients
            .iter()
            .map(|&rank| {
                let kind = delivery_kind(&self.mesh, rank, broadcast_axes);
                let cp_coord = self.mesh.coord(rank, Axis::CP).unwrap_or(0);
                let slices = |mb: &Microbatch| {
                    mb.sequences
                        .iter()
                        .map(|seq| cp_range(seq.padded_len(), cp, cp_coord))
                        .map(|r| (r.start, r.end))
                        .collect()
                };
                // CP ranks receive ~1/cp of the tokens; a metadata-only
                // rank, 64 B per sequence.
                let (cp_slices, bytes) = match kind {
                    DeliveryKind::Payload => (
                        microbatches.iter().map(slices).collect(),
                        payload / u64::from(cp.max(1)),
                    ),
                    DeliveryKind::MetadataOnly => (Vec::new(), 64 * sequences),
                    DeliveryKind::Elided => (Vec::new(), 0),
                };
                ClientDelivery {
                    rank,
                    kind,
                    cp_slices,
                    bytes,
                }
            })
            .collect();

        ConstructedBatch {
            bucket: bucket_plan.bucket,
            microbatches,
            deliveries,
        }
    }

    /// [`DataConstructor::construct`] from the bucket's raw samples in plan
    /// order (less any missing), as a loader took them (`take_into`): `tails`
    /// settles each first, and lets go of them once the batch is built.
    pub fn construct_raw(
        &self,
        bucket_plan: &BucketPlan,
        raw: &[Sample],
        broadcast_axes: &[Axis],
        tails: &mut TransformTails,
    ) -> ConstructedBatch {
        let mut settled = tails.settle_all(raw).iter().peekable();
        let batch = self.build(bucket_plan, broadcast_axes, |id| {
            settled.next_if(|s| s.meta.sample_id == id)
        });
        tails.settled.clear();
        batch
    }

    /// Resident memory of a constructed batch held for delivery: its
    /// payloads plus its segment tables (16 B per segment).
    pub fn batch_memory_bytes(batch: &ConstructedBatch) -> u64 {
        batch
            .microbatches
            .iter()
            .map(|m| {
                let segments: usize = m.sequences.iter().map(|s| s.segments.len()).sum();
                m.payload_bytes + size_of::<Segment>() as u64 * segments as u64
            })
            .sum()
    }
}

/// The transform tails a Data Constructor runs on raw samples (Sec 6.2's
/// transformation reordering): per modality, the canonical pipeline past
/// its transfer-optimal split ([`TransformPipeline::split_for_transfer`]),
/// which is what a Source Loader leaves undone in its buffer. Settling a
/// raw sample here yields the bytes [`crate::loader::SourceLoader::pop`]
/// would have delivered; text's tail is empty.
#[derive(Debug)]
pub struct TransformTails {
    /// Each modality's tail, in [`Modality::ALL`] order.
    tails: [TransformPipeline; 4],
    /// Working buffers of the chain, reused for every sample.
    scratch: TransformScratch,
    /// The settled samples of the batch being built, in order: one table
    /// reused across batches, so settling allocates only the tails'
    /// outputs.
    settled: Vec<Sample>,
}

impl Default for TransformTails {
    fn default() -> Self {
        TransformTails {
            tails: Modality::ALL.map(|m| TransformPipeline::for_modality(m).split_for_transfer().1),
            scratch: TransformScratch::default(),
            settled: Vec::new(),
        }
    }
}

impl TransformTails {
    /// Runs `sample`'s tail on it in place.
    pub fn settle(&mut self, sample: &mut Sample) {
        self.tails[sample.meta.modality as usize].apply_with(sample, &mut self.scratch);
    }

    /// Settles a copy of every sample of `raw` (a refcount bump on its
    /// payload) into the reused table, in order, and returns it; `raw` is
    /// left as it is, so a rebuild settles the same samples again. When
    /// no sample has a tail to run (text), `raw` is already settled and
    /// is returned as it is.
    pub fn settle_all<'a>(&'a mut self, raw: &'a [Sample]) -> &'a [Sample] {
        let tails = &self.tails;
        if raw
            .iter()
            .all(|sample| tails[sample.meta.modality as usize].is_empty())
        {
            return raw;
        }
        self.settled.clear();
        for sample in raw {
            let mut sample = sample.clone();
            self.settle(&mut sample);
            self.settled.push(sample);
        }
        &self.settled
    }
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{BinPlan, BucketPlan};
    use msd_data::{Modality, SampleMeta, SourceId};

    fn mk_sample(id: u64, tokens: u32) -> Sample {
        Sample {
            meta: SampleMeta {
                sample_id: id,
                source: SourceId(0),
                modality: Modality::Text,
                text_tokens: tokens,
                image_patches: 0,
                raw_bytes: u64::from(tokens) * 2,
            },
            // Shared zeroed template: one allocation for all test samples.
            payload: msd_data::zeroed_payload(tokens as usize * 2),
        }
    }

    fn constructor(cp: u32, pp: u32, tp: u32, max_len: u64) -> DataConstructor {
        let mesh = DeviceMesh::pp_dp_cp_tp(pp, 1, cp, tp).unwrap();
        DataConstructor::new(mesh, max_len)
    }

    #[test]
    fn packing_respects_max_len_and_conserves_tokens() {
        let c = constructor(1, 1, 1, 100);
        let samples: Vec<(u64, u64)> = vec![(1, 30), (2, 70), (3, 50), (4, 50), (5, 99)];
        let packed = c.pack(&samples);
        let total: u64 = packed.iter().map(|p| p.tokens).sum();
        assert_eq!(total, 299);
        for p in &packed {
            assert!(p.padded_len() <= 100);
        }
        // First-fit: 30+70 share a sequence.
        assert_eq!(packed[0].segments.len(), 2);
        assert_eq!(packed[0].tokens, 100);
    }

    /// What `pack` did before the shared table: one `Vec<Segment>` per
    /// sequence, filled by first fit in plan order.
    fn first_fit(max_len: u64, samples: &[(u64, u64)]) -> Vec<Vec<Segment>> {
        let mut sequences: Vec<Vec<Segment>> = Vec::new();
        for (sample_id, tokens) in samples {
            let tokens = (*tokens).clamp(1, max_len);
            let load = |s: &Vec<Segment>| s.iter().map(|seg| seg.tokens).sum::<u64>();
            let segment = Segment {
                sample_id: *sample_id,
                tokens,
            };
            match sequences.iter().position(|s| load(s) + tokens <= max_len) {
                Some(i) => sequences[i].push(segment),
                None => sequences.push(vec![segment]),
            }
        }
        sequences
    }

    #[test]
    fn pack_keeps_first_fit_and_shares_one_table() {
        let c = constructor(1, 1, 1, 100);
        let samples: Vec<(u64, u64)> = (0..40u64).map(|i| (i, (i * 37) % 130)).collect();
        let packed = c.pack(&samples);
        let want = first_fit(100, &samples);
        assert_eq!(packed.len(), want.len());
        for (seq, want) in packed.iter().zip(&want) {
            assert_eq!(*seq.segments, want[..]);
            assert_eq!(seq.tokens, want.iter().map(|s| s.tokens).sum::<u64>());
            assert!(seq.segments.shares_table(&packed[0].segments));
        }
        assert!(c.pack(&[]).is_empty());
    }

    #[test]
    fn position_ids_restart_per_segment() {
        let c = constructor(1, 1, 1, 16);
        let packed = c.pack(&[(1, 3), (2, 4)]);
        assert_eq!(packed.len(), 1);
        let want = vec![0, 1, 2, 0, 1, 2, 3]; // Segment restarts at 0.
        assert_eq!(packed[0].position_ids().collect::<Vec<_>>(), want);
        let mut filled = vec![u32::MAX; 7];
        packed[0].fill_position_ids(&mut filled);
        assert_eq!(filled, want);
        assert_eq!(reference::position_ids(&packed[0].segments, 0), want);
    }

    #[test]
    fn padding_to_multiple() {
        let mut c = constructor(1, 1, 1, 64);
        c.pad_multiple = 16;
        let packed = c.pack(&[(1, 20)]);
        assert_eq!(packed[0].tokens, 20);
        assert_eq!(packed[0].padding, 12);
        let ids: Vec<u32> = packed[0].position_ids().collect();
        assert_eq!(ids.len(), 32);
        // Trailing pad positions are zero.
        assert!(ids[20..].iter().all(|p| *p == 0));
        let mut filled = vec![u32::MAX; 32];
        packed[0].fill_position_ids(&mut filled);
        assert_eq!(filled, ids);
        assert_eq!(reference::position_ids(&packed[0].segments, 12), ids);
    }

    #[test]
    #[should_panic(expected = "padded_len")]
    fn fill_position_ids_rejects_a_short_buffer() {
        let packed = constructor(1, 1, 1, 16).pack(&[(1, 3)]);
        packed[0].fill_position_ids(&mut [0; 2]);
    }

    #[test]
    fn oversized_sample_is_truncated() {
        let c = constructor(1, 1, 1, 64);
        let packed = c.pack(&[(1, 500)]);
        assert_eq!(packed[0].tokens, 64);
    }

    fn bucket_plan(clients: Vec<Rank>, bins: Vec<Vec<u64>>) -> BucketPlan {
        BucketPlan {
            bucket: 0,
            clients,
            bins: bins
                .into_iter()
                .enumerate()
                .map(|(i, samples)| BinPlan {
                    bin: i as u32,
                    samples,
                    total_cost: 0.0,
                })
                .collect(),
        }
    }

    #[test]
    fn construct_delivers_by_parallelism_role() {
        // Mesh: PP=2, CP=2, TP=2 → 8 ranks in this bucket.
        let c = constructor(2, 2, 2, 128);
        let plan = bucket_plan((0..8).collect(), vec![vec![1, 2], vec![3]]);
        let samples: HashMap<u64, Sample> = [(1, 60), (2, 60), (3, 100)]
            .iter()
            .map(|(id, t)| (*id, mk_sample(*id, *t)))
            .collect();
        let batch = c.construct(&plan, &samples, &[Axis::TP]);
        assert_eq!(batch.microbatches.len(), 2);
        assert_eq!(batch.deliveries.len(), 8);
        let kinds: Vec<DeliveryKind> = batch.deliveries.iter().map(|d| d.kind).collect();
        // TP1 ranks elided (odd ranks in this mesh), PP1 ranks metadata.
        assert!(kinds.contains(&DeliveryKind::Elided));
        assert!(kinds.contains(&DeliveryKind::MetadataOnly));
        assert!(kinds.contains(&DeliveryKind::Payload));
        // Elided clients cost zero bytes.
        for d in &batch.deliveries {
            if d.kind == DeliveryKind::Elided {
                assert_eq!(d.bytes, 0);
            }
        }
    }

    #[test]
    fn cp_slices_tile_each_sequence() {
        let c = constructor(4, 1, 1, 1024);
        let plan = bucket_plan((0..4).collect(), vec![vec![1]]);
        let samples: HashMap<u64, Sample> = [(1u64, mk_sample(1, 1000))].into_iter().collect();
        let batch = c.construct(&plan, &samples, &[]);
        // 4 CP ranks each take a quarter of the packed sequence.
        let seq_len = batch.microbatches[0].sequences[0].padded_len();
        let mut covered = 0u64;
        for d in &batch.deliveries {
            assert_eq!(d.kind, DeliveryKind::Payload);
            let (start, end) = d.cp_slices[0][0];
            covered += end - start;
            assert!(end <= seq_len);
        }
        assert_eq!(covered, seq_len);
    }

    #[test]
    fn missing_samples_are_skipped() {
        let c = constructor(1, 1, 1, 128);
        let plan = bucket_plan(vec![0], vec![vec![1, 999]]);
        let samples: HashMap<u64, Sample> = [(1u64, mk_sample(1, 10))].into_iter().collect();
        let batch = c.construct(&plan, &samples, &[]);
        assert_eq!(batch.microbatches[0].tokens(), 10);
    }

    #[test]
    fn constructed_batch_shares_sample_payloads() {
        // The constructor → client hop is zero-copy: batch payloads are
        // views of the popped samples' allocations, and cloning the batch
        // (per-client fan-out) keeps sharing them.
        let c = constructor(1, 1, 1, 128);
        let plan = bucket_plan(vec![0], vec![vec![1, 2]]);
        let samples: HashMap<u64, Sample> = [(1u64, mk_sample(1, 10)), (2u64, mk_sample(2, 20))]
            .into_iter()
            .collect();
        let batch = c.construct(&plan, &samples, &[]);
        let mb = &batch.microbatches[0];
        assert_eq!(mb.payloads.len(), 2);
        assert_eq!(mb.payload_bytes, 60);
        for (id, payload) in &mb.payloads {
            assert!(
                Bytes::ptr_eq(payload, &samples[id].payload),
                "sample {id} payload was copied into the batch"
            );
        }
        let cloned = batch.clone();
        for (orig, copy) in mb.payloads.iter().zip(&cloned.microbatches[0].payloads) {
            assert!(Bytes::ptr_eq(&orig.1, &copy.1));
        }
    }

    #[test]
    fn batch_memory_scales_with_payload() {
        let c = constructor(1, 1, 1, 128);
        let small = c.construct(
            &bucket_plan(vec![0], vec![vec![1]]),
            &[(1u64, mk_sample(1, 10))].into_iter().collect(),
            &[],
        );
        let large = c.construct(
            &bucket_plan(vec![0], vec![vec![1]]),
            &[(1u64, mk_sample(1, 120))].into_iter().collect(),
            &[],
        );
        assert!(
            DataConstructor::batch_memory_bytes(&large)
                > DataConstructor::batch_memory_bytes(&small)
        );
        // A 20-byte payload plus one 16-byte segment row; position ids
        // are derived, so they cost nothing.
        assert_eq!(DataConstructor::batch_memory_bytes(&small), 20 + 16);
    }
}
