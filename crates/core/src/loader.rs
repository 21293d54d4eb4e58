//! Source Loader: the per-source preprocessing actor.
//!
//! A Source Loader is a dedicated actor for (a partition of) one data
//! source. It continuously ingests raw rows, applies sample-level
//! transformations inside its own process, and exposes only buffer
//! *metadata* to the Planner. Keeping file access states inside one loader
//! per source — instead of one per worker per rank — is the architecture's
//! source-redundancy fix (Sec 3).
//!
//! # What the buffer holds
//!
//! Loader memory grows with every buffered sample (Fig 4), and the
//! Planner needs only their metadata, so a refill *admits* samples as
//! metadata: [`SourceLoader::refill`] makes each sample's RNG draws,
//! advances the cursor and charges its modeled transform cost, but
//! allocates and synthesizes nothing. A stored source admits its row's
//! zero-copy slice. The buffer keeps one order, admission order, and
//! each entry in it is either *pending* (metadata only) or
//! *materialized*: its payload synthesized into a pool lease and run
//! through the transfer-optimal prefix of its pipeline
//! ([`TransformPipeline::min_transfer_index`]) — image and audio samples
//! as raw bytes, video as keyframes, text as tokens (for text the prefix
//! is the whole pipeline).
//!
//! One materializer turns a pending entry into a sample, in two places:
//! a pop materializes any named sample still pending, and
//! [`SourceLoader::materialize`] works ahead of the pops. The threaded
//! runtime's loader groups call it in their idle time, one sample per
//! turn, for the member furthest behind its *lead* (how many samples its
//! last pop took), so a sample is materialized about one step ahead of
//! the pop that takes it, and a sample a restore replays away is never
//! materialized at all.
//!
//! [`SourceLoader::summary`] reports each buffered sample's metadata as
//! it will be once its whole pipeline has run — a pending entry's from
//! lengths alone ([`TransformPipeline::settled_meta`]) — so plans and
//! delivered bytes depend neither on where the cut lies nor on what is
//! materialized yet. Both deployments take samples raw
//! (`SourceLoader::take_into`) and run the rest where the batch is
//! assembled (Sec 6.2's transformation reordering,
//! [`crate::constructor::TransformTails`]); [`SourceLoader::pop`] runs
//! it in the loader instead, on exactly the samples a plan takes.

use std::collections::VecDeque;
use std::sync::Arc;

use bytes::Bytes;
use msd_data::{
    Modality, Sample, SampleMeta, SourceId, SourceSpec, TransformPipeline, TransformScratch,
};
use msd_sim::SimRng;
use msd_storage::{ColumnarReader, MemStore, StorageError};

use crate::buffer::BufferSummary;
use crate::window::{self, Window};

/// Resident memory per loader worker process (execution context + prefetch
/// slots) — the "worker scaling" memory dimension of Fig 4.
pub const WORKER_CTX_BYTES: u64 = 200 << 20;

/// Static configuration of one Source Loader actor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoaderConfig {
    /// Unique loader id.
    pub loader_id: u32,
    /// Parallel workers inside this loader (worker parallelism).
    pub workers: u32,
    /// Read-buffer capacity in samples.
    pub buffer_capacity: usize,
    /// This loader's shard index among the source's data-parallel loaders.
    pub shard: u32,
    /// Total data-parallel loaders for this source.
    pub shards: u32,
}

impl LoaderConfig {
    /// Single-loader default for a source.
    pub fn solo(loader_id: u32) -> Self {
        LoaderConfig {
            loader_id,
            workers: 2,
            buffer_capacity: 1024,
            shard: 0,
            shards: 1,
        }
    }
}

/// Serializable checkpoint of loader progress.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoaderCheckpoint {
    /// Loader id.
    pub loader_id: u32,
    /// Next sample ordinal to produce.
    pub cursor: u64,
    /// RNG state.
    pub rng_state: [u64; 4],
    /// Version (plan step) at snapshot time.
    pub version: u64,
}

/// Point-in-time health snapshot of one Source Loader — the control
/// plane's per-loader input (buffer occupancy) for autoscaling and
/// rebalancing decisions.
#[derive(Debug, Clone, PartialEq)]
pub struct LoaderHealth {
    /// The loader's id.
    pub loader_id: u32,
    /// The source this loader serves.
    pub source: SourceId,
    /// Samples currently buffered.
    pub buffered: usize,
    /// Samples produced over the loader's lifetime.
    pub samples_produced: u64,
    /// Cumulative virtual transform time, ns.
    pub transform_ns: u64,
    /// Samples materialized over the loader's lifetime (see the module
    /// docs); the rest of `samples_produced` is still pending, or was
    /// replayed away without ever being materialized.
    pub samples_materialized: u64,
}

/// Where the loader reads raw rows from.
enum Ingest {
    /// Synthesize samples directly from the source spec.
    Synthetic,
    /// Read real `MSDCOL01` rows from an object store. The reader is
    /// opened on the first read and then kept: consecutive ordinals reuse
    /// its parsed footer and its resident decoded row group.
    Stored {
        store: Arc<MemStore>,
        path: String,
        reader: Option<ColumnarReader<Arc<MemStore>>>,
    },
}

/// One buffered sample, in admission order (see the module docs).
#[derive(Clone)]
enum Buffered {
    /// Admitted, not yet materialized: the sample's metadata as drawn
    /// and, for a stored source, its row's raw bytes.
    Pending {
        meta: SampleMeta,
        row: Option<Bytes>,
    },
    /// Materialized: the payload after the pipeline's head.
    Ready(Sample),
}

impl Buffered {
    fn sample_id(&self) -> u64 {
        match self {
            Buffered::Pending { meta, .. } => meta.sample_id,
            Buffered::Ready(sample) => sample.meta.sample_id,
        }
    }

    fn is_pending(&self) -> bool {
        matches!(self, Buffered::Pending { .. })
    }
}

/// The Source Loader component.
///
/// This struct is deliberately synchronous — it is driven either directly
/// (deterministic simulation) or from inside an actor (threaded runtime,
/// see [`crate::system`]).
pub struct SourceLoader {
    spec: SourceSpec,
    config: LoaderConfig,
    ingest: Ingest,
    buffer: VecDeque<Buffered>,
    /// How many of `buffer`'s entries are pending.
    pending: usize,
    /// How many samples the last pop took: how far ahead of the next pop
    /// [`SourceLoader::behind`] wants samples materialized.
    lead: usize,
    cursor: u64,
    rng: SimRng,
    /// Cumulative virtual transform time, in ns.
    pub transform_ns_total: u64,
    /// Cumulative virtual I/O time, in ns.
    pub io_ns_total: u64,
    samples_produced: u64,
    samples_materialized: u64,
    /// `spec.pipeline()`, built once rather than per sample. Its whole
    /// cost is charged when a sample is admitted.
    pipeline: TransformPipeline,
    /// The part of `pipeline` that runs when a sample is materialized:
    /// its transfer-optimal prefix.
    head: TransformPipeline,
    /// The rest of `pipeline`: what [`SourceLoader::pop`] runs, and what
    /// a raw take leaves to the Data Constructor.
    tail: TransformPipeline,
    /// Working buffers of the transform chain, reused for every sample.
    scratch: TransformScratch,
}

impl SourceLoader {
    /// Creates a loader that synthesizes samples from the spec.
    pub fn synthetic(spec: SourceSpec, config: LoaderConfig, seed: u64) -> Self {
        let rng = SimRng::seed(seed ^ (u64::from(config.loader_id) << 32));
        let pipeline = spec.pipeline();
        let (head, tail) = pipeline.split_for_transfer();
        SourceLoader {
            pipeline,
            head,
            tail,
            scratch: TransformScratch::default(),
            spec,
            config,
            ingest: Ingest::Synthetic,
            buffer: VecDeque::new(),
            pending: 0,
            lead: 0,
            cursor: 0,
            rng,
            transform_ns_total: 0,
            io_ns_total: 0,
            samples_produced: 0,
            samples_materialized: 0,
        }
    }

    /// Creates a loader reading materialized rows from an object store.
    pub fn stored(
        spec: SourceSpec,
        config: LoaderConfig,
        store: Arc<MemStore>,
        path: impl Into<String>,
        seed: u64,
    ) -> Self {
        let mut loader = Self::synthetic(spec, config, seed);
        loader.ingest = Ingest::Stored {
            store,
            path: path.into(),
            reader: None,
        };
        loader
    }

    /// The loader's id.
    pub fn id(&self) -> u32 {
        self.config.loader_id
    }

    /// The source this loader serves.
    pub fn source(&self) -> SourceId {
        self.spec.id
    }

    /// The loader's configuration.
    pub fn config(&self) -> &LoaderConfig {
        &self.config
    }

    /// The source spec this loader serves.
    pub(crate) fn spec(&self) -> &SourceSpec {
        &self.spec
    }

    /// Buffered sample count.
    pub fn buffered(&self) -> usize {
        self.buffer.len()
    }

    /// Total samples produced over the loader's lifetime.
    pub fn samples_produced(&self) -> u64 {
        self.samples_produced
    }

    /// Width of the ordinal field in sample ids (see [`Self::make_id`]).
    const ORDINAL_BITS: u32 = 40;
    /// Mask selecting the ordinal field of a sample id.
    const ORDINAL_MASK: u64 = (1u64 << Self::ORDINAL_BITS) - 1;

    /// Globally unique id for this loader's `ordinal`-th sample:
    /// `source(16) | shard(8) | ordinal(40)` bit layout.
    fn make_id(&self, ordinal: u64) -> u64 {
        (u64::from(self.spec.id.0) << 48)
            | (u64::from(self.config.shard) << Self::ORDINAL_BITS)
            | ordinal
    }

    /// Refills the buffer to `target` samples; returns virtual time spent
    /// (transform cost amortized over workers, plus I/O for stored mode).
    /// Samples are admitted as metadata (see the module docs): a warmed
    /// synthetic refill makes no allocator call.
    ///
    /// In data-parallel sharding, shard `s` of `k` produces ordinals
    /// `s, s+k, s+2k, ...` of the logical source stream.
    pub fn refill(&mut self, target: usize) -> Result<u64, StorageError> {
        self.refill_charged(target).map(|(spent_ns, _)| spent_ns)
    }

    /// [`SourceLoader::refill`], returning the virtual time spent and
    /// the share of it that the pipeline's head accounts for: what the
    /// refill would cost if the tail ran at the Data Constructor instead
    /// (Sec 6.2).
    pub(crate) fn refill_charged(&mut self, target: usize) -> Result<(u64, u64), StorageError> {
        let target = target.min(self.config.buffer_capacity);
        let (mut spent_ns, mut head_ns) = (0u64, 0u64);
        while self.buffer.len() < target {
            let Some((entry, spent, head)) = self.admit_one()? else {
                break; // Source exhausted.
            };
            spent_ns += spent;
            head_ns += head;
            self.buffer.push_back(entry);
            self.pending += 1;
        }
        Ok((spent_ns, head_ns))
    }

    /// Admits the next sample of this shard's deterministic stream as a
    /// pending entry, advancing the cursor and accounting transform cost.
    /// Returns the entry plus the amortized virtual time spent on the
    /// whole pipeline and on its head alone, or `None` when a stored
    /// source is exhausted. The caller decides whether the entry enters
    /// the buffer (refill) or is dropped (directive replay).
    fn admit_one(&mut self) -> Result<Option<(Buffered, u64, u64)>, StorageError> {
        let ordinal = self.cursor * u64::from(self.config.shards) + u64::from(self.config.shard);
        let sample_id = self.make_id(self.cursor);
        let (meta, row) = match &mut self.ingest {
            Ingest::Synthetic => {
                let meta = self.spec.sample_meta(&mut self.rng, ordinal);
                let meta = SampleMeta {
                    sample_id,
                    raw_bytes: meta.raw_bytes.min(8192),
                    ..meta
                };
                (meta, None)
            }
            Ingest::Stored {
                store,
                path,
                reader,
            } => {
                // Open once; the footer parse is charged with the open.
                let io_before = reader.as_ref().map_or(0, ColumnarReader::io_ns);
                let reader = match reader {
                    Some(reader) => reader,
                    None => reader.insert(ColumnarReader::open(store.clone(), path)?),
                };
                let row = read_stored_row(reader, ordinal)?;
                self.io_ns_total += reader.io_ns() - io_before;
                let Some((text_tokens, image_patches, payload)) = row else {
                    return Ok(None); // Source exhausted.
                };
                let meta = SampleMeta {
                    sample_id,
                    source: self.spec.id,
                    modality: self.spec.modality,
                    text_tokens,
                    image_patches,
                    raw_bytes: payload.len() as u64,
                };
                (meta, Some(payload))
            }
        };
        // Sample-level transformations happen inside the loader, charged
        // in full here: the transfer-optimal head runs when the sample is
        // materialized, the rest at pop or at the constructor.
        let cost = self.pipeline.cost_ns(&meta);
        // Worker parallelism amortizes transform latency (Sec 5.1's
        // "Worker Parallel" scheme).
        let workers = u64::from(self.config.workers.max(1));
        let (spent_ns, head_ns) = (cost / workers, self.head.cost_ns(&meta) / workers);
        self.transform_ns_total += cost;
        self.cursor += 1;
        self.samples_produced += 1;
        Ok(Some((Buffered::Pending { meta, row }, spent_ns, head_ns)))
    }

    /// The sample `entry` holds, materialized if it was pending.
    fn sample_of(&mut self, entry: Buffered) -> Sample {
        match entry {
            Buffered::Ready(sample) => sample,
            Buffered::Pending { meta, row } => self.materialize_one(meta, row),
        }
    }

    /// The loader's one materializer: a pending sample's payload —
    /// synthesized into a pool lease, or its stored row — run through
    /// the pipeline's head. The pool reclaims a raw lease once the head
    /// has replaced its last view.
    fn materialize_one(&mut self, meta: SampleMeta, row: Option<Bytes>) -> Sample {
        self.samples_materialized += 1;
        let payload = row.unwrap_or_else(|| {
            let decode_start = std::time::Instant::now();
            let mut lease = crate::pool::global().lease(Sample::synthesized_len(&meta));
            Sample::synthesize_payload_into(&meta, &mut lease);
            crate::metrics::record_stage(crate::metrics::Stage::Decode, decode_start.elapsed());
            lease.freeze()
        });
        let mut sample = Sample { meta, payload };
        self.head.apply_with(&mut sample, &mut self.scratch);
        sample
    }

    /// Materializes up to `n` pending samples in place, oldest first, and
    /// returns how many it materialized: work done ahead of the pops
    /// that take them (see the module docs).
    pub fn materialize(&mut self, n: usize) -> usize {
        let mut done = 0;
        let mut at = 0;
        while done < n && self.pending > 0 {
            let Some(offset) = self.buffer.range(at..).position(Buffered::is_pending) else {
                break;
            };
            at += offset;
            let Buffered::Pending { meta, row } = &mut self.buffer[at] else {
                break; // `position` found a pending entry here.
            };
            let (meta, row) = (*meta, row.take());
            self.buffer[at] = Buffered::Ready(self.materialize_one(meta, row));
            self.pending -= 1;
            done += 1;
        }
        done
    }

    /// How many pending samples [`SourceLoader::materialize`] should
    /// still turn before the next pop: the last pop's count (the lead)
    /// less what is materialized already, at most what is pending.
    pub(crate) fn behind(&self) -> usize {
        let materialized = self.buffer.len() - self.pending;
        self.lead.saturating_sub(materialized).min(self.pending)
    }

    /// Differential-checkpoint replay: after a restore, re-admits the
    /// deterministic stream up to the highest cursor any directive names
    /// and *discards* the named samples — they were already popped and
    /// delivered before the crash, so producing them again would duplicate
    /// data in future plans. Undirected samples encountered on the way are
    /// kept in the buffer while there is room. Everything is admitted as
    /// metadata, so a discarded sample is never materialized. Returns how
    /// many directed samples were dropped.
    ///
    /// `ids` may mix directives for several loaders; only ids carrying
    /// this loader's source/shard prefix are considered.
    pub fn replay_directives(&mut self, ids: &[u64]) -> usize {
        let prefix = self.make_id(0);
        let mine: std::collections::HashSet<u64> = ids
            .iter()
            .copied()
            .filter(|id| id & !Self::ORDINAL_MASK == prefix)
            .collect();
        let Some(target_cursor) = mine.iter().map(|id| (id & Self::ORDINAL_MASK) + 1).max() else {
            return 0;
        };
        let mut dropped = 0usize;
        while self.cursor < target_cursor {
            match self.admit_one() {
                Ok(Some((entry, ..))) => {
                    if mine.contains(&entry.sample_id()) {
                        dropped += 1; // Already consumed pre-crash.
                    } else if self.buffer.len() < self.config.buffer_capacity {
                        self.buffer.push_back(entry);
                        self.pending += 1;
                    }
                    // Else: no room — the sample was part of the lost
                    // buffer anyway; dropping matches restore semantics.
                }
                Ok(None) | Err(_) => break,
            }
        }
        dropped
    }

    /// Buffer-metadata summary for the Planner: each buffered sample's
    /// metadata as [`SourceLoader::pop`] will deliver it, i.e. after the
    /// pop-time tail (see the module docs). One allocation: the
    /// summary's own metadata table.
    pub fn summary(&self) -> BufferSummary {
        let table = Self::settled_table(std::iter::once(self));
        let whole = 0..table.len() as u32;
        self.summary_in(Window::new(table, whole))
    }

    /// [`SourceLoader::summary`] of each of `loaders`, in order, their
    /// metadata windows onto one shared table: a loader group answers a
    /// gather with two allocations (the table and the returned vector),
    /// however many loaders it hosts.
    pub fn summaries<'a, I>(loaders: I) -> Vec<BufferSummary>
    where
        I: IntoIterator<Item = &'a SourceLoader>,
        I::IntoIter: Clone,
    {
        let loaders = loaders.into_iter();
        let table = Self::settled_table(loaders.clone());
        let mut end = 0;
        let ends = loaders.clone().map(move |l| {
            end += l.buffer.len() as u32;
            end
        });
        loaders
            .zip(Window::split(&table, ends))
            .map(|(l, samples)| l.summary_in(samples))
            .collect()
    }

    /// Every buffered sample's settled metadata, loader after loader, in
    /// one exactly-sized table written in place. A pending entry settles
    /// through the whole loader-side pipeline from its admitted length, a
    /// materialized one through the tail from its payload's.
    fn settled_table<'a>(
        loaders: impl Iterator<Item = &'a SourceLoader> + Clone,
    ) -> Arc<[SampleMeta]> {
        let len = loaders.clone().map(|l| l.buffer.len()).sum();
        let blank = SampleMeta {
            sample_id: 0,
            source: SourceId(0),
            modality: Modality::Text,
            text_tokens: 0,
            image_patches: 0,
            raw_bytes: 0,
        };
        window::table(len, blank, |rows| {
            let mut rows = rows.iter_mut();
            for l in loaders {
                // The buffer leads the zip, so its end consumes no row.
                for (entry, row) in l.buffer.iter().zip(rows.by_ref()) {
                    *row = match entry {
                        Buffered::Pending { meta, row } => l.pipeline.settled_meta(
                            *meta,
                            row.as_ref()
                                .map_or_else(|| Sample::synthesized_len(meta), Bytes::len),
                        ),
                        Buffered::Ready(s) => l.tail.settled_meta(s.meta, s.payload.len()),
                    };
                }
            }
        })
    }

    /// This loader's summary around `samples`, its settled metadata.
    fn summary_in(&self, samples: Window<SampleMeta>) -> BufferSummary {
        let mean = if self.samples_produced == 0 {
            0.0
        } else {
            self.transform_ns_total as f64 / self.samples_produced as f64
        };
        BufferSummary {
            loader_id: self.config.loader_id,
            source: self.spec.id,
            samples,
            mean_transform_ns: mean,
        }
    }

    /// Point-in-time health snapshot for the control plane.
    pub fn health(&self) -> LoaderHealth {
        LoaderHealth {
            loader_id: self.config.loader_id,
            source: self.spec.id,
            buffered: self.buffer.len(),
            samples_produced: self.samples_produced,
            transform_ns: self.transform_ns_total,
            samples_materialized: self.samples_materialized,
        }
    }

    /// Drains the whole read buffer for a retirement hand-off: returns
    /// every buffered sample (in buffer order, materialized: before the
    /// pop-time tail, which the adopting peer runs) and leaves the buffer
    /// empty. Because the actor wrapper processes messages sequentially,
    /// a drain can never race a pop — a sample is either popped (and
    /// delivered) *or* drained (and handed off), never both.
    pub fn drain(&mut self) -> Vec<Sample> {
        let entries = std::mem::take(&mut self.buffer);
        self.pending = 0;
        entries
            .into_iter()
            .map(|entry| self.sample_of(entry))
            .collect()
    }

    /// Adopts samples handed off by a draining peer of the same source.
    /// Adopted samples surface in future [`SourceLoader::summary`] calls
    /// under *this* loader's id, so the Planner can still schedule them —
    /// the hand-off keeps already-produced data plannable with no gap and
    /// no duplicate. They join the buffer's one order behind every entry
    /// already admitted, pending ones included. The buffer may temporarily
    /// exceed `buffer_capacity`: dropping hand-off samples would silently
    /// lose data, which is worse than briefly overshooting the budget.
    pub fn adopt(&mut self, samples: Vec<Sample>) {
        self.buffer.extend(samples.into_iter().map(Buffered::Ready));
    }

    /// Pops the samples a plan directive names, in directive order,
    /// materializing any still pending, and runs the pop-time tail of the
    /// pipeline on them. Unknown ids are skipped (they may have been
    /// popped by a prior plan replay — idempotence matters for failover).
    pub fn pop(&mut self, ids: &[u64]) -> Vec<Sample> {
        let mut out = Vec::with_capacity(ids.len());
        self.take_into(ids, &mut out);
        for sample in &mut out {
            self.tail.apply_with(sample, &mut self.scratch);
        }
        out
    }

    /// Moves the named samples, materialized but before the pop-time
    /// tail, from the buffer to `out`, in directive order:
    /// [`SourceLoader::pop`] without the tail. Both deployments take
    /// samples this way and leave the tail to the Data Constructor
    /// ([`crate::constructor::TransformTails`]), a loader group taking
    /// from several loaders for one reply collecting them in one vector.
    /// How many it took becomes the loader's lead.
    pub(crate) fn take_into(&mut self, ids: &[u64], out: &mut Vec<Sample>) {
        let before = out.len();
        // A plan usually names the front of the buffer in buffer order:
        // that run pops straight off.
        let mut rest = ids;
        while let [id, tail @ ..] = rest {
            if self.buffer.front().map(Buffered::sample_id) != Some(*id) {
                break;
            }
            if let Some(entry) = self.buffer.pop_front() {
                self.pending -= usize::from(entry.is_pending());
                out.push(self.sample_of(entry));
            }
            rest = tail;
        }
        if !rest.is_empty() {
            // Anything else (out of order, unknown, repeated) takes one
            // pass over the buffer against an index of the remaining
            // directive: each id's first position in it, searchable by id.
            let mut wanted: Vec<(u64, usize)> = rest.iter().copied().zip(0..).collect();
            wanted.sort_unstable();
            wanted.dedup_by_key(|(id, _)| *id);
            // A named entry leaves as a refcount-sharing clone whose
            // original `retain` then drops; the survivors keep their order.
            let mut slots: Vec<Option<Buffered>> = rest.iter().map(|_| None).collect();
            self.buffer.retain(|entry| {
                match wanted.binary_search_by_key(&entry.sample_id(), |(id, _)| *id) {
                    Ok(hit) if slots[wanted[hit].1].is_none() => {
                        slots[wanted[hit].1] = Some(entry.clone());
                        false
                    }
                    _ => true,
                }
            });
            for entry in slots.into_iter().flatten() {
                self.pending -= usize::from(entry.is_pending());
                out.push(self.sample_of(entry));
            }
        }
        self.lead = out.len() - before;
    }

    /// The modeled cost of running the pop-time tail on `meta`, a sample
    /// as [`SourceLoader::take_into`] leaves it, with this source's own
    /// cost scale.
    pub(crate) fn tail_cost_ns(&self, meta: &SampleMeta) -> u64 {
        self.tail.cost_ns(meta)
    }

    /// Resident memory: one per-source access state + materialized
    /// payloads (before the pop-time tail; a pending entry holds none) +
    /// per-worker contexts.
    pub fn memory_bytes(&self) -> u64 {
        let buffer: u64 = self
            .buffer
            .iter()
            .map(|entry| match entry {
                Buffered::Ready(s) => s.payload.len() as u64,
                Buffered::Pending { .. } => 0,
            })
            .sum();
        self.spec.access_state.total() + buffer + u64::from(self.config.workers) * WORKER_CTX_BYTES
    }

    /// Snapshot for differential checkpointing.
    pub fn checkpoint(&self, version: u64) -> LoaderCheckpoint {
        LoaderCheckpoint {
            loader_id: self.config.loader_id,
            cursor: self.cursor,
            rng_state: self.rng.state(),
            version,
        }
    }

    /// Restores a loader from a checkpoint (buffer starts empty; the
    /// fault-tolerance layer replays plans from `checkpoint.version`).
    pub fn restore(spec: SourceSpec, config: LoaderConfig, checkpoint: &LoaderCheckpoint) -> Self {
        let mut loader = Self::synthetic(spec, config, 0);
        loader.cursor = checkpoint.cursor;
        loader.rng = SimRng::from_state(checkpoint.rng_state);
        loader
    }
}

/// Reads the row at file ordinal `ordinal` through the loader's open
/// reader: `(text_tokens, image_patches, payload)`, or `None` past the
/// last row. The payload is a zero-copy [`bytes::Bytes`] slice of the
/// decoded row-group buffer — the storage → loader hop moves no bytes —
/// and a row of the group that is already resident costs no I/O.
fn read_stored_row(
    reader: &mut ColumnarReader<Arc<MemStore>>,
    ordinal: u64,
) -> Result<Option<(u32, u32, bytes::Bytes)>, StorageError> {
    if ordinal >= reader.total_rows() {
        return Ok(None);
    }
    // Locate the row group containing `ordinal`.
    let mut remaining = ordinal;
    let mut group = 0usize;
    for (g, rg) in reader.footer().row_groups.iter().enumerate() {
        if remaining < rg.rows {
            group = g;
            break;
        }
        remaining -= rg.rows;
    }
    let column = |name| reader.schema().index_of(name).expect("sample schema");
    let (text, patches, image) = (
        column("text_tokens"),
        column("img_patches"),
        column("image"),
    );
    let row = &reader.read_group(group)?[remaining as usize];
    Ok(Some((
        row[text].as_i64().unwrap_or(0) as u32,
        row[patches].as_i64().unwrap_or(0) as u32,
        row[image].as_shared_bytes().unwrap_or_default(),
    )))
}

#[cfg(test)]
mod tests {
    use super::*;
    use msd_data::catalog::{coyo700m_like, navit_like};
    use msd_data::gen::materialize_source;
    use msd_data::Modality;

    fn spec() -> SourceSpec {
        let mut rng = SimRng::seed(11);
        coyo700m_like(&mut rng).sources()[0].clone()
    }

    #[test]
    fn refill_fills_buffer_and_costs_time() {
        let mut l = SourceLoader::synthetic(spec(), LoaderConfig::solo(0), 42);
        let spent = l.refill(64).unwrap();
        assert_eq!(l.buffered(), 64);
        assert!(spent > 0);
        assert!(l.transform_ns_total >= spent); // Workers amortize.
    }

    #[test]
    fn worker_parallelism_amortizes_cost() {
        let cfg1 = LoaderConfig {
            workers: 1,
            ..LoaderConfig::solo(0)
        };
        let cfg4 = LoaderConfig {
            workers: 4,
            ..LoaderConfig::solo(0)
        };
        let mut l1 = SourceLoader::synthetic(spec(), cfg1, 42);
        let mut l4 = SourceLoader::synthetic(spec(), cfg4, 42);
        let t1 = l1.refill(64).unwrap();
        let t4 = l4.refill(64).unwrap();
        let ratio = t1 as f64 / t4 as f64;
        assert!((3.5..4.5).contains(&ratio), "ratio = {ratio}");
    }

    #[test]
    fn summary_reflects_buffer() {
        let mut l = SourceLoader::synthetic(spec(), LoaderConfig::solo(3), 1);
        l.refill(10).unwrap();
        let s = l.summary();
        assert_eq!(s.loader_id, 3);
        assert_eq!(s.len(), 10);
        assert!(s.mean_transform_ns > 0.0);
        // Ids are unique.
        let mut ids: Vec<u64> = s.samples.iter().map(|m| m.sample_id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 10);
    }

    #[test]
    fn summaries_share_one_table_and_equal_each_loaders_own_summary() {
        let mut loaders: Vec<SourceLoader> = (0..3)
            .map(|id| SourceLoader::synthetic(spec(), LoaderConfig::solo(id), u64::from(id)))
            .collect();
        loaders[0].refill(5).unwrap();
        loaders[2].refill(3).unwrap(); // Loader 1 stays empty.
        let summaries = SourceLoader::summaries(&loaders);
        assert_eq!(summaries.len(), 3);
        for (summary, loader) in summaries.iter().zip(&loaders) {
            assert_eq!(*summary, loader.summary());
            assert!(summary.samples.shares_table(&summaries[0].samples));
        }
        assert_eq!(
            summaries.iter().map(BufferSummary::len).collect::<Vec<_>>(),
            [5, 0, 3]
        );
        assert!(SourceLoader::summaries(&[]).is_empty());
    }

    #[test]
    fn pop_removes_exactly_named_samples() {
        let mut l = SourceLoader::synthetic(spec(), LoaderConfig::solo(0), 1);
        l.refill(8).unwrap();
        let ids: Vec<u64> = l.summary().samples[2..5]
            .iter()
            .map(|m| m.sample_id)
            .collect();
        let popped = l.pop(&ids);
        assert_eq!(popped.len(), 3);
        assert_eq!(l.buffered(), 5);
        // Idempotent on re-pop.
        assert!(l.pop(&ids).is_empty());

        // Directive order out — here the reverse of buffer order — with
        // unknown, already-popped and repeated ids skipped, and the
        // survivors left in their original order.
        let left: Vec<u64> = l.summary().samples.iter().map(|m| m.sample_id).collect();
        let directive = [
            left[4],
            u64::MAX,
            left[2],
            ids[0],
            left[4],
            left[0],
            left[2],
        ];
        let popped: Vec<u64> = l.pop(&directive).iter().map(|s| s.meta.sample_id).collect();
        assert_eq!(popped, [left[4], left[2], left[0]]);
        let rest: Vec<u64> = l.summary().samples.iter().map(|m| m.sample_id).collect();
        assert_eq!(rest, [left[1], left[3]]);
        assert!(l.pop(&directive).is_empty());
        assert!(l.pop(&[]).is_empty());
        assert_eq!(l.buffered(), 2);

        // A front run in buffer order followed by a scrambled remainder.
        l.refill(8).unwrap();
        let b: Vec<u64> = l.summary().samples.iter().map(|m| m.sample_id).collect();
        let popped: Vec<u64> = l
            .pop(&[b[0], b[1], b[5], b[3], b[1]])
            .iter()
            .map(|s| s.meta.sample_id)
            .collect();
        assert_eq!(popped, [b[0], b[1], b[5], b[3]]);
        let rest: Vec<u64> = l.summary().samples.iter().map(|m| m.sample_id).collect();
        assert_eq!(rest, [b[2], b[4], b[6], b[7]]);
    }

    #[test]
    fn scratch_stops_growing_and_payloads_are_exact_sized() {
        // coyo's source 0 is an image source: decode → crop → flip →
        // tokenize, i.e. two 12x intermediates per sample. The buffer
        // holds raw bytes, so all of it runs at pop.
        let mut l = SourceLoader::synthetic(spec(), LoaderConfig::solo(0), 42);
        l.refill(64).unwrap();
        assert_eq!(l.scratch.capacity(), 0, "refill ran the decode");
        let mut high_water = None;
        for _ in 0..8 {
            let ids: Vec<u64> = l.summary().samples.iter().map(|m| m.sample_id).collect();
            for sample in l.pop(&ids) {
                let len = sample.payload.len();
                let backing = sample.payload.try_into_mut().expect("sole view");
                assert_eq!((backing.len(), backing.capacity()), (len, len));
            }
            // Raw payloads are capped at 8 KB, so the decode output — the
            // largest intermediate — at 96 KB; a grown Vec at most doubles.
            let grown = l.scratch.capacity();
            assert!((1..=2 * 12 * 8192).contains(&grown), "{grown}");
            assert_eq!(*high_water.get_or_insert(grown), grown);
            l.refill(64).unwrap();
        }
    }

    /// Bytes of the materialized payloads a loader buffers.
    fn materialized_bytes(l: &SourceLoader) -> u64 {
        l.buffer
            .iter()
            .map(|entry| match entry {
                Buffered::Ready(s) => s.payload.len() as u64,
                Buffered::Pending { .. } => 0,
            })
            .sum()
    }

    /// The ids of a summary, in order.
    fn ids(summary: &BufferSummary) -> Vec<u64> {
        summary.samples.iter().map(|m| m.sample_id).collect()
    }

    #[test]
    fn a_buffered_entry_is_no_larger_than_a_sample_and_its_tag() {
        assert!(std::mem::size_of::<Buffered>() <= 64);
    }

    #[test]
    fn pending_summary_rows_equal_their_materialized_metadata() {
        let catalog = navit_like(&mut SimRng::seed(3));
        for modality in Modality::ALL {
            let spec = catalog
                .sources()
                .iter()
                .find(|s| s.modality == modality)
                .expect("navit_like has every modality");
            let mut l = SourceLoader::synthetic(spec.clone(), LoaderConfig::solo(0), 6);
            l.refill(8).unwrap();
            assert_eq!(l.pending, 8);
            let pending = l.summary();
            assert_eq!(l.materialize(usize::MAX), 8);
            assert_eq!(l.pending, 0);
            assert_eq!(l.summary(), pending, "{modality:?}");
            let popped = l.pop(&ids(&pending));
            let metas: Vec<SampleMeta> = popped.iter().map(|s| s.meta).collect();
            assert_eq!(metas, *pending.samples, "{modality:?}");
        }
    }

    #[test]
    fn summary_metas_are_the_popped_metas() {
        let catalog = navit_like(&mut SimRng::seed(3));
        for modality in [
            Modality::Image,
            Modality::Video,
            Modality::Audio,
            Modality::Text,
        ] {
            let spec = catalog
                .sources()
                .iter()
                .find(|s| s.modality == modality)
                .expect("navit_like has every modality")
                .clone();
            let mk = |shard| LoaderConfig {
                shard,
                shards: 2,
                loader_id: shard,
                ..LoaderConfig::solo(shard)
            };
            // The same buffer twice: materialized at refill (eager), and
            // left pending but for two samples ahead of the pops (lazy),
            // each with a retiring peer's samples adopted behind it.
            let buffered = |eager: bool| {
                let mut l = SourceLoader::synthetic(spec.clone(), mk(0), 5);
                let mut retiring = SourceLoader::synthetic(spec.clone(), mk(1), 5);
                l.refill(12).unwrap();
                retiring.refill(6).unwrap();
                l.materialize(if eager { usize::MAX } else { 2 });
                l.adopt(retiring.drain());
                l
            };
            let (mut eager, mut l) = (buffered(true), buffered(false));
            assert_eq!(l.pending, 10);
            let promised: Window<SampleMeta> = l.summary().samples;
            assert_eq!(eager.summary().samples, promised, "{modality:?}");
            // Only text buffers its samples as they will be delivered.
            let settled: u64 = promised.iter().map(|m| m.raw_bytes).sum();
            assert_eq!(
                settled == materialized_bytes(&eager),
                modality == Modality::Text,
                "{modality:?}"
            );

            // A front run, then out of order (adopted samples too), then
            // whatever is left.
            let ids: Vec<u64> = promised.iter().map(|m| m.sample_id).collect();
            let scrambled = [ids[14], ids[7], ids[4], ids[16]];
            let mut popped = Vec::new();
            for directive in [&ids[..3], &scrambled, &ids] {
                let want = eager.pop(directive);
                let got = l.pop(directive);
                assert_eq!(got, want, "{modality:?}");
                assert_eq!(l.summary(), eager.summary(), "{modality:?}");
                popped.extend(got);
            }
            assert_eq!(popped.len(), promised.len());
            for sample in &popped {
                let want = promised
                    .iter()
                    .find(|m| m.sample_id == sample.meta.sample_id);
                assert_eq!(Some(&sample.meta), want, "{modality:?}");
                assert_eq!(sample.meta.raw_bytes, sample.payload.len() as u64);
            }
        }
    }

    #[test]
    fn taken_samples_settle_at_the_constructor_to_the_popped_ones() {
        let catalog = navit_like(&mut SimRng::seed(3));
        let mut tails = crate::constructor::TransformTails::default();
        for modality in Modality::ALL {
            let spec = catalog
                .sources()
                .iter()
                .find(|s| s.modality == modality)
                .expect("navit_like has every modality");
            let mut popping = SourceLoader::synthetic(spec.clone(), LoaderConfig::solo(0), 4);
            let mut taking = SourceLoader::synthetic(spec.clone(), LoaderConfig::solo(0), 4);
            popping.refill(6).unwrap();
            taking.refill(6).unwrap();
            let ids: Vec<u64> = popping
                .summary()
                .samples
                .iter()
                .map(|m| m.sample_id)
                .collect();
            let mut taken = Vec::new();
            taking.take_into(&ids, &mut taken);
            let popped = popping.pop(&ids);
            assert_eq!(taken.len(), popped.len());
            for (mut sample, want) in taken.into_iter().zip(popped) {
                tails.settle(&mut sample);
                assert_eq!(sample, want, "{modality:?}");
            }
            assert_eq!(taking.summary(), popping.summary());
        }
    }

    #[test]
    fn shards_interleave_ordinals() {
        let spec = spec();
        let mk = |shard| LoaderConfig {
            shard,
            shards: 2,
            loader_id: shard,
            ..LoaderConfig::solo(shard)
        };
        let mut a = SourceLoader::synthetic(spec.clone(), mk(0), 7);
        let mut b = SourceLoader::synthetic(spec, mk(1), 7);
        a.refill(4).unwrap();
        b.refill(4).unwrap();
        let ids_a: Vec<u64> = a.summary().samples.iter().map(|m| m.sample_id).collect();
        let ids_b: Vec<u64> = b.summary().samples.iter().map(|m| m.sample_id).collect();
        assert!(ids_a.iter().all(|id| !ids_b.contains(id)));
    }

    #[test]
    fn checkpoint_restore_resumes_same_stream() {
        let mut l = SourceLoader::synthetic(spec(), LoaderConfig::solo(0), 99);
        l.refill(5).unwrap();
        let ckpt = l.checkpoint(1);
        // Continue the original.
        l.refill(10).unwrap();
        let original: Vec<u64> = l.summary().samples[5..]
            .iter()
            .map(|m| m.sample_id)
            .collect();
        // Restore a fresh loader from the checkpoint and produce the same.
        let mut r = SourceLoader::restore(spec(), LoaderConfig::solo(0), &ckpt);
        r.refill(5).unwrap();
        let replayed: Vec<u64> = r.summary().samples.iter().map(|m| m.sample_id).collect();
        assert_eq!(original, replayed);
        // Metadata matches too (deterministic RNG replay).
        let orig_meta: Vec<u32> = l.summary().samples[5..]
            .iter()
            .map(|m| m.text_tokens)
            .collect();
        let repl_meta: Vec<u32> = r.summary().samples.iter().map(|m| m.text_tokens).collect();
        assert_eq!(orig_meta, repl_meta);
    }

    #[test]
    fn replay_directives_drops_consumed_samples() {
        // Checkpoint at cursor 8, then a crash window: refill produces
        // ordinals 8..16 and a plan pops three of the *new* ones before
        // the loader dies.
        let mut l = SourceLoader::synthetic(spec(), LoaderConfig::solo(0), 77);
        l.refill(8).unwrap();
        let ckpt = l.checkpoint(1);
        l.refill(16).unwrap();
        let summary = l.summary();
        let consumed: Vec<u64> = summary.samples[summary.len() - 3..]
            .iter()
            .map(|m| m.sample_id)
            .collect();
        l.pop(&consumed);

        // Restore from the checkpoint and replay the crash-window
        // directives: the consumed ids must never reappear.
        let mut r = SourceLoader::restore(spec(), LoaderConfig::solo(0), &ckpt);
        let dropped = r.replay_directives(&consumed);
        assert_eq!(dropped, consumed.len());
        // Replay admits metadata: no discarded sample was materialized.
        let h = r.health();
        assert_eq!(h.samples_produced, 8);
        assert_eq!((h.buffered, h.samples_materialized), (5, 0));
        r.refill(64).unwrap();
        let visible: Vec<u64> = r.summary().samples.iter().map(|m| m.sample_id).collect();
        for id in &consumed {
            assert!(!visible.contains(id), "consumed sample {id} resurfaced");
        }
        assert_eq!(r.health().samples_materialized, 0);
        assert_eq!(r.pop(&visible[..4]).len(), 4);
        assert_eq!(r.health().samples_materialized, 4);
        // Directives for other loaders are ignored.
        let mut other = SourceLoader::synthetic(spec(), LoaderConfig::solo(0), 77);
        assert_eq!(other.replay_directives(&[u64::MAX]), 0);
    }

    #[test]
    fn memory_model_components() {
        let cfg = LoaderConfig {
            workers: 3,
            ..LoaderConfig::solo(0)
        };
        let mut l = SourceLoader::synthetic(spec(), cfg, 1);
        let empty = l.memory_bytes();
        assert!(empty >= spec().access_state.total() + 3 * WORKER_CTX_BYTES);
        // Admitted samples hold no payload; materialized ones count theirs.
        l.refill(32).unwrap();
        assert_eq!(l.memory_bytes(), empty);
        assert_eq!(l.materialize(5), 5);
        let five = materialized_bytes(&l);
        assert!(five > 0);
        assert_eq!(l.memory_bytes(), empty + five);
    }

    #[test]
    fn the_lead_is_what_the_last_pop_took() {
        let mut l = SourceLoader::synthetic(spec(), LoaderConfig::solo(0), 2);
        l.refill(16).unwrap();
        assert_eq!(l.behind(), 0, "no pop yet, no lead");
        let summary = l.summary();
        let first = ids(&summary);
        assert_eq!(l.pop(&first[..5]).len(), 5);
        assert_eq!(l.behind(), 5);
        assert_eq!(l.materialize(2), 2);
        assert_eq!(l.behind(), 3);
        // Materialized oldest first: the front of the buffer.
        assert!(l.buffer.iter().take(2).all(|e| !e.is_pending()));
        assert!(l.buffer.iter().skip(2).all(Buffered::is_pending));
        assert_eq!(l.materialize(3), 3);
        assert_eq!(l.behind(), 0);
        // A larger pop raises the lead, but never past what is pending.
        let rest = ids(&l.summary());
        assert_eq!(l.pop(&rest[..8]).len(), 8);
        assert_eq!(l.behind(), 3);
        assert_eq!(l.pending, 3);
    }

    #[test]
    fn drain_then_adopt_hands_off_every_sample_once() {
        let mk = |shard, loader_id| LoaderConfig {
            shard,
            shards: 2,
            loader_id,
            ..LoaderConfig::solo(loader_id)
        };
        // The survivor's own samples pending (lazy) or materialized at
        // refill (eager); the retiring loader's partly materialized.
        let hand_off = |eager: bool| {
            let mut retiring = SourceLoader::synthetic(spec(), mk(1, 1), 7);
            let mut survivor = SourceLoader::synthetic(spec(), mk(0, 0), 7);
            retiring.refill(12).unwrap();
            retiring.materialize(5);
            survivor.refill(4).unwrap();
            if eager {
                survivor.materialize(usize::MAX);
            }
            let handed = ids(&retiring.summary());
            let drained = retiring.drain();
            assert_eq!(drained.len(), 12);
            assert_eq!((retiring.buffered(), retiring.pending), (0, 0));
            assert!(retiring.drain().is_empty(), "drain is idempotent");
            survivor.adopt(drained);
            assert_eq!(survivor.buffered(), 16);
            (survivor, handed)
        };
        let (mut eager, _) = hand_off(true);
        let (mut survivor, handed) = hand_off(false);
        assert_eq!(survivor.pending, 4);
        // Adopted samples are now plannable under the survivor's id, in
        // the one admission order: behind the survivor's pending samples.
        let visible = ids(&survivor.summary());
        assert_eq!(visible[4..], handed[..]);
        assert_eq!(survivor.summary(), eager.summary());
        // And poppable exactly like native samples, with the same bytes.
        let popped = survivor.pop(&handed);
        assert_eq!(popped.len(), handed.len());
        assert_eq!(popped, eager.pop(&handed));
        assert!(survivor.pop(&handed).is_empty());
        assert_eq!(survivor.pop(&visible[..4]), eager.pop(&visible[..4]));
    }

    #[test]
    fn health_reports_occupancy() {
        let mut l = SourceLoader::synthetic(spec(), LoaderConfig::solo(3), 1);
        let h0 = l.health();
        assert_eq!(h0.buffered, 0);
        l.refill(8).unwrap();
        let h = l.health();
        assert_eq!(h.loader_id, 3);
        assert_eq!(h.source, spec().id);
        assert_eq!(h.buffered, 8);
        assert_eq!(h.samples_produced, 8);
        assert_eq!(h.samples_materialized, 0);
        assert!(h.transform_ns > 0);
    }

    #[test]
    fn stored_mode_reads_real_rows() {
        let store = Arc::new(MemStore::new());
        let mut rng = SimRng::seed(5);
        let spec = spec();
        let manifest = materialize_source(store.as_ref(), "data", &spec, 50, &mut rng).unwrap();
        let mut l = SourceLoader::stored(spec, LoaderConfig::solo(0), store, manifest.path, 1);
        l.refill(20).unwrap();
        assert_eq!(l.buffered(), 20);
        assert!(l.io_ns_total > 0);
        // Exhaustion stops cleanly at the file's row count.
        l.pop(
            &l.summary()
                .samples
                .iter()
                .map(|m| m.sample_id)
                .collect::<Vec<_>>(),
        );
        let mut l2 = l;
        l2.refill(1000).unwrap();
        assert_eq!(l2.buffered() as u64 + 20, 50);
    }

    #[test]
    fn stored_rows_of_one_group_share_one_open_and_one_read() {
        let store = Arc::new(MemStore::new());
        let mut rng = SimRng::seed(5);
        let spec = spec();
        let manifest = materialize_source(store.as_ref(), "data", &spec, 50, &mut rng).unwrap();
        // What one open plus one read of the first row group costs.
        let mut reference = ColumnarReader::open(store.as_ref(), &manifest.path).unwrap();
        let group_rows = reference.read_group(0).unwrap().len();
        assert!(
            group_rows >= 8,
            "fixture: first group holds {group_rows} rows"
        );
        let one_open_one_read = reference.io_ns();

        let mut l = SourceLoader::stored(spec, LoaderConfig::solo(0), store, manifest.path, 1);
        l.refill(group_rows).unwrap();
        assert_eq!(l.io_ns_total, one_open_one_read);
        // The image head is empty, so a drained sample keeps its stored
        // bytes: every payload is still a slice of the one decoded block.
        let rows = l.drain();
        assert_eq!(rows.len(), group_rows);
        for row in &rows {
            assert!(bytes::Bytes::ptr_eq(&rows[0].payload, &row.payload));
        }
    }
}
