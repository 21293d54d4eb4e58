//! The inline replica: the workload's inputs stepped on one thread through
//! the layers' public functions — `SourceLoader::{refill, summary, pop}`,
//! `PipelineCore::{synthesize, assemble}` and, on the serialising path,
//! `codec::{encode_batch_into, decode_batch_shared}` — in the order the
//! threaded runtime drives them. It is the oracle's reference (same seed,
//! same batches) and, with a recorder, the per-layer cost breakdown: one
//! span and one allocator delta around each call.

use std::collections::HashMap;
use std::time::Instant;

use bytes::Bytes;
use msd_core::buffer::BufferInfo;
use msd_core::codec::{decode_batch_shared, encode_batch_into, encoded_batch_len};
use msd_core::constructor::{ConstructedBatch, DataConstructor};
use msd_core::loader::SourceLoader;
use msd_core::system::core::PipelineCore;
use msd_data::Sample;

use crate::alloc::{self, AllocSnap};
use crate::trace::Recorder;
use crate::workload::Inputs;

/// Allocator calls and bytes attributed to one layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct Allocs {
    /// Allocator calls.
    pub calls: u64,
    /// Bytes requested.
    pub bytes: u64,
}

impl Allocs {
    fn add(&mut self, before: AllocSnap) {
        let now = alloc::snapshot();
        self.calls += now.calls - before.calls;
        self.bytes += now.bytes - before.bytes;
    }
}

/// What the replica adds up besides its spans.
#[derive(Debug, Clone, Default)]
pub struct ReplicaTotals {
    /// Steps run.
    pub steps: u64,
    /// Samples delivered in those steps.
    pub samples: u64,
    /// Batches delivered in those steps (one per bucket per step).
    pub batches: u64,
    /// Allocations inside `refill` + `pop`.
    pub loader_allocs: Allocs,
    /// Allocations inside `assemble`.
    pub constructor_allocs: Allocs,
    /// Allocations inside `encode_batch_into` + `decode_batch_shared`.
    pub codec_allocs: Allocs,
    /// Planner-reported balance time (`PhaseBreakdown::balance_api_ns`).
    pub balance_ns: u64,
    /// Per step: heaviest bucket's cost over the mean bucket cost.
    pub bucket_imbalance_sum: f64,
    /// Tokens placed in packed sequences.
    pub packed_tokens: u64,
    /// Capacity of those sequences (`max_seq_len` each).
    pub packed_capacity: u64,
    /// Payload bytes of the delivered batches.
    pub payload_bytes: u64,
    /// Encoded bytes of the delivered batches (serialising path).
    pub encoded_bytes: u64,
    /// Wall time of each step up to and including `assemble`, µs (the
    /// codec round trip has its own metrics and no counterpart in
    /// `ThreadedPipeline::step`, which this is compared with).
    pub step_us: Vec<f64>,
    /// Resident bytes the loaders report for themselves after the last step.
    pub loader_mem_bytes: u64,
}

/// The single-threaded pipeline.
pub struct Replica {
    core: PipelineCore,
    loaders: Vec<SourceLoader>,
    constructors: Vec<DataConstructor>,
    refill_target: usize,
    /// Encode and decode every batch, as the TCP path does.
    pub serialize: bool,
    /// Totals of the steps run so far (reset it to start a fresh count).
    pub totals: ReplicaTotals,
}

impl Replica {
    /// Builds the replica from the same inputs the threaded pipeline gets.
    pub fn new(inputs: Inputs, refill_target: usize) -> Self {
        let seed = inputs.pipeline_seed;
        Replica {
            core: PipelineCore::new(inputs.planner),
            loaders: inputs
                .sources
                .into_iter()
                .map(|(spec, config)| SourceLoader::synthetic(spec, config, seed))
                .collect(),
            constructors: inputs.constructors,
            refill_target,
            serialize: false,
            totals: ReplicaTotals::default(),
        }
    }

    /// One step: refill, gather, plan, pop, assemble — and, when
    /// `serialize` is set, a codec round trip of every batch — with a span
    /// (tagged `step`) and an allocator delta around each call into a
    /// layer. Returns the batches by bucket; the oracle digests them. With
    /// [`Recorder::off`] the spans cost nothing and only the totals add up.
    pub fn step(&mut self, rec: &mut Recorder, step: u64) -> Vec<ConstructedBatch> {
        let started = Instant::now();
        let totals = &mut self.totals;
        let (loaders, core) = (&mut self.loaders, &mut self.core);
        let (constructors, target) = (&self.constructors, self.refill_target);
        let serialize = self.serialize;
        rec.reserve(2 * loaders.len() + 16);
        let batches = rec.span("inline.step", step, |rec| {
            for l in loaders.iter_mut() {
                let before = alloc::snapshot();
                rec.span("loader.refill", step, |_| l.refill(target))
                    .expect("synthetic refill cannot fail");
                totals.loader_allocs.add(before);
            }
            let info = rec.span("planner.gather", step, |_| {
                BufferInfo::new(loaders.iter().map(SourceLoader::summary).collect())
            });
            let outcome = rec
                .span("planner.synthesize", step, |_| core.synthesize(&info))
                .expect("plan from full buffers");
            totals.balance_ns += outcome.phases.balance_api_ns;
            let plan = outcome.plan;
            let costs = plan.bucket_costs();
            let mean = costs.iter().sum::<f64>() / costs.len().max(1) as f64;
            if mean > 0.0 {
                totals.bucket_imbalance_sum += costs.iter().copied().fold(0.0, f64::max) / mean;
            }
            let mut popped: HashMap<u64, Sample> = HashMap::new();
            for l in loaders.iter_mut() {
                if let Some(ids) = plan.directives.get(&l.id()) {
                    let before = alloc::snapshot();
                    let samples = rec.span("loader.pop", step, |_| l.pop(ids));
                    totals.loader_allocs.add(before);
                    popped.extend(samples.into_iter().map(|s| (s.meta.sample_id, s)));
                }
            }
            let before = alloc::snapshot();
            let batches = rec.span("constructor.assemble", step, |_| {
                PipelineCore::assemble(constructors, &plan, &popped)
            });
            totals.constructor_allocs.add(before);
            totals.step_us.push(started.elapsed().as_secs_f64() * 1e6);
            for batch in &batches {
                totals.batches += 1;
                for mb in &batch.microbatches {
                    totals.samples += mb.payloads.len() as u64;
                    totals.payload_bytes += mb.payload_bytes;
                    totals.packed_tokens += mb.sequences.iter().map(|s| s.tokens).sum::<u64>();
                    totals.packed_capacity +=
                        mb.sequences.len() as u64 * constructors[0].max_seq_len;
                }
                if serialize {
                    let before = alloc::snapshot();
                    let mut buf = Vec::with_capacity(encoded_batch_len(batch));
                    rec.span("codec.encode", step, |_| encode_batch_into(batch, &mut buf));
                    totals.encoded_bytes += buf.len() as u64;
                    let wire = Bytes::from(buf);
                    let decoded = rec.span("codec.decode", step, |_| decode_batch_shared(&wire));
                    totals.codec_allocs.add(before);
                    assert!(
                        decoded.is_ok_and(|d| d == *batch),
                        "codec round trip changed a batch"
                    );
                }
            }
            batches
        });
        totals.steps += 1;
        totals.loader_mem_bytes = self.loaders.iter().map(SourceLoader::memory_bytes).sum();
        batches
    }
}
