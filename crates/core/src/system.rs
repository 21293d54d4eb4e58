//! The assembled MegaScale-Data pipeline.
//!
//! [`MegaScaleData`] wires the synchronous components together — Source
//! Loaders (one actor per source partition from auto-partitioning), the
//! Planner, and per-bucket Data Constructors — and drives the paper's pull
//! workflow (Fig 7):
//!
//! 1. trainer clients request data from their Data Constructor,
//! 2. the constructor triggers fetches from Source Loaders,
//! 3. loaders consult the Planner,
//! 4. the Planner gathers buffer metadata and synthesizes a plan,
//! 5. loaders pop planned samples, constructors assemble and deliver.
//!
//! Each step reports what it did — the plan, the buffer metadata it was
//! planned from, the planner's measured compute, shipped bytes and the
//! transform-cost estimates of loader refills and deferred tails. The
//! evaluation benches turn those into projected times with the cost model
//! in `msd_bench::model`. A threaded actor deployment of the same
//! components lives in [`crate::system::runtime`].

use std::collections::HashMap;

use msd_data::Catalog;
use msd_mesh::{ClientPlaceTree, DeviceMesh};
use msd_sim::SimRng;

use crate::autoscale::{expand_configs, partition_sources, ClusterResources, PartitionOpts};
use crate::buffer::BufferInfo;
use crate::constructor::{ConstructedBatch, DataConstructor};
use crate::dgraph::DGraphError;
use crate::fault::ShadowedLoader;
use crate::plan::LoadingPlan;
use crate::planner::{PhaseBreakdown, Planner, PlannerConfig, Strategy};
use crate::system::core::PipelineCore;

pub mod chaos;
pub mod controller;
pub mod core;
pub mod frontier;
pub mod net;
pub mod runtime;
pub mod server;
pub mod tcp;

/// Top-level configuration for a [`MegaScaleData`] deployment.
#[derive(Debug, Clone)]
pub struct MsdConfig {
    /// The data sources.
    pub catalog: Catalog,
    /// Trainer device mesh.
    pub mesh: DeviceMesh,
    /// Orchestration strategy.
    pub strategy: Strategy,
    /// Planner configuration.
    pub planner: PlannerConfig,
    /// Trainer context length (packing bound).
    pub max_seq_len: u64,
    /// CPU/memory budget for preprocessing.
    pub resources: ClusterResources,
    /// Auto-partitioning knobs.
    pub partition: PartitionOpts,
    /// Loader buffer capacity in samples.
    pub buffer_capacity: usize,
    /// Base RNG seed.
    pub seed: u64,
}

/// Output of one pipeline step.
#[derive(Debug, Clone)]
pub struct StepOutput {
    /// The plan executed.
    pub plan: LoadingPlan,
    /// Planner phase breakdown.
    pub phases: PhaseBreakdown,
    /// Constructed batches, one per bucket.
    pub batches: Vec<ConstructedBatch>,
    /// Metadata of every sample the plan consumed (keyed by sample id).
    pub metas: HashMap<u64, msd_data::SampleMeta>,
    /// The buffer metadata the plan was synthesized from.
    pub info: BufferInfo,
    /// Slowest loader's refill time this step (virtual ns, from the
    /// transform-cost estimate).
    pub loader_ns: u64,
    /// Slowest bucket's deferred transform tail this step (virtual ns,
    /// from the transform-cost estimate; 0 without transformation
    /// reordering).
    pub tail_ns: u64,
    /// Payload bytes shipped loader → constructor this step (what
    /// transformation reordering shrinks).
    pub ship_bytes: u64,
}

/// The assembled synchronous pipeline.
pub struct MegaScaleData {
    /// Static configuration.
    pub config: MsdConfig,
    loaders: Vec<ShadowedLoader>,
    core: PipelineCore,
    constructors: Vec<DataConstructor>,
    transform_reorder: bool,
    /// Working buffers for the constructor-side deferred transform tails.
    tail_scratch: msd_data::TransformScratch,
}

impl MegaScaleData {
    /// Builds the deployment: runs auto-partitioning, instantiates loaders
    /// (with shadows), the planner, and one constructor per bucket.
    pub fn new(config: MsdConfig) -> Self {
        let mut rng = SimRng::seed(config.seed);
        let setups = partition_sources(
            &config.catalog,
            config.resources,
            &config.partition,
            &mut rng,
        );
        let configs = expand_configs(&setups, config.buffer_capacity);
        let loaders: Vec<ShadowedLoader> = configs
            .into_iter()
            .map(|(src, cfg)| {
                let spec = config
                    .catalog
                    .get(src)
                    .expect("setup sources come from the catalog")
                    .clone();
                let seed = config.seed ^ (u64::from(cfg.loader_id) << 16);
                ShadowedLoader::new(spec, cfg, seed, 4)
            })
            .collect();
        let tree = ClientPlaceTree::from_device_mesh(&config.mesh);
        let sources = config.catalog.sources().iter().map(|s| s.id).collect();
        let planner = Planner::new(
            config.planner.clone(),
            config.strategy.clone(),
            tree.clone(),
            sources,
            config.seed ^ 0xBEEF,
        );
        let buckets = tree.bucket_count(config.planner.axis, config.planner.group_size);
        let constructors = (0..buckets)
            .map(|_| DataConstructor::new(config.mesh.clone(), config.max_seq_len))
            .collect();
        MegaScaleData {
            config,
            loaders,
            core: PipelineCore::new(planner),
            constructors,
            transform_reorder: false,
            tail_scratch: msd_data::TransformScratch::default(),
        }
    }

    /// Builds a deployment from explicit loader sources and a pre-built
    /// planner, bypassing auto-partitioning. Loader RNG seeding matches
    /// [`crate::system::runtime::ThreadedPipeline::new`]
    /// — every `SourceLoader` mixes its own id into the shared
    /// `config.seed` — so a threaded pipeline spawned from the same parts
    /// produces the *identical* plan and batch stream. That
    /// deployment-equivalence contract is what
    /// `tests/zero_copy_dataplane.rs` pins down.
    pub fn from_parts(
        config: MsdConfig,
        planner: Planner,
        sources: Vec<(msd_data::SourceSpec, crate::loader::LoaderConfig)>,
    ) -> Self {
        let loaders = sources
            .into_iter()
            .map(|(spec, cfg)| ShadowedLoader::new(spec, cfg, config.seed, 4))
            .collect();
        let buckets = planner
            .tree()
            .bucket_count(planner.config.axis, planner.config.group_size);
        let constructors = (0..buckets)
            .map(|_| DataConstructor::new(config.mesh.clone(), config.max_seq_len))
            .collect();
        MegaScaleData {
            config,
            loaders,
            core: PipelineCore::new(planner),
            constructors,
            transform_reorder: false,
            tail_scratch: msd_data::TransformScratch::default(),
        }
    }

    /// Installs a Replay Mode plan store: recorded steps that validate
    /// against live buffers are adopted without running the strategy.
    pub fn set_replay_store(&mut self, store: crate::replay::PlanStore) {
        self.core.set_replay_store(store);
    }

    /// Steps served from the replay store (when one is installed).
    pub fn replayed_steps(&self) -> u64 {
        self.core.replayed_steps
    }

    /// Enables Sec 6.2's transformation reordering: each loader applies
    /// only the transfer-optimal prefix of its pipeline (raw JPEG stays
    /// encoded, video keeps only keyframes) and the Data Constructor runs
    /// the deferred tail after the pop — shrinking loader → constructor
    /// traffic at the cost of constructor-side CPU.
    pub fn enable_transform_reordering(&mut self) {
        self.transform_reorder = true;
        for l in &mut self.loaders {
            let idx = {
                let loader = l.primary();
                let spec = self
                    .config
                    .catalog
                    .get(loader.source())
                    .expect("loader sources come from the catalog");
                spec.pipeline().min_transfer_index()
            };
            l.primary().set_transform_split(Some(idx));
        }
    }

    /// Whether transformation reordering is active.
    pub fn transform_reordering(&self) -> bool {
        self.transform_reorder
    }

    /// Number of loader actors.
    pub fn loader_count(&self) -> usize {
        self.loaders.len()
    }

    /// Access to the planner (strategy inspection, resharding).
    pub fn planner(&mut self) -> &mut Planner {
        self.core.planner()
    }

    /// Access to a loader (fault-injection hooks in tests).
    pub fn loader(&mut self, idx: usize) -> &mut ShadowedLoader {
        &mut self.loaders[idx]
    }

    /// Executes one full pipeline step.
    pub fn step(&mut self) -> Result<StepOutput, DGraphError> {
        // Loaders refill their buffers (prefetch).
        let per_loader_target =
            (self.config.planner.samples_per_step / self.loaders.len().max(1)).max(4) * 2;
        let mut loader_ns = 0u64;
        for l in &mut self.loaders {
            let spent = l
                .primary()
                .refill(per_loader_target)
                .expect("synthetic/stored refill");
            loader_ns = loader_ns.max(spent);
        }

        // Planner gathers summaries and synthesizes the plan (via the
        // shared core, so replay adoption works identically to the
        // threaded deployment).
        let info = BufferInfo::new(
            self.loaders
                .iter_mut()
                .map(|l| l.primary().summary())
                .collect(),
        );
        let outcome = self.core.synthesize(&info)?;
        let (plan, phases) = (outcome.plan, outcome.phases);

        // Loaders pop planned samples. Shipped bytes are measured here —
        // post-pop, pre-deferred-tail — because this is the payload that
        // actually crosses the loader → constructor link.
        let mut popped = HashMap::new();
        let mut ship_bytes = 0u64;
        let mut tails: HashMap<msd_data::SourceId, msd_data::TransformPipeline> = HashMap::new();
        for l in &mut self.loaders {
            let loader = l.primary();
            if let Some(ids) = plan.directives.get(&loader.id()) {
                for s in loader.pop(ids) {
                    ship_bytes += s.payload.len() as u64;
                    popped.insert(s.meta.sample_id, s);
                }
            }
            if let Some(tail) = loader.deferred_pipeline() {
                tails.entry(loader.source()).or_insert_with(|| tail.clone());
            }
            l.after_plan(&plan);
        }

        // Deferred transforms run at the constructor (transformation
        // reordering, Sec 6.2): report the slowest bucket's tail cost.
        let mut tail_ns = 0u64;
        if self.transform_reorder && !tails.is_empty() {
            let mut per_bucket_tail = vec![0u64; plan.buckets.len()];
            for (b, bp) in plan.buckets.iter().enumerate() {
                for bin in &bp.bins {
                    for id in &bin.samples {
                        if let Some(s) = popped.get_mut(id) {
                            if let Some(tail) = tails.get(&s.meta.source) {
                                per_bucket_tail[b] += tail.cost_ns(&s.meta);
                                tail.apply_with(s, &mut self.tail_scratch);
                            }
                        }
                    }
                }
            }
            tail_ns = per_bucket_tail.into_iter().max().unwrap_or(0);
        }
        let batches = PipelineCore::assemble(&self.constructors, &plan, &popped);
        let metas = popped.iter().map(|(id, s)| (*id, s.meta)).collect();
        Ok(StepOutput {
            plan,
            phases,
            batches,
            metas,
            info,
            loader_ns,
            tail_ns,
            ship_bytes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msd_balance::{BackboneShape, BalanceMethod};
    use msd_data::catalog::coyo700m_like;
    use msd_mesh::{Axis, DistributeAxis};

    use crate::schedule::MixSchedule;

    fn config() -> MsdConfig {
        let mut rng = SimRng::seed(3);
        let catalog = coyo700m_like(&mut rng);
        let n = catalog.len();
        MsdConfig {
            catalog,
            mesh: DeviceMesh::pp_dp_cp_tp(1, 4, 1, 2).unwrap(),
            strategy: Strategy::BackboneBalance {
                method: BalanceMethod::Greedy,
                backbone: BackboneShape {
                    layers: 4,
                    hidden: 256,
                    mlp_ratio: 4.0,
                    heads: 4,
                    vocab: 1000,
                    experts_per_token: 1,
                },
            },
            planner: PlannerConfig {
                axis: DistributeAxis::DP,
                group_size: None,
                microbatches: 2,
                broadcast_axes: vec![Axis::TP],
                samples_per_step: 64,
                schedule: MixSchedule::uniform(n),
            },
            max_seq_len: 8192,
            resources: ClusterResources {
                total_cores: 64,
                total_mem_bytes: 1 << 40,
            },
            partition: PartitionOpts::default(),
            buffer_capacity: 256,
            seed: 42,
        }
    }

    #[test]
    fn pipeline_delivers_batches_end_to_end() {
        let mut msd = MegaScaleData::new(config());
        assert!(msd.loader_count() >= 5); // At least one per source.
        let out = msd.step().unwrap();
        assert_eq!(out.plan.all_samples().len(), 64);
        assert_eq!(out.batches.len(), 4); // DP=4 buckets.
                                          // Every scheduled sample landed in a constructed microbatch.
        let constructed: usize = out
            .batches
            .iter()
            .flat_map(|b| &b.microbatches)
            .flat_map(|m| &m.sequences)
            .map(|s| s.segments.len())
            .sum();
        assert_eq!(constructed, 64);
    }

    #[test]
    fn steps_are_reproducible_across_instances() {
        let mut a = MegaScaleData::new(config());
        let mut b = MegaScaleData::new(config());
        for _ in 0..3 {
            let oa = a.step().unwrap();
            let ob = b.step().unwrap();
            assert_eq!(oa.plan.all_samples(), ob.plan.all_samples());
        }
    }

    #[test]
    fn successive_steps_consume_fresh_samples() {
        let mut msd = MegaScaleData::new(config());
        let s1: std::collections::HashSet<u64> =
            msd.step().unwrap().plan.all_samples().into_iter().collect();
        let s2: std::collections::HashSet<u64> =
            msd.step().unwrap().plan.all_samples().into_iter().collect();
        assert!(s1.is_disjoint(&s2));
    }

    #[test]
    fn transform_reordering_shrinks_shipped_bytes() {
        // Image-heavy catalog: deferring decode past the pop keeps payloads
        // JPEG-sized on the loader → constructor link.
        let mut baseline = MegaScaleData::new(config());
        let mut reordered = MegaScaleData::new(config());
        reordered.enable_transform_reordering();
        assert!(reordered.transform_reordering());

        let b = baseline.step().unwrap();
        let r = reordered.step().unwrap();
        assert_eq!(b.plan.all_samples().len(), r.plan.all_samples().len());
        assert!(
            r.ship_bytes * 2 < b.ship_bytes,
            "reordered {} vs baseline {}",
            r.ship_bytes,
            b.ship_bytes
        );
        // The deferred tail shows up as constructor-side work.
        assert!(r.tail_ns > b.tail_ns);
        // Deliveries still carry decoded payloads: the constructed batches'
        // payload bytes match between the two pipelines.
        let payload = |out: &StepOutput| -> u64 {
            out.batches
                .iter()
                .flat_map(|b| &b.microbatches)
                .map(|m| m.payload_bytes)
                .sum()
        };
        // Same plan → same samples; decoded sizes are deterministic.
        assert_eq!(b.plan.all_samples(), r.plan.all_samples());
        assert_eq!(payload(&b), payload(&r));
    }

    #[test]
    fn failover_mid_run_preserves_stream() {
        let mut msd = MegaScaleData::new(config());
        for _ in 0..3 {
            msd.step().unwrap();
        }
        // Kill loader 0 and promote its shadow from its replay delta.
        msd.loader(0).kill_primary();
        let report = msd
            .loader(0)
            .promote_shadow(crate::fault::FailureSignal::RpcTimeout);
        assert!(report.replayed_plans > 0);
        // Pipeline continues.
        let out = msd.step().unwrap();
        assert_eq!(out.plan.all_samples().len(), 64);
    }
}
