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
//! It follows the threaded runtime's two rules: loaders pop raw and the
//! transform tails run at the constructors (Sec 6.2), and a restarted
//! loader replays the plans since its last checkpoint (Sec 6.1).
//!
//! Each step reports what it did — the plan, the buffer metadata it was
//! planned from, the planner's measured compute, shipped bytes and the
//! transform-cost estimates of loader refills and transform tails. The
//! evaluation benches turn those into projected times with the cost model
//! in `msd_bench::model`. A threaded actor deployment of the same
//! components lives in [`crate::system::runtime`].

use std::collections::{BTreeMap, HashMap};

use msd_data::Catalog;
use msd_mesh::{ClientPlaceTree, DeviceMesh};
use msd_sim::SimRng;

use crate::autoscale::{expand_configs, partition_sources, ClusterResources, PartitionOpts};
use crate::buffer::BufferInfo;
use crate::constructor::{ConstructedBatch, DataConstructor, TransformTails};
use crate::dgraph::DGraphError;
use crate::fault::FailoverReport;
use crate::loader::{LoaderCheckpoint, SourceLoader};
use crate::plan::LoadingPlan;
use crate::planner::{PhaseBreakdown, Planner, PlannerConfig, Strategy};
use crate::system::core::PipelineCore;
use crate::window::Window;

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

/// Plans between two loader checkpoints of a [`MegaScaleData`]: loaders
/// checkpoint less often than the planner plans, and a restart replays
/// the plans since (Sec 6.1's differential checkpointing).
const CHECKPOINT_INTERVAL: usize = 4;

/// Output of one pipeline step.
#[derive(Debug, Clone)]
pub struct StepOutput {
    /// The plan executed.
    pub plan: LoadingPlan,
    /// Planner phase breakdown.
    pub phases: PhaseBreakdown,
    /// Constructed batches, one per bucket.
    pub batches: Vec<ConstructedBatch>,
    /// Settled metadata of every sample the plan consumed (keyed by
    /// sample id): what the constructors assembled.
    pub metas: HashMap<u64, msd_data::SampleMeta>,
    /// The buffer metadata the plan was synthesized from.
    pub info: BufferInfo,
    /// Slowest loader's refill time this step (virtual ns, from the
    /// transform-cost estimate of each sample's whole pipeline).
    pub loader_ns: u64,
    /// Slowest loader's refill time this step charged for its
    /// pipelines' heads alone (virtual ns): its refill if the tails ran
    /// at the constructors instead.
    pub head_ns: u64,
    /// Slowest bucket's transform tails this step (virtual ns, from the
    /// transform-cost estimate).
    pub tail_ns: u64,
    /// Payload bytes shipped loader → constructor this step: every
    /// sample as its pipeline's head left it, before the tail.
    pub ship_bytes: u64,
}

/// The assembled synchronous pipeline.
pub struct MegaScaleData {
    /// Static configuration.
    pub config: MsdConfig,
    loaders: Vec<SourceLoader>,
    core: PipelineCore,
    constructors: Vec<DataConstructor>,
    tails: TransformTails,
    /// Each loader's checkpoint, taken every [`CHECKPOINT_INTERVAL`]
    /// plans.
    checkpoints: Vec<LoaderCheckpoint>,
    /// The directives of every plan issued since `checkpoints`.
    plan_log: Vec<BTreeMap<u32, Window<u64>>>,
}

impl MegaScaleData {
    /// Builds the deployment: runs auto-partitioning, instantiates loaders,
    /// the planner, and one constructor per bucket.
    pub fn new(config: MsdConfig) -> Self {
        let mut rng = SimRng::seed(config.seed);
        let setups = partition_sources(
            &config.catalog,
            config.resources,
            &config.partition,
            &mut rng,
        );
        let configs = expand_configs(&setups, config.buffer_capacity);
        let loaders = configs
            .into_iter()
            .map(|(src, cfg)| {
                let spec = config
                    .catalog
                    .get(src)
                    .expect("setup sources come from the catalog")
                    .clone();
                let seed = config.seed ^ (u64::from(cfg.loader_id) << 16);
                SourceLoader::synthetic(spec, cfg, seed)
            })
            .collect();
        let tree = ClientPlaceTree::from_device_mesh(&config.mesh);
        let sources = config.catalog.sources().iter().map(|s| s.id).collect();
        let planner = Planner::new(
            config.planner.clone(),
            config.strategy.clone(),
            tree,
            sources,
            config.seed ^ 0xBEEF,
        );
        Self::assembled(config, planner, loaders)
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
            .map(|(spec, cfg)| SourceLoader::synthetic(spec, cfg, config.seed))
            .collect();
        Self::assembled(config, planner, loaders)
    }

    /// The deployment around `planner` and `loaders`, one constructor per
    /// bucket, every loader checkpointed at version 0.
    fn assembled(config: MsdConfig, planner: Planner, loaders: Vec<SourceLoader>) -> Self {
        let buckets = planner
            .tree()
            .bucket_count(planner.config.axis, planner.config.group_size);
        let constructors = (0..buckets)
            .map(|_| DataConstructor::new(config.mesh.clone(), config.max_seq_len))
            .collect();
        MegaScaleData {
            config,
            checkpoints: loaders.iter().map(|l| l.checkpoint(0)).collect(),
            loaders,
            core: PipelineCore::new(planner),
            constructors,
            tails: TransformTails::default(),
            plan_log: Vec::new(),
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

    /// Number of loader actors.
    pub fn loader_count(&self) -> usize {
        self.loaders.len()
    }

    /// Access to the planner (strategy inspection, resharding).
    pub fn planner(&mut self) -> &mut Planner {
        self.core.planner()
    }

    /// Restarts loader `idx` as after a crash: restores its last
    /// checkpoint and replays the directives of every plan issued since,
    /// so the samples they delivered never resurface (Sec 6.1). The
    /// threaded runtime restores a loader the same way from the GCS.
    pub fn restart_loader(&mut self, idx: usize) -> FailoverReport {
        let checkpoint = &self.checkpoints[idx];
        let failed = &self.loaders[idx];
        let mut loader =
            SourceLoader::restore(failed.spec().clone(), failed.config().clone(), checkpoint);
        let replayed_samples = self
            .plan_log
            .iter()
            .filter_map(|directives| directives.get(&checkpoint.loader_id))
            .map(|ids| loader.replay_directives(ids))
            .sum();
        self.loaders[idx] = loader;
        FailoverReport {
            loader_id: checkpoint.loader_id,
            restored_version: checkpoint.version,
            replayed_plans: self.plan_log.len(),
            replayed_samples,
        }
    }

    /// Executes one full pipeline step.
    pub fn step(&mut self) -> Result<StepOutput, DGraphError> {
        // Loaders refill their buffers (prefetch).
        let per_loader_target =
            (self.config.planner.samples_per_step / self.loaders.len().max(1)).max(4) * 2;
        let (mut loader_ns, mut head_ns) = (0u64, 0u64);
        for loader in &mut self.loaders {
            let (spent, head) = loader
                .refill_charged(per_loader_target)
                .expect("synthetic/stored refill");
            loader_ns = loader_ns.max(spent);
            head_ns = head_ns.max(head);
        }

        // Planner gathers summaries and synthesizes the plan (via the
        // shared core, so replay adoption works identically to the
        // threaded deployment).
        let info = BufferInfo::new(self.loaders.iter().map(SourceLoader::summary).collect());
        let outcome = self.core.synthesize(&info)?;
        let (plan, phases) = (outcome.plan, outcome.phases);

        // Loaders pop raw, as the runtime's loader groups do: shipped
        // bytes are what crosses the loader → constructor link, each
        // sample before its pipeline's tail.
        let mut popped = HashMap::new();
        let mut tail_costs = HashMap::new();
        let mut taken = Vec::new();
        for loader in &mut self.loaders {
            if let Some(ids) = plan.directives.get(&loader.id()) {
                loader.take_into(ids, &mut taken);
                for s in taken.drain(..) {
                    tail_costs.insert(s.meta.sample_id, loader.tail_cost_ns(&s.meta));
                    popped.insert(s.meta.sample_id, s);
                }
            }
        }
        let ship_bytes = popped.values().map(|s| s.payload.len() as u64).sum();

        // Differential checkpointing (Sec 6.1): log the plan for replay,
        // and checkpoint every loader once the log is a full interval.
        self.plan_log.push(plan.directives.clone());
        if self.plan_log.len() >= CHECKPOINT_INTERVAL {
            self.checkpoints = self
                .loaders
                .iter()
                .map(|l| l.checkpoint(plan.step))
                .collect();
            self.plan_log.clear();
        }

        // The tails run at the constructors (transformation reordering,
        // Sec 6.2): report the slowest bucket's, then settle and assemble.
        let tail_ns = plan
            .buckets
            .iter()
            .map(|bp| {
                let ids = bp.bins.iter().flat_map(|bin| bin.samples.iter());
                ids.filter_map(|id| tail_costs.get(id)).sum::<u64>()
            })
            .max()
            .unwrap_or(0);
        for sample in popped.values_mut() {
            self.tails.settle(sample);
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
            head_ns,
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
        // Image-heavy catalog: loaders ship samples before their tails,
        // so decoded payloads never cross the loader → constructor link.
        let mut msd = MegaScaleData::new(config());
        let out = msd.step().unwrap();
        let settled: u64 = out.metas.values().map(|m| m.raw_bytes).sum();
        assert!(
            out.ship_bytes * 2 < settled,
            "shipped {} vs settled {settled}",
            out.ship_bytes
        );
        // The tails show up as constructor-side work.
        assert!(out.tail_ns > 0);
        // Deliveries still carry decoded payloads, byte for byte what a
        // loader-side tail delivers.
        let payload: u64 = out
            .batches
            .iter()
            .flat_map(|b| &b.microbatches)
            .map(|m| m.payload_bytes)
            .sum();
        assert_eq!(payload, settled);
        assert_eq!(
            payload, 3_145_728,
            "the loader-side pipeline delivered this"
        );
    }

    #[test]
    fn failover_mid_run_preserves_stream() {
        let mut msd = MegaScaleData::new(config());
        for _ in 0..3 {
            msd.step().unwrap();
        }
        // Restart loader 0 from its checkpoint and the plans since.
        let report = msd.restart_loader(0);
        assert!(report.replayed_plans > 0);
        // Pipeline continues.
        let out = msd.step().unwrap();
        assert_eq!(out.plan.all_samples().len(), 64);
    }
}
