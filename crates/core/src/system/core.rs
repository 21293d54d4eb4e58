//! The deployment-agnostic pipeline core.
//!
//! Both deployments of the pipeline — the deterministic simulation path
//! ([`crate::system::MegaScaleData`]) and the threaded actor runtime
//! ([`crate::system::runtime::ThreadedPipeline`]) — run the same logical
//! step: synthesize a plan from gathered buffer metadata (serving it from
//! a Replay Mode store when one is installed and validates), then assemble
//! per-bucket batches from the popped samples. [`PipelineCore`] owns that
//! shared logic so the two paths cannot drift; the deployments differ only
//! in *where* loaders and constructors live (inline structs vs. supervised
//! actors) and how samples travel between them.

use std::collections::HashMap;

use msd_data::Sample;

use crate::buffer::BufferInfo;
use crate::constructor::{ConstructedBatch, DataConstructor};
use crate::dgraph::DGraphError;
use crate::plan::LoadingPlan;
use crate::planner::{PhaseBreakdown, Planner, PlannerCheckpoint};
use crate::replay::PlanStore;

/// One synthesized plan plus how it was produced.
#[derive(Debug, Clone)]
pub struct PlanOutcome {
    /// The plan for this step.
    pub plan: LoadingPlan,
    /// Planner phase breakdown (replayed steps only account broadcast).
    pub phases: PhaseBreakdown,
    /// Whether the plan was adopted from the replay store.
    pub replayed: bool,
}

/// Serializable restart snapshot of a [`PipelineCore`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoreCheckpoint {
    /// Planner state (step counter + RNG).
    pub planner: PlannerCheckpoint,
    /// Steps served from the replay store so far.
    pub replayed_steps: u64,
}

/// Plan synthesis + batch assembly shared by every deployment.
pub struct PipelineCore {
    planner: Planner,
    replay: Option<PlanStore>,
    /// Steps served from the replay store (when one is installed).
    pub replayed_steps: u64,
}

impl PipelineCore {
    /// Wraps a planner with no replay store installed.
    pub fn new(planner: Planner) -> Self {
        PipelineCore {
            planner,
            replay: None,
            replayed_steps: 0,
        }
    }

    /// Installs a Replay Mode plan store (paper §9): steps whose stored
    /// plan validates against the live fleet's buffers are adopted without
    /// running the strategy; the rest plan live.
    pub fn set_replay_store(&mut self, store: PlanStore) {
        self.replay = Some(store);
    }

    /// The installed replay store, if any.
    pub fn replay_store(&self) -> Option<&PlanStore> {
        self.replay.as_ref()
    }

    /// Access to the planner.
    pub fn planner(&mut self) -> &mut Planner {
        &mut self.planner
    }

    /// Read-only access to the planner.
    pub fn planner_ref(&self) -> &Planner {
        &self.planner
    }

    /// Synthesizes the plan for the next step from gathered buffer
    /// metadata: replay-store adoption when the stored plan validates,
    /// live strategy execution otherwise.
    pub fn synthesize(&mut self, info: &BufferInfo) -> Result<PlanOutcome, DGraphError> {
        let replayed: Option<LoadingPlan> = self.replay.as_ref().and_then(|store| {
            let step = self.planner.step();
            let stored = store.get(step)?;
            let buckets = self
                .planner
                .tree()
                .bucket_count(self.planner.config.axis, self.planner.config.group_size);
            crate::replay::validate_stored(stored, info, buckets)
                .ok()
                .map(|()| stored.clone())
        });
        match replayed {
            Some(stored) => {
                let plan = self.planner.adopt_plan(stored);
                let phases = PhaseBreakdown {
                    broadcast_ns: self.planner.broadcast_cost_ns(&plan),
                    ..PhaseBreakdown::default()
                };
                self.replayed_steps += 1;
                Ok(PlanOutcome {
                    plan,
                    phases,
                    replayed: true,
                })
            }
            None => {
                let (plan, phases) = self.planner.generate(info)?;
                Ok(PlanOutcome {
                    plan,
                    phases,
                    replayed: false,
                })
            }
        }
    }

    /// Assembles every bucket's batch from the popped samples, using the
    /// deployment-wide bucket → constructor mapping (`bucket % len`).
    pub fn assemble(
        constructors: &[DataConstructor],
        plan: &LoadingPlan,
        samples: &HashMap<u64, Sample>,
    ) -> Vec<ConstructedBatch> {
        plan.buckets
            .iter()
            .map(|bp| {
                let c = &constructors[Self::constructor_index(bp.bucket, constructors.len())];
                c.construct(bp, samples, &plan.broadcast_axes)
            })
            .collect()
    }

    /// Which constructor serves `bucket` in a fleet of `count`.
    pub fn constructor_index(bucket: u32, count: usize) -> usize {
        bucket as usize % count.max(1)
    }

    /// Restart snapshot (step counter, RNG, replay progress).
    pub fn checkpoint(&self) -> CoreCheckpoint {
        CoreCheckpoint {
            planner: self.planner.checkpoint(),
            replayed_steps: self.replayed_steps,
        }
    }

    /// Restores a snapshot taken by [`PipelineCore::checkpoint`].
    pub fn restore(&mut self, cp: &CoreCheckpoint) {
        self.planner.restore_checkpoint(&cp.planner);
        self.replayed_steps = cp.replayed_steps;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msd_data::catalog::coyo700m_like;
    use msd_mesh::{Axis, ClientPlaceTree, DeviceMesh, DistributeAxis};
    use msd_sim::SimRng;

    use crate::buffer::BufferSummary;
    use crate::loader::{LoaderConfig, SourceLoader};
    use crate::planner::{PlannerConfig, Strategy};
    use crate::schedule::MixSchedule;

    fn fixture() -> (PipelineCore, Vec<SourceLoader>) {
        let mut rng = SimRng::seed(5);
        let catalog = coyo700m_like(&mut rng);
        let mesh = DeviceMesh::pp_dp_cp_tp(1, 2, 1, 1).unwrap();
        let tree = ClientPlaceTree::from_device_mesh(&mesh);
        let planner = Planner::new(
            PlannerConfig {
                axis: DistributeAxis::DP,
                group_size: None,
                microbatches: 2,
                broadcast_axes: vec![Axis::TP],
                samples_per_step: 16,
                schedule: MixSchedule::uniform(catalog.len()),
            },
            Strategy::Vanilla,
            tree,
            catalog.sources().iter().map(|s| s.id).collect(),
            7,
        );
        let loaders: Vec<SourceLoader> = catalog
            .sources()
            .iter()
            .enumerate()
            .map(|(i, s)| SourceLoader::synthetic(s.clone(), LoaderConfig::solo(i as u32), 9))
            .collect();
        (PipelineCore::new(planner), loaders)
    }

    fn gather(loaders: &mut [SourceLoader]) -> BufferInfo {
        for l in loaders.iter_mut() {
            l.refill(16).unwrap();
        }
        BufferInfo::new(loaders.iter().map(SourceLoader::summary).collect())
    }

    fn summaries_len(info: &BufferInfo) -> usize {
        info.summaries.iter().map(BufferSummary::len).sum()
    }

    #[test]
    fn live_synthesis_advances_steps() {
        let (mut core, mut loaders) = fixture();
        let info = gather(&mut loaders);
        assert!(summaries_len(&info) > 0);
        let out = core.synthesize(&info).unwrap();
        assert!(!out.replayed);
        assert_eq!(out.plan.step, 0);
        assert_eq!(out.plan.all_samples().len(), 16);
        assert_eq!(core.planner_ref().step(), 1);
        assert_eq!(core.replayed_steps, 0);
    }

    #[test]
    fn replay_store_is_adopted_then_falls_back() {
        // Record two steps, then replay them on an identically seeded core.
        let (mut recorder, mut loaders) = fixture();
        let mut store = PlanStore::new();
        for _ in 0..2 {
            let info = gather(&mut loaders);
            let out = recorder.synthesize(&info).unwrap();
            for id in out.plan.all_samples() {
                for l in loaders.iter_mut() {
                    l.pop(&[id]);
                }
            }
            store.insert(out.plan);
        }

        let (mut replayer, mut loaders2) = fixture();
        replayer.set_replay_store(store);
        for step in 0..2 {
            let info = gather(&mut loaders2);
            let out = replayer.synthesize(&info).unwrap();
            assert!(out.replayed, "step {step} should replay");
            assert_eq!(out.phases.gather_ns, 0);
            assert_eq!(out.phases.compute_ns, 0);
            for id in out.plan.all_samples() {
                for l in loaders2.iter_mut() {
                    l.pop(&[id]);
                }
            }
        }
        assert_eq!(replayer.replayed_steps, 2);
        // Past the store: live planning resumes at the right step.
        let info = gather(&mut loaders2);
        let out = replayer.synthesize(&info).unwrap();
        assert!(!out.replayed);
        assert_eq!(out.plan.step, 2);
    }

    #[test]
    fn checkpoint_restore_resumes_identical_plans() {
        let (mut a, mut loaders) = fixture();
        let info = gather(&mut loaders);
        a.synthesize(&info).unwrap();
        let cp = a.checkpoint();

        // A fresh core restored from the checkpoint plans the same next
        // step the original would.
        let info2 = gather(&mut loaders);
        let pa = a.synthesize(&info2).unwrap();
        let (mut a2, _) = fixture();
        a2.restore(&cp);
        let pb = a2.synthesize(&info2).unwrap();
        assert_eq!(pa.plan, pb.plan);
        assert_eq!(pa.plan.step, 1);
    }
}
