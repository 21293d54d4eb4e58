//! Replay Mode (paper §9, "Future Work"): pre-computed orchestration plans.
//!
//! Many production training runs use *predictable* learning schedules: the
//! mixture weights, topology, and batch geometry of every step are known
//! before launch. For those runs the per-step orchestration plan can be
//! computed offline, checkpointed, and *replayed* at training time —
//! reducing the online Planner's job to plan validation, broadcast, and
//! high-level health monitoring.
//!
//! - [`PlanStore`]: a step-indexed store of [`LoadingPlan`]s, checkpointed
//!   as an `MSDB` frame ([`crate::codec`] kind 15), plus an offline recorder.
//! - [`validate_stored`]: the admission rule for a stored plan — it must
//!   match the live topology and name only buffered samples, otherwise
//!   the step plans live ([`FallbackReason`]).
//!
//! Both deployments adopt stored plans through
//! [`crate::system::core::PipelineCore::synthesize`] (installed with
//! `MegaScaleData::set_replay_store` or `ThreadedPipeline::set_replay_store`).
//! Loader health in the threaded runtime is the controller's concern.

use std::collections::BTreeMap;

use crate::buffer::BufferInfo;
use crate::codec::{self, CodecError};
use crate::dgraph::DGraphError;
use crate::plan::LoadingPlan;
use crate::planner::Planner;

/// A step-indexed store of pre-computed loading plans.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PlanStore {
    plans: BTreeMap<u64, LoadingPlan>,
}

impl PlanStore {
    /// An empty store.
    pub fn new() -> Self {
        PlanStore::default()
    }

    /// Records `steps` plans by running `planner` offline against buffer
    /// views produced by `buffers(step)` — the "decoupled planning" half of
    /// Replay Mode. The planner is consumed: offline planning advances its
    /// RNG and step counter, so reusing it online would double-plan.
    pub fn record(
        mut planner: Planner,
        steps: u64,
        mut buffers: impl FnMut(u64) -> BufferInfo,
    ) -> Result<Self, DGraphError> {
        let mut store = PlanStore::new();
        for step in 0..steps {
            let info = buffers(step);
            let (plan, _) = planner.generate(&info)?;
            store.insert(plan.clone());
            debug_assert_eq!(plan.step, step);
        }
        Ok(store)
    }

    /// Inserts a plan at its own step index (last write wins).
    pub fn insert(&mut self, plan: LoadingPlan) {
        self.plans.insert(plan.step, plan);
    }

    /// The plan for `step`, if present.
    pub fn get(&self, step: u64) -> Option<&LoadingPlan> {
        self.plans.get(&step)
    }

    /// Number of stored plans.
    pub fn len(&self) -> usize {
        self.plans.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.plans.is_empty()
    }

    /// Smallest stored step.
    pub fn first_step(&self) -> Option<u64> {
        self.plans.keys().next().copied()
    }

    /// Largest stored step.
    pub fn last_step(&self) -> Option<u64> {
        self.plans.keys().next_back().copied()
    }

    /// The stored plans, in step order.
    pub fn plans(&self) -> impl Iterator<Item = &LoadingPlan> {
        self.plans.values()
    }

    /// Serializes the store as an `MSDB` frame (the checkpoint artifact).
    pub fn to_bytes(&self) -> Vec<u8> {
        codec::encode_plan_store(self)
    }

    /// Restores a store from its checkpoint frame.
    pub fn from_bytes(data: &[u8]) -> Result<Self, CodecError> {
        codec::decode_plan_store(data)
    }
}

/// Why a stored plan could not be replayed for a step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FallbackReason {
    /// No plan stored for this step.
    Missing,
    /// The stored plan names samples absent from live buffers (loader
    /// divergence, e.g. after an unsynchronized failover).
    StaleSamples {
        /// How many referenced samples were absent.
        missing: usize,
    },
    /// The stored plan's bucket count no longer matches the live topology
    /// (elastic resharding since recording).
    TopologyDrift {
        /// Buckets in the stored plan.
        stored: u32,
        /// Buckets the live topology expects.
        live: u32,
    },
}

/// Validates a stored plan against live buffers and the expected bucket
/// count — the admission rule `PipelineCore::synthesize` applies for every
/// deployment.
pub fn validate_stored(
    plan: &LoadingPlan,
    info: &BufferInfo,
    live_buckets: u32,
) -> Result<(), FallbackReason> {
    if plan.buckets.len() as u32 != live_buckets {
        return Err(FallbackReason::TopologyDrift {
            stored: plan.buckets.len() as u32,
            live: live_buckets,
        });
    }
    let buffered: std::collections::HashSet<u64> =
        info.iter_samples().map(|(_, m)| m.sample_id).collect();
    let mut missing = 0usize;
    for id in plan.all_samples() {
        if !buffered.contains(&id) {
            missing += 1;
        }
    }
    for sub in plan.subplans.values() {
        for id in sub.all_samples() {
            if !buffered.contains(&id) {
                missing += 1;
            }
        }
    }
    if missing > 0 {
        return Err(FallbackReason::StaleSamples { missing });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::BufferSummary;
    use crate::planner::{PlannerConfig, Strategy};
    use crate::schedule::MixSchedule;
    use msd_data::{Modality, SampleMeta, SourceId};
    use msd_mesh::{Axis, ClientPlaceTree, DeviceMesh, DistributeAxis};

    fn info_for_step(step: u64) -> BufferInfo {
        // Deterministic buffers: step s exposes samples [s*64, s*64+128)
        // per loader — overlapping windows, like real prefetch buffers.
        let mk = |loader: u32, src: u32| BufferSummary {
            loader_id: loader,
            source: SourceId(src),
            samples: (step * 64..step * 64 + 128)
                .map(|i| SampleMeta {
                    sample_id: (u64::from(src) << 48) | i,
                    source: SourceId(src),
                    modality: Modality::Image,
                    text_tokens: 16 + (i as u32 * 37) % 256,
                    image_patches: 64 + (i as u32 * 101) % 1024,
                    raw_bytes: 512,
                })
                .collect(),
            mean_transform_ns: 900.0,
        };
        BufferInfo::new(vec![mk(0, 0), mk(1, 1)])
    }

    fn planner(seed: u64) -> Planner {
        let mesh = DeviceMesh::pp_dp_cp_tp(1, 4, 1, 1).unwrap();
        Planner::new(
            PlannerConfig {
                axis: DistributeAxis::DP,
                group_size: None,
                microbatches: 2,
                broadcast_axes: vec![Axis::TP],
                samples_per_step: 32,
                schedule: MixSchedule::uniform(2),
            },
            Strategy::Vanilla,
            ClientPlaceTree::from_device_mesh(&mesh),
            vec![SourceId(0), SourceId(1)],
            seed,
        )
    }

    fn recorded_store(steps: u64) -> PlanStore {
        PlanStore::record(planner(7), steps, info_for_step).unwrap()
    }

    #[test]
    fn record_produces_one_plan_per_step() {
        let store = recorded_store(5);
        assert_eq!(store.len(), 5);
        assert_eq!(store.first_step(), Some(0));
        assert_eq!(store.last_step(), Some(4));
        for step in 0..5 {
            assert_eq!(store.get(step).unwrap().step, step);
        }
    }

    #[test]
    fn bytes_round_trip_preserves_plans() {
        let store = recorded_store(3);
        let restored = PlanStore::from_bytes(&store.to_bytes()).unwrap();
        assert_eq!(store, restored);
    }

    #[test]
    fn stale_samples_fall_back() {
        let store = recorded_store(1);
        // Live buffers diverged: expose a different window than recorded.
        let stale = info_for_step(50);
        assert!(matches!(
            validate_stored(store.get(0).unwrap(), &stale, 4),
            Err(FallbackReason::StaleSamples { missing }) if missing > 0
        ));
        assert_eq!(
            validate_stored(store.get(0).unwrap(), &info_for_step(0), 4),
            Ok(())
        );
    }

    #[test]
    fn topology_drift_falls_back() {
        let store = recorded_store(1);
        // Resharded to DP = 2 since recording.
        assert_eq!(
            validate_stored(store.get(0).unwrap(), &info_for_step(0), 2),
            Err(FallbackReason::TopologyDrift { stored: 4, live: 2 })
        );
    }
}
