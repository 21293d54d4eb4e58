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
//! - [`ReplayPlanner`]: serves plans from the store when they validate
//!   against live buffers, falling back to live planning when they do not
//!   (topology drift, divergent loader state, store gaps).
//! - [`HealthMonitor`]: the "high-level health monitoring" the paper says
//!   the Planner shifts to in Replay Mode — flags loaders whose buffers
//!   stay empty or stall across consecutive steps.

use std::collections::BTreeMap;

use crate::buffer::BufferInfo;
use crate::codec::{self, CodecError};
use crate::dgraph::DGraphError;
use crate::plan::LoadingPlan;
use crate::planner::{PhaseBreakdown, Planner};

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

/// How a step was served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplayOutcome {
    /// Served from the store; online planning skipped.
    Replayed,
    /// Live planning ran.
    Fallback(FallbackReason),
}

/// A loader-health event surfaced by the [`HealthMonitor`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthEvent {
    /// The loader concerned.
    pub loader_id: u32,
    /// Consecutive steps its buffer has been empty.
    pub consecutive_empty: u32,
}

/// Tracks per-loader buffer health across steps — the planner's residual
/// responsibility in Replay Mode.
#[derive(Debug, Clone)]
pub struct HealthMonitor {
    empty_streak: BTreeMap<u32, u32>,
    threshold: u32,
}

impl HealthMonitor {
    /// Flags loaders whose buffer is empty for `threshold` consecutive
    /// observations.
    pub fn new(threshold: u32) -> Self {
        HealthMonitor {
            empty_streak: BTreeMap::new(),
            threshold: threshold.max(1),
        }
    }

    /// Observes one gathered buffer view; returns events for loaders at or
    /// past the empty-streak threshold.
    pub fn observe(&mut self, info: &BufferInfo) -> Vec<HealthEvent> {
        let mut events = Vec::new();
        for s in &info.summaries {
            let streak = self.empty_streak.entry(s.loader_id).or_insert(0);
            if s.is_empty() {
                *streak += 1;
                if *streak >= self.threshold {
                    events.push(HealthEvent {
                        loader_id: s.loader_id,
                        consecutive_empty: *streak,
                    });
                }
            } else {
                *streak = 0;
            }
        }
        events
    }

    /// Current empty streak of a loader (0 when healthy or unseen).
    pub fn streak(&self, loader_id: u32) -> u32 {
        self.empty_streak.get(&loader_id).copied().unwrap_or(0)
    }
}

/// Validates a stored plan against live buffers and the expected bucket
/// count. Shared by [`ReplayPlanner`] and the threaded runtime's replay
/// path so both apply identical admission rules.
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

/// A planner that executes pre-computed schedules, falling back to live
/// planning when a stored plan does not validate.
pub struct ReplayPlanner {
    store: PlanStore,
    live: Planner,
    monitor: HealthMonitor,
    /// Steps served from the store.
    pub replayed: u64,
    /// Steps that fell back to live planning.
    pub fallbacks: u64,
    /// Health events raised so far.
    pub health_events: Vec<HealthEvent>,
}

impl ReplayPlanner {
    /// Wraps a live planner with a plan store. The live planner is the
    /// fallback path and the authority on the current step counter.
    pub fn new(store: PlanStore, live: Planner) -> Self {
        ReplayPlanner {
            store,
            live,
            monitor: HealthMonitor::new(3),
            replayed: 0,
            fallbacks: 0,
            health_events: Vec::new(),
        }
    }

    /// Read access to the wrapped live planner.
    pub fn live(&self) -> &Planner {
        &self.live
    }

    /// Replaces the health monitor (custom thresholds).
    pub fn set_monitor(&mut self, monitor: HealthMonitor) {
        self.monitor = monitor;
    }

    /// Validates a stored plan against the live buffers and topology.
    fn validate(&self, plan: &LoadingPlan, info: &BufferInfo) -> Result<(), FallbackReason> {
        let live_buckets = self
            .live
            .tree()
            .bucket_count(self.live.config.axis, self.live.config.group_size);
        validate_stored(plan, info, live_buckets)
    }

    /// Serves the next step: replayed from the store when the stored plan
    /// validates, otherwise via live planning. Health monitoring runs
    /// either way.
    pub fn next(
        &mut self,
        info: &BufferInfo,
    ) -> Result<(LoadingPlan, PhaseBreakdown, ReplayOutcome), DGraphError> {
        self.health_events.extend(self.monitor.observe(info));
        let step = self.live.step();
        let verdict = match self.store.get(step) {
            None => Err(FallbackReason::Missing),
            Some(plan) => self.validate(plan, info).map(|()| plan.clone()),
        };
        match verdict {
            Ok(stored) => {
                // Replay: no gather fan-in, no strategy compute beyond the
                // validation scan (measured); broadcast still happens.
                let t0 = std::time::Instant::now();
                let plan = self.live.adopt_plan(stored);
                let phases = PhaseBreakdown {
                    gather_ns: 0,
                    compute_ns: t0.elapsed().as_nanos() as u64,
                    broadcast_ns: self.live.broadcast_cost_ns(&plan),
                    cost_api_ns: 0,
                    balance_api_ns: 0,
                };
                self.replayed += 1;
                Ok((plan, phases, ReplayOutcome::Replayed))
            }
            Err(reason) => {
                let (plan, phases) = self.live.generate(info)?;
                self.fallbacks += 1;
                Ok((plan, phases, ReplayOutcome::Fallback(reason)))
            }
        }
    }
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
    fn replay_serves_identical_plans_with_near_zero_compute() {
        let store = recorded_store(4);
        let mut rp = ReplayPlanner::new(store.clone(), planner(7));
        for step in 0..4 {
            let info = info_for_step(step);
            let (plan, phases, outcome) = rp.next(&info).unwrap();
            assert_eq!(outcome, ReplayOutcome::Replayed);
            assert_eq!(&plan, store.get(step).unwrap());
            // Replay skips gather entirely and does only a validation scan.
            assert_eq!(phases.gather_ns, 0);
            assert_eq!(phases.cost_api_ns, 0);
            assert!(phases.broadcast_ns > 0);
        }
        assert_eq!(rp.replayed, 4);
        assert_eq!(rp.fallbacks, 0);
        // The live planner's history advanced exactly as if it had planned.
        assert_eq!(rp.live().history().len(), 4);
    }

    #[test]
    fn missing_step_falls_back_to_live_planning() {
        let mut store = recorded_store(2);
        // Drop step 1 to create a gap.
        let kept = store.get(0).unwrap().clone();
        store = PlanStore::new();
        store.insert(kept);
        let mut rp = ReplayPlanner::new(store, planner(7));
        let (_, _, o0) = rp.next(&info_for_step(0)).unwrap();
        assert_eq!(o0, ReplayOutcome::Replayed);
        let (plan1, phases1, o1) = rp.next(&info_for_step(1)).unwrap();
        assert_eq!(o1, ReplayOutcome::Fallback(FallbackReason::Missing));
        assert_eq!(plan1.all_samples().len(), 32);
        assert!(phases1.gather_ns > 0, "live planning gathers");
        assert_eq!(rp.replayed, 1);
        assert_eq!(rp.fallbacks, 1);
    }

    #[test]
    fn stale_samples_fall_back() {
        let store = recorded_store(1);
        let mut rp = ReplayPlanner::new(store, planner(7));
        // Live buffers diverged: expose a different window than recorded.
        let stale = info_for_step(50);
        let (_, _, outcome) = rp.next(&stale).unwrap();
        assert!(matches!(
            outcome,
            ReplayOutcome::Fallback(FallbackReason::StaleSamples { missing }) if missing > 0
        ));
    }

    #[test]
    fn topology_drift_falls_back() {
        let store = recorded_store(1);
        let mut live = planner(7);
        // Reshard to a different DP size before step 0 executes.
        let mesh = DeviceMesh::pp_dp_cp_tp(1, 2, 1, 1).unwrap();
        live.set_tree(ClientPlaceTree::from_device_mesh(&mesh));
        let mut rp = ReplayPlanner::new(store, live);
        let (plan, _, outcome) = rp.next(&info_for_step(0)).unwrap();
        assert_eq!(
            outcome,
            ReplayOutcome::Fallback(FallbackReason::TopologyDrift { stored: 4, live: 2 })
        );
        assert_eq!(plan.buckets.len(), 2);
    }

    #[test]
    fn replay_then_resume_live_continues_step_sequence() {
        // A 3-step store, then the run continues past it: steps 3+ plan
        // live with correct step numbering.
        let store = recorded_store(3);
        let mut rp = ReplayPlanner::new(store, planner(7));
        for step in 0..5 {
            let (plan, _, outcome) = rp.next(&info_for_step(step)).unwrap();
            assert_eq!(plan.step, step);
            if step < 3 {
                assert_eq!(outcome, ReplayOutcome::Replayed);
            } else {
                assert_eq!(outcome, ReplayOutcome::Fallback(FallbackReason::Missing));
            }
        }
    }

    #[test]
    fn health_monitor_flags_stalled_loaders() {
        let mut hm = HealthMonitor::new(2);
        let empty = BufferInfo::new(vec![BufferSummary {
            loader_id: 9,
            source: SourceId(0),
            samples: vec![],
            mean_transform_ns: 0.0,
        }]);
        assert!(hm.observe(&empty).is_empty()); // Streak 1 < threshold.
        let events = hm.observe(&empty); // Streak 2 = threshold.
        assert_eq!(
            events,
            vec![HealthEvent {
                loader_id: 9,
                consecutive_empty: 2
            }]
        );
        assert_eq!(hm.streak(9), 2);
        // Recovery resets the streak.
        assert!(hm.observe(&info_for_step(0)).is_empty());
        assert_eq!(hm.streak(0), 0);
    }

    #[test]
    fn replay_planner_surfaces_health_events() {
        let store = recorded_store(1);
        let mut rp = ReplayPlanner::new(store, planner(7));
        rp.set_monitor(HealthMonitor::new(1));
        let empty = BufferInfo::new(vec![BufferSummary {
            loader_id: 4,
            source: SourceId(0),
            samples: vec![],
            mean_transform_ns: 0.0,
        }]);
        let _ = rp.next(&empty); // StaleSamples fallback, but health observed.
        assert_eq!(rp.health_events.len(), 1);
        assert_eq!(rp.health_events[0].loader_id, 4);
    }
}
