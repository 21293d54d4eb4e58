//! Fault tolerance: shadow loaders, differential checkpointing, replay.
//!
//! Sec 6.1: Source Loader failures are detected via RPC timeouts or payload
//! integrity checks; a hot-standby *shadow loader* is promoted instantly.
//! To keep snapshot costs low, loaders checkpoint *less frequently* than
//! the Planner — on failover the shadow restores the last loader snapshot
//! and *replays* the Planner's deterministic plan history to catch up
//! (differential checkpointing).

use msd_data::SourceSpec;

use crate::loader::{LoaderCheckpoint, LoaderConfig, SourceLoader};
use crate::plan::LoadingPlan;

/// How a failure was detected (both paper mechanisms).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureSignal {
    /// The loader stopped answering RPCs within the timeout.
    RpcTimeout,
    /// A payload failed integrity checks (e.g. partial yield without
    /// end-of-stream).
    IntegrityViolation,
}

/// Outcome of a failover.
#[derive(Debug, Clone, PartialEq)]
pub struct FailoverReport {
    /// The failed loader.
    pub loader_id: u32,
    /// Detection mechanism.
    pub signal: FailureSignal,
    /// Snapshot version the shadow restored.
    pub restored_version: u64,
    /// Number of plans replayed to catch up.
    pub replayed_plans: usize,
    /// Samples re-materialized during replay.
    pub replayed_samples: usize,
}

/// A primary loader paired with a hot-standby shadow.
///
/// The shadow holds the source spec and the latest (low-frequency) loader
/// checkpoint; promotion costs one restore plus a deterministic replay.
pub struct ShadowedLoader {
    spec: SourceSpec,
    config: LoaderConfig,
    /// The live primary (None after an unrecovered failure).
    primary: Option<SourceLoader>,
    /// Latest loader snapshot (taken every `snapshot_interval` plans).
    snapshot: LoaderCheckpoint,
    /// Loader snapshot cadence in plans (> planner cadence, per the paper).
    pub snapshot_interval: u64,
    plans_since_snapshot: u64,
}

impl ShadowedLoader {
    /// Wraps a fresh primary with shadow protection.
    pub fn new(spec: SourceSpec, config: LoaderConfig, seed: u64, snapshot_interval: u64) -> Self {
        let primary = SourceLoader::synthetic(spec.clone(), config.clone(), seed);
        let snapshot = primary.checkpoint(0);
        ShadowedLoader {
            spec,
            config,
            primary: Some(primary),
            snapshot,
            snapshot_interval: snapshot_interval.max(1),
            plans_since_snapshot: 0,
        }
    }

    /// Access to the live primary.
    ///
    /// # Panics
    ///
    /// Panics if the loader has failed and was not recovered — callers
    /// must `promote_shadow` first.
    pub fn primary(&mut self) -> &mut SourceLoader {
        self.primary
            .as_mut()
            .expect("loader failed; promote shadow first")
    }

    /// Whether the primary is alive.
    pub fn is_alive(&self) -> bool {
        self.primary.is_some()
    }

    /// The shadow's extra resident memory (one standby actor's access
    /// state; excluded from the paper's Fig 12 measurements, included in
    /// Fig 16e).
    pub fn shadow_memory_bytes(&self) -> u64 {
        self.spec.access_state.total()
    }

    /// Records that one plan was executed; snapshots on the configured
    /// cadence. Returns `true` if a snapshot was taken.
    pub fn after_plan(&mut self, version: u64) -> bool {
        self.plans_since_snapshot += 1;
        if self.plans_since_snapshot >= self.snapshot_interval {
            if let Some(p) = &self.primary {
                self.snapshot = p.checkpoint(version);
                self.plans_since_snapshot = 0;
                return true;
            }
        }
        false
    }

    /// Simulates a primary failure (test/fault-injection hook).
    pub fn kill_primary(&mut self) {
        self.primary = None;
    }

    /// Promotes the shadow: restore the last snapshot, then replay the
    /// planner's history from that version to reconstruct exactly the
    /// buffered/popped state the primary had.
    pub fn promote_shadow(
        &mut self,
        signal: FailureSignal,
        planner_history: &[&LoadingPlan],
    ) -> FailoverReport {
        let mut restored =
            SourceLoader::restore(self.spec.clone(), self.config.clone(), &self.snapshot);
        let mut replayed_plans = 0;
        let mut replayed_samples = 0;
        for plan in planner_history {
            if plan.step < self.snapshot.version {
                continue;
            }
            if let Some(ids) = plan.directives.get(&self.config.loader_id) {
                // Re-materialize everything this plan consumed, then drop it
                // again (it was already delivered downstream).
                restored
                    .refill(restored.buffered() + ids.len())
                    .expect("synthetic refill cannot fail");
                let popped = restored.pop(ids);
                replayed_samples += popped.len();
            }
            replayed_plans += 1;
        }
        let report = FailoverReport {
            loader_id: self.config.loader_id,
            signal,
            restored_version: self.snapshot.version,
            replayed_plans,
            replayed_samples,
        };
        self.primary = Some(restored);
        self.plans_since_snapshot = 0;
        report
    }
}

/// Effective-training-time-ratio (ETTR) model: the fraction of wall-clock
/// time spent making progress given `failures` events with the given
/// per-event recovery latency, over a horizon.
pub fn ettr(horizon_secs: f64, failures: u32, recovery_secs: f64) -> f64 {
    if horizon_secs <= 0.0 {
        return 0.0;
    }
    let lost = f64::from(failures) * recovery_secs;
    ((horizon_secs - lost) / horizon_secs).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use msd_data::catalog::coyo700m_like;
    use msd_sim::SimRng;
    use std::collections::BTreeMap;

    fn spec() -> SourceSpec {
        let mut rng = SimRng::seed(1);
        coyo700m_like(&mut rng).sources()[0].clone()
    }

    fn plan_with_directive(step: u64, loader: u32, ids: Vec<u64>) -> LoadingPlan {
        LoadingPlan {
            step,
            axis: msd_mesh::DistributeAxis::DP,
            buckets: vec![],
            excluded: vec![],
            broadcast_axes: vec![],
            directives: BTreeMap::from([(loader, ids)]),
            subplans: BTreeMap::new(),
        }
    }

    #[test]
    fn failover_restores_identical_stream_position() {
        let mut shadowed = ShadowedLoader::new(spec(), LoaderConfig::solo(0), 42, 2);
        // Produce and consume some samples across several "plans".
        let mut consumed_ids = Vec::new();
        let mut history = Vec::new();
        for step in 0..5u64 {
            shadowed.primary().refill(8).unwrap();
            let ids: Vec<u64> = shadowed
                .primary()
                .summary()
                .samples
                .iter()
                .take(4)
                .map(|m| m.sample_id)
                .collect();
            shadowed.primary().pop(&ids);
            consumed_ids.extend(ids.clone());
            history.push(plan_with_directive(step, 0, ids));
            shadowed.after_plan(step);
        }
        // Note what the primary would produce next.
        shadowed.primary().refill(8).unwrap();
        let expected_next: Vec<u64> = shadowed
            .primary()
            .summary()
            .samples
            .iter()
            .map(|m| m.sample_id)
            .collect();

        // Kill and promote.
        let mut shadowed2 = ShadowedLoader::new(spec(), LoaderConfig::solo(0), 42, 2);
        let mut history2 = Vec::new();
        for step in 0..5u64 {
            shadowed2.primary().refill(8).unwrap();
            let ids: Vec<u64> = shadowed2
                .primary()
                .summary()
                .samples
                .iter()
                .take(4)
                .map(|m| m.sample_id)
                .collect();
            shadowed2.primary().pop(&ids);
            history2.push(plan_with_directive(step, 0, ids));
            shadowed2.after_plan(step);
        }
        shadowed2.kill_primary();
        assert!(!shadowed2.is_alive());
        let refs: Vec<&LoadingPlan> = history2.iter().collect();
        let report = shadowed2.promote_shadow(FailureSignal::RpcTimeout, &refs);
        assert!(shadowed2.is_alive());
        assert!(report.replayed_plans > 0);
        // After recovery the loader yields the same future stream.
        shadowed2.primary().refill(8).unwrap();
        let recovered_next: Vec<u64> = shadowed2
            .primary()
            .summary()
            .samples
            .iter()
            .map(|m| m.sample_id)
            .collect();
        assert_eq!(expected_next, recovered_next);
    }

    #[test]
    fn snapshot_cadence_is_differential() {
        let mut shadowed = ShadowedLoader::new(spec(), LoaderConfig::solo(0), 1, 3);
        let mut snapshots = 0;
        for step in 0..9u64 {
            shadowed.primary().refill(2).unwrap();
            if shadowed.after_plan(step) {
                snapshots += 1;
            }
        }
        // Every 3 plans → 3 snapshots over 9 plans.
        assert_eq!(snapshots, 3);
    }

    #[test]
    fn replay_skips_pre_snapshot_plans() {
        let mut shadowed = ShadowedLoader::new(spec(), LoaderConfig::solo(0), 5, 1);
        let mut history = Vec::new();
        for step in 0..4u64 {
            shadowed.primary().refill(4).unwrap();
            let ids: Vec<u64> = shadowed
                .primary()
                .summary()
                .samples
                .iter()
                .take(2)
                .map(|m| m.sample_id)
                .collect();
            shadowed.primary().pop(&ids);
            history.push(plan_with_directive(step, 0, ids));
            shadowed.after_plan(step); // Snapshot every plan.
        }
        shadowed.kill_primary();
        let refs: Vec<&LoadingPlan> = history.iter().collect();
        let report = shadowed.promote_shadow(FailureSignal::IntegrityViolation, &refs);
        // Snapshot taken at step 3 → only the final plan replays.
        assert!(report.replayed_plans <= 1, "{report:?}");
    }

    #[test]
    fn shadow_memory_is_one_access_state() {
        let shadowed = ShadowedLoader::new(spec(), LoaderConfig::solo(0), 1, 4);
        assert_eq!(shadowed.shadow_memory_bytes(), spec().access_state.total());
    }

    #[test]
    fn ettr_model() {
        assert!((ettr(1000.0, 0, 60.0) - 1.0).abs() < 1e-12);
        let with_failures = ettr(1000.0, 3, 60.0);
        assert!((with_failures - 0.82).abs() < 1e-12);
        assert_eq!(ettr(10.0, 100, 60.0), 0.0);
        assert_eq!(ettr(0.0, 0, 0.0), 0.0);
    }
}
