//! Fault tolerance: shadow loaders, differential checkpointing, replay.
//!
//! Sec 6.1: Source Loader failures are detected via RPC timeouts or payload
//! integrity checks; a hot-standby *shadow loader* is promoted instantly.
//! To keep snapshot costs low, loaders checkpoint *less frequently* than
//! the Planner — on failover the shadow restores the last loader snapshot
//! and *replays* the plans executed since then to catch up (differential
//! checkpointing). The shadow keeps that delta itself, so it never holds
//! more than one snapshot interval of plans.

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
/// The shadow holds the source spec, the latest (low-frequency) loader
/// checkpoint and this loader's directives since it; promotion costs one
/// restore plus a deterministic replay of those directives.
pub struct ShadowedLoader {
    spec: SourceSpec,
    config: LoaderConfig,
    /// The live primary (None after an unrecovered failure).
    primary: Option<SourceLoader>,
    /// Latest loader snapshot (taken every `snapshot_interval` plans).
    snapshot: LoaderCheckpoint,
    /// Loader snapshot cadence in plans (> planner cadence, per the paper).
    pub snapshot_interval: u64,
    /// The ids this loader popped in each plan since `snapshot`, in plan
    /// order: the replay delta, cleared at every snapshot.
    since_snapshot: Vec<Vec<u64>>,
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
            since_snapshot: Vec::new(),
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

    /// Records that `plan` was executed — keeping this loader's directive
    /// for replay — and snapshots on the configured cadence. Returns `true`
    /// if a snapshot was taken.
    pub fn after_plan(&mut self, plan: &LoadingPlan) -> bool {
        let ids = plan
            .directives
            .get(&self.config.loader_id)
            .cloned()
            .unwrap_or_default();
        self.since_snapshot.push(ids);
        if self.since_snapshot.len() as u64 >= self.snapshot_interval {
            if let Some(p) = &self.primary {
                self.snapshot = p.checkpoint(plan.step);
                self.since_snapshot.clear();
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
    /// directives executed since it to reconstruct exactly the
    /// buffered/popped state the primary had. The delta is kept, so a
    /// second failure before the next snapshot replays it again.
    pub fn promote_shadow(&mut self, signal: FailureSignal) -> FailoverReport {
        let mut restored =
            SourceLoader::restore(self.spec.clone(), self.config.clone(), &self.snapshot);
        let mut replayed_samples = 0;
        for ids in &self.since_snapshot {
            // Re-materialize everything this plan consumed, then drop it
            // again (it was already delivered downstream).
            restored
                .refill(restored.buffered() + ids.len())
                .expect("synthetic refill cannot fail");
            replayed_samples += restored.pop(ids).len();
        }
        self.primary = Some(restored);
        FailoverReport {
            loader_id: self.config.loader_id,
            signal,
            restored_version: self.snapshot.version,
            replayed_plans: self.since_snapshot.len(),
            replayed_samples,
        }
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

    /// One plan against the live primary: refill to `fill`, pop the `take`
    /// front samples, then record the plan. Returns whether it snapshotted.
    fn run_plan(shadowed: &mut ShadowedLoader, step: u64, fill: usize, take: usize) -> bool {
        shadowed.primary().refill(fill).unwrap();
        let ids: Vec<u64> = shadowed
            .primary()
            .summary()
            .samples
            .iter()
            .take(take)
            .map(|m| m.sample_id)
            .collect();
        shadowed.primary().pop(&ids);
        shadowed.after_plan(&LoadingPlan {
            step,
            axis: msd_mesh::DistributeAxis::DP,
            buckets: vec![],
            broadcast_axes: vec![],
            directives: BTreeMap::from([(0, ids)]),
            subplans: BTreeMap::new(),
        })
    }

    /// The ids the primary buffers after refilling to `fill`.
    fn next_summary(shadowed: &mut ShadowedLoader, fill: usize) -> Vec<u64> {
        shadowed.primary().refill(fill).unwrap();
        shadowed
            .primary()
            .summary()
            .samples
            .iter()
            .map(|m| m.sample_id)
            .collect()
    }

    #[test]
    fn failover_restores_identical_stream_position() {
        let mut shadowed = ShadowedLoader::new(spec(), LoaderConfig::solo(0), 42, 2);
        // Produce and consume some samples across several "plans".
        for step in 0..5u64 {
            run_plan(&mut shadowed, step, 8, 4);
        }
        // Note what the primary would produce next.
        let expected_next = next_summary(&mut shadowed, 8);

        // Kill and promote.
        let mut shadowed2 = ShadowedLoader::new(spec(), LoaderConfig::solo(0), 42, 2);
        for step in 0..5u64 {
            run_plan(&mut shadowed2, step, 8, 4);
        }
        shadowed2.kill_primary();
        assert!(!shadowed2.is_alive());
        let report = shadowed2.promote_shadow(FailureSignal::RpcTimeout);
        assert!(shadowed2.is_alive());
        assert!(report.replayed_plans > 0);
        // After recovery the loader yields the same future stream.
        assert_eq!(expected_next, next_summary(&mut shadowed2, 8));
    }

    #[test]
    fn snapshot_cadence_is_differential() {
        let mut shadowed = ShadowedLoader::new(spec(), LoaderConfig::solo(0), 1, 3);
        let mut snapshots = 0;
        for step in 0..9u64 {
            if run_plan(&mut shadowed, step, 2, 0) {
                snapshots += 1;
            }
        }
        // Every 3 plans → 3 snapshots over 9 plans.
        assert_eq!(snapshots, 3);
    }

    #[test]
    fn replay_skips_pre_snapshot_plans() {
        let mut shadowed = ShadowedLoader::new(spec(), LoaderConfig::solo(0), 5, 1);
        for step in 0..4u64 {
            run_plan(&mut shadowed, step, 4, 2); // Snapshot every plan.
        }
        shadowed.kill_primary();
        let report = shadowed.promote_shadow(FailureSignal::IntegrityViolation);
        // Snapshot taken at step 3 → at most the final plan replays.
        assert!(report.replayed_plans <= 1, "{report:?}");
    }

    #[test]
    fn shadow_delta_is_bounded_by_the_snapshot_interval() {
        // 66 plans: 64 fill sixteen snapshot intervals, the last two land
        // mid-interval so the failover has a delta to replay.
        let mut twin = ShadowedLoader::new(spec(), LoaderConfig::solo(0), 9, 4);
        let mut shadowed = ShadowedLoader::new(spec(), LoaderConfig::solo(0), 9, 4);
        for step in 0..66u64 {
            run_plan(&mut twin, step, 8, 4);
            run_plan(&mut shadowed, step, 8, 4);
            assert!(shadowed.since_snapshot.len() <= 4, "step {step}");
        }
        shadowed.kill_primary();
        let report = shadowed.promote_shadow(FailureSignal::RpcTimeout);
        assert!(report.replayed_plans <= 4, "{report:?}");
        assert_eq!(report.replayed_plans, 2);
        assert_eq!(report.restored_version, 63);
        assert_eq!(next_summary(&mut twin, 8), next_summary(&mut shadowed, 8));
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
