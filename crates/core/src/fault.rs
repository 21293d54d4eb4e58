//! Fault tolerance: differential checkpointing and replay.
//!
//! Sec 6.1: loaders checkpoint *less frequently* than the Planner. A
//! restarted Source Loader restores its last checkpoint
//! ([`crate::loader::SourceLoader::restore`]) and *replays* the plans
//! issued since ([`crate::loader::SourceLoader::replay_directives`]): it
//! re-admits its deterministic stream up to the last sample those plans
//! took and drops every sample they delivered. Both deployments recover
//! this way: the threaded runtime from the GCS's loader checkpoints and
//! plan log, the inline [`crate::system::MegaScaleData`] from the
//! checkpoints and directives it keeps itself
//! ([`crate::system::MegaScaleData::restart_loader`]).

/// Outcome of a loader restart.
#[derive(Debug, Clone, PartialEq)]
pub struct FailoverReport {
    /// The restarted loader.
    pub loader_id: u32,
    /// Checkpoint version (plan step) the loader restored.
    pub restored_version: u64,
    /// Number of plans replayed to catch up.
    pub replayed_plans: usize,
    /// Delivered samples the replay dropped again.
    pub replayed_samples: usize,
}

#[cfg(test)]
mod tests {
    use crate::loader::{LoaderCheckpoint, LoaderConfig, SourceLoader};
    use crate::system::{MegaScaleData, MsdConfig};
    use msd_data::catalog::coyo700m_like;
    use msd_data::SourceSpec;
    use msd_sim::SimRng;

    fn spec() -> SourceSpec {
        let mut rng = SimRng::seed(1);
        coyo700m_like(&mut rng).sources()[0].clone()
    }

    /// A loader driven plan by plan with the recovery state a deployment
    /// keeps for it: a checkpoint every `interval` plans and the
    /// directives issued since.
    struct Tracked {
        loader: SourceLoader,
        interval: usize,
        checkpoint: LoaderCheckpoint,
        since: Vec<Vec<u64>>,
    }

    impl Tracked {
        fn new(seed: u64, interval: usize) -> Self {
            let loader = SourceLoader::synthetic(spec(), LoaderConfig::solo(0), seed);
            let checkpoint = loader.checkpoint(0);
            Tracked {
                loader,
                interval,
                checkpoint,
                since: Vec::new(),
            }
        }

        /// One plan: refill to `fill`, pop the `take` front samples, log
        /// the directive and checkpoint on the cadence.
        fn run_plan(&mut self, step: u64, fill: usize, take: usize) {
            let ids = self.next_summary(fill)[..take].to_vec();
            self.loader.pop(&ids);
            self.since.push(ids);
            if self.since.len() >= self.interval {
                self.checkpoint = self.loader.checkpoint(step);
                self.since.clear();
            }
        }

        /// The ids the loader buffers after refilling to `fill`.
        fn next_summary(&mut self, fill: usize) -> Vec<u64> {
            self.loader.refill(fill).unwrap();
            let summary = self.loader.summary();
            summary.samples.iter().map(|m| m.sample_id).collect()
        }

        /// Replaces the loader with one restored from the checkpoint and
        /// replayed through the directives since: `(restored version,
        /// replayed plans)`.
        fn restart(&mut self) -> (u64, usize) {
            self.loader = SourceLoader::restore(spec(), LoaderConfig::solo(0), &self.checkpoint);
            for ids in &self.since {
                self.loader.replay_directives(ids);
            }
            (self.checkpoint.version, self.since.len())
        }
    }

    #[test]
    fn failover_restores_identical_stream_position() {
        let mut twin = Tracked::new(42, 2);
        let mut restarted = Tracked::new(42, 2);
        for step in 0..5u64 {
            twin.run_plan(step, 8, 4);
            restarted.run_plan(step, 8, 4);
        }
        let (_, replayed_plans) = restarted.restart();
        assert!(replayed_plans > 0);
        // After recovery the loader yields the same future stream.
        assert_eq!(twin.next_summary(8), restarted.next_summary(8));
    }

    #[test]
    fn replayed_delta_is_bounded_by_the_checkpoint_interval() {
        // 66 plans: 64 fill sixteen checkpoint intervals, the last two
        // land mid-interval so the restart has a delta to replay.
        let mut twin = Tracked::new(9, 4);
        let mut restarted = Tracked::new(9, 4);
        for step in 0..66u64 {
            twin.run_plan(step, 8, 4);
            restarted.run_plan(step, 8, 4);
            assert!(restarted.since.len() <= 4, "step {step}");
        }
        let (restored_version, replayed_plans) = restarted.restart();
        assert!(replayed_plans <= 4);
        assert_eq!(replayed_plans, 2);
        assert_eq!(restored_version, 63);
        assert_eq!(twin.next_summary(8), restarted.next_summary(8));
    }

    /// A small image-heavy inline deployment.
    fn msd() -> MegaScaleData {
        use crate::autoscale::{ClusterResources, PartitionOpts};
        use crate::planner::{PlannerConfig, Strategy};
        use crate::schedule::MixSchedule;
        use msd_mesh::{DeviceMesh, DistributeAxis};

        let catalog = coyo700m_like(&mut SimRng::seed(1));
        let schedule = MixSchedule::uniform(catalog.len());
        MegaScaleData::new(MsdConfig {
            catalog,
            mesh: DeviceMesh::pp_dp_cp_tp(1, 2, 1, 1).unwrap(),
            strategy: Strategy::Vanilla,
            planner: PlannerConfig {
                axis: DistributeAxis::DP,
                group_size: None,
                microbatches: 1,
                broadcast_axes: vec![],
                samples_per_step: 16,
                schedule,
            },
            max_seq_len: 4096,
            resources: ClusterResources {
                total_cores: 16,
                total_mem_bytes: 1 << 40,
            },
            partition: PartitionOpts::default(),
            buffer_capacity: 64,
            seed: 5,
        })
    }

    #[test]
    fn snapshot_cadence_is_differential() {
        // A restart after plan `s` restores the checkpoint of the last
        // completed four-plan interval and replays the rest of it: the
        // log never holds more than four plans.
        let mut msd = msd();
        for step in 0..9u64 {
            msd.step().unwrap();
            let report = msd.restart_loader(0);
            let replayed = (step + 1) % 4;
            assert_eq!(report.replayed_plans as u64, replayed, "step {step}");
            let checkpointed = step + 1 - replayed;
            let version = checkpointed.saturating_sub(1);
            assert_eq!(report.restored_version, version, "step {step}");
        }
    }

    #[test]
    fn replay_skips_pre_snapshot_plans() {
        let mut msd = msd();
        for _ in 0..8 {
            msd.step().unwrap();
        }
        // Checkpointed at step 7 → nothing before it replays.
        let report = msd.restart_loader(1);
        assert_eq!(report.restored_version, 7);
        assert_eq!(report.replayed_plans, 0, "{report:?}");
        assert_eq!(report.replayed_samples, 0, "{report:?}");
        assert_eq!(msd.step().unwrap().plan.all_samples().len(), 16);
    }
}
