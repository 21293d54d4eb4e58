//! The cost models behind the evaluation's projected columns.
//!
//! **The pipeline step** (Fig 14, Fig 15, Sec 6.2): the one place that
//! turns what an inline pipeline step did into projected time.
//! [`MegaScaleData::step`] reports counts, bytes, the planner's measured
//! compute and the transform-cost estimates of loader refills and
//! transform tails. What the inline step does not do — move summaries and
//! plans over a datacenter fabric, copy tokens into batches, deliver them
//! to ranks — is charged here, over the alpha-beta [`NetModel`].
//! One step projects both of Sec 6.2's transform placements: every
//! transform loader-side ([`step`], the default), or only each pipeline's
//! head there and its tail at the constructors ([`reordering_pair`]).
//!
//! **The loader architectures** (Fig 12, Fig 16, Fig 20): the vocabulary
//! ([`ClusterShape`], [`WorkloadShape`], [`LoaderSystem`]) in which
//! [`crate::systems`] describes each baseline and MegaScale-Data itself.

use std::time::Duration;

use msd_core::system::{MegaScaleData, StepOutput};
use msd_mesh::{Axis, ClientPlaceTree, DeviceMesh};

use crate::net::NetModel;

/// Projected times of one live-planned pipeline step, in ns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepTimes {
    /// Buffer gather: every loader's summary incast into the planner, plus
    /// a barrier over the loaders.
    pub gather_ns: u64,
    /// Plan broadcast: a log-depth fan-out to the constructors plus a
    /// barrier over the fetching clients.
    pub broadcast_ns: u64,
    /// Slowest loader's refill (the step's transform-cost estimate).
    pub loader_ns: u64,
    /// Slowest constructor: its transform tail or its assembly (~1 ns
    /// per 16 padded tokens) plus delivery, whichever is larger.
    pub constructor_ns: u64,
    /// Unoverlapped data fetch: loader + gather + measured plan compute +
    /// broadcast + constructor.
    pub fetch_ns: u64,
}

impl StepTimes {
    /// Projects the times of step `out`, planned over `tree`, with every
    /// transform loader-side.
    fn of(out: &StepOutput, tree: &ClientPlaceTree) -> Self {
        Self::project(out, tree, out.loader_ns, 0)
    }

    /// Projects the times of step `out` with each pipeline's tail deferred
    /// to the constructors (Sec 6.2's transformation reordering).
    fn deferred(out: &StepOutput, tree: &ClientPlaceTree) -> Self {
        Self::project(out, tree, out.head_ns, out.tail_ns)
    }

    /// Projects step `out` with loaders charged `loader_ns` and the
    /// slowest constructor at least `tail_ns`.
    fn project(out: &StepOutput, tree: &ClientPlaceTree, loader_ns: u64, tail_ns: u64) -> Self {
        let net = NetModel::default();
        let ns = |d: Duration| d.as_nanos() as u64;
        let loaders = out.info.summaries.len().max(1) as u32;
        let gather_ns =
            ns(net.fanin_transfer(out.info.wire_bytes(), loaders) + net.barrier(loaders));
        let fanout = (out.plan.buckets.len().max(1) as f64 + 1.0).log2().ceil() as u32;
        let clients = tree.fetching_clients(&out.plan.broadcast_axes).len() as u32;
        let broadcast_ns = ns(net.transfer(out.plan.wire_bytes()) * fanout + net.barrier(clients));
        let constructor_ns = out
            .batches
            .iter()
            .map(|batch| {
                let tokens: u64 = batch.microbatches.iter().map(|m| m.padded_tokens()).sum();
                let delivery: u64 = batch.deliveries.iter().map(|d| d.bytes).sum();
                tokens / 16 + ns(net.transfer(delivery))
            })
            .fold(tail_ns, u64::max);
        StepTimes {
            gather_ns,
            broadcast_ns,
            loader_ns,
            constructor_ns,
            fetch_ns: loader_ns + gather_ns + out.phases.compute_ns + broadcast_ns + constructor_ns,
        }
    }
}

/// Runs one step of `msd` and projects its times with every transform
/// loader-side.
pub fn step(msd: &mut MegaScaleData) -> (StepOutput, StepTimes) {
    let out = msd.step().expect("pipeline step");
    let times = StepTimes::of(&out, msd.planner().tree());
    (out, times)
}

/// Runs one step of `msd` and projects it under both of Sec 6.2's
/// transform placements: loader-side, then deferred.
pub fn reordering_pair(msd: &mut MegaScaleData) -> (StepOutput, [StepTimes; 2]) {
    let out = msd.step().expect("pipeline step");
    let tree = msd.planner().tree();
    let pair = [StepTimes::of(&out, tree), StepTimes::deferred(&out, tree)];
    (out, pair)
}

/// Shape of the training cluster.
#[derive(Debug, Clone)]
pub struct ClusterShape {
    /// The trainer device mesh.
    pub mesh: DeviceMesh,
    /// GPUs per physical node (16 × L20 in the paper's testbed).
    pub gpus_per_node: u32,
    /// Host DRAM per node available to loaders (half of 1.8 TB under the
    /// paper's sidecar split).
    pub host_mem_per_node: u64,
    /// Host CPU cores per node available to loaders.
    pub cores_per_node: u64,
}

impl ClusterShape {
    /// The paper's testbed node: 16 GPUs, 1.8 TB DRAM (half for loaders),
    /// 128 cores (half for loaders).
    pub fn l20_node(mesh: DeviceMesh) -> Self {
        ClusterShape {
            mesh,
            gpus_per_node: 16,
            host_mem_per_node: (18 << 40) / 20, // 0.9 TB for loaders
            cores_per_node: 64,
        }
    }

    /// Number of nodes.
    pub fn nodes(&self) -> u32 {
        self.mesh.world_size().div_ceil(self.gpus_per_node)
    }

    /// Loader client instances after TP-broadcast elision (enabled for all
    /// systems in the evaluation): one per TP group.
    pub fn tp_elided_clients(&self) -> u64 {
        u64::from(self.mesh.world_size() / self.mesh.size(Axis::TP).max(1))
    }
}

/// Shape of the preprocessing workload.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadShape {
    /// Number of data sources in the mixture.
    pub sources: u32,
    /// Mean per-source access-state bytes (socket + footer + row-group
    /// buffer).
    pub access_state_bytes: u64,
    /// Mean transformation cost per sample, ns.
    pub mean_transform_ns: f64,
    /// Worst-source transformation cost per sample, ns (worker sizing must
    /// cover this to avoid stalls).
    pub max_transform_ns: f64,
    /// Samples consumed per iteration, cluster-wide.
    pub samples_per_iter: u64,
    /// Mean transformed-sample payload bytes.
    pub sample_bytes: u64,
    /// Training compute time per iteration, seconds (the overlap budget).
    pub iter_compute_s: f64,
}

/// Architectural report of one system on one workload.
#[derive(Debug, Clone)]
pub struct SystemReport {
    /// System name.
    pub name: String,
    /// Loader instances (clients with full pipelines).
    pub loader_instances: u64,
    /// Total worker processes across the cluster.
    pub workers_total: u64,
    /// Total loader-side memory, bytes (cluster-wide).
    pub memory_total: u64,
    /// Average loader memory per node, bytes.
    pub memory_per_node: u64,
    /// Average per-iteration data fetch latency, seconds (unoverlapped).
    pub fetch_latency_s: f64,
}

/// A dataloader architecture.
pub trait LoaderSystem {
    /// Display name (matches the Fig 12 legend).
    fn name(&self) -> &'static str;

    /// Whether the system performs load-time cost balancing (only
    /// MegaScale-Data does).
    fn balances(&self) -> bool {
        false
    }

    /// Computes the architectural report.
    fn report(&self, cluster: &ClusterShape, workload: &WorkloadShape) -> SystemReport;
}

/// Workers needed to hide `total_transform_ns` of per-iteration transform
/// work behind `iter_compute_s` of training compute.
pub fn workers_to_hide(total_transform_ns: f64, iter_compute_s: f64) -> u64 {
    let budget_ns = (iter_compute_s * 1e9).max(1.0);
    (total_transform_ns / budget_ns).ceil().max(1.0) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use msd_balance::BalanceMethod;
    use msd_core::planner::Strategy;
    use msd_data::catalog::{coyo700m_like, navit_sized};
    use msd_sim::SimRng;

    use crate::models::vlm_preset;
    use crate::Scenario;

    /// `[gather, broadcast, constructor, loader, fetch - compute]` of one
    /// measured step.
    fn golden(times: &StepTimes, out: &StepOutput) -> [u64; 5] {
        [
            times.gather_ns,
            times.broadcast_ns,
            times.constructor_ns,
            times.loader_ns,
            times.fetch_ns - out.phases.compute_ns,
        ]
    }

    /// Fig 15's base configuration: 576 GPUs, 8k context, BS 72, 100
    /// sources, seed 15; the step after one warm-up.
    #[test]
    fn fig15_base_matches_the_recorded_projection() {
        let model = vlm_preset("ViT-2B", "Llama-12B");
        let scenario = Scenario {
            mesh: DeviceMesh::pp_dp_cp_tp(4, 9, 4, 4).unwrap(),
            model: model.clone(),
            ctx: 8192,
            microbatches: 8,
            samples_per_step: 72 * 9,
            catalog: navit_sized(&mut SimRng::seed(15), 100),
        };
        let mut msd = scenario.pipeline(
            Strategy::HybridBalance {
                method: BalanceMethod::Greedy,
                backbone: model.backbone,
                encoder: model.encoder.expect("VLM"),
            },
            15,
        );
        step(&mut msd);
        let (out, times) = step(&mut msd);
        assert_eq!(
            golden(&times, &out),
            [235_780, 319_451, 277_857, 5_089_205_733, 5_090_038_821]
        );
    }

    /// Sec 6.2's transformation-reordering pair on the coyo700m catalog,
    /// seed 62: the step after one warm-up, projected loader-side then
    /// deferred.
    #[test]
    fn sec6_reordering_pair_matches_the_recorded_projection() {
        let scenario = Scenario {
            mesh: DeviceMesh::pp_dp_cp_tp(1, 4, 1, 2).unwrap(),
            model: vlm_preset("ViT-1B", "Llama-12B"),
            ctx: 8192,
            microbatches: 4,
            samples_per_step: 96,
            catalog: coyo700m_like(&mut SimRng::seed(62)),
        };
        let strategy = Strategy::BackboneBalance {
            method: BalanceMethod::Greedy,
            backbone: scenario.model.backbone,
        };
        let mut msd = scenario.pipeline(strategy, 62);
        step(&mut msd);
        let (out, pair) = reordering_pair(&mut msd);
        let projected: Vec<[u64; 5]> = pair
            .iter()
            .map(|times| {
                assert!(times.fetch_ns > 0);
                golden(times, &out)
            })
            .collect();
        assert_eq!(
            projected,
            [
                [100_743, 125_486, 125_443, 307_976_739, 308_328_411],
                [100_743, 125_486, 613_321_880, 0, 613_548_109],
            ]
        );
        // The deferred tail shows up as constructor-side work.
        assert!(projected[1][2] > projected[0][2]);
    }

    #[test]
    fn cluster_shape_arithmetic() {
        let mesh = DeviceMesh::pp_dp_cp_tp(8, 9, 1, 4).unwrap(); // 288 GPUs
        let c = ClusterShape::l20_node(mesh);
        assert_eq!(c.nodes(), 18);
        assert_eq!(c.tp_elided_clients(), 72);
    }

    #[test]
    fn worker_sizing_covers_demand() {
        // 100 s of transform work per iteration, 10 s compute → 10 workers.
        assert_eq!(workers_to_hide(100e9, 10.0), 10);
        assert_eq!(workers_to_hide(1.0, 10.0), 1);
        assert_eq!(workers_to_hide(0.0, 0.0), 1);
    }
}
