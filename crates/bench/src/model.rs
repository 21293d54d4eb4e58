//! The cost model behind the time columns of Fig 14, Fig 15 and Sec 6.2:
//! the one place that turns what an inline pipeline step did into
//! projected virtual time.
//!
//! [`MegaScaleData::step`] reports counts, bytes, the planner's measured
//! compute and the transform-cost estimates of loader refills and
//! transform tails. What the inline step does not do — move summaries and
//! plans over a datacenter fabric, copy tokens into batches, deliver them
//! to ranks — is charged here, over `msd_sim`'s alpha-beta [`NetModel`].
//! One step projects both of Sec 6.2's transform placements: every
//! transform loader-side ([`step`], the default), or only each pipeline's
//! head there and its tail at the constructors ([`reordering_pair`]).

use msd_core::system::{MegaScaleData, StepOutput};
use msd_mesh::ClientPlaceTree;
use msd_sim::NetModel;

/// Projected times of one live-planned pipeline step, in virtual ns.
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
        let loaders = out.info.summaries.len().max(1) as u32;
        let gather_ns = net
            .fanin_transfer(out.info.wire_bytes(), loaders)
            .as_nanos()
            + net.barrier(loaders).as_nanos();
        let fanout = (out.plan.buckets.len().max(1) as f64 + 1.0).log2().ceil() as u64;
        let clients = tree.fetching_clients(&out.plan.broadcast_axes).len() as u32;
        let broadcast_ns = net.transfer(out.plan.wire_bytes()).as_nanos() * fanout
            + net.barrier(clients).as_nanos();
        let constructor_ns = out
            .batches
            .iter()
            .map(|batch| {
                let tokens: u64 = batch.microbatches.iter().map(|m| m.padded_tokens()).sum();
                let delivery: u64 = batch.deliveries.iter().map(|d| d.bytes).sum();
                tokens / 16 + net.transfer(delivery).as_nanos()
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

#[cfg(test)]
mod tests {
    use super::*;
    use msd_balance::BalanceMethod;
    use msd_core::planner::Strategy;
    use msd_data::catalog::{coyo700m_like, navit_sized};
    use msd_mesh::DeviceMesh;
    use msd_sim::SimRng;
    use msd_train::models::vlm_preset;

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
}
