//! Replay Mode, Ahead-of-Fetch, and the Strategy Optimizer (paper §9).
//!
//! ```text
//! cargo run --example replay_and_optimize
//! ```
//!
//! A production-shaped walkthrough of the three future-work features:
//!
//! 1. Author a declarative strategy *program* and let the optimizer strip
//!    its dead primitives.
//! 2. Materialize sources with pre-computed costs and plan straight from
//!    storage metadata (Ahead-of-Fetch), fetching only what the plan names.
//! 3. Record the whole schedule offline, checkpoint it as an MSDB frame,
//!    and serve training steps in Replay Mode with near-zero online
//!    planner work.

use std::sync::Arc;

use megascale_data::balance::{BackboneShape, BalanceMethod};
use megascale_data::core::aheadfetch::{AheadOfFetchSession, MetaIndex, PositionalFetcher};
use megascale_data::core::dgraph::BalanceOpts;
use megascale_data::core::optimizer::{CostExpr, OptimizeOpts, StrategyOp, StrategyProgram};
use megascale_data::core::planner::{Planner, PlannerConfig, Strategy};
use megascale_data::core::replay::{PlanStore, ReplayPlanner};
use megascale_data::core::schedule::MixSchedule;
use megascale_data::data::catalog::coyo700m_like;
use megascale_data::data::gen::materialize_source_with_cost;
use megascale_data::data::SampleMeta;
use megascale_data::mesh::{Axis, ClientPlaceTree, DeviceMesh, DistributeAxis};
use megascale_data::sim::SimRng;
use megascale_data::storage::MemStore;

fn main() {
    let backbone = BackboneShape {
        layers: 12,
        hidden: 1024,
        mlp_ratio: 4.0,
        heads: 16,
        vocab: 32000,
        experts_per_token: 1,
    };

    // ---------------------------------------------------------------
    // 1. Strategy Optimizer: write the strategy carelessly, ship it
    //    optimized.
    // ---------------------------------------------------------------
    let program = StrategyProgram::new(vec![
        StrategyOp::Mix {
            weights: vec![1.0; 3],
            take: 512, // Left over from an experiment — dead.
        },
        StrategyOp::Mix {
            weights: vec![0.5, 0.3, 0.2],
            take: 48,
        },
        StrategyOp::Distribute {
            axis: DistributeAxis::DP,
            group_size: None,
        },
        StrategyOp::BroadcastAt(Axis::TP),
        StrategyOp::BroadcastAt(Axis::TP), // Copy-paste dup — dead.
        StrategyOp::Cost(CostExpr::Tokens), // Debug probe — dead.
        StrategyOp::Cost(CostExpr::Backbone(backbone)),
        StrategyOp::Balance {
            method: BalanceMethod::Greedy,
            opts: BalanceOpts::full(4),
        },
    ]);
    let (optimized, report) = program.optimize(OptimizeOpts {
        elide_lineage: true,
    });
    println!("strategy optimizer:");
    println!(
        "  {} ops -> {} ops ({} rewrites: {} dead mix, {} dead cost, \
         {} dup broadcast, {} fused distribute)",
        program.ops.len(),
        optimized.ops.len(),
        report.total_rewrites(),
        report.dead_mixes,
        report.dead_costs,
        report.duplicate_broadcasts,
        report.fused_distributes,
    );

    // ---------------------------------------------------------------
    // 2. Ahead-of-Fetch: costs embedded at dataset-build time, planning
    //    from metadata, fetch after.
    // ---------------------------------------------------------------
    let store = Arc::new(MemStore::new());
    let mut rng = SimRng::seed(42);
    let catalog = coyo700m_like(&mut rng);
    let specs = catalog.sources()[..3].to_vec();
    let mut indexes = Vec::new();
    let mut paths = Vec::new();
    for (i, spec) in specs.iter().enumerate() {
        let manifest = materialize_source_with_cost(
            store.as_ref(),
            "warehouse",
            spec,
            600,
            &mut rng,
            |m: &SampleMeta| backbone.flops(m.total_tokens()) / 1e6,
        )
        .expect("materialize");
        paths.push(manifest.path.clone());
        indexes.push(
            MetaIndex::build(&store, &manifest.path, spec.id, spec.modality, i as u32)
                .expect("index"),
        );
    }
    println!("\nahead-of-fetch:");
    for ix in &indexes {
        println!(
            "  source {}: {} rows indexed from {} KiB of metadata (costs embedded: {})",
            ix.source,
            ix.len(),
            ix.metadata_bytes / 1024,
            ix.has_stored_costs(),
        );
    }

    let mesh = DeviceMesh::pp_dp_cp_tp(1, 4, 1, 2).expect("mesh");
    let mk_planner = |seed: u64| {
        Planner::new(
            PlannerConfig {
                axis: DistributeAxis::DP,
                group_size: None,
                microbatches: 4,
                broadcast_axes: vec![Axis::TP],
                samples_per_step: 48,
                schedule: MixSchedule::Static(vec![0.5, 0.3, 0.2]),
            },
            Strategy::BackboneBalance {
                method: BalanceMethod::Greedy,
                backbone,
            },
            ClientPlaceTree::from_device_mesh(&mesh),
            specs.iter().map(|s| s.id).collect(),
            seed,
        )
    };
    let mut session = AheadOfFetchSession::new(indexes, mk_planner(7));
    let (plan, _, savings) = session.step(256).expect("plan-first step");
    println!(
        "  planned {} samples before any payload fetch; traffic: {} KiB planned \
         vs {} KiB buffer-first ({:.1}x saved)",
        plan.all_samples().len(),
        savings.planned_payload_bytes / 1024,
        savings.window_payload_bytes / 1024,
        savings.window_payload_bytes as f64 / savings.planned_payload_bytes.max(1) as f64,
    );
    let ix0 = &session.indexes()[0];
    let mine: Vec<u64> = plan
        .all_samples()
        .into_iter()
        .filter(|id| ix0.ordinal_of(*id).is_some())
        .collect();
    let mut fetcher = PositionalFetcher::new(store.clone(), paths[0].clone());
    let fetched = fetcher.fetch(ix0, &mine).expect("fetch");
    println!(
        "  source {} fetch: {} samples from {} row groups",
        ix0.source,
        fetched.len(),
        fetcher.groups_read,
    );

    // ---------------------------------------------------------------
    // 3. Replay Mode: record offline, checkpoint, replay online.
    // ---------------------------------------------------------------
    let steps = 10u64;
    let buffers = |step: u64| {
        // In production these come from loader summaries; here, a
        // deterministic window over the same metadata the indexes hold.
        let summaries = session
            .indexes()
            .iter()
            .map(|ix| ix.summary((step as usize * 24) % 300, 128))
            .collect();
        megascale_data::core::buffer::BufferInfo::new(summaries)
    };
    let checkpoint = PlanStore::record(mk_planner(13), steps, buffers)
        .expect("offline record")
        .to_bytes();
    println!("\nreplay mode:");
    println!(
        "  offline schedule checkpoint: {} steps, {} KiB (one MSDB frame)",
        steps,
        checkpoint.len() / 1024
    );
    let plans = PlanStore::from_bytes(&checkpoint).expect("restore");
    let mut rp = ReplayPlanner::new(plans, mk_planner(13));
    let mut online_ns = 0u64;
    for step in 0..steps {
        let (_, phases, outcome) = rp.next(&buffers(step)).expect("replay step");
        online_ns += phases.gather_ns + phases.compute_ns;
        assert_eq!(
            outcome,
            megascale_data::core::replay::ReplayOutcome::Replayed
        );
    }
    println!(
        "  served {}/{} steps from the store; total online planner work {:.3} ms \
         ({} health events)",
        rp.replayed,
        steps,
        online_ns as f64 / 1e6,
        rp.health_events.len(),
    );
}
