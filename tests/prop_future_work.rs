//! Property-based tests for the §9 future-work features: the Strategy
//! Optimizer's plan-identity guarantee under *random* programs, Replay
//! Mode determinism under random workloads, Ahead-of-Fetch index
//! invariants, and column-projection consistency.

mod harness;

use proptest::prelude::*;

use harness::{arb_plan, stores_bit_identical};
use megascale_data::balance::BalanceMethod;
use megascale_data::core::aheadfetch::MetaIndex;
use megascale_data::core::buffer::{BufferInfo, BufferSummary};
use megascale_data::core::dgraph::{BalanceOpts, DGraph, MetaView};
use megascale_data::core::optimizer::{CostExpr, OptimizeOpts, StrategyOp, StrategyProgram};
use megascale_data::core::planner::{Planner, PlannerConfig, Strategy as PlannerStrategy};
use megascale_data::core::replay::{PlanStore, ReplayOutcome, ReplayPlanner};
use megascale_data::core::schedule::MixSchedule;
use megascale_data::data::catalog::coyo700m_like;
use megascale_data::data::gen::materialize_source_with_cost;
use megascale_data::data::{Modality, SampleMeta, SourceId};
use megascale_data::mesh::{Axis, ClientPlaceTree, DeviceMesh, DistributeAxis};
use megascale_data::sim::SimRng;
use megascale_data::storage::{ColumnarReader, MemStore};

fn buffers(samples_per_loader: u64, salt: u64) -> BufferInfo {
    let mk = |loader: u32, src: u32| BufferSummary {
        loader_id: loader,
        source: SourceId(src),
        samples: (0..samples_per_loader)
            .map(|i| SampleMeta {
                sample_id: (u64::from(src) << 48) | i,
                source: SourceId(src),
                modality: Modality::Image,
                text_tokens: 8 + ((i * 37 + salt * 13) % 512) as u32,
                image_patches: 32 + ((i * 101 + salt * 7) % 2048) as u32,
                raw_bytes: 256,
            })
            .collect(),
        mean_transform_ns: 500.0,
    };
    BufferInfo::new(vec![mk(0, 0), mk(1, 1)])
}

fn tree(dp: u32) -> ClientPlaceTree {
    let mesh = DeviceMesh::pp_dp_cp_tp(1, dp, 1, 2).unwrap();
    ClientPlaceTree::from_device_mesh(&mesh)
}

/// Random cost expressions (shape-free variants only, for speed).
fn cost_expr() -> impl Strategy<Value = CostExpr> {
    prop_oneof![
        Just(CostExpr::Tokens),
        Just(CostExpr::TextTokens),
        Just(CostExpr::ImagePatches),
        (0.001f64..10.0).prop_map(|scale| CostExpr::QuadraticTokens { scale }),
    ]
}

fn method() -> impl Strategy<Value = BalanceMethod> {
    prop_oneof![
        Just(BalanceMethod::Greedy),
        Just(BalanceMethod::KarmarkarKarp),
        Just(BalanceMethod::Interleave),
    ]
}

/// A random *tail* op — anything legal after `distribute`.
fn tail_op() -> impl Strategy<Value = StrategyOp> {
    prop_oneof![
        cost_expr().prop_map(StrategyOp::Cost),
        (method(), 1u32..5, any::<bool>(), any::<bool>()).prop_map(|(m, mb, inter, intra)| {
            StrategyOp::Balance {
                method: m,
                opts: BalanceOpts {
                    microbatches: mb,
                    inter_bucket: inter,
                    intra_bucket: intra,
                },
            }
        }),
        (1u32..5).prop_map(|m| StrategyOp::Chunk { microbatches: m }),
        prop_oneof![Just(Axis::TP), Just(Axis::CP), Just(Axis::PP)]
            .prop_map(StrategyOp::BroadcastAt),
        (proptest::collection::vec(0.0f64..4.0, 2), 1usize..64)
            .prop_map(|(weights, take)| StrategyOp::Mix { weights, take }),
    ]
}

/// A random well-formed program: optional leading mixes, a distribute,
/// then an arbitrary tail.
fn program() -> impl Strategy<Value = StrategyProgram> {
    (
        proptest::collection::vec(
            (proptest::collection::vec(0.1f64..4.0, 2), 1usize..96)
                .prop_map(|(weights, take)| StrategyOp::Mix { weights, take }),
            0..3,
        ),
        proptest::option::of(1u32..3),
        proptest::collection::vec(tail_op(), 0..6),
    )
        .prop_map(|(mixes, group, tail)| {
            let mut ops = mixes;
            ops.push(StrategyOp::Distribute {
                axis: DistributeAxis::DP,
                group_size: group,
            });
            ops.extend(tail);
            StrategyProgram::new(ops)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The optimizer's core contract: for ANY well-formed program, the
    /// rewritten program produces a byte-identical loading plan.
    #[test]
    fn optimizer_preserves_plans_on_random_programs(
        p in program(),
        seed in 0u64..1000,
        n in 16u64..96,
    ) {
        let info = buffers(n, seed);
        let (optimized, report) = p.optimize(OptimizeOpts::default());
        prop_assert!(optimized.ops.len() <= p.ops.len());

        let run = |prog: &StrategyProgram| {
            let mut g = DGraph::from_buffer_infos(&info, MetaView::Tokens);
            g.init(tree(4));
            let mut rng = SimRng::seed(seed);
            prog.run(&mut g, &mut rng).unwrap();
            g.plan(0).unwrap()
        };
        let raw = run(&p);
        let opt = run(&optimized);
        prop_assert_eq!(raw, opt, "report: {:?}", report);
    }

    /// Optimization is idempotent: a second pass finds nothing.
    #[test]
    fn optimizer_reaches_fixpoint(p in program()) {
        let (once, _) = p.optimize(OptimizeOpts::default());
        let (twice, second_report) = once.optimize(OptimizeOpts::default());
        prop_assert_eq!(&once, &twice);
        prop_assert_eq!(second_report.total_rewrites(), 0);
    }

    /// Lineage elision changes only the lineage: plans match, trace empties.
    #[test]
    fn lineage_elision_only_drops_lineage(
        p in program(),
        seed in 0u64..1000,
    ) {
        let info = buffers(48, seed);
        let (prod, report) = p.optimize(OptimizeOpts { elide_lineage: true });
        prop_assert!(report.lineage_elided);
        let run = |prog: &StrategyProgram| {
            let mut g = DGraph::from_buffer_infos(&info, MetaView::Tokens);
            g.init(tree(2));
            let mut rng = SimRng::seed(seed);
            prog.run(&mut g, &mut rng).unwrap();
            let lineage_len = g.lineage().len();
            (g.plan(0).unwrap(), lineage_len)
        };
        let (raw_plan, raw_lineage) = run(&p);
        let (prod_plan, prod_lineage) = run(&prod);
        prop_assert_eq!(raw_plan, prod_plan);
        prop_assert_eq!(prod_lineage, 0);
        let _ = raw_lineage;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// PlanStore checkpoints are lossless for arbitrary plans.
    #[test]
    fn plan_store_round_trips(plans in proptest::collection::vec(arb_plan(), 1..8)) {
        let mut store = PlanStore::new();
        for p in &plans {
            store.insert(p.clone());
        }
        let restored = PlanStore::from_bytes(&store.to_bytes()).unwrap();
        prop_assert!(stores_bit_identical(&store, &restored));
        for p in &plans {
            // Last write wins per step; the restored entry must be a plan
            // we inserted for that step.
            prop_assert!(restored.get(p.step).is_some());
        }
    }

    /// Replay serves identical plans for any (seed, batch) combination as
    /// long as buffers match the recording run.
    #[test]
    fn replay_is_deterministic_for_any_workload(
        seed in 0u64..500,
        batch in 4usize..32,
        steps in 1u64..6,
    ) {
        let mk_planner = || Planner::new(
            PlannerConfig {
                axis: DistributeAxis::DP,
                group_size: None,
                microbatches: 2,
                broadcast_axes: vec![Axis::TP],
                samples_per_step: batch,
                schedule: MixSchedule::uniform(2),
            },
            PlannerStrategy::Vanilla,
            tree(2),
            vec![SourceId(0), SourceId(1)],
            seed,
        );
        let bufs = |step: u64| buffers(96, step.wrapping_mul(31).wrapping_add(seed));
        let store = PlanStore::record(mk_planner(), steps, bufs).unwrap();
        let mut rp = ReplayPlanner::new(store.clone(), mk_planner());
        for step in 0..steps {
            let (plan, phases, outcome) = rp.next(&bufs(step)).unwrap();
            prop_assert_eq!(outcome, ReplayOutcome::Replayed);
            prop_assert_eq!(&plan, store.get(step).unwrap());
            prop_assert_eq!(phases.gather_ns, 0);
        }
    }
}

proptest! {
    // Storage materialization per case: keep the case count modest.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// MetaIndex invariants over random source files: full coverage,
    /// reversible ids, footer-consistent payload accounting, exact stored
    /// costs.
    #[test]
    fn meta_index_invariants(
        rows in 20u64..200,
        seed in 0u64..100,
        coeff in 0.5f64..8.0,
    ) {
        let store = MemStore::new();
        let mut rng = SimRng::seed(seed);
        let spec = coyo700m_like(&mut rng).sources()[0].clone();
        let costfn = move |m: &SampleMeta| m.total_tokens() as f64 * coeff;
        let manifest =
            materialize_source_with_cost(&store, "p", &spec, rows, &mut rng, costfn)
                .unwrap();
        let ix = MetaIndex::build(&store, &manifest.path, spec.id, spec.modality, 0).unwrap();

        prop_assert_eq!(ix.len() as u64, rows);
        for (ordinal, e) in ix.entries().iter().enumerate() {
            prop_assert_eq!(ix.ordinal_of(e.sample_id), Some(ordinal as u64));
            let expect = (e.total_tokens() as f64 * coeff).round();
            prop_assert_eq!(ix.stored_cost(e.sample_id), Some(expect));
        }
        // Window accounting: full window equals the sum over all groups,
        // and is monotone in window length.
        let full = ix.window_payload_bytes(0, rows as usize);
        let reader = ColumnarReader::open(&store, &manifest.path).unwrap();
        let img = reader.schema().index_of("image").unwrap();
        let footer_total: u64 = reader
            .footer()
            .row_groups
            .iter()
            .map(|rg| rg.columns[img].byte_len)
            .sum();
        prop_assert_eq!(full, footer_total);
        let mut prev = 0u64;
        for len in [1usize, rows as usize / 2, rows as usize] {
            let w = ix.window_payload_bytes(0, len);
            prop_assert!(w >= prev);
            prev = w;
        }
    }

    /// Column projection agrees with the full scan for every column, on
    /// random files.
    #[test]
    fn projection_matches_scan(rows in 10u64..150, seed in 0u64..100) {
        let store = MemStore::new();
        let mut rng = SimRng::seed(seed);
        let spec = coyo700m_like(&mut rng).sources()[1].clone();
        let manifest = materialize_source_with_cost(
            &store, "p", &spec, rows, &mut rng,
            |m: &SampleMeta| m.total_tokens() as f64,
        )
        .unwrap();
        let mut reader = ColumnarReader::open(&store, &manifest.path).unwrap();
        let ncols = reader.schema().len();
        let full = reader.scan().unwrap();
        let all: Vec<usize> = (0..ncols).collect();
        let projected = reader.scan_columns(&all).unwrap();
        for (c, col) in projected.iter().enumerate() {
            prop_assert_eq!(col.len() as u64, rows);
            for (r, v) in col.iter().enumerate() {
                prop_assert_eq!(&full[r][c], v);
            }
        }
    }
}
