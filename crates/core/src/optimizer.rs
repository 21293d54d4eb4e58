//! The Strategy Optimizer (paper §9, "Future Work").
//!
//! Because the data plane is declarative, an orchestration strategy can be
//! represented as a *program* — a sequence of primitive operations over a
//! [`DGraph`] — and rewritten before execution. This module implements the
//! paper's proposed optimizer: rule-based rewriting that removes dead
//! primitives and fuses adjacent ones, provably preserving the resulting
//! [`crate::plan::LoadingPlan`].
//!
//! Implemented rewrite rules:
//!
//! | rule | pattern | rewrite |
//! |---|---|---|
//! | dead cost | `cost(f); …; cost(g)` with no balance between | drop `cost(f)` |
//! | dead balance | `balance(_); …; balance(inter_bucket=true)` | drop the earlier |
//! | dead mix | `mix(_); …; mix(_)` with no distribute/balance between | drop the earlier |
//! | broadcast dedup | repeated `broadcast_at(axis)` | keep the first |
//! | distribute∘balance fusion | `distribute(a); balance(inter_bucket=true)` | `distribute_lazy(a); balance(…)` |
//! | lineage elision | production mode | skip lineage recording |
//!
//! Costs are expressed as [`CostExpr`] values rather than closures so the
//! optimizer can reason about (and deduplicate) them.

use std::collections::HashMap;

use msd_balance::{BackboneShape, BalanceMethod, EncoderShape};
use msd_data::SampleMeta;
use msd_mesh::{Axis, DistributeAxis};
use msd_sim::SimRng;

use crate::dgraph::{BalanceOpts, DGraph, DGraphError};

/// A per-sample cost function, as comparable data.
#[derive(Debug, Clone, PartialEq)]
pub enum CostExpr {
    /// Total (text + image) tokens.
    Tokens,
    /// Text tokens only.
    TextTokens,
    /// Image patches only.
    ImagePatches,
    /// `scale · tokens²` — the attention-dominated regime.
    QuadraticTokens {
        /// Multiplier applied to the squared token count.
        scale: f64,
    },
    /// Full backbone FLOPs model over total tokens.
    Backbone(BackboneShape),
    /// Full encoder FLOPs model over image patches.
    Encoder(EncoderShape),
}

impl CostExpr {
    /// Evaluates the expression on one sample's metadata.
    pub fn eval(&self, meta: &SampleMeta) -> f64 {
        match self {
            CostExpr::Tokens => meta.total_tokens() as f64,
            CostExpr::TextTokens => f64::from(meta.text_tokens),
            CostExpr::ImagePatches => f64::from(meta.image_patches),
            CostExpr::QuadraticTokens { scale } => {
                let t = meta.total_tokens() as f64;
                scale * t * t
            }
            CostExpr::Backbone(shape) => shape.flops(meta.total_tokens()),
            CostExpr::Encoder(shape) => shape.flops_sample(u64::from(meta.image_patches)),
        }
    }

    /// Short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            CostExpr::Tokens => "tokens",
            CostExpr::TextTokens => "text_tokens",
            CostExpr::ImagePatches => "image_patches",
            CostExpr::QuadraticTokens { .. } => "tokens^2",
            CostExpr::Backbone(_) => "backbone_flops",
            CostExpr::Encoder(_) => "encoder_flops",
        }
    }
}

/// One primitive operation of a declarative orchestration program.
#[derive(Debug, Clone, PartialEq)]
pub enum StrategyOp {
    /// `mix(weights, take)` — probabilistic source selection.
    Mix {
        /// Per-source weights in [`DGraph::sources`] order.
        weights: Vec<f64>,
        /// Samples to select.
        take: usize,
    },
    /// `distribute(axis, group_size)`.
    Distribute {
        /// Distribution axis.
        axis: DistributeAxis,
        /// Optional bucket grouping.
        group_size: Option<u32>,
    },
    /// Lazy distribute (produced by fusion; see [`DGraph::distribute_lazy`]).
    DistributeLazy {
        /// Distribution axis.
        axis: DistributeAxis,
        /// Optional bucket grouping.
        group_size: Option<u32>,
    },
    /// `cost(expr)`.
    Cost(CostExpr),
    /// `balance(method, opts)`.
    Balance {
        /// Bin-packing method.
        method: BalanceMethod,
        /// Balancing levels and microbatch count.
        opts: BalanceOpts,
    },
    /// Sequential chunking into microbatches (the unbalanced baseline).
    Chunk {
        /// Microbatches per bucket.
        microbatches: u32,
    },
    /// `broadcast_at(axis)`.
    BroadcastAt(Axis),
}

impl StrategyOp {
    /// Whether this op consumes previously registered costs.
    fn consumes_cost(&self) -> bool {
        matches!(self, StrategyOp::Balance { .. })
    }

    /// Whether this op consumes previously assigned buckets/bins.
    fn consumes_assignment(&self) -> bool {
        matches!(
            self,
            StrategyOp::Balance {
                opts: BalanceOpts {
                    inter_bucket: false,
                    ..
                },
                ..
            }
        )
    }

    /// Whether this op overwrites every bucket/bin assignment.
    fn overwrites_assignment(&self) -> bool {
        matches!(
            self,
            StrategyOp::Balance {
                opts: BalanceOpts {
                    inter_bucket: true,
                    ..
                },
                ..
            }
        )
    }

    /// Whether this op consumes the mix selection (making an earlier `mix`
    /// observable).
    fn consumes_selection(&self) -> bool {
        matches!(
            self,
            StrategyOp::Distribute { .. }
                | StrategyOp::DistributeLazy { .. }
                | StrategyOp::Cost(_)
                | StrategyOp::Balance { .. }
                | StrategyOp::Chunk { .. }
        )
    }
}

/// Which rewrites fired, and how often.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OptimizeReport {
    /// Dead `cost` ops removed.
    pub dead_costs: u32,
    /// Dead `balance`/`chunk` ops removed.
    pub dead_balances: u32,
    /// Dead `mix` ops removed.
    pub dead_mixes: u32,
    /// Duplicate `broadcast_at` ops removed.
    pub duplicate_broadcasts: u32,
    /// `distribute` ops fused into a following inter-bucket `balance`.
    pub fused_distributes: u32,
    /// Whether lineage recording was elided.
    pub lineage_elided: bool,
}

impl OptimizeReport {
    /// Total ops removed or fused.
    pub fn total_rewrites(&self) -> u32 {
        self.dead_costs
            + self.dead_balances
            + self.dead_mixes
            + self.duplicate_broadcasts
            + self.fused_distributes
    }
}

/// Optimizer configuration.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OptimizeOpts {
    /// Production mode: additionally elide lineage recording. Lineage is
    /// the one observable the optimizer is allowed to change — plans are
    /// always preserved exactly.
    pub elide_lineage: bool,
}

/// A declarative orchestration program: ordered primitives over a
/// [`DGraph`], executable directly or after [`StrategyProgram::optimize`].
#[derive(Debug, Clone, PartialEq)]
pub struct StrategyProgram {
    /// The primitive sequence.
    pub ops: Vec<StrategyOp>,
    /// Whether execution records lineage (set false by the optimizer in
    /// production mode).
    pub record_lineage: bool,
}

impl StrategyProgram {
    /// A program from ops, with lineage recording on.
    pub fn new(ops: Vec<StrategyOp>) -> Self {
        StrategyProgram {
            ops,
            record_lineage: true,
        }
    }

    /// Executes the program on `graph` in order.
    ///
    /// RNG discipline: exactly one value is drawn from `rng` per run; each
    /// *observable* `mix` (one whose selection some later op consumes)
    /// draws from its own substream keyed by its observable ordinal. Dead
    /// mixes use throwaway substreams. This makes execution invariant
    /// under dead-op elimination — the optimizer's plan-identity guarantee
    /// depends on it.
    pub fn run(&self, graph: &mut DGraph, rng: &mut SimRng) -> Result<(), DGraphError> {
        graph.set_record_lineage(self.record_lineage);
        let base = rng.next();
        let substream = |id: u64| SimRng::seed(base ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(id));
        // Mixes are numbered by their ordinal among *live* mixes (the ones
        // surviving liveness analysis) so that executing a program and its
        // optimized form draw identical selections.
        let live = liveness(&self.ops);
        let mut live_ordinal = 0u64;
        for (i, op) in self.ops.iter().enumerate() {
            match op {
                StrategyOp::Mix { weights, take } => {
                    let id = if live[i] {
                        live_ordinal += 1;
                        live_ordinal
                    } else {
                        // Effect fully overwritten by a later mix; any
                        // substream works, but keep it distinct.
                        u64::MAX - i as u64
                    };
                    graph.mix(weights, *take, &mut substream(id))?;
                }
                StrategyOp::Distribute { axis, group_size } => {
                    graph.distribute(*axis, *group_size).map(|_| ())?;
                }
                StrategyOp::DistributeLazy { axis, group_size } => {
                    graph.distribute_lazy(*axis, *group_size).map(|_| ())?;
                }
                StrategyOp::Cost(expr) => {
                    let expr = expr.clone();
                    graph.cost(move |meta| expr.eval(meta));
                }
                StrategyOp::Balance { method, opts } => graph.balance(*method, *opts)?,
                StrategyOp::Chunk { microbatches } => graph.chunk_microbatches(*microbatches)?,
                StrategyOp::BroadcastAt(axis) => graph.broadcast_at(*axis),
            }
        }
        Ok(())
    }

    /// Rewrites the program, returning the optimized program and a report
    /// of the rules that fired. The optimized program produces a
    /// plan identical to the original's (lineage excepted when
    /// `opts.elide_lineage` is set).
    pub fn optimize(&self, opts: OptimizeOpts) -> (StrategyProgram, OptimizeReport) {
        let mut report = OptimizeReport::default();
        let n = self.ops.len();

        // Fixpoint liveness for cost/balance/mix (see [`liveness`]); the
        // executor uses the same analysis for mix-substream numbering, so
        // removal never shifts a surviving mix's randomness.
        let mut keep = liveness(&self.ops);
        for (op, live) in self.ops.iter().zip(&keep) {
            if *live {
                continue;
            }
            match op {
                StrategyOp::Cost(_) => report.dead_costs += 1,
                StrategyOp::Balance { .. } | StrategyOp::Chunk { .. } => {
                    report.dead_balances += 1;
                }
                StrategyOp::Mix { .. } => report.dead_mixes += 1,
                _ => {}
            }
        }

        // Broadcast dedup: broadcast_at is idempotent per axis.
        let mut seen_axes: Vec<Axis> = Vec::new();
        for (op, keep_op) in self.ops.iter().zip(keep.iter_mut()) {
            if let StrategyOp::BroadcastAt(axis) = op {
                if seen_axes.contains(axis) {
                    *keep_op = false;
                    report.duplicate_broadcasts += 1;
                } else {
                    seen_axes.push(*axis);
                }
            }
        }

        // Assemble survivors, fusing distribute → balance(inter_bucket).
        let mut ops: Vec<StrategyOp> = Vec::with_capacity(n);
        let survivors: Vec<&StrategyOp> = self
            .ops
            .iter()
            .zip(&keep)
            .filter(|(_, k)| **k)
            .map(|(op, _)| op)
            .collect();
        // A distribute fuses with the next assignment-writer when every op
        // between them is transparent to assignments (cost reads only the
        // participant set; broadcast_at reads nothing) and that writer
        // recomputes every assignment from scratch.
        let fuses_forward = |from: usize| -> bool {
            for op in &survivors[from + 1..] {
                match op {
                    StrategyOp::Cost(_) | StrategyOp::BroadcastAt(_) => continue,
                    _ => return op.overwrites_assignment(),
                }
            }
            false
        };
        let mut i = 0;
        while i < survivors.len() {
            let op = survivors[i];
            let fusable = matches!(op, StrategyOp::Distribute { .. }) && fuses_forward(i);
            if fusable {
                if let StrategyOp::Distribute { axis, group_size } = op {
                    ops.push(StrategyOp::DistributeLazy {
                        axis: *axis,
                        group_size: *group_size,
                    });
                    report.fused_distributes += 1;
                }
            } else {
                ops.push(op.clone());
            }
            i += 1;
        }

        report.lineage_elided = opts.elide_lineage;
        (
            StrategyProgram {
                ops,
                record_lineage: self.record_lineage && !opts.elide_lineage,
            },
            report,
        )
    }

    /// The VLM backbone program of Fig 9 as a reusable constructor.
    // One argument per declarative primitive, in strategy order.
    #[allow(clippy::too_many_arguments)]
    pub fn backbone_balance(
        weights: Vec<f64>,
        take: usize,
        axis: DistributeAxis,
        group_size: Option<u32>,
        cost: CostExpr,
        method: BalanceMethod,
        microbatches: u32,
        broadcasts: &[Axis],
    ) -> Self {
        let mut ops = vec![
            StrategyOp::Mix { weights, take },
            StrategyOp::Distribute { axis, group_size },
        ];
        ops.extend(broadcasts.iter().map(|a| StrategyOp::BroadcastAt(*a)));
        ops.push(StrategyOp::Cost(cost));
        ops.push(StrategyOp::Balance {
            method,
            opts: BalanceOpts::full(microbatches),
        });
        StrategyProgram::new(ops)
    }
}

/// Fixpoint liveness analysis over cost/balance/mix ops.
///
/// An op is *dead* when its only observers are themselves dead — e.g. a
/// `cost` whose sole consumer is a `balance` that a later inter-bucket
/// `balance` fully overwrites. Single-pass scans miss such chains (and,
/// worse, removing a dead consumer can retroactively kill its producer),
/// so deadness is iterated to a fixpoint with dead ops skipped during
/// scans. Both the optimizer (removal) and the executor (mix-substream
/// numbering) use this same analysis, which is what makes dead-op
/// elimination plan-identity-preserving.
fn liveness(ops: &[StrategyOp]) -> Vec<bool> {
    let n = ops.len();
    let mut live = vec![true; n];
    loop {
        let mut changed = false;
        for i in 0..n {
            if !live[i] {
                continue;
            }
            let successors = || {
                ops[i + 1..]
                    .iter()
                    .zip(&live[i + 1..])
                    .filter(|(_, l)| **l)
                    .map(|(op, _)| op)
            };
            let dead = match &ops[i] {
                // Dead cost: another cost follows before any cost-consumer.
                // The last cost always stays — `plan()` reports per-bin
                // totals under the final costs.
                StrategyOp::Cost(_) => {
                    let mut verdict = false;
                    for op in successors() {
                        if op.consumes_cost() {
                            break;
                        }
                        if matches!(op, StrategyOp::Cost(_)) {
                            verdict = true;
                            break;
                        }
                    }
                    verdict
                }
                // Dead balance/chunk: a later inter-bucket balance
                // overwrites every assignment before anything reads it.
                StrategyOp::Balance { .. } | StrategyOp::Chunk { .. } => {
                    let mut verdict = false;
                    for op in successors() {
                        if op.consumes_assignment() {
                            break;
                        }
                        if op.overwrites_assignment() {
                            verdict = true;
                            break;
                        }
                    }
                    verdict
                }
                // Dead mix: another mix follows before any op consumes the
                // selection (mix re-queues *all* nodes, so the later one
                // fully overwrites). A trailing mix is observable: `plan()`
                // reads the states it rewrites.
                StrategyOp::Mix { .. } => {
                    let mut verdict = false;
                    for op in successors() {
                        if op.consumes_selection() {
                            break;
                        }
                        if matches!(op, StrategyOp::Mix { .. }) {
                            verdict = true;
                            break;
                        }
                    }
                    verdict
                }
                _ => false,
            };
            if dead {
                live[i] = false;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    live
}

/// Convenience: a `sample_id → cost` table as a [`DGraph::cost`] closure
/// (used with Ahead-of-Fetch stored costs; absent ids cost 0).
pub fn table_costfn(table: HashMap<u64, f64>) -> impl Fn(&SampleMeta) -> f64 {
    move |meta| table.get(&meta.sample_id).copied().unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::{BufferInfo, BufferSummary};
    use crate::plan::LoadingPlan;
    use msd_data::{Modality, SourceId};
    use msd_mesh::{ClientPlaceTree, DeviceMesh};

    fn info() -> BufferInfo {
        let mk = |loader: u32, src: u32, n: u64| BufferSummary {
            loader_id: loader,
            source: SourceId(src),
            samples: (0..n)
                .map(|i| SampleMeta {
                    sample_id: (u64::from(src) << 48) | i,
                    source: SourceId(src),
                    modality: Modality::Image,
                    text_tokens: 10 + (i as u32 * 53) % 300,
                    image_patches: 100 + (i as u32 * 97) % 2000,
                    raw_bytes: 256,
                })
                .collect(),
            mean_transform_ns: 100.0,
        };
        BufferInfo::new(vec![mk(0, 0, 40), mk(1, 1, 40)])
    }

    fn graph() -> DGraph {
        let mut g = DGraph::from_buffer_infos(&info(), crate::dgraph::MetaView::Tokens);
        let mesh = DeviceMesh::pp_dp_cp_tp(1, 4, 1, 1).unwrap();
        g.init(ClientPlaceTree::from_device_mesh(&mesh));
        g
    }

    fn run_both(program: &StrategyProgram, opts: OptimizeOpts) -> (LoadingPlan, LoadingPlan) {
        let (optimized, _) = program.optimize(opts);
        let mut g1 = graph();
        let mut g2 = graph();
        let mut r1 = SimRng::seed(99);
        let mut r2 = SimRng::seed(99);
        program.run(&mut g1, &mut r1).unwrap();
        optimized.run(&mut g2, &mut r2).unwrap();
        (g1.plan(0).unwrap(), g2.plan(0).unwrap())
    }

    fn redundant_program() -> StrategyProgram {
        StrategyProgram::new(vec![
            StrategyOp::Mix {
                weights: vec![1.0, 1.0],
                take: 80,
            },
            StrategyOp::Mix {
                weights: vec![1.0, 2.0],
                take: 48,
            },
            StrategyOp::Distribute {
                axis: DistributeAxis::DP,
                group_size: None,
            },
            StrategyOp::BroadcastAt(Axis::TP),
            StrategyOp::BroadcastAt(Axis::TP),
            StrategyOp::Cost(CostExpr::TextTokens),
            StrategyOp::Cost(CostExpr::QuadraticTokens { scale: 1.0 }),
            StrategyOp::Chunk { microbatches: 2 },
            StrategyOp::Balance {
                method: BalanceMethod::Greedy,
                opts: BalanceOpts::full(2),
            },
        ])
    }

    #[test]
    fn cost_exprs_evaluate() {
        let meta = SampleMeta {
            sample_id: 1,
            source: SourceId(0),
            modality: Modality::Image,
            text_tokens: 30,
            image_patches: 70,
            raw_bytes: 0,
        };
        assert_eq!(CostExpr::Tokens.eval(&meta), 100.0);
        assert_eq!(CostExpr::TextTokens.eval(&meta), 30.0);
        assert_eq!(CostExpr::ImagePatches.eval(&meta), 70.0);
        assert_eq!(CostExpr::QuadraticTokens { scale: 0.5 }.eval(&meta), 5000.0);
    }

    #[test]
    fn optimizer_removes_all_redundancies() {
        let program = redundant_program();
        let (optimized, report) = program.optimize(OptimizeOpts::default());
        assert_eq!(report.dead_mixes, 1);
        assert_eq!(report.duplicate_broadcasts, 1);
        assert_eq!(report.dead_costs, 1);
        assert_eq!(report.dead_balances, 1); // The chunk.
        assert_eq!(report.fused_distributes, 1);
        assert_eq!(report.total_rewrites(), 5);
        // 9 ops − 4 removed, distribute swapped for lazy.
        assert_eq!(optimized.ops.len(), 5);
        assert!(matches!(
            optimized.ops[1],
            StrategyOp::DistributeLazy { .. }
        ));
    }

    #[test]
    fn optimized_program_produces_identical_plan() {
        let (original, optimized) = run_both(&redundant_program(), OptimizeOpts::default());
        assert_eq!(original, optimized);
    }

    #[test]
    fn lineage_elision_preserves_plan_but_drops_trace() {
        let program = redundant_program();
        let (optimized, report) = program.optimize(OptimizeOpts {
            elide_lineage: true,
        });
        assert!(report.lineage_elided);
        assert!(!optimized.record_lineage);
        let mut g1 = graph();
        let mut g2 = graph();
        let mut r1 = SimRng::seed(5);
        let mut r2 = SimRng::seed(5);
        program.run(&mut g1, &mut r1).unwrap();
        optimized.run(&mut g2, &mut r2).unwrap();
        assert_eq!(g1.plan(3).unwrap(), g2.plan(3).unwrap());
        assert!(!g1.lineage().is_empty());
        assert!(g2.lineage().is_empty());
    }

    #[test]
    fn cost_before_consumer_is_not_dead() {
        // cost → balance → cost: both costs observable (first by the
        // balance, second by plan()'s bin totals).
        let program = StrategyProgram::new(vec![
            StrategyOp::Distribute {
                axis: DistributeAxis::DP,
                group_size: None,
            },
            StrategyOp::Cost(CostExpr::Tokens),
            StrategyOp::Balance {
                method: BalanceMethod::Greedy,
                opts: BalanceOpts::full(2),
            },
            StrategyOp::Cost(CostExpr::ImagePatches),
        ]);
        let (optimized, report) = program.optimize(OptimizeOpts::default());
        assert_eq!(report.dead_costs, 0);
        assert_eq!(optimized.ops.len(), 4);
        let (p1, p2) = run_both(&program, OptimizeOpts::default());
        assert_eq!(p1, p2);
    }

    #[test]
    fn balance_before_intra_only_balance_is_not_dead() {
        // balance(full) → balance(intra-only): the second reads the first's
        // bucket assignment; the first must survive.
        let program = StrategyProgram::new(vec![
            StrategyOp::Distribute {
                axis: DistributeAxis::DP,
                group_size: None,
            },
            StrategyOp::Cost(CostExpr::Tokens),
            StrategyOp::Balance {
                method: BalanceMethod::KarmarkarKarp,
                opts: BalanceOpts::full(2),
            },
            StrategyOp::Balance {
                method: BalanceMethod::Greedy,
                opts: BalanceOpts::inter_microbatch(2),
            },
        ]);
        let (_, report) = program.optimize(OptimizeOpts::default());
        assert_eq!(report.dead_balances, 0);
        // Distribute DOES fuse: the cost between it and the full balance is
        // transparent, the full balance recomputes all assignments, and the
        // intra-only balance then reads the *full balance's* buckets —
        // never distribute's.
        assert_eq!(report.fused_distributes, 1);
        let (p1, p2) = run_both(&program, OptimizeOpts::default());
        assert_eq!(p1, p2);
    }

    #[test]
    fn mix_before_consumer_is_not_dead() {
        // mix → cost → mix: the first mix's selection feeds cost's
        // participant set... cost applies to participants, so the first mix
        // is observable.
        let program = StrategyProgram::new(vec![
            StrategyOp::Mix {
                weights: vec![1.0, 0.0],
                take: 10,
            },
            StrategyOp::Cost(CostExpr::Tokens),
            StrategyOp::Mix {
                weights: vec![0.0, 1.0],
                take: 10,
            },
            StrategyOp::Distribute {
                axis: DistributeAxis::DP,
                group_size: None,
            },
        ]);
        let (_, report) = program.optimize(OptimizeOpts::default());
        assert_eq!(report.dead_mixes, 0);
    }

    #[test]
    fn fused_lazy_distribute_matches_eager() {
        let program = StrategyProgram::new(vec![
            StrategyOp::Mix {
                weights: vec![1.0, 1.0],
                take: 32,
            },
            StrategyOp::Distribute {
                axis: DistributeAxis::DP,
                group_size: None,
            },
            StrategyOp::Cost(CostExpr::QuadraticTokens { scale: 1e-3 }),
            StrategyOp::Balance {
                method: BalanceMethod::Greedy,
                opts: BalanceOpts::full(4),
            },
        ]);
        let (optimized, report) = program.optimize(OptimizeOpts::default());
        // Cost between distribute and balance is transparent → fuses.
        assert_eq!(report.fused_distributes, 1);
        let (p1, p2) = run_both(&program, OptimizeOpts::default());
        assert_eq!(p1, p2);
        let _ = optimized;

        // Adjacent case fuses and matches too.
        let adjacent = StrategyProgram::new(vec![
            StrategyOp::Mix {
                weights: vec![1.0, 1.0],
                take: 32,
            },
            StrategyOp::Cost(CostExpr::QuadraticTokens { scale: 1e-3 }),
            StrategyOp::Distribute {
                axis: DistributeAxis::DP,
                group_size: None,
            },
            StrategyOp::Balance {
                method: BalanceMethod::Greedy,
                opts: BalanceOpts::full(4),
            },
        ]);
        let (_, report) = adjacent.optimize(OptimizeOpts::default());
        assert_eq!(report.fused_distributes, 1);
        let (p1, p2) = run_both(&adjacent, OptimizeOpts::default());
        assert_eq!(p1, p2);
    }

    #[test]
    fn optimizer_is_idempotent() {
        let program = redundant_program();
        let (once, _) = program.optimize(OptimizeOpts::default());
        let (twice, report) = once.optimize(OptimizeOpts::default());
        assert_eq!(once, twice);
        assert_eq!(report.total_rewrites(), 0);
    }

    #[test]
    fn backbone_constructor_shape() {
        let program = StrategyProgram::backbone_balance(
            vec![1.0, 1.0],
            32,
            DistributeAxis::DP,
            None,
            CostExpr::Tokens,
            BalanceMethod::Greedy,
            2,
            &[Axis::TP, Axis::CP],
        );
        assert_eq!(program.ops.len(), 6);
        let mut g = graph();
        let mut rng = SimRng::seed(1);
        program.run(&mut g, &mut rng).unwrap();
        let plan = g.plan(0).unwrap();
        assert_eq!(plan.all_samples().len(), 32);
        assert_eq!(plan.broadcast_axes, vec![Axis::TP, Axis::CP]);
    }

    #[test]
    fn table_costfn_looks_up_ids() {
        let mut table = HashMap::new();
        table.insert(7u64, 42.0);
        let f = table_costfn(table);
        let mut meta = SampleMeta {
            sample_id: 7,
            source: SourceId(0),
            modality: Modality::Text,
            text_tokens: 1,
            image_patches: 0,
            raw_bytes: 0,
        };
        assert_eq!(f(&meta), 42.0);
        meta.sample_id = 8;
        assert_eq!(f(&meta), 0.0);
    }
}
