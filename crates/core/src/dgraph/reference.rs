//! How the planner built and mixed a `DGraph` before `mix` read the
//! gathered buffers in place: `from_buffer_infos` growing a node per
//! buffered sample, `mix` rebuilding per-source queues and re-summing the
//! positive weights on every draw, and the hybrid encoder graph rebuilt
//! from the buffers and cut down by `retain_ids`. The bodies are the old
//! ones, less the id index nothing here reads. Kept as the reference only
//! — compiled into `msd_core`'s unit tests for the equivalence proptests
//! in `dgraph::tests`.

use std::collections::{BTreeMap, HashSet};

use msd_balance::BalanceMethod;
use msd_mesh::DistributeAxis;
use msd_sim::SimRng;

use super::{meta_in, BalanceOpts, DGraph, DGraphError, DNode, MetaView, NodeState};
use crate::buffer::BufferInfo;
use crate::plan::LoadingPlan;
use crate::planner::{Planner, Strategy};

/// Builds a graph over the gathered buffer metadata, filtered by `view`.
pub fn from_buffer_infos(info: &BufferInfo, view: MetaView) -> DGraph {
    let mut nodes = Vec::new();
    let mut sources = Vec::new();
    for (summary, row, meta) in info.rows() {
        if !view.includes(meta) {
            continue;
        }
        sources.push(meta.source);
        nodes.push(DNode {
            summary,
            row,
            state: NodeState::Buffered,
            cost: view.default_cost(meta),
        });
    }
    sources.sort_unstable();
    sources.dedup();
    DGraph {
        nodes,
        source_order: sources,
        ..DGraph::over(view, info.clone(), std::iter::empty)
    }
}

/// Restricts the graph to the given sample ids.
pub fn retain_ids(g: &mut DGraph, ids: &HashSet<u64>) {
    let info = &g.info;
    g.nodes
        .retain(|n| ids.contains(&meta_in(info, n).sample_id));
    let mut sources: Vec<msd_data::SourceId> = g.nodes.iter().map(|n| g.meta(n).source).collect();
    sources.sort_unstable();
    sources.dedup();
    g.source_order = sources;
}

/// Selects up to `take` samples by per-source FIFO queues.
pub fn mix(
    g: &mut DGraph,
    weights: &[f64],
    take: usize,
    rng: &mut SimRng,
) -> Result<(), DGraphError> {
    if weights.len() != g.source_order.len() {
        return Err(DGraphError::WeightArity {
            sources: g.source_order.len(),
            weights: weights.len(),
        });
    }
    // FIFO queues of node indices per source.
    let mut queues: Vec<Vec<usize>> = vec![Vec::new(); g.source_order.len()];
    for (i, n) in g.nodes.iter().enumerate() {
        let s = g
            .source_order
            .binary_search(&g.meta(n).source)
            .expect("source indexed at construction");
        queues[s].push(i);
    }
    for q in &mut queues {
        q.reverse(); // Pop from the back = FIFO front.
    }
    let mut live_weights: Vec<f64> = weights.to_vec();
    let mut selected = 0usize;
    while selected < take {
        // Zero out exhausted sources.
        for (s, q) in queues.iter().enumerate() {
            if q.is_empty() {
                live_weights[s] = 0.0;
            }
        }
        let Some(s) = rng.weighted_index(&live_weights) else {
            break; // All weighted sources exhausted.
        };
        let idx = queues[s].pop().expect("nonempty by weight masking");
        g.nodes[idx].state = NodeState::Sampled;
        selected += 1;
    }
    for q in queues {
        for idx in q {
            g.nodes[idx].state = NodeState::Excluded;
        }
    }
    // The old graph recomputed this rule in every later primitive.
    g.participants = Some(
        g.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| !matches!(n.state, NodeState::Excluded))
            .map(|(i, _)| i)
            .collect(),
    );
    Ok(())
}

/// `Planner::generate`'s compute phase over the reference graph
/// builders, drawing from `rng` in place of the planner's own.
pub fn generate(
    planner: &Planner,
    info: &BufferInfo,
    rng: &mut SimRng,
) -> Result<LoadingPlan, DGraphError> {
    let step = planner.step();
    let config = &planner.config;
    let weights = config.schedule.weights(step);
    let mut graph = from_buffer_infos(info, MetaView::Tokens);
    graph.init(planner.tree().clone());
    let gw: Vec<f64> = graph
        .sources()
        .iter()
        .map(|s| {
            planner
                .sources()
                .iter()
                .position(|cs| cs == s)
                .and_then(|i| weights.get(i).copied())
                .unwrap_or(0.0)
        })
        .collect();
    mix(&mut graph, &gw, config.samples_per_step, rng)?;
    graph.distribute(config.axis, config.group_size)?;
    for axis in &config.broadcast_axes {
        graph.broadcast_at(*axis);
    }
    let m = config.microbatches;
    match &planner.strategy {
        Strategy::Vanilla => {
            graph.chunk_microbatches(m)?;
        }
        Strategy::BackboneBalance { method, backbone }
        | Strategy::HybridBalance {
            method, backbone, ..
        } => {
            let shape = *backbone;
            graph.cost(move |meta| shape.flops(meta.total_tokens()));
            graph.balance(*method, BalanceOpts::full(m))?;
        }
    }
    let mut plan = graph.plan(step)?;
    if let Strategy::HybridBalance { encoder, .. } = &planner.strategy {
        let sampled: HashSet<u64> = plan.all_samples().into_iter().collect();
        let mut enc = from_buffer_infos(info, MetaView::Images);
        retain_ids(&mut enc, &sampled);
        enc.init(planner.tree().clone());
        enc.distribute(DistributeAxis::World, config.group_size)?;
        let eshape = *encoder;
        enc.cost(move |meta| eshape.flops_sample(u64::from(meta.image_patches)));
        enc.balance(BalanceMethod::Interleave, BalanceOpts::full(1))?;
        plan.subplans = BTreeMap::from([("encoder".to_string(), enc.plan(step)?)]);
    }
    Ok(plan)
}
