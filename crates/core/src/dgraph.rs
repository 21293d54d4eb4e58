//! `DGraph`: the stateful dataflow graph behind the declarative data plane.
//!
//! A `DGraph` tracks every buffered sample through its scheduling lifecycle
//! (`buffered → sampled → distributed → balanced → planned`); each node's
//! `state` records where its sample went. The paper's primitives map to
//! methods:
//!
//! | paper                         | here                                |
//! |-------------------------------|-------------------------------------|
//! | `DGraph.from_buffer_infos`    | [`DGraph::from_buffer_infos`]       |
//! | `dgraph.init(clientPlaceTree)`| [`DGraph::init`]                    |
//! | `dgraph.mix(schedule)`        | [`DGraph::mix`]                     |
//! | `dgraph.distribute(axis, gs)` | [`DGraph::distribute`]              |
//! | `dgraph.cost(costfn)`         | [`DGraph::cost`]                    |
//! | `dgraph.balance(method, *)`   | [`DGraph::balance`]                 |
//! | `dgraph.broadcast_at(dim)`    | [`DGraph::broadcast_at`]            |
//! | `dgraph.plan()`               | [`DGraph::plan`]                    |
//!
//! The Fig 9 seven-line LLM strategy reads almost identically in Rust; see
//! the crate examples.

use std::collections::{BTreeMap, HashMap};

use msd_balance::{balance as run_balance, BalanceMethod};
use msd_data::SampleMeta;
use msd_mesh::{Axis, ClientPlaceTree, DistributeAxis};
use msd_sim::SimRng;

use crate::buffer::BufferInfo;
use crate::plan::{BinPlan, BucketPlan, LoadingPlan};

/// Which samples (and which default cost basis) a graph views.
///
/// VLM strategies build *two* graphs over the same buffers: a token graph
/// for the backbone and an image graph for the encoder (paper Fig 9).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetaView {
    /// Every sample; cost basis = total (text + image) tokens.
    Tokens,
    /// Only samples with image payloads; cost basis = image patches.
    Images,
    /// Every sample; cost basis = text tokens only.
    Text,
}

impl MetaView {
    fn includes(self, meta: &SampleMeta) -> bool {
        match self {
            MetaView::Tokens | MetaView::Text => true,
            MetaView::Images => meta.image_patches > 0,
        }
    }

    fn default_cost(self, meta: &SampleMeta) -> f64 {
        match self {
            MetaView::Tokens => meta.total_tokens() as f64,
            MetaView::Images => f64::from(meta.image_patches),
            MetaView::Text => f64::from(meta.text_tokens),
        }
    }
}

/// Scheduling state of a sample node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NodeState {
    /// In a loader buffer, visible to the planner.
    Buffered,
    /// Selected by `mix` for this step.
    Sampled,
    /// Not selected; stays buffered.
    Excluded,
    /// Assigned to a consumer bucket.
    Distributed {
        /// Bucket index.
        bucket: u32,
    },
    /// Assigned to a microbatch bin.
    Balanced {
        /// Bucket index.
        bucket: u32,
        /// Bin (microbatch) index.
        bin: u32,
    },
}

/// One sample node.
#[derive(Debug, Clone)]
pub struct DNode {
    /// Sample id.
    pub id: u64,
    /// Owning loader.
    pub loader: u32,
    /// Planner-visible metadata.
    pub meta: SampleMeta,
    /// Current lifecycle state.
    pub state: NodeState,
    /// Cost under the registered cost function (or the view default).
    pub cost: f64,
}

/// Options for [`DGraph::balance`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BalanceOpts {
    /// Number of microbatches (bins) per bucket.
    pub microbatches: u32,
    /// Rebalance samples *across* buckets (inter-rank).
    pub inter_bucket: bool,
    /// Balance samples across bins *within* each bucket (inter-microbatch).
    pub intra_bucket: bool,
}

impl BalanceOpts {
    /// The paper's conservative default: inter-microbatch balancing only,
    /// keeping each bucket's global-batch membership fixed.
    pub fn inter_microbatch(microbatches: u32) -> Self {
        BalanceOpts {
            microbatches,
            inter_bucket: false,
            intra_bucket: true,
        }
    }

    /// Full two-level balancing (across buckets, then across bins).
    pub fn full(microbatches: u32) -> Self {
        BalanceOpts {
            microbatches,
            inter_bucket: true,
            intra_bucket: true,
        }
    }
}

/// Errors from misuse of the primitive sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DGraphError {
    /// `init` was not called before a primitive that needs the tree.
    NotInitialized,
    /// `distribute` was not called before `balance`/`plan`.
    NotDistributed,
    /// The weight vector length does not match the source count.
    WeightArity {
        /// Sources present in the graph.
        sources: usize,
        /// Weights supplied.
        weights: usize,
    },
}

impl std::fmt::Display for DGraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DGraphError::NotInitialized => write!(f, "DGraph::init must be called first"),
            DGraphError::NotDistributed => {
                write!(f, "DGraph::distribute must be called before balance/plan")
            }
            DGraphError::WeightArity { sources, weights } => write!(
                f,
                "mix weights arity mismatch: {sources} sources vs {weights} weights"
            ),
        }
    }
}

impl std::error::Error for DGraphError {}

/// The stateful dataflow graph. See the module docs for the primitive map.
#[derive(Debug, Clone)]
pub struct DGraph {
    view: MetaView,
    nodes: Vec<DNode>,
    by_id: HashMap<u64, usize>,
    /// Source ids present, sorted (index = weight-vector position).
    source_order: Vec<msd_data::SourceId>,
    tree: Option<ClientPlaceTree>,
    axis: Option<DistributeAxis>,
    group_size: Option<u32>,
    microbatches: u32,
    mixed: bool,
    broadcast_axes: Vec<Axis>,
    /// Wall-clock nanoseconds spent inside `cost` (Table 2).
    pub cost_api_ns: u64,
    /// Wall-clock nanoseconds spent inside `balance` (Table 2).
    pub balance_api_ns: u64,
}

impl DGraph {
    /// Builds a graph over the gathered buffer metadata, filtered by `view`.
    pub fn from_buffer_infos(info: &BufferInfo, view: MetaView) -> Self {
        let mut nodes = Vec::new();
        let mut by_id = HashMap::new();
        let mut sources = Vec::new();
        for (loader, meta) in info.iter_samples() {
            if !view.includes(meta) {
                continue;
            }
            by_id.insert(meta.sample_id, nodes.len());
            sources.push(meta.source);
            nodes.push(DNode {
                id: meta.sample_id,
                loader,
                meta: *meta,
                state: NodeState::Buffered,
                cost: view.default_cost(meta),
            });
        }
        sources.sort_unstable();
        sources.dedup();
        DGraph {
            view,
            nodes,
            by_id,
            source_order: sources,
            tree: None,
            axis: None,
            group_size: None,
            microbatches: 1,
            mixed: false,
            broadcast_axes: Vec::new(),
            cost_api_ns: 0,
            balance_api_ns: 0,
        }
    }

    /// Binds the trainer topology.
    pub fn init(&mut self, tree: ClientPlaceTree) {
        self.tree = Some(tree);
    }

    /// Restricts the graph to the given sample ids (used to derive a
    /// subgraph — e.g. the encoder image graph over the samples the main
    /// graph's `mix` selected).
    pub fn retain_ids(&mut self, ids: &std::collections::HashSet<u64>) {
        self.nodes.retain(|n| ids.contains(&n.id));
        self.by_id = self
            .nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (n.id, i))
            .collect();
        let mut sources: Vec<msd_data::SourceId> =
            self.nodes.iter().map(|n| n.meta.source).collect();
        sources.sort_unstable();
        sources.dedup();
        self.source_order = sources;
    }

    /// The graph's view.
    pub fn view(&self) -> MetaView {
        self.view
    }

    /// All nodes (read-only).
    pub fn nodes(&self) -> &[DNode] {
        &self.nodes
    }

    /// Node lookup by sample id.
    pub fn node(&self, sample: u64) -> Option<&DNode> {
        self.by_id.get(&sample).map(|i| &self.nodes[*i])
    }

    /// Sources visible to this graph, sorted (defines weight order).
    pub fn sources(&self) -> &[msd_data::SourceId] {
        &self.source_order
    }

    /// `mix(schedule)`: probabilistically selects up to `take` samples
    /// according to per-source `weights` (ordered by [`DGraph::sources`]).
    /// Unselected samples are marked [`NodeState::Excluded`] and stay
    /// buffered for future steps.
    pub fn mix(
        &mut self,
        weights: &[f64],
        take: usize,
        rng: &mut SimRng,
    ) -> Result<(), DGraphError> {
        if weights.len() != self.source_order.len() {
            return Err(DGraphError::WeightArity {
                sources: self.source_order.len(),
                weights: weights.len(),
            });
        }
        // FIFO queues of node indices per source.
        let mut queues: Vec<Vec<usize>> = vec![Vec::new(); self.source_order.len()];
        for (i, n) in self.nodes.iter().enumerate() {
            let s = self
                .source_order
                .binary_search(&n.meta.source)
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
            self.nodes[idx].state = NodeState::Sampled;
            selected += 1;
        }
        for q in queues {
            for idx in q {
                self.nodes[idx].state = NodeState::Excluded;
            }
        }
        self.mixed = true;
        Ok(())
    }

    /// Indices of nodes participating this step (everything buffered if
    /// `mix` was not called, otherwise the sampled set).
    fn participants(&self) -> Vec<usize> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| {
                if self.mixed {
                    !matches!(n.state, NodeState::Excluded)
                } else {
                    true
                }
            })
            .map(|(i, _)| i)
            .collect()
    }

    /// `distribute(axis, group_size)`: creates consumer buckets from the
    /// `ClientPlaceTree` and assigns participating samples round-robin (in
    /// buffer-arrival order — the unbalanced baseline assignment).
    pub fn distribute(
        &mut self,
        axis: DistributeAxis,
        group_size: Option<u32>,
    ) -> Result<u32, DGraphError> {
        let tree = self.tree.as_ref().ok_or(DGraphError::NotInitialized)?;
        let n = tree.bucket_count(axis, group_size);
        self.axis = Some(axis);
        self.group_size = group_size;
        for (pos, idx) in self.participants().into_iter().enumerate() {
            let bucket = (pos as u32) % n;
            self.nodes[idx].state = NodeState::Distributed { bucket };
        }
        Ok(n)
    }

    /// `cost(costfn)`: registers per-sample costs from metadata. Costs
    /// propagate to the subsequent `balance`.
    pub fn cost(&mut self, costfn: impl Fn(&SampleMeta) -> f64) {
        let t0 = std::time::Instant::now();
        for idx in self.participants() {
            self.nodes[idx].cost = costfn(&self.nodes[idx].meta).max(0.0);
        }
        self.cost_api_ns += t0.elapsed().as_nanos() as u64;
    }

    /// `balance(method, *)`: cost-aware redistribution into buckets and
    /// microbatch bins. See [`BalanceOpts`] for the two levels.
    pub fn balance(&mut self, method: BalanceMethod, opts: BalanceOpts) -> Result<(), DGraphError> {
        let tree = self.tree.as_ref().ok_or(DGraphError::NotInitialized)?;
        let axis = self.axis.ok_or(DGraphError::NotDistributed)?;
        let n = tree.bucket_count(axis, self.group_size) as usize;
        self.microbatches = opts.microbatches.max(1);
        let t0 = std::time::Instant::now();

        let participants = self.participants();
        // Level 1: bucket assignment.
        let bucket_of: Vec<(usize, u32)> = if opts.inter_bucket {
            let costs: Vec<f64> = participants.iter().map(|i| self.nodes[*i].cost).collect();
            let assignment = run_balance(&costs, n, method);
            let item_bins = assignment.item_bins(costs.len());
            participants
                .iter()
                .zip(item_bins)
                .map(|(idx, b)| (*idx, b as u32))
                .collect()
        } else {
            participants
                .iter()
                .map(|idx| {
                    let b = match self.nodes[*idx].state {
                        NodeState::Distributed { bucket } | NodeState::Balanced { bucket, .. } => {
                            bucket
                        }
                        _ => 0,
                    };
                    (*idx, b)
                })
                .collect()
        };

        // Level 2: bins within each bucket.
        let m = self.microbatches as usize;
        let mut per_bucket: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (idx, b) in &bucket_of {
            per_bucket[*b as usize].push(*idx);
        }
        for (b, members) in per_bucket.into_iter().enumerate() {
            let bins: Vec<Vec<usize>> = if opts.intra_bucket {
                let costs: Vec<f64> = members.iter().map(|i| self.nodes[*i].cost).collect();
                run_balance(&costs, m, method)
                    .bins
                    .into_iter()
                    .map(|bin| bin.into_iter().map(|k| members[k]).collect())
                    .collect()
            } else {
                // Sequential chunking.
                let chunk = members.len().div_ceil(m.max(1)).max(1);
                let mut out: Vec<Vec<usize>> =
                    members.chunks(chunk).map(<[usize]>::to_vec).collect();
                out.resize(m, Vec::new());
                out
            };
            for (bin_idx, bin) in bins.into_iter().enumerate() {
                for idx in bin {
                    self.nodes[idx].state = NodeState::Balanced {
                        bucket: b as u32,
                        bin: bin_idx as u32,
                    };
                }
            }
        }
        self.balance_api_ns += t0.elapsed().as_nanos() as u64;
        Ok(())
    }

    /// Sequentially chunks each bucket into `m` microbatches without
    /// cost-aware reordering — the unbalanced ("Vanilla") baseline.
    pub fn chunk_microbatches(&mut self, m: u32) -> Result<(), DGraphError> {
        self.balance(
            BalanceMethod::Greedy, // Method unused when both levels are off.
            BalanceOpts {
                microbatches: m,
                inter_bucket: false,
                intra_bucket: false,
            },
        )
    }

    /// `broadcast_at(dim)`: declares a trainer-side broadcast along `axis`;
    /// the Data Constructor will elide fetches for ranks with a nonzero
    /// coordinate there.
    pub fn broadcast_at(&mut self, axis: Axis) {
        if !self.broadcast_axes.contains(&axis) {
            self.broadcast_axes.push(axis);
        }
    }

    /// `plan()`: finalizes the loading plan for `step`.
    pub fn plan(&self, step: u64) -> Result<LoadingPlan, DGraphError> {
        let tree = self.tree.as_ref().ok_or(DGraphError::NotInitialized)?;
        let axis = self.axis.ok_or(DGraphError::NotDistributed)?;
        let bucket_clients = tree.buckets(axis, self.group_size);
        let n = bucket_clients.len();
        let m = self.microbatches as usize;

        let mut bins: Vec<Vec<Vec<u64>>> = vec![vec![Vec::new(); m]; n];
        let mut costs: Vec<Vec<f64>> = vec![vec![0.0; m]; n];
        let mut excluded = Vec::new();
        let mut directives: BTreeMap<u32, Vec<u64>> = BTreeMap::new();
        for node in &self.nodes {
            match node.state {
                NodeState::Balanced { bucket, bin } => {
                    bins[bucket as usize][bin as usize].push(node.id);
                    costs[bucket as usize][bin as usize] += node.cost;
                    directives.entry(node.loader).or_default().push(node.id);
                }
                NodeState::Distributed { bucket } => {
                    // Un-balanced graphs: single implicit bin 0.
                    bins[bucket as usize][0].push(node.id);
                    costs[bucket as usize][0] += node.cost;
                    directives.entry(node.loader).or_default().push(node.id);
                }
                NodeState::Excluded | NodeState::Buffered => excluded.push(node.id),
                NodeState::Sampled => {
                    // Sampled but never distributed: should not happen in a
                    // well-formed program; treat as excluded.
                    excluded.push(node.id);
                }
            }
        }

        let buckets = bucket_clients
            .into_iter()
            .enumerate()
            .map(|(b, clients)| BucketPlan {
                bucket: b as u32,
                clients,
                bins: (0..m)
                    .map(|k| BinPlan {
                        bin: k as u32,
                        samples: std::mem::take(&mut bins[b][k]),
                        total_cost: costs[b][k],
                    })
                    .collect(),
            })
            .collect();

        Ok(LoadingPlan {
            step,
            axis,
            buckets,
            excluded,
            broadcast_axes: self.broadcast_axes.clone(),
            directives,
            subplans: BTreeMap::new(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::{BufferInfo, BufferSummary};
    use msd_data::{Modality, SourceId};
    use msd_mesh::DeviceMesh;

    fn meta(id: u64, src: u32, text: u32, img: u32) -> SampleMeta {
        SampleMeta {
            sample_id: id,
            source: SourceId(src),
            modality: if img > 0 {
                Modality::Image
            } else {
                Modality::Text
            },
            text_tokens: text,
            image_patches: img,
            raw_bytes: 100,
        }
    }

    fn buffer_info() -> BufferInfo {
        // Two loaders, two sources: loader 0 has text-only, loader 1 mixed.
        BufferInfo::new(vec![
            BufferSummary {
                loader_id: 0,
                source: SourceId(0),
                samples: (0..8).map(|i| meta(i, 0, 100 + i as u32 * 50, 0)).collect(),
                mean_transform_ns: 100.0,
            },
            BufferSummary {
                loader_id: 1,
                source: SourceId(1),
                samples: (8..16)
                    .map(|i| meta(i, 1, 50, 1000 + i as u32 * 300))
                    .collect(),
                mean_transform_ns: 5000.0,
            },
        ])
    }

    fn tree(dp: u32, cp: u32, tp: u32) -> ClientPlaceTree {
        ClientPlaceTree::from_device_mesh(&DeviceMesh::pp_dp_cp_tp(1, dp, cp, tp).unwrap())
    }

    #[test]
    fn views_filter_samples() {
        let info = buffer_info();
        let tokens = DGraph::from_buffer_infos(&info, MetaView::Tokens);
        let images = DGraph::from_buffer_infos(&info, MetaView::Images);
        assert_eq!(tokens.nodes().len(), 16);
        assert_eq!(images.nodes().len(), 8);
        assert!(images.nodes().iter().all(|n| n.meta.image_patches > 0));
        // Default cost bases differ.
        assert_eq!(tokens.node(8).unwrap().cost, (50 + 1000 + 8 * 300) as f64);
        assert_eq!(images.node(8).unwrap().cost, (1000 + 8 * 300) as f64);
    }

    #[test]
    fn primitives_require_init_and_distribute() {
        let info = buffer_info();
        let mut g = DGraph::from_buffer_infos(&info, MetaView::Tokens);
        assert_eq!(
            g.distribute(DistributeAxis::DP, None),
            Err(DGraphError::NotInitialized)
        );
        g.init(tree(2, 1, 1));
        assert_eq!(
            g.balance(BalanceMethod::Greedy, BalanceOpts::full(2)),
            Err(DGraphError::NotDistributed)
        );
        assert!(g.plan(0).is_err());
        assert_eq!(g.distribute(DistributeAxis::DP, None), Ok(2));
        assert!(g.plan(0).is_ok());
    }

    #[test]
    fn distribute_round_robins_all_participants() {
        let info = buffer_info();
        let mut g = DGraph::from_buffer_infos(&info, MetaView::Tokens);
        g.init(tree(4, 1, 1));
        g.distribute(DistributeAxis::DP, None).unwrap();
        let plan = g.plan(0).unwrap();
        assert_eq!(plan.all_samples().len(), 16);
        for b in &plan.buckets {
            assert_eq!(b.sample_count(), 4);
        }
    }

    #[test]
    fn mix_respects_weights_and_excludes_rest() {
        let info = buffer_info();
        let mut g = DGraph::from_buffer_infos(&info, MetaView::Tokens);
        g.init(tree(2, 1, 1));
        let mut rng = SimRng::seed(7);
        // Only source 1.
        g.mix(&[0.0, 1.0], 4, &mut rng).unwrap();
        g.distribute(DistributeAxis::DP, None).unwrap();
        let plan = g.plan(0).unwrap();
        let scheduled = plan.all_samples();
        assert_eq!(scheduled.len(), 4);
        assert!(scheduled.iter().all(|id| *id >= 8), "{scheduled:?}");
        assert_eq!(plan.excluded.len(), 12);
    }

    #[test]
    fn mix_arity_mismatch_errors() {
        let info = buffer_info();
        let mut g = DGraph::from_buffer_infos(&info, MetaView::Tokens);
        g.init(tree(2, 1, 1));
        let mut rng = SimRng::seed(7);
        assert!(matches!(
            g.mix(&[1.0], 4, &mut rng),
            Err(DGraphError::WeightArity { .. })
        ));
    }

    #[test]
    fn mix_exhaustion_stops_cleanly() {
        let info = buffer_info();
        let mut g = DGraph::from_buffer_infos(&info, MetaView::Tokens);
        g.init(tree(2, 1, 1));
        let mut rng = SimRng::seed(9);
        // Ask for more than the 16 available.
        g.mix(&[1.0, 1.0], 100, &mut rng).unwrap();
        g.distribute(DistributeAxis::DP, None).unwrap();
        assert_eq!(g.plan(0).unwrap().all_samples().len(), 16);
    }

    #[test]
    fn balance_reduces_imbalance() {
        let info = buffer_info();
        let mut unbalanced = DGraph::from_buffer_infos(&info, MetaView::Tokens);
        unbalanced.init(tree(4, 1, 1));
        unbalanced.distribute(DistributeAxis::DP, None).unwrap();
        unbalanced.chunk_microbatches(1).unwrap();
        let u = unbalanced.plan(0).unwrap();

        let mut balanced = DGraph::from_buffer_infos(&info, MetaView::Tokens);
        balanced.init(tree(4, 1, 1));
        balanced.distribute(DistributeAxis::DP, None).unwrap();
        balanced.cost(|m| (m.total_tokens() as f64).powi(2)); // Quadratic.
        balanced
            .balance(BalanceMethod::Greedy, BalanceOpts::full(1))
            .unwrap();
        let b = balanced.plan(0).unwrap();

        let imb = |p: &LoadingPlan| {
            let c = p.bucket_costs();
            c.iter().cloned().fold(f64::MIN, f64::max) / c.iter().cloned().fold(f64::MAX, f64::min)
        };
        // Note: unbalanced plan uses default linear costs; recompute both
        // with the quadratic costs for a fair comparison.
        let quad_cost = |p: &LoadingPlan, g: &DGraph| -> Vec<f64> {
            p.buckets
                .iter()
                .map(|bk| {
                    bk.bins
                        .iter()
                        .flat_map(|bin| &bin.samples)
                        .map(|id| (g.node(*id).unwrap().meta.total_tokens() as f64).powi(2))
                        .sum()
                })
                .collect()
        };
        let u_costs = quad_cost(&u, &unbalanced);
        let b_costs = quad_cost(&b, &balanced);
        let u_imb = u_costs.iter().cloned().fold(f64::MIN, f64::max)
            / u_costs.iter().cloned().fold(f64::MAX, f64::min);
        let b_imb = b_costs.iter().cloned().fold(f64::MIN, f64::max)
            / b_costs.iter().cloned().fold(f64::MAX, f64::min);
        assert!(b_imb < u_imb, "balanced {b_imb} vs unbalanced {u_imb}");
        assert!(b_imb < 1.5, "balanced imbalance = {b_imb}");
        let _ = imb;
    }

    #[test]
    fn inter_microbatch_only_preserves_bucket_membership() {
        let info = buffer_info();
        let mut g = DGraph::from_buffer_infos(&info, MetaView::Tokens);
        g.init(tree(2, 1, 1));
        g.distribute(DistributeAxis::DP, None).unwrap();
        // Record bucket membership after distribute.
        let before: HashMap<u64, u32> = g
            .nodes()
            .iter()
            .filter_map(|n| match n.state {
                NodeState::Distributed { bucket } => Some((n.id, bucket)),
                _ => None,
            })
            .collect();
        g.balance(BalanceMethod::Greedy, BalanceOpts::inter_microbatch(2))
            .unwrap();
        for n in g.nodes() {
            if let NodeState::Balanced { bucket, .. } = n.state {
                assert_eq!(before[&n.id], bucket, "sample {} moved buckets", n.id);
            }
        }
    }

    #[test]
    fn plan_directives_group_by_loader() {
        let info = buffer_info();
        let mut g = DGraph::from_buffer_infos(&info, MetaView::Tokens);
        g.init(tree(2, 1, 1));
        g.distribute(DistributeAxis::DP, None).unwrap();
        let plan = g.plan(5).unwrap();
        assert_eq!(plan.step, 5);
        assert_eq!(plan.directives.len(), 2);
        assert!(plan.directives[&0].iter().all(|id| *id < 8));
        assert!(plan.directives[&1].iter().all(|id| *id >= 8));
    }

    #[test]
    fn broadcast_axes_recorded_once() {
        let info = buffer_info();
        let mut g = DGraph::from_buffer_infos(&info, MetaView::Tokens);
        g.init(tree(2, 2, 2));
        g.broadcast_at(Axis::TP);
        g.broadcast_at(Axis::CP);
        g.broadcast_at(Axis::TP);
        g.distribute(DistributeAxis::CP, None).unwrap();
        let plan = g.plan(0).unwrap();
        assert_eq!(plan.broadcast_axes, vec![Axis::TP, Axis::CP]);
        assert_eq!(plan.buckets.len(), 4); // DP×CP.
    }

    #[test]
    fn api_timers_accumulate() {
        let info = buffer_info();
        let mut g = DGraph::from_buffer_infos(&info, MetaView::Tokens);
        g.init(tree(2, 1, 1));
        g.distribute(DistributeAxis::DP, None).unwrap();
        g.cost(|m| m.total_tokens() as f64);
        g.balance(BalanceMethod::KarmarkarKarp, BalanceOpts::full(2))
            .unwrap();
        assert!(g.cost_api_ns > 0);
        assert!(g.balance_api_ns > 0);
    }

    #[test]
    fn group_size_merges_buckets() {
        let info = buffer_info();
        let mut g = DGraph::from_buffer_infos(&info, MetaView::Tokens);
        g.init(tree(4, 1, 1));
        let n = g.distribute(DistributeAxis::DP, Some(2)).unwrap();
        assert_eq!(n, 2);
        let plan = g.plan(0).unwrap();
        assert_eq!(plan.buckets.len(), 2);
        // Each merged bucket serves the clients of two DP groups.
        assert_eq!(plan.buckets[0].clients.len(), 2);
    }
}
