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

use std::collections::BTreeMap;
use std::sync::Arc;

use msd_balance::{balance as run_balance, BalanceMethod};
use msd_data::SampleMeta;
use msd_mesh::{Axis, ClientPlaceTree, DistributeAxis};
use msd_sim::SimRng;

use crate::buffer::BufferInfo;
use crate::plan::{BinPlan, BucketPlan, LoadingPlan};
use crate::window::{self, Window};

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

/// One sample node: the gathered row holding its metadata (read through
/// [`DGraph::meta`] and [`DGraph::loader`]) and where the step sent it.
#[derive(Debug, Clone)]
pub struct DNode {
    /// Index of the gathered summary holding the sample.
    pub summary: u32,
    /// The sample's row in that summary's metadata.
    pub row: u32,
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
///
/// A step's planning cost follows what the step draws, not what the
/// loaders buffer: the graph holds the gathered summaries (their tables
/// clone by refcount) and one exactly-sized array of 32-B nodes naming
/// their rows, `mix` draws each source's FIFO run in place, and every
/// later primitive walks only the drawn samples.
#[derive(Debug, Clone)]
pub struct DGraph {
    view: MetaView,
    info: BufferInfo,
    nodes: Vec<DNode>,
    /// Source ids present, sorted (index = weight-vector position).
    source_order: Vec<msd_data::SourceId>,
    /// Indices of the nodes taking part in the step, in node order: the
    /// samples `mix` drew, or every node when the program never mixes
    /// (materialised by the first primitive that needs it).
    participants: Option<Vec<usize>>,
    tree: Option<Arc<ClientPlaceTree>>,
    axis: Option<DistributeAxis>,
    group_size: Option<u32>,
    microbatches: u32,
    broadcast_axes: Vec<Axis>,
    /// Wall-clock nanoseconds spent inside `cost` (Table 2).
    pub cost_api_ns: u64,
    /// Wall-clock nanoseconds spent inside `balance` (Table 2).
    pub balance_api_ns: u64,
}

/// The metadata `node` names in `info`.
fn meta_in<'a>(info: &'a BufferInfo, node: &DNode) -> &'a SampleMeta {
    &info.summaries[node.summary as usize].samples[node.row as usize]
}

/// The participant list, materialised as every node on first use.
fn participants(participants: &mut Option<Vec<usize>>, nodes: usize) -> &[usize] {
    participants.get_or_insert_with(|| (0..nodes).collect())
}

/// The total [`SimRng::weighted_index_of`] draws against: the positive
/// weights, summed in index order.
fn positive_total(weights: &[f64]) -> f64 {
    weights.iter().filter(|w| **w > 0.0).sum()
}

impl DGraph {
    /// Builds a graph over the gathered buffer metadata, filtered by `view`.
    pub fn from_buffer_infos(info: &BufferInfo, view: MetaView) -> Self {
        Self::over(view, info.clone(), || info.rows())
    }

    /// A graph over `info`'s `(summary, row, meta)` slots that `slots` yields
    /// and `view` includes, in order, as one exactly-sized node array.
    fn over<'a, I>(view: MetaView, info: BufferInfo, slots: impl Fn() -> I) -> Self
    where
        I: Iterator<Item = (u32, u32, &'a SampleMeta)>,
    {
        let included = || slots().filter(|(_, _, meta)| view.includes(meta));
        let mut nodes = Vec::with_capacity(included().count());
        let mut sources = Vec::new();
        for (summary, row, meta) in included() {
            // One loader's samples mostly share a source.
            if sources.last() != Some(&meta.source) {
                sources.push(meta.source);
            }
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
            view,
            info,
            nodes,
            source_order: sources,
            participants: None,
            tree: None,
            axis: None,
            group_size: None,
            microbatches: 1,
            broadcast_axes: Vec::new(),
            cost_api_ns: 0,
            balance_api_ns: 0,
        }
    }

    /// Binds the trainer topology (a shared tree binds without a copy).
    pub fn init(&mut self, tree: impl Into<Arc<ClientPlaceTree>>) {
        self.tree = Some(tree.into());
    }

    /// A fresh graph over the samples this graph has distributed, in node
    /// order, seen through `view` — e.g. the encoder image graph over the
    /// samples the backbone graph's `mix` drew (paper Fig 9).
    pub fn subgraph(&self, view: MetaView) -> Self {
        Self::over(view, self.info.clone(), || {
            self.participants
                .iter()
                .flatten()
                .map(|idx| &self.nodes[*idx])
                .filter(|n| {
                    matches!(
                        n.state,
                        NodeState::Distributed { .. } | NodeState::Balanced { .. }
                    )
                })
                .map(|n| (n.summary, n.row, self.meta(n)))
        })
    }

    /// The graph's view.
    pub fn view(&self) -> MetaView {
        self.view
    }

    /// All nodes (read-only).
    pub fn nodes(&self) -> &[DNode] {
        &self.nodes
    }

    /// Node lookup by sample id: a linear scan, for tests and cold
    /// callers.
    pub fn node(&self, sample: u64) -> Option<&DNode> {
        self.nodes.iter().find(|n| self.meta(n).sample_id == sample)
    }

    /// The metadata of `node`'s sample.
    pub fn meta(&self, node: &DNode) -> &SampleMeta {
        meta_in(&self.info, node)
    }

    /// The loader buffering `node`'s sample.
    pub fn loader(&self, node: &DNode) -> u32 {
        self.info.summaries[node.summary as usize].loader_id
    }

    /// Sources visible to this graph, sorted (defines weight order).
    pub fn sources(&self) -> &[msd_data::SourceId] {
        &self.source_order
    }

    /// `mix(schedule)`: probabilistically selects up to `take` samples
    /// according to per-source `weights` (ordered by [`DGraph::sources`]),
    /// each source's oldest buffered sample first. Unselected samples are
    /// marked [`NodeState::Excluded`] and stay buffered for future steps.
    pub fn mix(
        &mut self,
        weights: &[f64],
        take: usize,
        rng: &mut SimRng,
    ) -> Result<(), DGraphError> {
        let sources = self.source_order.len();
        if weights.len() != sources {
            return Err(DGraphError::WeightArity {
                sources,
                weights: weights.len(),
            });
        }
        // Every source's FIFO run as one flat order over the nodes: source
        // `s` owns `order[start[s]..start[s + 1]]`, oldest first, and
        // `next[s]` is its oldest undrawn sample. A loader's samples share
        // a source, so the lookup is cached across a run.
        let mut last: Option<(msd_data::SourceId, usize)> = None;
        let mut source_index = |source| match last {
            Some((cached, s)) if cached == source => s,
            _ => {
                let s = self
                    .source_order
                    .binary_search(&source)
                    .expect("source indexed at construction");
                last = Some((source, s));
                s
            }
        };
        let mut start = vec![0usize; sources + 1];
        for n in &self.nodes {
            start[source_index(meta_in(&self.info, n).source) + 1] += 1;
        }
        for s in 0..sources {
            start[s + 1] += start[s];
        }
        let mut next = start[..sources].to_vec();
        let mut order = vec![0u32; self.nodes.len()];
        for (idx, n) in self.nodes.iter_mut().enumerate() {
            let s = source_index(meta_in(&self.info, n).source);
            order[next[s]] = idx as u32;
            next[s] += 1;
            n.state = NodeState::Excluded;
        }
        next.copy_from_slice(&start[..sources]);

        // Exhausted sources weigh zero, so the positive-weight total only
        // changes when one runs out.
        let mut live = weights.to_vec();
        let mut total = positive_total(&live);
        let mut drawn = Vec::with_capacity(take.min(self.nodes.len()));
        while drawn.len() < take {
            let Some(s) = rng.weighted_index_of(total, live.len(), |i| live[i]) else {
                break; // All weighted sources exhausted.
            };
            debug_assert!(next[s] < start[s + 1], "drew an exhausted source");
            drawn.push(order[next[s]] as usize);
            next[s] += 1;
            if next[s] == start[s + 1] {
                live[s] = 0.0;
                total = positive_total(&live);
            }
        }
        for idx in &drawn {
            self.nodes[*idx].state = NodeState::Sampled;
        }
        drawn.sort_unstable();
        self.participants = Some(drawn);
        Ok(())
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
        let participants = participants(&mut self.participants, self.nodes.len());
        for (pos, idx) in participants.iter().enumerate() {
            let bucket = (pos as u32) % n;
            self.nodes[*idx].state = NodeState::Distributed { bucket };
        }
        Ok(n)
    }

    /// `cost(costfn)`: registers per-sample costs from metadata. Costs
    /// propagate to the subsequent `balance`.
    pub fn cost(&mut self, costfn: impl Fn(&SampleMeta) -> f64) {
        let t0 = std::time::Instant::now();
        for idx in participants(&mut self.participants, self.nodes.len()) {
            let node = &mut self.nodes[*idx];
            node.cost = costfn(meta_in(&self.info, node)).max(0.0);
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

        let participants = participants(&mut self.participants, self.nodes.len());
        // Level 1: each participant's bucket.
        let bucket_of: Vec<usize> = if opts.inter_bucket {
            let costs: Vec<f64> = participants.iter().map(|i| self.nodes[*i].cost).collect();
            run_balance(&costs, n, method).item_bins(costs.len())
        } else {
            participants
                .iter()
                .map(|idx| match self.nodes[*idx].state {
                    NodeState::Distributed { bucket } | NodeState::Balanced { bucket, .. } => {
                        bucket as usize
                    }
                    _ => 0,
                })
                .collect()
        };

        // Level 2: bins within each bucket.
        let m = self.microbatches as usize;
        let mut sizes = vec![0usize; n];
        for b in &bucket_of {
            sizes[*b] += 1;
        }
        let mut per_bucket: Vec<Vec<usize>> = sizes.into_iter().map(Vec::with_capacity).collect();
        for (idx, b) in participants.iter().zip(&bucket_of) {
            per_bucket[*b].push(*idx);
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
        let m = self.microbatches as usize;

        // The scheduled samples in node order, each with its flat
        // `bucket * m + bin` slot. Un-balanced graphs use bin 0; a sample
        // sampled but never distributed is not scheduled.
        let scheduled = || {
            self.participants
                .iter()
                .flatten()
                .map(|idx| &self.nodes[*idx])
                .filter_map(move |node| match node.state {
                    NodeState::Balanced { bucket, bin } => {
                        Some((node, bucket as usize * m + bin as usize))
                    }
                    NodeState::Distributed { bucket } => Some((node, bucket as usize * m)),
                    _ => None,
                })
        };

        // Size every bin and directive, then fill them in node order.
        let mut bin_sizes = vec![0usize; bucket_clients.len() * m];
        let mut loader_sizes: Vec<(u32, usize)> = Vec::new();
        for (node, slot) in scheduled() {
            bin_sizes[slot] += 1;
            match loader_sizes.last_mut() {
                Some((loader, size)) if *loader == self.loader(node) => *size += 1,
                _ => loader_sizes.push((self.loader(node), 1)),
            }
        }
        // A loader appears in one run per summary that carried it.
        loader_sizes.sort_unstable_by_key(|(loader, _)| *loader);
        loader_sizes.dedup_by(|run, kept| {
            kept.1 += if run.0 == kept.0 { run.1 } else { 0 };
            run.0 == kept.0
        });
        let mut bins: Vec<BinPlan> = bin_sizes
            .into_iter()
            .enumerate()
            .map(|(slot, size)| BinPlan {
                bin: (slot % m) as u32,
                samples: Vec::with_capacity(size),
                total_cost: 0.0,
            })
            .collect();
        // Every directive is a window onto one table of the scheduled
        // ids, grouped by loader: `cursor[i]` starts at the i-th loader's
        // first row and ends one past its last.
        let mut start = 0;
        let mut cursor: Vec<u32> = loader_sizes
            .iter()
            .map(|(_, size)| {
                let first = start;
                start += *size as u32;
                first
            })
            .collect();
        let scheduled_ids = loader_sizes.iter().map(|(_, size)| size).sum();
        let table = window::table(scheduled_ids, 0, |rows| {
            for (node, slot) in scheduled() {
                let id = self.meta(node).sample_id;
                bins[slot].samples.push(id);
                bins[slot].total_cost += node.cost;
                let run = loader_sizes.partition_point(|(loader, _)| *loader < self.loader(node));
                rows[cursor[run] as usize] = id;
                cursor[run] += 1;
            }
        });
        let directives = loader_sizes
            .iter()
            .map(|(loader, _)| *loader)
            .zip(Window::split(&table, cursor))
            .collect();

        let mut bins = bins.into_iter();
        let buckets = bucket_clients
            .into_iter()
            .enumerate()
            .map(|(b, clients)| BucketPlan {
                bucket: b as u32,
                clients,
                bins: bins.by_ref().take(m).collect(),
            })
            .collect();

        Ok(LoadingPlan {
            step,
            axis,
            buckets,
            broadcast_axes: self.broadcast_axes.clone(),
            directives,
            subplans: BTreeMap::new(),
        })
    }
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use proptest::prelude::*;

    use super::*;
    use crate::buffer::{BufferInfo, BufferSummary};
    use crate::planner::{Planner, PlannerConfig, Strategy as PlannerStrategy};
    use crate::schedule::MixSchedule;
    use msd_balance::{BackboneShape, EncoderShape};
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
        assert!(images
            .nodes()
            .iter()
            .all(|n| images.meta(n).image_patches > 0));
        // Default cost bases differ.
        assert_eq!(tokens.node(8).unwrap().cost, (50 + 1000 + 8 * 300) as f64);
        assert_eq!(images.node(8).unwrap().cost, (1000 + 8 * 300) as f64);
    }

    #[test]
    fn a_node_names_its_row_in_at_most_32_bytes() {
        assert!(size_of::<DNode>() <= 32, "{} B", size_of::<DNode>());
        let info = buffer_info();
        let g = DGraph::from_buffer_infos(&info, MetaView::Images);
        let node = g.node(9).unwrap();
        assert_eq!((node.summary, node.row), (1, 1));
        assert_eq!(*g.meta(node), info.summaries[1].samples[1]);
        assert_eq!(g.loader(node), 1);
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
        let excluded = g.nodes().iter().filter(|n| n.state == NodeState::Excluded);
        assert_eq!(excluded.count(), 12);
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
                        .map(|id| (g.meta(g.node(*id).unwrap()).total_tokens() as f64).powi(2))
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
                NodeState::Distributed { bucket } => Some((g.meta(n).sample_id, bucket)),
                _ => None,
            })
            .collect();
        g.balance(BalanceMethod::Greedy, BalanceOpts::inter_microbatch(2))
            .unwrap();
        for n in g.nodes() {
            if let NodeState::Balanced { bucket, .. } = n.state {
                let id = g.meta(n).sample_id;
                assert_eq!(before[&id], bucket, "sample {id} moved buckets");
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
    fn plan_directives_are_windows_onto_one_table() {
        // Loader 1 reports in two summaries, around loader 0's.
        let summary = |loader: u32, ids: std::ops::Range<u64>| BufferSummary {
            loader_id: loader,
            source: SourceId(loader),
            samples: ids.map(|i| meta(i, loader, 100, 0)).collect(),
            mean_transform_ns: 1.0,
        };
        let info = BufferInfo::new(vec![
            summary(1, 0..3),
            summary(0, 10..14),
            summary(1, 20..22),
        ]);
        let mut g = DGraph::from_buffer_infos(&info, MetaView::Tokens);
        g.init(tree(2, 1, 1));
        g.distribute(DistributeAxis::DP, None).unwrap();
        let plan = g.plan(0).unwrap();
        // Each loader's ids in node order, whichever summary carried them.
        assert_eq!(*plan.directives[&0], [10, 11, 12, 13]);
        assert_eq!(*plan.directives[&1], [0, 1, 2, 20, 21]);
        assert!(plan.directives[&0].shares_table(&plan.directives[&1]));
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

    /// Random gathers: 1–8 loaders in non-monotone id order, loaders that
    /// share a source, loaders holding several sources, text-only and
    /// image samples, and empty buffers. Sample ids are unique.
    fn arb_info() -> impl Strategy<Value = BufferInfo> {
        // (source offset, text tokens, image patches + 1000 when imaged)
        let sample = (0u32..3, 1u32..600, 0u32..3000);
        let loader = (
            0u32..4,
            any::<bool>(),
            proptest::collection::vec(sample, 0..24),
        );
        proptest::collection::vec(loader, 1..9).prop_map(|loaders| {
            let summaries = loaders
                .into_iter()
                .enumerate()
                .map(|(l, (source, several, samples))| BufferSummary {
                    loader_id: (l as u32 * 5) % 8,
                    source: SourceId(source),
                    samples: samples
                        .into_iter()
                        .enumerate()
                        .map(|(i, (offset, text, img))| {
                            let img = img.saturating_sub(1000);
                            SampleMeta {
                                sample_id: (l as u64) << 32 | i as u64,
                                source: SourceId(source + if several { offset } else { 0 }),
                                modality: if img > 0 {
                                    Modality::Image
                                } else {
                                    Modality::Text
                                },
                                text_tokens: text,
                                image_patches: img,
                                raw_bytes: 64,
                            }
                        })
                        .collect(),
                    mean_transform_ns: 1.0,
                })
                .collect();
            BufferInfo::new(summaries)
        })
    }

    /// Per-source weights indexed by source id, a third of them zero.
    fn arb_weights() -> impl Strategy<Value = Vec<f64>> {
        proptest::collection::vec(prop_oneof![Just(0.0), 0.0f64..4.0, 0.5f64..1.0], 8)
    }

    /// Asserts two plans are equal, bin costs bit for bit.
    fn assert_same_plan(got: &LoadingPlan, want: &LoadingPlan) {
        assert_eq!(got, want);
        let bits = |p: &LoadingPlan| -> Vec<u64> {
            p.buckets
                .iter()
                .flat_map(|b| b.bins.iter().map(|bin| bin.total_cost.to_bits()))
                .collect()
        };
        assert_eq!(bits(got), bits(want));
        for (name, sub) in &got.subplans {
            assert_same_plan(sub, &want.subplans[name]);
        }
    }

    proptest! {
        /// `mix` over the gathered buffers in place draws exactly what the
        /// per-source queues drew, leaving every node, the plan and the
        /// RNG as the reference leaves them — for every view, `take` from
        /// zero to past the buffered count, and each balancing level.
        #[test]
        fn mix_and_plan_match_reference(
            info in arb_info(),
            view in 0usize..3,
            weights in arb_weights(),
            take in 0usize..200,
            (dp, microbatches, method, inter_bucket, intra_bucket) in
                (1u32..4, 1u32..4, 0usize..3, any::<bool>(), any::<bool>()),
            seed in 0u64..1000,
        ) {
            let view = [MetaView::Tokens, MetaView::Images, MetaView::Text][view];
            let run = |old: bool| {
                let mut rng = SimRng::seed(seed);
                let mut g = if old {
                    reference::from_buffer_infos(&info, view)
                } else {
                    DGraph::from_buffer_infos(&info, view)
                };
                g.init(tree(dp, 1, 1));
                let gw: Vec<f64> = g.sources().iter().map(|s| weights[s.0 as usize]).collect();
                if old {
                    reference::mix(&mut g, &gw, take, &mut rng).unwrap();
                } else {
                    g.mix(&gw, take, &mut rng).unwrap();
                }
                g.distribute(DistributeAxis::DP, None).unwrap();
                g.cost(|m| (m.total_tokens() as f64).powf(1.5));
                let opts = BalanceOpts { microbatches, inter_bucket, intra_bucket };
                g.balance(BalanceMethod::ALL[method], opts).unwrap();
                let plan = g.plan(3).unwrap();
                (g, plan, rng.state())
            };
            let (got, got_plan, got_rng) = run(false);
            let (want, want_plan, want_rng) = run(true);
            prop_assert_eq!(got.sources(), want.sources());
            let nodes = |g: &DGraph| -> Vec<(u64, u32, NodeState, u64)> {
                g.nodes().iter().map(|n| (g.meta(n).sample_id, g.loader(n), n.state, n.cost.to_bits())).collect()
            };
            prop_assert_eq!(nodes(&got), nodes(&want));
            assert_same_plan(&got_plan, &want_plan);
            prop_assert_eq!(got_rng, want_rng);
        }

        /// `Planner::generate` plans what the reference pipeline planned
        /// for every strategy, over catalogs that repeat or lack a
        /// source, and leaves its RNG where the reference leaves it.
        #[test]
        fn planner_matches_reference_for_every_strategy(
            info in arb_info(),
            catalog in proptest::collection::vec(0u32..7, 1..8),
            weights in arb_weights(),
            take in 0usize..200,
            (dp, tp, microbatches, strategy) in (1u32..4, 1u32..3, 1u32..4, 0usize..3),
            seed in 0u64..1000,
        ) {
            let backbone = BackboneShape {
                layers: 4,
                hidden: 256,
                mlp_ratio: 4.0,
                heads: 4,
                vocab: 8000,
                experts_per_token: 1,
            };
            let encoder = EncoderShape { layers: 2, hidden: 128, mlp_ratio: 4.0, heads: 4 };
            let strategy = match strategy {
                0 => PlannerStrategy::Vanilla,
                1 => PlannerStrategy::BackboneBalance { method: BalanceMethod::Greedy, backbone },
                _ => PlannerStrategy::HybridBalance {
                    method: BalanceMethod::KarmarkarKarp,
                    backbone,
                    encoder,
                },
            };
            let mut planner = Planner::new(
                PlannerConfig {
                    axis: DistributeAxis::DP,
                    group_size: None,
                    microbatches,
                    broadcast_axes: vec![Axis::TP],
                    samples_per_step: take,
                    schedule: MixSchedule::Static(weights[..catalog.len()].to_vec()),
                },
                strategy,
                tree(dp, 1, tp),
                catalog.iter().map(|s| SourceId(*s)).collect(),
                seed,
            );
            for _ in 0..2 {
                let mut want_rng = SimRng::from_state(planner.checkpoint().rng_state);
                let want = reference::generate(&planner, &info, &mut want_rng).unwrap();
                let (got, _) = planner.generate(&info).unwrap();
                assert_same_plan(&got, &want);
                prop_assert_eq!(planner.checkpoint().rng_state, want_rng.state());
            }
        }
    }
}
