//! `ClientPlaceTree`: the hierarchical topology the data plane schedules
//! against.
//!
//! The tree is a logical view of the trainer device mesh (paper Sec 4.1):
//! levels follow the mesh's outer-to-inner axis order and leaves are trainer
//! clients (ranks). `distribute(axis)` resolves to the nodes at that axis
//! level — e.g. with `DP=2, CP=2, TP=2`, `distribute(CP)` yields 4 buckets
//! (DP×CP consumer groups), each consumed by the TP-subtree beneath it.

use crate::mesh::{Axis, DeviceMesh, Rank};

/// The axis argument of the `distribute` primitive.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DistributeAxis {
    /// Partition across data-parallel groups (minibatches per DP rank).
    DP,
    /// Treat DP × CP ranks as uniform consumers (hybrid data parallelism).
    CP,
    /// Distribute across every rank (the encoder's world-wide DP).
    World,
}

impl DistributeAxis {
    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            DistributeAxis::DP => "DP",
            DistributeAxis::CP => "CP",
            DistributeAxis::World => "WORLD",
        }
    }
}

/// A node in the place tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TreeNode {
    /// Axis this node's children subdivide (None for leaves).
    pub axis: Option<Axis>,
    /// Index among siblings.
    pub index: u32,
    /// Child nodes (empty for leaves).
    pub children: Vec<TreeNode>,
    /// The trainer rank, for leaves.
    pub rank: Option<Rank>,
}

impl TreeNode {
    /// Collects leaf ranks under this node, in rank order.
    pub fn leaves(&self) -> Vec<Rank> {
        let mut out = Vec::new();
        self.collect_leaves(&mut out);
        out.sort_unstable();
        out
    }

    fn collect_leaves(&self, out: &mut Vec<Rank>) {
        if let Some(rank) = self.rank {
            out.push(rank);
        }
        for c in &self.children {
            c.collect_leaves(out);
        }
    }
}

/// Logical representation of the trainer device mesh.
///
/// # Examples
///
/// ```
/// use msd_mesh::{Axis, ClientPlaceTree, DeviceMesh, DistributeAxis};
///
/// let mesh = DeviceMesh::pp_dp_cp_tp(1, 2, 2, 2).unwrap();
/// let tree = ClientPlaceTree::from_device_mesh(&mesh);
/// assert_eq!(tree.bucket_count(DistributeAxis::DP, None), 2);
/// assert_eq!(tree.bucket_count(DistributeAxis::CP, None), 4);
/// assert_eq!(tree.bucket_count(DistributeAxis::World, None), 8);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientPlaceTree {
    mesh: DeviceMesh,
    root: TreeNode,
}

impl ClientPlaceTree {
    /// Builds the tree from a device mesh (levels in mesh dim order).
    pub fn from_device_mesh(mesh: &DeviceMesh) -> Self {
        fn build(
            mesh: &DeviceMesh,
            dims: &[(Axis, u32)],
            prefix: &mut Vec<(Axis, u32)>,
            index: u32,
        ) -> TreeNode {
            match dims.first() {
                None => {
                    let rank = mesh.rank_of(prefix).expect("coords valid by construction");
                    TreeNode {
                        axis: None,
                        index,
                        children: Vec::new(),
                        rank: Some(rank),
                    }
                }
                Some((axis, size)) => {
                    let children = (0..*size)
                        .map(|i| {
                            prefix.push((*axis, i));
                            let child = build(mesh, &dims[1..], prefix, i);
                            prefix.pop();
                            child
                        })
                        .collect();
                    TreeNode {
                        axis: Some(*axis),
                        index,
                        children,
                        rank: None,
                    }
                }
            }
        }
        let dims = mesh.dims().to_vec();
        let root = build(mesh, &dims, &mut Vec::new(), 0);
        ClientPlaceTree {
            mesh: mesh.clone(),
            root,
        }
    }

    /// The underlying mesh.
    pub fn mesh(&self) -> &DeviceMesh {
        &self.mesh
    }

    /// The root node (for custom traversal / user overrides).
    pub fn root(&self) -> &TreeNode {
        &self.root
    }

    /// All trainer clients (ranks).
    pub fn clients(&self) -> Vec<Rank> {
        self.root.leaves()
    }

    /// Number of buckets `distribute(axis, group_size)` creates:
    /// `DP` → DP size; `CP` → DP×CP; `World` → world size. A `group_size`
    /// divides the count (ceil), trading balance quality for coordination
    /// cost in very large clusters (Table 2's group sweep).
    pub fn bucket_count(&self, axis: DistributeAxis, group_size: Option<u32>) -> u32 {
        let n = match axis {
            DistributeAxis::DP => self.mesh.size(Axis::DP),
            DistributeAxis::CP => self.mesh.size(Axis::DP) * self.mesh.size(Axis::CP),
            DistributeAxis::World => self.mesh.world_size(),
        };
        match group_size {
            Some(g) if g > 1 => n.div_ceil(g),
            _ => n,
        }
    }

    /// The consumer clients of each bucket, in bucket order. Every rank in
    /// the cluster appears in exactly one bucket.
    pub fn buckets(&self, axis: DistributeAxis, group_size: Option<u32>) -> Vec<Vec<Rank>> {
        let world = self.mesh.world_size();
        let base: Vec<Vec<Rank>> = match axis {
            DistributeAxis::World => (0..world).map(|r| vec![r]).collect(),
            DistributeAxis::DP => {
                let dp = self.mesh.size(Axis::DP);
                let mut buckets = vec![Vec::new(); dp as usize];
                for r in 0..world {
                    let d = self.mesh.coord(r, Axis::DP).expect("rank in range");
                    buckets[d as usize].push(r);
                }
                buckets
            }
            DistributeAxis::CP => {
                let dp = self.mesh.size(Axis::DP);
                let cp = self.mesh.size(Axis::CP);
                let mut buckets = vec![Vec::new(); (dp * cp) as usize];
                for r in 0..world {
                    let d = self.mesh.coord(r, Axis::DP).expect("rank in range");
                    let c = self.mesh.coord(r, Axis::CP).expect("rank in range");
                    buckets[(d * cp + c) as usize].push(r);
                }
                buckets
            }
        };
        match group_size {
            Some(g) if g > 1 => base
                .chunks(g as usize)
                .map(|chunk| {
                    let mut merged: Vec<Rank> = chunk.iter().flatten().copied().collect();
                    merged.sort_unstable();
                    merged
                })
                .collect(),
            _ => base,
        }
    }

    /// The bucket of `buckets(axis, group_size)` that consumes `rank`'s
    /// deliveries, or `None` when the rank lies outside the mesh. This is
    /// the placement lookup the distributed serving plane uses to map a
    /// dialing trainer rank onto its constructor bucket.
    pub fn bucket_of(
        &self,
        rank: Rank,
        axis: DistributeAxis,
        group_size: Option<u32>,
    ) -> Option<u32> {
        if rank >= self.mesh.world_size() {
            return None;
        }
        self.buckets(axis, group_size)
            .iter()
            .position(|bucket| bucket.contains(&rank))
            .map(|i| i as u32)
    }

    /// Clients excluded from data fetching when the trainer broadcasts
    /// along `axis` (the `broadcast_at` primitive): every rank whose
    /// coordinate on that axis is nonzero.
    pub fn broadcast_excluded(&self, axis: Axis) -> Vec<Rank> {
        (0..self.mesh.world_size())
            .filter(|r| self.mesh.coord(*r, axis).expect("rank in range") != 0)
            .collect()
    }

    /// Data-fetching clients after applying `broadcast_at` exclusions on
    /// the given axes.
    pub fn fetching_clients(&self, broadcast_axes: &[Axis]) -> Vec<Rank> {
        (0..self.mesh.world_size())
            .filter(|r| {
                broadcast_axes
                    .iter()
                    .all(|a| self.mesh.coord(*r, *a).expect("rank in range") == 0)
            })
            .collect()
    }

    /// The cost profile of broadcasting along `axes`: how many clients the
    /// data plane still synchronizes with directly, and how many ranks each
    /// of them re-broadcasts to (subgroup replication).
    pub fn broadcast_tradeoff(&self, axes: &[Axis]) -> BroadcastTradeoff {
        let sync_clients = self.fetching_clients(axes).len() as u32;
        let replication = axes
            .iter()
            .map(|a| self.mesh.size(*a).max(1))
            .product::<u32>()
            .max(1);
        BroadcastTradeoff {
            axes: axes.to_vec(),
            sync_clients,
            replication,
        }
    }

    /// Sec 6.2's *selective broadcasting*: chooses broadcast axes bottom-up
    /// over the tree — innermost replication-safe levels first (TP, then
    /// CP) — until at most `max_sync_clients` clients fetch directly, or
    /// no safe levels remain.
    ///
    /// Only TP and CP are candidates: TP ranks consume identical inputs
    /// and CP ranks consume shards of the same batch, so a subgroup root
    /// can re-broadcast locally. DP ranks consume *different* buckets and
    /// PP>0 stages already receive metadata only, so neither is ever
    /// selected. Each selected level multiplies per-root replication
    /// (memory + intra-group traffic) — the trade the paper describes.
    pub fn select_broadcast_axes(&self, max_sync_clients: u32) -> BroadcastTradeoff {
        let mut axes: Vec<Axis> = Vec::new();
        for (axis, size) in self.mesh.dims().iter().rev() {
            if self.fetching_clients(&axes).len() as u32 <= max_sync_clients {
                break;
            }
            if *size > 1 && matches!(axis, Axis::TP | Axis::CP) {
                axes.push(*axis);
            }
        }
        self.broadcast_tradeoff(&axes)
    }
}

/// The synchronization/replication trade-off of a broadcast-axis choice
/// (Sec 6.2, selective broadcasting).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BroadcastTradeoff {
    /// The chosen broadcast axes (innermost first).
    pub axes: Vec<Axis>,
    /// Clients the constructor synchronizes with directly.
    pub sync_clients: u32,
    /// Ranks each fetching client's payload is replicated to (itself
    /// included) via subgroup re-broadcast.
    pub replication: u32,
}

impl BroadcastTradeoff {
    /// Extra intra-subgroup bytes moved per delivered payload byte
    /// (`replication − 1` copies fan out below each fetching client).
    pub fn extra_traffic_factor(&self) -> u32 {
        self.replication.saturating_sub(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tree_2x2x2() -> ClientPlaceTree {
        let mesh = DeviceMesh::pp_dp_cp_tp(1, 2, 2, 2).unwrap();
        ClientPlaceTree::from_device_mesh(&mesh)
    }

    #[test]
    fn fig8_bucket_counts() {
        // Fig 8: DP=2, CP=2, TP=2 — distribute(CP) creates n=4 buckets.
        let tree = tree_2x2x2();
        assert_eq!(tree.bucket_count(DistributeAxis::DP, None), 2);
        assert_eq!(tree.bucket_count(DistributeAxis::CP, None), 4);
        assert_eq!(tree.bucket_count(DistributeAxis::World, None), 8);
    }

    #[test]
    fn group_size_reduces_buckets() {
        let tree = tree_2x2x2();
        assert_eq!(tree.bucket_count(DistributeAxis::CP, Some(2)), 2);
        assert_eq!(tree.bucket_count(DistributeAxis::World, Some(3)), 3);
        assert_eq!(tree.bucket_count(DistributeAxis::CP, Some(1)), 4);
    }

    #[test]
    fn buckets_partition_all_ranks() {
        let mesh = DeviceMesh::pp_dp_cp_tp(2, 3, 2, 2).unwrap();
        let tree = ClientPlaceTree::from_device_mesh(&mesh);
        for axis in [
            DistributeAxis::DP,
            DistributeAxis::CP,
            DistributeAxis::World,
        ] {
            for gs in [None, Some(2), Some(5)] {
                let buckets = tree.buckets(axis, gs);
                let mut all: Vec<Rank> = buckets.iter().flatten().copied().collect();
                all.sort_unstable();
                assert_eq!(
                    all,
                    (0..mesh.world_size()).collect::<Vec<_>>(),
                    "axis {:?} gs {:?}",
                    axis,
                    gs
                );
            }
        }
    }

    #[test]
    fn dp_buckets_share_dp_coordinate() {
        let mesh = DeviceMesh::pp_dp_cp_tp(2, 4, 1, 2).unwrap();
        let tree = ClientPlaceTree::from_device_mesh(&mesh);
        for (d, bucket) in tree.buckets(DistributeAxis::DP, None).iter().enumerate() {
            for r in bucket {
                assert_eq!(mesh.coord(*r, Axis::DP).unwrap(), d as u32);
            }
        }
    }

    #[test]
    fn leaves_enumerate_world() {
        let tree = tree_2x2x2();
        assert_eq!(tree.clients(), (0..8).collect::<Vec<_>>());
        assert_eq!(tree.root().leaves().len(), 8);
    }

    #[test]
    fn broadcast_exclusion_matches_tp_coords() {
        let mesh = DeviceMesh::pp_dp_cp_tp(1, 2, 1, 4).unwrap();
        let tree = ClientPlaceTree::from_device_mesh(&mesh);
        let excluded = tree.broadcast_excluded(Axis::TP);
        // 3 of every 4 ranks are TP>0.
        assert_eq!(excluded.len(), 6);
        let fetching = tree.fetching_clients(&[Axis::TP]);
        assert_eq!(fetching.len(), 2);
        for r in &fetching {
            assert_eq!(mesh.coord(*r, Axis::TP).unwrap(), 0);
        }
    }

    #[test]
    fn multi_axis_broadcast_exclusion() {
        // The paper's VLM strategy broadcasts at TP and CP: only TP0∧CP0
        // clients fetch.
        let mesh = DeviceMesh::pp_dp_cp_tp(2, 2, 2, 2).unwrap();
        let tree = ClientPlaceTree::from_device_mesh(&mesh);
        let fetching = tree.fetching_clients(&[Axis::TP, Axis::CP]);
        assert_eq!(fetching.len() as u32, 2 * 2); // PP × DP
        for r in fetching {
            assert_eq!(mesh.coord(r, Axis::TP).unwrap(), 0);
            assert_eq!(mesh.coord(r, Axis::CP).unwrap(), 0);
        }
    }

    #[test]
    fn selective_broadcast_picks_innermost_axes_first() {
        // 576-GPU mesh: PP4 × DP9 × CP4 × TP4.
        let mesh = DeviceMesh::pp_dp_cp_tp(4, 9, 4, 4).unwrap();
        let tree = ClientPlaceTree::from_device_mesh(&mesh);
        // No budget pressure: nothing selected.
        let t = tree.select_broadcast_axes(1000);
        assert!(t.axes.is_empty());
        assert_eq!(t.sync_clients, 576);
        assert_eq!(t.replication, 1);
        // Moderate budget: TP alone gets sync down to 144.
        let t = tree.select_broadcast_axes(150);
        assert_eq!(t.axes, vec![Axis::TP]);
        assert_eq!(t.sync_clients, 144);
        assert_eq!(t.replication, 4);
        // Tight budget: TP + CP → 36 sync clients, 16× replication.
        let t = tree.select_broadcast_axes(40);
        assert_eq!(t.axes, vec![Axis::TP, Axis::CP]);
        assert_eq!(t.sync_clients, 36);
        assert_eq!(t.replication, 16);
        assert_eq!(t.extra_traffic_factor(), 15);
    }

    #[test]
    fn selective_broadcast_never_selects_dp_or_pp() {
        // Even an impossible budget stops at TP+CP: DP buckets carry
        // different data and PP>0 is metadata-only.
        let mesh = DeviceMesh::pp_dp_cp_tp(8, 16, 2, 2).unwrap();
        let tree = ClientPlaceTree::from_device_mesh(&mesh);
        let t = tree.select_broadcast_axes(1);
        assert_eq!(t.axes, vec![Axis::TP, Axis::CP]);
        assert_eq!(t.sync_clients, 8 * 16); // PP × DP roots remain.
    }

    #[test]
    fn broadcast_tradeoff_consistency_with_fetching_clients() {
        let mesh = DeviceMesh::pp_dp_cp_tp(2, 2, 2, 2).unwrap();
        let tree = ClientPlaceTree::from_device_mesh(&mesh);
        for axes in [vec![], vec![Axis::TP], vec![Axis::TP, Axis::CP]] {
            let t = tree.broadcast_tradeoff(&axes);
            assert_eq!(t.sync_clients as usize, tree.fetching_clients(&axes).len());
            // sync × replication covers all payload-receiving ranks.
            assert_eq!(t.sync_clients * t.replication, mesh.world_size());
        }
    }

    #[test]
    fn size_one_axes_are_skipped() {
        let mesh = DeviceMesh::pp_dp_cp_tp(1, 4, 1, 1).unwrap();
        let tree = ClientPlaceTree::from_device_mesh(&mesh);
        let t = tree.select_broadcast_axes(1);
        assert!(t.axes.is_empty(), "no size>1 TP/CP to select");
        assert_eq!(t.sync_clients, 4);
    }

    #[test]
    fn bucket_of_agrees_with_buckets() {
        let mesh = DeviceMesh::pp_dp_cp_tp(2, 3, 2, 2).unwrap();
        let tree = ClientPlaceTree::from_device_mesh(&mesh);
        for axis in [
            DistributeAxis::DP,
            DistributeAxis::CP,
            DistributeAxis::World,
        ] {
            for gs in [None, Some(2)] {
                let buckets = tree.buckets(axis, gs);
                for r in 0..mesh.world_size() {
                    let b = tree.bucket_of(r, axis, gs).expect("rank in mesh") as usize;
                    assert!(buckets[b].contains(&r), "axis {axis:?} gs {gs:?} rank {r}");
                }
            }
        }
        assert_eq!(
            tree.bucket_of(mesh.world_size(), DistributeAxis::DP, None),
            None
        );
    }

    #[test]
    fn rebuild_after_mesh_change_is_cheap_and_consistent() {
        // Elastic resharding (Sec 6.1): rebuild the tree for a new mesh and
        // confirm bucket counts follow.
        let before =
            ClientPlaceTree::from_device_mesh(&DeviceMesh::pp_dp_cp_tp(1, 4, 2, 1).unwrap());
        assert_eq!(before.bucket_count(DistributeAxis::CP, None), 8);
        let after =
            ClientPlaceTree::from_device_mesh(&DeviceMesh::pp_dp_cp_tp(1, 2, 2, 2).unwrap());
        assert_eq!(after.bucket_count(DistributeAxis::CP, None), 4);
        assert_eq!(after.clients().len(), 8);
    }
}
