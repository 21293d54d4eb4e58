//! The device mesh: axes, ranks, coordinates, and communication groups.

/// A global GPU rank (0-based linear index).
pub type Rank = u32;

/// A parallelism axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Axis {
    /// Pipeline parallelism (model stages).
    PP,
    /// Data parallelism (model replicas).
    DP,
    /// Context parallelism (sequence sharding).
    CP,
    /// Tensor parallelism (intra-operator sharding).
    TP,
}

impl Axis {
    /// All axes in canonical outer-to-inner mesh order.
    pub const CANONICAL: [Axis; 4] = [Axis::PP, Axis::DP, Axis::CP, Axis::TP];

    /// Short label.
    pub fn label(self) -> &'static str {
        match self {
            Axis::PP => "PP",
            Axis::DP => "DP",
            Axis::CP => "CP",
            Axis::TP => "TP",
        }
    }
}

/// Errors constructing or querying a mesh.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MeshError {
    /// An axis appears more than once.
    DuplicateAxis(Axis),
    /// An axis has size zero.
    ZeroSize(Axis),
    /// A rank is out of bounds.
    RankOutOfBounds {
        /// Offending rank.
        rank: Rank,
        /// World size.
        world: u32,
    },
}

impl std::fmt::Display for MeshError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MeshError::DuplicateAxis(a) => write!(f, "duplicate axis {}", a.label()),
            MeshError::ZeroSize(a) => write!(f, "axis {} has size 0", a.label()),
            MeshError::RankOutOfBounds { rank, world } => {
                write!(f, "rank {rank} out of bounds (world size {world})")
            }
        }
    }
}

impl std::error::Error for MeshError {}

/// A hybrid-parallel device mesh.
///
/// Dimensions are ordered outermost-first; the canonical 4D order is
/// `PP, DP, CP, TP` (matching Megatron-style rank assignment where TP
/// groups are innermost/contiguous).
///
/// # Examples
///
/// ```
/// use msd_mesh::{Axis, DeviceMesh};
///
/// // The paper's 576-GPU trial: TP=4, PP=4, CP=4, DP=9.
/// let mesh = DeviceMesh::new(vec![
///     (Axis::PP, 4), (Axis::DP, 9), (Axis::CP, 4), (Axis::TP, 4),
/// ]).unwrap();
/// assert_eq!(mesh.world_size(), 576);
/// assert_eq!(mesh.size(Axis::CP), 4);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeviceMesh {
    dims: Vec<(Axis, u32)>,
}

impl DeviceMesh {
    /// Creates a mesh from `(axis, size)` dims, outermost first.
    pub fn new(dims: Vec<(Axis, u32)>) -> Result<Self, MeshError> {
        for (i, (axis, size)) in dims.iter().enumerate() {
            if *size == 0 {
                return Err(MeshError::ZeroSize(*axis));
            }
            if dims[..i].iter().any(|(a, _)| a == axis) {
                return Err(MeshError::DuplicateAxis(*axis));
            }
        }
        Ok(DeviceMesh { dims })
    }

    /// Canonical 4D constructor (PP, DP, CP, TP), omitting size-1 axes is
    /// fine — they behave identically either way.
    pub fn pp_dp_cp_tp(pp: u32, dp: u32, cp: u32, tp: u32) -> Result<Self, MeshError> {
        DeviceMesh::new(vec![
            (Axis::PP, pp),
            (Axis::DP, dp),
            (Axis::CP, cp),
            (Axis::TP, tp),
        ])
    }

    /// Pure data parallelism over `n` devices.
    pub fn data_parallel(n: u32) -> Result<Self, MeshError> {
        DeviceMesh::new(vec![(Axis::DP, n)])
    }

    /// The dims, outermost first.
    pub fn dims(&self) -> &[(Axis, u32)] {
        &self.dims
    }

    /// Total number of ranks.
    pub fn world_size(&self) -> u32 {
        self.dims.iter().map(|(_, s)| *s).product()
    }

    /// Size of an axis (1 if the axis is absent).
    pub fn size(&self, axis: Axis) -> u32 {
        self.dims
            .iter()
            .find(|(a, _)| *a == axis)
            .map(|(_, s)| *s)
            .unwrap_or(1)
    }

    /// The coordinate of `rank` along `axis` (0 if absent).
    pub fn coord(&self, rank: Rank, axis: Axis) -> Result<u32, MeshError> {
        let world = self.world_size();
        if rank >= world {
            return Err(MeshError::RankOutOfBounds { rank, world });
        }
        let mut stride = world;
        for (a, s) in &self.dims {
            stride /= s;
            let c = (rank / stride) % s;
            if *a == axis {
                return Ok(c);
            }
        }
        Ok(0)
    }

    /// Full coordinates of a rank, in dim order.
    pub fn coords(&self, rank: Rank) -> Result<Vec<(Axis, u32)>, MeshError> {
        let world = self.world_size();
        if rank >= world {
            return Err(MeshError::RankOutOfBounds { rank, world });
        }
        let mut out = Vec::with_capacity(self.dims.len());
        let mut stride = world;
        for (a, s) in &self.dims {
            stride /= s;
            out.push((*a, (rank / stride) % s));
        }
        Ok(out)
    }

    /// The rank with the given coordinates (missing axes default to 0).
    pub fn rank_of(&self, coords: &[(Axis, u32)]) -> Result<Rank, MeshError> {
        let mut rank = 0u32;
        let mut stride = self.world_size();
        for (a, s) in &self.dims {
            stride /= s;
            let c = coords
                .iter()
                .find(|(ca, _)| ca == a)
                .map(|(_, c)| *c)
                .unwrap_or(0);
            if c >= *s {
                return Err(MeshError::RankOutOfBounds { rank: c, world: *s });
            }
            rank += c * stride;
        }
        Ok(rank)
    }

    /// The communication group of `rank` along `axis`: all ranks that share
    /// its coordinates on every *other* axis, sorted ascending.
    pub fn group_of(&self, rank: Rank, axis: Axis) -> Result<Vec<Rank>, MeshError> {
        let base = self.coords(rank)?;
        let n = self.size(axis);
        let mut out = Vec::with_capacity(n as usize);
        for c in 0..n {
            let mut coords = base.clone();
            if let Some(slot) = coords.iter_mut().find(|(a, _)| *a == axis) {
                slot.1 = c;
            }
            out.push(self.rank_of(&coords)?);
        }
        out.sort_unstable();
        Ok(out)
    }

    /// All communication groups along `axis`.
    pub fn groups(&self, axis: Axis) -> Vec<Vec<Rank>> {
        let mut seen = std::collections::HashSet::new();
        let mut out = Vec::new();
        for rank in 0..self.world_size() {
            let group = self
                .group_of(rank, axis)
                .expect("rank in range by construction");
            if seen.insert(group.clone()) {
                out.push(group);
            }
        }
        out
    }

    /// Ranks on pipeline stage 0 (the only stage that loads full payloads).
    pub fn first_stage_ranks(&self) -> Vec<Rank> {
        (0..self.world_size())
            .filter(|r| self.coord(*r, Axis::PP).expect("in range") == 0)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validations() {
        assert!(DeviceMesh::new(vec![(Axis::DP, 0)]).is_err());
        assert!(DeviceMesh::new(vec![(Axis::DP, 2), (Axis::DP, 2)]).is_err());
        let mesh = DeviceMesh::pp_dp_cp_tp(8, 9, 1, 4).unwrap();
        assert_eq!(mesh.world_size(), 288);
    }

    #[test]
    fn coords_roundtrip() {
        let mesh = DeviceMesh::pp_dp_cp_tp(2, 3, 2, 4).unwrap();
        for rank in 0..mesh.world_size() {
            let coords = mesh.coords(rank).unwrap();
            assert_eq!(mesh.rank_of(&coords).unwrap(), rank);
        }
    }

    #[test]
    fn tp_is_innermost() {
        // Megatron convention: consecutive ranks differ in TP coordinate.
        let mesh = DeviceMesh::pp_dp_cp_tp(2, 2, 2, 4).unwrap();
        assert_eq!(mesh.coord(0, Axis::TP).unwrap(), 0);
        assert_eq!(mesh.coord(1, Axis::TP).unwrap(), 1);
        assert_eq!(mesh.coord(3, Axis::TP).unwrap(), 3);
        assert_eq!(mesh.coord(4, Axis::TP).unwrap(), 0);
        assert_eq!(mesh.coord(4, Axis::CP).unwrap(), 1);
    }

    #[test]
    fn groups_partition_the_world() {
        let mesh = DeviceMesh::pp_dp_cp_tp(2, 3, 2, 2).unwrap();
        for axis in Axis::CANONICAL {
            let groups = mesh.groups(axis);
            let total: usize = groups.iter().map(Vec::len).sum();
            assert_eq!(total as u32, mesh.world_size(), "axis {}", axis.label());
            // Each group has the axis size.
            for g in &groups {
                assert_eq!(g.len() as u32, mesh.size(axis));
            }
        }
    }

    #[test]
    fn group_of_contains_self() {
        let mesh = DeviceMesh::pp_dp_cp_tp(2, 2, 2, 2).unwrap();
        for rank in 0..mesh.world_size() {
            for axis in Axis::CANONICAL {
                let g = mesh.group_of(rank, axis).unwrap();
                assert!(g.contains(&rank));
            }
        }
    }

    #[test]
    fn absent_axis_defaults() {
        let mesh = DeviceMesh::data_parallel(8).unwrap();
        assert_eq!(mesh.size(Axis::TP), 1);
        assert_eq!(mesh.coord(5, Axis::PP).unwrap(), 0);
        assert_eq!(mesh.group_of(5, Axis::TP).unwrap(), vec![5]);
    }

    #[test]
    fn first_stage_ranks_have_pp0() {
        let mesh = DeviceMesh::pp_dp_cp_tp(4, 2, 1, 2).unwrap();
        let ranks = mesh.first_stage_ranks();
        assert_eq!(ranks.len() as u32, mesh.world_size() / 4);
        for r in ranks {
            assert_eq!(mesh.coord(r, Axis::PP).unwrap(), 0);
        }
    }

    #[test]
    fn out_of_bounds_rank_errors() {
        let mesh = DeviceMesh::data_parallel(4).unwrap();
        assert!(matches!(
            mesh.coord(4, Axis::DP),
            Err(MeshError::RankOutOfBounds { .. })
        ));
        assert!(mesh.rank_of(&[(Axis::DP, 9)]).is_err());
    }
}
