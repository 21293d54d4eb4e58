//! Device mesh, `ClientPlaceTree`, and parallelism transformations.
//!
//! Hybrid-parallel LFM training arranges GPUs in a multi-dimensional mesh
//! (PP × DP × CP × TP in the paper's 4D setups). How training *consumes
//! data* follows from the mesh (Sec 2.1):
//!
//! - **DP** partitions microbatches across replicas;
//! - **CP** scatters each sequence across the ranks of a CP group;
//! - **TP** replicates inputs within a group (only one rank needs to fetch);
//! - **PP** feeds all microbatches to stage 0; later stages need metadata
//!   only.
//!
//! [`DeviceMesh`] models the mesh, [`ClientPlaceTree`] is the paper's
//! hierarchical topology abstraction that `distribute`/`broadcast_at`
//! resolve against, and [`transform`] implements the mechanical data
//! transformations (CP splits incl. zig-zag, TP broadcast elision, PP
//! metadata filtering).

pub mod mesh;
pub mod transform;
pub mod tree;

pub use mesh::{Axis, DeviceMesh, MeshError, Rank};
pub use transform::{
    causal_cost, cp_partition, cp_range, delivery_census, delivery_kind, zigzag_partition, CpStyle,
    DeliveryKind,
};
pub use tree::{BroadcastTradeoff, ClientPlaceTree, DistributeAxis};
