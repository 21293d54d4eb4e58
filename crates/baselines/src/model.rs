//! The common modeling vocabulary for dataloader architectures.

use msd_mesh::{Axis, DeviceMesh};

/// Shape of the training cluster.
#[derive(Debug, Clone)]
pub struct ClusterShape {
    /// The trainer device mesh.
    pub mesh: DeviceMesh,
    /// GPUs per physical node (16 × L20 in the paper's testbed).
    pub gpus_per_node: u32,
    /// Host DRAM per node available to loaders (half of 1.8 TB under the
    /// paper's sidecar split).
    pub host_mem_per_node: u64,
    /// Host CPU cores per node available to loaders.
    pub cores_per_node: u64,
}

impl ClusterShape {
    /// The paper's testbed node: 16 GPUs, 1.8 TB DRAM (half for loaders),
    /// 128 cores (half for loaders).
    pub fn l20_node(mesh: DeviceMesh) -> Self {
        ClusterShape {
            mesh,
            gpus_per_node: 16,
            host_mem_per_node: (18 << 40) / 20, // 0.9 TB for loaders
            cores_per_node: 64,
        }
    }

    /// Number of nodes.
    pub fn nodes(&self) -> u32 {
        self.mesh.world_size().div_ceil(self.gpus_per_node)
    }

    /// Loader client instances after TP-broadcast elision (enabled for all
    /// systems in the evaluation): one per TP group.
    pub fn tp_elided_clients(&self) -> u64 {
        u64::from(self.mesh.world_size() / self.mesh.size(Axis::TP).max(1))
    }
}

/// Shape of the preprocessing workload.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadShape {
    /// Number of data sources in the mixture.
    pub sources: u32,
    /// Mean per-source access-state bytes (socket + footer + row-group
    /// buffer).
    pub access_state_bytes: u64,
    /// Mean transformation cost per sample, ns.
    pub mean_transform_ns: f64,
    /// Worst-source transformation cost per sample, ns (worker sizing must
    /// cover this to avoid stalls).
    pub max_transform_ns: f64,
    /// Samples consumed per iteration, cluster-wide.
    pub samples_per_iter: u64,
    /// Mean transformed-sample payload bytes.
    pub sample_bytes: u64,
    /// Training compute time per iteration, seconds (the overlap budget).
    pub iter_compute_s: f64,
}

/// Resident memory of one loader *worker process* execution context
/// (interpreter, transform code, prefetch slots).
pub const WORKER_CTX_BYTES: u64 = 200 << 20;

/// Architectural report of one system on one workload.
#[derive(Debug, Clone)]
pub struct SystemReport {
    /// System name.
    pub name: String,
    /// Loader instances (clients with full pipelines).
    pub loader_instances: u64,
    /// Total worker processes across the cluster.
    pub workers_total: u64,
    /// Total loader-side memory, bytes (cluster-wide).
    pub memory_total: u64,
    /// Average loader memory per node, bytes.
    pub memory_per_node: u64,
    /// Average per-iteration data fetch latency, seconds (unoverlapped).
    pub fetch_latency_s: f64,
}

/// A dataloader architecture.
pub trait LoaderSystem {
    /// Display name (matches the Fig 12 legend).
    fn name(&self) -> &'static str;

    /// Whether the system performs load-time cost balancing (only
    /// MegaScale-Data does).
    fn balances(&self) -> bool {
        false
    }

    /// Computes the architectural report.
    fn report(&self, cluster: &ClusterShape, workload: &WorkloadShape) -> SystemReport;
}

/// Workers needed to hide `total_transform_ns` of per-iteration transform
/// work behind `iter_compute_s` of training compute.
pub fn workers_to_hide(total_transform_ns: f64, iter_compute_s: f64) -> u64 {
    let budget_ns = (iter_compute_s * 1e9).max(1.0);
    (total_transform_ns / budget_ns).ceil().max(1.0) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cluster_shape_arithmetic() {
        let mesh = DeviceMesh::pp_dp_cp_tp(8, 9, 1, 4).unwrap(); // 288 GPUs
        let c = ClusterShape::l20_node(mesh);
        assert_eq!(c.nodes(), 18);
        assert_eq!(c.tp_elided_clients(), 72);
    }

    #[test]
    fn worker_sizing_covers_demand() {
        // 100 s of transform work per iteration, 10 s compute → 10 workers.
        assert_eq!(workers_to_hide(100e9, 10.0), 10);
        assert_eq!(workers_to_hide(1.0, 10.0), 1);
        assert_eq!(workers_to_hide(0.0, 0.0), 1);
    }
}
