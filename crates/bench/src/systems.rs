//! The baseline architectures (and the MegaScale-Data architecture in the
//! same vocabulary, for apples-to-apples reports).

use msd_core::loader::WORKER_CTX_BYTES;

use crate::model::{workers_to_hide, ClusterShape, LoaderSystem, SystemReport, WorkloadShape};
use crate::net::NetModel;

fn per_node(total: u64, cluster: &ClusterShape) -> u64 {
    total / u64::from(cluster.nodes().max(1))
}

/// PyTorch DataLoader: colocated, one loader per (TP-elided) rank, every
/// worker process holds its own access state for **all** sources.
pub struct TorchDataLoader;

impl LoaderSystem for TorchDataLoader {
    fn name(&self) -> &'static str {
        "torch"
    }

    fn report(&self, cluster: &ClusterShape, w: &WorkloadShape) -> SystemReport {
        let instances = cluster.tp_elided_clients();
        // Each instance preprocesses its share of the batch; workers sized
        // for the slowest source (no per-source specialization).
        let share_ns = w.max_transform_ns * w.samples_per_iter as f64 / instances as f64;
        let workers_per_instance = workers_to_hide(share_ns, w.iter_compute_s);
        let workers_total = instances * workers_per_instance;
        // The defining cost: per-worker × per-source access states.
        let memory_total = workers_total
            * (u64::from(w.sources) * w.access_state_bytes + WORKER_CTX_BYTES)
            + instances * 2 * w.samples_per_iter / instances.max(1) * w.sample_bytes;
        SystemReport {
            name: self.name().into(),
            loader_instances: instances,
            workers_total,
            memory_total,
            memory_per_node: per_node(memory_total, cluster),
            // Colocated: no network hop; visible latency is the steady-state
            // dequeue residual of the prefetch pipeline.
            fetch_latency_s: share_ns / workers_per_instance as f64 / 1e9 * 0.01,
        }
    }
}

/// tf.data (local variant behaves like torch; the evaluation uses the
/// service flavor): remote disaggregated worker pool, parallelism-unaware
/// per-rank clients.
pub struct TfDataService;

impl LoaderSystem for TfDataService {
    fn name(&self) -> &'static str {
        "tf_data"
    }

    fn report(&self, cluster: &ClusterShape, w: &WorkloadShape) -> SystemReport {
        let clients = cluster.tp_elided_clients();
        // Shared pool sized for aggregate demand at the worst-source rate.
        let total_ns = w.max_transform_ns * w.samples_per_iter as f64;
        let workers_total = workers_to_hide(total_ns, w.iter_compute_s);
        // Remote workers each open every source; clients hold prefetch
        // buffers (2 batches deep).
        let memory_total = workers_total
            * (u64::from(w.sources) * w.access_state_bytes + WORKER_CTX_BYTES)
            + clients * 2 * (w.samples_per_iter / clients.max(1)) * w.sample_bytes;
        let net = NetModel::default();
        let batch_bytes = w.samples_per_iter / clients.max(1) * w.sample_bytes;
        SystemReport {
            name: self.name().into(),
            loader_instances: clients,
            workers_total,
            memory_total,
            memory_per_node: per_node(memory_total, cluster),
            fetch_latency_s: net
                .fanin_transfer(batch_bytes, clients as u32)
                .as_secs_f64(),
        }
    }
}

/// Cachew: tf.data service + preprocessing cache. In single-epoch LFM
/// training the cache never re-hits, so it only adds memory.
pub struct Cachew;

impl LoaderSystem for Cachew {
    fn name(&self) -> &'static str {
        "cachew"
    }

    fn report(&self, cluster: &ClusterShape, w: &WorkloadShape) -> SystemReport {
        let mut base = TfDataService.report(cluster, w);
        // Cache provisioned for a window of transformed batches.
        let cache_bytes = w.samples_per_iter * w.sample_bytes * 20;
        base.name = self.name().into();
        base.memory_total += cache_bytes;
        base.memory_per_node = per_node(base.memory_total, cluster);
        // Auto-scaling trims a little latency over vanilla tf.data.
        base.fetch_latency_s *= 0.9;
        base
    }
}

/// Ray Data: remote streaming-batch execution over an object store.
/// Objects are materialized in the plasma store (an extra copy) and
/// consumed by parallelism-unaware per-rank iterators.
pub struct RayData;

impl LoaderSystem for RayData {
    fn name(&self) -> &'static str {
        "ray_data"
    }

    fn report(&self, cluster: &ClusterShape, w: &WorkloadShape) -> SystemReport {
        let clients = cluster.tp_elided_clients();
        let total_ns = w.max_transform_ns * w.samples_per_iter as f64;
        let workers_total = workers_to_hide(total_ns, w.iter_compute_s);
        // Object-store double buffering: produced blocks live in plasma
        // until consumed (×2 on batch payloads).
        let memory_total = workers_total
            * (u64::from(w.sources) * w.access_state_bytes + WORKER_CTX_BYTES)
            + 2 * w.samples_per_iter * w.sample_bytes
            + clients * WORKER_CTX_BYTES / 4;
        let net = NetModel::default();
        let batch_bytes = w.samples_per_iter / clients.max(1) * w.sample_bytes;
        SystemReport {
            name: self.name().into(),
            loader_instances: clients,
            workers_total,
            memory_total,
            memory_per_node: per_node(memory_total, cluster),
            fetch_latency_s: net
                .fanin_transfer(batch_bytes, clients as u32)
                .as_secs_f64()
                * 1.1,
        }
    }
}

/// Pecan: hybrid local/remote placement with AutoOrder transformation
/// reordering (defers inflating transforms, shrinking shipped bytes and
/// total work).
pub struct Pecan;

impl LoaderSystem for Pecan {
    fn name(&self) -> &'static str {
        "pecan"
    }

    fn report(&self, cluster: &ClusterShape, w: &WorkloadShape) -> SystemReport {
        let clients = cluster.tp_elided_clients();
        // AutoOrder trims ~25% of transform work off the critical path.
        let total_ns = w.max_transform_ns * w.samples_per_iter as f64 * 0.75;
        let workers_total = workers_to_hide(total_ns, w.iter_compute_s);
        let memory_total = workers_total
            * (u64::from(w.sources) * w.access_state_bytes + WORKER_CTX_BYTES)
            + clients * (w.samples_per_iter / clients.max(1)) * w.sample_bytes;
        let net = NetModel::default();
        // Deferred decode ships compressed bytes (~1/8 of transformed).
        let batch_bytes = w.samples_per_iter / clients.max(1) * w.sample_bytes / 8;
        SystemReport {
            name: self.name().into(),
            loader_instances: clients,
            workers_total,
            memory_total,
            memory_per_node: per_node(memory_total, cluster),
            fetch_latency_s: net
                .fanin_transfer(batch_bytes, clients as u32)
                .as_secs_f64(),
        }
    }
}

/// The MegaScale-Data architecture in the same vocabulary: one loader per
/// source (not per rank, not per worker), per-source worker sizing, Data
/// Constructors as the only per-bucket state.
pub struct MsdArchitecture {
    /// Mean loader actors per source (from auto-partitioning).
    pub actors_per_source: f64,
    /// Mean workers per actor.
    pub workers_per_actor: f64,
    /// Shadow loaders per source (fault tolerance; 0 in Fig 12 per Sec 7.1).
    pub shadows: u32,
}

impl Default for MsdArchitecture {
    fn default() -> Self {
        MsdArchitecture {
            actors_per_source: 1.2,
            workers_per_actor: 3.0,
            shadows: 0,
        }
    }
}

impl LoaderSystem for MsdArchitecture {
    fn name(&self) -> &'static str {
        "MegaScale-Data"
    }

    fn balances(&self) -> bool {
        true
    }

    fn report(&self, cluster: &ClusterShape, w: &WorkloadShape) -> SystemReport {
        let actors = (f64::from(w.sources) * self.actors_per_source).ceil() as u64;
        // Workers sized per-source for *mean* cost (auto-partitioning gives
        // expensive sources more workers instead of over-provisioning all).
        let total_ns = w.mean_transform_ns * w.samples_per_iter as f64;
        let workers_total =
            workers_to_hide(total_ns, w.iter_compute_s).max(actors * self.workers_per_actor as u64);
        // One access state per actor (not per worker), plus shadows.
        let dp_buckets = u64::from(cluster.mesh.size(msd_mesh::Axis::DP));
        let memory_total = (actors + u64::from(self.shadows) * u64::from(w.sources))
            * w.access_state_bytes
            + workers_total * WORKER_CTX_BYTES
            + dp_buckets * (w.samples_per_iter / dp_buckets.max(1)) * w.sample_bytes;
        let net = NetModel::default();
        // Coordination: metadata gather, plan computation (Table 2-scale,
        // ~5 µs/sample), and plan broadcast/barriers. Delivery fans in per
        // constructor to its own bucket's clients — constructors serve
        // disjoint links, so incast is bounded by clients-per-bucket.
        let batch_bytes = w.samples_per_iter / dp_buckets.max(1) * w.sample_bytes;
        let clients_per_bucket =
            (u64::from(cluster.mesh.world_size()) / dp_buckets.max(1)).max(1) as u32;
        let coordination_s = 2.0 * net.barrier(cluster.mesh.world_size()).as_secs_f64()
            + net.transfer(w.samples_per_iter * 32).as_secs_f64()
            + w.samples_per_iter as f64 * 5e-6;
        SystemReport {
            name: self.name().into(),
            loader_instances: actors,
            workers_total,
            memory_total,
            memory_per_node: per_node(memory_total, cluster),
            fetch_latency_s: net
                .fanin_transfer(batch_bytes, clients_per_bucket)
                .as_secs_f64()
                + coordination_s,
        }
    }
}

/// Fig 20's ablation: MegaScale-Data loaders without Data Constructors —
/// every trainer client connects to every source loader directly.
pub struct DirectTransfer {
    /// Loader actor count (as in [`MsdArchitecture`]).
    pub actors_per_source: f64,
}

impl Default for DirectTransfer {
    fn default() -> Self {
        DirectTransfer {
            actors_per_source: 1.2,
        }
    }
}

impl LoaderSystem for DirectTransfer {
    fn name(&self) -> &'static str {
        "direct-transfer"
    }

    fn report(&self, cluster: &ClusterShape, w: &WorkloadShape) -> SystemReport {
        let actors = (f64::from(w.sources) * self.actors_per_source).ceil() as u64;
        let clients = cluster.tp_elided_clients();
        let net = NetModel::default();
        // Every client opens a connection to every loader.
        let conns = actors * clients;
        let workers_total = workers_to_hide(
            w.mean_transform_ns * w.samples_per_iter as f64,
            w.iter_compute_s,
        );
        let memory_total = actors * w.access_state_bytes
            + workers_total * WORKER_CTX_BYTES
            + net.conn_memory(conns);
        // Each loader terminates `clients` concurrent request streams per
        // step. Request handling serializes on the loader's network stack
        // (accept/poll/serialize per connection) and the concurrent flows
        // congest superlinearly past the incast knee — this is the
        // communication bottleneck that collapses the baseline at 4k GPUs
        // while the Data Constructor's per-bucket fan-in stays flat.
        let per_client_bytes = w.samples_per_iter * w.sample_bytes / clients.max(1);
        let request_handling_s =
            clients as f64 * net.conn_setup.as_secs_f64() * net.incast_factor(clients as u32);
        let fetch_latency_s = request_handling_s
            + net
                .fanin_transfer(per_client_bytes, clients as u32)
                .as_secs_f64();
        SystemReport {
            name: self.name().into(),
            loader_instances: actors,
            workers_total,
            memory_total,
            memory_per_node: per_node(memory_total, cluster),
            fetch_latency_s,
        }
    }
}

/// All Fig 12 systems in legend order.
pub fn fig12_systems() -> Vec<Box<dyn LoaderSystem>> {
    vec![
        Box::new(TorchDataLoader),
        Box::new(TfDataService),
        Box::new(Cachew),
        Box::new(Pecan),
        Box::new(RayData),
        Box::new(MsdArchitecture::default()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use msd_mesh::DeviceMesh;

    fn cluster_288() -> ClusterShape {
        ClusterShape::l20_node(DeviceMesh::pp_dp_cp_tp(8, 9, 1, 4).unwrap())
    }

    fn cluster_576() -> ClusterShape {
        ClusterShape::l20_node(DeviceMesh::pp_dp_cp_tp(4, 9, 4, 4).unwrap())
    }

    fn workload(sources: u32) -> WorkloadShape {
        WorkloadShape {
            sources,
            access_state_bytes: 900 << 20,
            mean_transform_ns: 4e6,
            max_transform_ns: 40e6,
            samples_per_iter: 72 * 288,
            sample_bytes: 512 << 10,
            iter_compute_s: 15.0,
        }
    }

    #[test]
    fn msd_uses_far_less_memory_than_torch() {
        let c = cluster_288();
        let w = workload(306);
        let torch = TorchDataLoader.report(&c, &w);
        let msd = MsdArchitecture::default().report(&c, &w);
        let ratio = torch.memory_per_node as f64 / msd.memory_per_node as f64;
        // Fig 12 reports 4.2–14.5×; the model should land in that decade.
        assert!(ratio > 3.0, "ratio = {ratio:.1}");
        assert!(ratio < 100.0, "ratio = {ratio:.1}");
    }

    #[test]
    fn baseline_memory_scales_linearly_with_sources() {
        let c = cluster_288();
        let torch_5 = TorchDataLoader.report(&c, &workload(5));
        let torch_306 = TorchDataLoader.report(&c, &workload(306));
        let growth = torch_306.memory_total as f64 / torch_5.memory_total as f64;
        assert!(growth > 20.0, "growth = {growth:.1}");
        // MSD grows far more slowly (per-actor, not per-worker states).
        let msd_5 = MsdArchitecture::default().report(&c, &workload(5));
        let msd_306 = MsdArchitecture::default().report(&c, &workload(306));
        let msd_growth = msd_306.memory_total as f64 / msd_5.memory_total as f64;
        assert!(
            msd_growth < growth / 1.5,
            "msd {msd_growth:.1} vs {growth:.1}"
        );
    }

    #[test]
    fn parallelism_growth_hurts_parallelism_unaware_systems() {
        // 288 → 576 GPUs (adds CP=4): per-rank cloned systems double their
        // instances; MSD's actors stay put.
        let w = workload(306);
        let torch_288 = TorchDataLoader.report(&cluster_288(), &w);
        let torch_576 = TorchDataLoader.report(&cluster_576(), &w);
        assert!(torch_576.loader_instances > torch_288.loader_instances);
        let msd_288 = MsdArchitecture::default().report(&cluster_288(), &w);
        let msd_576 = MsdArchitecture::default().report(&cluster_576(), &w);
        assert_eq!(msd_288.loader_instances, msd_576.loader_instances);
    }

    #[test]
    fn msd_fetch_latency_is_higher_than_torch_but_small() {
        // Fig 12: MSD pays minor coordination latency, masked by training.
        let c = cluster_288();
        let w = workload(306);
        let torch = TorchDataLoader.report(&c, &w);
        let msd = MsdArchitecture::default().report(&c, &w);
        assert!(msd.fetch_latency_s > torch.fetch_latency_s);
        assert!(
            msd.fetch_latency_s < w.iter_compute_s,
            "must stay overlapped"
        );
    }

    #[test]
    fn cachew_adds_cache_memory_over_tf_data() {
        let c = cluster_288();
        let w = workload(306);
        let tf = TfDataService.report(&c, &w);
        let cachew = Cachew.report(&c, &w);
        assert!(cachew.memory_total > tf.memory_total);
        assert!(cachew.fetch_latency_s < tf.fetch_latency_s);
    }

    #[test]
    fn pecan_ships_fewer_bytes_than_tf_data() {
        let c = cluster_288();
        let w = workload(306);
        let tf = TfDataService.report(&c, &w);
        let pecan = Pecan.report(&c, &w);
        assert!(pecan.fetch_latency_s < tf.fetch_latency_s);
        assert!(pecan.workers_total <= tf.workers_total);
    }

    #[test]
    fn direct_transfer_collapses_at_scale() {
        let w = workload(100);
        let small = ClusterShape::l20_node(DeviceMesh::pp_dp_cp_tp(1, 256, 1, 4).unwrap()); // 1k
        let large = ClusterShape::l20_node(DeviceMesh::pp_dp_cp_tp(1, 1024, 1, 4).unwrap()); // 4k
        let dt_small = DirectTransfer::default().report(&small, &w);
        let dt_large = DirectTransfer::default().report(&large, &w);
        let blowup = dt_large.fetch_latency_s / dt_small.fetch_latency_s;
        assert!(blowup > 3.0, "blowup = {blowup:.1}");
        // MSD stays roughly flat over the same scaling.
        let msd_small = MsdArchitecture::default().report(&small, &w);
        let msd_large = MsdArchitecture::default().report(&large, &w);
        let msd_blowup = msd_large.fetch_latency_s / msd_small.fetch_latency_s;
        assert!(msd_blowup < blowup / 2.0, "msd = {msd_blowup:.2}");
    }

    #[test]
    fn fig12_lineup_is_complete() {
        let systems = fig12_systems();
        assert_eq!(systems.len(), 6);
        let c = cluster_288();
        let w = workload(306);
        for s in &systems {
            let r = s.report(&c, &w);
            assert!(r.memory_per_node > 0, "{}", r.name);
            assert!(r.fetch_latency_s >= 0.0);
        }
        assert!(systems.iter().filter(|s| s.balances()).count() == 1);
    }
}
