//! Fig 20 — Scalability advantages of the actor model.
//!
//! Pure-text training compared between MegaScale-Data (loaders → Data
//! Constructors → clients) and a direct-transfer baseline that bypasses
//! constructors (every client talks to every loader). Paper: comparable
//! at 1k GPUs; 10× fetch blowup for the baseline at 2k; complete collapse
//! at 4k, where MegaScale-Data sustains throughput via redistribution.

use msd_bench::baselines::{
    ClusterShape, DirectTransfer, LoaderSystem, MsdArchitecture, WorkloadShape,
};
use msd_bench::{banner, f, table_header, table_row};
use msd_mesh::DeviceMesh;

fn main() {
    banner(
        "Figure 20",
        "Actor-model scalability (pure-text, direct transfer vs MSD)",
    );
    let iter_compute_s = 8.0;
    table_header(&[
        "GPUs",
        "direct_fetch_s",
        "msd_fetch_s",
        "blowup",
        "direct_conn_GiB",
        "verdict",
    ]);
    let mut direct_1k = 0.0f64;
    for gpus in [1024u32, 2048, 4096] {
        let mesh = DeviceMesh::pp_dp_cp_tp(1, gpus / 4, 1, 4).unwrap();
        let cluster = ClusterShape::l20_node(mesh);
        let workload = WorkloadShape {
            sources: 100,
            access_state_bytes: 600 << 20,
            mean_transform_ns: 0.2e6, // Text tokenization is cheap.
            max_transform_ns: 0.5e6,
            samples_per_iter: u64::from(gpus) * 8,
            sample_bytes: 64 << 10,
            iter_compute_s,
        };
        let direct = DirectTransfer::default().report(&cluster, &workload);
        let msd = MsdArchitecture::default().report(&cluster, &workload);
        if gpus == 1024 {
            direct_1k = direct.fetch_latency_s;
        }
        let blowup = direct.fetch_latency_s / direct_1k;
        let conn_mem = msd_bench::net::NetModel::default()
            .conn_memory(direct.loader_instances * u64::from(gpus / 4));
        let verdict = if direct.fetch_latency_s > iter_compute_s {
            "COLLAPSED (input-bound)"
        } else if blowup > 5.0 {
            "degraded"
        } else {
            "ok"
        };
        table_row(&[
            gpus.to_string(),
            f(direct.fetch_latency_s),
            f(msd.fetch_latency_s),
            format!("{blowup:.1}x"),
            format!("{:.1}", conn_mem as f64 / (1u64 << 30) as f64),
            verdict.to_string(),
        ]);
    }
    println!("\n[paper: ~parity at 1k GPUs, 10x fetch blowup at 2k, collapse at 4k;");
    println!(" MegaScale-Data sustains throughput via Data Constructor redistribution]");
}
