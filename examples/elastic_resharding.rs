//! Elastic resharding: adapting to a trainer-topology change mid-run.
//!
//! ```text
//! cargo run --example elastic_resharding
//! ```
//!
//! The training framework shrinks from DP=8 to DP=4 (e.g. after losing a
//! node). MegaScale-Data rebuilds its `ClientPlaceTree` and every later
//! loading plan follows the new mesh (Sec 6.1). Nothing needs moving
//! between Data Constructors: a step's samples are constructed within the
//! step, so none sit unconstructed across the change. Exits non-zero
//! unless the bucket count follows the mesh.

use megascale_data::core::autoscale::{ClusterResources, PartitionOpts};
use megascale_data::core::planner::PlannerConfig;
use megascale_data::core::planner::Strategy;
use megascale_data::core::schedule::MixSchedule;
use megascale_data::core::system::{MegaScaleData, MsdConfig};
use megascale_data::data::catalog::coyo700m_like;
use megascale_data::mesh::{Axis, ClientPlaceTree, DeviceMesh, DistributeAxis};
use megascale_data::sim::SimRng;

fn main() {
    let mut rng = SimRng::seed(5);
    let catalog = coyo700m_like(&mut rng);
    let mesh8 = DeviceMesh::pp_dp_cp_tp(1, 8, 1, 2).expect("mesh");
    let mesh4 = DeviceMesh::pp_dp_cp_tp(1, 4, 1, 2).expect("mesh");

    let mut msd = MegaScaleData::new(MsdConfig {
        catalog: catalog.clone(),
        mesh: mesh8.clone(),
        strategy: Strategy::Vanilla,
        planner: PlannerConfig {
            axis: DistributeAxis::DP,
            group_size: None,
            microbatches: 2,
            broadcast_axes: vec![Axis::TP],
            samples_per_step: 64,
            schedule: MixSchedule::uniform(catalog.len()),
        },
        max_seq_len: 4096,
        resources: ClusterResources {
            total_cores: 64,
            total_mem_bytes: 1 << 40,
        },
        partition: PartitionOpts::default(),
        shadow_loaders: 0,
        buffer_capacity: 256,
        seed: 1,
    });

    // Run on the 16-GPU topology.
    let out = msd.step().expect("step");
    assert_eq!(
        out.plan.buckets.len(),
        8,
        "buckets must follow the DP=8 mesh"
    );
    println!(
        "before reshard: {} buckets x {} clients each",
        out.plan.buckets.len(),
        out.plan.buckets[0].clients.len()
    );

    // Notification arrives: topology shrinks to DP=4.
    let new_tree = ClientPlaceTree::from_device_mesh(&mesh4);

    // The planner switches to the new topology; future plans follow it.
    msd.planner().set_tree(new_tree);
    let out = msd.step().expect("post-reshard step");
    println!(
        "after reshard: {} buckets x {} clients each, {} samples delivered",
        out.plan.buckets.len(),
        out.plan.buckets[0].clients.len(),
        out.plan.all_samples().len()
    );
    assert_eq!(
        out.plan.buckets.len(),
        4,
        "buckets must follow the DP=4 mesh"
    );
}
