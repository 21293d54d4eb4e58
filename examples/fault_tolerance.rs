//! Fault tolerance: loader restarts with differential checkpoints.
//!
//! ```text
//! cargo run --example fault_tolerance
//! ```
//!
//! Two demonstrations:
//!
//! 1. **Deterministic failover** — a Source Loader is restarted mid-run:
//!    it restores its last (low-frequency) checkpoint and replays the
//!    plans executed since it to reach exactly the pre-failure stream
//!    position.
//! 2. **Threaded supervision** — the actor-deployed pipeline detects a
//!    crashed loader via RPC failure, the supervisor restarts it from its
//!    GCS checkpoint, and the run continues.

use std::time::Duration;

use megascale_data::actor::RestartPolicy;
use megascale_data::balance::BalanceMethod;
use megascale_data::bench::fault::ettr;
use megascale_data::core::autoscale::{ClusterResources, PartitionOpts};
use megascale_data::core::planner::{PlannerConfig, Strategy};
use megascale_data::core::schedule::MixSchedule;
use megascale_data::core::system::{MegaScaleData, MsdConfig};
use megascale_data::data::catalog::coyo700m_like;
use megascale_data::mesh::{Axis, DeviceMesh, DistributeAxis};
use megascale_data::sim::SimRng;

fn main() {
    let mut rng = SimRng::seed(3);
    let catalog = coyo700m_like(&mut rng);
    let mut msd = MegaScaleData::new(MsdConfig {
        catalog: catalog.clone(),
        mesh: DeviceMesh::pp_dp_cp_tp(1, 2, 1, 2).expect("mesh"),
        strategy: Strategy::BackboneBalance {
            method: BalanceMethod::Greedy,
            backbone: megascale_data::balance::BackboneShape {
                layers: 4,
                hidden: 512,
                mlp_ratio: 4.0,
                heads: 8,
                vocab: 32000,
                experts_per_token: 1,
            },
        },
        planner: PlannerConfig {
            axis: DistributeAxis::DP,
            group_size: None,
            microbatches: 2,
            broadcast_axes: vec![Axis::TP],
            samples_per_step: 32,
            schedule: MixSchedule::uniform(catalog.len()),
        },
        max_seq_len: 4096,
        resources: ClusterResources {
            total_cores: 32,
            total_mem_bytes: 512 << 30,
        },
        partition: PartitionOpts::default(),
        buffer_capacity: 128,
        seed: 9,
    });

    println!("== 1. loader restart from a checkpoint ==");
    for step in 0..4 {
        let out = msd.step().expect("step");
        println!(
            "step {step}: delivered {} samples",
            out.plan.all_samples().len()
        );
    }
    // Restart loader 0 as after a crash: it restores its last checkpoint
    // and replays the plans issued since.
    println!("loader 0 failed; restarting it ...");
    let report = msd.restart_loader(0);
    println!(
        "  restored checkpoint v{} and replayed {} plans ({} delivered samples dropped)",
        report.restored_version, report.replayed_plans, report.replayed_samples
    );
    let out = msd.step().expect("post-failover step");
    println!(
        "post-failover step delivers {} samples\n",
        out.plan.all_samples().len()
    );

    println!("== 2. supervised actor restart ==");
    threaded_demo();

    println!("\n== ETTR impact (paper Fig 16e: 1.08x during failures) ==");
    let horizon = 4.0 * 3600.0;
    println!(
        "  4h with 6 failures: cold restart ETTR {:.3}, shadow ETTR {:.3} ({:.2}x)",
        ettr(horizon, 6, 300.0),
        ettr(horizon, 6, 15.0),
        ettr(horizon, 6, 15.0) / ettr(horizon, 6, 300.0)
    );
}

fn threaded_demo() {
    use megascale_data::actor::actor::ReplyTo;
    use megascale_data::actor::{Actor, ActorSystem, Ctx};

    // A miniature "loader" actor that counts produced batches, with its
    // durable cursor mirrored in the GCS pattern (here: factory closure).
    struct MiniLoader {
        produced: u64,
    }
    enum Msg {
        Produce(ReplyTo<u64>),
    }
    impl Actor for MiniLoader {
        type Msg = Msg;
        fn handle(&mut self, msg: Msg, _ctx: &mut Ctx) {
            match msg {
                Msg::Produce(reply) => {
                    self.produced += 1;
                    reply.send(self.produced);
                }
            }
        }
    }

    let system = ActorSystem::new("demo");
    let loader = system.spawn_supervised(
        "loader/0",
        RestartPolicy::Restart { max_restarts: 2 },
        || MiniLoader { produced: 0 },
    );
    for _ in 0..3 {
        let n = loader
            .ask(Msg::Produce, Duration::from_secs(2))
            .expect("alive");
        println!("  produced batch #{n}");
    }
    println!("  injecting crash ...");
    loader.inject_crash("demo fault");
    std::thread::sleep(Duration::from_millis(100));
    // The supervisor restarted the actor; it keeps serving.
    let n = loader
        .ask(Msg::Produce, Duration::from_secs(2))
        .expect("restarted actor answers");
    println!("  after restart: produced batch #{n} (state reset; GCS restores durable state)");
    loader.stop();
    system.shutdown();
}
