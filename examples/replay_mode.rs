//! Replay Mode (paper §9): record a run's plans, replay them on a twin.
//!
//! ```text
//! cargo run --example replay_mode
//! ```
//!
//! A predictable schedule's per-step plans can be computed once and
//! replayed at training time. This example runs the pipeline live for
//! `STEPS` steps, collecting every plan into a `PlanStore`; checkpoints the
//! store as one `MSDB` frame and restores it; then installs it on an
//! identically seeded twin, which adopts each stored plan instead of
//! running the strategy. Exits non-zero unless the twin replays every step
//! and schedules exactly the live run's samples.

use megascale_data::balance::{BackboneShape, BalanceMethod};
use megascale_data::core::autoscale::{ClusterResources, PartitionOpts};
use megascale_data::core::planner::{PlannerConfig, Strategy};
use megascale_data::core::replay::PlanStore;
use megascale_data::core::schedule::MixSchedule;
use megascale_data::core::system::{MegaScaleData, MsdConfig};
use megascale_data::data::catalog::coyo700m_like;
use megascale_data::mesh::{Axis, DeviceMesh, DistributeAxis};
use megascale_data::sim::SimRng;

const STEPS: u64 = 10;

fn pipeline() -> MegaScaleData {
    let mut rng = SimRng::seed(13);
    let catalog = coyo700m_like(&mut rng);
    MegaScaleData::new(MsdConfig {
        catalog: catalog.clone(),
        mesh: DeviceMesh::pp_dp_cp_tp(1, 4, 1, 2).expect("mesh"),
        strategy: Strategy::BackboneBalance {
            method: BalanceMethod::Greedy,
            backbone: BackboneShape {
                layers: 12,
                hidden: 1024,
                mlp_ratio: 4.0,
                heads: 16,
                vocab: 32000,
                experts_per_token: 1,
            },
        },
        planner: PlannerConfig {
            axis: DistributeAxis::DP,
            group_size: None,
            microbatches: 2,
            broadcast_axes: vec![Axis::TP],
            samples_per_step: 48,
            schedule: MixSchedule::uniform(catalog.len()),
        },
        max_seq_len: 4096,
        resources: ClusterResources {
            total_cores: 32,
            total_mem_bytes: 1 << 40,
        },
        partition: PartitionOpts::default(),
        shadow_loaders: 1,
        buffer_capacity: 256,
        seed: 13,
    })
}

fn main() {
    // Live run: plan every step with the strategy, keep each plan.
    let mut live = pipeline();
    let mut store = PlanStore::new();
    let mut live_ns = 0u64;
    let mut expected = Vec::new();
    for _ in 0..STEPS {
        let out = live.step().expect("live step");
        live_ns += out.phases.gather_ns + out.phases.compute_ns;
        expected.push(out.plan.all_samples());
        store.insert(out.plan);
    }

    // The schedule checkpoint: one MSDB frame.
    let checkpoint = store.to_bytes();
    println!(
        "recorded {STEPS} steps: {} KiB checkpoint (one MSDB frame)",
        checkpoint.len() / 1024
    );
    let restored = PlanStore::from_bytes(&checkpoint).expect("restore plan store");

    // Replay on an identically seeded twin.
    let mut twin = pipeline();
    twin.set_replay_store(restored);
    let mut replay_ns = 0u64;
    let mut diverged = Vec::new();
    for (step, want) in expected.iter().enumerate() {
        let out = twin.step().expect("replay step");
        replay_ns += out.phases.gather_ns + out.phases.compute_ns;
        if &out.plan.all_samples() != want {
            diverged.push(step);
        }
    }
    println!(
        "replayed {}/{STEPS} steps; planner gather+compute {:.3} ms live vs {:.3} ms replayed",
        twin.replayed_steps(),
        live_ns as f64 / 1e6,
        replay_ns as f64 / 1e6,
    );
    if twin.replayed_steps() != STEPS || !diverged.is_empty() {
        eprintln!(
            "replay mode failed: {} of {STEPS} steps replayed, diverged at steps {diverged:?}",
            twin.replayed_steps()
        );
        std::process::exit(1);
    }
}
