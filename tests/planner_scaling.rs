//! Counted planner scaling: what one `Planner::generate` allocates, read
//! from a counting global allocator that counts only the calling thread.
//!
//! Two properties are pinned on the `manysrc` shape (128 sources with one
//! loader each, 1,024 samples drawn per step, a two-rank DP mesh, backbone
//! balancing):
//!
//! 1. **Depth-independence** — allocator calls per `generate` are the
//!    same whether each loader buffers 32 or 256 samples: planning cost
//!    follows the samples a step draws, not the ones it leaves buffered.
//!    What a deeper buffer does cost is a few bytes per extra buffered
//!    sample — its node (which names the gathered row, without copying
//!    the metadata) and its place in `mix`'s order index — gated at 40 B.
//! 2. **The source curve** — calls and bytes per `generate` at 8 / 32 /
//!    128 / 512 sources with the same 4,096 buffered samples, printed
//!    (`cargo test --test planner_scaling -- --nocapture`).
//!
//! Counts are exact: the test thread is the only one counted, so other
//! tests running concurrently cannot disturb them.

#[path = "harness/counting.rs"]
mod counting;

use counting::counted;
use megascale_data::balance::{BackboneShape, BalanceMethod};
use megascale_data::core::buffer::{BufferInfo, BufferSummary};
use megascale_data::core::planner::{Planner, PlannerConfig, Strategy};
use megascale_data::core::schedule::MixSchedule;
use megascale_data::data::{Modality, SampleMeta, SourceId};
use megascale_data::mesh::{Axis, ClientPlaceTree, DeviceMesh, DistributeAxis};

/// Samples the `manysrc` planner draws per step.
const DRAWN: usize = 1024;

/// One loader per source, each buffering `depth` text samples whose
/// metadata depends only on (source, position): a deeper buffer holds the
/// shallower one as its prefix.
fn gather(sources: u32, depth: u64) -> BufferInfo {
    BufferInfo::new(
        (0..sources)
            .map(|s| BufferSummary {
                loader_id: s,
                source: SourceId(s),
                samples: (0..depth)
                    .map(|i| SampleMeta {
                        sample_id: u64::from(s) << 32 | i,
                        source: SourceId(s),
                        modality: Modality::Text,
                        text_tokens: 64 + ((i * 37 + u64::from(s) * 101) % 1024) as u32,
                        image_patches: 0,
                        raw_bytes: 2048,
                    })
                    .collect(),
                mean_transform_ns: 1000.0,
            })
            .collect(),
    )
}

/// The benchmark's `manysrc` planner over `sources` catalog sources.
fn planner(sources: u32) -> Planner {
    Planner::new(
        PlannerConfig {
            axis: DistributeAxis::DP,
            group_size: None,
            microbatches: 2,
            broadcast_axes: vec![Axis::TP],
            samples_per_step: DRAWN,
            schedule: MixSchedule::uniform(sources as usize),
        },
        Strategy::BackboneBalance {
            method: BalanceMethod::Greedy,
            backbone: BackboneShape {
                layers: 4,
                hidden: 256,
                mlp_ratio: 4.0,
                heads: 4,
                vocab: 8000,
                experts_per_token: 1,
            },
        },
        ClientPlaceTree::from_device_mesh(&DeviceMesh::pp_dp_cp_tp(1, 2, 1, 1).unwrap()),
        (0..sources).map(SourceId).collect(),
        7,
    )
}

/// `(calls, bytes)` of one fresh planner's first `generate` over `info`.
fn generate_cost(sources: u32, info: &BufferInfo) -> (u64, u64) {
    let mut p = planner(sources);
    let (plan, calls, bytes) = counted(|| p.generate(info).unwrap().0);
    assert_eq!(plan.all_samples().len(), DRAWN.min(info.total_samples()));
    (calls, bytes)
}

#[test]
fn generate_allocator_calls_do_not_grow_with_buffer_depth() {
    let (shallow, deep) = (gather(128, 32), gather(128, 256));
    generate_cost(128, &shallow); // Warm any lazily initialised state.
    let (calls_32, bytes_32) = generate_cost(128, &shallow);
    let (calls_256, bytes_256) = generate_cost(128, &deep);
    // The same samples are drawn at both depths (no source runs dry), so
    // everything but the per-node arrays is the same work.
    assert_eq!(
        calls_32, calls_256,
        "allocator calls per generate: {calls_32} at depth 32, {calls_256} at depth 256"
    );
    assert!(bytes_256 > bytes_32, "the node array follows the gather");
    let per_buffered = (bytes_256 - bytes_32) as f64 / (128.0 * 224.0);
    println!("planner.generate bytes per extra buffered sample: {per_buffered:.1}");
    assert!(
        per_buffered <= 40.0,
        "{per_buffered:.1} B per extra buffered sample ({bytes_32} B at depth 32, \
         {bytes_256} B at depth 256)"
    );
}

#[test]
fn generate_cost_by_source_count() {
    generate_cost(8, &gather(8, 512)); // Warm any lazily initialised state.
    println!("planner.generate, {DRAWN} drawn of 4096 buffered, one loader per source:");
    println!("sources  calls/generate  bytes/generate  bytes/drawn");
    for sources in [8u32, 32, 128, 512] {
        let info = gather(sources, 4096 / u64::from(sources));
        let (calls, bytes) = generate_cost(sources, &info);
        println!(
            "{sources:>7}  {calls:>14}  {bytes:>14}  {:>11.0}",
            bytes as f64 / DRAWN as f64
        );
        assert!(calls > 0 && bytes > 0);
    }
}
