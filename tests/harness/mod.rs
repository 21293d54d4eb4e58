//! Shared harness for the distributed-serving integration suites (and,
//! at the bottom, the plan generators the codec property suite uses).
//!
//! `tests/distributed_serve.rs` and `tests/tcp_transport.rs` exercise
//! the same contract — serving trainer clients over the MSDB wire
//! protocol is *invisible* to them, whatever the transport — so they
//! share one pipeline recipe, one placement scheme, and one set of
//! stream-collection/assertion helpers. Keeping these in one place is
//! what makes the conformance suite *conformance*: every transport runs
//! through literally the same assertions.

#![allow(dead_code)] // Each test crate uses a subset of the harness.

use std::sync::Arc;
use std::time::Duration;

use megascale_data::balance::BalanceMethod;
use megascale_data::core::constructor::{ConstructedBatch, DataConstructor};
use megascale_data::core::loader::LoaderConfig;
use megascale_data::core::plan::{BinPlan, BucketPlan, LoadingPlan};
use megascale_data::core::planner::{Planner, PlannerConfig, Strategy};
use megascale_data::core::replay::PlanStore;
use megascale_data::core::schedule::MixSchedule;
use megascale_data::core::system::net::Transport;
use megascale_data::core::system::runtime::{ServeOptions, ThreadedPipeline};
use megascale_data::core::system::server::RemotePlacement;
use megascale_data::data::catalog::coyo700m_like;
use megascale_data::data::{Catalog, SourceSpec};
use megascale_data::mesh::{Axis, ClientPlaceTree, DeviceMesh, DistributeAxis};
use megascale_data::sim::SimRng;
// `Strategy` is the planner's enum in this file; the proptest trait is `Arb`.
use proptest::prelude::{any, prop_oneof, Just, Strategy as Arb};

pub fn small_backbone() -> megascale_data::balance::BackboneShape {
    megascale_data::balance::BackboneShape {
        layers: 2,
        hidden: 128,
        mlp_ratio: 4.0,
        heads: 2,
        vocab: 1000,
        experts_per_token: 1,
    }
}

/// A 5-source, DP=2 pipeline (2 constructor buckets); identical seeds
/// produce identical plan and batch streams, which is what lets these
/// tests compare local and distributed serving byte for byte.
pub fn pipeline(seed: u64) -> ThreadedPipeline {
    pipeline_over(&coyo700m_like(&mut SimRng::seed(2)), 16, seed)
}

/// The same DP=2 pipeline over any catalog, one loader per source,
/// planning `samples_per_step` samples a step.
pub fn pipeline_over(catalog: &Catalog, samples_per_step: usize, seed: u64) -> ThreadedPipeline {
    let mesh = DeviceMesh::pp_dp_cp_tp(1, 2, 1, 2).unwrap();
    let tree = ClientPlaceTree::from_device_mesh(&mesh);
    let planner = Planner::new(
        PlannerConfig {
            axis: DistributeAxis::DP,
            group_size: None,
            microbatches: 2,
            broadcast_axes: vec![Axis::TP],
            samples_per_step,
            schedule: MixSchedule::uniform(catalog.len()),
        },
        Strategy::BackboneBalance {
            method: BalanceMethod::Greedy,
            backbone: small_backbone(),
        },
        tree,
        catalog.sources().iter().map(|s| s.id).collect(),
        3,
    );
    let sources: Vec<(SourceSpec, LoaderConfig)> = catalog
        .sources()
        .iter()
        .enumerate()
        .map(|(i, s)| (s.clone(), LoaderConfig::solo(i as u32)))
        .collect();
    let constructors = (0..2)
        .map(|_| DataConstructor::new(mesh.clone(), 4096))
        .collect();
    ThreadedPipeline::new(sources, planner, constructors, seed)
}

pub fn opts(clients: u32, steps: u64) -> ServeOptions {
    ServeOptions {
        clients,
        steps,
        refill_target: 32,
        queue_depth: 3,
        prefetch: true,
        pull_timeout: Duration::from_millis(300),
        control_interval: 0,
        ..ServeOptions::default()
    }
}

/// The placements local `serve` makes for `n` clients: in the 1×2×1×2
/// mesh, DP bucket 0 holds ranks {0, 1} and bucket 1 holds {2, 3}, so
/// client `c` lands on bucket `c % 2`, and bucket-mates take its ranks
/// in turn.
pub fn placements(n: u32) -> Vec<RemotePlacement> {
    (0..n)
        .map(|c| RemotePlacement {
            client: c,
            rank: (c % 2) * 2 + (c / 2) % 2,
        })
        .collect()
}

pub type Stream = Vec<(u64, Arc<ConstructedBatch>)>;

/// Serves locally and collects every client's full stream.
pub fn local_streams(seed: u64, clients: u32, steps: u64) -> Vec<(u32, Stream)> {
    serve_local(pipeline(seed), opts(clients, steps))
}

/// Serves `p` locally under `opts`, collects every client's full stream
/// (sorted by client id), and shuts `p` down.
pub fn serve_local(mut p: ThreadedPipeline, opts: ServeOptions) -> Vec<(u32, Stream)> {
    let steps = opts.steps;
    let mut session = p.serve(opts);
    let handles: Vec<_> = session
        .take_clients()
        .into_iter()
        .map(|mut c| {
            std::thread::spawn(move || {
                let mut stream = Stream::new();
                while let Some(item) = c.next() {
                    stream.push(item);
                }
                (c.id, stream)
            })
        })
        .collect();
    let mut streams: Vec<_> = handles
        .into_iter()
        .map(|h| h.join().expect("client thread"))
        .collect();
    assert_eq!(session.join(), steps, "local driver fell short");
    p.shutdown();
    streams.sort_by_key(|(id, _)| *id);
    streams
}

/// Serves over `transport` and collects every remote client's stream.
pub fn remote_streams(
    transport: Arc<dyn Transport>,
    seed: u64,
    clients: u32,
    steps: u64,
) -> Vec<(u32, Stream)> {
    let mut p = pipeline(seed);
    let (session, handle) =
        p.serve_distributed(opts(clients, steps), transport, &placements(clients));
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let mut rc = handle.connect(c);
            std::thread::spawn(move || {
                let mut stream = Stream::new();
                while let Some(item) = rc.next() {
                    stream.push(item);
                }
                (rc.id, stream)
            })
        })
        .collect();
    let mut streams: Vec<_> = handles
        .into_iter()
        .map(|h| h.join().expect("remote client thread"))
        .collect();
    assert_eq!(session.join(), steps, "distributed driver fell short");
    p.shutdown();
    streams.sort_by_key(|(id, _)| *id);
    streams
}

/// Every client saw every step, in order.
pub fn assert_ordered_full(streams: &[(u32, Stream)], steps: u64) {
    for (id, stream) in streams {
        assert_eq!(stream.len(), steps as usize, "client {id} missed steps");
        for (i, (step, _)) in stream.iter().enumerate() {
            assert_eq!(*step, i as u64, "client {id} stream out of order");
        }
    }
}

/// `streams` matches `reference` batch for batch, down to the payload
/// bytes themselves — the byte-identical half of the conformance
/// contract (`label` names the transport under test in failures).
pub fn assert_byte_identical(reference: &[(u32, Stream)], streams: &[(u32, Stream)], label: &str) {
    for ((lid, lstream), (rid, rstream)) in reference.iter().zip(streams) {
        assert_eq!(lid, rid);
        for ((lstep, lbatch), (rstep, rbatch)) in lstream.iter().zip(rstream) {
            assert_eq!(lstep, rstep);
            assert_eq!(
                **lbatch, **rbatch,
                "client {lid} step {lstep}: {label} batch diverged from reference"
            );
            for (lmb, rmb) in lbatch.microbatches.iter().zip(&rbatch.microbatches) {
                for ((lid_, lp), (rid_, rp)) in lmb.payloads.iter().zip(&rmb.payloads) {
                    assert_eq!(lid_, rid_);
                    assert_eq!(lp.as_ref(), rp.as_ref());
                }
            }
        }
    }
}

/// Every sample id a batch carries, in segment order.
pub fn sample_ids(batch: &ConstructedBatch) -> Vec<u64> {
    batch
        .microbatches
        .iter()
        .flat_map(|m| &m.sequences)
        .flat_map(|s| &s.segments)
        .map(|seg| seg.sample_id)
        .collect()
}

/// Bin costs as bit patterns: NaNs of every payload, both zeros, the
/// infinities — `f64` values a decimal rendering would not keep apart.
fn arb_cost() -> impl Arb<Value = f64> {
    prop_oneof![
        0.0f64..1e9,
        any::<u64>().prop_map(f64::from_bits),
        Just(f64::NAN),
        Just(-0.0f64),
    ]
}

fn arb_ids(max: usize) -> impl Arb<Value = Vec<u64>> {
    proptest::collection::vec(any::<u64>(), 0..max)
}

/// A random plan with no sub-plans: every field populated.
fn arb_flat_plan() -> impl Arb<Value = LoadingPlan> {
    let axis = prop_oneof![
        Just(DistributeAxis::DP),
        Just(DistributeAxis::CP),
        Just(DistributeAxis::World),
    ];
    let broadcast_axis = (0usize..4).prop_map(|i| Axis::CANONICAL[i]);
    let buckets = proptest::collection::vec(
        (
            proptest::collection::vec(any::<u32>(), 0..3),
            proptest::collection::vec((arb_ids(8), arb_cost()), 0..4),
        ),
        0..5,
    );
    (
        0u64..100,
        axis,
        buckets,
        proptest::collection::vec(broadcast_axis, 0..3),
        proptest::collection::vec((0u32..64, arb_ids(8)), 0..4),
    )
        .prop_map(
            |(step, axis, buckets, broadcast_axes, directives)| LoadingPlan {
                step,
                axis,
                buckets: buckets
                    .into_iter()
                    .enumerate()
                    .map(|(b, (clients, bins))| BucketPlan {
                        bucket: b as u32,
                        clients,
                        bins: bins
                            .into_iter()
                            .enumerate()
                            .map(|(k, (samples, total_cost))| BinPlan {
                                bin: k as u32,
                                samples,
                                total_cost,
                            })
                            .collect(),
                    })
                    .collect(),
                broadcast_axes,
                directives: directives
                    .into_iter()
                    .map(|(loader, ids)| (loader, ids.into()))
                    .collect(),
                subplans: Default::default(),
            },
        )
}

/// Random plans for store round-trip testing, with the one level of
/// sub-plan nesting the planner produces (`"encoder"`) on about half.
pub fn arb_plan() -> impl Arb<Value = LoadingPlan> {
    (arb_flat_plan(), proptest::option::of(arb_flat_plan())).prop_map(|(mut plan, sub)| {
        plan.subplans
            .extend(sub.map(|sub| ("encoder".to_string(), sub)));
        plan
    })
}

/// Whether two stores hold the same plans down to the bits of every bin
/// cost. `PlanStore: PartialEq` cannot say: it compares costs as `f64`,
/// under which a NaN that survived intact still differs from itself.
pub fn stores_bit_identical(a: &PlanStore, b: &PlanStore) -> bool {
    fn cost_bits(plan: &LoadingPlan, out: &mut Vec<u64>) {
        out.extend(
            plan.buckets
                .iter()
                .flat_map(|b| b.bins.iter().map(|bin| bin.total_cost.to_bits())),
        );
        for sub in plan.subplans.values() {
            cost_bits(sub, out);
        }
    }
    a.len() == b.len()
        && a.plans().zip(b.plans()).all(|(x, y)| {
            let (mut xb, mut yb) = (Vec::new(), Vec::new());
            cost_bits(x, &mut xb);
            cost_bits(y, &mut yb);
            // `Debug` renders every NaN as "NaN", so the strings compare
            // everything but the cost bits, which `xb == yb` covers.
            xb == yb && format!("{x:?}") == format!("{y:?}")
        })
}
