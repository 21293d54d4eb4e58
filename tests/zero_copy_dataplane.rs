//! Zero-copy data-plane integration tests.
//!
//! Two contracts are pinned here:
//!
//! 1. **Golden equivalence** — the sim path ([`MegaScaleData`]) and the
//!    threaded serve path ([`ThreadedPipeline::serve`]) built from the
//!    same parts produce *byte-identical* batch streams (same plans, same
//!    packing, same payload bytes). This is the guard rail for the
//!    zero-copy refactor: sharing buffers instead of copying them must
//!    not change a single delivered byte.
//! 2. **No-copy fan-out** — payload bytes are never duplicated on the way
//!    from a storage block to N serving clients: constructed batches
//!    share the popped samples' allocations (asserted via
//!    [`bytes::Bytes::ptr_eq`]), and clients of the same constructor
//!    receive the *same* batch (asserted via [`Arc::ptr_eq`]).

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use megascale_data::balance::{BackboneShape, BalanceMethod};
use megascale_data::core::autoscale::{ClusterResources, PartitionOpts};
use megascale_data::core::constructor::{ConstructedBatch, DataConstructor};
use megascale_data::core::loader::{LoaderConfig, SourceLoader};
use megascale_data::core::planner::{Planner, PlannerConfig, Strategy};
use megascale_data::core::schedule::MixSchedule;
use megascale_data::core::system::runtime::{ServeOptions, ThreadedPipeline};
use megascale_data::core::system::{MegaScaleData, MsdConfig};
use megascale_data::core::PipelineCore;
use megascale_data::data::catalog::coyo700m_like;
use megascale_data::data::gen::materialize_source;
use megascale_data::data::{Catalog, SourceSpec};
use megascale_data::mesh::{Axis, ClientPlaceTree, DeviceMesh, DistributeAxis};
use megascale_data::sim::SimRng;
use megascale_data::storage::MemStore;

const SEED: u64 = 4242;
const SAMPLES_PER_STEP: usize = 16;
const STEPS: u64 = 5;

/// One client's observed `(serve step, shared batch)` stream.
type Stream = Vec<(u64, Arc<ConstructedBatch>)>;

fn catalog() -> Catalog {
    let mut rng = SimRng::seed(6);
    coyo700m_like(&mut rng)
}

fn mesh() -> DeviceMesh {
    DeviceMesh::pp_dp_cp_tp(1, 2, 1, 2).unwrap()
}

fn planner(catalog: &Catalog) -> Planner {
    Planner::new(
        PlannerConfig {
            axis: DistributeAxis::DP,
            group_size: None,
            microbatches: 2,
            broadcast_axes: vec![Axis::TP],
            samples_per_step: SAMPLES_PER_STEP,
            schedule: MixSchedule::uniform(catalog.len()),
        },
        Strategy::BackboneBalance {
            method: BalanceMethod::Greedy,
            backbone: BackboneShape {
                layers: 2,
                hidden: 128,
                mlp_ratio: 4.0,
                heads: 2,
                vocab: 1000,
                experts_per_token: 1,
            },
        },
        ClientPlaceTree::from_device_mesh(&mesh()),
        catalog.sources().iter().map(|s| s.id).collect(),
        7,
    )
}

fn sources(catalog: &Catalog) -> Vec<(SourceSpec, LoaderConfig)> {
    catalog
        .sources()
        .iter()
        .enumerate()
        .map(|(i, s)| (s.clone(), LoaderConfig::solo(i as u32)))
        .collect()
}

fn msd_config(catalog: Catalog) -> MsdConfig {
    MsdConfig {
        planner: PlannerConfig {
            axis: DistributeAxis::DP,
            group_size: None,
            microbatches: 2,
            broadcast_axes: vec![Axis::TP],
            samples_per_step: SAMPLES_PER_STEP,
            schedule: MixSchedule::uniform(catalog.len()),
        },
        catalog,
        mesh: mesh(),
        strategy: Strategy::Vanilla, // Unused: from_parts takes the planner.
        max_seq_len: 4096,
        resources: ClusterResources {
            total_cores: 32,
            total_mem_bytes: 1 << 40,
        },
        partition: PartitionOpts::default(),
        buffer_capacity: 1024,
        seed: SEED,
    }
}

/// The per-loader refill target `MegaScaleData::step` uses, mirrored so
/// the serve driver fills buffers identically.
fn refill_target(loaders: usize) -> usize {
    (SAMPLES_PER_STEP / loaders.max(1)).max(4) * 2
}

#[test]
fn sim_and_serve_paths_produce_byte_identical_batches() {
    let catalog = catalog();

    // Sim path: MegaScaleData from explicit parts.
    let mut sim = MegaScaleData::from_parts(
        msd_config(catalog.clone()),
        planner(&catalog),
        sources(&catalog),
    );
    let mut golden: Vec<HashMap<u32, ConstructedBatch>> = Vec::new();
    for _ in 0..STEPS {
        let out = sim.step().unwrap();
        golden.push(
            out.batches
                .into_iter()
                .map(|b| (b.bucket, b))
                .collect::<HashMap<_, _>>(),
        );
    }

    // Threaded serve path: same sources, same planner, same seed; one
    // client per bucket so every bucket's stream is observed.
    let srcs = sources(&catalog);
    let n_loaders = srcs.len();
    let buckets = golden[0].len() as u32;
    let constructors = (0..buckets)
        .map(|_| DataConstructor::new(mesh(), 4096))
        .collect();
    let mut thr = ThreadedPipeline::new(srcs, planner(&catalog), constructors, SEED);
    let mut session = thr.serve(ServeOptions {
        clients: buckets,
        steps: STEPS,
        refill_target: refill_target(n_loaders),
        queue_depth: 4,
        prefetch: true,
        pull_timeout: Duration::from_millis(500),
        ..ServeOptions::default()
    });
    let handles: Vec<_> = session
        .take_clients()
        .into_iter()
        .map(|mut c| {
            std::thread::spawn(move || {
                let mut stream = Vec::new();
                while let Some((step, batch)) = c.next() {
                    stream.push((step, batch));
                }
                (c.id, stream)
            })
        })
        .collect();
    let streams: Vec<(u32, Stream)> = handles
        .into_iter()
        .map(|h| h.join().expect("client thread"))
        .collect();
    assert_eq!(session.join(), STEPS);

    // Client i pulls from constructor i, which serves bucket i
    // (bucket → constructor mapping is `bucket % count`).
    for (id, stream) in &streams {
        assert_eq!(stream.len(), STEPS as usize, "client {id} missed steps");
        for (step, batch) in stream {
            assert_eq!(
                PipelineCore::constructor_index(batch.bucket, buckets as usize),
                *id as usize,
                "bucket → constructor mapping drifted"
            );
            let expect = &golden[*step as usize][&batch.bucket];
            assert_eq!(
                batch.as_ref(),
                expect,
                "client {id} step {step}: serve path diverged from sim path"
            );
            // Batches carry real payload bytes.
            assert!(batch.microbatches.iter().any(|m| !m.payloads.is_empty()));
        }
    }
}

#[test]
fn clients_of_one_constructor_share_the_same_batch_allocation() {
    let catalog = catalog();
    let srcs = sources(&catalog);
    let n_loaders = srcs.len();
    let constructors = (0..2).map(|_| DataConstructor::new(mesh(), 4096)).collect();
    let mut thr = ThreadedPipeline::new(srcs, planner(&catalog), constructors, SEED);
    let mut session = thr.serve(ServeOptions {
        clients: 4,
        steps: 4,
        refill_target: refill_target(n_loaders),
        queue_depth: 4,
        prefetch: true,
        pull_timeout: Duration::from_millis(500),
        ..ServeOptions::default()
    });
    let handles: Vec<_> = session
        .take_clients()
        .into_iter()
        .map(|mut c| {
            std::thread::spawn(move || {
                let mut stream = Vec::new();
                while let Some((step, batch)) = c.next() {
                    stream.push((step, batch));
                }
                (c.id, stream)
            })
        })
        .collect();
    let streams: Vec<(u32, Stream)> = handles
        .into_iter()
        .map(|h| h.join().expect("client thread"))
        .collect();
    assert_eq!(session.join(), 4);

    // Clients 0/2 share constructor 0, clients 1/3 share constructor 1:
    // each pair must observe the *same* batch objects (fan-out is a
    // refcount bump, zero per-client payload copies) — and therefore the
    // same underlying payload allocations.
    for (id_a, stream_a) in &streams {
        for (id_b, stream_b) in &streams {
            if id_a < id_b && id_a % 2 == id_b % 2 {
                for ((sa, a), (sb, b)) in stream_a.iter().zip(stream_b) {
                    assert_eq!(sa, sb);
                    assert!(
                        Arc::ptr_eq(a, b),
                        "clients {id_a}/{id_b} step {sa}: batch was deep-copied per client"
                    );
                    for (ma, mb) in a.microbatches.iter().zip(&b.microbatches) {
                        for ((ia, pa), (ib, pb)) in ma.payloads.iter().zip(&mb.payloads) {
                            assert_eq!(ia, ib);
                            assert!(Bytes::ptr_eq(pa, pb));
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn stored_payloads_reach_the_batch_without_a_single_copy() {
    // End to end: MSDCOL01 file bytes → range-read block → decoded row →
    // loader buffer → pop → constructed batch, all one allocation. The
    // loader's sample transforms are deferred past the pop
    // (transformation reordering with an empty head) so nothing mutates
    // the payload on the way.
    let store = Arc::new(MemStore::new());
    let mut rng = SimRng::seed(9);
    let spec = catalog().sources()[0].clone();
    let manifest = materialize_source(store.as_ref(), "data", &spec, 64, &mut rng).unwrap();
    let file = megascale_data::storage::ObjectStore::get(store.as_ref(), &manifest.path).unwrap();

    let mut loader = SourceLoader::stored(
        spec,
        LoaderConfig::solo(0),
        store.clone(),
        manifest.path.clone(),
        1,
    );
    loader.set_transform_split(Some(0)); // Defer the whole pipeline.
    loader.refill(8).unwrap();
    let ids: Vec<u64> = loader
        .summary()
        .samples
        .iter()
        .map(|m| m.sample_id)
        .collect();
    let popped = loader.pop(&ids);
    assert_eq!(popped.len(), 8);
    for s in &popped {
        assert!(
            Bytes::ptr_eq(&s.payload, &file),
            "sample {} was copied out of the stored file buffer",
            s.meta.sample_id
        );
    }

    // Constructing a batch still shares the file allocation.
    let constructor = DataConstructor::new(mesh(), 4096);
    let samples: HashMap<u64, _> = popped.into_iter().map(|s| (s.meta.sample_id, s)).collect();
    let plan = megascale_data::core::plan::BucketPlan {
        bucket: 0,
        clients: vec![0],
        bins: vec![megascale_data::core::plan::BinPlan {
            bin: 0,
            samples: ids,
            total_cost: 0.0,
        }],
    };
    let batch = constructor.construct(&plan, &samples, &[]);
    let payloads: Vec<&(u64, Bytes)> = batch
        .microbatches
        .iter()
        .flat_map(|m| m.payloads.iter())
        .collect();
    assert_eq!(payloads.len(), 8);
    for (id, payload) in payloads {
        assert!(
            Bytes::ptr_eq(payload, &file),
            "batch payload for sample {id} no longer shares the file buffer"
        );
    }
}
