//! End-to-end integration tests spanning storage → loaders → planner →
//! constructors → trainer delivery.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use megascale_data::balance::{BackboneShape, BalanceMethod};
use megascale_data::core::autoscale::{ClusterResources, PartitionOpts};
use megascale_data::core::buffer::BufferInfo;
use megascale_data::core::constructor::DataConstructor;
use megascale_data::core::loader::{LoaderConfig, SourceLoader};
use megascale_data::core::planner::{Planner, PlannerConfig, Strategy};
use megascale_data::core::replay::{validate_stored, FallbackReason, PlanStore};
use megascale_data::core::schedule::MixSchedule;
use megascale_data::core::system::core::{PipelineCore, PlanOutcome};
use megascale_data::core::system::{MegaScaleData, MsdConfig};
use megascale_data::data::catalog::coyo700m_like;
use megascale_data::data::gen::materialize_catalog;
use megascale_data::data::SourceSpec;
use megascale_data::mesh::{Axis, ClientPlaceTree, DeliveryKind, DeviceMesh, DistributeAxis};
use megascale_data::sim::SimRng;
use megascale_data::storage::MemStore;

fn backbone() -> BackboneShape {
    BackboneShape {
        layers: 4,
        hidden: 256,
        mlp_ratio: 4.0,
        heads: 4,
        vocab: 1000,
        experts_per_token: 1,
    }
}

/// Full path over *real materialized storage*: columnar files → stored
/// loaders → planner → constructor → per-client deliveries.
#[test]
fn stored_pipeline_end_to_end() {
    let store = Arc::new(MemStore::new());
    let mut rng = SimRng::seed(100);
    let catalog = coyo700m_like(&mut rng);
    let manifests =
        materialize_catalog(store.as_ref(), "data", &catalog, 64, &mut rng).expect("materialize");

    // One stored loader per source.
    let mut loaders: Vec<SourceLoader> = catalog
        .sources()
        .iter()
        .zip(&manifests)
        .enumerate()
        .map(|(i, (spec, manifest))| {
            SourceLoader::stored(
                spec.clone(),
                LoaderConfig::solo(i as u32),
                store.clone(),
                manifest.path.clone(),
                5,
            )
        })
        .collect();
    for l in &mut loaders {
        l.refill(32).expect("refill from storage");
    }

    let mesh = DeviceMesh::pp_dp_cp_tp(2, 2, 2, 2).expect("mesh");
    let tree = ClientPlaceTree::from_device_mesh(&mesh);
    let mut planner = Planner::new(
        PlannerConfig {
            axis: DistributeAxis::DP,
            group_size: None,
            microbatches: 2,
            broadcast_axes: vec![Axis::TP],
            samples_per_step: 40,
            schedule: MixSchedule::uniform(catalog.len()),
        },
        Strategy::BackboneBalance {
            method: BalanceMethod::Greedy,
            backbone: backbone(),
        },
        tree,
        catalog.sources().iter().map(|s| s.id).collect(),
        77,
    );

    let info = BufferInfo::new(loaders.iter().map(SourceLoader::summary).collect());
    let (plan, phases) = planner.generate(&info).expect("plan");
    assert_eq!(plan.all_samples().len(), 40);
    assert!(phases.compute_ns > 0);

    // Loaders pop; constructor assembles; deliveries respect parallelism.
    let mut popped = HashMap::new();
    for l in &mut loaders {
        if let Some(ids) = plan.directives.get(&l.id()) {
            for s in l.pop(ids) {
                popped.insert(s.meta.sample_id, s);
            }
        }
    }
    assert_eq!(popped.len(), 40, "all planned samples must be popped");

    let constructor = DataConstructor::new(mesh.clone(), 4096);
    let mut delivered_samples = HashSet::new();
    for bucket in &plan.buckets {
        let batch = constructor.construct(bucket, &popped, &plan.broadcast_axes);
        for mb in &batch.microbatches {
            for seq in &mb.sequences {
                for seg in &seq.segments {
                    delivered_samples.insert(seg.sample_id);
                }
            }
        }
        // Parallelism roles: TP>0 elided; PP>0 metadata-only; CP slices
        // tile every payload sequence exactly.
        for d in &batch.deliveries {
            let tp = mesh.coord(d.rank, Axis::TP).expect("rank valid");
            let pp = mesh.coord(d.rank, Axis::PP).expect("rank valid");
            match d.kind {
                DeliveryKind::Elided => assert!(tp > 0),
                DeliveryKind::MetadataOnly => {
                    assert_eq!(tp, 0);
                    assert!(pp > 0);
                }
                DeliveryKind::Payload => {
                    assert_eq!(tp, 0);
                    assert_eq!(pp, 0);
                }
            }
        }
        for (mb_idx, mb) in batch.microbatches.iter().enumerate() {
            for (seq_idx, seq) in mb.sequences.iter().enumerate() {
                let mut covered = 0u64;
                for d in &batch.deliveries {
                    if d.kind == DeliveryKind::Payload {
                        let (s, e) = d.cp_slices[mb_idx][seq_idx];
                        covered += e - s;
                    }
                }
                // Each payload rank covers its CP shard; the CP group
                // of payload ranks tiles the sequence once per TP0/PP0.
                assert_eq!(covered, seq.padded_len(), "sequence must be tiled");
            }
        }
    }
    assert_eq!(delivered_samples.len(), 40);
}

/// The facade pipeline is deterministic, non-repeating, and keeps plans,
/// metas, and batches mutually consistent across many steps.
#[test]
fn sustained_run_consistency() {
    let mut rng = SimRng::seed(4);
    let catalog = coyo700m_like(&mut rng);
    let mut msd = MegaScaleData::new(MsdConfig {
        catalog: catalog.clone(),
        mesh: DeviceMesh::pp_dp_cp_tp(1, 4, 1, 1).expect("mesh"),
        strategy: Strategy::Vanilla,
        planner: PlannerConfig {
            axis: DistributeAxis::DP,
            group_size: None,
            microbatches: 4,
            broadcast_axes: vec![],
            samples_per_step: 48,
            schedule: MixSchedule::uniform(catalog.len()),
        },
        max_seq_len: 4096,
        resources: ClusterResources {
            total_cores: 32,
            total_mem_bytes: 1 << 40,
        },
        partition: PartitionOpts::default(),
        shadow_loaders: 0,
        buffer_capacity: 512,
        seed: 6,
    });

    let mut seen: HashSet<u64> = HashSet::new();
    for step in 0..10 {
        let out = msd.step().expect("step");
        let ids = out.plan.all_samples();
        assert_eq!(ids.len(), 48, "step {step}");
        // Single-epoch: no sample is ever scheduled twice.
        for id in &ids {
            assert!(seen.insert(*id), "sample {id} rescheduled at step {step}");
        }
        // Metas cover exactly the scheduled set.
        assert_eq!(out.metas.len(), ids.len());
        for id in &ids {
            assert!(out.metas.contains_key(id));
        }
        // Plan step counter advances.
        assert_eq!(out.plan.step, step);
    }
}

/// Loss-adaptive mixing shifts realized source composition.
#[test]
fn loss_adaptive_mixing_responds() {
    let mut rng = SimRng::seed(9);
    let catalog = coyo700m_like(&mut rng);
    let n = catalog.len();
    let mut msd = MegaScaleData::new(MsdConfig {
        catalog: catalog.clone(),
        mesh: DeviceMesh::pp_dp_cp_tp(1, 2, 1, 1).expect("mesh"),
        strategy: Strategy::Vanilla,
        planner: PlannerConfig {
            axis: DistributeAxis::DP,
            group_size: None,
            microbatches: 2,
            broadcast_axes: vec![],
            samples_per_step: 40,
            schedule: MixSchedule::LossAdaptive {
                base: vec![1.0; n],
                sensitivity: 3.0,
                losses: vec![0.0; n],
            },
        },
        max_seq_len: 4096,
        resources: ClusterResources {
            total_cores: 16,
            total_mem_bytes: 1 << 40,
        },
        partition: PartitionOpts::default(),
        shadow_loaders: 0,
        buffer_capacity: 512,
        seed: 2,
    });
    // Uniform losses: roughly even sampling.
    let out = msd.step().expect("step");
    let count_src0 = |out: &megascale_data::core::system::StepOutput| {
        out.metas
            .values()
            .filter(|m| m.source == catalog.sources()[0].id)
            .count()
    };
    let before = count_src0(&out);
    // Source 0 suddenly has much higher loss: sampling should shift to it.
    let mut losses = vec![0.0; n];
    losses[0] = 3.0;
    msd.planner().observe_loss(&losses);
    let out = msd.step().expect("step");
    let after = count_src0(&out);
    assert!(
        after > before + 5,
        "loss-adaptive shift too weak: {before} -> {after}"
    );
}

fn specs(n: usize) -> Vec<SourceSpec> {
    let mut rng = SimRng::seed(77);
    coyo700m_like(&mut rng).sources()[..n].to_vec()
}

fn fleet(specs: &[SourceSpec], seed: u64) -> Vec<SourceLoader> {
    specs
        .iter()
        .enumerate()
        .map(|(i, spec)| SourceLoader::synthetic(spec.clone(), LoaderConfig::solo(i as u32), seed))
        .collect()
}

fn replay_core(specs: &[SourceSpec], mesh: &DeviceMesh, samples_per_step: usize) -> PipelineCore {
    PipelineCore::new(Planner::new(
        PlannerConfig {
            axis: DistributeAxis::DP,
            group_size: None,
            microbatches: 2,
            broadcast_axes: vec![Axis::TP],
            samples_per_step,
            schedule: MixSchedule::uniform(specs.len()),
        },
        Strategy::BackboneBalance {
            method: BalanceMethod::Greedy,
            backbone: backbone(),
        },
        ClientPlaceTree::from_device_mesh(mesh),
        specs.iter().map(|s| s.id).collect(),
        31,
    ))
}

/// Runs `steps` steps of `core` over `loaders` (refill to `fill`, plan,
/// pop every directive), returning each step's outcome. Every directive
/// must pop in full.
fn drive(
    core: &mut PipelineCore,
    loaders: &mut [SourceLoader],
    steps: u64,
    fill: usize,
) -> Vec<PlanOutcome> {
    (0..steps)
        .map(|_| {
            for l in loaders.iter_mut() {
                l.refill(fill).expect("refill");
            }
            let info = BufferInfo::new(loaders.iter().map(SourceLoader::summary).collect());
            let out = core.synthesize(&info).expect("plan");
            for (loader_id, ids) in &out.plan.directives {
                let popped = loaders[*loader_id as usize].pop(ids);
                assert_eq!(popped.len(), ids.len(), "directive must pop");
            }
            out
        })
        .collect()
}

/// Replay Mode against real loaders: record plans from fleet A, replay them
/// through the pipeline core driving identically seeded fleet B; every
/// directive pops successfully.
#[test]
fn replay_drives_identically_seeded_loader_fleet() {
    let specs = specs(3);
    let mesh = DeviceMesh::pp_dp_cp_tp(1, 4, 1, 1).expect("mesh");
    let (steps, per_step) = (5u64, 20usize);

    // Offline: drive fleet A through the full loop, recording plans.
    let mut store = PlanStore::new();
    for out in drive(
        &mut replay_core(&specs, &mesh, per_step),
        &mut fleet(&specs, 1000),
        steps,
        64,
    ) {
        store.insert(out.plan);
    }

    // Checkpoint round trip, as a deployment would.
    let store = PlanStore::from_bytes(&store.to_bytes()).expect("restore");

    // Online: fleet B (same seeds) served from the store.
    let mut core = replay_core(&specs, &mesh, per_step);
    core.set_replay_store(store.clone());
    let replayed = drive(&mut core, &mut fleet(&specs, 1000), steps, 64);
    let mut delivered = 0usize;
    for (step, out) in replayed.iter().enumerate() {
        assert!(out.replayed, "step {step} must replay");
        assert_eq!(out.phases.gather_ns, 0);
        assert_eq!(Some(&out.plan), store.get(step as u64));
        delivered += out.plan.all_samples().len();
    }
    assert_eq!(delivered, steps as usize * per_step);
    assert_eq!(core.replayed_steps, steps);
}

/// A fleet whose buffers no longer hold the recorded ids forces fallback —
/// and the live plan still pops cleanly from the divergent buffers.
#[test]
fn replay_falls_back_on_diverged_fleet_and_recovers() {
    let specs = specs(2);
    let mesh = DeviceMesh::pp_dp_cp_tp(1, 2, 1, 1).expect("mesh");

    let mut store = PlanStore::new();
    for out in drive(
        &mut replay_core(&specs, &mesh, 8),
        &mut fleet(&specs, 1),
        3,
        32,
    ) {
        store.insert(out.plan);
    }

    // Online fleet seeded differently with only 4 buffered samples per
    // loader: the 8-sample recorded plan references ids not yet produced,
    // so the stored plan is stale and the step plans live over what exists.
    let mut loaders = fleet(&specs, 2);
    for l in &mut loaders {
        l.refill(4).expect("refill");
    }
    let info = BufferInfo::new(loaders.iter().map(SourceLoader::summary).collect());
    assert!(matches!(
        validate_stored(store.get(0).expect("recorded"), &info, 2),
        Err(FallbackReason::StaleSamples { .. })
    ));
    let mut core = replay_core(&specs, &mesh, 8);
    core.set_replay_store(store);
    let fallback = &drive(&mut core, &mut loaders, 1, 4)[0];
    assert!(!fallback.replayed);
    assert!(fallback.phases.gather_ns > 0, "live planning gathers");
    assert_eq!(fallback.plan.step, 0);
    assert_eq!(core.replayed_steps, 0);
}
