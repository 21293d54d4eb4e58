//! Integration tests for the elastic loader control plane.
//!
//! The controller must re-provision the loader fleet *while the runtime
//! serves*: a drifting source mixture triggers live supervised scale-ups
//! and drain/hand-off retirements, with every client still observing a
//! gap-free, duplicate-free batch stream; every executed decision lands
//! as an `MSDB` GCS checkpoint from which a rebuilt deployment resumes
//! the exact topology.

use std::collections::HashSet;
use std::time::Duration;

use megascale_data::actor::Gcs;
use megascale_data::balance::BalanceMethod;
use megascale_data::core::constructor::{ConstructedBatch, DataConstructor};
use megascale_data::core::loader::LoaderConfig;
use megascale_data::core::planner::{Planner, PlannerConfig, Strategy};
use megascale_data::core::schedule::MixSchedule;
use megascale_data::core::system::controller::{ControllerConfig, ControllerMsg};
use megascale_data::core::system::runtime::{LoaderMsg, ServeOptions, ThreadedPipeline};
use megascale_data::data::catalog::coyo700m_like;
use megascale_data::data::{Catalog, SourceId, SourceSpec};
use megascale_data::mesh::{Axis, ClientPlaceTree, DeviceMesh, DistributeAxis};
use megascale_data::sim::SimRng;

fn small_backbone() -> megascale_data::balance::BackboneShape {
    megascale_data::balance::BackboneShape {
        layers: 2,
        hidden: 128,
        mlp_ratio: 4.0,
        heads: 2,
        vocab: 1000,
        experts_per_token: 1,
    }
}

/// A fast-reacting control plane, so tests need few intervals.
fn controller_config() -> ControllerConfig {
    ControllerConfig {
        alpha: 0.6,
        patience: 2,
        max_loaders_per_source: 3,
        ..ControllerConfig::default()
    }
}

/// The 5-source image catalog every test here draws from.
fn catalog() -> Catalog {
    coyo700m_like(&mut SimRng::seed(2))
}

/// Builds a 5-source pipeline whose mixture follows `schedule`, against
/// an explicit control store (so tests can rebuild from its checkpoints).
fn pipeline(
    schedule: MixSchedule,
    seed: u64,
    gcs: Gcs,
    ctrl: ControllerConfig,
) -> ThreadedPipeline {
    let sources: Vec<(SourceSpec, LoaderConfig)> = catalog()
        .sources()
        .iter()
        .enumerate()
        .map(|(i, s)| (s.clone(), LoaderConfig::solo(i as u32)))
        .collect();
    pipeline_with(sources, schedule, seed, gcs, ctrl)
}

/// A pipeline over the catalog's sources with an explicit loader list.
fn pipeline_with(
    sources: Vec<(SourceSpec, LoaderConfig)>,
    schedule: MixSchedule,
    seed: u64,
    gcs: Gcs,
    ctrl: ControllerConfig,
) -> ThreadedPipeline {
    let catalog = catalog();
    let mesh = DeviceMesh::pp_dp_cp_tp(1, 2, 1, 2).unwrap();
    let tree = ClientPlaceTree::from_device_mesh(&mesh);
    let planner = Planner::new(
        PlannerConfig {
            axis: DistributeAxis::DP,
            group_size: None,
            microbatches: 2,
            broadcast_axes: vec![Axis::TP],
            samples_per_step: 16,
            schedule,
        },
        Strategy::BackboneBalance {
            method: BalanceMethod::Greedy,
            backbone: small_backbone(),
        },
        tree,
        catalog.sources().iter().map(|s| s.id).collect(),
        3,
    );
    let constructors = (0..2)
        .map(|_| DataConstructor::new(mesh.clone(), 4096))
        .collect();
    ThreadedPipeline::new_with(sources, planner, constructors, seed, gcs, ctrl)
}

/// Source 0 split into two shards (loader ids 0/1), one loader for each
/// other source (ids 2..): a source that can retire or rebalance.
fn two_shard_loaders() -> Vec<(SourceSpec, LoaderConfig)> {
    let mut sources: Vec<(SourceSpec, LoaderConfig)> = Vec::new();
    for (i, s) in catalog().sources().iter().enumerate() {
        if i == 0 {
            for shard in 0..2u32 {
                sources.push((
                    s.clone(),
                    LoaderConfig {
                        shard,
                        shards: 2,
                        ..LoaderConfig::solo(shard)
                    },
                ));
            }
        } else {
            sources.push((s.clone(), LoaderConfig::solo(i as u32 + 1)));
        }
    }
    sources
}

/// A mixture that drifts mid-run: source 0 is scorching for the first 10
/// plan steps (forcing a scale-up), then goes nearly idle (forcing the
/// extra loaders' retirement).
fn drifting_schedule() -> MixSchedule {
    MixSchedule::Staged(vec![
        (0, vec![0.8, 0.05, 0.05, 0.05, 0.05]),
        (10, vec![0.04, 0.24, 0.24, 0.24, 0.24]),
    ])
}

fn sample_ids(batch: &ConstructedBatch) -> Vec<u64> {
    batch
        .microbatches
        .iter()
        .flat_map(|m| &m.sequences)
        .flat_map(|s| &s.segments)
        .map(|seg| seg.sample_id)
        .collect()
}

#[test]
fn drifting_mixture_scales_up_then_retires_without_gaps_or_duplicates() {
    let clients = 4u32;
    let steps = 26u64;
    let mut p = pipeline(drifting_schedule(), 21, Gcs::new(), controller_config());
    let mut session = p.serve(ServeOptions {
        clients,
        steps,
        refill_target: 32,
        queue_depth: 3,
        control_interval: 1,
        pull_timeout: Duration::from_millis(500),
        ..ServeOptions::default()
    });
    // Each client spends a few milliseconds per batch, like a trainer
    // step; backpressure paces the driver to them, which gives the
    // controller wall time to act while the stream is in flight.
    let handles: Vec<_> = session
        .take_clients()
        .into_iter()
        .map(|mut c| {
            std::thread::spawn(move || {
                let mut stream = Vec::new();
                while let Some((step, batch)) = c.next() {
                    stream.push((step, batch));
                    std::thread::sleep(Duration::from_millis(5));
                }
                (c.id, stream)
            })
        })
        .collect();
    // Watch the fleet while the clients pull, noting the slowest
    // client's cursor when it first grows and when it first shrinks.
    let initial = p.loader_identities().len();
    let (mut peak, mut grew_at, mut shrank_at) = (initial, None, None);
    while shrank_at.is_none() && !handles.iter().all(|h| h.is_finished()) {
        let (loaders, cursor) = (p.loader_identities().len(), session.frontier());
        if loaders > peak {
            peak = loaders;
            grew_at.get_or_insert(cursor);
        } else if loaders < peak {
            shrank_at = Some(cursor);
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    for (event, cursor) in [("scale-up", grew_at), ("retirement", shrank_at)] {
        assert!(
            cursor.is_some_and(|c| c < steps),
            "{event} did not land before the stream ended"
        );
    }
    let streams: Vec<_> = handles
        .into_iter()
        .map(|h| h.join().expect("client thread"))
        .collect();
    assert_eq!(session.join(), steps, "driver fell short of its steps");

    // Stream soundness under live topology changes: every client saw
    // every step in order, and no sample was ever delivered twice.
    for (id, stream) in &streams {
        assert_eq!(stream.len(), steps as usize, "client {id} missed steps");
        let mut seen: HashSet<u64> = HashSet::new();
        for (i, (step, batch)) in stream.iter().enumerate() {
            assert_eq!(*step, i as u64, "client {id} stream has a gap");
            for sid in sample_ids(batch) {
                assert!(seen.insert(sid), "client {id} got sample {sid} twice");
            }
        }
    }
    // Clients sharing a constructor observe identical batches.
    for (id_a, stream_a) in &streams {
        for (id_b, stream_b) in &streams {
            if id_a < id_b && id_a % 2 == id_b % 2 {
                assert_eq!(stream_a, stream_b, "clients {id_a}/{id_b} diverged");
            }
        }
    }

    // Any sample delivered by a live-spawned loader (shard >= 1; the
    // initial fleet is all shard 0) must come from the disjoint ordinal
    // band the controller seeds, so a scaled-up source never re-serves
    // rows its original loader also produces. Id layout:
    // source(16) | shard(8) | ordinal(40).
    for (_, stream) in &streams {
        for (_, batch) in stream {
            for sid in sample_ids(batch) {
                let shard = (sid >> 40) & 0xFF;
                if shard >= 1 {
                    assert!(
                        sid & ((1u64 << 40) - 1) >= (shard << 32),
                        "spawned-loader sample {sid:#x} outside its ordinal band"
                    );
                }
            }
        }
    }

    // The control plane actually acted, live, and checkpointed it.
    let status = p.controller_status().expect("controller reachable");
    assert!(status.ticks > 0, "controller never ticked");
    assert!(
        status.scale_ups >= 1,
        "hot mixture never scaled up: {status:?}"
    );
    assert!(
        status.scale_downs >= 1,
        "cold mixture never retired a loader: {status:?}"
    );
    assert_eq!(
        status.checkpointed_events,
        status.scale_ups + status.scale_downs + status.rebalances,
        "scaling events missing from the GCS checkpoint sequence"
    );
    assert!(
        p.gcs.get_state("controller").is_some(),
        "controller checkpoint absent from GCS"
    );
    p.shutdown();
}

#[test]
fn controller_checkpoint_restores_the_exact_topology() {
    let gcs = Gcs::new();
    // Statically scorching source 0: the controller scales it up and
    // stays there (no later retirement to race with).
    let schedule = MixSchedule::Static(vec![0.8, 0.05, 0.05, 0.05, 0.05]);
    let mut p = pipeline(schedule.clone(), 33, gcs.clone(), controller_config());
    let mut scaled = false;
    for _ in 0..12 {
        p.step(32).expect("step");
        p.control_tick();
        let status = p.controller_status().expect("controller reachable");
        if status.scale_ups >= 1 {
            scaled = true;
            break;
        }
    }
    assert!(scaled, "static hot mixture never triggered a scale-up");
    let topology: Vec<(u32, SourceId)> = p
        .loader_identities()
        .iter()
        .map(|id| (id.loader_id, id.source_id))
        .collect();
    assert!(topology.len() > 5, "scale-up did not grow the fleet");
    let events = p.controller_status().unwrap().checkpointed_events;

    // The spawned loader produces from a disjoint ordinal band (cursor
    // pre-seeded at shard << 32), so its rows can never collide with the
    // original shard-0 loader's stream content.
    let spawned_idx = p
        .loader_identities()
        .iter()
        .position(|id| id.loader_id >= 5)
        .expect("spawned loader registered");
    let spawned = &p.loaders()[spawned_idx];
    spawned.tell(LoaderMsg::Refill { target: 8 });
    let summaries = spawned
        .ask(LoaderMsg::Summary, Duration::from_secs(5))
        .expect("spawned loader reachable");
    let [summary] = summaries.as_slice() else {
        panic!("a scale-up hosts its loader in a group of one: {summaries:?}");
    };
    assert!(!summary.is_empty(), "spawned loader refilled nothing");
    for m in &summary.samples {
        let shard = (m.sample_id >> 40) & 0xFF;
        assert!(shard >= 1, "spawned loader reused shard 0");
        assert!(
            m.sample_id & ((1u64 << 40) - 1) >= (shard << 32),
            "spawned-loader sample {:#x} outside its ordinal band",
            m.sample_id
        );
    }
    p.shutdown();

    // A rebuilt deployment against the same control store must respawn
    // the post-scaling topology, not the 5-loader template, and its
    // controller must resume the event sequence rather than rewind it.
    let p2 = pipeline(schedule, 33, gcs, controller_config());
    let topology2: Vec<(u32, SourceId)> = p2
        .loader_identities()
        .iter()
        .map(|id| (id.loader_id, id.source_id))
        .collect();
    assert_eq!(topology, topology2, "restart lost the scaled topology");
    let status2 = p2.controller_status().expect("controller reachable");
    assert_eq!(status2.ticks, 0, "tick counter is not durable state");
    assert!(
        status2.checkpointed_events >= events,
        "event sequence rewound across restart"
    );
    p2.shutdown();
}

#[test]
fn skewed_buffers_rebalance_through_drain_and_handoff() {
    // Two loaders for source 0 (shards 0/1), one for each other source;
    // a uniform mixture keeps the autoscaler quiet so the occupancy
    // rebalancer is the only control-plane path that can fire.
    let ctrl = ControllerConfig {
        rebalance_factor: 2.0,
        min_rebalance_delta: 16,
        ..ControllerConfig::default()
    };
    let p = pipeline_with(
        two_shard_loaders(),
        MixSchedule::uniform(5),
        44,
        Gcs::new(),
        ctrl,
    );

    // Skew by hand: shard 0 of source 0 hoards a fat buffer while its
    // peer stays empty. A refill covers a whole loader group, so both
    // shards fill to 32 and shard 1 then hands its buffer to shard 0.
    let timeout = Duration::from_secs(10);
    let ids: Vec<u32> = p.loader_identities()[..2]
        .iter()
        .map(|id| id.loader_id)
        .collect();
    for group in &p.loaders()[..2] {
        group.tell(LoaderMsg::Refill { target: 32 });
    }
    let (samples, _) = p.loaders()[1]
        .ask(
            |reply| LoaderMsg::Drain {
                loader_id: ids[1],
                reply,
            },
            timeout,
        )
        .expect("shard 1's group reachable")
        .expect("shard 1 hosted");
    p.loaders()[0].tell(LoaderMsg::Adopt {
        loader_id: ids[0],
        samples,
    });
    let before = p.stats();
    assert_eq!(before.loaders[0].health.buffered, 64);
    assert_eq!(before.loaders[1].health.buffered, 0);

    p.control_tick();
    let status = p.controller_status().expect("controller reachable");
    assert_eq!(status.scale_ups, 0, "uniform mixture must not scale");
    assert_eq!(status.scale_downs, 0, "uniform mixture must not retire");
    assert_eq!(status.rebalances, 1, "skewed source never rebalanced");

    // The hoard was drained and re-spread across both shards of the
    // source — no sample lost, none duplicated.
    let after = p.stats();
    let (a, b) = (
        after.loaders[0].health.buffered,
        after.loaders[1].health.buffered,
    );
    assert_eq!(a + b, 64, "hand-off lost or duplicated samples");
    assert!(
        a.abs_diff(b) <= 2,
        "hand-off left the source skewed: {a} vs {b}"
    );
    p.shutdown();
}

#[test]
fn retiring_the_last_loader_of_a_source_is_refused() {
    // Source 0 runs two loaders (shards 0/1); every other source has
    // exactly one. Retiring from the single-loader sources must be
    // refused — there is no surviving same-source peer to adopt the
    // drained buffer — even when the configured floor would allow it.
    // min_loaders_per_source 0: even an operator config that permits
    // retiring everything must not drop the last loader's buffer.
    let ctrl = ControllerConfig {
        min_loaders_per_source: 0,
        ..ControllerConfig::default()
    };
    let p = pipeline_with(
        two_shard_loaders(),
        MixSchedule::uniform(5),
        46,
        Gcs::new(),
        ctrl,
    );
    let catalog = catalog();
    let single_source = catalog.sources()[1].id;
    let dual_source = catalog.sources()[0].id;
    let timeout = Duration::from_secs(10);

    // Give the single-loader source a buffer worth protecting.
    let single_idx = p
        .loader_identities()
        .iter()
        .position(|id| id.source_id == single_source)
        .expect("single-loader source spawned");
    p.loaders()[single_idx].tell(LoaderMsg::Refill { target: 24 });
    let stats = p.stats();
    assert_eq!(stats.loaders[single_idx].health.buffered, 24);
    let buffered_before = stats.total_buffered();

    // The retirement must be refused: no peer to hand the buffer to.
    let executed = p
        .controller_actor()
        .ask(
            |reply| ControllerMsg::Retire {
                source: single_source,
                reply,
            },
            timeout,
        )
        .expect("controller reachable");
    assert!(!executed, "last loader of a source was retired");
    let status = p.controller_status().expect("controller status");
    assert_eq!(status.scale_downs, 0);
    assert_eq!(status.checkpointed_events, 0, "refusal must not checkpoint");
    let stats = p.stats();
    assert_eq!(
        stats.total_buffered(),
        buffered_before,
        "refused retirement lost samples"
    );
    assert!(
        stats
            .loaders_per_source()
            .iter()
            .all(|(_, count)| *count >= 1),
        "a source lost its last loader: {:?}",
        stats.loaders_per_source()
    );
    let faults = p.gcs.fault_log("controller");
    assert!(
        faults.iter().any(|f| f.detail.contains("refused")),
        "refusal not surfaced on the fault log: {faults:?}"
    );

    // With a surviving peer the same command executes: the victim's
    // buffer is handed off, nothing is lost.
    for idx in 0..2 {
        p.loaders()[idx].tell(LoaderMsg::Refill { target: 20 });
    }
    let before = p.stats().total_buffered();
    let executed = p
        .controller_actor()
        .ask(
            |reply| ControllerMsg::Retire {
                source: dual_source,
                reply,
            },
            timeout,
        )
        .expect("controller reachable");
    assert!(executed, "retirement with a surviving peer refused");
    let status = p.controller_status().expect("controller status");
    assert_eq!(status.scale_downs, 1);
    assert_eq!(status.checkpointed_events, 1);
    let stats = p.stats();
    assert_eq!(
        stats.total_buffered(),
        before,
        "drain/hand-off lost or duplicated samples"
    );
    assert_eq!(
        stats
            .loaders_per_source()
            .iter()
            .find(|(s, _)| *s == dual_source)
            .map(|(_, count)| *count),
        Some(1),
        "retirement did not shrink the source"
    );
    p.shutdown();
}

#[test]
fn stats_snapshot_reports_loaders_and_client_progress() {
    let schedule = MixSchedule::uniform(5);
    let mut p = pipeline(schedule, 55, Gcs::new(), ControllerConfig::default());
    // Before any traffic: five idle loaders, no buffered samples.
    let idle = p.stats();
    assert_eq!(idle.loaders.len(), 5);
    assert_eq!(idle.total_buffered(), 0);
    assert_eq!(idle.loaders_per_source().len(), 5);
    assert_eq!(idle.constructors.len(), 2);

    let steps = 4u64;
    let mut session = p.serve(ServeOptions {
        clients: 4,
        steps,
        refill_target: 32,
        queue_depth: 3,
        pull_timeout: Duration::from_millis(500),
        ..ServeOptions::default()
    });
    let handles: Vec<_> = session
        .take_clients()
        .into_iter()
        .map(|mut c| {
            std::thread::spawn(move || {
                while c.next().is_some() {}
                (c.id, c.consumed())
            })
        })
        .collect();
    let mut consumed: Vec<(u32, u64)> = handles
        .into_iter()
        .map(|h| h.join().expect("client thread"))
        .collect();
    assert_eq!(session.join(), steps);

    let stats = p.stats();
    // Loaders refilled past what the plans consumed.
    assert!(stats.total_buffered() > 0, "loaders report empty buffers");
    for l in &stats.loaders {
        assert!(l.health.samples_produced > 0, "{:?} idle", l.identity);
    }
    // Every client's consumed count reached the end of its stream.
    consumed.sort_unstable();
    assert_eq!(
        consumed,
        vec![(0, steps), (1, steps), (2, steps), (3, steps)],
        "per-client consumed counts wrong"
    );
    p.shutdown();
}

/// Retirement removes a loader from the registry before draining it, and
/// a loader group rebuilds its members from the registry at every
/// restart — so crashing the retired loader's former group must not
/// bring it back: not in `stats()`, not in any group's hosted set, not
/// as a checkpoint writer, and not in any delivered sample.
#[test]
fn retired_loader_stays_retired_through_a_crash_of_its_former_group() {
    // Source 0 in eight equal-cost shards: four groups of two shards
    // each, so whichever shard retirement picks, its group hosts a
    // sibling and outlives the retirement.
    const SHARDS: u32 = 8;
    let timeout = Duration::from_secs(10);
    let spec = catalog().sources()[0].clone();
    let source = spec.id;
    let shards: Vec<(SourceSpec, LoaderConfig)> = (0..SHARDS)
        .map(|shard| {
            (
                spec.clone(),
                LoaderConfig {
                    shard,
                    shards: SHARDS,
                    ..LoaderConfig::solo(shard)
                },
            )
        })
        .collect();
    let mut p = pipeline_with(
        shards,
        MixSchedule::uniform(5),
        48,
        Gcs::new(),
        ControllerConfig::default(),
    );
    let groups = p.loaders();
    let before = p.loader_identities();
    let hosted_by = |name: &str| groups.iter().filter(|g| g.name() == name).count();
    assert!(
        groups.iter().all(|g| hosted_by(g.name()) == 2),
        "expected four groups of two shards"
    );

    let executed = p
        .controller_actor()
        .ask(|reply| ControllerMsg::Retire { source, reply }, timeout)
        .expect("controller reachable");
    assert!(executed, "retirement with surviving peers refused");
    let after = p.loader_identities();
    let victim = before
        .iter()
        .position(|id| !after.contains(id))
        .expect("one loader retired");
    let victim_id = before[victim].loader_id;
    let victim_key = format!("loader/{victim_id}");
    let resting_version = p.gcs.state_version(&victim_key);
    let per_source = p.stats().loaders_per_source();
    assert_eq!(per_source, vec![(source, SHARDS as usize - 1)]);

    // Crash the former group; the answer to an ask queued behind the
    // crash comes from the restarted incarnation.
    let former = &groups[victim];
    former.inject_crash("crash the retired loader's former group");
    let hosted: Vec<u32> = former
        .ask(LoaderMsg::Health, timeout)
        .expect("restarted group answers")
        .iter()
        .map(|h| h.loader_id)
        .collect();
    assert!(
        !hosted.contains(&victim_id),
        "restart rebuilt retired loader {victim_id}: {hosted:?}"
    );
    assert_eq!(hosted.len(), 1, "the sibling shard was not rebuilt");

    // Serve: every delivered sample comes from a live shard.
    let steps = 6u64;
    let mut session = p.serve(ServeOptions {
        clients: 2,
        steps,
        refill_target: 16,
        queue_depth: 3,
        pull_timeout: Duration::from_millis(500),
        ..ServeOptions::default()
    });
    let handles: Vec<_> = session
        .take_clients()
        .into_iter()
        .map(|mut c| {
            std::thread::spawn(move || {
                let mut ids = Vec::new();
                let mut pulled = 0u64;
                while let Some((_, batch)) = c.next() {
                    pulled += 1;
                    ids.extend(sample_ids(&batch));
                }
                (pulled, ids)
            })
        })
        .collect();
    let victim_shard = u64::from(before[victim].loader_id);
    for h in handles {
        let (pulled, ids) = h.join().expect("client thread");
        assert_eq!(pulled, steps, "a client missed steps");
        // Id layout: source(16) | shard(8) | ordinal(40); shard = loader id here.
        assert!(
            ids.iter().all(|sid| (sid >> 40) & 0xFF != victim_shard),
            "a sample of retired loader {victim_id} was delivered"
        );
    }
    assert_eq!(session.join(), steps);

    let stats = p.stats();
    assert!(
        stats
            .loaders
            .iter()
            .all(|l| l.identity.loader_id != victim_id),
        "retired loader {victim_id} reappeared in stats()"
    );
    assert_eq!(stats.loaders_per_source(), per_source);
    assert_eq!(
        p.gcs.state_version(&victim_key),
        resting_version,
        "retired loader {victim_id} kept checkpointing"
    );
    p.shutdown();
}
