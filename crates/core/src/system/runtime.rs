//! Threaded actor deployment of the pipeline.
//!
//! The synchronous components in [`crate::system`] are deterministic and
//! drive the simulations; this module deploys the *same* components as
//! supervised [`msd_actor`] actors — the shape the paper runs on Ray
//! (Fig 7). Every stage is actor-hosted:
//!
//! - at most four loader-group actors hosting every [`SourceLoader`]
//!   (the paper's `G = 4` source clusters, Sec 5.1, filled by greedy
//!   LPT on source transform cost), plus a group of one per live
//!   scale-up,
//! - one [`PlannerActor`] hosting the shared
//!   [`PipelineCore`] (plan synthesis
//!   plus Replay Mode adoption),
//! - one [`ConstructorActor`] per consumer bucket, receiving broadcast
//!   plans and serving batches to pulling trainer clients,
//! - one [`ControllerActor`] (see [`crate::system::controller`]) watching
//!   mixing-weight telemetry and loader health, scaling and rebalancing
//!   the loader fleet live through the shared registry.
//!
//! Failures surface as `ask` timeouts/dead errors; supervised restarts
//! rebuild each actor from its latest GCS checkpoint. A restarted loader
//! group rebuilds every member from its own checkpoint and replays the
//! GCS plan log (differential checkpointing) so a sample consumed before
//! a crash is never delivered twice.
//!
//! [`ThreadedPipeline::step`] drives one synchronous step for a single
//! caller; [`ThreadedPipeline::serve`] is the concurrent front door — a
//! driver thread pumps plans/pops/broadcasts with pipelined refill-ahead
//! while N trainer clients pull batches from their constructor actors,
//! throttled by a bounded-queue backpressure knob.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use msd_actor::actor::ReplyTo;
use msd_actor::{Actor, ActorRef, ActorSystem, Ctx, Gcs, RestartPolicy};
use msd_data::{Sample, SourceId, SourceSpec};
use msd_mesh::{Axis, ClientPlaceTree, DistributeAxis};
use parking_lot::{Mutex, RwLock};

use crate::buffer::{BufferInfo, BufferSummary};
use crate::constructor::{ConstructedBatch, DataConstructor};
use crate::dgraph::DGraphError;
use crate::loader::{LoaderCheckpoint, LoaderConfig, LoaderHealth, SourceLoader};
use crate::plan::{BucketPlan, LoadingPlan};
use crate::planner::{PhaseBreakdown, Planner};
use crate::system::controller::{
    ControllerActor, ControllerConfig, ControllerMsg, ControllerStatus,
};
use crate::system::core::{PipelineCore, PlanOutcome};
use crate::system::frontier::{FrontierCheckpoint, FrontierHub, Holder};
use crate::system::net::{SharedBatch, Transport};
use crate::system::server::{
    DataServer, DataServerHandle, RemotePlacement, ServerConfig, ServerMsg,
};

/// GCS key holding the planner actor's restart checkpoint.
const PLANNER_STATE_KEY: &str = "planner";
/// GCS key holding the serialized Replay Mode plan store.
const REPLAY_STORE_KEY: &str = "planner/replay";
/// GCS key holding the planner's current trainer topology (elastic
/// resharding must survive planner restarts).
const PLANNER_TREE_KEY: &str = "planner/tree";
/// GCS key holding the serve driver's frontier checkpoint: the proof of
/// which plan-log prefix has retired. Plan-log entries are pruned only
/// below the retirement floor this record carries — never by a fixed
/// window — so replay after any restart is complete by construction.
pub(crate) const FRONTIER_STATE_KEY: &str = "frontier";

fn plan_log_key(step: u64) -> String {
    format!("plan/{step}")
}

/// One bucket's broadcast payload: (constructor index, bucket plan,
/// the samples the bucket consumes). Samples are `Arc`-shared between the
/// in-flight message and the driver's retained window, so a broadcast is
/// a refcount bump, not a payload copy.
type BroadcastItem = (usize, BucketPlan, Arc<HashMap<u64, Sample>>);

/// Messages understood by a loader group. The per-step operations
/// (refill, summary, pop, checkpoint) and the health probe cover every
/// hosted loader in one message; the control plane's hand-off addresses
/// one loader by id.
pub enum LoaderMsg {
    /// Refill every hosted loader's buffer toward `target` samples.
    Refill {
        /// Target buffered sample count, per loader.
        target: usize,
    },
    /// Report every hosted loader's buffer summary, in registry order.
    Summary(ReplyTo<Vec<BufferSummary>>),
    /// Pop every hosted loader's directed sample ids and reply with all
    /// the samples.
    Pop {
        /// The step's pop directives (loader id → sample ids), shared by
        /// every group: each looks up its own members.
        directives: Arc<BTreeMap<u32, Vec<u64>>>,
        /// Reply channel.
        reply: ReplyTo<Vec<Sample>>,
    },
    /// Snapshot every hosted loader into the GCS at `version`, each under
    /// its own `loader/{id}` key.
    Checkpoint {
        /// Snapshot version.
        version: u64,
    },
    /// Report every hosted loader's control-plane health snapshot (buffer
    /// occupancy, lifetime production), in registry order.
    Health(ReplyTo<Vec<LoaderHealth>>),
    /// Hand-off, step 1: flush loader `loader_id`'s whole read buffer and
    /// reply with the drained samples plus a final checkpoint, or `None`
    /// when the group does not host it. Processed sequentially with pops,
    /// so a sample is either popped (delivered) or drained (handed off) —
    /// never both. A loader the registry no longer lists (retirement
    /// deregisters before it drains) leaves the group here.
    Drain {
        /// The loader to drain.
        loader_id: u32,
        /// Reply channel.
        reply: ReplyTo<Option<(Vec<Sample>, LoaderCheckpoint)>>,
    },
    /// Hand-off, step 2: loader `loader_id`, a surviving loader of the
    /// drained one's source, adopts its unconsumed samples, keeping them
    /// plannable under its own id.
    Adopt {
        /// The adopting loader.
        loader_id: u32,
        /// The handed-off samples.
        samples: Vec<Sample>,
    },
}

/// One Source Loader hosted by a group.
struct Hosted {
    loader: SourceLoader,
    /// The loader's GCS checkpoint key, `loader/{id}`, from its slot.
    key: String,
}

/// Several Source Loaders hosted behind one supervised mailbox.
///
/// The registry is the group's membership record: every (re)start
/// rebuilds exactly the loaders the registry assigns to this group, each
/// restored from its own checkpoint and plan-log replay. Retirement
/// removes a loader from the registry before draining it, so a later
/// crash of its group cannot bring it back.
pub(crate) struct LoaderGroupActor {
    members: Vec<Hosted>,
    gcs: Gcs,
    registry: LoaderRegistry,
}

impl LoaderGroupActor {
    /// Builds group `group` from the loaders the registry assigns to it.
    fn new(group: u32, registry: &LoaderRegistry, gcs: Gcs, seed: u64) -> Self {
        let topology = registry.read().clone();
        let members = topology
            .loaders
            .iter()
            .filter(|slot| slot.group == group)
            .map(|slot| Hosted {
                loader: restore_loader(slot, seed, &gcs),
                key: slot.key.clone(),
            })
            .collect();
        LoaderGroupActor {
            members,
            gcs,
            registry: registry.clone(),
        }
    }

    fn position(&self, loader_id: u32) -> Option<usize> {
        self.members.iter().position(|m| m.loader.id() == loader_id)
    }

    fn drain(&mut self, loader_id: u32) -> Option<(Vec<Sample>, LoaderCheckpoint)> {
        let pos = self.position(loader_id)?;
        let member = &mut self.members[pos];
        let cp = member
            .loader
            .checkpoint(self.gcs.state_version(&member.key) + 1);
        let drained = member.loader.drain();
        let registered = self
            .registry
            .read()
            .loaders
            .iter()
            .any(|slot| slot.identity.loader_id == loader_id);
        if !registered {
            self.members.remove(pos);
        }
        Some((drained, cp))
    }
}

/// Restores one hosted loader from its GCS checkpoint if one exists
/// (this is how supervised restarts recover durable state). A corrupt
/// checkpoint is surfaced on the GCS fault log and the loader falls back
/// to a fresh synthetic stream instead of killing the restart path.
/// After a restore, post-checkpoint pop directives from the GCS plan log
/// are replayed so already-delivered samples never resurface.
fn restore_loader(slot: &LoaderSlot, seed: u64, gcs: &Gcs) -> SourceLoader {
    let (spec, config) = (slot.spec.clone(), slot.config.clone());
    match gcs.get_state(&slot.key) {
        Some(cp) => match crate::codec::decode_loader_checkpoint(&cp.data) {
            Ok(parsed) => {
                let mut loader = SourceLoader::restore(spec, config, &parsed);
                surface_replay_gap(
                    replay_plan_log(&mut loader, gcs, parsed.version, &slot.key),
                    gcs,
                );
                loader
            }
            Err(e) => {
                gcs.log_fault(
                    &slot.key,
                    format!(
                        "corrupt GCS checkpoint (v{}): {e}; \
                             falling back to a fresh synthetic loader",
                        cp.version
                    ),
                );
                // The fresh loader restarts the same deterministic
                // stream from ordinal 0, so the plan log must be
                // replayed from the beginning to drop every sample
                // already delivered before the crash.
                let mut loader = SourceLoader::synthetic(spec, config, seed);
                surface_replay_gap(replay_plan_log(&mut loader, gcs, 0, &slot.key), gcs);
                loader
            }
        },
        None => {
            // No checkpoint can also mean "crashed before the first
            // checkpoint landed": the fresh loader restarts the same
            // deterministic stream from ordinal 0, so any logged
            // deliveries must still be replayed away.
            let mut loader = SourceLoader::synthetic(spec, config, seed);
            surface_replay_gap(replay_plan_log(&mut loader, gcs, 0, &slot.key), gcs);
            loader
        }
    }
}

/// The retirement floor proven by the persisted frontier checkpoint:
/// plan-log entries below this step may legitimately be absent (pruned
/// after every live capability holder moved past them); entries at or
/// above it must still exist. With no frontier record nothing has ever
/// been pruned, so the floor is 0 and every step must be present.
fn persisted_retirement_floor(gcs: &Gcs) -> u64 {
    gcs.get_state(FRONTIER_STATE_KEY)
        .and_then(|cp| crate::codec::decode_frontier_checkpoint(&cp.data).ok())
        .map(|cp| cp.pruned_below)
        .unwrap_or(0)
}

/// Replays pop directives of plans issued after `from_version` out of the
/// GCS plan log into a restored loader (differential checkpointing: the
/// checkpoint is small, the delta is replayed).
///
/// A missing entry below the persisted retirement floor is provably
/// consumed (the frontier protocol prunes nothing newer); a missing entry
/// at or above it is a replay gap — samples delivered before the crash
/// could silently resurface — so it is surfaced as
/// [`RuntimeError::PlanLogGap`] instead of being skipped.
fn replay_plan_log(
    loader: &mut SourceLoader,
    gcs: &Gcs,
    from_version: u64,
    key: &str,
) -> Result<(), RuntimeError> {
    let loader_id = loader.id();
    let Some(cp) = gcs.get_state(PLANNER_STATE_KEY) else {
        return Ok(());
    };
    let Ok(core_cp) = crate::codec::decode_planner_checkpoint(&cp.data) else {
        return Ok(()); // Planner checkpoint unreadable — its own restart logs it.
    };
    let latest = core_cp.planner.step; // Plans 0..latest have been issued.
    let floor = persisted_retirement_floor(gcs);
    for step in from_version..latest {
        let Some(entry) = gcs.get_state(&plan_log_key(step)) else {
            if step >= floor {
                gcs.log_fault(
                    key,
                    format!(
                        "plan log replay gap: step {step} is missing but the frontier \
                         checkpoint only retires steps below {floor} \
                         (replaying {from_version}..{latest}); \
                         samples delivered at that step may resurface"
                    ),
                );
                return Err(RuntimeError::PlanLogGap {
                    loader_id,
                    missing_step: step,
                    frontier: floor,
                });
            }
            continue; // Below the retirement floor: provably consumed.
        };
        match crate::codec::decode_plan_log(&entry.data) {
            Ok(directives) => {
                // Replay EVERY directive id and let the loader's own
                // source/shard prefix filter pick the ones it produced.
                // Keying by this loader's directive entry alone is wrong
                // under elastic hand-off: a sample this loader produced
                // can be adopted by a peer and delivered under the
                // *peer's* loader id, and skipping it here would let a
                // post-checkpoint restart re-produce and re-deliver it.
                let all: Vec<u64> = directives.values().flatten().copied().collect();
                loader.replay_directives(&all);
            }
            Err(e) => {
                gcs.log_fault(
                    key,
                    format!("corrupt plan log entry for step {step}: {e}; skipped"),
                );
            }
        }
    }
    Ok(())
}

/// Surfaces a replay gap from an actor factory (which cannot itself
/// fail): the [`RuntimeError`] lands on the GCS fault log under the
/// runtime component, where supervisors and operators read it. The
/// loader still starts — it serves fresh data — but the gap is now loud
/// instead of silent sample loss.
fn surface_replay_gap(result: Result<(), RuntimeError>, gcs: &Gcs) {
    if let Err(e) = result {
        gcs.log_fault("runtime", format!("{e}"));
    }
}

impl Actor for LoaderGroupActor {
    type Msg = LoaderMsg;

    fn handle(&mut self, msg: LoaderMsg, _ctx: &mut Ctx) {
        match msg {
            LoaderMsg::Refill { target } => {
                for member in &mut self.members {
                    let _ = member.loader.refill(target);
                }
            }
            LoaderMsg::Summary(reply) => {
                reply.send(self.members.iter().map(|m| m.loader.summary()).collect());
            }
            LoaderMsg::Pop { directives, reply } => {
                // A loader this group no longer hosts misses its pop, as a
                // crashed loader's does.
                let wanted = self
                    .members
                    .iter()
                    .filter_map(|m| directives.get(&m.loader.id()))
                    .map(Vec::len)
                    .sum();
                let mut samples = Vec::with_capacity(wanted);
                for member in &mut self.members {
                    if let Some(ids) = directives.get(&member.loader.id()) {
                        member.loader.pop_into(ids, &mut samples);
                    }
                }
                // Let go of the shared directives before replying, so the
                // driver gets them back without a copy.
                drop(directives);
                reply.send(samples);
            }
            LoaderMsg::Checkpoint { version } => {
                for member in &self.members {
                    let cp = member.loader.checkpoint(version);
                    self.gcs.put_state(
                        &member.key,
                        version,
                        crate::codec::encode_loader_checkpoint(&cp),
                    );
                }
            }
            LoaderMsg::Health(reply) => {
                reply.send(self.members.iter().map(|m| m.loader.health()).collect());
            }
            LoaderMsg::Drain { loader_id, reply } => {
                reply.send(self.drain(loader_id));
            }
            LoaderMsg::Adopt { loader_id, samples } => match self.position(loader_id) {
                Some(pos) => self.members[pos].loader.adopt(samples),
                None => self.gcs.log_fault(
                    format!("loader/{loader_id}"),
                    format!(
                        "hand-off to a loader its group no longer hosts: {} samples dropped",
                        samples.len()
                    ),
                ),
            },
        }
    }
}

/// Messages understood by the planner actor.
pub enum PlannerMsg {
    /// Synthesize the next plan from gathered buffer metadata.
    Plan {
        /// Gathered loader summaries.
        info: BufferInfo,
        /// Reply channel.
        reply: ReplyTo<Result<PlanOutcome, DGraphError>>,
    },
    /// Install a Replay Mode plan store (persisted to the GCS so it
    /// survives supervised restarts).
    SetReplay(crate::replay::PlanStore),
    /// Replace the trainer topology (elastic resharding).
    SetTree(ClientPlaceTree),
    /// Report mixing-weight telemetry (the elastic controller's input).
    Telemetry(ReplyTo<PlannerTelemetry>),
}

/// Mixing-weight telemetry reported by the planner actor: the schedule's
/// weights at the *current* step, in the planner's catalog source order.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannerTelemetry {
    /// The planner's current step counter.
    pub step: u64,
    /// Schedule source order; `weights[i]` belongs to `sources[i]`.
    pub sources: Vec<SourceId>,
    /// Normalized mixing weights at `step`.
    pub weights: Vec<f64>,
}

/// The Planner (and its Replay Mode store) hosted in a supervised actor.
///
/// State management follows the paper's Sec 6.1: the restart-critical
/// planner state (step counter, sampling RNG, replay progress) is
/// checkpointed to the GCS *before* a plan is released, so a restarted
/// planner continues the exact pre-crash plan sequence and can never
/// re-issue a step that was already delivered.
pub struct PlannerActor {
    core: PipelineCore,
    gcs: Gcs,
}

impl PlannerActor {
    /// Creates the actor from a planner template, overlaying any GCS
    /// checkpoint and persisted replay store.
    pub fn new(template: Planner, gcs: Gcs) -> Self {
        let mut core = PipelineCore::new(template);
        if let Some(cp) = gcs.get_state(PLANNER_STATE_KEY) {
            match crate::codec::decode_planner_checkpoint(&cp.data) {
                Ok(parsed) => core.restore(&parsed),
                Err(e) => gcs.log_fault(
                    "planner",
                    format!(
                        "corrupt planner checkpoint (v{}): {e}; starting fresh",
                        cp.version
                    ),
                ),
            }
        }
        if let Some(cp) = gcs.get_state(REPLAY_STORE_KEY) {
            match crate::codec::decode_plan_store(&cp.data) {
                Ok(store) => core.set_replay_store(store),
                Err(e) => gcs.log_fault(
                    "planner",
                    format!("corrupt replay store in GCS: {e}; ignored"),
                ),
            }
        }
        if let Some(cp) = gcs.get_state(PLANNER_TREE_KEY) {
            match crate::codec::decode_topology(&cp.data) {
                Ok(tree) => core.planner().set_tree(tree),
                Err(e) => gcs.log_fault(
                    "planner",
                    format!("corrupt persisted topology: {e}; keeping template tree"),
                ),
            }
        }
        PlannerActor { core, gcs }
    }
}

impl Actor for PlannerActor {
    type Msg = PlannerMsg;

    fn handle(&mut self, msg: PlannerMsg, _ctx: &mut Ctx) {
        match msg {
            PlannerMsg::Plan { info, reply } => {
                let result = self.core.synthesize(&info);
                if let Ok(outcome) = &result {
                    let step = outcome.plan.step;
                    // Log this plan's pop directives for loader directive
                    // replay, then checkpoint the planner itself — both
                    // *before* the plan is released, so anything a client
                    // may have observed is covered by durable state.
                    let directives = crate::codec::encode_plan_log(&outcome.plan.directives);
                    self.gcs
                        .put_state(&plan_log_key(step), step + 1, directives);
                    // No pruning here: plan-log retirement belongs to the
                    // serve driver, which prunes only below the proven
                    // step frontier (see `retire_plan_log`). A fixed
                    // window at the producer cannot know how far behind
                    // the slowest consumer or loader checkpoint is.
                    let cp = crate::codec::encode_planner_checkpoint(&self.core.checkpoint());
                    self.gcs
                        .put_state(PLANNER_STATE_KEY, self.core.planner_ref().step(), cp);
                }
                reply.send(result);
            }
            PlannerMsg::SetReplay(store) => {
                let version = self.gcs.state_version(REPLAY_STORE_KEY) + 1;
                self.gcs.put_state(
                    REPLAY_STORE_KEY,
                    version,
                    crate::codec::encode_plan_store(&store),
                );
                self.core.set_replay_store(store);
            }
            PlannerMsg::SetTree(tree) => {
                // Persist first: a restarted planner must keep planning
                // for the resharded topology, not the spawn-time template.
                let version = self.gcs.state_version(PLANNER_TREE_KEY) + 1;
                self.gcs.put_state(
                    PLANNER_TREE_KEY,
                    version,
                    crate::codec::encode_topology(&tree),
                );
                self.core.planner().set_tree(tree);
            }
            PlannerMsg::Telemetry(reply) => {
                let planner = self.core.planner_ref();
                let step = planner.step();
                reply.send(PlannerTelemetry {
                    step,
                    sources: planner.sources().to_vec(),
                    weights: planner.config.schedule.weights(step),
                });
            }
        }
    }
}

/// Messages understood by a constructor actor.
pub enum ConstructorMsg {
    /// A broadcast plan slice: construct this bucket's batch.
    Construct {
        /// Serve-step ordinal (contiguous; not necessarily `plan.step`).
        step: u64,
        /// This bucket's slice of the loading plan.
        bucket_plan: BucketPlan,
        /// Popped samples the bucket consumes (shared, not copied).
        samples: Arc<HashMap<u64, Sample>>,
        /// When present, reply with the batch directly instead of queueing
        /// it for pulling clients (the synchronous [`ThreadedPipeline::step`]
        /// path).
        reply: Option<ReplyTo<ConstructedBatch>>,
    },
    /// A trainer client requests the batch for exactly `step`. The reply
    /// is parked until that step is constructed. The client carries its
    /// own cursor, so a restarted constructor cannot double-serve it.
    /// The reply shares the queued batch ([`SharedBatch`]): N pulling
    /// clients and every rebuilt replay read the *same* constructed
    /// buffers — and, on serializing transports, the same memoized wire
    /// encoding — a pull is a refcount bump, never a payload copy.
    Pull {
        /// Pulling client id.
        client: u32,
        /// The serve step the client needs next.
        step: u64,
        /// Where the batch goes: a local client's ask channel, or a
        /// tell into the data server's mailbox.
        reply: ReplyTo<(u64, SharedBatch)>,
    },
    /// Report the serve steps currently queued for pulling clients.
    ReadySteps(ReplyTo<Vec<u64>>),
    /// The serve driver's folded global frontier: every step below `at`
    /// is proven consumed by all live capability holders, so queued
    /// batches below it retire.
    Frontier {
        /// The global step frontier (exclusive retirement bound).
        at: u64,
    },
    /// Start a fresh serve session: drop queued batches and parked pulls
    /// left over from a previous session (serve step numbering restarts
    /// at 0 each session).
    Reset {
        /// When true (serializing transports), each constructed batch is
        /// wire-encoded eagerly on the construct thread — overlapping the
        /// serialization with loader fetches — instead of lazily on the
        /// serve loop's first send of that batch.
        pre_encode: bool,
    },
}

/// The shared-batch reply a [`ConstructorMsg::Pull`] resolves to.
type PullReply = ReplyTo<(u64, SharedBatch)>;

/// The serve driver's retained broadcast window: every step at or above
/// the announced frontier, kept so a restarted constructor can rebuild
/// its ready queue. Only the driver writes it; the constructor factories
/// share it read-only.
#[derive(Default)]
pub(crate) struct RetainedWindow {
    /// The session's [`ConstructorMsg::Reset`] flag, so a restarted
    /// incarnation encodes like its peers.
    pre_encode: bool,
    /// Broadcast steps, oldest first.
    steps: VecDeque<(u64, Vec<BroadcastItem>)>,
}

/// [`RetainedWindow`] as the driver and constructor factories share it.
type SharedWindow = Arc<Mutex<RetainedWindow>>;

/// A Data Constructor hosted in a supervised actor, serving one bucket's
/// batches to pulling trainer clients.
///
/// The actor tracks no consumer progress: clients carry their own cursors
/// in `Pull`, the [`FrontierHub`] holds every client's capability, and
/// the ready queue is retired by the frontier the driver announces
/// (`step < frontier`). Recovery keeps no durable state either: a
/// restarted incarnation rebuilds its ready queue from the driver's
/// retained window in [`Actor::started`], the way loaders restore
/// themselves from the GCS, so a crash mid-serve costs latency, never
/// correctness.
pub struct ConstructorActor {
    inner: DataConstructor,
    /// This constructor's index in the fleet (its share of each
    /// retained broadcast).
    index: usize,
    /// Trainer-side broadcast axes (fetch elision).
    broadcast_axes: Vec<Axis>,
    window: SharedWindow,
    /// Constructed batches queued for pulling clients, each wrapped with
    /// its memoized wire form. Every client of a step is handed the same
    /// wrapper — fan-out is refcounting, and on serializing transports
    /// bucket-mates share one encoding.
    ready: BTreeMap<u64, SharedBatch>,
    waiting: HashMap<u32, (u64, PullReply)>,
    /// Eagerly wire-encode each batch at construct time (set per session
    /// by [`ConstructorMsg::Reset`] when the transport serializes).
    pre_encode: bool,
    /// The serve driver's last announced frontier (monotone within a
    /// session): ready steps below it are retired and never rebuilt.
    frontier: u64,
}

impl ConstructorActor {
    /// Wraps a constructor component as fleet member `index`, rebuilding
    /// from `window` on every (re)start.
    pub(crate) fn new(
        inner: DataConstructor,
        index: usize,
        broadcast_axes: Vec<Axis>,
        window: SharedWindow,
    ) -> Self {
        ConstructorActor {
            inner,
            index,
            broadcast_axes,
            window,
            ready: BTreeMap::new(),
            waiting: HashMap::new(),
            pre_encode: false,
            frontier: 0,
        }
    }

    /// Constructs `step` into the ready queue unless it is already there
    /// or retired (a repeated broadcast is idempotent). Returns the
    /// queued batch when it was built.
    fn build(
        &mut self,
        step: u64,
        bucket_plan: &BucketPlan,
        samples: &HashMap<u64, Sample>,
    ) -> Option<SharedBatch> {
        if self.ready.contains_key(&step) || step < self.frontier {
            return None;
        }
        let construct_start = std::time::Instant::now();
        let shared = SharedBatch::new(Arc::new(self.inner.construct(
            bucket_plan,
            samples,
            &self.broadcast_axes,
        )));
        crate::metrics::record_stage(crate::metrics::Stage::Construct, construct_start.elapsed());
        if self.pre_encode {
            // Seal the wire form here, on the construct thread, so the
            // serve loop sends the memoized frame instead of encoding
            // inline.
            shared.warm();
        }
        self.ready.insert(step, shared.clone());
        Some(shared)
    }
}

impl Actor for ConstructorActor {
    type Msg = ConstructorMsg;

    /// Rebuilds this bucket's share of every retained step: after a
    /// crash the ready queue is exactly what clients may still pull.
    /// Only the snapshot is taken under the window lock, so the driver's
    /// broadcasts never wait on a rebuild. A step the driver retains
    /// after the snapshot was also sent to this mailbox, which survives
    /// the restart, and reaches `build` as a queued `Construct`.
    fn started(&mut self, _ctx: &mut Ctx) {
        let snapshot: Vec<(u64, BroadcastItem)> = {
            let window = self.window.lock();
            self.pre_encode = window.pre_encode;
            window
                .steps
                .iter()
                .flat_map(|(step, items)| {
                    items
                        .iter()
                        .filter(|(idx, _, _)| *idx == self.index)
                        .map(|item| (*step, item.clone()))
                })
                .collect()
        };
        for (step, (_, bucket_plan, samples)) in &snapshot {
            self.build(*step, bucket_plan, samples);
        }
    }

    fn handle(&mut self, msg: ConstructorMsg, _ctx: &mut Ctx) {
        match msg {
            ConstructorMsg::Construct {
                step,
                bucket_plan,
                samples,
                reply,
            } => {
                if let Some(reply) = reply {
                    // Synchronous step path: construct and return, no queue.
                    reply.send(
                        self.inner
                            .construct(&bucket_plan, &samples, &self.broadcast_axes),
                    );
                    return;
                }
                let Some(shared) = self.build(step, &bucket_plan, &samples) else {
                    return;
                };
                // Wake the clients parked on this step — the only step
                // that just became ready — in one pass over the parked
                // map, keeping the rest parked.
                for (client, (want, reply)) in std::mem::take(&mut self.waiting) {
                    if want == step {
                        reply.send((want, shared.clone()));
                    } else {
                        self.waiting.insert(client, (want, reply));
                    }
                }
            }
            ConstructorMsg::Pull {
                client,
                step,
                reply,
            } => match self.ready.get(&step) {
                Some(shared) => {
                    reply.send((step, shared.clone()));
                }
                None => {
                    // Park; a retry from the same client replaces the
                    // stale parked reply.
                    self.waiting.insert(client, (step, reply));
                }
            },
            ConstructorMsg::ReadySteps(reply) => {
                reply.send(self.ready.keys().copied().collect());
            }
            ConstructorMsg::Frontier { at } => {
                if at > self.frontier {
                    self.frontier = at;
                    self.ready.retain(|step, _| *step >= at);
                }
            }
            ConstructorMsg::Reset { pre_encode } => {
                self.ready.clear();
                self.waiting.clear();
                self.pre_encode = pre_encode;
                self.frontier = 0; // Serve steps renumber each session.
            }
        }
    }
}

/// Errors from a threaded step.
#[derive(Debug)]
pub enum RuntimeError {
    /// A loader's group failed its RPC (timeout or death) — the failure
    /// signal. It names the group's first loader the RPC covered, in
    /// registry order.
    LoaderFailure {
        /// Index of the failing loader in registry order.
        loader: usize,
        /// The loader's deployment-wide id.
        loader_id: u32,
        /// Name of the source the loader serves.
        source: String,
    },
    /// The planner actor failed its RPC (it is restarting).
    PlannerFailure,
    /// A constructor actor failed its RPC (it is restarting).
    ConstructorFailure {
        /// The bucket whose constructor failed.
        bucket: u32,
    },
    /// Plan generation failed.
    Plan(DGraphError),
    /// Plan-log replay found a missing step the frontier protocol never
    /// retired: the entry was lost (not pruned), so deliveries from that
    /// step cannot be replayed away and may resurface as duplicates.
    PlanLogGap {
        /// The loader whose replay hit the gap.
        loader_id: u32,
        /// The plan step whose log entry is absent.
        missing_step: u64,
        /// The persisted retirement floor (steps below it are the only
        /// ones provably-safe to be absent).
        frontier: u64,
    },
}

impl std::fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RuntimeError::LoaderFailure {
                loader,
                loader_id,
                source,
            } => write!(
                f,
                "loader {loader} (id {loader_id}, source {source:?}) failed RPC"
            ),
            RuntimeError::PlannerFailure => write!(f, "planner actor failed RPC"),
            RuntimeError::ConstructorFailure { bucket } => {
                write!(f, "constructor for bucket {bucket} failed RPC")
            }
            RuntimeError::Plan(e) => write!(f, "plan generation failed: {e}"),
            RuntimeError::PlanLogGap {
                loader_id,
                missing_step,
                frontier,
            } => write!(
                f,
                "plan log gap: loader {loader_id} needs step {missing_step} but the \
                 entry is missing and the frontier checkpoint only retires steps \
                 below {frontier}"
            ),
        }
    }
}

impl std::error::Error for RuntimeError {}

/// Identity of one loader, for failure attribution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoaderIdentity {
    /// Deployment-wide loader id.
    pub loader_id: u32,
    /// Name of the source the loader serves.
    pub source: String,
    /// Id of the source the loader serves (the control plane groups
    /// loaders by source when scaling and rebalancing).
    pub source_id: SourceId,
}

/// One registered loader: who it is, what its hosting group rebuilds it
/// from, and where it checkpoints.
#[derive(Clone)]
pub(crate) struct LoaderSlot {
    /// Failure-attribution identity.
    pub(crate) identity: LoaderIdentity,
    /// The source the loader serves.
    pub(crate) spec: SourceSpec,
    /// The configuration the loader was spawned with.
    pub(crate) config: LoaderConfig,
    /// Id of the loader group hosting it.
    pub(crate) group: u32,
    /// The loader's GCS checkpoint key, `loader/{id}`, built once.
    pub(crate) key: String,
}

/// One running loader group.
#[derive(Clone)]
pub(crate) struct GroupSlot {
    /// Group id (ids are never reused).
    pub(crate) id: u32,
    /// The group's actor handle.
    pub(crate) actor: ActorRef<LoaderMsg>,
}

/// The live loader topology: every loader in registry order and the
/// groups hosting them.
#[derive(Clone, Default)]
pub(crate) struct Topology {
    /// Registered loaders, in registry order (the planner's view order).
    pub(crate) loaders: Vec<LoaderSlot>,
    /// Running groups, by ascending id; every one hosts at least one
    /// registered loader.
    pub(crate) groups: Vec<GroupSlot>,
    /// The next group id to hand out.
    next_group: u32,
}

impl Topology {
    fn group_index(&self, group: u32) -> Option<usize> {
        self.groups.binary_search_by_key(&group, |g| g.id).ok()
    }

    /// The group hosting `slot`.
    pub(crate) fn group_of(&self, slot: &LoaderSlot) -> Option<&GroupSlot> {
        self.group_index(slot.group).map(|g| &self.groups[g])
    }

    /// The group hosting loader `loader_id`.
    pub(crate) fn host(&self, loader_id: u32) -> Option<&GroupSlot> {
        self.loaders
            .iter()
            .find(|slot| slot.identity.loader_id == loader_id)
            .and_then(|slot| self.group_of(slot))
    }

    /// Sends every group the request `msg` builds, pipelined (one round
    /// trip for the whole fleet), and collects the replies in `groups`
    /// order: `None` for a group that failed the RPC.
    fn ask_groups<R: Send + 'static>(
        &self,
        msg: impl Fn(ReplyTo<R>) -> LoaderMsg,
        timeout: Duration,
    ) -> Vec<Option<R>> {
        let pending: Vec<_> = self
            .groups
            .iter()
            .map(|g| g.actor.ask_pipelined(&msg).ok())
            .collect();
        pending
            .into_iter()
            .map(|p| p.and_then(|p| p.wait(timeout).ok()))
            .collect()
    }

    /// Reassembles per-group replies (from [`Topology::ask_groups`]) into
    /// registry order: entry `i` is loader `i`'s item, `None` when its
    /// group did not answer or no longer hosts it. Items are matched by
    /// loader id, so a loader retired since this snapshot but not yet
    /// drained from its group is dropped.
    fn in_registry_order<T>(
        &self,
        replies: Vec<Option<Vec<T>>>,
        id: impl Fn(&T) -> u32,
    ) -> Vec<Option<T>> {
        // A group answers in registry order: reversed, the next loader's
        // item is the last one.
        let mut replies: Vec<Vec<T>> = replies
            .into_iter()
            .map(|reply| {
                let mut reply = reply.unwrap_or_default();
                reply.reverse();
                reply
            })
            .collect();
        self.loaders
            .iter()
            .map(|slot| {
                let reply = &mut replies[self.group_index(slot.group)?];
                let pos = reply
                    .iter()
                    .rposition(|item| id(item) == slot.identity.loader_id)?;
                Some(reply.swap_remove(pos))
            })
            .collect()
    }
}

/// The live loader topology, shared between the pipeline handle, the
/// serve driver, the elastic controller and every loader group's
/// factory. Copy-on-write: readers clone the inner `Arc` and keep a
/// consistent snapshot for one operation; the controller replaces it
/// (spawn/retire), so a topology change lands between operations, never
/// inside one.
pub(crate) type LoaderRegistry = Arc<RwLock<Arc<Topology>>>;

/// Seed of the transform-cost estimate [`loader_groups`] balances on,
/// fixed so that grouping is a pure function of the loader list.
const GROUP_COST_SEED: u64 = 0x4d53_445f_4752_5550;
/// Draws per transform-cost estimate.
const GROUP_COST_DRAWS: usize = 32;

/// The cost [`loader_groups`] balances: the source's mean per-sample
/// transform cost, estimated with a fixed seed.
fn group_cost(spec: &SourceSpec) -> f64 {
    spec.mean_transform_cost_ns(
        &mut msd_sim::SimRng::seed(GROUP_COST_SEED),
        GROUP_COST_DRAWS,
    )
}

/// The grouping rule: `N` loaders run in `min(N, G)` groups, `G` being
/// the paper's four source clusters (`PartitionOpts::default().clusters`,
/// Sec 5.1), filled by greedy LPT on each loader's source transform
/// cost. A step's gather waits on its slowest group, so the rule spreads
/// cost across groups instead of clustering similar costs together (as
/// `partition_sources` does to size workers). Returns each group's loader
/// indices, ascending — registry order.
fn loader_groups(loaders: &[(SourceSpec, LoaderConfig)]) -> Vec<Vec<usize>> {
    let costs: Vec<f64> = loaders.iter().map(|(spec, _)| group_cost(spec)).collect();
    let groups = crate::autoscale::PartitionOpts::default()
        .clusters
        .min(loaders.len());
    let mut bins = msd_balance::balance(&costs, groups, msd_balance::BalanceMethod::Greedy).bins;
    for bin in &mut bins {
        bin.sort_unstable();
    }
    bins
}

/// Spawns `loaders` as supervised loader groups assigned by
/// [`loader_groups`], registering every loader in the shared registry
/// (in list order) and the GCS name registry. Used at pipeline
/// construction and, with one loader — a group of one — by the elastic
/// controller for live scale-ups.
pub(crate) fn spawn_loaders(
    system: &ActorSystem,
    gcs: &Gcs,
    registry: &LoaderRegistry,
    loaders: Vec<(SourceSpec, LoaderConfig)>,
    seed: u64,
) {
    let assignment = loader_groups(&loaders);
    // Held until every group is spawned: a factory reads its members from
    // the registry and so waits here until they are all in it.
    let mut guard = registry.write();
    let topology = Arc::make_mut(&mut *guard);
    let base = topology.next_group;
    let mut group_of = vec![base; loaders.len()];
    for (g, members) in (base..).zip(&assignment) {
        for &m in members {
            group_of[m] = g;
        }
    }
    for ((spec, config), group) in loaders.into_iter().zip(group_of) {
        let key = format!("loader/{}", config.loader_id);
        gcs.register(&key, &spec.name);
        topology.loaders.push(LoaderSlot {
            identity: LoaderIdentity {
                loader_id: config.loader_id,
                source: spec.name.clone(),
                source_id: spec.id,
            },
            spec,
            config,
            group,
            key,
        });
    }
    for id in (base..).take(assignment.len()) {
        let name = format!("loader-group/{id}");
        gcs.register(&name, "loader group");
        let (factory_registry, factory_gcs) = (registry.clone(), gcs.clone());
        let actor = system.spawn_supervised(
            &name,
            RestartPolicy::Restart { max_restarts: 3 },
            move || LoaderGroupActor::new(id, &factory_registry, factory_gcs.clone(), seed),
        );
        topology.groups.push(GroupSlot { id, actor });
        topology.next_group = id + 1;
    }
}

/// One loader's row in a [`RuntimeStats`] snapshot.
#[derive(Debug, Clone)]
pub struct LoaderStat {
    /// Who the loader is.
    pub identity: LoaderIdentity,
    /// Health reported by the loader itself (buffer occupancy, fetch
    /// stall time, lifetime production).
    pub health: LoaderHealth,
    /// Envelopes waiting in the hosting group's mailbox (backlog signal,
    /// shared by every loader of the group).
    pub mailbox_depth: usize,
}

/// One constructor's row in a [`RuntimeStats`] snapshot.
#[derive(Debug, Clone)]
pub struct ConstructorStat {
    /// Constructor index (clients pull from `client % constructors`).
    pub index: usize,
    /// Envelopes waiting in the actor's mailbox.
    pub mailbox_depth: usize,
    /// Serve steps currently queued for pulling clients.
    pub ready_steps: Vec<u64>,
}

/// Point-in-time health of the whole threaded deployment — the elastic
/// controller's decision input, exposed via [`ThreadedPipeline::stats`].
#[derive(Debug, Clone, Default)]
pub struct RuntimeStats {
    /// Per-loader stats, in registry order (unreachable loaders skipped).
    pub loaders: Vec<LoaderStat>,
    /// Envelopes waiting in the planner's mailbox.
    pub planner_mailbox_depth: usize,
    /// Per-constructor stats (unreachable constructors skipped).
    pub constructors: Vec<ConstructorStat>,
    /// The metrics plane at snapshot time: buffer-pool counters,
    /// per-stage latency percentiles, queue-depth gauges.
    pub metrics: crate::metrics::MetricsSnapshot,
}

impl RuntimeStats {
    /// Loader count per source, sorted by source id (the topology view
    /// scaling tests assert on).
    pub fn loaders_per_source(&self) -> Vec<(SourceId, usize)> {
        let mut counts: BTreeMap<SourceId, usize> = BTreeMap::new();
        for l in &self.loaders {
            *counts.entry(l.identity.source_id).or_insert(0) += 1;
        }
        counts.into_iter().collect()
    }

    /// Total buffered samples across all loaders.
    pub fn total_buffered(&self) -> usize {
        self.loaders.iter().map(|l| l.health.buffered).sum()
    }
}

/// Gathers per-loader health through the hosting groups (one pipelined
/// ask per group): `(registry index, health)` in registry order; loaders
/// whose group fails the RPC (mid-restart) are skipped. Shared by
/// [`ThreadedPipeline::stats`] and the elastic controller so the
/// operator view and the control plane's decision input cannot diverge.
pub(crate) fn gather_fleet_health(
    topology: &Topology,
    timeout: Duration,
) -> Vec<(usize, LoaderHealth)> {
    let replies = topology.ask_groups(LoaderMsg::Health, timeout);
    topology
        .in_registry_order(replies, |h| h.loader_id)
        .into_iter()
        .enumerate()
        .filter_map(|(i, health)| Some((i, health?)))
        .collect()
}

/// The clonable actor handles a serve driver needs (shared between the
/// synchronous step path and the background driver thread).
#[derive(Clone)]
struct Fleet {
    loaders: LoaderRegistry,
    planner: ActorRef<PlannerMsg>,
    constructors: Vec<ActorRef<ConstructorMsg>>,
    /// The serve driver's retained broadcast window, shared with the
    /// constructor factories (see [`RetainedWindow`]).
    window: SharedWindow,
    controller: ActorRef<ControllerMsg>,
    rpc_timeout: Duration,
    /// Steps served from the replay store, shared with the pipeline
    /// handle so both `step` and `serve` paths account them.
    replayed: Arc<AtomicU64>,
    /// Shared control store (fault reporting from the serve driver).
    gcs: Gcs,
}

fn slot_failure(idx: usize, identity: &LoaderIdentity) -> RuntimeError {
    RuntimeError::LoaderFailure {
        loader: idx,
        loader_id: identity.loader_id,
        source: identity.source.clone(),
    }
}

impl Fleet {
    /// A point-in-time view of the loader topology (an `Arc` clone). The
    /// controller may grow or shrink the registry while it is in use —
    /// directives for retired loaders then simply miss (the same
    /// degradation as a loader crash mid-step).
    fn snapshot(&self) -> Arc<Topology> {
        self.loaders.read().clone()
    }

    fn refill(&self, target: usize) {
        for group in &self.snapshot().groups {
            group.actor.tell(LoaderMsg::Refill { target });
        }
    }

    /// Gathers buffer summaries, one pipelined ask per group, and
    /// reassembles them in registry order: the planner sees the same
    /// [`BufferInfo`] whichever group hosts a loader. A loader whose
    /// group fails the RPC fails the gather.
    fn gather(&self) -> Result<BufferInfo, RuntimeError> {
        let topology = self.snapshot();
        let replies = topology.ask_groups(LoaderMsg::Summary, self.rpc_timeout);
        let summaries = topology
            .in_registry_order(replies, |s| s.loader_id)
            .into_iter()
            .zip(&topology.loaders)
            .enumerate()
            .map(|(i, (summary, slot))| summary.ok_or_else(|| slot_failure(i, &slot.identity)))
            .collect::<Result<_, _>>()?;
        Ok(BufferInfo::new(summaries))
    }

    fn plan(&self, info: BufferInfo) -> Result<PlanOutcome, RuntimeError> {
        let outcome = self
            .planner
            .ask(|reply| PlannerMsg::Plan { info, reply }, self.rpc_timeout)
            .map_err(|_| RuntimeError::PlannerFailure)?
            .map_err(RuntimeError::Plan)?;
        if outcome.replayed {
            self.replayed.fetch_add(1, Ordering::SeqCst);
        }
        Ok(outcome)
    }

    /// Pops every plan directive, one pipelined ask per group that hosts
    /// a directed loader, addressing loaders by deployment-wide id (the
    /// topology may have changed since the plan was made). Every asked
    /// group shares `directives` and pops the members it hosts. Returns
    /// the popped samples plus, if a group failed its pop RPC, the
    /// failure of its first directed loader in registry order. Directives
    /// naming a loader that has since been drained are skipped — the
    /// drain handed its unconsumed samples to a surviving peer, so they
    /// stay plannable.
    fn pop(
        &self,
        directives: &Arc<BTreeMap<u32, Vec<u64>>>,
    ) -> (HashMap<u64, Sample>, Option<RuntimeError>) {
        let topology = self.snapshot();
        // Per group: its first directed loader (failure attribution).
        let mut firsts: Vec<Option<usize>> = vec![None; topology.groups.len()];
        for (i, slot) in topology.loaders.iter().enumerate() {
            if !directives.contains_key(&slot.identity.loader_id) {
                continue;
            }
            if let Some(g) = topology.group_index(slot.group) {
                firsts[g].get_or_insert(i);
            }
        }
        let mut pending = Vec::new();
        let mut failed: Option<usize> = None;
        let mut fail = |i: usize| failed = Some(failed.map_or(i, |f| f.min(i)));
        for (group, first) in topology.groups.iter().zip(firsts) {
            let Some(first) = first else { continue };
            let directives = Arc::clone(directives);
            match group
                .actor
                .ask_pipelined(move |reply| LoaderMsg::Pop { directives, reply })
            {
                Ok(p) => pending.push((first, p)),
                Err(_) => fail(first),
            }
        }
        let wanted = directives.values().map(Vec::len).sum();
        let mut popped = HashMap::with_capacity(wanted);
        for (first, p) in pending {
            match p.wait(self.rpc_timeout) {
                Ok(samples) => popped.extend(samples.into_iter().map(|s| (s.meta.sample_id, s))),
                Err(_) => fail(first),
            }
        }
        let failure = failed.map(|i| slot_failure(i, &topology.loaders[i].identity));
        (popped, failure)
    }

    fn checkpoint(&self, version: u64) {
        for group in &self.snapshot().groups {
            group.actor.tell(LoaderMsg::Checkpoint { version });
        }
    }

    /// Splits the popped samples into per-bucket broadcast payloads, in
    /// plan bucket order: `(constructor index, bucket plan, samples)`.
    fn partition(
        &self,
        plan: &LoadingPlan,
        mut popped: HashMap<u64, Sample>,
    ) -> Vec<BroadcastItem> {
        plan.buckets
            .iter()
            .map(|bp| {
                let idx = PipelineCore::constructor_index(bp.bucket, self.constructors.len());
                let samples: HashMap<u64, Sample> = bp
                    .bins
                    .iter()
                    .flat_map(|bin| bin.samples.iter())
                    .filter_map(|id| popped.remove(id).map(|s| (*id, s)))
                    .collect();
                (idx, bp.clone(), Arc::new(samples))
            })
            .collect()
    }
}

/// The construction-time trainer topology, kept for the distributed
/// serving plane's rank → constructor-bucket placement. (A later
/// [`ThreadedPipeline::set_tree`] reshard applies to *plans*; serve
/// sessions opened after it should be placed against the new topology
/// by the caller.)
struct PlacementView {
    tree: ClientPlaceTree,
    axis: DistributeAxis,
    group_size: Option<u32>,
}

/// The fully actorized threaded pipeline.
pub struct ThreadedPipeline {
    system: ActorSystem,
    fleet: Fleet,
    placement: PlacementView,
    /// Data-server actors opened by [`ThreadedPipeline::serve_distributed`]
    /// (stopped at shutdown).
    servers: Vec<ActorRef<ServerMsg>>,
    /// Shared control store (checkpoints, registry, fault log).
    pub gcs: Gcs,
}

impl ThreadedPipeline {
    /// Spawns the supervised actor topology: one loader per `(spec,
    /// config)` pair, hosted by at most four loader groups (greedy LPT on
    /// source transform cost), the planner, one constructor actor per
    /// entry of `constructors`, and the elastic controller.
    pub fn new(
        sources: Vec<(SourceSpec, LoaderConfig)>,
        planner: Planner,
        constructors: Vec<DataConstructor>,
        seed: u64,
    ) -> Self {
        Self::new_with(
            sources,
            planner,
            constructors,
            seed,
            Gcs::new(),
            ControllerConfig::default(),
        )
    }

    /// Like [`ThreadedPipeline::new`], but against an existing control
    /// store and with explicit controller knobs. When `gcs` holds a
    /// controller checkpoint from a previous incarnation, the recorded
    /// loader topology is respawned *instead of* the provided one — a
    /// restarted deployment resumes the exact post-scaling shape
    /// (`sources` then only supplies the spec + config templates).
    pub fn new_with(
        sources: Vec<(SourceSpec, LoaderConfig)>,
        planner: Planner,
        mut constructors: Vec<DataConstructor>,
        seed: u64,
        gcs: Gcs,
        controller_config: ControllerConfig,
    ) -> Self {
        let system = ActorSystem::new("msd");
        // The serve path delivers per-bucket batches through per-bucket
        // constructor actors; with fewer actors than plan buckets a
        // bucket's broadcast would collide with its step-mate. Pad to the
        // planner's bucket count so the mapping is one-to-one.
        let buckets = planner
            .tree()
            .bucket_count(planner.config.axis, planner.config.group_size)
            as usize;
        if let Some(template) = constructors.first().cloned() {
            while constructors.len() < buckets {
                constructors.push(template.clone());
            }
        }
        let placement = PlacementView {
            tree: planner.tree().clone(),
            axis: planner.config.axis,
            group_size: planner.config.group_size,
        };
        let topology =
            crate::system::controller::restore_topology(&gcs, &sources).unwrap_or(sources.clone());
        let registry = LoaderRegistry::default();
        spawn_loaders(&system, &gcs, &registry, topology, seed);

        let broadcast_axes = planner.config.broadcast_axes.clone();
        gcs.register("planner", "central");
        let planner_gcs = gcs.clone();
        let planner_ref = system.spawn_supervised(
            "planner",
            RestartPolicy::Restart { max_restarts: 8 },
            move || PlannerActor::new(planner.clone(), planner_gcs.clone()),
        );

        let window = SharedWindow::default();
        let constructor_refs: Vec<ActorRef<ConstructorMsg>> = constructors
            .into_iter()
            .enumerate()
            .map(|(i, c)| {
                let name = format!("constructor/{i}");
                gcs.register(&name, "bucket constructor");
                let axes = broadcast_axes.clone();
                let window = window.clone();
                system.spawn_supervised(
                    &name,
                    RestartPolicy::Restart { max_restarts: 8 },
                    move || ConstructorActor::new(c.clone(), i, axes.clone(), window.clone()),
                )
            })
            .collect();

        gcs.register("controller", "elastic control plane");
        let controller_ref = {
            let ctl_system = system.clone();
            let ctl_gcs = gcs.clone();
            let ctl_registry = registry.clone();
            let ctl_planner = planner_ref.clone();
            let config = controller_config;
            system.spawn_supervised(
                "controller",
                RestartPolicy::Restart { max_restarts: 8 },
                move || {
                    ControllerActor::new(
                        config,
                        ctl_system.clone(),
                        ctl_gcs.clone(),
                        ctl_registry.clone(),
                        ctl_planner.clone(),
                        sources.clone(),
                        seed,
                    )
                },
            )
        };

        ThreadedPipeline {
            system,
            fleet: Fleet {
                loaders: registry,
                planner: planner_ref,
                constructors: constructor_refs,
                window,
                controller: controller_ref,
                rpc_timeout: Duration::from_secs(10),
                replayed: Arc::new(AtomicU64::new(0)),
                gcs: gcs.clone(),
            },
            placement,
            servers: Vec::new(),
            gcs,
        }
    }

    /// Steps served from the replay store (when one is installed),
    /// across both the synchronous `step` path and `serve` sessions.
    pub fn replayed_steps(&self) -> u64 {
        self.fleet.replayed.load(Ordering::SeqCst)
    }

    /// Installs a Replay Mode plan store (paper §9) on the planner actor.
    pub fn set_replay_store(&mut self, store: crate::replay::PlanStore) {
        self.fleet.planner.tell(PlannerMsg::SetReplay(store));
    }

    /// RPC timeout used as the failure detector.
    pub fn rpc_timeout(&self) -> Duration {
        self.fleet.rpc_timeout
    }

    /// Adjusts the RPC-timeout failure detector.
    pub fn set_rpc_timeout(&mut self, timeout: Duration) {
        self.fleet.rpc_timeout = timeout;
    }

    /// Each loader's hosting-group handle, in registry order (fault
    /// injection in tests: a crash or stall hits the whole group, and
    /// loaders sharing a group share the handle's name). The topology is
    /// live — the elastic controller may grow or shrink it — so this
    /// returns a snapshot of cloned handles, not a borrow.
    pub fn loaders(&self) -> Vec<ActorRef<LoaderMsg>> {
        let topology = self.fleet.snapshot();
        topology
            .loaders
            .iter()
            .filter_map(|slot| topology.group_of(slot))
            .map(|group| group.actor.clone())
            .collect()
    }

    /// Loader identities, parallel to [`ThreadedPipeline::loaders`].
    pub fn loader_identities(&self) -> Vec<LoaderIdentity> {
        let topology = self.fleet.snapshot();
        topology
            .loaders
            .iter()
            .map(|slot| slot.identity.clone())
            .collect()
    }

    /// The planner actor handle (fault injection in tests).
    pub fn planner_actor(&self) -> &ActorRef<PlannerMsg> {
        &self.fleet.planner
    }

    /// The elastic controller's actor handle.
    pub fn controller_actor(&self) -> &ActorRef<ControllerMsg> {
        &self.fleet.controller
    }

    /// Drives one control-plane interval by hand: the controller pulls
    /// planner telemetry + loader health and executes any scaling or
    /// rebalancing decision. [`ThreadedPipeline::serve`] does this
    /// automatically every [`ServeOptions::control_interval`] steps.
    pub fn control_tick(&self) {
        self.fleet.controller.tell(ControllerMsg::Tick);
    }

    /// The controller's decision counters and current topology view.
    pub fn controller_status(&self) -> Option<ControllerStatus> {
        self.fleet
            .controller
            .ask(ControllerMsg::Status, self.fleet.rpc_timeout)
            .ok()
    }

    /// Chaos hook: stalls constructor `index`'s mailbox by `stall`,
    /// modeling a storage fetch gone slow. No-op for an out-of-range
    /// index.
    pub fn inject_constructor_stall(&self, index: usize, stall: Duration) {
        if let Some(c) = self.fleet.constructors.get(index) {
            c.inject_delay(stall);
        }
    }

    /// Snapshots runtime health across the whole deployment: per-loader
    /// buffer occupancy / mailbox depth, the planner's
    /// backlog, and per-constructor queue state (client progress lives in
    /// the session's frontier, [`ServeSession::frontier`]). This is
    /// the elastic controller's raw input, exposed for operators and
    /// tests; unreachable actors (mid-restart) are skipped.
    pub fn stats(&self) -> RuntimeStats {
        let topology = self.fleet.snapshot();
        let loaders = gather_fleet_health(&topology, self.fleet.rpc_timeout)
            .into_iter()
            .map(|(i, health)| {
                let slot = &topology.loaders[i];
                LoaderStat {
                    identity: slot.identity.clone(),
                    mailbox_depth: topology
                        .group_of(slot)
                        .map_or(0, |group| group.actor.mailbox_depth()),
                    health,
                }
            })
            .collect();
        let constructors = self
            .fleet
            .constructors
            .iter()
            .enumerate()
            .filter_map(|(index, c)| {
                c.ask(ConstructorMsg::ReadySteps, self.fleet.rpc_timeout)
                    .ok()
                    .map(|ready_steps| ConstructorStat {
                        index,
                        mailbox_depth: c.mailbox_depth(),
                        ready_steps,
                    })
            })
            .collect();
        let stats = RuntimeStats {
            loaders,
            planner_mailbox_depth: self.fleet.planner.mailbox_depth(),
            constructors,
            metrics: crate::metrics::MetricsSnapshot::default(),
        };
        // Publish queue depths as gauges, then take the metrics snapshot
        // so it reflects exactly this sampling instant.
        crate::metrics::set_queue_depths(
            stats.planner_mailbox_depth as u64,
            stats
                .constructors
                .iter()
                .map(|c| c.mailbox_depth as u64)
                .max()
                .unwrap_or(0),
            stats.total_buffered() as u64,
        );
        RuntimeStats {
            metrics: crate::metrics::snapshot(),
            ..stats
        }
    }

    /// Constructor actor handles (fault injection in tests).
    pub fn constructor_actors(&self) -> &[ActorRef<ConstructorMsg>] {
        &self.fleet.constructors
    }

    /// Replaces the trainer topology on the planner actor (elastic
    /// resharding): subsequent plans use the new mesh.
    pub fn set_tree(&mut self, tree: ClientPlaceTree) {
        self.fleet.planner.tell(PlannerMsg::SetTree(tree));
    }

    /// Runs one pull-model step across the actor fleet for a single
    /// synchronous caller.
    pub fn step(
        &mut self,
        refill_target: usize,
    ) -> Result<(LoadingPlan, PhaseBreakdown, Vec<ConstructedBatch>), RuntimeError> {
        // 1–2. Refill (tell) then gather summaries (pipelined ask with
        // timeout: the failure detector).
        self.fleet.refill(refill_target);
        let info = self.fleet.gather()?;

        // 3–4. Plan on the planner actor (replay-store adoption or live
        // strategy execution, via the shared PipelineCore).
        let outcome = self.fleet.plan(info)?;
        let (mut plan, phases) = (outcome.plan, outcome.phases);

        // 5. Pop and checkpoint. The groups share the directives and hand
        // them back to the returned plan.
        let directives = Arc::new(std::mem::take(&mut plan.directives));
        let (popped, failed) = self.fleet.pop(&directives);
        plan.directives = Arc::unwrap_or_clone(directives);
        if let Some(failure) = failed {
            return Err(failure);
        }
        self.fleet.checkpoint(plan.step);

        // 6. Broadcast each bucket's slice to its constructor actor and
        // collect the constructed batches (pipelined).
        let mut pending = Vec::new();
        for (idx, bucket_plan, samples) in self.fleet.partition(&plan, popped) {
            let bucket = bucket_plan.bucket;
            let ask = self.fleet.constructors[idx].ask_pipelined(move |reply| {
                ConstructorMsg::Construct {
                    step: plan.step,
                    bucket_plan,
                    samples,
                    reply: Some(reply),
                }
            });
            match ask {
                Ok(p) => pending.push((bucket, p)),
                Err(_) => return Err(RuntimeError::ConstructorFailure { bucket }),
            }
        }
        let mut batches = Vec::with_capacity(pending.len());
        for (bucket, p) in pending {
            batches.push(
                p.wait(self.fleet.rpc_timeout)
                    .map_err(|_| RuntimeError::ConstructorFailure { bucket })?,
            );
        }
        Ok((plan, phases, batches))
    }

    /// Starts concurrent serving: a driver thread pumps the pipeline for
    /// `opts.steps` steps while the returned session's clients pull
    /// batches from their constructor actors. See [`ServeOptions`].
    pub fn serve(&mut self, opts: ServeOptions) -> ServeSession {
        let ctor_count = self.fleet.constructors.len().max(1);
        let roster: Vec<(u32, usize)> = (0..opts.clients)
            .map(|id| (id, id as usize % ctor_count))
            .collect();
        let hub = Arc::new(FrontierHub::new());
        let clients: Vec<ServeClient> = roster
            .iter()
            .map(|(id, ctor_idx)| {
                // Each local client self-reports progress into its
                // frontier capability as it pulls.
                ServeClient {
                    id: *id,
                    constructor: self.fleet.constructors[*ctor_idx].clone(),
                    next_step: 0,
                    steps: opts.steps,
                    pull_timeout: opts.pull_timeout,
                    hub: hub.clone(),
                }
            })
            .collect();
        // Local clients consume batches by `Arc`; nothing to pre-encode.
        self.spawn_driver(opts, roster, clients, false, hub)
    }

    /// Starts a *distributed* serve session: the driver pumps exactly as
    /// in [`ThreadedPipeline::serve`], but the consumers are remote
    /// trainer clients reaching the pipeline over `transport` through a
    /// [`DataServer`] actor. Each placement's rank is mapped onto the
    /// trainer mesh ([`ClientPlaceTree`]: DP-rank → constructor bucket);
    /// `opts.clients` is ignored — `placements` defines the client set.
    ///
    /// Returns the serve session (no local clients; join it as usual)
    /// plus the server handle used to [`DataServerHandle::connect`]
    /// remote clients. The window `W` of each client is
    /// `opts.queue_depth` steps, so remote flow control and the driver's
    /// bounded-queue backpressure agree on how far ahead the pipeline
    /// may run.
    ///
    /// # Panics
    ///
    /// Panics if a placement's rank lies outside the trainer mesh.
    pub fn serve_distributed(
        &mut self,
        opts: ServeOptions,
        transport: Arc<dyn Transport>,
        placements: &[RemotePlacement],
    ) -> (ServeSession, DataServerHandle) {
        let ctor_count = self.fleet.constructors.len().max(1);
        let placed: Vec<(u32, msd_mesh::Rank, usize)> = placements
            .iter()
            .map(|p| {
                let bucket = self
                    .placement
                    .tree
                    .bucket_of(p.rank, self.placement.axis, self.placement.group_size)
                    .unwrap_or_else(|| {
                        panic!("placement rank {} lies outside the trainer mesh", p.rank)
                    });
                (
                    p.client,
                    p.rank,
                    PipelineCore::constructor_index(bucket, ctor_count),
                )
            })
            .collect();
        let roster: Vec<(u32, usize)> = placed.iter().map(|(c, _, i)| (*c, *i)).collect();

        let hub = Arc::new(FrontierHub::new());
        let factory_ctors = self.fleet.constructors.clone();
        let factory_placed = placed.clone();
        let factory_steps = opts.steps;
        let factory_config = opts.server;
        let factory_gcs = self.gcs.clone();
        let factory_hub = hub.clone();
        let name = format!("data-server/{}", self.servers.len());
        self.gcs.register(&name, "distributed serving plane");
        // Supervised: a crashed (or chaos-killed) server actor restarts
        // with fresh, empty session state. Clients quiet-timeout on
        // their orphaned sessions, redial under backoff, and resume
        // from their cursors — the frontier hub and the constructors'
        // ready queues live outside the server and survive the crash.
        // The factory hands each incarnation the server's own handle,
        // which constructors answer its pulls through.
        let actor = self.system.spawn_supervised_with(
            &name,
            RestartPolicy::Restart { max_restarts: 4 },
            move |me| {
                DataServer::new(
                    me.clone(),
                    factory_ctors.clone(),
                    factory_placed.clone(),
                    factory_steps,
                    factory_config,
                    factory_gcs.clone(),
                    factory_hub.clone(),
                )
            },
        );

        self.servers.push(actor.clone());

        let pre_encode = transport.serializes();
        let handle = DataServerHandle::new(
            actor,
            transport,
            Arc::new(placed.iter().map(|(c, r, _)| (*c, *r)).collect()),
            opts.steps,
            opts.pull_timeout,
            opts.queue_depth.min(u64::from(u32::MAX)) as u32,
        );
        let session = self.spawn_driver(opts, roster, Vec::new(), pre_encode, hub);
        (session, handle)
    }

    /// Spawns the serve driver over an explicit `(client, constructor)`
    /// roster; shared by local and distributed serving. Every rostered
    /// client holds a frontier capability from step 0 before the driver
    /// starts, so backpressure binds from the first step.
    fn spawn_driver(
        &mut self,
        opts: ServeOptions,
        roster: Vec<(u32, usize)>,
        clients: Vec<ServeClient>,
        pre_encode: bool,
        hub: Arc<FrontierHub>,
    ) -> ServeSession {
        for (client, _) in &roster {
            hub.acquire(Holder::Client(*client), 0);
        }
        let fleet = self.fleet.clone();
        let stop = Arc::new(AtomicBool::new(false));
        let driver_stop = stop.clone();
        let driver_opts = opts;
        let driver_hub = hub.clone();
        let driver = std::thread::Builder::new()
            .name("msd/serve-driver".to_string())
            .spawn(move || {
                run_serve_driver(
                    fleet,
                    driver_opts,
                    driver_stop,
                    roster,
                    pre_encode,
                    driver_hub,
                )
            })
            .expect("failed to spawn serve driver");
        ServeSession {
            driver: Some(driver),
            clients,
            stop,
            hub,
        }
    }

    /// Stops all actors and joins their threads.
    pub fn shutdown(self) {
        // Data servers first: they hold constructor handles and would
        // otherwise keep issuing pulls into a fleet that is tearing down.
        for server in &self.servers {
            server.stop();
        }
        // The controller must be fully out of the way before the loader
        // snapshot is taken: a Tick still queued behind its Stop could
        // spawn a loader *after* the snapshot, and that unstopped actor
        // would wedge the join below forever. The Status ask is a drain
        // barrier for already-queued Ticks; the bounded spin then waits
        // for the Stop to land so no further spawns are possible.
        let _ = self
            .fleet
            .controller
            .ask(ControllerMsg::Status, self.fleet.rpc_timeout);
        self.fleet.controller.stop();
        // Generous: a backlog of Ticks each doing timeout-bounded RPCs can
        // outlast one rpc_timeout; every tick terminates, so this only
        // wedges past the deadline if the controller thread itself hung.
        let deadline = Instant::now() + self.fleet.rpc_timeout.max(Duration::from_secs(30));
        while self.fleet.controller.is_alive() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        // Stop loader groups until the registry stops changing: even if
        // the controller outlived the deadline above, a group spawned
        // behind our back is caught on the next pass instead of wedging
        // the join.
        let mut stopped: std::collections::HashSet<u32> = std::collections::HashSet::new();
        loop {
            let mut new_any = false;
            for group in &self.fleet.snapshot().groups {
                if stopped.insert(group.id) {
                    group.actor.stop();
                    new_any = true;
                }
            }
            if !new_any {
                break;
            }
        }
        self.fleet.planner.stop();
        for c in &self.fleet.constructors {
            c.stop();
        }
        self.system.shutdown();
    }
}

/// Configuration of one [`ThreadedPipeline::serve`] session.
#[derive(Debug, Clone, Copy)]
pub struct ServeOptions {
    /// Number of concurrent trainer clients (client `i` pulls from
    /// constructor `i % constructors`).
    pub clients: u32,
    /// Serve steps to pump.
    pub steps: u64,
    /// Per-loader refill target per step.
    pub refill_target: usize,
    /// Bounded-queue backpressure knob: the driver stalls once it is this
    /// many steps ahead of the slowest client, so prefetch cannot blow the
    /// memory budget.
    pub queue_depth: u64,
    /// Pipelined refill-ahead: loaders prefetch toward the next plan
    /// while the current step is constructed and delivered.
    pub prefetch: bool,
    /// Per-pull ask timeout on the client side (pulls retry until their
    /// step arrives).
    pub pull_timeout: Duration,
    /// Elastic control-plane cadence: every this-many serve steps the
    /// driver ticks the controller, which pulls mixing-weight telemetry
    /// and loader health and may scale or rebalance the loader fleet
    /// live. `0` (the default) disables autoscaling during the session.
    pub control_interval: u64,
    /// Distributed-plane hardening knobs: session admission caps and
    /// the lease that reaps silently-dead clients. Ignored by local
    /// (in-process) serving.
    pub server: ServerConfig,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            clients: 1,
            steps: 16,
            refill_target: 64,
            queue_depth: 4,
            prefetch: true,
            pull_timeout: Duration::from_millis(500),
            control_interval: 0,
            server: ServerConfig::default(),
        }
    }
}

/// A live serving session: the driver thread plus client handles.
pub struct ServeSession {
    driver: Option<JoinHandle<u64>>,
    clients: Vec<ServeClient>,
    stop: Arc<AtomicBool>,
    /// The session's frontier fold (shared with every consumer).
    hub: Arc<FrontierHub>,
}

impl ServeSession {
    /// Takes the client handles (each is `Send`; move them into client
    /// threads).
    pub fn take_clients(&mut self) -> Vec<ServeClient> {
        std::mem::take(&mut self.clients)
    }

    /// The session's folded global step frontier: every serve step below
    /// it is proven consumed by all live capability holders.
    pub fn frontier(&self) -> u64 {
        self.hub.frontier()
    }

    /// Requests the driver to stop after the current step; a driver
    /// blocked on backpressure or the drain wakes at once.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        self.hub.wake();
    }

    /// Waits for the driver to finish; returns how many steps it
    /// broadcast.
    pub fn join(mut self) -> u64 {
        self.driver
            .take()
            .expect("driver joined once")
            .join()
            .unwrap_or(0)
    }
}

impl Drop for ServeSession {
    fn drop(&mut self) {
        self.stop();
        if let Some(driver) = self.driver.take() {
            let _ = driver.join();
        }
    }
}

/// One trainer client of a serve session. Pulls are strictly ordered:
/// the client asks for serve step 0, 1, 2, … and carries its own cursor,
/// so constructor restarts can neither skip nor double-serve it. Its
/// capability in the session's [`FrontierHub`] is the only record of its
/// progress the rest of the pipeline reads.
pub struct ServeClient {
    /// Client id (also its roster entry).
    pub id: u32,
    constructor: ActorRef<ConstructorMsg>,
    next_step: u64,
    steps: u64,
    pull_timeout: Duration,
    /// The session's frontier fold: this client self-reports its
    /// consumed cursor after every pull and releases its capability when
    /// the stream ends (normally or by drop).
    hub: Arc<FrontierHub>,
}

impl ServeClient {
    /// Pulls the next batch, blocking (with retries while the pipeline
    /// recovers from faults) until it is available. Returns `None` once
    /// the session's steps are exhausted or the pipeline stays
    /// unreachable past the retry budget. The batch is a shared handle:
    /// every client of a serve step reads the same constructed buffers.
    pub fn next(&mut self) -> Option<(u64, Arc<ConstructedBatch>)> {
        if self.next_step >= self.steps {
            return None;
        }
        let want = self.next_step;
        // Generous budget: supervised restarts take tens of milliseconds;
        // backpressure stalls take as long as the slowest client.
        for _ in 0..600 {
            let id = self.id;
            match self.constructor.ask(
                |reply| ConstructorMsg::Pull {
                    client: id,
                    step: want,
                    reply,
                },
                self.pull_timeout,
            ) {
                Ok((step, shared)) => {
                    debug_assert_eq!(step, want);
                    self.next_step = want + 1;
                    self.hub.advance(Holder::Client(self.id), self.next_step);
                    if self.next_step == self.steps {
                        // Release the frontier capability — this client
                        // can never need a retained step again.
                        self.hub.release(Holder::Client(self.id));
                    }
                    return Some((step, shared.batch()));
                }
                Err(_) => continue, // Not constructed yet, or restarting.
            }
        }
        None
    }

    /// Serve steps already consumed.
    pub fn consumed(&self) -> u64 {
        self.next_step
    }
}

impl Drop for ServeClient {
    fn drop(&mut self) {
        if self.next_step < self.steps {
            // Abandoned mid-stream: release the frontier capability so
            // the serve driver's backpressure and drain stop waiting for
            // pulls that will never come, and retirement (ready queues
            // included) moves on without this client. Released, not
            // advanced: a departed client must neither hold back nor
            // falsely advance retirement.
            self.hub.release(Holder::Client(self.id));
        }
    }
}

/// How long the driver keeps retrying one serve step through failures
/// before concluding the fleet is unrecoverable (e.g. a loader exhausted
/// its restart budget) and ending the session early. Keeps
/// [`ServeSession::join`] from blocking forever on a dead fleet.
const STEP_RETRY_BUDGET: Duration = Duration::from_secs(60);

/// The serve driver loop: pump `opts.steps` steps through the actor
/// fleet, riding out supervised restarts, then drain until every
/// rostered client has consumed its stream. `roster` maps each client
/// to its constructor — `i % C` for local sessions, the mesh placement
/// for distributed ones. The driver asks no constructor anything: client
/// progress is read from `hub`, and a restarted constructor rebuilds its
/// ready queue from the retained window on its own.
fn run_serve_driver(
    fleet: Fleet,
    opts: ServeOptions,
    stop: Arc<AtomicBool>,
    roster: Vec<(u32, usize)>,
    pre_encode: bool,
    hub: Arc<FrontierHub>,
) -> u64 {
    // Only constructors with a rostered client are sent steps.
    let mut rostered = vec![false; fleet.constructors.len()];
    for (_, idx) in &roster {
        rostered[*idx] = true;
    }
    // Empty the window *before* the resets go out: a constructor that
    // restarts after its `Reset` must rebuild from this session's steps,
    // never from the previous session's.
    {
        let mut window = fleet.window.lock();
        window.pre_encode = pre_encode;
        window.steps.clear();
    }
    for ctor in &fleet.constructors {
        // A previous serve session may have left queued batches and
        // parked pulls behind; serve-step numbering restarts at 0.
        ctor.tell(ConstructorMsg::Reset { pre_encode });
    }

    // Plan-log retirement state: the planner's global step of this
    // session's serve step 0 (captured at the first plan) and the
    // pruning cursor, resumed from the persisted frontier checkpoint so
    // retirement stays monotone across sessions.
    let mut plan_base: Option<u64> = None;
    let mut pruned_below = persisted_retirement_floor(&fleet.gcs);
    let mut last_frontier = 0u64;

    let mut served = 0u64;
    let mut bucket_overflow_reported = false;
    'steps: for s in 0..opts.steps {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let step_deadline = Instant::now() + STEP_RETRY_BUDGET;
        // (1) Refill. With prefetch the refill for this step was issued
        // right after the previous pop, overlapping with construction.
        if !opts.prefetch || s == 0 {
            fleet.refill(opts.refill_target);
        }

        // (2) Gather + (3) plan, riding out restarts.
        let outcome = loop {
            if stop.load(Ordering::SeqCst) || Instant::now() > step_deadline {
                break 'steps;
            }
            let info = match fleet.gather() {
                Ok(info) => info,
                Err(_) => {
                    std::thread::sleep(Duration::from_millis(10));
                    continue;
                }
            };
            match fleet.plan(info) {
                Ok(outcome) => break outcome,
                Err(RuntimeError::Plan(_)) => {
                    // A genuine planning error (not a crash): nudge the
                    // loaders and retry — buffers may simply be lean.
                    fleet.refill(opts.refill_target);
                    std::thread::sleep(Duration::from_millis(10));
                }
                Err(_) => std::thread::sleep(Duration::from_millis(10)),
            }
        };
        let mut plan = outcome.plan;
        let base = *plan_base.get_or_insert(plan.step);
        if plan.buckets.len() > fleet.constructors.len() && !bucket_overflow_reported {
            bucket_overflow_reported = true;
            // Reshard grew the bucket count past the spawned constructor
            // fleet: buckets sharing a constructor collide per serve step
            // and the extras are dropped. Surface the degradation.
            fleet.gcs.log_fault(
                "serve-driver",
                format!(
                    "plan has {} buckets but only {} constructor actors; \
                     colliding buckets are dropped in serve mode",
                    plan.buckets.len(),
                    fleet.constructors.len()
                ),
            );
        }

        // (4) Pop, retrying loaders that were mid-restart once; a
        // restarted loader's lost samples are skipped by construction.
        // Both pops share the step's directives; nothing later reads them.
        let directives = Arc::new(std::mem::take(&mut plan.directives));
        let (mut popped, failed) = fleet.pop(&directives);
        if failed.is_some() {
            std::thread::sleep(Duration::from_millis(20));
            let (retried, _) = fleet.pop(&directives);
            popped.extend(retried);
        }

        // (5) Checkpoint; (6) prefetch the next step's refill so loaders
        // work while constructors assemble and clients drain.
        fleet.checkpoint(plan.step);
        if opts.prefetch {
            fleet.refill(opts.refill_target);
        }

        // (7) Broadcast this serve step to the rostered constructors and
        // retain it under the same lock: a constructor that consumes the
        // broadcast and then crashes finds the step in the window when
        // its restart rebuilds.
        let mut items = fleet.partition(&plan, popped);
        items.retain(|(idx, _, _)| rostered[*idx]);
        {
            let mut window = fleet.window.lock();
            broadcast(&fleet, s, &items);
            window.steps.push_back((s, items));
        }
        served = s + 1;

        // (7a) Frontier retirement: fold the consumed-frontier reports,
        // persist the proof to the GCS, and prune the plan log and the
        // retained window below it.
        retire_frontier(
            &fleet,
            &hub,
            base,
            served,
            &mut pruned_below,
            &mut last_frontier,
        );

        // (7b) Elastic control plane: tick the controller on its cadence.
        // The tick is a tell — scaling decisions execute on the
        // controller's thread while the driver keeps pumping steps.
        if opts.control_interval > 0 && served % opts.control_interval == 0 {
            fleet.controller.tell(ControllerMsg::Tick);
        }

        // (8) Backpressure: block while the slowest client's consumed
        // cursor is more than `queue_depth` steps behind; every cursor
        // change and `stop` wake the wait. Deadline-bounded so a vanished
        // client cannot wedge the driver forever.
        let caught_up = hub.wait_until(step_deadline, |min| {
            stop.load(Ordering::SeqCst) || min.is_none_or(|c| served <= c + opts.queue_depth)
        });
        if !caught_up || stop.load(Ordering::SeqCst) {
            break 'steps;
        }
    }

    // Drain: wait until no client capability sits below `served`
    // (completion and drop both *release*, so a departed client cannot
    // wedge it) or a generous deadline passes. The window stays intact
    // meanwhile, so a constructor restarting now still rebuilds.
    hub.wait_until(Instant::now() + Duration::from_secs(60), |min| {
        stop.load(Ordering::SeqCst) || min.is_none_or(|c| c >= served)
    });
    // The session is over: free the retained samples.
    fleet.window.lock().steps.clear();
    served
}

/// Folds the hub's global frontier into durable retirement, once per
/// served step:
///
/// 1. on a frontier advance, trim the retained window below it and
///    announce it to every constructor (ready-queue retirement below
///    it): no client can ask for a step below its own capability, and a
///    rebuild below the frontier is refused anyway,
/// 2. compute the plan-log retirement floor — the min of what every
///    live consumer capability permits (`plan_base + frontier`) and
///    what every loader's durable checkpoint permits (its replay
///    cursor, `state_version("loader/{id}")`) — so neither a lagging
///    client nor a restarting loader can ever need a pruned entry,
/// 3. prune plan-log entries below the floor and persist the frontier
///    checkpoint (the proof readers like [`replay_plan_log`] consult).
///
/// Retained plan-log size is therefore bounded by actual lag (slowest
/// capability behind the head), never by run length.
fn retire_frontier(
    fleet: &Fleet,
    hub: &FrontierHub,
    plan_base: u64,
    served: u64,
    pruned_below: &mut u64,
    last_frontier: &mut u64,
) {
    let snap = hub.snapshot();
    if snap.frontier > *last_frontier {
        *last_frontier = snap.frontier;
        let mut window = fleet.window.lock();
        while window
            .steps
            .front()
            .is_some_and(|(step, _)| *step < snap.frontier)
        {
            window.steps.pop_front();
        }
        drop(window);
        for ctor in &fleet.constructors {
            ctor.tell(ConstructorMsg::Frontier { at: snap.frontier });
        }
    }
    let mut floor = plan_base.saturating_add(snap.frontier);
    for slot in &fleet.snapshot().loaders {
        floor = floor.min(fleet.gcs.state_version(&slot.key));
    }
    if floor > *pruned_below {
        for step in *pruned_below..floor {
            fleet.gcs.remove_state(&plan_log_key(step));
        }
        *pruned_below = floor;
    }
    let cp = FrontierCheckpoint {
        frontier: snap.frontier,
        served,
        plan_base,
        pruned_below: *pruned_below,
        holders: snap.holders,
    };
    let version = fleet.gcs.state_version(FRONTIER_STATE_KEY) + 1;
    fleet.gcs.put_state(
        FRONTIER_STATE_KEY,
        version,
        crate::codec::encode_frontier_checkpoint(&cp),
    );
}

fn broadcast(fleet: &Fleet, step: u64, items: &[BroadcastItem]) {
    for (idx, bucket_plan, samples) in items {
        fleet.constructors[*idx].tell(ConstructorMsg::Construct {
            step,
            bucket_plan: bucket_plan.clone(),
            samples: samples.clone(),
            reply: None,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msd_balance::BalanceMethod;
    use msd_data::catalog::{coyo700m_like, text_only};
    use msd_data::Catalog;
    use msd_mesh::{Axis, ClientPlaceTree, DeviceMesh, DistributeAxis};
    use msd_sim::SimRng;

    use crate::planner::{PlannerConfig, Strategy};
    use crate::schedule::MixSchedule;

    fn pipeline() -> ThreadedPipeline {
        pipeline_over(&coyo700m_like(&mut SimRng::seed(1)))
    }

    fn pipeline_over(catalog: &Catalog) -> ThreadedPipeline {
        let mesh = DeviceMesh::pp_dp_cp_tp(1, 2, 1, 2).unwrap();
        let tree = ClientPlaceTree::from_device_mesh(&mesh);
        let planner = Planner::new(
            PlannerConfig {
                axis: DistributeAxis::DP,
                group_size: None,
                microbatches: 2,
                broadcast_axes: vec![Axis::TP],
                samples_per_step: 16,
                schedule: MixSchedule::uniform(catalog.len()),
            },
            Strategy::BackboneBalance {
                method: BalanceMethod::Greedy,
                backbone: msd_balance::BackboneShape {
                    layers: 2,
                    hidden: 128,
                    mlp_ratio: 4.0,
                    heads: 2,
                    vocab: 1000,
                    experts_per_token: 1,
                },
            },
            tree,
            catalog.sources().iter().map(|s| s.id).collect(),
            7,
        );
        let constructors = (0..2)
            .map(|_| DataConstructor::new(mesh.clone(), 4096))
            .collect();
        ThreadedPipeline::new(solo_loaders(catalog.sources()), planner, constructors, 99)
    }

    fn step_until_ok(
        p: &mut ThreadedPipeline,
        refill: usize,
        attempts: u32,
    ) -> (LoadingPlan, PhaseBreakdown, Vec<ConstructedBatch>) {
        for _ in 0..attempts {
            match p.step(refill) {
                Ok(out) => return out,
                Err(RuntimeError::Plan(e)) => panic!("unexpected plan error: {e}"),
                Err(_) => std::thread::sleep(Duration::from_millis(20)),
            }
        }
        panic!("pipeline never recovered");
    }

    /// One solo loader per source, loader id = position.
    fn solo_loaders(sources: &[SourceSpec]) -> Vec<(SourceSpec, LoaderConfig)> {
        sources
            .iter()
            .enumerate()
            .map(|(i, s)| (s.clone(), LoaderConfig::solo(i as u32)))
            .collect()
    }

    /// Loader lists the grouping rule must handle: text catalogs of every
    /// size class, the image catalog, and five shards of one source.
    fn loader_lists() -> Vec<Vec<(SourceSpec, LoaderConfig)>> {
        let mut rng = SimRng::seed(5);
        let mut lists: Vec<_> = [0, 1, 2, 3, 4, 5, 6, 8, 13, 128]
            .into_iter()
            .map(|n| solo_loaders(text_only(&mut rng, n).sources()))
            .collect();
        let coyo = coyo700m_like(&mut rng);
        lists.push(solo_loaders(coyo.sources()));
        lists.push(solo_loaders(&vec![coyo.sources()[0].clone(); 5]));
        lists
    }

    #[test]
    fn every_loader_lands_in_exactly_one_of_at_most_four_groups() {
        for loaders in loader_lists() {
            let groups = loader_groups(&loaders);
            assert_eq!(
                groups.len(),
                loaders.len().min(4),
                "{} loaders",
                loaders.len()
            );
            assert!(groups.iter().all(|g| !g.is_empty()), "an empty group");
            assert!(
                groups.iter().all(|g| g.windows(2).all(|w| w[0] < w[1])),
                "members not in registry order: {groups:?}"
            );
            let mut members = groups.concat();
            members.sort_unstable();
            assert_eq!(members, (0..loaders.len()).collect::<Vec<_>>());
            assert_eq!(groups, loader_groups(&loaders), "the rule is not pure");
        }
    }

    #[test]
    fn four_or_fewer_loaders_keep_one_loader_per_group() {
        for loaders in loader_lists().into_iter().filter(|l| l.len() <= 4) {
            let groups = loader_groups(&loaders);
            assert!(groups.iter().all(|g| g.len() == 1), "{groups:?}");
        }
    }

    #[test]
    fn loader_groups_meet_the_lpt_bound() {
        for loaders in loader_lists().into_iter().filter(|l| !l.is_empty()) {
            let costs: Vec<f64> = loaders.iter().map(|(spec, _)| group_cost(spec)).collect();
            let groups = loader_groups(&loaders);
            let mean = costs.iter().sum::<f64>() / groups.len() as f64;
            let max_item = costs.iter().copied().fold(0.0, f64::max);
            let heaviest = groups
                .iter()
                .map(|g| g.iter().map(|&i| costs[i]).sum::<f64>())
                .fold(0.0, f64::max);
            assert!(
                heaviest <= (mean + max_item) * (1.0 + 1e-9),
                "{} loaders: heaviest group {heaviest} > mean {mean} + max item {max_item}",
                loaders.len()
            );
        }
    }

    #[test]
    fn gather_reassembles_group_replies_in_registry_order() {
        let p = pipeline_over(&text_only(&mut SimRng::seed(3), 9));
        let topology = p.fleet.snapshot();
        let members = |group: &GroupSlot| -> Vec<usize> {
            (0..topology.loaders.len())
                .filter(|&i| topology.loaders[i].group == group.id)
                .collect()
        };
        assert_eq!(topology.groups.len(), 4);
        assert!(
            topology
                .groups
                .iter()
                .any(|g| members(g).windows(2).any(|w| w[1] != w[0] + 1)),
            "the assignment is contiguous: the test would prove nothing"
        );
        p.fleet.refill(4);
        let info = p.fleet.gather().expect("gather");
        let got: Vec<(u32, SourceId)> = info
            .summaries
            .iter()
            .map(|s| (s.loader_id, s.source))
            .collect();
        let registry: Vec<(u32, SourceId)> = p
            .loader_identities()
            .iter()
            .map(|id| (id.loader_id, id.source_id))
            .collect();
        assert_eq!(got, registry);
        assert!(info.summaries.iter().all(|s| s.len() == 4));
        p.shutdown();
    }

    #[test]
    fn threaded_step_delivers_batches() {
        let mut p = pipeline();
        let (plan, phases, batches) = p.step(32).unwrap();
        assert_eq!(plan.all_samples().len(), 16);
        assert_eq!(batches.len(), 2);
        assert!(phases.compute_ns > 0);
        p.shutdown();
    }

    #[test]
    fn threaded_replay_serves_recorded_plans() {
        // Record three steps on fleet A, then replay them on an
        // identically seeded fleet B: plans match and no strategy runs.
        let mut recorder = pipeline();
        let mut store = crate::replay::PlanStore::new();
        let mut recorded = Vec::new();
        for _ in 0..3 {
            let (plan, _, _) = recorder.step(32).unwrap();
            recorded.push(plan.clone());
            store.insert(plan);
        }
        recorder.shutdown();

        let mut replayer = pipeline();
        replayer.set_replay_store(store);
        for expect in &recorded {
            let (plan, phases, batches) = step_until_ok(&mut replayer, 32, 50);
            assert_eq!(&plan, expect);
            assert_eq!(phases.compute_ns, 0);
            assert!(!batches.is_empty());
            if plan.step == 0 {
                // Kill the planner mid-replay: its restart has only the
                // GCS to go on, so the remaining steps replay only if it
                // adopted the persisted store.
                replayer.planner_actor().inject_crash("injected");
                std::thread::sleep(Duration::from_millis(50));
            }
        }
        assert_eq!(replayer.replayed_steps(), 3);
        // Past the store: live planning resumes seamlessly.
        let (plan, phases, _) = replayer.step(32).unwrap();
        assert_eq!(plan.step, 3);
        assert!(phases.compute_ns > 0);
        assert_eq!(replayer.replayed_steps(), 3);
        replayer.shutdown();
    }

    #[test]
    fn reshard_survives_planner_restart() {
        let mut p = pipeline();
        let (plan, _, _) = p.step(32).unwrap();
        assert_eq!(plan.buckets.len(), 2); // DP=2.
                                           // Elastic reshard to DP=1, then kill the planner: the restarted
                                           // planner must keep the resharded topology (persisted in the
                                           // GCS), not the spawn-time template.
        let new_mesh = DeviceMesh::pp_dp_cp_tp(1, 1, 1, 2).unwrap();
        p.set_tree(ClientPlaceTree::from_device_mesh(&new_mesh));
        let (plan, _, _) = p.step(32).unwrap();
        assert_eq!(plan.buckets.len(), 1);
        p.planner_actor().inject_crash("injected");
        std::thread::sleep(Duration::from_millis(50));
        let (plan, _, _) = step_until_ok(&mut p, 32, 50);
        assert_eq!(
            plan.buckets.len(),
            1,
            "planner restart reverted the reshard"
        );
        p.shutdown();
    }

    #[test]
    fn crashed_loader_recovers_via_supervision_and_gcs() {
        let mut p = pipeline();
        let (_, _, _) = p.step(32).unwrap();
        // Kill loader 0; the supervisor restarts it and it restores from
        // its GCS checkpoint.
        p.loaders()[0].inject_crash("injected");
        // Give the supervisor a moment to restart.
        std::thread::sleep(Duration::from_millis(50));
        let (plan, _, _) = step_until_ok(&mut p, 32, 50);
        assert_eq!(plan.all_samples().len(), 16);
        p.shutdown();
    }

    #[test]
    fn stalled_loader_trips_the_failure_detector() {
        let mut p = pipeline();
        // Pre-warm buffers so an ordinary refill is fast, then stall one
        // loader well past the RPC timeout. The timeout must stay generous
        // enough that *healthy* loaders never trip it under parallel test
        // load — only the injected stall may exceed it.
        p.step(32).unwrap();
        p.set_rpc_timeout(Duration::from_secs(2));
        let groups = p.loaders();
        groups[1].inject_delay(Duration::from_secs(6));
        let r = p.step(32);
        match r {
            Err(RuntimeError::LoaderFailure {
                loader,
                loader_id,
                ref source,
            }) => {
                // The stall hits loader 1's whole group; the failure names
                // the group's first loader in registry order.
                let first = groups.iter().position(|g| g.name() == groups[1].name());
                assert_eq!(Some(loader), first);
                assert_eq!(loader_id, p.loader_identities()[loader].loader_id);
                assert_eq!(source, &p.loader_identities()[loader].source);
            }
            other => panic!("expected attributable loader failure, got {other:?}"),
        }
        p.shutdown();
    }

    #[test]
    fn crashed_planner_resumes_the_plan_sequence() {
        // Reference: an unfailed pipeline's plan stream.
        let mut reference = pipeline();
        let expected: Vec<Vec<u64>> = (0..4)
            .map(|_| reference.step(32).unwrap().0.all_samples())
            .collect();
        reference.shutdown();

        // Faulty: kill the planner actor after step 1; the supervised
        // restart restores step counter + RNG from the GCS checkpoint.
        let mut faulty = pipeline();
        let mut got: Vec<Vec<u64>> = Vec::new();
        got.push(faulty.step(32).unwrap().0.all_samples());
        faulty.planner_actor().inject_crash("injected");
        std::thread::sleep(Duration::from_millis(50));
        while got.len() < 4 {
            match faulty.step(32) {
                Ok((plan, _, _)) => got.push(plan.all_samples()),
                Err(_) => std::thread::sleep(Duration::from_millis(20)),
            }
        }
        assert_eq!(expected, got, "planner restart perturbed the plan stream");
        faulty.shutdown();
    }

    #[test]
    fn crashed_constructor_restarts_and_serves_again() {
        let mut p = pipeline();
        p.step(32).unwrap();
        p.constructor_actors()[0].inject_crash("injected");
        std::thread::sleep(Duration::from_millis(50));
        let (_, _, batches) = step_until_ok(&mut p, 32, 50);
        assert_eq!(batches.len(), 2);
        p.shutdown();
    }

    #[test]
    fn corrupt_loader_checkpoint_falls_back_and_logs() {
        // Neither blob carries the magic; the second is long and nested
        // enough to overflow the stack of a reader that recursed on it.
        for blob in [b"{not json".to_vec(), vec![b'['; 64 << 10]] {
            let mut p = pipeline();
            p.step(32).unwrap();
            // Sabotage loader 0's checkpoint, then crash it: the restart
            // must fall back to a fresh loader and log the corruption
            // instead of dying permanently.
            let key = "loader/0";
            let v = p.gcs.state_version(key);
            p.gcs.put_state(key, v + 1, blob);
            p.loaders()[0].inject_crash("injected");
            std::thread::sleep(Duration::from_millis(50));
            let (plan, _, _) = step_until_ok(&mut p, 32, 50);
            assert_eq!(plan.all_samples().len(), 16);
            assert!(p.loaders()[0].is_alive());
            let faults = p.gcs.fault_log("loader/0");
            assert!(
                faults.iter().any(|f| f.detail.contains("corrupt")),
                "corruption not surfaced: {faults:?}"
            );
            p.shutdown();
        }
    }

    #[test]
    fn second_serve_session_starts_fresh() {
        let mut p = pipeline();
        for round in 0..2u32 {
            let mut session = p.serve(ServeOptions {
                clients: 2,
                steps: 3,
                refill_target: 32,
                queue_depth: 2,
                prefetch: true,
                pull_timeout: Duration::from_millis(500),
                control_interval: 0,
                server: ServerConfig::default(),
            });
            let handles: Vec<_> = session
                .take_clients()
                .into_iter()
                .map(|mut c| {
                    std::thread::spawn(move || {
                        let mut steps = Vec::new();
                        while let Some((step, _)) = c.next() {
                            steps.push(step);
                        }
                        steps
                    })
                })
                .collect();
            for h in handles {
                let steps = h.join().unwrap();
                assert_eq!(steps, vec![0, 1, 2], "round {round} stream broken");
            }
            assert_eq!(session.join(), 3, "round {round} driver fell short");
        }
        p.shutdown();
    }

    #[test]
    fn serve_delivers_ordered_streams_to_concurrent_clients() {
        let mut p = pipeline();
        let mut session = p.serve(ServeOptions {
            clients: 4,
            steps: 6,
            refill_target: 32,
            queue_depth: 3,
            prefetch: true,
            pull_timeout: Duration::from_millis(500),
            control_interval: 0,
            server: ServerConfig::default(),
        });
        let clients = session.take_clients();
        let handles: Vec<_> = clients
            .into_iter()
            .map(|mut c| {
                std::thread::spawn(move || {
                    let mut steps = Vec::new();
                    while let Some((step, batch)) = c.next() {
                        steps.push((step, batch.bucket, batch.microbatches.len()));
                    }
                    (c.id, steps)
                })
            })
            .collect();
        for h in handles {
            let (id, steps) = h.join().unwrap();
            assert_eq!(steps.len(), 6, "client {id} missed steps: {steps:?}");
            for (i, (step, _, microbatches)) in steps.iter().enumerate() {
                assert_eq!(*step, i as u64, "client {id} saw out-of-order step");
                assert_eq!(*microbatches, 2);
            }
        }
        assert_eq!(session.join(), 6);
        p.shutdown();
    }

    #[test]
    fn stop_wakes_a_driver_blocked_on_backpressure() {
        let mut p = pipeline();
        let queue_depth = 2;
        let mut session = p.serve(ServeOptions {
            clients: 1,
            steps: 50,
            refill_target: 32,
            queue_depth,
            ..ServeOptions::default()
        });
        // The client holds its capability at step 0 and never pulls, so
        // the driver builds `queue_depth + 1` steps and blocks.
        let _idle = session.take_clients();
        let deadline = Instant::now() + Duration::from_secs(20);
        while p.stats().constructors[0].ready_steps.len() as u64 <= queue_depth {
            assert!(
                Instant::now() < deadline,
                "driver never reached backpressure"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        let start = Instant::now();
        session.stop();
        assert_eq!(session.join(), queue_depth + 1);
        assert!(
            start.elapsed() < Duration::from_secs(1),
            "stop took {:?} to reach a driver blocked on backpressure",
            start.elapsed()
        );
        p.shutdown();
    }
}
