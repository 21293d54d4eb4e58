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
//!   plans with their raw samples and answering the data server's pulls
//!   with batches it builds on demand, running each sample's transform
//!   tail (Sec 6.2's transformation reordering),
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
//! One serial chain drives the fleet: gather → plan → pop, and a group
//! checkpoints its loaders before it answers the pop. Loader groups pop
//! raw, so the chain carries no transform work.
//! [`ThreadedPipeline::step`] runs it once for a single synchronous
//! caller and runs the tails and assembles the batches on the caller's
//! thread, as the inline deployment does. Every concurrent session is
//! one contract: [`ThreadedPipeline::serve_distributed`] starts a driver
//! thread that pumps plans/pops/broadcasts with pipelined refill-ahead,
//! one step ahead of the fastest client, and a
//! [`DataServer`] actor that streams each placed trainer client its
//! constructor's batches over a [`Transport`], throttled by a
//! bounded-queue backpressure knob. [`ThreadedPipeline::serve`] is the
//! same session over the in-process [`LoopbackTransport`], its clients
//! connected for the caller.

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
use crate::constructor::{ConstructedBatch, DataConstructor, TransformTails};
use crate::dgraph::DGraphError;
use crate::loader::{LoaderCheckpoint, LoaderConfig, LoaderHealth, SourceLoader};
use crate::plan::{BucketPlan, LoadingPlan};
use crate::planner::{PhaseBreakdown, Planner};
use crate::system::controller::{
    ControllerActor, ControllerConfig, ControllerMsg, ControllerStatus,
};
use crate::system::core::{PipelineCore, PlanOutcome};
use crate::system::frontier::{FrontierCheckpoint, FrontierHub, Holder};
use crate::system::net::{LoopbackTransport, SharedBatch, Transport, WeakBatch};
use crate::system::server::{
    DataServer, DataServerHandle, RemoteClient, RemotePlacement, ServerConfig, ServerMsg,
};
use crate::window::Window;

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
/// the samples the bucket consumes, raw, in plan order). Samples are
/// `Arc`-shared between the in-flight message and the driver's retained
/// window, so a broadcast is a refcount bump, not a payload copy.
type BroadcastItem = (usize, Arc<BucketPlan>, Arc<Vec<Sample>>);

/// Messages understood by a loader group. The per-step operations
/// (refill, summary, pop) and the health probe cover every hosted loader
/// in one message; the control plane's hand-off addresses one loader by
/// id.
pub enum LoaderMsg {
    /// Refill every hosted loader's buffer toward `target` samples:
    /// admission, metadata only ([`SourceLoader::refill`]). The group
    /// materializes samples in its idle time, ahead of the pops that take
    /// them.
    Refill {
        /// Target buffered sample count, per loader.
        target: usize,
    },
    /// Report every hosted loader's buffer summary, in registry order,
    /// their metadata windows onto one table
    /// ([`SourceLoader::summaries`]).
    Summary(ReplyTo<Vec<BufferSummary>>),
    /// Pop every hosted loader's directed sample ids, checkpoint every
    /// hosted loader at `version` under its `loader/{id}` key, and only
    /// then reply with the samples raw (`SourceLoader::take_into`): the
    /// transform tail runs where the batch is assembled, and a reply
    /// proves the group's checkpoints are stored.
    Pop {
        /// The step's pop directives (loader id → sample ids), shared by
        /// every group: each looks up its own members.
        directives: Arc<BTreeMap<u32, Window<u64>>>,
        /// The plan step: the version of the checkpoints the pop writes.
        version: u64,
        /// Reply channel.
        reply: ReplyTo<Vec<Sample>>,
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
/// A refill admits metadata only; the group materializes its members'
/// samples in its idle time ([`Actor::idle`]), one per turn, for the
/// member furthest behind its lead, and a pop materializes whatever is
/// still pending. So a `Summary`, `Pop` or `Health` ask waits behind at
/// most one sample's work.
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
    let checkpoint = gcs.get_state(&slot.key).and_then(|cp| {
        crate::codec::decode_loader_checkpoint(&cp.data)
            .map_err(|e| {
                gcs.log_fault(
                    &slot.key,
                    format!(
                        "corrupt GCS checkpoint (v{}): {e}; \
                         falling back to a fresh synthetic loader",
                        cp.version
                    ),
                );
            })
            .ok()
    });
    let (mut loader, from_version) = match checkpoint {
        Some(parsed) => (SourceLoader::restore(spec, config, &parsed), parsed.version),
        // No readable checkpoint (or a crash before the first landed):
        // the fresh loader restarts the same deterministic stream from
        // ordinal 0, so the whole plan log is replayed.
        None => (SourceLoader::synthetic(spec, config, seed), 0),
    };
    // An actor factory cannot itself fail: a replay gap lands on the GCS
    // fault log under the runtime component, where supervisors and
    // operators read it. The loader still starts — it serves fresh data —
    // but the gap is loud instead of silent sample loss.
    if let Err(e) = replay_plan_log(&mut loader, gcs, from_version, &slot.key) {
        gcs.log_fault("runtime", format!("{e}"));
    }
    loader
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
                reply.send(SourceLoader::summaries(
                    self.members.iter().map(|m| &m.loader),
                ));
            }
            LoaderMsg::Pop {
                directives,
                version,
                reply,
            } => {
                // A loader this group no longer hosts misses its pop, as a
                // crashed loader's does.
                let wanted = self
                    .members
                    .iter()
                    .filter_map(|m| directives.get(&m.loader.id()))
                    .map(|ids| ids.len())
                    .sum();
                let mut samples = Vec::with_capacity(wanted);
                for member in &mut self.members {
                    if let Some(ids) = directives.get(&member.loader.id()) {
                        member.loader.take_into(ids, &mut samples);
                    }
                }
                // Let go of the shared directives before replying, so the
                // driver gets them back without a copy.
                drop(directives);
                // Each frame is encoded into its key's stored buffer: a
                // step's checkpoints make no allocator call.
                for member in &self.members {
                    let cp = member.loader.checkpoint(version);
                    self.gcs.put_state_with(&member.key, version, |buf| {
                        crate::codec::encode_loader_checkpoint_into(&cp, buf)
                    });
                }
                reply.send(samples);
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

    /// Materializes one sample ahead of the pops, for the member furthest
    /// behind its lead (see [`crate::loader`]'s module docs): with the
    /// mailbox empty, so an ask waits for at most one sample's work.
    fn idle(&mut self, _ctx: &mut Ctx) -> bool {
        let furthest = self
            .members
            .iter_mut()
            .map(|m| (m.loader.behind(), m))
            .filter(|(behind, _)| *behind > 0)
            .max_by_key(|(behind, _)| *behind);
        let Some((_, member)) = furthest else {
            return false;
        };
        member.loader.materialize(1);
        self.members.iter().any(|m| m.loader.behind() > 0)
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
                    // step frontier (see `retire_frontier`). A fixed
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
    /// A broadcast plan slice: stage this bucket's raw samples; a pull
    /// builds the batch.
    Construct {
        /// Serve-step ordinal (contiguous; not necessarily `plan.step`).
        step: u64,
        /// This bucket's slice of the loading plan (shared with the
        /// driver's retained window).
        bucket_plan: Arc<BucketPlan>,
        /// Popped raw samples the bucket consumes, in plan order, less
        /// any that are missing (shared, not copied).
        samples: Arc<Vec<Sample>>,
    },
    /// The data server requests the batch of exactly `step` for
    /// `client`. The reply is parked until that step is staged, and the
    /// batch is built when first pulled. The server carries the client's
    /// cursor, so a restarted constructor cannot double-serve it. While
    /// a client or an in-flight frame holds a built batch, a bucket-mate's
    /// pull shares it ([`SharedBatch`]): the *same* constructed buffers
    /// and, on serializing transports, the same memoized wire encoding —
    /// a refcount bump, never a payload copy.
    Pull {
        /// The client the pull is for.
        client: u32,
        /// The serve step the client needs next.
        step: u64,
        /// A tell into the data server's mailbox
        /// ([`ServerMsg::Ready`]).
        reply: ReplyTo<(u64, SharedBatch)>,
    },
    /// Report the serve steps this actor can answer: every staged step.
    ReadySteps(ReplyTo<Vec<u64>>),
    /// The frontier the serve driver announces to this constructor: no
    /// client that may pull from it can still ask for a step below `at`
    /// (see `retire_frontier`), so staged steps below it retire.
    Frontier {
        /// This constructor's step frontier (exclusive retirement bound),
        /// never below the global one.
        at: u64,
    },
    /// Start a fresh serve session: drop staged steps and parked pulls
    /// left over from a previous session (serve step numbering restarts
    /// at 0 each session).
    Reset {
        /// When true (serializing transports), each constructed batch is
        /// wire-encoded on the construct thread as it is built, instead of
        /// on the serve loop's first send of that batch.
        pre_encode: bool,
    },
}

/// The shared-batch reply a [`ConstructorMsg::Pull`] resolves to.
type PullReply = ReplyTo<(u64, SharedBatch)>;

/// The serve driver's retained broadcast window: each constructor's share
/// of every step at or above the frontier the driver last announced to
/// it, raw, kept so a restarted constructor can re-stage it. Only the
/// driver writes it; the constructor factories share it read-only.
#[derive(Default)]
pub(crate) struct RetainedWindow {
    /// The session's [`ConstructorMsg::Reset`] flag, so a restarted
    /// incarnation encodes like its peers.
    pre_encode: bool,
    /// Broadcast steps, oldest first, each with its items still retained.
    steps: VecDeque<(u64, Vec<BroadcastItem>)>,
}

/// [`RetainedWindow`] as the driver and constructor factories share it.
type SharedWindow = Arc<Mutex<RetainedWindow>>;

/// One step a constructor can answer: the bucket's slice of the plan and
/// its raw samples (shared with the driver's retained window), plus the
/// batch last built from them, for as long as something else holds it.
struct Staged {
    bucket_plan: Arc<BucketPlan>,
    samples: Arc<Vec<Sample>>,
    built: Option<WeakBatch>,
}

/// A Data Constructor hosted in a supervised actor, serving one bucket's
/// batches to the data server's pulls.
///
/// A broadcast step is staged raw, and the actor builds its batch when
/// the server first pulls it: it runs each sample's transform tail
/// ([`TransformTails`], Sec 6.2's transformation reordering) and packs.
/// The built batch is cached behind a `WeakBatch`, so bucket-mates
/// share it while a client or an in-flight frame holds it, and a later
/// pull (a resend, a late mate) builds the same bytes again.
///
/// The actor tracks no consumer progress: the server carries each
/// client's cursor in `Pull`, the [`FrontierHub`] holds every client's
/// capability, and staged steps are retired by the frontier the driver
/// announces (`step < frontier`). Recovery keeps no durable state either:
/// a restarted incarnation re-stages the driver's retained window in
/// [`Actor::started`], the way loaders restore themselves from the GCS,
/// so a crash mid-serve costs latency, never correctness.
pub struct ConstructorActor {
    inner: DataConstructor,
    /// This constructor's index in the fleet (its share of each
    /// retained broadcast).
    index: usize,
    /// Trainer-side broadcast axes (fetch elision).
    broadcast_axes: Vec<Axis>,
    window: SharedWindow,
    /// Every step this actor can answer, by serve step.
    staged: BTreeMap<u64, Staged>,
    waiting: HashMap<u32, (u64, PullReply)>,
    /// The transform tails, their scratch and settled table.
    tails: TransformTails,
    /// Wire-encode each batch as it is built (set per session by
    /// [`ConstructorMsg::Reset`] when the transport serializes).
    pre_encode: bool,
    /// The serve driver's last announced frontier (monotone within a
    /// session): staged steps below it are retired and never re-staged.
    frontier: u64,
}

impl ConstructorActor {
    /// Wraps a constructor component as fleet member `index`, re-staging
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
            staged: BTreeMap::new(),
            waiting: HashMap::new(),
            tails: TransformTails::default(),
            pre_encode: false,
            frontier: 0,
        }
    }

    /// Stages `step` unless it is already staged or retired (a repeated
    /// broadcast is idempotent). Returns whether it was staged now.
    fn stage(
        &mut self,
        step: u64,
        bucket_plan: Arc<BucketPlan>,
        samples: Arc<Vec<Sample>>,
    ) -> bool {
        if step < self.frontier || self.staged.contains_key(&step) {
            return false;
        }
        self.staged.insert(
            step,
            Staged {
                bucket_plan,
                samples,
                built: None,
            },
        );
        true
    }

    /// The batch of staged `step`: the one last built, if something
    /// still holds it, else built now.
    fn batch(&mut self, step: u64) -> Option<SharedBatch> {
        let staged = self.staged.get_mut(&step)?;
        if let Some(shared) = staged.built.as_ref().and_then(WeakBatch::upgrade) {
            return Some(shared);
        }
        let construct_start = std::time::Instant::now();
        let shared = SharedBatch::new(Arc::new(self.inner.construct_raw(
            &staged.bucket_plan,
            &staged.samples,
            &self.broadcast_axes,
            &mut self.tails,
        )));
        crate::metrics::record_stage(crate::metrics::Stage::Construct, construct_start.elapsed());
        if self.pre_encode {
            // Seal the wire form here, on the construct thread, so the
            // serve loop sends the memoized frame instead of encoding
            // inline.
            shared.warm();
        }
        staged.built = Some(shared.downgrade());
        Some(shared)
    }
}

impl Actor for ConstructorActor {
    type Msg = ConstructorMsg;

    /// Re-stages this bucket's share of every retained step: after a
    /// crash the actor answers exactly the steps clients may still pull,
    /// and builds none of them until pulled. Only the snapshot is taken
    /// under the window lock, so the driver's broadcasts never wait on a
    /// restart. A step the driver retains after the snapshot was also
    /// sent to this mailbox, which survives the restart, and is staged
    /// from its queued `Construct`.
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
        for (step, (_, bucket_plan, samples)) in snapshot {
            self.stage(step, bucket_plan, samples);
        }
    }

    fn handle(&mut self, msg: ConstructorMsg, _ctx: &mut Ctx) {
        match msg {
            ConstructorMsg::Construct {
                step,
                bucket_plan,
                samples,
            } => {
                if !self.stage(step, bucket_plan, samples)
                    || !self.waiting.values().any(|(want, _)| *want == step)
                {
                    return;
                }
                let Some(shared) = self.batch(step) else {
                    return;
                };
                // Wake the clients parked on this step — the only step
                // that just became answerable — in one pass over the
                // parked map, keeping the rest parked.
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
            } => match self.batch(step) {
                Some(shared) => {
                    reply.send((step, shared));
                }
                None => {
                    // Park; a retry from the same client replaces the
                    // stale parked reply.
                    self.waiting.insert(client, (step, reply));
                }
            },
            ConstructorMsg::ReadySteps(reply) => {
                reply.send(self.staged.keys().copied().collect());
            }
            ConstructorMsg::Frontier { at } => {
                if at > self.frontier {
                    self.frontier = at;
                    self.staged.retain(|step, _| *step >= at);
                }
            }
            ConstructorMsg::Reset { pre_encode } => {
                self.staged.clear();
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
    /// signal — or, at a pop, the loader's samples are still missing
    /// after the re-pop. It names the first loader affected, in registry
    /// order.
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
    /// Serve steps the constructor can answer (staged, raw).
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
    /// The metrics plane at snapshot time: buffer-pool counters and
    /// idle bytes, per-stage latency percentiles, queue-depth gauges.
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

/// One turn of the driver's chain ([`Fleet::advance`]): the plan
/// outcome, the popped samples, and the first directed loader whose
/// samples are still missing after the re-pop.
type Advanced = (PlanOutcome, Popped, Option<RuntimeError>);

/// A step's popped samples as the loader groups replied them, found by
/// one `(id, reply, row)` index sorted by id: 16 B per sample, no map.
struct Popped {
    replies: Vec<Vec<Sample>>,
    index: Vec<(u64, u32, u32)>,
    /// Whether every group asked answered a pop of the step: each reply
    /// proves its group's checkpoints at the step are stored.
    all_answered: bool,
}

impl Popped {
    fn new(replies: Vec<Vec<Sample>>, all_answered: bool) -> Self {
        let mut index = Vec::with_capacity(replies.iter().map(Vec::len).sum());
        for (reply, r) in replies.iter().zip(0..) {
            for (sample, row) in reply.iter().zip(0..) {
                index.push((sample.meta.sample_id, r, row));
            }
        }
        index.sort_unstable();
        Popped {
            replies,
            index,
            all_answered,
        }
    }

    fn get(&self, id: u64) -> Option<&Sample> {
        let (_, reply, row) = self.index[self.index.binary_search_by_key(&id, |e| e.0).ok()?];
        Some(&self.replies[reply as usize][row as usize])
    }
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

    /// Pops every directive of plan step `step`, one pipelined ask per
    /// group in the topology, addressing loaders by deployment-wide id
    /// (the topology may have changed since the plan was made). Every
    /// group shares `directives`, pops the members it hosts and
    /// checkpoints them at `step` before it replies, directed or not, so
    /// [`Popped::all_answered`] tells whether every loader's checkpoint
    /// at `step` is stored. If samples are missing — a group failed the RPC, or restarted before the pop —
    /// the groups are asked once more at once: a restarting group keeps
    /// its mailbox, so its next incarnation answers, and the rest find
    /// nothing left to pop. Returns the popped samples plus, if a
    /// directed loader's samples are still missing, the failure of the
    /// first such loader in registry order, which also lands on the
    /// fault log: the step is short. Directives naming a loader that has
    /// since been retired are skipped — the drain handed its unconsumed
    /// samples to a surviving peer, so they stay plannable.
    fn pop(
        &self,
        step: u64,
        directives: &Arc<BTreeMap<u32, Window<u64>>>,
    ) -> (Popped, Option<RuntimeError>) {
        let topology = self.snapshot();
        let wanted = directives.values().map(|ids| ids.len()).sum();
        let mut answered = vec![false; topology.groups.len()];
        let mut replies: Vec<Vec<Sample>> = Vec::with_capacity(topology.groups.len());
        for _ in 0..2 {
            let pop = |reply| LoaderMsg::Pop {
                directives: Arc::clone(directives),
                version: step,
                reply,
            };
            for (reply, answered) in topology
                .ask_groups(pop, self.rpc_timeout)
                .into_iter()
                .zip(&mut answered)
            {
                *answered |= reply.is_some();
                replies.extend(reply);
            }
            if replies.iter().map(Vec::len).sum::<usize>() == wanted {
                break;
            }
        }
        let popped = Popped::new(replies, answered.iter().all(|a| *a));
        let Some(i) = topology.loaders.iter().position(|slot| {
            popped.index.len() < wanted
                && directives
                    .get(&slot.identity.loader_id)
                    .is_some_and(|ids| ids.iter().any(|id| popped.get(*id).is_none()))
        }) else {
            return (popped, None);
        };
        let identity = &topology.loaders[i].identity;
        self.gcs.log_fault(
            "runtime",
            format!(
                "plan step {step} is short: loader {i} (id {}, source {:?}) still misses \
                 samples after a re-pop",
                identity.loader_id, identity.source
            ),
        );
        (popped, Some(slot_failure(i, identity)))
    }

    /// The driver's serial chain, shared by [`ThreadedPipeline::step`]
    /// and the serve driver: gather → plan → pop, the pop checkpointing
    /// every group. The groups share the plan's directives during the pop
    /// and hand them back to the returned plan.
    fn advance(&self) -> Result<Advanced, RuntimeError> {
        let info = self.gather()?;
        let mut outcome = self.plan(info)?;
        let plan = &mut outcome.plan;
        let directives = Arc::new(std::mem::take(&mut plan.directives));
        let (popped, missing) = self.pop(plan.step, &directives);
        plan.directives = Arc::unwrap_or_clone(directives);
        Ok((outcome, popped, missing))
    }

    /// Whether a failed [`Fleet::advance`] cannot succeed when re-asked:
    /// a plan error (each is deterministic), or a failed planner or
    /// loader group that is gone for good (its restart budget spent).
    fn unrecoverable(&self, e: &RuntimeError) -> bool {
        match e {
            RuntimeError::Plan(_) => true,
            RuntimeError::PlannerFailure => self.planner.is_stopped(),
            RuntimeError::LoaderFailure { loader_id, .. } => self
                .snapshot()
                .host(*loader_id)
                .is_some_and(|group| group.actor.is_stopped()),
            RuntimeError::PlanLogGap { .. } => false,
        }
    }

    /// Splits the popped samples into per-bucket broadcast payloads, in
    /// plan bucket order: `(constructor index, bucket plan, samples)`.
    fn partition(&self, buckets: Vec<BucketPlan>, popped: Popped) -> Vec<BroadcastItem> {
        buckets
            .into_iter()
            .map(|bp| {
                let idx = PipelineCore::constructor_index(bp.bucket, self.constructors.len());
                let mut samples = Vec::with_capacity(bp.sample_count());
                let ids = bp.bins.iter().flat_map(|bin| &bin.samples);
                samples.extend(ids.filter_map(|id| popped.get(*id).cloned()));
                (idx, Arc::new(bp), Arc::new(samples))
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
    /// The constructor components, one per constructor actor, that
    /// [`ThreadedPipeline::step`] assembles with on the caller's thread.
    constructors: Vec<DataConstructor>,
    /// The transform tails [`ThreadedPipeline::step`] runs on the
    /// popped raw samples, on the caller's thread.
    tails: TransformTails,
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
            constructors.resize(constructors.len().max(buckets), template);
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
            .iter()
            .cloned()
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
            constructors,
            tails: TransformTails::default(),
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
    /// backlog, per-constructor queue state (client progress lives in
    /// the session's frontier, [`ServeSession::frontier`]), and in its
    /// metrics how many bytes the buffer pool holds idle. This is
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

    /// Runs one step for a single synchronous caller: a refill, the serve
    /// driver's gather → plan → pop, then, on the caller's thread, the
    /// popped samples' transform tails and batch assembly, as the inline
    /// deployment assembles. Fails when an actor fails its RPC, or when a
    /// directed loader's samples are still missing after the re-pop.
    pub fn step(
        &mut self,
        refill_target: usize,
    ) -> Result<(LoadingPlan, PhaseBreakdown, Vec<ConstructedBatch>), RuntimeError> {
        self.fleet.refill(refill_target);
        let (outcome, popped, missing) = self.fleet.advance()?;
        if let Some(failure) = missing {
            return Err(failure);
        }
        let axes = &outcome.plan.broadcast_axes;
        let mut batches = Vec::new();
        for (c, bp, raw) in self.fleet.partition(outcome.plan.buckets.clone(), popped) {
            batches.push(self.constructors[c].construct_raw(&bp, &raw, axes, &mut self.tails));
        }
        Ok((outcome.plan, outcome.phases, batches))
    }

    /// Starts an in-process serve session: the distributed session of
    /// [`ThreadedPipeline::serve_distributed`] over [`LoopbackTransport`],
    /// with `opts.clients` clients already connected. Client `i` is placed
    /// on a trainer rank of bucket `i % C` (`C` constructors), so it reads
    /// constructor `i % C`; [`ServeSession::take_clients`] hands them out.
    ///
    /// # Panics
    ///
    /// Panics if the trainer mesh has fewer buckets than there are
    /// constructors and `opts.clients` reaches past the last bucket.
    pub fn serve(&mut self, opts: ServeOptions) -> ServeSession {
        let view = &self.placement;
        let buckets = view.tree.buckets(view.axis, view.group_size);
        let ctor_count = self.fleet.constructors.len().max(1);
        let placements: Vec<RemotePlacement> = (0..opts.clients)
            .map(|client| {
                let i = client as usize;
                let ranks = buckets.get(i % ctor_count).unwrap_or_else(|| {
                    panic!(
                        "client {client} has no trainer rank: bucket {} is past the mesh",
                        i % ctor_count
                    )
                });
                // Bucket-mates take the bucket's ranks in turn.
                let rank = ranks[(i / ctor_count) % ranks.len()];
                RemotePlacement { client, rank }
            })
            .collect();
        let (mut session, handle) =
            self.serve_distributed(opts, Arc::new(LoopbackTransport), &placements);
        session.clients = placements
            .iter()
            .map(|p| handle.connect(p.client))
            .collect();
        session
    }

    /// Starts a serve session: a driver thread pumps the pipeline for
    /// `opts.steps` steps, and a [`DataServer`] actor streams each placed
    /// trainer client its constructor's batches over `transport`. Each
    /// placement's rank is mapped onto the trainer mesh
    /// ([`ClientPlaceTree`]: DP-rank → constructor bucket);
    /// `opts.clients` is ignored — `placements` defines the client set.
    ///
    /// Returns the serve session (no clients of its own; join it as
    /// usual) plus the server handle used to
    /// [`DataServerHandle::connect`] clients. The window `W` of each
    /// client is `opts.queue_depth` steps, so client flow control and the
    /// driver's bounded-queue backpressure agree on how far ahead the
    /// pipeline may run. Every placed client holds a frontier capability
    /// from step 0 before the driver starts, so backpressure binds from
    /// the first step.
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
        for (client, _) in &roster {
            hub.acquire(Holder::Client(*client), 0);
        }
        let factory_ctors = self.fleet.constructors.clone();
        let factory_placed = placed.clone();
        let factory_steps = opts.steps;
        let factory_config = opts.server;
        let factory_gcs = self.gcs.clone();
        let factory_hub = hub.clone();
        // Reset the constructors before this session's server exists, so
        // every pull it issues queues behind the resets: a reset sent
        // later (from the driver thread) could clear the first parked
        // pulls and leave the clients to wait out `pull_timeout`. The
        // window empties first: a constructor that restarts after its
        // `Reset` must rebuild from this session's steps, never from the
        // previous session's.
        let pre_encode = transport.serializes();
        {
            let mut window = self.fleet.window.lock();
            window.pre_encode = pre_encode;
            window.steps.clear();
        }
        for ctor in &self.fleet.constructors {
            // A previous serve session may have left queued batches and
            // parked pulls behind; serve-step numbering restarts at 0.
            ctor.tell(ConstructorMsg::Reset { pre_encode });
        }
        let name = format!("data-server/{}", self.servers.len());
        self.gcs.register(&name, "serving plane");
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

        let server = actor.clone();
        let handle = DataServerHandle::new(
            actor,
            transport,
            Arc::new(placed.iter().map(|(c, r, _)| (*c, *r)).collect()),
            opts.steps,
            opts.pull_timeout,
            opts.queue_depth.min(u64::from(u32::MAX)) as u32,
        );

        let fleet = self.fleet.clone();
        let stop = Arc::new(AtomicBool::new(false));
        let driver_stop = stop.clone();
        let driver_hub = hub.clone();
        let driver = std::thread::Builder::new()
            .name("msd/serve-driver".to_string())
            .spawn(move || {
                let served = run_serve_driver(fleet, opts, driver_stop, roster, driver_hub);
                if served < opts.steps {
                    // Tell the clients, or each would wait out its own
                    // redial budget for steps that never come.
                    server.tell(ServerMsg::End);
                }
                served
            })
            .expect("failed to spawn serve driver");
        let session = ServeSession {
            driver: Some(driver),
            clients: Vec::new(),
            stop,
            hub,
        };
        (session, handle)
    }

    /// Stops all actors and joins their threads.
    pub fn shutdown(self) {
        // Data servers first: they hold constructor handles and would
        // otherwise keep issuing pulls into a fleet that is tearing down.
        for server in &self.servers {
            server.stop();
        }
        // The controller must be out of the way before the loader
        // snapshot is taken: a Tick run after it could spawn a loader the
        // join below would wait on forever. The controller answers `Stop`
        // as its last message, after every Tick queued ahead of it. The
        // wait is generous: a backlog of Ticks each doing timeout-bounded
        // RPCs can outlast one rpc_timeout.
        let _ = self.fleet.controller.ask(
            ControllerMsg::Stop,
            self.fleet.rpc_timeout.max(Duration::from_secs(30)),
        );
        // Stop loader groups until the registry stops changing: even if
        // the controller outlived the wait above, a group spawned behind
        // our back is caught on the next pass instead of wedging the
        // join.
        let mut stopped = std::collections::HashSet::new();
        loop {
            let topology = self.fleet.snapshot();
            let Some(group) = topology.groups.iter().find(|g| !stopped.contains(&g.id)) else {
                break;
            };
            stopped.insert(group.id);
            group.actor.stop();
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
    /// Number of trainer clients [`ThreadedPipeline::serve`] connects:
    /// client `i` sits on a trainer rank of bucket `i % constructors` and
    /// reads constructor `i % constructors`. Ignored by
    /// [`ThreadedPipeline::serve_distributed`], whose placements define
    /// the client set.
    pub clients: u32,
    /// Serve steps to pump.
    pub steps: u64,
    /// Per-loader refill target per step.
    pub refill_target: usize,
    /// Bounded-queue backpressure cap: the driver stalls once it is this
    /// many steps ahead of the slowest client, so prefetch cannot blow the
    /// memory budget, and a client's window `W` is this many steps. It is
    /// a cap, not the lookahead: the driver broadcasts a step only once
    /// some client has pulled the one before, so it runs at most one step
    /// ahead of demand.
    pub queue_depth: u64,
    /// Pipelined refill-ahead: loaders prefetch toward the next plan
    /// while the current step is constructed and delivered.
    pub prefetch: bool,
    /// How long a client waits for its next batch before it
    /// re-subscribes from its cursor; after three quiet waits in a row it
    /// redials instead.
    pub pull_timeout: Duration,
    /// Elastic control-plane cadence: every this-many serve steps the
    /// driver ticks the controller, which pulls mixing-weight telemetry
    /// and loader health and may scale or rebalance the loader fleet
    /// live. `0` (the default) disables autoscaling during the session.
    pub control_interval: u64,
    /// Data-server hardening knobs: session admission caps and the lease
    /// that reaps silently-dead clients.
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

/// A live serving session: the driver thread plus, for
/// [`ThreadedPipeline::serve`], its connected clients.
pub struct ServeSession {
    driver: Option<JoinHandle<u64>>,
    clients: Vec<RemoteClient>,
    stop: Arc<AtomicBool>,
    /// The session's frontier fold (shared with every consumer).
    hub: Arc<FrontierHub>,
}

impl ServeSession {
    /// Takes the client handles (each is `Send`; move them into client
    /// threads). Each dials on its first `next()`.
    pub fn take_clients(&mut self) -> Vec<RemoteClient> {
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
            .map_or(0, |driver| driver.join().unwrap_or(0))
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

/// The older name of a [`ThreadedPipeline::serve`] client, which is a
/// [`RemoteClient`] over the in-process loopback.
pub type ServeClient = RemoteClient;

/// How long the driver keeps re-asking one serve step through failures
/// before ending the session early. An actor gone for good ends it at
/// once; this bounds a hung one, so [`ServeSession::join`] cannot block
/// forever.
const STEP_RETRY_BUDGET: Duration = Duration::from_secs(60);

/// The serve driver loop: pump `opts.steps` steps through the actor
/// fleet, riding out supervised restarts, one step ahead of the fastest
/// client, then drain until every rostered client has consumed its
/// stream. `roster` maps each client to its constructor by its mesh
/// placement. The driver asks no constructor anything: client progress
/// is read from `hub`, and a restarted constructor re-stages its ready
/// queue from the retained window on its own.
fn run_serve_driver(
    fleet: Fleet,
    opts: ServeOptions,
    stop: Arc<AtomicBool>,
    roster: Vec<(u32, usize)>,
    hub: Arc<FrontierHub>,
) -> u64 {
    // Each constructor's rostered clients; only constructors with one
    // are sent steps.
    let mut clients_of: Vec<Vec<u32>> = vec![Vec::new(); fleet.constructors.len()];
    for (client, idx) in &roster {
        clients_of[*idx].push(*client);
    }

    // Plan-log retirement state: the planner's global step of this
    // session's serve step 0 (captured at the first plan), the pruning
    // cursor, resumed from the persisted frontier checkpoint so
    // retirement stays monotone across sessions, and the last step whose
    // pop every group answered, at or below every loader's checkpoint.
    let mut plan_base: Option<u64> = None;
    let mut pruned_below = persisted_retirement_floor(&fleet.gcs);
    let mut loader_floor = pruned_below;
    let mut announced = vec![0u64; fleet.constructors.len()];

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

        // (2)–(5) Gather, plan, pop and checkpoint. A failed ask is
        // re-asked at once: a restarting actor keeps its mailbox, and its
        // next incarnation answers after its restore. A plan error, an
        // actor gone for good or a spent retry budget ends the session.
        let (outcome, popped, _) = loop {
            if stop.load(Ordering::SeqCst) {
                break 'steps;
            }
            match fleet.advance() {
                Ok(advanced) => break advanced,
                Err(e) if fleet.unrecoverable(&e) || Instant::now() > step_deadline => {
                    fleet.gcs.log_fault(
                        "serve-driver",
                        format!("serve step {s}: {e}; session ended"),
                    );
                    break 'steps;
                }
                Err(_) => {}
            }
        };
        let mut plan = outcome.plan;
        let base = *plan_base.get_or_insert(plan.step);
        if popped.all_answered {
            loader_floor = plan.step;
        }
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

        // (6) Prefetch the next step's refill so loaders work while
        // constructors assemble and clients drain.
        if opts.prefetch {
            fleet.refill(opts.refill_target);
        }

        // (6a) Demand: broadcast step `s` only once some client has
        // pulled step `s - 1` (its cursor passed it), one step of
        // lookahead over the fastest consumer, so constructors build only
        // what a client is about to ask for. With no client left there is
        // nothing to wait for.
        let demanded = hub.wait_until(step_deadline, |live| {
            stop.load(Ordering::SeqCst) || live.is_none_or(|c| *c.end() >= s)
        });
        if !demanded || stop.load(Ordering::SeqCst) {
            break 'steps;
        }

        // (7) Broadcast this serve step to the rostered constructors and
        // retain it under the same lock: a constructor that consumes the
        // broadcast and then crashes finds the step in the window when
        // its restart rebuilds.
        let mut items = fleet.partition(std::mem::take(&mut plan.buckets), popped);
        items.retain(|(idx, _, _)| !clients_of[*idx].is_empty());
        {
            let mut window = fleet.window.lock();
            for (idx, bucket_plan, samples) in &items {
                fleet.constructors[*idx].tell(ConstructorMsg::Construct {
                    step: s,
                    bucket_plan: Arc::clone(bucket_plan),
                    samples: Arc::clone(samples),
                });
            }
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
            loader_floor,
            &mut pruned_below,
            &clients_of,
            &mut announced,
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
        let caught_up = hub.wait_until(step_deadline, |live| {
            stop.load(Ordering::SeqCst)
                || live.is_none_or(|c| served <= c.start() + opts.queue_depth)
        });
        if !caught_up || stop.load(Ordering::SeqCst) {
            break 'steps;
        }
    }

    // Drain: wait until no client capability sits below `served`
    // (completion and drop both *release*, so a departed client cannot
    // wedge it) or a generous deadline passes. The window stays intact
    // meanwhile, so a constructor restarting now still rebuilds.
    hub.wait_until(Instant::now() + Duration::from_secs(60), |live| {
        stop.load(Ordering::SeqCst) || live.is_none_or(|c| *c.start() >= served)
    });
    // The session is over: free the retained samples.
    fleet.window.lock().steps.clear();
    served
}

/// Folds the hub's global frontier into durable retirement, once per
/// served step:
///
/// 1. retire each constructor's share of the retained window below its
///    own frontier, and announce that frontier to it (staged-step
///    retirement below it). A constructor whose rostered clients
///    (`clients_of`) all hold live capabilities retires below the lowest
///    of their cursors, since none of them can ask for an earlier step;
///    any other keeps to the global frontier, below which no client can
///    ask for anything. `announced` holds each constructor's last
///    announcement,
/// 2. compute the plan-log retirement floor — the min of what every
///    live consumer capability permits (`plan_base + frontier`) and
///    what every loader's durable checkpoint permits (`loader_floor`,
///    the last step whose pop every loader group answered: a group
///    replies only once its checkpoints at the step are stored, and a
///    loader replays the plan log from its checkpoint's step) — so
///    neither a lagging client nor a restarting loader can ever need a
///    pruned entry,
/// 3. prune plan-log entries below the floor and persist the frontier
///    checkpoint (the proof readers like [`replay_plan_log`] consult).
///
/// Retained plan-log size is therefore bounded by actual lag (slowest
/// capability behind the head), never by run length, and a client that
/// runs ahead of its peers frees its own bucket's raw samples as it goes.
#[allow(clippy::too_many_arguments)]
fn retire_frontier(
    fleet: &Fleet,
    hub: &FrontierHub,
    plan_base: u64,
    served: u64,
    loader_floor: u64,
    pruned_below: &mut u64,
    clients_of: &[Vec<u32>],
    announced: &mut [u64],
) {
    let snap = hub.snapshot();
    // Each share leaves the window before its constructor hears the new
    // frontier, so a restart after the announcement cannot re-stage it.
    let mut window = fleet.window.lock();
    for (idx, clients) in clients_of.iter().enumerate() {
        if clients.is_empty() {
            continue; // Sent no steps.
        }
        let lowest = clients.iter().try_fold(u64::MAX, |lowest, client| {
            let at = snap
                .holders
                .binary_search_by_key(&Holder::Client(*client), |(holder, _)| *holder)
                .ok()?;
            Some(lowest.min(snap.holders[at].1))
        });
        let at = lowest.unwrap_or(0).max(snap.frontier);
        if at > announced[idx] {
            announced[idx] = at;
            for (_, items) in window.steps.iter_mut().take_while(|(step, _)| *step < at) {
                items.retain(|(i, _, _)| *i != idx);
            }
            fleet.constructors[idx].tell(ConstructorMsg::Frontier { at });
        }
    }
    while window
        .steps
        .front()
        .is_some_and(|(_, items)| items.is_empty())
    {
        window.steps.pop_front();
    }
    drop(window);
    let floor = loader_floor.min(plan_base.saturating_add(snap.frontier));
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
    fn a_group_summary_reply_is_one_table() {
        let p = pipeline_over(&text_only(&mut SimRng::seed(3), 9));
        p.fleet.refill(4);
        let topology = p.fleet.snapshot();
        let info = p.fleet.gather().expect("gather");
        for (i, slot) in topology.loaders.iter().enumerate() {
            for (j, other) in topology.loaders.iter().enumerate() {
                let shared = info.summaries[i]
                    .samples
                    .shares_table(&info.summaries[j].samples);
                assert_eq!(shared, slot.group == other.group, "loaders {i} and {j}");
            }
        }
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
    fn a_group_restarted_between_plan_and_pop_leaves_a_short_step_on_the_fault_log() {
        let p = pipeline();
        p.fleet.refill(32);
        let plan = p
            .fleet
            .plan(p.fleet.gather().expect("gather"))
            .expect("plan")
            .plan;
        let topology = p.fleet.snapshot();
        let (first, slot) = topology
            .loaders
            .iter()
            .enumerate()
            .find(|(_, slot)| {
                plan.directives
                    .get(&slot.identity.loader_id)
                    .is_some_and(|ids| !ids.is_empty())
            })
            .expect("a directed loader");
        // The crash lands ahead of the pop in the group's mailbox. The
        // restarted incarnation replays the plan log, this step included,
        // so neither the pop nor the re-pop finds the directed samples.
        topology
            .group_of(slot)
            .expect("its group")
            .actor
            .inject_crash("between plan and pop");
        let directives = Arc::new(plan.directives.clone());
        let wanted: usize = directives.values().map(|ids| ids.len()).sum();
        let (popped, missing) = p.fleet.pop(plan.step, &directives);
        assert!(popped.index.len() < wanted, "the pop came back whole");
        match missing {
            Some(RuntimeError::LoaderFailure { loader, .. }) => assert_eq!(loader, first),
            other => panic!("expected the first directed loader, got {other:?}"),
        }
        let step = format!("plan step {} is short", plan.step);
        let loader = format!("id {}", slot.identity.loader_id);
        let faults = p.gcs.fault_log("runtime");
        assert!(
            faults
                .iter()
                .any(|f| f.detail.contains(&step) && f.detail.contains(&loader)),
            "short step not on the fault log: {faults:?}"
        );
        p.shutdown();
    }

    #[test]
    fn a_pop_checkpoints_every_group_and_reports_a_group_that_did_not_answer() {
        let mut p = pipeline_over(&text_only(&mut SimRng::seed(3), 9));
        p.step(4).expect("step 0");
        p.fleet.refill(4);
        let plan = p
            .fleet
            .plan(p.fleet.gather().expect("gather"))
            .expect("plan")
            .plan;
        assert!(plan.step > 0, "a version-0 checkpoint reads as none");
        let topology = p.fleet.snapshot();
        let gcs = p.gcs.clone();
        let version = |slot: &LoaderSlot| gcs.get_state(&slot.key).map(|cp| cp.version);
        let members = |group: &GroupSlot| {
            let id = group.id;
            topology.loaders.iter().filter(move |slot| slot.group == id)
        };

        // The plan directs none of group 0's loaders: the group is still
        // asked, and its pop is its checkpoint.
        let mut directives = plan.directives.clone();
        for slot in members(&topology.groups[0]) {
            directives.remove(&slot.identity.loader_id);
        }
        let (popped, missing) = p.fleet.pop(plan.step, &Arc::new(directives));
        assert!(missing.is_none(), "{missing:?}");
        assert!(popped.all_answered);
        for slot in &topology.loaders {
            assert_eq!(version(slot), Some(plan.step), "{}", slot.key);
        }

        // A group stalled past the RPC timeout misses the pop, and the
        // pop says so; its loaders checkpoint only when it catches up.
        p.set_rpc_timeout(Duration::from_millis(500));
        let stalled = &topology.groups[1];
        stalled.actor.inject_delay(Duration::from_secs(2));
        let (popped, _) = p.fleet.pop(plan.step + 1, &Arc::new(BTreeMap::new()));
        assert!(!popped.all_answered, "a stalled group counted as answered");
        for slot in members(stalled) {
            assert_eq!(version(slot), Some(plan.step), "{}", slot.key);
        }

        // A stopped group never answers.
        stalled.actor.stop();
        let deadline = Instant::now() + Duration::from_secs(20);
        while !stalled.actor.is_stopped() {
            assert!(Instant::now() < deadline, "the stalled group never stopped");
            std::thread::sleep(Duration::from_millis(10));
        }
        let (popped, _) = p.fleet.pop(plan.step + 2, &Arc::new(BTreeMap::new()));
        assert!(!popped.all_answered, "a stopped group counted as answered");
        for slot in &topology.loaders {
            let expected = if slot.group == stalled.id { 1 } else { 2 };
            assert_eq!(version(slot), Some(plan.step + expected), "{}", slot.key);
        }
        p.shutdown();
    }

    #[test]
    fn an_image_group_pops_its_samples_raw() {
        let p = pipeline(); // coyo700m_like: every source is an image source.
        p.fleet.refill(32);
        let info = p.fleet.gather().expect("gather");
        let promised: HashMap<u64, msd_data::SampleMeta> = info
            .summaries
            .iter()
            .flat_map(|s| s.samples.iter().map(|m| (m.sample_id, *m)))
            .collect();
        let plan = p.fleet.plan(info).expect("plan").plan;
        let directives = Arc::new(plan.directives.clone());
        let topology = p.fleet.snapshot();
        let mut tails = TransformTails::default();
        let mut popped = 0;
        for group in &topology.groups {
            let directives = Arc::clone(&directives);
            let samples = group
                .actor
                .ask(
                    |reply| LoaderMsg::Pop {
                        directives,
                        version: plan.step,
                        reply,
                    },
                    Duration::from_secs(10),
                )
                .expect("pop");
            for sample in samples {
                // As buffered: the raw payload, at most 8 KB, not the
                // settled length the summary promised the planner.
                let promised = promised[&sample.meta.sample_id];
                let raw = sample.payload.len() as u64;
                assert_eq!(sample.meta.raw_bytes, raw);
                assert!(raw <= 8192, "{raw} bytes popped");
                assert!(promised.raw_bytes > raw, "the tail ran at the pop");
                // The constructor's tail settles it to the promise.
                let mut settled = sample;
                tails.settle(&mut settled);
                assert_eq!(settled.meta, promised);
                assert_eq!(settled.payload.len() as u64, promised.raw_bytes);
                popped += 1;
            }
        }
        assert_eq!(popped, plan.all_samples().len());
        p.shutdown();
    }

    #[test]
    fn the_driver_broadcasts_at_most_one_step_past_the_highest_pulled_step() {
        let mut p = pipeline();
        let queue_depth = 8;
        let mut session = p.serve(ServeOptions {
            clients: 2,
            steps: 12,
            refill_target: 32,
            queue_depth,
            ..ServeOptions::default()
        });
        // Client 1 holds its capability at 0 and never pulls, so
        // backpressure alone would let the driver run `queue_depth`
        // steps ahead; client 0 pulls one step at a time.
        let mut clients = session.take_clients();
        let deadline = Instant::now() + Duration::from_secs(20);
        for pulled in 0..queue_depth {
            // Loader 0's group writes step `pulled + 1`'s checkpoint in
            // that step's pop, and the driver pops a step only after it
            // broadcast the one before: once the checkpoint is there, the
            // driver has broadcast every step it will until the next pull.
            while p.gcs.state_version("loader/0") <= pulled {
                assert!(Instant::now() < deadline, "driver stuck at {pulled}");
                std::thread::sleep(Duration::from_millis(2));
            }
            let last = p.fleet.window.lock().steps.back().map(|(step, _)| *step);
            assert_eq!(last, Some(pulled), "with {pulled} steps pulled");
            assert_eq!(clients[0].next().map(|(step, _)| step), Some(pulled));
        }
        session.stop();
        assert!(session.join() <= queue_depth + 1);
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
    fn dropping_an_unused_local_client_does_not_stall_the_rest() {
        let mut p = pipeline();
        let mut session = p.serve(ServeOptions {
            clients: 2,
            steps: 8,
            refill_target: 32,
            ..ServeOptions::default()
        });
        let start = Instant::now();
        let mut clients = session.take_clients();
        // Dropped before its first `next`: it never dialed, yet its
        // capability must not pin the frontier until its 30 s lease.
        drop(clients.pop());
        let mut kept = clients.pop().expect("client 0");
        let mut steps = Vec::new();
        while let Some((step, _)) = kept.next() {
            steps.push(step);
        }
        assert_eq!(steps, (0..8).collect::<Vec<_>>());
        assert_eq!(session.join(), 8);
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "the dropped client held the session for {:?}",
            start.elapsed()
        );
        p.shutdown();
    }

    #[test]
    fn a_silent_local_client_is_evicted_at_its_lease_and_the_rest_finish() {
        let mut p = pipeline();
        let mut session = p.serve(ServeOptions {
            clients: 2,
            steps: 12,
            refill_target: 32,
            server: ServerConfig {
                lease: Some(Duration::from_millis(300)),
                ..ServerConfig::default()
            },
            ..ServeOptions::default()
        });
        let start = Instant::now();
        let mut clients = session.take_clients();
        // One step, then silence while still held: only its lease can
        // release the capability that holds the driver back.
        let mut silent = clients.pop().expect("client 1");
        assert!(silent.next().is_some());
        let mut active = clients.pop().expect("client 0");
        let mut steps = 0;
        while active.next().is_some() {
            steps += 1;
        }
        assert_eq!(steps, 12, "the active client fell short");
        assert_eq!(session.join(), 12);
        assert!(
            start.elapsed() < Duration::from_secs(15),
            "the silent client held the session for {:?}",
            start.elapsed()
        );
        drop(silent);
        p.shutdown();
    }

    #[test]
    fn stop_wakes_a_driver_blocked_on_backpressure() {
        let mut p = pipeline();
        let queue_depth = 2;
        let mut session = p.serve(ServeOptions {
            clients: 2,
            steps: 50,
            refill_target: 32,
            queue_depth,
            ..ServeOptions::default()
        });
        // Client 1 holds its capability at step 0 and never pulls, so once
        // client 0 has pulled steps 0..=queue_depth (demand lets the
        // driver broadcast one step past each pull) the driver has
        // broadcast `queue_depth + 1` steps, all staged at client 1's
        // constructor, and blocks.
        let mut clients = session.take_clients();
        for _ in 0..=queue_depth {
            assert!(clients[0].next().is_some());
        }
        let deadline = Instant::now() + Duration::from_secs(20);
        while p.stats().constructors[1].ready_steps.len() as u64 <= queue_depth {
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
