//! The elastic loader control plane.
//!
//! The paper's online autoscaler (Sec 5.2) and elastic resharding
//! (Sec 6.1) decide *what* the loader fleet should look like; this module
//! makes the threaded runtime actually follow those decisions while it
//! serves. A supervised [`ControllerActor`] periodically:
//!
//! 1. pulls mixing-weight telemetry from the planner actor
//!    ([`PlannerMsg::Telemetry`]) and per-loader health — buffer
//!    occupancy — from every loader group,
//! 2. feeds the weights through [`AutoScaler`] to decide
//!    scale-up / scale-down, and loader occupancy through
//!    [`msd_balance::balance`] to decide shard rebalancing,
//! 3. executes the decisions live against the shared loader registry:
//!    a new loader is spawned mid-serve as a supervised group of one (the
//!    paper's online split of a hot source); a retiring loader runs the
//!    drain/hand-off protocol through its hosting group (flush its read
//!    buffer, hand every unconsumed sample to surviving peers of the same
//!    source) so client streams stay gap-free and duplicate-free, and a
//!    group left hosting nothing is stopped,
//! 4. records every executed decision as an `MSDB`-codec checkpoint in
//!    the GCS, so a restarted controller — or a whole restarted
//!    deployment ([`restore_topology`]) — resumes the exact topology.
//!
//! ## Why drain/hand-off is duplicate-free
//!
//! The retiring loader's group processes messages sequentially: any pop
//! directive it handles *before* the drain removes those samples from the
//! buffer (they were delivered), and the drain collects only what is
//! left. A pop arriving *after* the drain finds nothing — the plan's
//! directed samples are simply missing from that step's batch, exactly
//! the degradation a loader crash already produces (and which the serve
//! path tolerates). The drained samples reappear in a surviving loader's
//! buffer summary and are re-planned later, so each sample is delivered
//! at most once, with no gap in any client's step stream.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use msd_actor::actor::ReplyTo;
use msd_actor::{Actor, ActorRef, ActorSystem, Ctx, Gcs};
use msd_balance::BalanceMethod;
use msd_data::{Sample, SourceId, SourceSpec};

use crate::autoscale::{AutoScaler, LoaderSetup, ScaleAction};
use crate::loader::{LoaderCheckpoint, LoaderConfig, LoaderHealth};
use crate::system::runtime::{
    gather_fleet_health, spawn_loaders, LoaderIdentity, LoaderMsg, LoaderRegistry, LoaderSlot,
    PlannerMsg,
};

/// GCS key holding the controller's topology checkpoint.
pub const CONTROLLER_STATE_KEY: &str = "controller";

/// Sample-id shard field width (see `SourceLoader::make_id`): shard
/// indices must stay below this for ids to remain collision-free.
const SHARD_LIMIT: u32 = 1 << 8;

/// Knobs of the elastic control plane.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ControllerConfig {
    /// Never retire a source below this many loaders. Values below 1
    /// are treated as 1: the *last* loader of a source never retires,
    /// because the drain/hand-off protocol needs a surviving same-source
    /// peer to adopt the drained buffer — without one the samples would
    /// be dropped.
    pub min_loaders_per_source: u32,
    /// Never provision a source past this many loaders.
    pub max_loaders_per_source: u32,
    /// [`AutoScaler`] EWMA smoothing factor.
    pub alpha: f64,
    /// Scale up when the smoothed weight exceeds the provisioned share by
    /// this factor.
    pub up_factor: f64,
    /// Scale down when it falls below the share by this factor.
    pub down_factor: f64,
    /// Consecutive ticks a signal must persist before acting.
    pub patience: u32,
    /// Rebalance a source when its fullest loader holds at least this
    /// multiple of its emptiest loader's buffer…
    pub rebalance_factor: f64,
    /// …and at least this many more samples (suppresses churn on nearly
    /// empty buffers).
    pub min_rebalance_delta: usize,
    /// RPC timeout for the controller's telemetry pulls and drains.
    pub rpc_timeout: Duration,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        ControllerConfig {
            min_loaders_per_source: 1,
            max_loaders_per_source: 4,
            alpha: 0.3,
            up_factor: 1.5,
            down_factor: 0.5,
            patience: 3,
            rebalance_factor: 4.0,
            min_rebalance_delta: 32,
            rpc_timeout: Duration::from_secs(5),
        }
    }
}

/// Messages understood by the controller actor.
pub enum ControllerMsg {
    /// Run one control interval: pull telemetry, decide, execute.
    Tick,
    /// Report decision counters and the current topology.
    Status(ReplyTo<ControllerStatus>),
    /// Operator command: retire one loader of `source` through the
    /// drain/hand-off protocol, replying whether a retirement executed.
    /// Refused — like any autoscaler-initiated retirement — when the
    /// source is down to its last loader: there is no same-source peer
    /// to adopt the drained buffer, so executing it would drop samples.
    Retire {
        /// The source to shrink by one loader.
        source: SourceId,
        /// Whether the retirement executed.
        reply: ReplyTo<bool>,
    },
    /// Stop after replying: no message queued behind this one runs, so
    /// once the reply lands no later `Tick` can spawn a loader.
    Stop(ReplyTo<()>),
}

/// The controller's observable state.
#[derive(Debug, Clone, Default)]
pub struct ControllerStatus {
    /// Control intervals run.
    pub ticks: u64,
    /// Loader scale-ups executed (live supervised spawns).
    pub scale_ups: u64,
    /// Loader retirements executed (drain/hand-off + stop).
    pub scale_downs: u64,
    /// Shard rebalances executed (drain + balanced re-adoption).
    pub rebalances: u64,
    /// Scaling events checkpointed to the GCS so far.
    pub checkpointed_events: u64,
    /// The current loader topology, in registry order.
    pub topology: Vec<LoaderIdentity>,
}

/// One loader slot in a [`ControllerCheckpoint`] (everything needed to
/// respawn the loader against a source template).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotRecord {
    /// `SourceId.0` of the source the loader serves.
    pub source: u32,
    /// Deployment-wide loader id.
    pub loader_id: u32,
    /// The loader's shard index (baked into its sample ids).
    pub shard: u32,
    /// Shard count at spawn time.
    pub shards: u32,
}

/// Durable controller state: written to the GCS (as an `MSDB` frame)
/// after every executed scaling event, read back by a restarted
/// controller and by [`restore_topology`] at deployment construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ControllerCheckpoint {
    /// Monotonic event sequence number (also the GCS version).
    pub seq: u64,
    /// Next loader id to hand out (ids are never reused).
    pub next_loader_id: u32,
    /// Scale-ups executed over the controller's lifetime.
    pub scale_ups: u64,
    /// Retirements executed over the controller's lifetime.
    pub scale_downs: u64,
    /// Rebalances executed over the controller's lifetime.
    pub rebalances: u64,
    /// The live loader topology at checkpoint time.
    pub slots: Vec<SlotRecord>,
}

/// Rebuilds the loader spawn list recorded in `gcs`'s controller
/// checkpoint, using `provided` as the source-spec / config-template
/// lookup. Returns `None` when no (readable) checkpoint exists — the
/// caller then spawns `provided` as-is. Slots whose source has no
/// template in `provided` are skipped with a fault-log entry.
pub fn restore_topology(
    gcs: &Gcs,
    provided: &[(SourceSpec, LoaderConfig)],
) -> Option<Vec<(SourceSpec, LoaderConfig)>> {
    let cp = gcs.get_state(CONTROLLER_STATE_KEY)?;
    let parsed = match crate::codec::decode_controller_checkpoint(&cp.data) {
        Ok(parsed) => parsed,
        Err(e) => {
            gcs.log_fault(
                CONTROLLER_STATE_KEY,
                format!(
                    "corrupt controller checkpoint (v{}): {e}; spawning the provided topology",
                    cp.version
                ),
            );
            return None;
        }
    };
    let mut out = Vec::with_capacity(parsed.slots.len());
    for slot in &parsed.slots {
        let Some((spec, template)) = provided
            .iter()
            .find(|(spec, _)| spec.id.0 == slot.source)
            .map(|(spec, cfg)| (spec.clone(), cfg.clone()))
        else {
            gcs.log_fault(
                CONTROLLER_STATE_KEY,
                format!(
                    "checkpointed loader {} serves unknown source {}; slot dropped",
                    slot.loader_id, slot.source
                ),
            );
            continue;
        };
        out.push((
            spec,
            LoaderConfig {
                loader_id: slot.loader_id,
                shard: slot.shard,
                shards: slot.shards,
                ..template
            },
        ));
    }
    (!out.is_empty()).then_some(out)
}

/// The elastic control plane, hosted in a supervised actor.
pub struct ControllerActor {
    config: ControllerConfig,
    system: ActorSystem,
    gcs: Gcs,
    registry: LoaderRegistry,
    planner: ActorRef<PlannerMsg>,
    /// Source specs and config templates for spawning new loaders.
    specs: BTreeMap<SourceId, SourceSpec>,
    templates: BTreeMap<SourceId, LoaderConfig>,
    seed: u64,
    /// Scaler over the planner's source order (built on the first tick,
    /// from live telemetry + the live registry).
    scaler: Option<AutoScaler>,
    scaler_sources: Vec<SourceId>,
    next_loader_id: u32,
    next_shard: BTreeMap<SourceId, u32>,
    seq: u64,
    ticks: u64,
    scale_ups: u64,
    scale_downs: u64,
    rebalances: u64,
}

impl ControllerActor {
    /// Creates the controller, restoring counters and id allocators from
    /// the GCS checkpoint if one exists (so a supervised restart cannot
    /// reuse a loader id or rewind its event sequence).
    pub(crate) fn new(
        config: ControllerConfig,
        system: ActorSystem,
        gcs: Gcs,
        registry: LoaderRegistry,
        planner: ActorRef<PlannerMsg>,
        sources: Vec<(SourceSpec, LoaderConfig)>,
        seed: u64,
    ) -> Self {
        let mut specs = BTreeMap::new();
        let mut templates = BTreeMap::new();
        for (spec, cfg) in sources {
            templates.entry(spec.id).or_insert(cfg);
            specs.entry(spec.id).or_insert(spec);
        }
        // Allocators start past everything the live registry uses…
        let mut next_loader_id = 0u32;
        let mut next_shard: BTreeMap<SourceId, u32> = BTreeMap::new();
        for slot in &registry.read().loaders {
            next_loader_id = next_loader_id.max(slot.identity.loader_id + 1);
            let e = next_shard.entry(slot.identity.source_id).or_insert(0);
            *e = (*e).max(slot.config.shard + 1);
        }
        let mut controller = ControllerActor {
            config,
            system,
            gcs,
            registry,
            planner,
            specs,
            templates,
            seed,
            scaler: None,
            scaler_sources: Vec::new(),
            next_loader_id,
            next_shard,
            seq: 0,
            ticks: 0,
            scale_ups: 0,
            scale_downs: 0,
            rebalances: 0,
        };
        // …and past anything a previous incarnation checkpointed.
        if let Some(cp) = controller.gcs.get_state(CONTROLLER_STATE_KEY) {
            match crate::codec::decode_controller_checkpoint(&cp.data) {
                Ok(parsed) => {
                    controller.seq = parsed.seq;
                    controller.next_loader_id =
                        controller.next_loader_id.max(parsed.next_loader_id);
                    controller.scale_ups = parsed.scale_ups;
                    controller.scale_downs = parsed.scale_downs;
                    controller.rebalances = parsed.rebalances;
                    for slot in &parsed.slots {
                        let e = controller
                            .next_shard
                            .entry(SourceId(slot.source))
                            .or_insert(0);
                        *e = (*e).max(slot.shard + 1);
                    }
                }
                Err(e) => controller.gcs.log_fault(
                    CONTROLLER_STATE_KEY,
                    format!(
                        "corrupt controller checkpoint (v{}): {e}; starting counters fresh",
                        cp.version
                    ),
                ),
            }
        }
        controller
    }

    fn slots_of(&self, source: SourceId) -> Vec<LoaderSlot> {
        self.registry
            .read()
            .loaders
            .iter()
            .filter(|s| s.identity.source_id == source)
            .cloned()
            .collect()
    }

    /// Gathers per-loader health (one pipelined ask per group;
    /// mid-restart groups' loaders are skipped this interval) — the same
    /// snapshot `stats()` exposes.
    fn gather_health(&self) -> Vec<LoaderHealth> {
        let topology = self.registry.read().clone();
        gather_fleet_health(&topology, self.config.rpc_timeout)
            .into_iter()
            .map(|(_, health)| health)
            .collect()
    }

    /// Drains loader `loader_id` through `group`, its host; `None` when
    /// the RPC fails or the group no longer hosts it (a restart already
    /// lost its buffer).
    fn drain(
        &self,
        group: &ActorRef<LoaderMsg>,
        loader_id: u32,
    ) -> Option<(Vec<Sample>, LoaderCheckpoint)> {
        group
            .ask(
                |reply| LoaderMsg::Drain { loader_id, reply },
                self.config.rpc_timeout,
            )
            .ok()
            .flatten()
    }

    /// (Re)builds the scaler when the planner's source order changes or
    /// on the first tick. Actor counts seed from the live registry, so a
    /// restarted controller scores shares against reality, not history.
    fn ensure_scaler(&mut self, sources: &[SourceId]) {
        if self.scaler.is_some() && self.scaler_sources == sources {
            return;
        }
        let setups: Vec<LoaderSetup> = sources
            .iter()
            .map(|src| {
                let actors = self.slots_of(*src).len().max(1) as u32;
                LoaderSetup {
                    source: *src,
                    actors,
                    workers_per_actor: self.templates.get(src).map(|t| t.workers).unwrap_or(1),
                    cost_estimate_ns: 0.0,
                    // Memory is sized offline (`partition_sources`); no
                    // online decision reads it.
                    mem_per_actor: 0,
                }
            })
            .collect();
        self.scaler = Some(
            AutoScaler::new(setups)
                .with_knobs(
                    self.config.alpha,
                    self.config.up_factor,
                    self.config.down_factor,
                    self.config.patience,
                )
                .with_actor_cap(self.config.max_loaders_per_source),
        );
        self.scaler_sources = sources.to_vec();
    }

    /// One control interval: telemetry → decisions → live execution.
    fn tick(&mut self) {
        self.ticks += 1;
        let Ok(telemetry) = self
            .planner
            .ask(PlannerMsg::Telemetry, self.config.rpc_timeout)
        else {
            return; // Planner mid-restart; try again next interval.
        };
        let healths = self.gather_health();
        self.ensure_scaler(&telemetry.sources);
        let actions = self
            .scaler
            .as_mut()
            .expect("ensure_scaler ran")
            .observe(&telemetry.weights);
        let mut acted = false;
        for action in actions {
            let src = match action {
                ScaleAction::ScaleUp(src) => src,
                ScaleAction::ScaleDown(src) => src,
            };
            let executed = match action {
                ScaleAction::ScaleUp(_) => self.scale_up(src, telemetry.step),
                ScaleAction::ScaleDown(_) => self.scale_down(src, &healths),
            };
            if executed {
                acted = true;
                self.record_event();
            } else {
                // The scaler already mutated its count for this action;
                // refusing to execute it (floor/ceiling, missing spec,
                // shard exhaustion) must resync the scaler to the live
                // registry or its shares drift from reality for good.
                let live = self.slots_of(src).len().max(1) as u32;
                self.scaler
                    .as_mut()
                    .expect("ensure_scaler ran")
                    .set_actors(src, live);
            }
        }
        // Rebalance only on quiet ticks: a scale event already reshuffles
        // load, and interleaving both in one interval doubles the window
        // in which pops can miss.
        if !acted && self.maybe_rebalance(&healths) {
            self.record_event();
        }
    }

    /// Live scale-up: spawn one more loader for `source`, as a
    /// supervised group of one.
    /// `planner_step` stamps the pre-seeded checkpoint so the newcomer's
    /// restart path replays the plan log from now, not from step 0.
    fn scale_up(&mut self, source: SourceId, planner_step: u64) -> bool {
        let count = self.slots_of(source).len() as u32;
        if count >= self.config.max_loaders_per_source {
            return false;
        }
        let (Some(spec), Some(template)) = (
            self.specs.get(&source).cloned(),
            self.templates.get(&source).cloned(),
        ) else {
            self.gcs.log_fault(
                CONTROLLER_STATE_KEY,
                format!("scale-up for unknown source {source:?} skipped"),
            );
            return false;
        };
        let shard_entry = self.next_shard.entry(source).or_insert(1);
        if *shard_entry >= SHARD_LIMIT {
            self.gcs.log_fault(
                CONTROLLER_STATE_KEY,
                format!("shard space for source {source:?} exhausted; scale-up skipped"),
            );
            return false;
        }
        let shard = *shard_entry;
        *shard_entry += 1;
        let loader_id = self.next_loader_id;
        self.next_loader_id += 1;
        let config = LoaderConfig {
            loader_id,
            shard,
            shards: shard + 1,
            ..template
        };
        // Existing loaders of the source keep their shard layout (their
        // deterministic streams and checkpoints must not rewind), so the
        // newcomer's ordinal stream would overlap theirs and re-serve the
        // same underlying rows under fresh sample ids. Start its cursor in
        // a disjoint band instead (2^32 ordinals per shard — far past any
        // session horizon) by pre-seeding the GCS checkpoint the spawned
        // actor restores from; the RNG state matches what a fresh
        // synthetic loader would use. The checkpoint is stamped with the
        // current planner step: nothing before now can name this loader's
        // samples, so replaying the plan log from an earlier step would
        // only waste lookups and raise a false pruned-gap fault.
        let cursor = u64::from(shard) << 32;
        let cp = crate::loader::LoaderCheckpoint {
            loader_id,
            cursor,
            rng_state: msd_sim::SimRng::seed(self.seed ^ (u64::from(loader_id) << 32)).state(),
            version: planner_step,
        };
        self.gcs.put_state(
            &format!("loader/{loader_id}"),
            planner_step.max(1),
            crate::codec::encode_loader_checkpoint(&cp),
        );
        spawn_loaders(
            &self.system,
            &self.gcs,
            &self.registry,
            vec![(spec, config)],
            self.seed,
        );
        self.scale_ups += 1;
        true
    }

    /// Live retirement: pick the most idle loader of `source`, remove it
    /// from the registry (new plans stop addressing it, and a restart of
    /// its group no longer rebuilds it), drain its buffer through its
    /// group, hand every unconsumed sample to surviving peers (balanced
    /// by [`msd_balance::balance`]), then stop the group if it hosts
    /// nothing else.
    fn scale_down(&mut self, source: SourceId, healths: &[LoaderHealth]) -> bool {
        let slots = self.slots_of(source);
        // Hard floor of 1 regardless of configuration: retiring the last
        // loader has no surviving same-source peer for the hand-off, so
        // its drained buffer would be dropped on the floor.
        if slots.len() <= 1 {
            if slots.len() == 1 {
                self.gcs.log_fault(
                    CONTROLLER_STATE_KEY,
                    format!(
                        "retirement of the last loader for source {source:?} refused: \
                         no same-source peer to adopt its buffer"
                    ),
                );
            }
            return false;
        }
        if slots.len() as u32 <= self.config.min_loaders_per_source {
            return false;
        }
        let buffered = |slot: &LoaderSlot| {
            healths
                .iter()
                .find(|h| h.loader_id == slot.identity.loader_id)
                .map(|h| h.buffered)
                .unwrap_or(usize::MAX)
        };
        let victim = slots
            .iter()
            .min_by_key(|slot| (buffered(slot), std::cmp::Reverse(slot.identity.loader_id)))
            .expect("slots non-empty")
            .clone();
        let victim_id = victim.identity.loader_id;
        // One write retires the victim and, if it was its group's last
        // loader, the group: every registered group hosts a loader.
        let (host, emptied) = {
            let mut guard = self.registry.write();
            let topology = Arc::make_mut(&mut *guard);
            let host = topology.group_of(&victim).cloned();
            topology
                .loaders
                .retain(|s| s.identity.loader_id != victim_id);
            let emptied = !topology.loaders.iter().any(|s| s.group == victim.group);
            if emptied {
                topology.groups.retain(|g| g.id != victim.group);
            }
            (host, emptied)
        };
        match host
            .as_ref()
            .and_then(|group| self.drain(&group.actor, victim_id))
        {
            Some((samples, cp)) => {
                // Final resting checkpoint: the retired loader's cursor
                // is preserved even though it will never respawn.
                self.gcs.put_state(
                    &victim.key,
                    cp.version,
                    crate::codec::encode_loader_checkpoint(&cp),
                );
                self.hand_off(source, samples);
            }
            None => {
                // The victim's group was mid-restart: its buffer is
                // already lost, which is exactly the crash degradation
                // the serve path tolerates. Retire it anyway.
                self.gcs.log_fault(
                    &victim.key,
                    "drain RPC failed during retirement; buffered samples lost (crash-equivalent)",
                );
            }
        }
        if let Some(group) = host.filter(|_| emptied) {
            group.actor.stop();
            self.gcs.deregister(group.actor.name());
        }
        self.gcs.deregister(&victim.key);
        self.scale_downs += 1;
        true
    }

    /// Distributes drained samples over the surviving loaders of
    /// `source`, balanced by token cost so no survivor inherits the whole
    /// buffer.
    fn hand_off(&self, source: SourceId, samples: Vec<Sample>) {
        if samples.is_empty() {
            return;
        }
        let topology = self.registry.read().clone();
        let survivors: Vec<&LoaderSlot> = topology
            .loaders
            .iter()
            .filter(|s| s.identity.source_id == source)
            .collect();
        if survivors.is_empty() {
            self.gcs.log_fault(
                CONTROLLER_STATE_KEY,
                format!(
                    "no survivor for source {source:?}: {} drained samples dropped",
                    samples.len()
                ),
            );
            return;
        }
        let costs: Vec<f64> = samples
            .iter()
            .map(|s| s.meta.total_tokens().max(1) as f64)
            .collect();
        let assignment = msd_balance::balance(&costs, survivors.len(), BalanceMethod::Greedy);
        let mut pool: Vec<Option<Sample>> = samples.into_iter().map(Some).collect();
        for (bin, survivor) in assignment.bins.iter().zip(&survivors) {
            let samples: Vec<Sample> = bin.iter().filter_map(|i| pool[*i].take()).collect();
            if samples.is_empty() {
                continue;
            }
            if let Some(group) = topology.group_of(survivor) {
                group.actor.tell(LoaderMsg::Adopt {
                    loader_id: survivor.identity.loader_id,
                    samples,
                });
            }
        }
    }

    /// Shard rebalancing: when one loader of a source hoards buffered
    /// samples while a peer runs dry, drain the hoarder and re-spread its
    /// buffer across *all* loaders of the source (the hoarder included —
    /// it gets its balanced share back). At most one source per tick.
    fn maybe_rebalance(&mut self, healths: &[LoaderHealth]) -> bool {
        let mut by_source: BTreeMap<SourceId, Vec<&LoaderHealth>> = BTreeMap::new();
        for health in healths {
            by_source.entry(health.source).or_default().push(health);
        }
        for (source, peers) in by_source {
            if peers.len() < 2 {
                continue;
            }
            let heaviest = peers
                .iter()
                .max_by_key(|h| h.buffered)
                .expect("peers non-empty");
            let max = heaviest.buffered;
            let min = peers.iter().map(|h| h.buffered).min().unwrap_or(0);
            let skewed = max >= min.saturating_add(self.config.min_rebalance_delta)
                && max as f64 >= (min.max(1) as f64) * self.config.rebalance_factor;
            if !skewed {
                continue;
            }
            let host = self.registry.read().host(heaviest.loader_id).cloned();
            let Some((samples, _)) =
                host.and_then(|group| self.drain(&group.actor, heaviest.loader_id))
            else {
                continue; // Mid-restart; retry next interval.
            };
            self.hand_off(source, samples);
            self.rebalances += 1;
            return true;
        }
        false
    }

    /// Records the latest executed event as an `MSDB` checkpoint in the
    /// GCS (versioned by the event sequence number).
    fn record_event(&mut self) {
        self.seq += 1;
        let slots = self
            .registry
            .read()
            .loaders
            .iter()
            .map(|s| SlotRecord {
                source: s.identity.source_id.0,
                loader_id: s.identity.loader_id,
                shard: s.config.shard,
                shards: s.config.shards,
            })
            .collect();
        let cp = ControllerCheckpoint {
            seq: self.seq,
            next_loader_id: self.next_loader_id,
            scale_ups: self.scale_ups,
            scale_downs: self.scale_downs,
            rebalances: self.rebalances,
            slots,
        };
        self.gcs.put_state(
            CONTROLLER_STATE_KEY,
            self.seq,
            crate::codec::encode_controller_checkpoint(&cp),
        );
    }
}

impl Actor for ControllerActor {
    type Msg = ControllerMsg;

    fn handle(&mut self, msg: ControllerMsg, ctx: &mut Ctx) {
        match msg {
            ControllerMsg::Tick => self.tick(),
            ControllerMsg::Stop(reply) => {
                ctx.stop();
                reply.send(());
            }
            ControllerMsg::Retire { source, reply } => {
                let healths = self.gather_health();
                let executed = self.scale_down(source, &healths);
                if executed {
                    self.record_event();
                }
                // The autoscaler was not consulted; pin its view of this
                // source to the live registry either way, so manual
                // surgery cannot make its shares drift from reality.
                let live = self.slots_of(source).len().max(1) as u32;
                if let Some(scaler) = self.scaler.as_mut() {
                    scaler.set_actors(source, live);
                }
                reply.send(executed);
            }
            ControllerMsg::Status(reply) => {
                reply.send(ControllerStatus {
                    ticks: self.ticks,
                    scale_ups: self.scale_ups,
                    scale_downs: self.scale_downs,
                    rebalances: self.rebalances,
                    checkpointed_events: self.seq,
                    topology: self
                        .registry
                        .read()
                        .loaders
                        .iter()
                        .map(|slot| slot.identity.clone())
                        .collect(),
                });
            }
        }
    }
}
