//! Multi-level source auto-partitioning and mixture-driven scaling.
//!
//! **Offline** ([`partition_sources`], Sec 5.1): given heterogeneous
//! per-source transformation costs and memory footprints, derive how many
//! data-parallel loader actors and per-actor workers each source gets:
//!
//! 1. *Source clustering* — sort sources by transformation cost, cut into
//!    `G` clusters.
//! 2. *Resource level construction* — scale worker counts by cluster cost
//!    ratio, divide available cores into worker blocks, cap with `w_src`
//!    (per-source) and `w_actor` (per-actor) bounds.
//! 3. *Configuration generation* — emit actor/worker configs; shrink actor
//!    counts if the memory budget is exceeded.
//!
//! **Online** ([`AutoScaler`], Sec 5.2): the Planner's global view of
//! mixing weights drives predictive scaling — a source whose moving-average
//! sampling weight exceeds its provisioned share for consecutive intervals
//! gains an actor; idle sources are reclaimed.

use msd_data::{Catalog, SourceId};
use msd_sim::SimRng;

use crate::loader::{LoaderConfig, WORKER_CTX_BYTES};

/// Cluster-wide CPU/memory budget available to data preprocessing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterResources {
    /// CPU cores usable by loaders (after trainer reservation).
    pub total_cores: u64,
    /// Host DRAM budget for loaders, bytes.
    pub total_mem_bytes: u64,
}

/// Knobs of the partitioning algorithm.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PartitionOpts {
    /// Number of source clusters `G` (the paper identifies 4 as optimal).
    pub clusters: usize,
    /// Per-source worker cap (`w_src`).
    pub w_src: u32,
    /// Per-actor worker cap (`w_actor`).
    pub w_actor: u32,
    /// Cores reserved for Data Constructors and the Planner.
    pub reserved_cores: u64,
}

impl Default for PartitionOpts {
    fn default() -> Self {
        PartitionOpts {
            clusters: 4,
            w_src: 16,
            w_actor: 4,
            reserved_cores: 16,
        }
    }
}

/// The derived loader setup for one source.
#[derive(Debug, Clone, PartialEq)]
pub struct LoaderSetup {
    /// The source.
    pub source: SourceId,
    /// Data-parallel loader actors.
    pub actors: u32,
    /// Workers per actor.
    pub workers_per_actor: u32,
    /// Estimated mean transform cost (ns/sample) used for clustering.
    pub cost_estimate_ns: f64,
    /// Resident memory per actor (access state + worker contexts).
    pub mem_per_actor: u64,
}

impl LoaderSetup {
    /// Total workers across actors.
    pub fn total_workers(&self) -> u32 {
        self.actors * self.workers_per_actor
    }

    /// Total resident memory across actors.
    pub fn total_mem(&self) -> u64 {
        u64::from(self.actors) * self.mem_per_actor
    }
}

/// Stage 1–3 of Sec 5.1: derives per-source loader configurations.
pub fn partition_sources(
    catalog: &Catalog,
    resources: ClusterResources,
    opts: &PartitionOpts,
    rng: &mut SimRng,
) -> Vec<LoaderSetup> {
    let k = catalog.len();
    if k == 0 {
        return Vec::new();
    }
    // Stage 1: estimate costs and cluster by descending cost.
    let mut costed: Vec<(usize, f64)> = catalog
        .sources()
        .iter()
        .enumerate()
        .map(|(i, s)| (i, s.mean_transform_cost_ns(rng, 32)))
        .collect();
    costed.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
    let g = opts.clusters.clamp(1, k);
    let cluster_size = k.div_ceil(g);
    let clusters: Vec<&[(usize, f64)]> = costed.chunks(cluster_size).collect();

    // Stage 2: cluster mean costs → proportional worker counts.
    let means: Vec<f64> = clusters
        .iter()
        .map(|c| c.iter().map(|(_, p)| *p).sum::<f64>() / c.len().max(1) as f64)
        .collect();
    let min_mean = means.iter().cloned().fold(f64::INFINITY, f64::min).max(1.0);
    // Desired workers per source in each cluster: ratio to cheapest cluster.
    let desired: Vec<u32> = means
        .iter()
        .map(|m| ((m / min_mean).round() as u32).clamp(1, opts.w_src))
        .collect();
    let total_desired: u64 = clusters
        .iter()
        .zip(&desired)
        .map(|(c, d)| c.len() as u64 * u64::from(*d))
        .sum();
    let available = resources
        .total_cores
        .saturating_sub(opts.reserved_cores)
        .max(1);
    // Worker resource blocks: scale everything down if over-subscribed.
    let scale = if total_desired > available {
        available as f64 / total_desired as f64
    } else {
        1.0
    };

    // Stage 3: configuration generation.
    let mut setups = Vec::with_capacity(k);
    for (cluster, d) in clusters.iter().zip(&desired) {
        for (src_idx, cost) in cluster.iter() {
            let spec = &catalog.sources()[*src_idx];
            let workers = ((f64::from(*d) * scale).round() as u32).clamp(1, opts.w_src);
            let actors = workers.div_ceil(opts.w_actor).max(1);
            let per_actor = workers.div_ceil(actors);
            let mem_per_actor = spec.access_state.total() + u64::from(per_actor) * WORKER_CTX_BYTES;
            setups.push(LoaderSetup {
                source: spec.id,
                actors,
                workers_per_actor: per_actor,
                cost_estimate_ns: *cost,
                mem_per_actor,
            });
        }
    }
    // Memory adjustment: shave actors (min 1) until under budget.
    let mut total_mem: u64 = setups.iter().map(LoaderSetup::total_mem).sum();
    while total_mem > resources.total_mem_bytes {
        let Some(victim) = setups
            .iter_mut()
            .filter(|s| s.actors > 1)
            .max_by_key(|s| s.total_mem())
        else {
            break; // Every source at 1 actor; budget is simply too small.
        };
        victim.actors -= 1;
        total_mem = setups.iter().map(LoaderSetup::total_mem).sum();
    }
    setups.sort_by_key(|s| s.source);
    setups
}

/// Expands setups into concrete per-actor [`LoaderConfig`]s with unique
/// loader ids.
pub fn expand_configs(
    setups: &[LoaderSetup],
    buffer_capacity: usize,
) -> Vec<(SourceId, LoaderConfig)> {
    let mut out = Vec::new();
    let mut next_id = 0u32;
    for s in setups {
        for shard in 0..s.actors {
            out.push((
                s.source,
                LoaderConfig {
                    loader_id: next_id,
                    workers: s.workers_per_actor,
                    buffer_capacity,
                    shard,
                    shards: s.actors,
                },
            ));
            next_id += 1;
        }
    }
    out
}

/// A scaling decision.
#[derive(Debug, Clone, PartialEq)]
pub enum ScaleAction {
    /// Add one actor to the source.
    ScaleUp(SourceId),
    /// Remove one actor from the source (never below 1).
    ScaleDown(SourceId),
}

/// Online mixture-driven scaler (Sec 5.2).
#[derive(Debug, Clone)]
pub struct AutoScaler {
    setups: Vec<LoaderSetup>,
    /// EWMA smoothing factor for sampling weights.
    alpha: f64,
    /// Scale up when MA weight exceeds share by this factor.
    up_factor: f64,
    /// Scale down when MA weight falls below share by this factor.
    down_factor: f64,
    /// Consecutive intervals required before acting.
    patience: u32,
    /// Per-source actor ceiling (scale-ups are suppressed at the cap, so
    /// the scaler's view can never drift ahead of what a resource-bounded
    /// control plane is willing to provision).
    max_actors: u32,
    ma: Vec<f64>,
    up_streak: Vec<u32>,
    down_streak: Vec<u32>,
    /// Number of rescale events triggered (Fig 19 right).
    pub rescale_events: u64,
}

impl AutoScaler {
    /// Creates a scaler over the partitioned setups.
    pub fn new(setups: Vec<LoaderSetup>) -> Self {
        let n = setups.len();
        AutoScaler {
            setups,
            alpha: 0.3,
            up_factor: 1.5,
            down_factor: 0.5,
            patience: 3,
            max_actors: u32::MAX,
            ma: vec![0.0; n],
            up_streak: vec![0; n],
            down_streak: vec![0; n],
            rescale_events: 0,
        }
    }

    /// Overrides the reaction knobs: EWMA factor, up/down thresholds, and
    /// the consecutive-interval patience before acting.
    pub fn with_knobs(
        mut self,
        alpha: f64,
        up_factor: f64,
        down_factor: f64,
        patience: u32,
    ) -> Self {
        self.alpha = alpha;
        self.up_factor = up_factor;
        self.down_factor = down_factor;
        self.patience = patience.max(1);
        self
    }

    /// Caps the per-source actor count (scale-up decisions stop at the
    /// cap; scale-downs are unaffected).
    pub fn with_actor_cap(mut self, max_actors: u32) -> Self {
        self.max_actors = max_actors.max(1);
        self
    }

    /// Current setups (post-scaling).
    pub fn setups(&self) -> &[LoaderSetup] {
        &self.setups
    }

    /// Forcibly aligns one source's provisioned actor count with reality.
    /// `observe` mutates its counts *before* the caller executes the
    /// returned actions; an executor that refuses one (resource floor or
    /// ceiling, spawn failure) must resync here or every later share
    /// computation for the source drifts from the live fleet.
    pub fn set_actors(&mut self, source: SourceId, actors: u32) {
        if let Some(s) = self.setups.iter_mut().find(|s| s.source == source) {
            s.actors = actors.max(1);
        }
    }

    /// Total worker count = CPU cores in use by loaders.
    pub fn cores_in_use(&self) -> u64 {
        self.setups
            .iter()
            .map(|s| u64::from(s.total_workers()))
            .sum()
    }

    /// Total loader memory under the current setups.
    pub fn mem_in_use(&self) -> u64 {
        self.setups.iter().map(LoaderSetup::total_mem).sum()
    }

    /// Observes one step's normalized mixing weights (catalog order) and
    /// returns the actions applied.
    pub fn observe(&mut self, weights: &[f64]) -> Vec<ScaleAction> {
        let n = self.setups.len();
        let total_actors: u32 = self.setups.iter().map(|s| s.actors).sum();
        let mut actions = Vec::new();
        for (i, weight) in weights.iter().enumerate().take(n) {
            self.ma[i] = self.alpha * weight + (1.0 - self.alpha) * self.ma[i];
            let share = f64::from(self.setups[i].actors) / f64::from(total_actors.max(1));
            if self.ma[i] > share * self.up_factor {
                self.up_streak[i] += 1;
                self.down_streak[i] = 0;
            } else if self.ma[i] < share * self.down_factor {
                self.down_streak[i] += 1;
                self.up_streak[i] = 0;
            } else {
                self.up_streak[i] = 0;
                self.down_streak[i] = 0;
            }
            if self.up_streak[i] >= self.patience && self.setups[i].actors < self.max_actors {
                self.setups[i].actors += 1;
                self.up_streak[i] = 0;
                self.rescale_events += 1;
                actions.push(ScaleAction::ScaleUp(self.setups[i].source));
            } else if self.down_streak[i] >= self.patience && self.setups[i].actors > 1 {
                self.setups[i].actors -= 1;
                self.down_streak[i] = 0;
                self.rescale_events += 1;
                actions.push(ScaleAction::ScaleDown(self.setups[i].source));
            }
        }
        actions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msd_data::catalog::{coyo700m_like, navit_sized};

    fn resources() -> ClusterResources {
        ClusterResources {
            total_cores: 512,
            total_mem_bytes: 4 << 40,
        }
    }

    #[test]
    fn partition_gives_every_source_a_loader() {
        let mut rng = SimRng::seed(1);
        let cat = navit_sized(&mut rng, 50);
        let setups = partition_sources(&cat, resources(), &PartitionOpts::default(), &mut rng);
        assert_eq!(setups.len(), 50);
        assert!(setups
            .iter()
            .all(|s| s.actors >= 1 && s.workers_per_actor >= 1));
    }

    #[test]
    fn expensive_sources_get_more_workers() {
        let mut rng = SimRng::seed(2);
        let cat = navit_sized(&mut rng, 60);
        let setups = partition_sources(&cat, resources(), &PartitionOpts::default(), &mut rng);
        // Correlate cost estimates with worker counts.
        let mut by_cost = setups;
        by_cost.sort_by(|a, b| a.cost_estimate_ns.partial_cmp(&b.cost_estimate_ns).unwrap());
        let cheap_avg: f64 = by_cost[..10]
            .iter()
            .map(|s| f64::from(s.total_workers()))
            .sum::<f64>()
            / 10.0;
        let costly_avg: f64 = by_cost[50..]
            .iter()
            .map(|s| f64::from(s.total_workers()))
            .sum::<f64>()
            / 10.0;
        assert!(
            costly_avg > cheap_avg,
            "costly {costly_avg} vs cheap {cheap_avg}"
        );
    }

    #[test]
    fn worker_caps_are_respected() {
        let mut rng = SimRng::seed(3);
        let cat = navit_sized(&mut rng, 30);
        let opts = PartitionOpts {
            w_src: 6,
            w_actor: 2,
            ..PartitionOpts::default()
        };
        let setups = partition_sources(&cat, resources(), &opts, &mut rng);
        for s in &setups {
            assert!(s.total_workers() <= 6 + 1, "w_src violated: {s:?}");
            assert!(s.workers_per_actor <= 2, "w_actor violated: {s:?}");
        }
    }

    #[test]
    fn memory_budget_shrinks_actor_counts() {
        let mut rng = SimRng::seed(4);
        let cat = navit_sized(&mut rng, 40);
        let generous = partition_sources(&cat, resources(), &PartitionOpts::default(), &mut rng);
        let tight = partition_sources(
            &cat,
            ClusterResources {
                total_cores: 512,
                total_mem_bytes: 200 << 30,
            },
            &PartitionOpts::default(),
            &mut rng,
        );
        let mem = |s: &[LoaderSetup]| s.iter().map(LoaderSetup::total_mem).sum::<u64>();
        assert!(mem(&tight) <= mem(&generous));
    }

    #[test]
    fn oversubscription_scales_down_workers() {
        let mut rng = SimRng::seed(5);
        let cat = navit_sized(&mut rng, 100);
        let tiny = ClusterResources {
            total_cores: 40,
            total_mem_bytes: 4 << 40,
        };
        let setups = partition_sources(&cat, tiny, &PartitionOpts::default(), &mut rng);
        let total: u64 = setups.iter().map(|s| u64::from(s.total_workers())).sum();
        // Everyone floors at 1 worker; the total stays near the source count.
        assert!(total <= 150, "total workers = {total}");
    }

    #[test]
    fn expand_configs_assigns_unique_ids_and_shards() {
        let mut rng = SimRng::seed(6);
        let cat = coyo700m_like(&mut rng);
        let setups = partition_sources(&cat, resources(), &PartitionOpts::default(), &mut rng);
        let configs = expand_configs(&setups, 256);
        let mut ids: Vec<u32> = configs.iter().map(|(_, c)| c.loader_id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), configs.len());
        for (src, cfg) in &configs {
            let setup = setups.iter().find(|s| s.source == *src).unwrap();
            assert_eq!(cfg.shards, setup.actors);
            assert!(cfg.shard < setup.actors);
        }
    }

    #[test]
    fn autoscaler_scales_up_hot_source() {
        let mut rng = SimRng::seed(7);
        let cat = coyo700m_like(&mut rng);
        let setups = partition_sources(&cat, resources(), &PartitionOpts::default(), &mut rng);
        let before: u32 = setups[0].actors;
        let mut scaler = AutoScaler::new(setups);
        // Source 0 suddenly takes 90% of the mixture.
        let hot = vec![0.9, 0.025, 0.025, 0.025, 0.025];
        let mut up_seen = false;
        for _ in 0..20 {
            for a in scaler.observe(&hot) {
                if a == ScaleAction::ScaleUp(SourceId(0)) {
                    up_seen = true;
                }
            }
        }
        assert!(up_seen);
        assert!(scaler.setups()[0].actors > before);
        assert!(scaler.rescale_events > 0);
    }

    #[test]
    fn autoscaler_reclaims_idle_source() {
        let mut rng = SimRng::seed(8);
        let cat = coyo700m_like(&mut rng);
        let mut setups = partition_sources(&cat, resources(), &PartitionOpts::default(), &mut rng);
        setups[4].actors = 4; // Pretend source 4 was provisioned heavily.
        let mut scaler = AutoScaler::new(setups);
        let cold = vec![0.25, 0.25, 0.25, 0.25, 0.0];
        let mut down_seen = false;
        for _ in 0..20 {
            for a in scaler.observe(&cold) {
                if a == ScaleAction::ScaleDown(SourceId(4)) {
                    down_seen = true;
                }
            }
        }
        assert!(down_seen);
        // Never reclaimed below one actor.
        assert!(scaler.setups()[4].actors >= 1);
    }

    #[test]
    fn actor_cap_bounds_scale_up() {
        let mut rng = SimRng::seed(12);
        let cat = coyo700m_like(&mut rng);
        let setups = partition_sources(&cat, resources(), &PartitionOpts::default(), &mut rng);
        let base = setups[0].actors;
        let mut scaler = AutoScaler::new(setups)
            .with_knobs(0.5, 1.2, 0.5, 2)
            .with_actor_cap(base + 1);
        let hot = vec![0.9, 0.025, 0.025, 0.025, 0.025];
        for _ in 0..40 {
            scaler.observe(&hot);
        }
        assert_eq!(
            scaler.setups()[0].actors,
            base + 1,
            "cap exceeded under sustained heat"
        );
    }

    #[test]
    fn cluster_count_controls_provisioning_granularity() {
        // The Fig 19 trade-off: G=1 flattens every source to the same
        // worker count (cheap sources over-provisioned relative to heavy
        // ones get *under*-differentiated); larger G tailors worker counts
        // to cluster costs.
        let mut rng = SimRng::seed(9);
        let cat = navit_sized(&mut rng, 64);
        let workers_for = |g: usize, rng: &mut SimRng| -> Vec<u32> {
            partition_sources(
                &cat,
                resources(),
                &PartitionOpts {
                    clusters: g,
                    ..PartitionOpts::default()
                },
                rng,
            )
            .iter()
            .map(LoaderSetup::total_workers)
            .collect()
        };
        let g1 = workers_for(1, &mut rng);
        let g8 = workers_for(8, &mut rng);
        // One cluster: uniform allocation.
        assert!(g1.windows(2).all(|w| w[0] == w[1]), "g1 = {g1:?}");
        // Eight clusters: differentiated allocation.
        let distinct: std::collections::HashSet<u32> = g8.iter().copied().collect();
        assert!(distinct.len() > 1, "g8 = {g8:?}");
        assert!(g8.iter().max() > g8.iter().min());
    }
}
