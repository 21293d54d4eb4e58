//! Hybrid deployment of the auto-partitioned loader actors (Sec 6.2
//! trick 1): accelerator pods donate idle CPU and DRAM to sidecar
//! containers, and remote CPU pods are rented only when the sidecars are
//! full. [`place_actors`] packs the actors that
//! [`msd_core::autoscale::partition_sources`] sized; the runtime never
//! places actors itself, so this is a cost model of the deployment, read by
//! the Sec 6.2 bench.

use msd_core::autoscale::LoaderSetup;
use msd_data::SourceId;

/// Capacity of one pod class (Sec 6.2 trick 1, hybrid deployment).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PodSpec {
    /// CPU cores available to loader actors.
    pub cores: u64,
    /// DRAM available to loader actors, bytes.
    pub mem_bytes: u64,
}

/// The hybrid sidecar/remote deployment shape: accelerator pods donate
/// idle CPU/DRAM to sidecar containers; remote CPU pods are rented only
/// when sidecars run out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HybridDeployment {
    /// Accelerator pods in the job (each hosts one sidecar).
    pub accelerator_pods: u32,
    /// Idle capacity per sidecar (the paper cites ~75% idle auxiliary CPU).
    pub sidecar: PodSpec,
    /// Capacity per remote CPU pod (opened on demand).
    pub remote: PodSpec,
}

/// Where one loader actor landed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Inside accelerator pod `pod`'s sidecar container.
    Sidecar {
        /// Accelerator pod index.
        pod: u32,
    },
    /// On rented remote CPU pod `pod`.
    Remote {
        /// Remote pod index.
        pod: u32,
    },
}

/// One placed loader actor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ActorPlacement {
    /// The actor's source.
    pub source: SourceId,
    /// Shard index within the source.
    pub shard: u32,
    /// Cores this actor needs (one per worker).
    pub cores: u64,
    /// Resident memory this actor needs.
    pub mem_bytes: u64,
    /// Assigned location.
    pub placement: Placement,
}

/// The result of hybrid placement.
#[derive(Debug, Clone, PartialEq)]
pub struct PlacementPlan {
    /// Every actor with its assignment, in setup order.
    pub actors: Vec<ActorPlacement>,
    /// Remote pods opened.
    pub remote_pods: u32,
}

impl PlacementPlan {
    /// Fraction of actors that fit in sidecars (1.0 = no rented pods).
    pub fn sidecar_fraction(&self) -> f64 {
        if self.actors.is_empty() {
            return 1.0;
        }
        let side = self
            .actors
            .iter()
            .filter(|a| matches!(a.placement, Placement::Sidecar { .. }))
            .count();
        side as f64 / self.actors.len() as f64
    }

    /// Total cores placed on sidecars (utilizing otherwise idle capacity).
    pub fn sidecar_cores(&self) -> u64 {
        self.actors
            .iter()
            .filter(|a| matches!(a.placement, Placement::Sidecar { .. }))
            .map(|a| a.cores)
            .sum()
    }
}

/// Packs loader actors onto sidecars first, spilling to remote CPU pods
/// only when sidecar capacity is exhausted (Sec 6.2 trick 1).
///
/// First-fit decreasing by memory: large actors (video sources with fat
/// buffers) place first while bins are emptiest, minimizing spill. Both
/// the core and memory constraints of every pod are respected; remote
/// pods open on demand.
///
/// Caveat: like all first-fit-decreasing packers, spill is only
/// guaranteed monotone in sidecar capacity for *uniform* actor sizes —
/// with heterogeneous sizes a bigger sidecar can admit one huge actor
/// that crowds out several small ones (classic bin-packing capacity
/// anomaly, exercised in the property tests).
pub fn place_actors(setups: &[LoaderSetup], deploy: &HybridDeployment) -> PlacementPlan {
    struct Bin {
        cores_left: u64,
        mem_left: u64,
    }
    let mut sidecars: Vec<Bin> = (0..deploy.accelerator_pods)
        .map(|_| Bin {
            cores_left: deploy.sidecar.cores,
            mem_left: deploy.sidecar.mem_bytes,
        })
        .collect();
    let mut remotes: Vec<Bin> = Vec::new();

    // Collect actors, sorted by descending memory (FFD).
    let mut pending: Vec<(SourceId, u32, u64, u64)> = setups
        .iter()
        .flat_map(|s| {
            (0..s.actors).map(move |shard| {
                (
                    s.source,
                    shard,
                    u64::from(s.workers_per_actor),
                    s.mem_per_actor,
                )
            })
        })
        .collect();
    pending.sort_by(|a, b| b.3.cmp(&a.3).then(a.0.cmp(&b.0)).then(a.1.cmp(&b.1)));

    let mut actors = Vec::with_capacity(pending.len());
    for (source, shard, cores, mem) in pending {
        let fit = sidecars
            .iter_mut()
            .enumerate()
            .find(|(_, b)| b.cores_left >= cores && b.mem_left >= mem);
        let placement = if let Some((pod, bin)) = fit {
            bin.cores_left -= cores;
            bin.mem_left -= mem;
            Placement::Sidecar { pod: pod as u32 }
        } else {
            // Spill: first remote pod with room, else open a new one.
            let pod = remotes
                .iter()
                .position(|b| b.cores_left >= cores && b.mem_left >= mem)
                .unwrap_or_else(|| {
                    remotes.push(Bin {
                        cores_left: deploy.remote.cores,
                        mem_left: deploy.remote.mem_bytes,
                    });
                    remotes.len() - 1
                });
            // An actor larger than a whole remote pod still gets one to
            // itself (the pod is simply over-committed; production would
            // split the actor, which auto-partitioning already bounds via
            // `w_actor`).
            remotes[pod].cores_left = remotes[pod].cores_left.saturating_sub(cores);
            remotes[pod].mem_left = remotes[pod].mem_left.saturating_sub(mem);
            Placement::Remote { pod: pod as u32 }
        };
        actors.push(ActorPlacement {
            source,
            shard,
            cores,
            mem_bytes: mem,
            placement,
        });
    }
    PlacementPlan {
        actors,
        remote_pods: remotes.len() as u32,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msd_core::autoscale::{partition_sources, ClusterResources, PartitionOpts};
    use msd_data::catalog::{coyo700m_like, navit_sized};
    use msd_sim::SimRng;

    fn resources() -> ClusterResources {
        ClusterResources {
            total_cores: 512,
            total_mem_bytes: 4 << 40,
        }
    }

    fn deployment(pods: u32, sidecar_cores: u64, sidecar_mem: u64) -> HybridDeployment {
        HybridDeployment {
            accelerator_pods: pods,
            sidecar: PodSpec {
                cores: sidecar_cores,
                mem_bytes: sidecar_mem,
            },
            remote: PodSpec {
                cores: 64,
                mem_bytes: 512 << 30,
            },
        }
    }

    #[test]
    fn placement_prefers_sidecars() {
        let mut rng = SimRng::seed(9);
        let cat = coyo700m_like(&mut rng);
        let setups = partition_sources(&cat, resources(), &PartitionOpts::default(), &mut rng);
        // Plenty of sidecar room: everything stays local, zero rented pods.
        let plan = place_actors(&setups, &deployment(16, 32, 1 << 40));
        assert_eq!(plan.remote_pods, 0);
        assert!((plan.sidecar_fraction() - 1.0).abs() < 1e-12);
        let total_actors: u32 = setups.iter().map(|s| s.actors).sum();
        assert_eq!(plan.actors.len() as u32, total_actors);
    }

    #[test]
    fn placement_spills_to_remote_when_sidecars_fill() {
        let mut rng = SimRng::seed(10);
        let cat = navit_sized(&mut rng, 40);
        let setups = partition_sources(&cat, resources(), &PartitionOpts::default(), &mut rng);
        // Starved sidecars: most actors must rent remote pods.
        let tight = place_actors(&setups, &deployment(2, 2, 4 << 30));
        assert!(tight.remote_pods > 0);
        assert!(tight.sidecar_fraction() < 1.0);
        // Growing sidecar capacity monotonically reduces rented pods.
        let roomy = place_actors(&setups, &deployment(32, 16, 256 << 30));
        assert!(roomy.remote_pods <= tight.remote_pods);
        assert!(roomy.sidecar_fraction() >= tight.sidecar_fraction());
    }

    #[test]
    fn placement_respects_pod_capacity() {
        let mut rng = SimRng::seed(11);
        let cat = navit_sized(&mut rng, 30);
        let setups = partition_sources(&cat, resources(), &PartitionOpts::default(), &mut rng);
        let deploy = deployment(8, 8, 16 << 30);
        let plan = place_actors(&setups, &deploy);
        // Per-sidecar sums never exceed the pod spec.
        let mut cores = std::collections::HashMap::new();
        let mut mem = std::collections::HashMap::new();
        for a in &plan.actors {
            if let Placement::Sidecar { pod } = a.placement {
                *cores.entry(pod).or_insert(0u64) += a.cores;
                *mem.entry(pod).or_insert(0u64) += a.mem_bytes;
            }
        }
        for (&pod, &c) in &cores {
            assert!(c <= deploy.sidecar.cores, "pod {pod} cores {c}");
            assert!(mem[&pod] <= deploy.sidecar.mem_bytes);
        }
        // Every actor from every setup is placed exactly once.
        let mut keys: Vec<(SourceId, u32)> =
            plan.actors.iter().map(|a| (a.source, a.shard)).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(
            keys.len() as u32,
            setups.iter().map(|s| s.actors).sum::<u32>()
        );
    }

    #[test]
    fn empty_setups_place_trivially() {
        let plan = place_actors(&[], &deployment(4, 8, 1 << 30));
        assert!(plan.actors.is_empty());
        assert_eq!(plan.remote_pods, 0);
        assert_eq!(plan.sidecar_fraction(), 1.0);
        assert_eq!(plan.sidecar_cores(), 0);
    }
}
