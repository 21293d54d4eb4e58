//! Iteration-time composition under hybrid parallelism.
//!
//! An iteration of VLM training decomposes into (Fig 14's timeline):
//!
//! 1. **Encoder phase**: each rank encodes its assigned images (EDP — the
//!    encoder is data-parallel across *all* ranks); everyone waits for the
//!    slowest rank.
//! 2. **All-to-All**: encoded image features redistribute from EDP layout
//!    to the backbone's DP×CP layout.
//! 3. **Backbone phase**: 1F1B pipeline over `m` microbatches and `p`
//!    stages. With heterogeneous microbatch durations the makespan is
//!    `Σ_mb t(mb) + (p − 1) · max_mb t(mb)` per DP replica — imbalanced
//!    microbatches inflate the pipeline-bubble term, which is exactly what
//!    load-time balancing removes.
//! 4. **Gradient allreduce** across DP.
//!
//! DP replicas synchronize at the allreduce, so the iteration takes the
//! *maximum* replica time (the straggler effect of Fig 3).

use msd_mesh::{Axis, DeviceMesh};

use crate::gpu::GpuSpec;
use crate::models::{backbone_params, ModelPreset};

/// Per-rank workload of one iteration, produced from a loading plan.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RankLoads {
    /// Backbone forward FLOPs per DP replica per microbatch:
    /// `backbone_mb_flops[dp][mb]`.
    pub backbone_mb_flops: Vec<Vec<f64>>,
    /// Encoder forward FLOPs per global rank (EDP layout).
    pub encoder_rank_flops: Vec<f64>,
    /// Bytes each rank contributes to the encoder→backbone All-to-All.
    pub a2a_bytes_per_rank: f64,
}

/// The modeled iteration breakdown, in seconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct IterationBreakdown {
    /// Encoder phase (max over ranks).
    pub encoder_s: f64,
    /// All-to-All redistribution.
    pub a2a_s: f64,
    /// Backbone compute, slowest DP replica, including pipeline bubbles.
    pub backbone_s: f64,
    /// Pipeline-bubble share of `backbone_s`.
    pub bubble_s: f64,
    /// Gradient allreduce.
    pub allreduce_s: f64,
}

impl IterationBreakdown {
    /// End-to-end iteration time.
    pub fn total_s(&self) -> f64 {
        self.encoder_s + self.a2a_s + self.backbone_s + self.allreduce_s
    }
}

/// Static training setup.
#[derive(Debug, Clone)]
pub struct TrainSetup {
    /// The device mesh (PP/DP/CP/TP sizes).
    pub mesh: DeviceMesh,
    /// Accelerator spec.
    pub gpu: GpuSpec,
    /// The model.
    pub model: ModelPreset,
    /// Backward/forward FLOPs ratio (2.0 for standard training).
    pub bwd_ratio: f64,
    /// TP scaling efficiency (communication overhead inside TP groups).
    pub tp_efficiency: f64,
}

impl TrainSetup {
    /// Creates a setup with standard ratios.
    pub fn new(mesh: DeviceMesh, gpu: GpuSpec, model: ModelPreset) -> Self {
        TrainSetup {
            mesh,
            gpu,
            model,
            bwd_ratio: 2.0,
            tp_efficiency: 0.85,
        }
    }

    /// Seconds for one rank to execute `flops` of *model* work, after
    /// TP/CP sharding of the per-microbatch computation.
    fn shard_secs(&self, flops: f64) -> f64 {
        let tp = f64::from(self.mesh.size(Axis::TP));
        let cp = f64::from(self.mesh.size(Axis::CP));
        let effective = self.gpu.sustained_flops() * tp * self.tp_efficiency * cp;
        flops / effective
    }

    /// Models one iteration from per-rank loads.
    pub fn iteration(&self, loads: &RankLoads) -> IterationBreakdown {
        let pp = f64::from(self.mesh.size(Axis::PP));

        // Encoder phase: pure data parallel over ranks; the slowest rank
        // holds everyone (no TP/CP sharding of the encoder).
        let encoder_s = loads
            .encoder_rank_flops
            .iter()
            .map(|f| (1.0 + self.bwd_ratio) * f / self.gpu.sustained_flops())
            .fold(0.0f64, f64::max);

        // All-to-All: every rank exchanges its feature shard.
        let a2a_s = if loads.a2a_bytes_per_rank > 0.0 {
            loads.a2a_bytes_per_rank / self.gpu.collective_bps
        } else {
            0.0
        };

        // Backbone: per-DP 1F1B makespan, max over replicas.
        let mut backbone_s = 0.0f64;
        let mut bubble_s = 0.0f64;
        for mb_flops in &loads.backbone_mb_flops {
            let times: Vec<f64> = mb_flops
                .iter()
                .map(|f| self.shard_secs((1.0 + self.bwd_ratio) * f / pp))
                .collect();
            let sum: f64 = times.iter().sum();
            let max = times.iter().fold(0.0f64, |a, b| a.max(*b));
            let makespan = sum + (pp - 1.0) * max;
            if makespan > backbone_s {
                backbone_s = makespan;
                bubble_s = (pp - 1.0) * max;
            }
        }

        // Gradient allreduce: ring allreduce of backbone grads over DP.
        let dp = f64::from(self.mesh.size(Axis::DP));
        let params = backbone_params(&self.model.backbone);
        let grad_bytes = params * 2.0
            / f64::from(self.mesh.size(Axis::TP))
            / f64::from(self.mesh.size(Axis::PP));
        let allreduce_s = if dp > 1.0 {
            2.0 * grad_bytes * (dp - 1.0) / dp / self.gpu.collective_bps
        } else {
            0.0
        };

        IterationBreakdown {
            encoder_s,
            a2a_s,
            backbone_s,
            bubble_s,
            allreduce_s,
        }
    }

    /// Tokens/second throughput for an iteration carrying `tokens`.
    pub fn throughput(&self, loads: &RankLoads, tokens: u64) -> f64 {
        let t = self.iteration(loads).total_s();
        if t <= 0.0 {
            0.0
        } else {
            tokens as f64 / t
        }
    }
}

/// Builds per-microbatch backbone FLOPs for a DP replica from packed
/// segment lengths: `segments[mb][seq]` (attention is segment-local).
pub fn backbone_mb_flops(model: &ModelPreset, segments_per_mb: &[Vec<u64>]) -> Vec<f64> {
    segments_per_mb
        .iter()
        .map(|segs| model.backbone.flops_packed(segs.iter().copied()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::vlm_preset;

    fn setup(pp: u32, dp: u32, cp: u32, tp: u32) -> TrainSetup {
        TrainSetup::new(
            DeviceMesh::pp_dp_cp_tp(pp, dp, cp, tp).unwrap(),
            GpuSpec::l20(),
            vlm_preset("ViT-2B", "Llama-12B"),
        )
    }

    fn uniform_loads(dp: usize, mb: usize, flops: f64) -> RankLoads {
        RankLoads {
            backbone_mb_flops: vec![vec![flops; mb]; dp],
            encoder_rank_flops: vec![1e12; 8],
            a2a_bytes_per_rank: 64e6,
        }
    }

    #[test]
    fn breakdown_components_positive() {
        let s = setup(4, 2, 1, 2);
        let b = s.iteration(&uniform_loads(2, 4, 1e13));
        assert!(b.encoder_s > 0.0);
        assert!(b.a2a_s > 0.0);
        assert!(b.backbone_s > 0.0);
        assert!(b.bubble_s > 0.0);
        assert!(b.allreduce_s > 0.0);
        assert!(b.total_s() > b.backbone_s);
    }

    #[test]
    fn dp_straggler_dominates() {
        let s = setup(1, 2, 1, 1);
        let balanced = s.iteration(&RankLoads {
            backbone_mb_flops: vec![vec![1e13], vec![1e13]],
            ..Default::default()
        });
        let skewed = s.iteration(&RankLoads {
            backbone_mb_flops: vec![vec![0.5e13], vec![1.5e13]],
            ..Default::default()
        });
        // Same total work; skew makes the iteration slower.
        assert!(skewed.backbone_s > balanced.backbone_s * 1.4);
    }

    #[test]
    fn microbatch_imbalance_inflates_pipeline_bubbles() {
        let s = setup(8, 1, 1, 1);
        let balanced = s.iteration(&RankLoads {
            backbone_mb_flops: vec![vec![1e13; 4]],
            ..Default::default()
        });
        let skewed = s.iteration(&RankLoads {
            backbone_mb_flops: vec![vec![0.25e13, 0.25e13, 0.25e13, 3.25e13]],
            ..Default::default()
        });
        assert!(skewed.bubble_s > balanced.bubble_s * 2.0);
        assert!(skewed.backbone_s > balanced.backbone_s);
    }

    #[test]
    fn tp_and_cp_shard_compute() {
        let base = setup(1, 1, 1, 1);
        let tp4 = setup(1, 1, 1, 4);
        let cp4 = setup(1, 1, 4, 1);
        let loads = RankLoads {
            backbone_mb_flops: vec![vec![1e14]],
            ..Default::default()
        };
        let b0 = base.iteration(&loads).backbone_s;
        let bt = tp4.iteration(&loads).backbone_s;
        let bc = cp4.iteration(&loads).backbone_s;
        assert!(bt < b0 / 3.0, "tp4 {bt} vs base {b0}");
        assert!(bc < b0 / 3.5, "cp4 {bc} vs base {b0}");
    }

    #[test]
    fn encoder_phase_is_max_over_ranks() {
        let s = setup(1, 1, 1, 1);
        let even = s.iteration(&RankLoads {
            encoder_rank_flops: vec![1e12; 8],
            ..Default::default()
        });
        let skewed = s.iteration(&RankLoads {
            encoder_rank_flops: vec![
                0.2e12, 0.2e12, 0.2e12, 0.2e12, 0.2e12, 0.2e12, 0.2e12, 6.6e12,
            ],
            ..Default::default()
        });
        assert!(skewed.encoder_s > even.encoder_s * 5.0);
    }

    #[test]
    fn packed_segment_flops_penalize_long_segments() {
        let model = vlm_preset("ViT-1B", "Llama-12B");
        let balanced = backbone_mb_flops(&model, &[vec![50, 50]]);
        let skewed = backbone_mb_flops(&model, &[vec![30, 70]]);
        assert!(skewed[0] > balanced[0]);
    }

    #[test]
    fn throughput_scales_inverse_to_time() {
        let s = setup(2, 2, 1, 2);
        let loads = uniform_loads(2, 2, 1e13);
        let t = s.throughput(&loads, 1_000_000);
        assert!(t > 0.0);
        let heavier = uniform_loads(2, 2, 2e13);
        assert!(s.throughput(&heavier, 1_000_000) < t);
    }
}
