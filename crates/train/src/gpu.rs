//! Accelerator specifications.

/// Throughput/memory spec of one accelerator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuSpec {
    /// Peak dense FP16/BF16 throughput, FLOP/s.
    pub peak_flops: f64,
    /// Achievable model FLOPs utilization for transformer training.
    pub mfu: f64,
    /// HBM capacity, bytes.
    pub hbm_bytes: u64,
    /// Inter-GPU collective bandwidth per rank, bytes/s.
    pub collective_bps: f64,
}

impl GpuSpec {
    /// NVIDIA L20-class card (48 GB, the paper's testbed).
    pub fn l20() -> Self {
        GpuSpec {
            peak_flops: 119e12,
            mfu: 0.42,
            hbm_bytes: 48 << 30,
            collective_bps: 25e9,
        }
    }

    /// Sustained FLOP/s after utilization.
    pub fn sustained_flops(&self) -> f64 {
        self.peak_flops * self.mfu
    }

    /// Seconds to execute `flops` on one rank.
    pub fn secs_for(&self, flops: f64) -> f64 {
        flops / self.sustained_flops()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn l20_spec() {
        let g = GpuSpec::l20();
        assert_eq!(g.hbm_bytes, 48 << 30);
        assert!(g.sustained_flops() < g.peak_flops);
        // 1 PFLOP of work takes ~20 s at 42% MFU on an L20.
        let s = g.secs_for(1e15);
        assert!((15.0..25.0).contains(&s), "s = {s}");
    }
}
