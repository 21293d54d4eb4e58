//! Analytic FLOPs cost models.
//!
//! Sec 4.2: *"we model the encoder's cost as a function of the image
//! sequence length, the dimensions of the embedding and MLP layers, and the
//! model's depth. The cost for the language backbone is likewise modeled as
//! a function of the total sequence length and key architectural parameters,
//! such as the number of experts per token, vocabulary size, and hidden
//! layer dimensions."* Fig 19 validates this model against measurements;
//! `msd-train` plays the "measurement" role here by perturbing the same
//! model with realistic noise.
//!
//! FLOPs accounting per transformer layer processing a sequence of length
//! `L` with hidden size `h` (forward pass, multiply-accumulate = 2 FLOPs):
//!
//! - QKV + output projections: `8·L·h²`
//! - attention scores + weighted values: `4·L²·h`  ← the quadratic term
//! - MLP (two matmuls of expansion ratio `r`): `4·r·L·h²` (× experts per
//!   token for MoE)
//!
//! plus a final vocabulary projection `2·L·h·V` for the backbone.

/// Shape of a ViT-style encoder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EncoderShape {
    /// Transformer depth.
    pub layers: u32,
    /// Hidden (embedding) size.
    pub hidden: u32,
    /// MLP expansion ratio (typically 4).
    pub mlp_ratio: f64,
    /// Attention heads (enters only sanity checks, not FLOPs).
    pub heads: u32,
}

impl EncoderShape {
    /// Forward FLOPs for encoding one image of `patches` tokens.
    ///
    /// Images are encoded as independent sequences, so the quadratic term
    /// uses the per-image patch count.
    pub fn flops(&self, patches: u64) -> f64 {
        let l = patches as f64;
        let h = f64::from(self.hidden);
        let per_layer = 8.0 * l * h * h + 4.0 * l * l * h + 4.0 * self.mlp_ratio * l * h * h;
        f64::from(self.layers) * per_layer
    }

    /// Forward FLOPs for a set of images (sum of independent sequences).
    pub fn flops_batch(&self, patch_counts: impl IntoIterator<Item = u64>) -> f64 {
        patch_counts.into_iter().map(|p| self.flops(p)).sum()
    }

    /// Forward FLOPs for one *sample* carrying `patches` image tokens.
    ///
    /// A sample's image tokens come from one or more images; attention is
    /// per-image, and NaViT-style encoders bound a single image at
    /// [`MAX_IMAGE_PATCHES`] patches. A 32k-token sample therefore costs
    /// two 16k-image encodes, not one 32k-sequence quadratic blowup.
    pub fn flops_sample(&self, patches: u64) -> f64 {
        if patches == 0 {
            return 0.0;
        }
        let full = patches / MAX_IMAGE_PATCHES;
        let rem = patches % MAX_IMAGE_PATCHES;
        full as f64 * self.flops(MAX_IMAGE_PATCHES) + self.flops(rem)
    }
}

/// Largest single-image patch count (NaViT resolution bound): images
/// beyond this are multiple images within the sample.
pub const MAX_IMAGE_PATCHES: u64 = 16_384;

/// Shape of a (possibly MoE) LLM backbone.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BackboneShape {
    /// Transformer depth.
    pub layers: u32,
    /// Hidden size.
    pub hidden: u32,
    /// MLP expansion ratio.
    pub mlp_ratio: f64,
    /// Attention heads.
    pub heads: u32,
    /// Vocabulary size (final projection).
    pub vocab: u32,
    /// Experts active per token (1 for dense).
    pub experts_per_token: u32,
}

impl BackboneShape {
    /// Forward FLOPs for one *complete sequence* of `seq_len` tokens.
    ///
    /// Packed subsequences attend within segment masks, so callers should
    /// pass per-subsequence lengths and sum — which is exactly why a
    /// 30+70-token packing costs more than 50+50 (the paper's example:
    /// 16% more attention compute).
    pub fn flops(&self, seq_len: u64) -> f64 {
        let l = seq_len as f64;
        let h = f64::from(self.hidden);
        let moe = f64::from(self.experts_per_token.max(1));
        let per_layer = 8.0 * l * h * h + 4.0 * l * l * h + 4.0 * self.mlp_ratio * l * h * h * moe;
        f64::from(self.layers) * per_layer + 2.0 * l * h * f64::from(self.vocab)
    }

    /// Forward FLOPs for a packed sequence given its segment lengths
    /// (attention is segment-local; projections are linear in total length).
    pub fn flops_packed(&self, segments: impl IntoIterator<Item = u64>) -> f64 {
        segments.into_iter().map(|s| self.flops(s)).sum()
    }
}

/// Converts FLOPs to seconds at a sustained throughput (FLOP/s) and
/// utilization factor.
pub fn flops_to_secs(flops: f64, peak_flops: f64, utilization: f64) -> f64 {
    flops / (peak_flops * utilization.clamp(1e-3, 1.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn encoder() -> EncoderShape {
        EncoderShape {
            layers: 48,
            hidden: 1664,
            mlp_ratio: 4.0,
            heads: 16,
        }
    }

    fn backbone() -> BackboneShape {
        BackboneShape {
            layers: 45,
            hidden: 4608,
            mlp_ratio: 4.0,
            heads: 36,
            vocab: 128_000,
            experts_per_token: 1,
        }
    }

    #[test]
    fn quadratic_term_dominates_long_sequences() {
        let b = backbone();
        let short = b.flops(1_000);
        let long = b.flops(100_000);
        // 100x tokens must cost far more than 100x FLOPs.
        assert!(long > short * 150.0, "ratio = {}", long / short);
    }

    #[test]
    fn paper_packing_example_16_percent() {
        // Sec 1: "a complete sequence composed of 30-token and 70-token
        // subsequences incurs 16% more computation than two 50-token
        // subsequences" — true of the attention term alone.
        fn attn(l: f64) -> f64 {
            l * l
        }
        let unbalanced = attn(30.0) + attn(70.0);
        let balanced = attn(50.0) + attn(50.0);
        let ratio = unbalanced / balanced;
        assert!((ratio - 1.16).abs() < 0.001, "ratio = {ratio}");
        // And the full model preserves the ordering.
        let b = backbone();
        assert!(b.flops_packed([30, 70]) > b.flops_packed([50, 50]));
    }

    #[test]
    fn moe_scales_mlp_only() {
        let dense = backbone();
        let moe = BackboneShape {
            experts_per_token: 2,
            ..dense
        };
        let l = 4096;
        let dense_f = dense.flops(l);
        let moe_f = moe.flops(l);
        assert!(moe_f > dense_f);
        // Less than 2x total (attention and vocab are unchanged).
        assert!(moe_f < dense_f * 2.0);
    }

    #[test]
    fn encoder_batch_is_sum_of_images() {
        let e = encoder();
        let sum = e.flops(100) + e.flops(900);
        assert_eq!(e.flops_batch([100, 900]), sum);
        // Same total patches, different split: bigger image costs more
        // (quadratic in per-image length).
        assert!(e.flops_batch([1000]) > e.flops_batch([500, 500]));
    }

    #[test]
    fn zero_length_costs_nothing() {
        assert_eq!(encoder().flops(0), 0.0);
        assert_eq!(backbone().flops(0), 0.0);
        assert_eq!(encoder().flops_sample(0), 0.0);
    }

    #[test]
    fn sample_flops_chunk_at_image_bound() {
        let e = encoder();
        // Below the bound: identical to a single image.
        assert_eq!(e.flops_sample(1000), e.flops(1000));
        // A 32k-token sample is two 16k images — far cheaper than one 32k
        // quadratic sequence.
        let two_images = e.flops_sample(2 * MAX_IMAGE_PATCHES);
        assert_eq!(two_images, 2.0 * e.flops(MAX_IMAGE_PATCHES));
        assert!(two_images < e.flops(2 * MAX_IMAGE_PATCHES) * 0.8);
    }

    #[test]
    fn flops_to_secs_scaling() {
        let s = flops_to_secs(1e15, 1e14, 0.5);
        assert!((s - 20.0).abs() < 1e-9);
        // Utilization is clamped away from zero.
        assert!(flops_to_secs(1e12, 1e12, 0.0).is_finite());
    }
}
