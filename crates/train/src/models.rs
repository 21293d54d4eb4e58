//! Table 1 model configurations.
//!
//! | Model        | #Layers | #Heads | Hidden | Notes            |
//! |--------------|---------|--------|--------|------------------|
//! | ViT-1B       | 39      | 16     | 1408   | encoder          |
//! | ViT-2B       | 48      | 16     | 1664   | encoder          |
//! | Llama-12B    | 45      | 36     | 4608   | dense backbone   |
//! | tMoE-25B     | 42      | 16     | 2048   | MoE, top-k = 2   |
//! | Mixtral-8×7B | 32      | 32     | 4096   | MoE, top-k = 2   |

use msd_balance::{BackboneShape, EncoderShape};

/// A named model configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelPreset {
    /// Display name as used in the paper's figures.
    pub name: String,
    /// Encoder shape (None for pure-text models).
    pub encoder: Option<EncoderShape>,
    /// Backbone shape.
    pub backbone: BackboneShape,
}

/// ViT-1B encoder (Table 1).
pub fn vit_1b() -> EncoderShape {
    EncoderShape {
        layers: 39,
        hidden: 1408,
        mlp_ratio: 4.0,
        heads: 16,
    }
}

/// ViT-2B encoder (Table 1).
pub fn vit_2b() -> EncoderShape {
    EncoderShape {
        layers: 48,
        hidden: 1664,
        mlp_ratio: 4.0,
        heads: 16,
    }
}

/// Llama-12B dense backbone (Table 1).
pub fn llama_12b() -> BackboneShape {
    BackboneShape {
        layers: 45,
        hidden: 4608,
        mlp_ratio: 4.0,
        heads: 36,
        vocab: 128_256,
        experts_per_token: 1,
    }
}

/// tMoE-25B production MoE backbone (Table 1, top-k = 2).
pub fn tmoe_25b() -> BackboneShape {
    BackboneShape {
        layers: 42,
        hidden: 2048,
        mlp_ratio: 4.0,
        heads: 16,
        vocab: 128_256,
        experts_per_token: 2,
    }
}

/// Mixtral-8×7B MoE backbone (Table 1, top-k = 2).
pub fn mixtral_8x7b() -> BackboneShape {
    BackboneShape {
        layers: 32,
        hidden: 4096,
        mlp_ratio: 3.5,
        heads: 32,
        vocab: 32_000,
        experts_per_token: 2,
    }
}

/// The VLM combinations used across the evaluation.
pub fn vlm_preset(encoder_name: &str, backbone_name: &str) -> ModelPreset {
    let encoder = match encoder_name {
        "ViT-1B" => vit_1b(),
        "ViT-2B" => vit_2b(),
        other => panic!("unknown encoder {other}"),
    };
    let backbone = match backbone_name {
        "Llama-12B" => llama_12b(),
        "tMoE-25B" => tmoe_25b(),
        "Mixtral-8x7B" => mixtral_8x7b(),
        other => panic!("unknown backbone {other}"),
    };
    ModelPreset {
        name: format!("{backbone_name}+{encoder_name}"),
        encoder: Some(encoder),
        backbone,
    }
}

/// Approximate parameter count of a backbone (for allreduce volume and
/// weight-memory modeling).
pub fn backbone_params(shape: &BackboneShape) -> f64 {
    let h = f64::from(shape.hidden);
    let layers = f64::from(shape.layers);
    // Attention (4 h^2) + MLP (2 · r · h^2 — both matrices), MoE replicates
    // experts but active params stay at top-k copies.
    let per_layer =
        4.0 * h * h + 2.0 * shape.mlp_ratio * h * h * f64::from(shape.experts_per_token);
    layers * per_layer + f64::from(shape.vocab) * h
}

/// Approximate parameter count of an encoder.
pub fn encoder_params(shape: &EncoderShape) -> f64 {
    let h = f64::from(shape.hidden);
    f64::from(shape.layers) * (4.0 * h * h + 2.0 * shape.mlp_ratio * h * h)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_shapes() {
        assert_eq!(vit_1b().layers, 39);
        assert_eq!(vit_2b().hidden, 1664);
        assert_eq!(llama_12b().heads, 36);
        assert_eq!(tmoe_25b().experts_per_token, 2);
        assert_eq!(mixtral_8x7b().layers, 32);
    }

    #[test]
    fn param_counts_are_plausible() {
        // ViT-1B ≈ 1e9, ViT-2B ≈ 2e9 (±40%).
        let p1 = encoder_params(&vit_1b());
        let p2 = encoder_params(&vit_2b());
        assert!((0.6e9..1.4e9).contains(&p1), "ViT-1B params = {p1:e}");
        assert!((1.3e9..2.7e9).contains(&p2), "ViT-2B params = {p2:e}");
        // Llama-12B ≈ 12e9 (±40%).
        let pl = backbone_params(&llama_12b());
        assert!((8e9..16e9).contains(&pl), "Llama-12B params = {pl:e}");
    }

    #[test]
    fn presets_compose() {
        let p = vlm_preset("ViT-2B", "Llama-12B");
        assert!(p.encoder.is_some());
        assert_eq!(p.name, "Llama-12B+ViT-2B");
    }

    #[test]
    #[should_panic(expected = "unknown encoder")]
    fn unknown_preset_panics() {
        let _ = vlm_preset("ViT-9B", "Llama-12B");
    }
}
