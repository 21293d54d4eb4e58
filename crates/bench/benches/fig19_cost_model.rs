//! Fig 19 — Cost-model fidelity and clustering-size impact.
//!
//! Left: the analytic encoder/backbone cost models against "measured"
//! per-step latencies (the trainer model plus realistic execution noise)
//! over 200 steps. Right: the source-clustering size G ∈ {3,4,5} trade-off
//! between provisioned CPU and AutoScaler rescale frequency under a
//! drifting mixture — the paper picks G = 4.

use msd_bench::train::models::{vit_2b, vlm_preset};
use msd_bench::train::GpuSpec;
use msd_bench::{banner, table_header, table_row};
use msd_core::autoscale::{partition_sources, AutoScaler, ClusterResources, PartitionOpts};
use msd_data::catalog::navit_sized;
use msd_sim::SimRng;

fn main() {
    banner(
        "Figure 19",
        "Cost-model fidelity and clustering-size impact",
    );
    let mut rng = SimRng::seed(19);
    let gpu = GpuSpec::l20();
    let model = vlm_preset("ViT-2B", "Llama-12B");
    let encoder = vit_2b();

    // Left panel: predicted vs measured per step.
    println!("\ncost-model fidelity over steps:");
    table_header(&[
        "step",
        "enc_real_ms",
        "enc_cost_ms",
        "bb_real_s",
        "bb_cost_s",
    ]);
    let mut enc_err = 0.0f64;
    let mut bb_err = 0.0f64;
    let steps = 200u32;
    let catalog = navit_sized(&mut rng, 64);
    for step in 1..=steps {
        // Sample a batch of images/sequences for this step.
        let mut patches = 0u64;
        let mut tokens = 0u64;
        for i in 0..64u64 {
            let spec = &catalog.sources()[(step as usize * 13 + i as usize) % catalog.len()];
            let m = spec.sample_meta(&mut rng, u64::from(step) * 64 + i);
            patches += u64::from(m.image_patches);
            tokens += m.total_tokens();
        }
        let enc_cost_ms = encoder.flops(patches / 64) * 64.0 / gpu.sustained_flops() * 1e3;
        // One-layer backbone fidelity probe, like the paper's validation.
        let one_layer = msd_balance::BackboneShape {
            layers: 1,
            ..model.backbone
        };
        let bb_cost_s = one_layer.flops(tokens) / gpu.sustained_flops();
        // "Measured": the same quantity with execution noise (kernel
        // launches, caching effects) of ~±6%.
        let enc_real_ms = enc_cost_ms * (1.0 + rng.normal() * 0.06);
        let bb_real_s = bb_cost_s * (1.0 + rng.normal() * 0.06);
        enc_err += ((enc_real_ms - enc_cost_ms) / enc_real_ms).abs();
        bb_err += ((bb_real_s - bb_cost_s) / bb_real_s).abs();
        if step % 50 == 0 {
            table_row(&[
                step.to_string(),
                format!("{enc_real_ms:.0}"),
                format!("{enc_cost_ms:.0}"),
                format!("{bb_real_s:.2}"),
                format!("{bb_cost_s:.2}"),
            ]);
        }
    }
    println!(
        "mean relative error: encoder {:.1}%, backbone {:.1}%   [paper: predictions closely track]",
        enc_err / f64::from(steps) * 100.0,
        bb_err / f64::from(steps) * 100.0
    );

    // Right panel: clustering size vs CPU usage and rescale frequency.
    println!("\nclustering-size trade-off (drifting mixture, 200 steps):");
    table_header(&["G", "cpu_cores", "rescales", "rescale_ratio"]);
    let resources = ClusterResources {
        total_cores: 2048,
        total_mem_bytes: 16 << 40,
    };
    let mut base_rescales = 0u64;
    for g in [3usize, 4, 5] {
        let mut rng = SimRng::seed(1900 + g as u64);
        let catalog = navit_sized(&mut rng, 128);
        let setups = partition_sources(
            &catalog,
            resources,
            &PartitionOpts {
                clusters: g,
                ..PartitionOpts::default()
            },
            &mut rng,
        );
        let cores: u64 = setups.iter().map(|s| u64::from(s.total_workers())).sum();
        let mut scaler = AutoScaler::new(setups);
        // Drifting mixture: weight mass slowly rotates across sources.
        let n = catalog.len();
        for step in 0..200u64 {
            let hot = (step / 20) as usize % n;
            let mut w = vec![0.5 / n as f64; n];
            w[hot] += 0.5;
            scaler.observe(&w);
        }
        if g == 3 {
            base_rescales = scaler.rescale_events.max(1);
        }
        table_row(&[
            g.to_string(),
            cores.to_string(),
            scaler.rescale_events.to_string(),
            format!(
                "{:.1}x",
                scaler.rescale_events as f64 / base_rescales as f64
            ),
        ]);
    }
    println!("[paper: G=4 balances CPU usage against rescale frequency]");
}
