//! The allocating per-transform bodies the working-buffer chain replaced:
//! one fresh `Vec` per byte-mutating transform. Kept as the byte-identity
//! reference only — compiled into `msd_data`'s unit tests, and included by
//! path from `tests/prop_deploy_tricks.rs` for the differential proptest.

use super::{Sample, Transform};

/// Applies one transform the way `Transform::apply` did before the chain.
pub fn apply(t: &Transform, sample: &mut Sample) {
    match t {
        Transform::TextTokenize => {
            let folded: Vec<u8> = sample
                .payload
                .chunks(2)
                .map(|c| c.iter().fold(0u8, |a, b| a.wrapping_add(*b)))
                .collect();
            sample.payload = folded.into();
        }
        Transform::ImageDecode => {
            let target = (sample.payload.len() as f64 * t.inflation()) as usize;
            let target = target.min(1 << 20);
            let src = std::mem::take(&mut sample.payload);
            let mut out = Vec::with_capacity(target);
            let mut i = 0usize;
            while out.len() < target && !src.is_empty() {
                let b = src[i % src.len()];
                out.push(b);
                out.push(b.wrapping_mul(3));
                out.push(b.wrapping_add(7));
                i += 1;
            }
            sample.payload = out.into();
        }
        Transform::Crop { max_patches } => {
            if sample.meta.image_patches > *max_patches {
                let keep = f64::from(*max_patches) / f64::from(sample.meta.image_patches.max(1));
                let new_len = (sample.payload.len() as f64 * keep) as usize;
                let new_len = new_len.max(1).min(sample.payload.len());
                sample.payload = sample.payload.slice(..new_len);
                sample.meta.image_patches = *max_patches;
            }
        }
        Transform::Flip => {
            let mut reversed = sample.payload.to_vec();
            reversed.reverse();
            sample.payload = reversed.into();
        }
        Transform::VideoKeyframe => {
            let kept: Vec<u8> = sample
                .payload
                .chunks(20)
                .filter_map(|c| c.first().copied())
                .collect();
            sample.payload = kept.into();
        }
        Transform::AudioResample => {
            let src = std::mem::take(&mut sample.payload);
            let mut out = Vec::with_capacity(src.len() * 2);
            for w in src.windows(2) {
                out.push(w[0]);
                out.push(w[0].wrapping_add(w[1]) / 2);
            }
            sample.payload = out.into();
        }
    }
    sample.meta.raw_bytes = sample.payload.len() as u64;
}

/// Applies `transforms` in order, one allocation per byte-mutating step.
pub fn apply_all(transforms: &[Transform], sample: &mut Sample) {
    for t in transforms {
        apply(t, sample);
    }
}
