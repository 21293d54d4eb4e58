//! Sample-level transformations and their cost model.
//!
//! Sec 2.3 of the paper quantifies transformation heterogeneity: *"audio
//! processing requires 4× more computation per output token than image
//! decoding and 300× more than text tokenization"*. The `cost_ns` model
//! below encodes exactly that ratio (text = 1×, image = 75×, audio = 300×
//! per output token), plus fixed per-sample overheads. Costs are virtual
//! time; applying a pipeline additionally performs real byte-level work so
//! the actor pipeline moves genuine data.
//!
//! # The working-buffer chain
//!
//! A pipeline runs as one chain over a reusable [`TransformScratch`], not
//! as one allocation per transform. The payload a sample arrives with is
//! an immutable shared [`bytes::Bytes`] view (a pooled lease or a slice of
//! a storage block), so:
//!
//! - `Crop` only changes a length. Before any byte-mutating transform has
//!   run it narrows the shared view (zero-copy); afterwards it truncates
//!   the working buffer.
//! - The first byte-mutating transform reads the view and writes its
//!   output into the scratch's working buffer.
//! - Later length-preserving and shrinking transforms (`Flip`,
//!   `TextTokenize`, `VideoKeyframe`) run in place on the working buffer;
//!   inflating ones (`ImageDecode`, `AudioResample`) write into the
//!   scratch's second buffer and the two swap.
//! - The *last* byte-mutating transform writes into a fresh `Vec` sized
//!   exactly from its known output length, which becomes the payload.
//!
//! So exactly one payload-sized allocation leaves the chain per sample,
//! intermediates never touch the allocator once the scratch has grown to
//! its high-water mark, a chain with a single byte-mutating transform
//! (text) never touches the scratch, and a chain with none (`Crop`-only,
//! or everything deferred) stays pure view narrowing. Whoever drives a
//! pipeline for many samples owns the scratch and passes it to
//! [`TransformPipeline::apply_with`]; [`TransformPipeline::apply`] is the
//! same chain over a throwaway scratch.
//!
//! # Where a pipeline is cut
//!
//! A pipeline need not run in one place. [`TransformPipeline::split_at`]
//! cuts it in two, and [`TransformPipeline::min_transfer_index`] names
//! the cut after which the payload is smallest: raw JPEG for image and
//! audio, keyframes for video, tokens for text (Sec 6.2). A Source
//! Loader buffers each sample at that cut and runs the rest only on the
//! samples a plan pops; [`TransformPipeline::settled_meta`] tells the
//! planner, from lengths alone, what metadata the rest will leave.

use crate::sample::{Modality, Sample, SampleMeta};

/// Per-output-token cost of text tokenization, in nanoseconds.
pub const TEXT_TOKENIZE_NS_PER_TOKEN: f64 = 50.0;
/// Image decoding per output token: 75× text (so audio is 4× image).
pub const IMAGE_DECODE_NS_PER_TOKEN: f64 = TEXT_TOKENIZE_NS_PER_TOKEN * 75.0;
/// Audio processing per output token: 300× text.
pub const AUDIO_NS_PER_TOKEN: f64 = TEXT_TOKENIZE_NS_PER_TOKEN * 300.0;
/// Video keyframe extraction per output token: heavier than audio.
pub const VIDEO_NS_PER_TOKEN: f64 = TEXT_TOKENIZE_NS_PER_TOKEN * 450.0;

/// One sample-level transformation.
#[derive(Debug, Clone, PartialEq)]
pub enum Transform {
    /// Text → token ids.
    TextTokenize,
    /// JPEG → RGB tensor (inflates bytes substantially).
    ImageDecode,
    /// Crop/resize to a target patch budget.
    Crop {
        /// Maximum patches retained.
        max_patches: u32,
    },
    /// Horizontal flip (cheap, in-place).
    Flip,
    /// Video keyframe extraction.
    VideoKeyframe,
    /// Audio resample + feature extraction.
    AudioResample,
}

impl Transform {
    /// Virtual-time cost of applying this transform to a sample.
    pub fn cost_ns(&self, meta: &SampleMeta) -> u64 {
        let tokens = meta.total_tokens() as f64;
        let patches = f64::from(meta.image_patches);
        let per_sample = 2_000.0; // Dispatch + allocation overhead.
        let work = match self {
            Transform::TextTokenize => f64::from(meta.text_tokens) * TEXT_TOKENIZE_NS_PER_TOKEN,
            Transform::ImageDecode => patches * IMAGE_DECODE_NS_PER_TOKEN,
            Transform::Crop { .. } => patches * IMAGE_DECODE_NS_PER_TOKEN * 0.1,
            Transform::Flip => patches * IMAGE_DECODE_NS_PER_TOKEN * 0.02,
            Transform::VideoKeyframe => tokens * VIDEO_NS_PER_TOKEN,
            Transform::AudioResample => tokens * AUDIO_NS_PER_TOKEN,
        };
        (per_sample + work) as u64
    }

    /// Multiplicative effect on payload size (JPEG→RGB inflates; the paper
    /// cites up to 200× for OCR workloads).
    pub fn inflation(&self) -> f64 {
        match self {
            Transform::TextTokenize => 0.5, // Tokens are denser than UTF-8.
            Transform::ImageDecode => 12.0,
            Transform::Crop { .. } => 0.8,
            Transform::Flip => 1.0,
            Transform::VideoKeyframe => 0.05, // Keyframes drop most frames.
            Transform::AudioResample => 2.0,
        }
    }

    /// Applies this one transform: a chain of length one (see the module
    /// docs). `Crop` narrows the shared [`bytes::Bytes`] view in place
    /// (zero-copy); a byte-mutating transform writes one fresh, exactly
    /// sized buffer. Metadata (patch budget, byte size) is updated either
    /// way.
    ///
    /// Note the zero-copy tradeoff: a narrowed view pins its whole
    /// backing allocation until every sharing view drops, while byte
    /// accounting (`raw_bytes`, `payload_bytes`) reports view lengths.
    /// Crop's shrink factor is bounded by `max_patches / image_patches`,
    /// and buffers leave the retained serve window within `queue_depth`
    /// steps, so the overhang is transient and bounded.
    pub fn apply(&self, sample: &mut Sample) {
        run_chain(
            std::slice::from_ref(self),
            sample,
            &mut TransformScratch::default(),
        );
    }

    /// Whether the transform rewrites payload bytes (everything but the
    /// resize-only `Crop`).
    fn mutates_bytes(&self) -> bool {
        !matches!(self, Transform::Crop { .. })
    }

    /// Whether the output can outgrow the input, so the transform cannot
    /// run in place on the working buffer.
    fn inflates(&self) -> bool {
        matches!(self, Transform::ImageDecode | Transform::AudioResample)
    }

    /// Exact output length of a byte-mutating transform over `len` bytes.
    fn output_len(&self, len: usize) -> usize {
        match self {
            Transform::TextTokenize => len.div_ceil(2),
            // Whole RGB-ish triples up to the inflation target, which is
            // capped to keep the in-process footprint bounded.
            Transform::ImageDecode if len == 0 => 0,
            Transform::ImageDecode => {
                let target = (len as f64 * self.inflation()) as usize;
                target.min(1 << 20).div_ceil(3) * 3
            }
            Transform::Flip => len,
            Transform::VideoKeyframe => len.div_ceil(20),
            Transform::AudioResample => len.saturating_sub(1) * 2,
            Transform::Crop { .. } => unreachable!("Crop only changes a length"),
        }
    }

    /// Runs a byte-mutating transform from `src` into `dst`, replacing
    /// `dst`'s contents with exactly [`Transform::output_len`] bytes.
    fn write_into(&self, src: &[u8], dst: &mut Vec<u8>) {
        let out_len = self.output_len(src.len());
        dst.clear();
        dst.reserve(out_len);
        match self {
            Transform::TextTokenize => {
                // "Tokenize": fold pairs of bytes into one (dense ids); an
                // odd trailing byte folds to itself.
                let pairs = src.chunks_exact(2);
                let tail = pairs.remainder();
                dst.extend(pairs.map(|c| c[0].wrapping_add(c[1])));
                dst.extend_from_slice(tail);
            }
            Transform::ImageDecode => {
                // "Decode": expand each byte into an RGB-ish triple block,
                // cycling over the source until the target is reached. The
                // output is periodic, so expand one period and replicate.
                let period = (src.len() * 3).min(out_len);
                dst.resize(period, 0);
                for (rgb, &b) in dst.chunks_exact_mut(3).zip(src) {
                    rgb[0] = b;
                    rgb[1] = b.wrapping_mul(3);
                    rgb[2] = b.wrapping_add(7);
                }
                while dst.len() < out_len {
                    dst.extend_from_within(..period.min(out_len - dst.len()));
                }
            }
            Transform::Flip => {
                dst.extend_from_slice(src);
                dst.reverse();
            }
            // Keep the first byte of every 20-byte block ("keyframe").
            Transform::VideoKeyframe => dst.extend(src.iter().step_by(20)),
            // "Resample": duplicate with interpolation-ish mixing.
            Transform::AudioResample => {
                dst.extend(
                    src.windows(2)
                        .flat_map(|w| [w[0], w[0].wrapping_add(w[1]) / 2]),
                );
            }
            Transform::Crop { .. } => unreachable!("Crop only changes a length"),
        }
        debug_assert_eq!(dst.len(), out_len);
    }

    /// Runs a non-inflating byte-mutating transform in place on the
    /// working buffer; same bytes as [`Transform::write_into`] (the write
    /// index never passes the read index).
    fn apply_in_place(&self, buf: &mut Vec<u8>) {
        let n = buf.len();
        match self {
            Transform::Flip => buf.reverse(),
            Transform::TextTokenize => {
                for i in 0..n / 2 {
                    buf[i] = buf[2 * i].wrapping_add(buf[2 * i + 1]);
                }
                if n % 2 == 1 {
                    buf[n / 2] = buf[n - 1];
                }
            }
            Transform::VideoKeyframe => {
                for i in 0..n.div_ceil(20) {
                    buf[i] = buf[20 * i];
                }
            }
            _ => unreachable!("only non-inflating byte transforms run in place"),
        }
        buf.truncate(self.output_len(n));
    }
}

/// The reusable working buffers of the transform chain (see the module
/// docs): intermediates live here instead of in per-transform allocations.
/// Both buffers grow to the largest intermediate their owner's samples
/// need and are reused for every later sample.
#[derive(Debug, Default)]
pub struct TransformScratch {
    /// Holds the current intermediate while a chain runs.
    work: Vec<u8>,
    /// Output side of an inflating mid-chain transform; swapped with `work`.
    spare: Vec<u8>,
}

impl TransformScratch {
    /// Heap bytes the scratch pair currently holds (its high-water mark).
    pub fn capacity(&self) -> usize {
        self.work.capacity() + self.spare.capacity()
    }
}

/// `Crop` on a `len`-byte payload: updates the patch budget and returns
/// the new length, or `None` when the sample is already within budget.
fn crop(meta: &mut SampleMeta, max_patches: u32, len: usize) -> Option<usize> {
    if meta.image_patches <= max_patches {
        return None;
    }
    let keep = f64::from(max_patches) / f64::from(meta.image_patches.max(1));
    meta.image_patches = max_patches;
    // Clamp to the current length — an empty payload stays empty.
    Some(((len as f64 * keep) as usize).max(1).min(len))
}

/// The working-buffer chain (see the module docs).
fn run_chain(transforms: &[Transform], sample: &mut Sample, scratch: &mut TransformScratch) {
    if transforms.is_empty() {
        return;
    }
    let TransformScratch { work, spare } = scratch;
    let last_mutating = transforms.iter().rposition(Transform::mutates_bytes);
    // Whether the current bytes are in `work` (else in the payload view).
    let mut in_work = false;
    for (i, t) in transforms.iter().enumerate() {
        if let Transform::Crop { max_patches } = t {
            let len = if in_work {
                work.len()
            } else {
                sample.payload.len()
            };
            match crop(&mut sample.meta, *max_patches, len) {
                Some(new_len) if in_work => work.truncate(new_len),
                // Resize-only: narrow the view, keep the allocation.
                Some(new_len) => sample.payload = sample.payload.slice(..new_len),
                None => {}
            }
        } else if Some(i) == last_mutating {
            let src: &[u8] = if in_work { work } else { &sample.payload };
            let mut out = Vec::with_capacity(t.output_len(src.len()));
            t.write_into(src, &mut out);
            sample.payload = out.into();
            in_work = false;
        } else if !in_work {
            t.write_into(&sample.payload, work);
            in_work = true;
        } else if t.inflates() {
            t.write_into(work, spare);
            std::mem::swap(work, spare);
        } else {
            t.apply_in_place(work);
        }
    }
    sample.meta.raw_bytes = sample.payload.len() as u64;
}

/// An ordered pipeline of transforms with a per-source cost multiplier.
///
/// The multiplier models Fig 5b: identical pipelines cost wildly different
/// amounts across sources (resolution, codec, OCR density), spanning three
/// orders of magnitude.
#[derive(Debug, Clone, PartialEq)]
pub struct TransformPipeline {
    transforms: Vec<Transform>,
    /// Per-source cost multiplier (1.0 = nominal).
    pub cost_scale: f64,
}

impl TransformPipeline {
    /// Creates a pipeline from explicit transforms.
    pub fn new(transforms: Vec<Transform>, cost_scale: f64) -> Self {
        TransformPipeline {
            transforms,
            cost_scale: cost_scale.max(0.0),
        }
    }

    /// The canonical pipeline for a modality.
    pub fn for_modality(modality: Modality) -> Self {
        let transforms = match modality {
            Modality::Text => vec![Transform::TextTokenize],
            Modality::Image => vec![
                Transform::ImageDecode,
                Transform::Crop { max_patches: 65536 },
                Transform::Flip,
                Transform::TextTokenize,
            ],
            Modality::Video => vec![
                Transform::VideoKeyframe,
                Transform::ImageDecode,
                Transform::Crop { max_patches: 65536 },
                Transform::TextTokenize,
            ],
            Modality::Audio => vec![Transform::AudioResample, Transform::TextTokenize],
        };
        TransformPipeline::new(transforms, 1.0)
    }

    /// The transforms in order.
    pub fn transforms(&self) -> &[Transform] {
        &self.transforms
    }

    /// Total virtual-time cost for one sample.
    pub fn cost_ns(&self, meta: &SampleMeta) -> u64 {
        let base: u64 = self.transforms.iter().map(|t| t.cost_ns(meta)).sum();
        (base as f64 * self.cost_scale) as u64
    }

    /// Applies all transforms in order over a throwaway scratch. Callers
    /// that transform many samples keep a [`TransformScratch`] and use
    /// [`TransformPipeline::apply_with`].
    pub fn apply(&self, sample: &mut Sample) {
        self.apply_with(sample, &mut TransformScratch::default());
    }

    /// Applies all transforms in order as one working-buffer chain (see
    /// the module docs), keeping intermediates in the caller's `scratch`.
    pub fn apply_with(&self, sample: &mut Sample, scratch: &mut TransformScratch) {
        run_chain(&self.transforms, sample, scratch);
    }

    /// Splits the pipeline at `idx`: `(head, tail)`. Used by transformation
    /// reordering (Pecan-style "deferred decode": ship the sample after
    /// `head`, run `tail` at the Data Constructor).
    pub fn split_at(&self, idx: usize) -> (TransformPipeline, TransformPipeline) {
        let idx = idx.min(self.transforms.len());
        (
            TransformPipeline::new(self.transforms[..idx].to_vec(), self.cost_scale),
            TransformPipeline::new(self.transforms[idx..].to_vec(), self.cost_scale),
        )
    }

    /// The split index that minimizes the bytes shipped from loader to
    /// constructor (Sec 6.2's transformation-reordering trick,
    /// generalized): the earliest prefix whose cumulative payload
    /// inflation is minimal.
    ///
    /// For the canonical pipelines this lands where intuition says:
    /// image ships raw JPEG (decode deferred entirely), video runs
    /// keyframe extraction first (it *shrinks* 20×) then defers the
    /// decode, text tokenizes loader-side (tokens are denser than UTF-8),
    /// audio ships raw (resampling inflates 2×).
    pub fn min_transfer_index(&self) -> usize {
        let mut best = 0usize;
        let mut best_product = 1.0f64;
        let mut product = 1.0f64;
        for (i, t) in self.transforms.iter().enumerate() {
            product *= t.inflation();
            if product < best_product {
                best_product = product;
                best = i + 1;
            }
        }
        best
    }

    /// Convenience: [`TransformPipeline::split_at`] the
    /// [`TransformPipeline::min_transfer_index`].
    pub fn split_for_transfer(&self) -> (TransformPipeline, TransformPipeline) {
        self.split_at(self.min_transfer_index())
    }

    /// The metadata [`TransformPipeline::apply`] leaves on a sample with
    /// metadata `meta` and a `len`-byte payload, computed from lengths
    /// alone: the chain's own `Crop` and output-length arithmetic, no
    /// payload bytes touched. A loader that buffers samples before their
    /// pipeline's tail reports what each will be once popped.
    pub fn settled_meta(&self, mut meta: SampleMeta, len: usize) -> SampleMeta {
        if self.transforms.is_empty() {
            return meta;
        }
        let len = self.transforms.iter().fold(len, |len, t| match t {
            Transform::Crop { max_patches } => crop(&mut meta, *max_patches, len).unwrap_or(len),
            t => t.output_len(len),
        });
        meta.raw_bytes = len as u64;
        meta
    }

    /// Whether the pipeline has no transforms.
    pub fn is_empty(&self) -> bool {
        self.transforms.is_empty()
    }
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sample::SourceId;

    fn meta(modality: Modality, text: u32, img: u32) -> SampleMeta {
        SampleMeta {
            sample_id: 9,
            source: SourceId(1),
            modality,
            text_tokens: text,
            image_patches: img,
            raw_bytes: 4096,
        }
    }

    #[test]
    fn cost_ratios_match_paper() {
        // Per output token: audio = 4x image = 300x text.
        let m = meta(Modality::Text, 1000, 0);
        let text = Transform::TextTokenize.cost_ns(&m) as f64;
        let m_img = meta(Modality::Image, 0, 1000);
        let image = Transform::ImageDecode.cost_ns(&m_img) as f64;
        let m_audio = meta(Modality::Audio, 1000, 0);
        let audio = Transform::AudioResample.cost_ns(&m_audio) as f64;
        let img_ratio = image / text;
        let audio_ratio = audio / text;
        assert!(
            (70.0..80.0).contains(&img_ratio),
            "image/text = {img_ratio}"
        );
        assert!(
            (280.0..320.0).contains(&audio_ratio),
            "audio/text = {audio_ratio}"
        );
        assert!(
            (3.5..4.5).contains(&(audio / image)),
            "audio/image = {}",
            audio / image
        );
    }

    #[test]
    fn tokenize_shrinks_payload() {
        let mut s = Sample::synthesize(meta(Modality::Text, 100, 0));
        let before = s.payload.len();
        Transform::TextTokenize.apply(&mut s);
        assert_eq!(s.payload.len(), before.div_ceil(2));
        assert_eq!(s.meta.raw_bytes, s.payload.len() as u64);
    }

    #[test]
    fn decode_inflates_payload() {
        let mut s = Sample::synthesize(meta(Modality::Image, 10, 500));
        let before = s.payload.len();
        Transform::ImageDecode.apply(&mut s);
        assert!(
            s.payload.len() > before * 8,
            "{} -> {}",
            before,
            s.payload.len()
        );
    }

    #[test]
    fn crop_limits_patches() {
        let mut s = Sample::synthesize(meta(Modality::Image, 10, 5000));
        Transform::Crop { max_patches: 1000 }.apply(&mut s);
        assert_eq!(s.meta.image_patches, 1000);
        // Crop below the current count is a no-op.
        let mut s2 = Sample::synthesize(meta(Modality::Image, 10, 100));
        let len = s2.payload.len();
        Transform::Crop { max_patches: 1000 }.apply(&mut s2);
        assert_eq!(s2.meta.image_patches, 100);
        assert_eq!(s2.payload.len(), len);
    }

    #[test]
    fn crop_is_a_zero_copy_slice() {
        // Resize-only transforms must narrow the shared view, not copy.
        let mut s = Sample::synthesize(meta(Modality::Image, 10, 5000));
        let before = s.payload.clone();
        Transform::Crop { max_patches: 1000 }.apply(&mut s);
        assert!(s.payload.len() < before.len());
        assert!(
            bytes::Bytes::ptr_eq(&before, &s.payload),
            "crop copied the payload instead of slicing it"
        );
    }

    #[test]
    fn crop_of_empty_payload_is_a_noop() {
        // Regression: an empty payload with an over-budget patch count
        // must not panic — the pre-Bytes `truncate` path was a no-op.
        let mut m = meta(Modality::Image, 0, 100);
        m.raw_bytes = 0;
        let mut s = Sample::synthesize(m);
        assert!(s.payload.is_empty());
        Transform::Crop { max_patches: 10 }.apply(&mut s);
        assert!(s.payload.is_empty());
        assert_eq!(s.meta.image_patches, 10);
    }

    #[test]
    fn flip_is_an_involution() {
        let mut s = Sample::synthesize(meta(Modality::Image, 10, 100));
        let orig = s.payload.clone();
        Transform::Flip.apply(&mut s);
        assert_ne!(s.payload, orig);
        Transform::Flip.apply(&mut s);
        assert_eq!(s.payload, orig);
    }

    #[test]
    fn pipeline_cost_scales() {
        let m = meta(Modality::Image, 100, 2000);
        let p1 = TransformPipeline::for_modality(Modality::Image);
        let p2 = TransformPipeline::new(p1.transforms().to_vec(), 10.0);
        assert!(p2.cost_ns(&m) > p1.cost_ns(&m) * 9);
    }

    #[test]
    fn pipeline_split_preserves_transforms() {
        let p = TransformPipeline::for_modality(Modality::Video);
        let n = p.transforms().len();
        let (head, tail) = p.split_at(1);
        assert_eq!(head.transforms().len(), 1);
        assert_eq!(tail.transforms().len(), n - 1);
        // Out-of-range splits clamp.
        let (all, none) = p.split_at(99);
        assert_eq!(all.transforms().len(), n);
        assert!(none.transforms().is_empty());
    }

    #[test]
    fn min_transfer_index_per_modality() {
        // Image: decode inflates 12x, so ship raw (defer everything).
        let img = TransformPipeline::for_modality(Modality::Image);
        assert_eq!(img.min_transfer_index(), 0);
        // Video: keyframe extraction shrinks 20x — run it, then defer.
        let vid = TransformPipeline::for_modality(Modality::Video);
        assert_eq!(vid.min_transfer_index(), 1);
        assert_eq!(
            vid.split_for_transfer().0.transforms(),
            &[Transform::VideoKeyframe]
        );
        // Text: tokens are denser than UTF-8 — tokenize loader-side.
        let txt = TransformPipeline::for_modality(Modality::Text);
        assert_eq!(txt.min_transfer_index(), 1);
        assert!(txt.split_for_transfer().1.is_empty());
        // Audio: resampling inflates — ship raw.
        let aud = TransformPipeline::for_modality(Modality::Audio);
        assert_eq!(aud.min_transfer_index(), 0);
    }

    #[test]
    fn split_for_transfer_reduces_shipped_bytes() {
        // Applying only the head leaves a strictly smaller payload than
        // applying the whole pipeline, for inflating modalities.
        for modality in [Modality::Image, Modality::Video] {
            let p = TransformPipeline::for_modality(modality);
            let (head, tail) = p.split_for_transfer();
            let mut shipped = Sample::synthesize(meta(modality, 64, 3000));
            head.apply(&mut shipped);
            let ship_bytes = shipped.payload.len();
            let mut full = Sample::synthesize(meta(modality, 64, 3000));
            p.apply(&mut full);
            assert!(
                ship_bytes < full.payload.len(),
                "{modality:?}: ship {ship_bytes} vs full {}",
                full.payload.len()
            );
            // head ∘ tail ≡ full pipeline.
            tail.apply(&mut shipped);
            assert_eq!(shipped.payload, full.payload);
            assert_eq!(shipped.meta, full.meta);
        }
    }

    #[test]
    fn modality_pipelines_ordering() {
        let m_txt = meta(Modality::Text, 512, 0);
        let m_img = meta(Modality::Image, 64, 2048);
        let m_aud = meta(Modality::Audio, 2048, 0);
        let text = TransformPipeline::for_modality(Modality::Text).cost_ns(&m_txt);
        let image = TransformPipeline::for_modality(Modality::Image).cost_ns(&m_img);
        let audio = TransformPipeline::for_modality(Modality::Audio).cost_ns(&m_aud);
        assert!(text < image, "text {text} < image {image}");
        assert!(image < audio, "image {image} < audio {audio}");
    }

    #[test]
    fn video_pipeline_applies_end_to_end() {
        let mut s = Sample::synthesize(meta(Modality::Video, 100, 4000));
        TransformPipeline::for_modality(Modality::Video).apply(&mut s);
        assert!(!s.payload.is_empty());
    }

    const ALL: [Transform; 6] = [
        Transform::TextTokenize,
        Transform::ImageDecode,
        Transform::Crop { max_patches: 40 },
        Transform::Flip,
        Transform::VideoKeyframe,
        Transform::AudioResample,
    ];

    #[test]
    fn chain_matches_reference_for_every_short_sequence() {
        // Every chain of up to three transforms, over empty, 1-byte, odd
        // and block-boundary payloads, on one scratch reused throughout.
        let mut chains: Vec<Vec<Transform>> = vec![vec![]];
        for a in &ALL {
            chains.push(vec![a.clone()]);
            for b in &ALL {
                chains.push(vec![a.clone(), b.clone()]);
                for c in &ALL {
                    chains.push(vec![a.clone(), b.clone(), c.clone()]);
                }
            }
        }
        let mut scratch = TransformScratch::default();
        for chain in chains {
            let pipeline = TransformPipeline::new(chain, 1.0);
            for raw_bytes in [0u64, 1, 2, 3, 19, 20, 21, 40, 41, 257] {
                let mut m = meta(Modality::Image, 5, 100);
                m.raw_bytes = raw_bytes;
                let mut got = Sample::synthesize(m);
                let mut want = got.clone();
                pipeline.apply_with(&mut got, &mut scratch);
                reference::apply_all(pipeline.transforms(), &mut want);
                let case = format!("{:?} over {raw_bytes} B", pipeline.transforms());
                assert_eq!(got.payload, want.payload, "{case}");
                assert_eq!(got.meta, want.meta, "{case}");
            }
        }
    }

    #[test]
    fn decode_cap_matches_reference() {
        // Past 87,381 source bytes the 1 MiB cap cuts the last cycle short
        // (and 2^20 is not a multiple of 3: the last triple overshoots).
        let mut got = Sample {
            meta: meta(Modality::Image, 0, 10),
            payload: (0..100_000u32)
                .map(|i| (i * 31) as u8)
                .collect::<Vec<_>>()
                .into(),
        };
        let mut want = got.clone();
        Transform::ImageDecode.apply(&mut got);
        reference::apply(&Transform::ImageDecode, &mut want);
        assert_eq!(got.payload.len(), (1 << 20) + 2);
        assert_eq!(got.payload, want.payload);
        assert_eq!(got.meta, want.meta);
    }

    /// FNV-1a over the outputs (payload, byte size, patch budget) of a
    /// modality's canonical pipeline on a fixed grid of metas.
    fn modality_digest(modality: Modality) -> u64 {
        fn fnv(h: &mut u64, bytes: &[u8]) {
            for b in bytes {
                *h ^= u64::from(*b);
                *h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
        let pipeline = TransformPipeline::for_modality(modality);
        let mut scratch = TransformScratch::default();
        let mut h = 0xCBF2_9CE4_8422_2325u64;
        for (i, raw_bytes) in [0u64, 1, 2, 3, 19, 20, 21, 41, 1000, 4097, 8192, 65_536]
            .into_iter()
            .enumerate()
        {
            for image_patches in [0u32, 300, 100_000] {
                let mut s = Sample::synthesize(SampleMeta {
                    sample_id: 1 + i as u64,
                    source: SourceId(2),
                    modality,
                    text_tokens: 17,
                    image_patches,
                    raw_bytes,
                });
                pipeline.apply_with(&mut s, &mut scratch);
                fnv(&mut h, &s.payload);
                fnv(&mut h, &s.meta.raw_bytes.to_le_bytes());
                fnv(&mut h, &s.meta.image_patches.to_le_bytes());
            }
        }
        h
    }

    #[test]
    fn canonical_pipeline_outputs_match_golden_digests() {
        // Recorded with the per-transform allocating bodies (commit
        // 1eee5f7): the streams every benchmark workload and serve test
        // delivers must not change with how the chain is executed.
        for (modality, golden) in [
            (Modality::Text, 0xf263_1f78_586f_680f_u64),
            (Modality::Image, 0x9463_5bc5_3f02_2de1),
            (Modality::Video, 0x77bc_b12f_213d_3098),
            (Modality::Audio, 0x71d0_3503_7542_515b),
        ] {
            assert_eq!(modality_digest(modality), golden, "{modality:?}");
        }
    }

    #[test]
    fn one_exact_allocation_leaves_the_chain() {
        // The image chain's two 12x intermediates stay in the scratch; the
        // payload that comes out owns a buffer of exactly its length.
        let pipeline = TransformPipeline::for_modality(Modality::Image);
        let mut scratch = TransformScratch::default();
        for raw_bytes in [8192u64, 100, 8192, 4097] {
            let mut m = meta(Modality::Image, 10, 300);
            m.raw_bytes = raw_bytes;
            let mut s = Sample::synthesize(m);
            pipeline.apply_with(&mut s, &mut scratch);
            let len = s.payload.len();
            assert_eq!(len as u64, raw_bytes * 12 / 2);
            let backing = s.payload.try_into_mut().expect("sole view");
            assert_eq!((backing.len(), backing.capacity()), (len, len));
            // High-water mark of the decode output, never more.
            assert_eq!(scratch.capacity(), 8192 * 12);
        }
        // A single byte-mutating transform never touches the scratch.
        let mut scratch = TransformScratch::default();
        let mut s = Sample::synthesize(meta(Modality::Text, 100, 0));
        TransformPipeline::for_modality(Modality::Text).apply_with(&mut s, &mut scratch);
        assert_eq!(scratch.capacity(), 0);
    }
}
