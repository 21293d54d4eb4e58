//! Training samples and their metadata.
//!
//! A *sample* is one training example from one source (an image–text pair,
//! a text document, a video clip). MegaScale-Data's Planner operates purely
//! on [`SampleMeta`] — lightweight descriptors (token counts, byte sizes)
//! gathered from Source Loader buffers — while payload bytes stay inside
//! the loaders. That split is what makes centralized planning cheap.

use bytes::Bytes;

/// Identifies a data source (one logical dataset file/collection).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SourceId(pub u32);

impl std::fmt::Display for SourceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "src{}", self.0)
    }
}

/// The modality of a source's payloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Modality {
    /// Plain text (tokenized).
    Text,
    /// Images (decoded to patches, ViT-style).
    Image,
    /// Video (keyframe-extracted, then patchified).
    Video,
    /// Audio (resampled + encoded).
    Audio,
}

impl Modality {
    /// All modalities, for iteration in tests and reports.
    pub const ALL: [Modality; 4] = [
        Modality::Text,
        Modality::Image,
        Modality::Video,
        Modality::Audio,
    ];

    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            Modality::Text => "text",
            Modality::Image => "image",
            Modality::Video => "video",
            Modality::Audio => "audio",
        }
    }
}

/// Lightweight, planner-visible descriptor of one sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SampleMeta {
    /// Globally unique sample id.
    pub sample_id: u64,
    /// Originating source.
    pub source: SourceId,
    /// Modality of the payload.
    pub modality: Modality,
    /// Text tokens after tokenization.
    pub text_tokens: u32,
    /// Image patches after encoding (0 for pure text).
    pub image_patches: u32,
    /// Raw payload size in bytes before transformation.
    pub raw_bytes: u64,
}

impl SampleMeta {
    /// Total sequence length this sample contributes to the LLM backbone:
    /// interleaved image-patch tokens plus text tokens (Sec 2.3).
    pub fn total_tokens(&self) -> u64 {
        u64::from(self.text_tokens) + u64::from(self.image_patches)
    }

    /// Encoder-visible tokens (image patches only).
    pub fn encoder_tokens(&self) -> u64 {
        u64::from(self.image_patches)
    }
}

/// A materialized sample: metadata plus payload bytes.
///
/// The payload is a [`Bytes`] view, so a sample read from storage is an
/// O(1) slice of the decoded block buffer, and every later hop (loader
/// buffer → pop → constructor → serving client) moves the same allocation
/// by refcount. Cloning a `Sample` never copies payload bytes.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// The descriptor.
    pub meta: SampleMeta,
    /// Raw (or transformed) payload bytes (shared, immutable).
    pub payload: Bytes,
}

impl Sample {
    /// Creates a sample whose payload is deterministically derived from its
    /// id, sized to `meta.raw_bytes` (capped to keep tests fast).
    pub fn synthesize(meta: SampleMeta) -> Self {
        let mut payload = Vec::with_capacity(Self::synthesized_len(&meta));
        Self::synthesize_payload_into(&meta, &mut payload);
        Sample {
            meta,
            payload: payload.into(),
        }
    }

    /// Payload length [`Sample::synthesize`] produces for `meta` — lets
    /// callers lease a right-sized buffer before filling it.
    pub fn synthesized_len(meta: &SampleMeta) -> usize {
        meta.raw_bytes.min(1 << 16) as usize
    }

    /// Appends the deterministic synthetic payload for `meta` into a
    /// caller-owned buffer. Loaders on the hot synthetic path lease the
    /// buffer from a pool and freeze it themselves, so the fill logic
    /// stays here while the allocation policy stays with the caller.
    /// Byte-for-byte identical to what [`Sample::synthesize`] produces.
    pub fn synthesize_payload_into(meta: &SampleMeta, payload: &mut Vec<u8>) {
        let len = Self::synthesized_len(meta);
        payload.reserve(len);
        let mut x = meta.sample_id.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        for _ in 0..len {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            payload.push(x as u8);
        }
    }
}

/// A zero-filled payload of `len` bytes, sliced from one process-wide
/// shared template (lengths beyond the template fall back to a fresh
/// allocation). Synthetic and test paths that used to build
/// `vec![0u8; len]` per sample use this instead, so N dummy samples cost
/// one allocation plus N refcount bumps.
pub fn zeroed_payload(len: usize) -> Bytes {
    const TEMPLATE_LEN: usize = 1 << 16;
    static TEMPLATE: std::sync::OnceLock<Bytes> = std::sync::OnceLock::new();
    if len > TEMPLATE_LEN {
        return Bytes::from(vec![0u8; len]);
    }
    TEMPLATE
        .get_or_init(|| Bytes::from(vec![0u8; TEMPLATE_LEN]))
        .slice(..len)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta(text: u32, img: u32) -> SampleMeta {
        SampleMeta {
            sample_id: 1,
            source: SourceId(0),
            modality: Modality::Image,
            text_tokens: text,
            image_patches: img,
            raw_bytes: 128,
        }
    }

    #[test]
    fn token_totals() {
        let m = meta(30, 70);
        assert_eq!(m.total_tokens(), 100);
        assert_eq!(m.encoder_tokens(), 70);
    }

    #[test]
    fn synthesized_payload_is_deterministic() {
        let a = Sample::synthesize(meta(1, 2));
        let b = Sample::synthesize(meta(1, 2));
        assert_eq!(a, b);
        assert_eq!(a.payload.len(), 128);
    }

    #[test]
    fn payload_size_is_capped() {
        let mut m = meta(1, 2);
        m.raw_bytes = 1 << 40;
        let s = Sample::synthesize(m);
        assert_eq!(s.payload.len(), 1 << 16);
    }

    #[test]
    fn modality_labels() {
        assert_eq!(Modality::ALL.len(), 4);
        assert_eq!(Modality::Video.label(), "video");
    }

    #[test]
    fn source_display() {
        assert_eq!(SourceId(17).to_string(), "src17");
    }
}
