//! The materialised position ids a `PackedSequence` carried before they
//! became derived: one `Vec<u32>` per sequence, built in `pack`. Kept as
//! the reference only — compiled into `msd_core`'s unit tests, and
//! included by path from `tests/prop_codec.rs` for the differential
//! proptest.

use super::Segment;

/// Position ids the way `pack` built them: `0..tokens` per segment, then
/// `padding` zeros.
pub fn position_ids(segments: &[Segment], padding: u64) -> Vec<u32> {
    let tokens: u64 = segments.iter().map(|s| s.tokens).sum();
    let mut ids = Vec::with_capacity((tokens + padding) as usize);
    for seg in segments {
        ids.extend(0..seg.tokens as u32);
    }
    ids.extend(std::iter::repeat_n(0u32, padding as usize));
    ids
}
