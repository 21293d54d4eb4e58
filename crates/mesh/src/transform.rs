//! Parallelism transformations: how a collated microbatch becomes the exact
//! tensor slice each rank consumes (the "Parallelism Transformation" stage
//! of the paper's Fig 1 pipeline).

use std::ops::Range;

use crate::mesh::{Axis, DeviceMesh, Rank};

/// What a given rank receives for a microbatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeliveryKind {
    /// Full payload (tokens/pixels) — e.g. PP stage 0, TP rank 0.
    Payload,
    /// Metadata only (shapes, position ids) — later PP stages.
    MetadataOnly,
    /// Nothing — the trainer broadcasts to this rank internally.
    Elided,
}

/// How CP splits a sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CpStyle {
    /// Contiguous equal chunks.
    Contiguous,
    /// Zig-zag: rank `i` gets chunks `i` and `2·cp−1−i`, balancing causal
    /// attention cost across ranks (early chunks attend to little, late
    /// chunks to everything).
    ZigZag,
}

/// Splits `[0, seq_len)` into per-CP-rank index ranges, contiguous style.
/// The first `seq_len % cp` ranks get one extra token.
pub fn cp_partition(seq_len: u64, cp: u32) -> Vec<Range<u64>> {
    (0..cp.max(1))
        .map(|coord| cp_range(seq_len, cp, coord))
        .collect()
}

/// The range CP rank `coord` owns in [`cp_partition`]`(seq_len, cp)`,
/// computed without building the others.
pub fn cp_range(seq_len: u64, cp: u32, coord: u32) -> Range<u64> {
    let cp = u64::from(cp.max(1));
    let coord = u64::from(coord);
    debug_assert!(coord < cp, "CP coordinate {coord} outside {cp} ranks");
    let (base, extra) = (seq_len / cp, seq_len % cp);
    let start = coord * base + coord.min(extra);
    start..start + base + u64::from(coord < extra)
}

/// Zig-zag split: returns, per CP rank, the *pair* of ranges it owns.
pub fn zigzag_partition(seq_len: u64, cp: u32) -> Vec<(Range<u64>, Range<u64>)> {
    let cp = cp.max(1);
    let chunks = cp_partition(seq_len, cp * 2);
    (0..cp as usize)
        .map(|i| {
            let j = (2 * cp as usize - 1) - i;
            (chunks[i].clone(), chunks[j].clone())
        })
        .collect()
}

/// Causal-attention cost of owning token range `[r)` of a sequence of
/// `seq_len` tokens: sum over owned positions `p` of `p + 1` (each position
/// attends to its prefix). Used to verify zig-zag balance.
pub fn causal_cost(ranges: &[Range<u64>]) -> u64 {
    ranges
        .iter()
        .map(|r| {
            // Sum of (p+1) for p in [start, end).
            let n = r.end - r.start;
            let first = r.start + 1;
            let last = r.end;
            n * (first + last) / 2
        })
        .sum()
}

/// Decides what each rank receives for data distributed to a DP/CP bucket,
/// honoring `broadcast_at` elisions and PP metadata filtering.
///
/// Rules (paper Sec 4.2 and Fig 6):
/// - A rank whose coordinate is nonzero on any broadcast axis is `Elided`.
/// - A rank on PP stage > 0 gets `MetadataOnly` (it receives activations
///   from the previous stage, but needs shapes to pre-allocate).
/// - Everyone else gets `Payload`.
pub fn delivery_kind(mesh: &DeviceMesh, rank: Rank, broadcast_axes: &[Axis]) -> DeliveryKind {
    let elided = broadcast_axes
        .iter()
        .any(|a| mesh.coord(rank, *a).map(|c| c != 0).unwrap_or(false));
    if elided {
        return DeliveryKind::Elided;
    }
    match mesh.coord(rank, Axis::PP) {
        Ok(stage) if stage > 0 => DeliveryKind::MetadataOnly,
        _ => DeliveryKind::Payload,
    }
}

/// Counts deliveries by kind for a whole mesh (the quantity behind Fig 6's
/// memory-saving diagram and Fig 17a's redundancy grid).
pub fn delivery_census(mesh: &DeviceMesh, broadcast_axes: &[Axis]) -> (u32, u32, u32) {
    let mut payload = 0;
    let mut metadata = 0;
    let mut elided = 0;
    for r in 0..mesh.world_size() {
        match delivery_kind(mesh, r, broadcast_axes) {
            DeliveryKind::Payload => payload += 1,
            DeliveryKind::MetadataOnly => metadata += 1,
            DeliveryKind::Elided => elided += 1,
        }
    }
    (payload, metadata, elided)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contiguous_partition_covers_sequence() {
        for (seq, cp) in [(100u64, 4u32), (101, 4), (7, 8), (0, 3), (1, 1)] {
            let parts = cp_partition(seq, cp);
            assert_eq!(parts.len(), cp.max(1) as usize);
            let total: u64 = parts.iter().map(|r| r.end - r.start).sum();
            assert_eq!(total, seq, "seq {seq} cp {cp}");
            // Contiguity.
            for w in parts.windows(2) {
                assert_eq!(w[0].end, w[1].start);
            }
            // Near-equal sizes.
            let sizes: Vec<u64> = parts.iter().map(|r| r.end - r.start).collect();
            let max = sizes.iter().max().unwrap();
            let min = sizes.iter().min().unwrap();
            assert!(max - min <= 1);
        }
    }

    #[test]
    fn zigzag_covers_sequence_exactly_once() {
        let seq = 1024u64;
        let cp = 4u32;
        let pairs = zigzag_partition(seq, cp);
        let mut owned = vec![false; seq as usize];
        for (a, b) in &pairs {
            for p in a.clone().chain(b.clone()) {
                assert!(!owned[p as usize], "token {p} owned twice");
                owned[p as usize] = true;
            }
        }
        assert!(owned.into_iter().all(|o| o));
    }

    #[test]
    fn zigzag_balances_causal_cost() {
        let seq = 8192u64;
        let cp = 4u32;
        // Contiguous: rank cp-1 owns the most expensive suffix.
        let contiguous = cp_partition(seq, cp);
        let contig_costs: Vec<u64> = contiguous
            .iter()
            .map(|r| causal_cost(&[r.clone()]))
            .collect();
        let contig_imbalance =
            *contig_costs.iter().max().unwrap() as f64 / *contig_costs.iter().min().unwrap() as f64;

        let zz = zigzag_partition(seq, cp);
        let zz_costs: Vec<u64> = zz
            .iter()
            .map(|(a, b)| causal_cost(&[a.clone(), b.clone()]))
            .collect();
        let zz_imbalance =
            *zz_costs.iter().max().unwrap() as f64 / *zz_costs.iter().min().unwrap() as f64;

        assert!(contig_imbalance > 3.0, "contig = {contig_imbalance}");
        assert!(zz_imbalance < 1.05, "zigzag = {zz_imbalance}");
    }

    #[test]
    fn delivery_rules() {
        let mesh = DeviceMesh::pp_dp_cp_tp(2, 1, 1, 2).unwrap();
        // Rank 0: PP0 TP0 → payload. Rank 1: PP0 TP1 → elided under
        // broadcast_at(TP). Rank 2: PP1 TP0 → metadata.
        assert_eq!(delivery_kind(&mesh, 0, &[Axis::TP]), DeliveryKind::Payload);
        assert_eq!(delivery_kind(&mesh, 1, &[Axis::TP]), DeliveryKind::Elided);
        assert_eq!(
            delivery_kind(&mesh, 2, &[Axis::TP]),
            DeliveryKind::MetadataOnly
        );
        // Without broadcast elision, TP1 fetches a payload copy.
        assert_eq!(delivery_kind(&mesh, 1, &[]), DeliveryKind::Payload);
    }

    #[test]
    fn census_counts_sum_to_world() {
        let mesh = DeviceMesh::pp_dp_cp_tp(4, 3, 2, 2).unwrap();
        let (p, m, e) = delivery_census(&mesh, &[Axis::TP]);
        assert_eq!(p + m + e, mesh.world_size());
        // TP elision removes exactly half the 2-way-TP world.
        assert_eq!(e, mesh.world_size() / 2);
        // Payload only on PP0 of the remaining.
        assert_eq!(p, mesh.world_size() / 2 / 4);
    }

    #[test]
    fn causal_cost_of_whole_sequence() {
        // Sum 1..=n.
        assert_eq!(causal_cost(&[0..10]), 55);
        assert_eq!(causal_cost(&[5..10]), 6 + 7 + 8 + 9 + 10);
        assert_eq!(causal_cost(&[]), 0);
    }
}
