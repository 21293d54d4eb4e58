//! Balancing methods behind the `balance(method, ...)` primitive.
//!
//! Three methods, trading quality for cost (Sec 4.2):
//!
//! - [`BalanceMethod::Greedy`] — longest-processing-time binpacking:
//!   sort descending, place each item into the currently lightest bin.
//! - [`BalanceMethod::KarmarkarKarp`] — k-way largest differencing; better
//!   partitions on adversarial inputs at higher planning cost.
//! - [`BalanceMethod::Interleave`] — serpentine round-robin after a sort;
//!   cheapest, preserves more of the original order (the "interleaved"
//!   strategy used for encoder images in Fig 9).

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// The balancing algorithm to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BalanceMethod {
    /// Greedy LPT binpacking.
    Greedy,
    /// Karmarkar–Karp largest differencing (k-way).
    KarmarkarKarp,
    /// Sorted serpentine round-robin.
    Interleave,
}

impl BalanceMethod {
    /// All methods, for sweeps.
    pub const ALL: [BalanceMethod; 3] = [
        BalanceMethod::Greedy,
        BalanceMethod::KarmarkarKarp,
        BalanceMethod::Interleave,
    ];

    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            BalanceMethod::Greedy => "greedy",
            BalanceMethod::KarmarkarKarp => "karmarkar-karp",
            BalanceMethod::Interleave => "interleave",
        }
    }
}

/// Result of a balance call: `bins[b]` holds indices into the input slice.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Assignment {
    /// Item indices per bin.
    pub bins: Vec<Vec<usize>>,
}

impl Assignment {
    /// Cost sum of each bin.
    pub fn sums(&self, costs: &[f64]) -> Vec<f64> {
        self.bins
            .iter()
            .map(|bin| bin.iter().map(|i| costs[*i]).sum())
            .collect()
    }

    /// Bin index of each item (inverse mapping).
    pub fn item_bins(&self, n_items: usize) -> Vec<usize> {
        let mut out = vec![usize::MAX; n_items];
        for (b, bin) in self.bins.iter().enumerate() {
            for i in bin {
                out[*i] = b;
            }
        }
        out
    }
}

/// Partitions `costs` into `bins` bins with the given method.
///
/// Every input index appears in exactly one bin. `bins == 0` yields an
/// empty assignment.
pub fn balance(costs: &[f64], bins: usize, method: BalanceMethod) -> Assignment {
    if bins == 0 {
        return Assignment { bins: Vec::new() };
    }
    match method {
        BalanceMethod::Greedy => greedy(costs, bins),
        BalanceMethod::KarmarkarKarp => karmarkar_karp(costs, bins),
        BalanceMethod::Interleave => interleave(costs, bins),
    }
}

/// Indices sorted by descending cost (ties: ascending index, stable).
fn desc_order(costs: &[f64]) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..costs.len()).collect();
    idx.sort_by(|a, b| {
        costs[*b]
            .partial_cmp(&costs[*a])
            .unwrap_or(Ordering::Equal)
            .then(a.cmp(b))
    });
    idx
}

fn greedy(costs: &[f64], bins: usize) -> Assignment {
    // Min-heap over (load, bin): BinaryHeap is a max-heap, invert ordering.
    #[derive(PartialEq)]
    struct Slot(f64, usize);
    impl Eq for Slot {}
    impl PartialOrd for Slot {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for Slot {
        fn cmp(&self, other: &Self) -> Ordering {
            other
                .0
                .partial_cmp(&self.0)
                .unwrap_or(Ordering::Equal)
                .then(other.1.cmp(&self.1))
        }
    }
    let mut heap: BinaryHeap<Slot> = (0..bins).map(|b| Slot(0.0, b)).collect();
    let order = desc_order(costs);
    let placed: Vec<usize> = order
        .iter()
        .map(|&i| {
            let Slot(load, b) = heap.pop().expect("bins > 0");
            heap.push(Slot(load + costs[i], b));
            b
        })
        .collect();
    collect_bins(order.iter().copied().zip(placed), bins)
}

fn interleave(costs: &[f64], bins: usize) -> Assignment {
    let order = desc_order(costs);
    let placed = order.iter().enumerate().map(|(pos, &i)| {
        let round = pos / bins;
        let off = pos % bins;
        // Serpentine: reverse direction on odd rounds so the bin that got
        // the largest item of a round gets the smallest of the next.
        let b = if round % 2 == 0 { off } else { bins - 1 - off };
        (i, b)
    });
    collect_bins(placed, bins)
}

/// The bins of `placed`, `(item, bin)` pairs in placement order, each bin
/// allocated once at its final size and listing its items in the order
/// they were placed.
fn collect_bins(placed: impl Iterator<Item = (usize, usize)> + Clone, bins: usize) -> Assignment {
    let mut sizes = vec![0; bins];
    for (_, b) in placed.clone() {
        sizes[b] += 1;
    }
    let mut out: Vec<Vec<usize>> = sizes.into_iter().map(Vec::with_capacity).collect();
    for (i, b) in placed {
        out[b].push(i);
    }
    Assignment { bins: out }
}

/// K-way Karmarkar–Karp largest differencing.
///
/// Each heap entry is a partial solution: `k` sub-bins with their sums,
/// sorted descending by sum. Combining two entries matches the largest
/// sub-bin of one with the smallest of the other, cancelling differences.
fn karmarkar_karp(costs: &[f64], bins: usize) -> Assignment {
    struct Entry {
        /// Sub-bins sorted by descending sum.
        parts: Vec<(f64, Vec<usize>)>,
        /// Spread = max sum − min sum (the differencing key).
        spread: f64,
        /// Tie-break for determinism.
        seq: usize,
    }
    impl PartialEq for Entry {
        fn eq(&self, other: &Self) -> bool {
            self.spread == other.spread && self.seq == other.seq
        }
    }
    impl Eq for Entry {}
    impl PartialOrd for Entry {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for Entry {
        fn cmp(&self, other: &Self) -> Ordering {
            // Max-heap by spread (largest differencing first).
            self.spread
                .partial_cmp(&other.spread)
                .unwrap_or(Ordering::Equal)
                .then(other.seq.cmp(&self.seq))
        }
    }

    if costs.is_empty() {
        return Assignment {
            bins: vec![Vec::new(); bins],
        };
    }
    let mut seq = 0usize;
    let mut heap: BinaryHeap<Entry> = BinaryHeap::new();
    for (i, c) in costs.iter().enumerate() {
        let mut parts = vec![(0.0, Vec::new()); bins];
        parts[0] = (*c, vec![i]);
        seq += 1;
        heap.push(Entry {
            spread: *c,
            parts,
            seq,
        });
    }
    while heap.len() > 1 {
        let a = heap.pop().expect("len > 1");
        let b = heap.pop().expect("len > 1");
        // Merge: largest of `a` with smallest of `b`, etc.
        let mut parts: Vec<(f64, Vec<usize>)> = a
            .parts
            .into_iter()
            .zip(b.parts.into_iter().rev())
            .map(|((sa, mut ia), (sb, ib))| {
                ia.extend(ib);
                (sa + sb, ia)
            })
            .collect();
        parts.sort_by(|x, y| y.0.partial_cmp(&x.0).unwrap_or(Ordering::Equal));
        let spread = parts[0].0 - parts[parts.len() - 1].0;
        seq += 1;
        heap.push(Entry { spread, parts, seq });
    }
    let final_entry = heap.pop().expect("nonempty");
    Assignment {
        bins: final_entry.parts.into_iter().map(|(_, idx)| idx).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{bin_sums, imbalance_factor};

    fn all_indices_once(a: &Assignment, n: usize) {
        let mut seen = vec![false; n];
        for bin in &a.bins {
            for i in bin {
                assert!(!seen[*i], "index {i} assigned twice");
                seen[*i] = true;
            }
        }
        assert!(seen.into_iter().all(|s| s), "missing indices");
    }

    #[test]
    fn every_method_conserves_items() {
        let costs: Vec<f64> = (1..=37).map(|i| (i * i % 91) as f64 + 1.0).collect();
        for m in BalanceMethod::ALL {
            for bins in [1, 2, 4, 7] {
                let a = balance(&costs, bins, m);
                assert_eq!(a.bins.len(), bins);
                all_indices_once(&a, costs.len());
            }
        }
    }

    #[test]
    fn greedy_beats_unbalanced_order() {
        // Adversarial: a few huge items among many small ones.
        let mut costs = vec![1.0; 60];
        costs.extend([100.0, 90.0, 80.0, 70.0]);
        let a = balance(&costs, 4, BalanceMethod::Greedy);
        let f = imbalance_factor(&a.sums(&costs));
        assert!(f < 1.25, "greedy imbalance = {f}");
    }

    #[test]
    fn karmarkar_karp_handles_adversarial_pairs() {
        // The classic case where greedy is suboptimal: {5,5,4,3,3} into 2.
        let costs = vec![5.0, 5.0, 4.0, 3.0, 3.0];
        let kk = balance(&costs, 2, BalanceMethod::KarmarkarKarp);
        let sums = kk.sums(&costs);
        let diff = (sums[0] - sums[1]).abs();
        assert!(diff <= 2.0, "kk diff = {diff} (sums {sums:?})");
    }

    #[test]
    fn kk_quality_at_least_close_to_greedy_on_random() {
        // Deterministic pseudo-random costs (LCG), no RNG dependency.
        let mut state = 42u64;
        let costs: Vec<f64> = (0..200)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                1.0 + (state >> 33) as f64 % 1000.0
            })
            .collect();
        let g = imbalance_factor(&balance(&costs, 8, BalanceMethod::Greedy).sums(&costs));
        let kk = imbalance_factor(&balance(&costs, 8, BalanceMethod::KarmarkarKarp).sums(&costs));
        // Both should be near 1; neither should be pathological.
        assert!(g < 1.2, "greedy = {g}");
        assert!(kk < 1.2, "kk = {kk}");
    }

    #[test]
    fn interleave_assigns_serpentine() {
        let costs = vec![10.0, 9.0, 8.0, 7.0, 6.0, 5.0];
        let a = balance(&costs, 3, BalanceMethod::Interleave);
        // Round 0: items 0,1,2 → bins 0,1,2. Round 1 reversed: 3,4,5 → 2,1,0.
        assert_eq!(a.bins[0], vec![0, 5]);
        assert_eq!(a.bins[1], vec![1, 4]);
        assert_eq!(a.bins[2], vec![2, 3]);
        let sums = a.sums(&costs);
        assert_eq!(imbalance_factor(&sums), 1.0);
    }

    #[test]
    fn degenerate_inputs() {
        let a = balance(&[], 3, BalanceMethod::Greedy);
        assert_eq!(a.bins.len(), 3);
        assert!(a.bins.iter().all(Vec::is_empty));
        let a = balance(&[1.0, 2.0], 0, BalanceMethod::KarmarkarKarp);
        assert!(a.bins.is_empty());
        // More bins than items.
        let a = balance(&[5.0], 4, BalanceMethod::KarmarkarKarp);
        all_indices_once(&a, 1);
        assert_eq!(a.bins.len(), 4);
    }

    #[test]
    fn item_bins_inverse_mapping() {
        let costs = vec![3.0, 1.0, 2.0];
        let a = balance(&costs, 2, BalanceMethod::Greedy);
        let inv = a.item_bins(3);
        for (b, bin) in a.bins.iter().enumerate() {
            for i in bin {
                assert_eq!(inv[*i], b);
            }
        }
    }

    #[test]
    fn balanced_sums_match_totals() {
        let costs: Vec<f64> = (1..=100).map(f64::from).collect();
        let total: f64 = costs.iter().sum();
        for m in BalanceMethod::ALL {
            let a = balance(&costs, 9, m);
            let sum: f64 = bin_sums(&a, &costs).iter().sum();
            assert!((sum - total).abs() < 1e-9, "{m:?}");
        }
    }
}
