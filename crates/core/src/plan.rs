//! Loading plans: the artifact the Planner synthesizes and broadcasts.
//!
//! A [`LoadingPlan`] tells every component what step `step` looks like:
//! which buffered samples are consumed, how they are grouped into buckets
//! (consumer groups from `distribute`) and bins (microbatches from
//! `balance`), which trainer clients each bucket feeds, and which loaders
//! must pop which samples.

use std::collections::BTreeMap;

use msd_mesh::{Axis, DistributeAxis, Rank};

use crate::window::Window;

/// One microbatch within a bucket.
#[derive(Debug, Clone, PartialEq)]
pub struct BinPlan {
    /// Microbatch index within the bucket.
    pub bin: u32,
    /// Sample ids, in packing order.
    pub samples: Vec<u64>,
    /// Total cost of the bin under the plan's cost function.
    pub total_cost: f64,
}

/// One consumer bucket (a DP group, a DP×CP consumer, or a single rank).
#[derive(Debug, Clone, PartialEq)]
pub struct BucketPlan {
    /// Bucket index.
    pub bucket: u32,
    /// Trainer clients consuming this bucket's data.
    pub clients: Vec<Rank>,
    /// Microbatches.
    pub bins: Vec<BinPlan>,
}

impl BucketPlan {
    /// Total cost across bins.
    pub fn total_cost(&self) -> f64 {
        self.bins.iter().map(|b| b.total_cost).sum()
    }

    /// Total samples across bins.
    pub fn sample_count(&self) -> usize {
        self.bins.iter().map(|b| b.samples.len()).sum()
    }
}

/// A complete loading plan for one training step.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadingPlan {
    /// Training step this plan serves.
    pub step: u64,
    /// The distribution axis used.
    pub axis: DistributeAxis,
    /// Consumer buckets.
    pub buckets: Vec<BucketPlan>,
    /// Axes along which trainers broadcast (data fetch elided for >0 ranks).
    pub broadcast_axes: Vec<Axis>,
    /// Pop directives: loader id → sample ids, in plan order. Each is a
    /// window onto one table of the plan's scheduled ids.
    pub directives: BTreeMap<u32, Window<u64>>,
    /// Named subplans (e.g. `"encoder"` for the VLM image graph).
    pub subplans: BTreeMap<String, LoadingPlan>,
}

impl LoadingPlan {
    /// All scheduled sample ids across buckets, in bucket/bin order.
    pub fn all_samples(&self) -> Vec<u64> {
        self.buckets
            .iter()
            .flat_map(|b| b.bins.iter().flat_map(|bin| bin.samples.iter().copied()))
            .collect()
    }

    /// Per-bucket total costs (straggler analysis input).
    pub fn bucket_costs(&self) -> Vec<f64> {
        self.buckets.iter().map(BucketPlan::total_cost).collect()
    }

    /// Cost matrix `[bucket][bin]` — the Fig 3 heatmap.
    pub fn cost_matrix(&self) -> Vec<Vec<f64>> {
        self.buckets
            .iter()
            .map(|b| b.bins.iter().map(|bin| bin.total_cost).collect())
            .collect()
    }

    /// Number of microbatches per bucket (0 for an empty plan).
    pub fn microbatches(&self) -> u32 {
        self.buckets
            .first()
            .map(|b| b.bins.len() as u32)
            .unwrap_or(0)
    }

    /// Looks up the `(bucket, bin)` of a sample.
    pub fn locate(&self, sample: u64) -> Option<(u32, u32)> {
        for b in &self.buckets {
            for bin in &b.bins {
                if bin.samples.contains(&sample) {
                    return Some((b.bucket, bin.bin));
                }
            }
        }
        None
    }

    /// Serialized size estimate for the plan-broadcast cost model
    /// (~8 B per scheduled sample id plus fixed headers per bucket/bin).
    pub fn wire_bytes(&self) -> u64 {
        let samples: u64 = self.buckets.iter().map(|b| b.sample_count() as u64).sum();
        let bins: u64 = self.buckets.iter().map(|b| b.bins.len() as u64).sum();
        let subplans: u64 = self.subplans.values().map(LoadingPlan::wire_bytes).sum();
        64 + samples * 8 + bins * 16 + self.buckets.len() as u64 * 32 + subplans
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_plan() -> LoadingPlan {
        LoadingPlan {
            step: 3,
            axis: DistributeAxis::DP,
            buckets: vec![
                BucketPlan {
                    bucket: 0,
                    clients: vec![0, 1],
                    bins: vec![
                        BinPlan {
                            bin: 0,
                            samples: vec![10, 11],
                            total_cost: 5.0,
                        },
                        BinPlan {
                            bin: 1,
                            samples: vec![12],
                            total_cost: 4.0,
                        },
                    ],
                },
                BucketPlan {
                    bucket: 1,
                    clients: vec![2, 3],
                    bins: vec![
                        BinPlan {
                            bin: 0,
                            samples: vec![13],
                            total_cost: 6.0,
                        },
                        BinPlan {
                            bin: 1,
                            samples: vec![],
                            total_cost: 0.0,
                        },
                    ],
                },
            ],
            broadcast_axes: vec![Axis::TP],
            directives: BTreeMap::from([(0, vec![10, 11, 12].into()), (1, vec![13].into())]),
            subplans: BTreeMap::new(),
        }
    }

    #[test]
    fn sample_enumeration_and_location() {
        let p = sample_plan();
        assert_eq!(p.all_samples(), vec![10, 11, 12, 13]);
        assert_eq!(p.locate(12), Some((0, 1)));
        assert_eq!(p.locate(13), Some((1, 0)));
        assert_eq!(p.locate(99), None);
    }

    #[test]
    fn costs_and_shape() {
        let p = sample_plan();
        assert_eq!(p.bucket_costs(), vec![9.0, 6.0]);
        assert_eq!(p.cost_matrix(), vec![vec![5.0, 4.0], vec![6.0, 0.0]]);
        assert_eq!(p.microbatches(), 2);
        assert_eq!(p.buckets[0].sample_count(), 3);
    }

    #[test]
    fn wire_bytes_grows_with_subplans() {
        let mut p = sample_plan();
        let base = p.wire_bytes();
        p.subplans.insert("encoder".into(), sample_plan());
        assert!(p.wire_bytes() > base);
    }
}
