//! Property-based tests on core invariants.

use std::collections::HashSet;

use proptest::prelude::*;

use megascale_data::balance::{balance, imbalance_factor, BalanceMethod};
use megascale_data::core::buffer::{BufferInfo, BufferSummary};
use megascale_data::core::dgraph::{BalanceOpts, DGraph, MetaView};
use megascale_data::core::planner::{Planner, PlannerConfig, Strategy as PlannerStrategy};
use megascale_data::core::replay::PlanStore;
use megascale_data::core::schedule::MixSchedule;
use megascale_data::core::system::core::PipelineCore;
use megascale_data::core::system::frontier::{FrontierHub, Holder};
use megascale_data::data::catalog::coyo700m_like;
use megascale_data::data::gen::materialize_source;
use megascale_data::data::{Modality, SampleMeta, SourceId};
use megascale_data::mesh::{
    cp_partition, zigzag_partition, Axis, ClientPlaceTree, DeviceMesh, DistributeAxis,
};
use megascale_data::sim::SimRng;
use megascale_data::storage::{
    ColumnarReader, ColumnarWriter, DataType, Field, MemStore, ObjectStore, Schema, Value,
};

proptest! {
    /// Every balancing method conserves items: each index lands in exactly
    /// one bin, for any cost vector and bin count.
    #[test]
    fn balancers_conserve_items(
        costs in proptest::collection::vec(0.1f64..1e6, 1..200),
        bins in 1usize..16,
        method_idx in 0usize..3,
    ) {
        let method = BalanceMethod::ALL[method_idx];
        let a = balance(&costs, bins, method);
        prop_assert_eq!(a.bins.len(), bins);
        let mut seen = vec![false; costs.len()];
        for bin in &a.bins {
            for i in bin {
                prop_assert!(!seen[*i]);
                seen[*i] = true;
            }
        }
        prop_assert!(seen.into_iter().all(|s| s));
    }

    /// Cost-aware methods never do worse than 2x the theoretical lower
    /// bound when items are small relative to the total (LPT guarantee).
    #[test]
    fn greedy_quality_bound(
        costs in proptest::collection::vec(1.0f64..100.0, 32..128),
        bins in 2usize..8,
    ) {
        let a = balance(&costs, bins, BalanceMethod::Greedy);
        let sums = a.sums(&costs);
        let total: f64 = costs.iter().sum();
        let lower = (total / bins as f64).max(costs.iter().cloned().fold(0.0, f64::max));
        let makespan = sums.iter().cloned().fold(0.0, f64::max);
        // LPT is a 4/3-approximation; allow 2x slack for tiny inputs.
        prop_assert!(makespan <= lower * 2.0 + 1e-9, "makespan {} lower {}", makespan, lower);
    }

    /// Greedy balanced assignments are at least as good as sequential
    /// chunking on imbalance factor.
    #[test]
    fn balance_beats_chunking(
        costs in proptest::collection::vec(1.0f64..1e4, 24..96),
    ) {
        let bins = 6;
        let balanced = balance(&costs, bins, BalanceMethod::Greedy);
        // Sequential chunking baseline.
        let chunk = costs.len().div_ceil(bins);
        let chunked_sums: Vec<f64> = costs
            .chunks(chunk)
            .map(|c| c.iter().sum::<f64>())
            .chain(std::iter::repeat(0.0))
            .take(bins)
            .collect();
        let fb = imbalance_factor(&balanced.sums(&costs));
        let fc = imbalance_factor(&chunked_sums);
        prop_assert!(fb <= fc + 1e-9, "balanced {} vs chunked {}", fb, fc);
    }

    /// CP partitions cover the sequence exactly, for both styles.
    #[test]
    fn cp_partitions_cover(seq in 0u64..100_000, cp in 1u32..32) {
        let parts = cp_partition(seq, cp);
        let total: u64 = parts.iter().map(|r| r.end - r.start).sum();
        prop_assert_eq!(total, seq);
        let zz = zigzag_partition(seq, cp);
        let mut covered = 0u64;
        for (a, b) in &zz {
            covered += (a.end - a.start) + (b.end - b.start);
        }
        prop_assert_eq!(covered, seq);
    }

    /// ClientPlaceTree buckets partition the world for every axis and
    /// group size, on arbitrary 4D meshes.
    #[test]
    fn tree_buckets_partition_world(
        pp in 1u32..5, dp in 1u32..5, cp in 1u32..5, tp in 1u32..5,
        gs in proptest::option::of(1u32..6),
    ) {
        let mesh = DeviceMesh::pp_dp_cp_tp(pp, dp, cp, tp).unwrap();
        let tree = ClientPlaceTree::from_device_mesh(&mesh);
        for axis in [DistributeAxis::DP, DistributeAxis::CP, DistributeAxis::World] {
            let buckets = tree.buckets(axis, gs);
            prop_assert_eq!(buckets.len() as u32, tree.bucket_count(axis, gs));
            let mut all: Vec<u32> = buckets.into_iter().flatten().collect();
            all.sort_unstable();
            prop_assert_eq!(all, (0..mesh.world_size()).collect::<Vec<_>>());
        }
    }

    /// Mesh coordinates roundtrip through rank_of for arbitrary shapes.
    #[test]
    fn mesh_coords_roundtrip(pp in 1u32..4, dp in 1u32..6, cp in 1u32..4, tp in 1u32..4) {
        let mesh = DeviceMesh::pp_dp_cp_tp(pp, dp, cp, tp).unwrap();
        for rank in 0..mesh.world_size() {
            let coords = mesh.coords(rank).unwrap();
            prop_assert_eq!(mesh.rank_of(&coords).unwrap(), rank);
        }
    }

    /// Columnar files roundtrip arbitrary rows byte-exactly.
    #[test]
    fn columnar_roundtrip(
        rows in proptest::collection::vec(
            (any::<i64>(), ".{0,24}", proptest::collection::vec(any::<u8>(), 0..64)),
            0..50,
        ),
        group_bytes in 64usize..4096,
    ) {
        let schema = Schema::new(vec![
            Field::new("id", DataType::Int64),
            Field::new("text", DataType::Utf8),
            Field::new("blob", DataType::Bytes),
        ]);
        let mut writer = ColumnarWriter::with_group_size(schema, group_bytes);
        let expected: Vec<Vec<Value>> = rows
            .iter()
            .map(|(id, text, blob)| {
                vec![
                    Value::Int64(*id),
                    Value::Utf8(text.clone()),
                    Value::Bytes(blob.clone().into()),
                ]
            })
            .collect();
        for row in &expected {
            writer.push(row.clone()).unwrap();
        }
        let bytes = writer.finish().unwrap();
        let store = MemStore::new();
        store.put("f", bytes);
        let mut reader = ColumnarReader::open(&store, "f").unwrap();
        let decoded = reader.scan().unwrap();
        prop_assert_eq!(decoded, expected);
    }

    /// Mix schedules always yield normalized, non-negative weights.
    #[test]
    fn schedules_normalize(
        raw in proptest::collection::vec(-2.0f64..10.0, 1..12),
        step in 0u64..10_000,
        ramp in 1u64..5_000,
    ) {
        let n = raw.len();
        let schedules = vec![
            MixSchedule::Static(raw.clone()),
            MixSchedule::Warmup {
                from: raw.clone(),
                to: vec![1.0; n],
                steps: ramp,
            },
            MixSchedule::Staged(vec![(0, raw.clone()), (ramp, vec![1.0; n])]),
        ];
        for s in schedules {
            let w = s.weights(step);
            prop_assert_eq!(w.len(), n);
            prop_assert!(w.iter().all(|x| *x >= 0.0 && x.is_finite()));
            let sum: f64 = w.iter().sum();
            prop_assert!(sum == 0.0 || (sum - 1.0).abs() < 1e-6, "sum = {}", sum);
        }
    }

    /// The serve plane's global step frontier is monotone non-decreasing
    /// under arbitrary interleavings of progress reports (acks), client
    /// reconnects and server restarts (re-acquires, possibly at stale
    /// cursors), evictions and stream completions (releases) — and while
    /// any capability is live, the frontier never exceeds the smallest
    /// live holder's cursor. These two facts are what make
    /// "step < frontier" a *proof* of consumption that plan-log
    /// retirement can act on. The driver's backpressure read,
    /// `min_client_cursor`, must agree with a scan of the live holders.
    #[test]
    fn frontier_fold_is_monotone_and_bounded_by_live_cursors(
        ops in proptest::collection::vec(
            (0u8..3, 0u32..12, 0u64..512),
            1..250,
        ),
    ) {
        let hub = FrontierHub::new();
        let mut last = hub.frontier();
        for (op, id, v) in ops {
            let holder = Holder::Client(id);
            match op {
                0 => {
                    // (Re)connect / server restart: the granted
                    // cursor is clamped so it never sits below the
                    // frontier and never rewinds a live holder.
                    let granted = hub.acquire(holder, v);
                    prop_assert!(granted >= v, "acquire rewound below the request");
                    prop_assert!(granted >= hub.frontier(), "capability granted below the frontier");
                    prop_assert_eq!(hub.cursor(holder), Some(granted));
                }
                1 => hub.advance(holder, v), // Progress report (possibly stale).
                _ => hub.release(holder),    // Eviction / finish / drop.
            }
            let now = hub.frontier();
            prop_assert!(now >= last, "frontier regressed: {} -> {}", last, now);
            last = now;
            let snap = hub.snapshot();
            let scanned = snap.holders.iter().map(|(_, c)| *c).min();
            prop_assert_eq!(hub.min_client_cursor(), scanned, "multiset min disagrees with a scan");
            if let Some(min) = scanned {
                prop_assert!(
                    now <= min,
                    "frontier {} passed a live holder's cursor {}",
                    now,
                    min
                );
            }
        }
    }

    /// DGraph plans schedule only buffered samples, each in exactly one
    /// bin, and as many as `take` asks for while the buffers last.
    #[test]
    fn dgraph_plan_partitions_samples(
        n_samples in 1u64..120,
        dp in 1u32..6,
        take in 1usize..100,
        microbatches in 1u32..6,
        seed in 0u64..1000,
    ) {
        let samples: Vec<SampleMeta> = (0..n_samples)
            .map(|i| SampleMeta {
                sample_id: i,
                source: SourceId((i % 3) as u32),
                modality: Modality::Image,
                text_tokens: 10 + (i as u32 * 131) % 500,
                image_patches: 1 + (i as u32 * 29) % 2000,
                raw_bytes: 64,
            })
            .collect();
        let info = BufferInfo::new(vec![BufferSummary {
            loader_id: 0,
            source: SourceId(0),
            samples: samples.into(),
            mean_transform_ns: 1.0,
        }]);
        let mut g = DGraph::from_buffer_infos(&info, MetaView::Tokens);
        // All samples are registered under loader 0 but carry 3 source
        // ids; build the weight vector over the graph's sources.
        let n_sources = g.sources().len();
        let tree = ClientPlaceTree::from_device_mesh(
            &DeviceMesh::pp_dp_cp_tp(1, dp, 1, 1).unwrap(),
        );
        g.init(tree);
        let mut rng = megascale_data::sim::SimRng::seed(seed);
        g.mix(&vec![1.0; n_sources], take, &mut rng).unwrap();
        g.distribute(DistributeAxis::DP, None).unwrap();
        g.cost(|m| (m.total_tokens() as f64).powi(2));
        g.balance(BalanceMethod::Greedy, BalanceOpts::full(microbatches)).unwrap();
        let plan = g.plan(0).unwrap();

        let scheduled: Vec<u64> = plan.all_samples();
        let unique: HashSet<u64> = scheduled.iter().copied().collect();
        prop_assert_eq!(unique.len(), scheduled.len(), "duplicate assignment");
        prop_assert!(unique.iter().all(|id| *id < n_samples), "scheduled an unbuffered id");
        prop_assert_eq!(scheduled.len(), take.min(n_samples as usize));
        // Directives cover exactly the scheduled set.
        let directed: usize = plan.directives.values().map(|ids| ids.len()).sum();
        prop_assert_eq!(directed, scheduled.len());
    }
}

/// Two loaders' worth of image samples whose metadata shifts with `salt`.
fn buffers(samples_per_loader: u64, salt: u64) -> BufferInfo {
    let mk = |loader: u32, src: u32| BufferSummary {
        loader_id: loader,
        source: SourceId(src),
        samples: (0..samples_per_loader)
            .map(|i| SampleMeta {
                sample_id: (u64::from(src) << 48) | i,
                source: SourceId(src),
                modality: Modality::Image,
                text_tokens: 8 + ((i * 37 + salt * 13) % 512) as u32,
                image_patches: 32 + ((i * 101 + salt * 7) % 2048) as u32,
                raw_bytes: 256,
            })
            .collect(),
        mean_transform_ns: 500.0,
    };
    BufferInfo::new(vec![mk(0, 0), mk(1, 1)])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Replay Mode serves the recorded plan for any (seed, batch)
    /// combination as long as buffers match the recording run: the
    /// pipeline core adopts every stored step and gathers nothing.
    #[test]
    fn replay_is_deterministic_for_any_workload(
        seed in 0u64..500,
        batch in 4usize..32,
        steps in 1u64..6,
    ) {
        let mk_planner = || Planner::new(
            PlannerConfig {
                axis: DistributeAxis::DP,
                group_size: None,
                microbatches: 2,
                broadcast_axes: vec![Axis::TP],
                samples_per_step: batch,
                schedule: MixSchedule::uniform(2),
            },
            PlannerStrategy::Vanilla,
            ClientPlaceTree::from_device_mesh(&DeviceMesh::pp_dp_cp_tp(1, 2, 1, 2).unwrap()),
            vec![SourceId(0), SourceId(1)],
            seed,
        );
        let bufs = |step: u64| buffers(96, step.wrapping_mul(31).wrapping_add(seed));
        let store = PlanStore::record(mk_planner(), steps, bufs).unwrap();
        let mut core = PipelineCore::new(mk_planner());
        core.set_replay_store(store.clone());
        for step in 0..steps {
            let out = core.synthesize(&bufs(step)).unwrap();
            prop_assert!(out.replayed, "step {} planned live", step);
            prop_assert_eq!(&out.plan, store.get(step).unwrap());
        }
        prop_assert_eq!(core.replayed_steps, steps);
    }
}

proptest! {
    // Storage materialization per case: keep the case count modest.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Column projection agrees with the full scan for every column, on
    /// random materialized source files.
    #[test]
    fn projection_matches_scan(rows in 10u64..150, seed in 0u64..100) {
        let store = MemStore::new();
        let mut rng = SimRng::seed(seed);
        let spec = coyo700m_like(&mut rng).sources()[1].clone();
        let manifest = materialize_source(&store, "p", &spec, rows, &mut rng).unwrap();
        let mut reader = ColumnarReader::open(&store, &manifest.path).unwrap();
        let ncols = reader.schema().len();
        let full = reader.scan().unwrap();
        let all: Vec<usize> = (0..ncols).collect();
        let projected = reader.scan_columns(&all).unwrap();
        for (c, col) in projected.iter().enumerate() {
            prop_assert_eq!(col.len() as u64, rows);
            for (r, v) in col.iter().enumerate() {
                prop_assert_eq!(&full[r][c], v);
            }
        }
    }
}
