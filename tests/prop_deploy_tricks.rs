//! Property-based tests for the Sec 6.2 deployment tricks: transformation
//! reordering (split correctness and transfer-optimality), hybrid
//! sidecar/remote placement invariants, and selective-broadcast coverage.

use proptest::prelude::*;

use megascale_data::bench::autoscale::{place_actors, HybridDeployment, Placement, PodSpec};
use megascale_data::core::autoscale::LoaderSetup;
use megascale_data::data::{
    Modality, Sample, SampleMeta, SourceId, Transform, TransformPipeline, TransformScratch,
};
use megascale_data::mesh::{Axis, ClientPlaceTree, DeviceMesh};

/// The allocating per-transform bodies `msd_data` keeps under
/// `#[cfg(test)]` as its byte-identity reference.
#[path = "../crates/data/src/transform/reference.rs"]
mod reference;

fn arb_transform() -> impl Strategy<Value = Transform> {
    prop_oneof![
        Just(Transform::TextTokenize),
        Just(Transform::ImageDecode),
        (64u32..8192).prop_map(|max_patches| Transform::Crop { max_patches }),
        Just(Transform::Flip),
        Just(Transform::VideoKeyframe),
        Just(Transform::AudioResample),
    ]
}

fn arb_meta() -> impl Strategy<Value = SampleMeta> {
    (1u32..2048, 0u32..4096, 1u64..4096).prop_map(|(text, img, bytes)| SampleMeta {
        sample_id: 7,
        source: SourceId(3),
        modality: if img > 0 {
            Modality::Image
        } else {
            Modality::Text
        },
        text_tokens: text,
        image_patches: img,
        raw_bytes: bytes,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Splitting a pipeline anywhere and running head-then-tail produces
    /// exactly the same sample as running the whole pipeline — the
    /// correctness contract behind deferred transforms.
    #[test]
    fn split_composes_to_identity(
        transforms in proptest::collection::vec(arb_transform(), 0..6),
        split in 0usize..8,
        meta in arb_meta(),
    ) {
        let p = TransformPipeline::new(transforms, 1.0);
        let (head, tail) = p.split_at(split);
        let mut composed = Sample::synthesize(meta);
        head.apply(&mut composed);
        tail.apply(&mut composed);
        let mut full = Sample::synthesize(meta);
        p.apply(&mut full);
        prop_assert_eq!(composed.payload, full.payload);
        prop_assert_eq!(composed.meta, full.meta);
    }

    /// The working-buffer chain gives the same payload and meta as one
    /// allocation per transform — for any transform sequence, with one
    /// scratch reused across samples of different sizes, and with empty,
    /// 1-byte and odd-length payloads in every case.
    #[test]
    fn chain_matches_allocating_reference(
        transforms in proptest::collection::vec(arb_transform(), 0..6),
        metas in proptest::collection::vec(arb_meta(), 1..8),
        odd in 1u64..64,
    ) {
        let p = TransformPipeline::new(transforms, 1.0);
        let mut scratch = TransformScratch::default();
        let edges = [0, 1, 2 * odd + 1].map(|raw_bytes| SampleMeta { raw_bytes, ..metas[0] });
        for meta in edges.into_iter().chain(metas) {
            let mut got = Sample::synthesize(meta);
            let mut want = got.clone();
            p.apply_with(&mut got, &mut scratch);
            reference::apply_all(p.transforms(), &mut want);
            prop_assert_eq!(got.payload, want.payload);
            prop_assert_eq!(got.meta, want.meta);
        }
    }

    /// `settled_meta` predicts from lengths alone the metadata `apply`
    /// leaves: for every modality's canonical pipeline and an arbitrary
    /// one, cut at every point (a loader buffers at a cut and reports
    /// the tail's settled metadata), over 0-, 1-byte, odd and arbitrary
    /// payloads, with and without a patch count `Crop` cuts.
    #[test]
    fn settled_meta_matches_apply(
        transforms in proptest::collection::vec(arb_transform(), 0..6),
        meta in arb_meta(),
        odd in 1u64..64,
    ) {
        let canonical = [Modality::Text, Modality::Image, Modality::Video, Modality::Audio]
            .map(TransformPipeline::for_modality);
        let arbitrary = TransformPipeline::new(transforms, 1.0);
        for p in canonical.iter().chain([&arbitrary]) {
            for split in 0..=p.transforms().len() {
                let (head, tail) = p.split_at(split);
                for raw_bytes in [0, 1, 2 * odd + 1, meta.raw_bytes] {
                    for image_patches in [meta.image_patches, 100_000] {
                        let mut sample = Sample::synthesize(SampleMeta {
                            raw_bytes,
                            image_patches,
                            ..meta
                        });
                        head.apply(&mut sample);
                        let settled = tail.settled_meta(sample.meta, sample.payload.len());
                        tail.apply(&mut sample);
                        prop_assert_eq!(settled, sample.meta, "{:?} cut at {}", p, split);
                    }
                }
            }
        }
    }

    /// `min_transfer_index` is optimal: no other split point yields a
    /// smaller cumulative inflation product, and it is the earliest
    /// minimizer.
    #[test]
    fn min_transfer_index_is_optimal(
        transforms in proptest::collection::vec(arb_transform(), 0..6),
    ) {
        let p = TransformPipeline::new(transforms, 1.0);
        let chosen = p.min_transfer_index();
        let product_at = |idx: usize| -> f64 {
            p.transforms()[..idx].iter().map(Transform::inflation).product()
        };
        let best = product_at(chosen);
        for idx in 0..=p.transforms().len() {
            prop_assert!(
                best <= product_at(idx) + 1e-12,
                "split {chosen} ({best}) beaten by {idx} ({})",
                product_at(idx)
            );
            if idx < chosen {
                prop_assert!(product_at(idx) > best, "not the earliest minimizer");
            }
        }
    }

    /// The split cost model is conserved: head + tail virtual cost equals
    /// the full pipeline's cost, for any split.
    #[test]
    fn split_conserves_cost(
        transforms in proptest::collection::vec(arb_transform(), 0..6),
        split in 0usize..8,
        meta in arb_meta(),
        scale in 0.1f64..50.0,
    ) {
        let p = TransformPipeline::new(transforms, scale);
        let (head, tail) = p.split_at(split);
        let sum = head.cost_ns(&meta) + tail.cost_ns(&meta);
        let full = p.cost_ns(&meta);
        // Scale rounding may differ by one ns per part.
        prop_assert!(sum.abs_diff(full) <= 2, "{sum} vs {full}");
    }
}

fn arb_setups() -> impl Strategy<Value = Vec<LoaderSetup>> {
    proptest::collection::vec((1u32..5, 1u32..5, (1u64..64).prop_map(|g| g << 28)), 1..20).prop_map(
        |raw| {
            raw.into_iter()
                .enumerate()
                .map(|(i, (actors, workers, mem))| LoaderSetup {
                    source: SourceId(i as u32),
                    actors,
                    workers_per_actor: workers,
                    cost_estimate_ns: 1000.0,
                    mem_per_actor: mem,
                })
                .collect()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Hybrid placement invariants: every actor placed exactly once,
    /// sidecar capacity never exceeded, and no remote pod rented while a
    /// sidecar could still hold the actor placed on it.
    #[test]
    fn placement_invariants(
        setups in arb_setups(),
        pods in 1u32..16,
        cores in 1u64..32,
        mem_gib in 1u64..128,
    ) {
        let deploy = HybridDeployment {
            accelerator_pods: pods,
            sidecar: PodSpec { cores, mem_bytes: mem_gib << 30 },
            remote: PodSpec { cores: 64, mem_bytes: 1 << 40 },
        };
        let plan = place_actors(&setups, &deploy);

        // Exactly once.
        let expected: u32 = setups.iter().map(|s| s.actors).sum();
        prop_assert_eq!(plan.actors.len() as u32, expected);
        let mut keys: Vec<(SourceId, u32)> =
            plan.actors.iter().map(|a| (a.source, a.shard)).collect();
        keys.sort_unstable();
        keys.dedup();
        prop_assert_eq!(keys.len() as u32, expected);

        // Capacity respected per sidecar pod.
        let mut used: std::collections::HashMap<u32, (u64, u64)> = Default::default();
        for a in &plan.actors {
            if let Placement::Sidecar { pod } = a.placement {
                prop_assert!(pod < pods);
                let e = used.entry(pod).or_insert((0, 0));
                e.0 += a.cores;
                e.1 += a.mem_bytes;
            }
        }
        for (_, (c, m)) in used {
            prop_assert!(c <= deploy.sidecar.cores);
            prop_assert!(m <= deploy.sidecar.mem_bytes);
        }

        // Remote pod indices are dense.
        for a in &plan.actors {
            if let Placement::Remote { pod } = a.placement {
                prop_assert!(pod < plan.remote_pods);
            }
        }
    }

    /// Monotonicity for *uniform* actors: donating more sidecar capacity
    /// never lowers the sidecar-placed fraction.
    ///
    /// (For heterogeneous actor sizes first-fit-decreasing exhibits
    /// classic bin-packing capacity anomalies — a bigger sidecar can
    /// admit one huge actor that crowds out several small ones — so the
    /// guarantee only holds in the uniform regime. Found by this test's
    /// earlier unrestricted version.)
    #[test]
    fn placement_spill_is_monotone_for_uniform_actors(
        n_sources in 1usize..20,
        actors_each in 1u32..5,
        mem_shift in 28u64..33,
        pods in 1u32..8,
        cores in 1u64..16,
        mem_gib in 1u64..64,
    ) {
        let setups: Vec<LoaderSetup> = (0..n_sources)
            .map(|i| LoaderSetup {
                source: SourceId(i as u32),
                actors: actors_each,
                workers_per_actor: 1,
                cost_estimate_ns: 1000.0,
                mem_per_actor: 1 << mem_shift,
            })
            .collect();
        let mk = |c: u64, m: u64| HybridDeployment {
            accelerator_pods: pods,
            sidecar: PodSpec { cores: c, mem_bytes: m << 30 },
            remote: PodSpec { cores: 64, mem_bytes: 1 << 40 },
        };
        let small = place_actors(&setups, &mk(cores, mem_gib));
        let large = place_actors(&setups, &mk(cores * 2, mem_gib * 2));
        prop_assert!(large.sidecar_fraction() >= small.sidecar_fraction() - 1e-12);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Selective broadcasting: sync_clients × replication always covers
    /// the world exactly, the selection respects the budget when TP×CP
    /// can reach it, and DP/PP are never chosen.
    #[test]
    fn selective_broadcast_invariants(
        pp in 1u32..5,
        dp in 1u32..7,
        cp in 1u32..5,
        tp in 1u32..5,
        budget in 1u32..64,
    ) {
        let mesh = DeviceMesh::pp_dp_cp_tp(pp, dp, cp, tp).unwrap();
        let tree = ClientPlaceTree::from_device_mesh(&mesh);
        let t = tree.select_broadcast_axes(budget);
        prop_assert!(!t.axes.contains(&Axis::DP));
        prop_assert!(!t.axes.contains(&Axis::PP));
        prop_assert_eq!(t.sync_clients * t.replication, mesh.world_size());
        // The floor: broadcasting all of TP and CP leaves PP×DP roots.
        let floor = pp * dp;
        if budget >= mesh.world_size() {
            prop_assert!(t.axes.is_empty());
        }
        prop_assert!(t.sync_clients >= floor.min(mesh.world_size()));
        if t.sync_clients > budget {
            // Could not meet the budget: must have exhausted TP and CP.
            prop_assert_eq!(t.sync_clients, floor);
        }
    }
}
