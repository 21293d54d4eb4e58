//! Counted control path: what a served step's per-loader control work
//! allocates, read from a counting global allocator that counts only the
//! calling thread.
//!
//! - Re-putting a loader's checkpoint encodes it into the key's stored
//!   buffer: no allocator call at all.
//! - A loader group's summaries share one metadata table: two calls (the
//!   table and the reply vector), however many loaders it hosts; a lone
//!   loader's summary makes one.
//! - A warmed constructor build settles raw samples into a reused table:
//!   two calls per image sample (its tail's output and that output's
//!   header) and none per text sample, whose tail is empty.

#[path = "harness/counting.rs"]
mod counting;

use std::collections::HashMap;

use counting::counted;
use megascale_data::actor::Gcs;
use megascale_data::core::codec::{encode_loader_checkpoint, encode_loader_checkpoint_into};
use megascale_data::core::constructor::{DataConstructor, TransformTails};
use megascale_data::core::loader::{LoaderCheckpoint, LoaderConfig, SourceLoader};
use megascale_data::core::plan::{BinPlan, BucketPlan};
use megascale_data::data::catalog::{coyo700m_like, text_only};
use megascale_data::data::{Modality, Sample};
use megascale_data::mesh::DeviceMesh;
use megascale_data::sim::SimRng;

fn checkpoint(version: u64) -> LoaderCheckpoint {
    LoaderCheckpoint {
        loader_id: 3,
        cursor: version * 64,
        rng_state: [version, 1, 2, 3],
        version,
    }
}

#[test]
fn re_putting_a_loader_checkpoint_makes_no_allocator_call() {
    let gcs = Gcs::new();
    let put = |version: u64| {
        gcs.put_state_with("loader/3", version, |buf| {
            encode_loader_checkpoint_into(&checkpoint(version), buf)
        })
    };
    // The key's first put allocates its key and its buffer.
    assert!(put(1));
    for version in 2..6 {
        let (accepted, calls, _) = counted(|| put(version));
        assert!(accepted);
        assert_eq!(calls, 0, "allocator calls to re-put version {version}");
        let stored = gcs.get_state("loader/3").expect("stored");
        assert_eq!(stored.version, version);
        assert_eq!(stored.data, encode_loader_checkpoint(&checkpoint(version)));
    }
}

#[test]
fn a_group_of_summaries_allocates_one_table() {
    let catalog = text_only(&mut SimRng::seed(7), 6);
    let mut loaders: Vec<SourceLoader> = catalog
        .sources()
        .iter()
        .enumerate()
        .map(|(i, spec)| SourceLoader::synthetic(spec.clone(), LoaderConfig::solo(i as u32), 9))
        .collect();
    for (i, loader) in loaders.iter_mut().enumerate() {
        loader.refill(4 * i).unwrap();
    }
    let (summaries, calls, _) = counted(|| SourceLoader::summaries(&loaders));
    assert_eq!(summaries.len(), 6);
    assert_eq!(calls, 2, "allocator calls for six loaders' summaries");
    let (summary, calls, _) = counted(|| loaders[5].summary());
    assert_eq!(summary.len(), 20);
    assert_eq!(calls, 1, "allocator calls for one loader's summary");
}

#[test]
fn a_warmed_constructor_build_allocates_only_the_image_tails_outputs() {
    const IMAGES: usize = 24;
    const TEXTS: usize = 40;
    // Raw samples as a loader group pops them: as buffered.
    let image = coyo700m_like(&mut SimRng::seed(7)).sources()[0].clone();
    // Another source id, so the two loaders' sample ids differ.
    let text = text_only(&mut SimRng::seed(7), 2).sources()[1].clone();
    assert_eq!(
        (image.modality, text.modality),
        (Modality::Image, Modality::Text)
    );
    assert_ne!(image.id, text.id);
    let mut images = SourceLoader::synthetic(image, LoaderConfig::solo(0), 9);
    let mut texts = SourceLoader::synthetic(text, LoaderConfig::solo(1), 9);
    images.refill(IMAGES).unwrap();
    texts.refill(TEXTS).unwrap();
    let (images, texts) = (images.drain(), texts.drain());
    let by_id = |samples: &[Sample]| -> HashMap<u64, Sample> {
        samples
            .iter()
            .map(|s| (s.meta.sample_id, s.clone()))
            .collect()
    };
    // A bucket's raw samples in plan order.
    let mixed: Vec<Sample> = images.iter().chain(&texts).cloned().collect();

    let mut tails = TransformTails::default();
    tails.settle_all(&mixed); // Warm-up: the table and the scratch grow.
    let (settled, calls, _) = counted(|| tails.settle_all(&mixed).len());
    assert_eq!(settled, IMAGES + TEXTS);
    assert_eq!(calls, 2 * IMAGES as u64, "allocator calls to settle");
    let (_, calls, _) = counted(|| tails.settle_all(&texts).len());
    assert_eq!(calls, 0, "allocator calls to settle text");

    // The whole build is the settling plus what packing allocates anyway.
    let constructor = DataConstructor::new(DeviceMesh::pp_dp_cp_tp(1, 1, 1, 1).unwrap(), 4096);
    let plan = BucketPlan {
        bucket: 0,
        clients: vec![0],
        bins: vec![BinPlan {
            bin: 0,
            samples: mixed.iter().map(|s| s.meta.sample_id).collect(),
            total_cost: 0.0,
        }],
    };
    let settled = by_id(tails.settle_all(&mixed));
    let (_, packing, _) = counted(|| constructor.construct(&plan, &settled, &[]));
    let (batch, building, _) =
        counted(|| constructor.construct_raw(&plan, &mixed, &[], &mut tails));
    assert_eq!(batch, constructor.construct(&plan, &settled, &[]));
    assert_eq!(
        building,
        packing + 2 * IMAGES as u64,
        "allocator calls to build"
    );
}
