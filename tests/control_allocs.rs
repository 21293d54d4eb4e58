//! Counted control path: what a served step's per-loader control work
//! allocates, read from a counting global allocator that counts only the
//! calling thread.
//!
//! - Re-putting a loader's checkpoint encodes it into the key's stored
//!   buffer: no allocator call at all.
//! - A loader group's summaries share one metadata table: two calls (the
//!   table and the reply vector), however many loaders it hosts; a lone
//!   loader's summary makes one.

#[path = "harness/counting.rs"]
mod counting;

use counting::counted;
use megascale_data::actor::Gcs;
use megascale_data::core::codec::{encode_loader_checkpoint, encode_loader_checkpoint_into};
use megascale_data::core::loader::{LoaderCheckpoint, LoaderConfig, SourceLoader};
use megascale_data::data::catalog::text_only;
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
