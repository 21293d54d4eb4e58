//! Materializes synthetic sources as real `MSDCOL01` files in an object
//! store, so the end-to-end pipeline (Source Loader → Data Constructor →
//! trainer client) exercises genuine storage reads.

use msd_sim::SimRng;
use msd_storage::{ColumnarWriter, MemStore, ObjectStore, Schema, StorageError, Value};

use crate::catalog::{Catalog, SourceSpec};
use crate::sample::{Sample, SampleMeta};

/// Manifest of one materialized source.
#[derive(Debug, Clone)]
pub struct SourceFiles {
    /// Source spec id this manifest belongs to.
    pub source: crate::sample::SourceId,
    /// Object-store path of the file.
    pub path: String,
    /// Number of rows written.
    pub rows: u64,
}

/// Writes `rows` samples of `spec` into `store` at `prefix/<source-name>`.
///
/// Payload bytes are capped (samples carry deterministic pseudo-payloads);
/// what matters for the experiments is the metadata columns, which downstream
/// planners read from footer stats and row scans.
pub fn materialize_source(
    store: &dyn ObjectStore,
    prefix: &str,
    spec: &SourceSpec,
    rows: u64,
    rng: &mut SimRng,
) -> Result<SourceFiles, StorageError> {
    let schema = Schema::sample_schema();
    // Small row groups on purpose: more footer metadata per file, matching
    // the many-row-group layout of production Parquet.
    let mut writer = ColumnarWriter::with_group_size(schema, 64 << 10);
    for i in 0..rows {
        let meta = spec.sample_meta(rng, i);
        let sample = Sample::synthesize(SampleMeta {
            raw_bytes: meta.raw_bytes.min(2048),
            ..meta
        });
        writer.push(vec![
            Value::Int64(meta.sample_id as i64),
            Value::Utf8(format!("sample-{}-{}", spec.name, i)),
            Value::Bytes(sample.payload),
            Value::Int64(i64::from(meta.text_tokens)),
            Value::Int64(i64::from(meta.image_patches)),
        ])?;
    }
    let path = format!("{prefix}/{}", spec.name);
    store.put(&path, writer.finish()?);
    Ok(SourceFiles {
        source: spec.id,
        path,
        rows,
    })
}

/// Materializes every source of a catalog; returns manifests in catalog
/// order.
pub fn materialize_catalog(
    store: &MemStore,
    prefix: &str,
    catalog: &Catalog,
    rows_per_source: u64,
    rng: &mut SimRng,
) -> Result<Vec<SourceFiles>, StorageError> {
    catalog
        .sources()
        .iter()
        .map(|spec| materialize_source(store, prefix, spec, rows_per_source, rng))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::coyo700m_like;
    use msd_storage::ColumnarReader;

    #[test]
    fn materialized_source_is_readable() {
        let store = MemStore::new();
        let mut rng = SimRng::seed(1);
        let cat = coyo700m_like(&mut rng);
        let manifest =
            materialize_source(&store, "data", &cat.sources()[0], 100, &mut rng).unwrap();
        assert_eq!(manifest.rows, 100);
        let mut reader = ColumnarReader::open(&store, &manifest.path).unwrap();
        assert_eq!(reader.total_rows(), 100);
        let rows = reader.scan().unwrap();
        let tokens_col = reader.schema().index_of("text_tokens").unwrap();
        assert!(rows.iter().all(|r| r[tokens_col].as_i64().unwrap() >= 1));
    }

    #[test]
    fn catalog_materialization_covers_all_sources() {
        let store = MemStore::new();
        let mut rng = SimRng::seed(2);
        let cat = coyo700m_like(&mut rng);
        let manifests = materialize_catalog(&store, "data", &cat, 10, &mut rng).unwrap();
        assert_eq!(manifests.len(), cat.len());
        assert_eq!(store.object_count(), cat.len());
        // Paths are distinct.
        let mut paths: Vec<&str> = manifests.iter().map(|m| m.path.as_str()).collect();
        paths.sort_unstable();
        paths.dedup();
        assert_eq!(paths.len(), cat.len());
    }

    #[test]
    fn footer_stats_expose_sequence_lengths() {
        // The Planner reads length stats from footers without scanning data:
        // verify the int columns carry stats.
        let store = MemStore::new();
        let mut rng = SimRng::seed(3);
        let cat = coyo700m_like(&mut rng);
        let manifest =
            materialize_source(&store, "data", &cat.sources()[1], 300, &mut rng).unwrap();
        let reader = ColumnarReader::open(&store, &manifest.path).unwrap();
        let col = reader.schema().index_of("img_patches").unwrap();
        let any_stats = reader
            .footer()
            .row_groups
            .iter()
            .all(|rg| rg.columns[col].stats.is_some());
        assert!(any_stats);
    }
}
