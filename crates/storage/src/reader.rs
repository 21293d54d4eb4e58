//! Columnar reader with access-state accounting.

use std::ops::Deref;

use bytes::Bytes;

use crate::error::StorageError;
use crate::format::{decode_column_chunk, decode_row_group, parse_file, Footer};
use crate::handle::{AccessState, DEFAULT_SOCKET_BYTES};
use crate::schema::Value;
use crate::schema::{Row, Schema};
use crate::store::{LatencyModel, ObjectStore};

/// Reads rows from an `MSDCOL01` file stored in an [`ObjectStore`].
///
/// The reader mirrors a production Parquet client: on open it fetches and
/// parses the footer; row groups are then range-read one at a time into a
/// resident buffer. [`ColumnarReader::access_state`] reports the memory this
/// handle pins, and [`ColumnarReader::io_ns`] accumulates the virtual-time
/// cost of the I/O performed so far.
///
/// `S` is the store handle the reader holds: a borrow (`&MemStore`,
/// `&dyn ObjectStore`) for a scoped read, or an owning handle
/// (`Arc<MemStore>`) so a long-lived owner such as a Source Loader can
/// keep the reader — parsed footer and resident row group — open across
/// calls.
pub struct ColumnarReader<S: Deref<Target: ObjectStore>> {
    store: S,
    path: String,
    footer: Footer,
    footer_bytes: u64,
    latency: LatencyModel,
    io_ns: u64,
    current_group: Option<(usize, Vec<Row>, u64)>,
}

impl<S: Deref<Target: ObjectStore>> ColumnarReader<S> {
    /// Opens a file: fetches the object, validates magic, parses the footer.
    pub fn open(store: S, path: &str) -> Result<Self, StorageError> {
        Self::open_with_latency(store, path, LatencyModel::default())
    }

    /// Opens with an explicit latency model.
    pub fn open_with_latency(
        store: S,
        path: &str,
        latency: LatencyModel,
    ) -> Result<Self, StorageError> {
        let all = store.get(path)?;
        let (_, footer) = parse_file(&all)?;
        let footer_bytes = footer.encoded_len() as u64;
        let io_ns = latency.open_ns(footer_bytes);
        Ok(ColumnarReader {
            store,
            path: path.to_string(),
            footer,
            footer_bytes,
            latency,
            io_ns,
            current_group: None,
        })
    }

    /// The file's schema.
    pub fn schema(&self) -> &Schema {
        &self.footer.schema
    }

    /// Number of row groups.
    pub fn group_count(&self) -> usize {
        self.footer.row_groups.len()
    }

    /// Total rows in the file.
    pub fn total_rows(&self) -> u64 {
        self.footer.total_rows()
    }

    /// Footer metadata (sequence-length stats live here — this is what the
    /// Planner reads without touching data pages).
    pub fn footer(&self) -> &Footer {
        &self.footer
    }

    /// Accumulated virtual-time I/O cost in nanoseconds.
    pub fn io_ns(&self) -> u64 {
        self.io_ns
    }

    /// Loads row group `idx` into the resident buffer and returns its rows.
    pub fn read_group(&mut self, idx: usize) -> Result<&[Row], StorageError> {
        let n = self.footer.row_groups.len();
        if idx >= n {
            return Err(StorageError::OutOfBounds { index: idx, len: n });
        }
        if self.current_group.as_ref().map(|(i, _, _)| *i) != Some(idx) {
            let meta = self.footer.row_groups[idx].clone();
            let bytes: Bytes = self
                .store
                .get_range(&self.path, meta.offset, meta.byte_len)?;
            self.io_ns += self.latency.read_ns(meta.byte_len);
            let rows = decode_row_group(&self.footer.schema, &meta, bytes)?;
            self.current_group = Some((idx, rows, meta.byte_len));
        }
        Ok(self
            .current_group
            .as_ref()
            .map(|(_, rows, _)| rows.as_slice())
            .expect("just populated"))
    }

    /// Column-projection read: fetches and decodes *only* the named columns
    /// of row group `idx`, range-reading each chunk's bytes individually.
    ///
    /// This is the storage half of Ahead-of-Fetch load balancing (paper
    /// §9): a planner can read the lightweight metadata columns (sequence
    /// lengths, embedded costs) of every row without ever transferring the
    /// payload columns. Returned columns are in `cols` order. The resident
    /// row-group buffer is not populated — projection reads are transient.
    pub fn read_columns(
        &mut self,
        idx: usize,
        cols: &[usize],
    ) -> Result<Vec<Vec<Value>>, StorageError> {
        let n = self.footer.row_groups.len();
        if idx >= n {
            return Err(StorageError::OutOfBounds { index: idx, len: n });
        }
        let meta = self.footer.row_groups[idx].clone();
        let mut out = Vec::with_capacity(cols.len());
        for &col in cols {
            if col >= meta.columns.len() {
                return Err(StorageError::OutOfBounds {
                    index: col,
                    len: meta.columns.len(),
                });
            }
            let chunk = &meta.columns[col];
            let bytes =
                self.store
                    .get_range(&self.path, meta.column_offset(col), chunk.byte_len)?;
            self.io_ns += self.latency.read_ns(chunk.byte_len);
            let dtype = self.footer.schema.fields()[col].dtype;
            out.push(decode_column_chunk(dtype, meta.rows as usize, bytes)?);
        }
        Ok(out)
    }

    /// Projects the named columns across **all** row groups, concatenated in
    /// file order. Returns one `Vec<Value>` per requested column.
    pub fn scan_columns(&mut self, cols: &[usize]) -> Result<Vec<Vec<Value>>, StorageError> {
        // Every column collects one Value per row in the file; size the
        // accumulators up front so the per-group extends never regrow.
        let rows = self.total_rows() as usize;
        let mut out: Vec<Vec<Value>> = (0..cols.len()).map(|_| Vec::with_capacity(rows)).collect();
        for g in 0..self.group_count() {
            for (slot, col) in self.read_columns(g, cols)?.into_iter().enumerate() {
                out[slot].extend(col);
            }
        }
        Ok(out)
    }

    /// Iterates all rows in file order, loading groups as needed.
    pub fn scan(&mut self) -> Result<Vec<Row>, StorageError> {
        let mut out = Vec::with_capacity(self.total_rows() as usize);
        for g in 0..self.group_count() {
            out.extend_from_slice(self.read_group(g)?);
        }
        Ok(out)
    }

    /// Current resident memory of this handle.
    pub fn access_state(&self) -> AccessState {
        let buffer = self
            .current_group
            .as_ref()
            .map(|(_, _, bytes)| *bytes)
            .unwrap_or(0);
        AccessState::new(DEFAULT_SOCKET_BYTES, self.footer_bytes, buffer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{DataType, Field, Value};
    use crate::store::MemStore;
    use crate::writer::ColumnarWriter;

    fn write_file(store: &MemStore, path: &str, rows: usize, group_bytes: usize) {
        let schema = Schema::new(vec![
            Field::new("id", DataType::Int64),
            Field::new("tokens", DataType::Int64),
            Field::new("blob", DataType::Bytes),
        ]);
        let mut w = ColumnarWriter::with_group_size(schema, group_bytes);
        for i in 0..rows {
            w.push(vec![
                Value::Int64(i as i64),
                Value::Int64((i % 128) as i64),
                Value::Bytes(vec![i as u8; 64].into()),
            ])
            .unwrap();
        }
        store.put(path, w.finish().unwrap());
    }

    #[test]
    fn open_scan_roundtrip() {
        let store = MemStore::new();
        write_file(&store, "ds/src0", 200, 1 << 12);
        let mut r = ColumnarReader::open(&store, "ds/src0").unwrap();
        assert_eq!(r.total_rows(), 200);
        assert!(r.group_count() > 1);
        let rows = r.scan().unwrap();
        assert_eq!(rows.len(), 200);
        assert_eq!(rows[42][0].as_i64(), Some(42));
    }

    #[test]
    fn access_state_reflects_loaded_group() {
        let store = MemStore::new();
        write_file(&store, "f", 100, 1 << 12);
        let mut r = ColumnarReader::open(&store, "f").unwrap();
        let before = r.access_state();
        assert_eq!(before.buffer_bytes, 0);
        assert!(before.metadata_bytes > 0);
        r.read_group(0).unwrap();
        let after = r.access_state();
        assert!(after.buffer_bytes > 0);
        assert_eq!(after.metadata_bytes, before.metadata_bytes);
    }

    #[test]
    fn io_cost_accumulates() {
        let store = MemStore::new();
        write_file(&store, "f", 100, 1 << 12);
        let mut r = ColumnarReader::open(&store, "f").unwrap();
        let open_cost = r.io_ns();
        assert!(open_cost > 0);
        r.read_group(0).unwrap();
        let after_one = r.io_ns();
        assert!(after_one > open_cost);
        // Re-reading the same group is free (already resident).
        r.read_group(0).unwrap();
        assert_eq!(r.io_ns(), after_one);
        r.read_group(1).unwrap();
        assert!(r.io_ns() > after_one);
    }

    #[test]
    fn out_of_bounds_group() {
        let store = MemStore::new();
        write_file(&store, "f", 10, 1 << 20);
        let mut r = ColumnarReader::open(&store, "f").unwrap();
        assert!(matches!(
            r.read_group(99),
            Err(StorageError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn missing_file() {
        let store = MemStore::new();
        assert!(matches!(
            ColumnarReader::open(&store, "nope"),
            Err(StorageError::NotFound(_))
        ));
    }

    #[test]
    fn column_projection_matches_full_scan() {
        let store = MemStore::new();
        write_file(&store, "f", 300, 1 << 12);
        let mut r = ColumnarReader::open(&store, "f").unwrap();
        let full = r.scan().unwrap();
        let tokens_col = r.schema().index_of("tokens").unwrap();
        let projected = r.scan_columns(&[tokens_col]).unwrap();
        assert_eq!(projected.len(), 1);
        assert_eq!(projected[0].len(), 300);
        for (row, v) in full.iter().zip(&projected[0]) {
            assert_eq!(row[tokens_col], *v);
        }
    }

    #[test]
    fn column_projection_reads_fewer_bytes() {
        // When the payload column dominates the group (the paper's 200×
        // OCR-inflation scenario), projecting the two Int64 metadata columns
        // must cost far less virtual I/O than a full group read — even
        // though projection pays one fixed request cost per chunk.
        let store = MemStore::new();
        let schema = Schema::new(vec![
            Field::new("id", DataType::Int64),
            Field::new("tokens", DataType::Int64),
            Field::new("blob", DataType::Bytes),
        ]);
        let mut w = ColumnarWriter::with_group_size(schema, 1 << 26);
        for i in 0..200 {
            w.push(vec![
                Value::Int64(i),
                Value::Int64(i % 128),
                Value::Bytes(vec![0xAB; 64 << 10].into()), // 64 KiB payload per row.
            ])
            .unwrap();
        }
        store.put("f", w.finish().unwrap());
        let mut proj = ColumnarReader::open(&store, "f").unwrap();
        let open_ns = proj.io_ns();
        proj.read_columns(0, &[0, 1]).unwrap();
        let proj_ns = proj.io_ns() - open_ns;

        let mut full = ColumnarReader::open(&store, "f").unwrap();
        let open_ns = full.io_ns();
        full.read_group(0).unwrap();
        let full_ns = full.io_ns() - open_ns;
        assert!(
            proj_ns * 2 < full_ns,
            "projection {proj_ns} ns vs full {full_ns} ns"
        );
        // Projection reads do not pin a resident buffer.
        assert_eq!(proj.access_state().buffer_bytes, 0);
    }

    #[test]
    fn column_projection_multiple_columns_ordered() {
        let store = MemStore::new();
        write_file(&store, "f", 64, 1 << 12);
        let mut r = ColumnarReader::open(&store, "f").unwrap();
        // Request in reverse schema order; output follows request order.
        let cols = r.read_columns(0, &[1, 0]).unwrap();
        assert_eq!(cols[1][5].as_i64(), Some(5)); // id column second.
        assert_eq!(cols[0][5].as_i64(), Some(5)); // tokens (5 % 128) first.
    }

    #[test]
    fn column_projection_out_of_bounds() {
        let store = MemStore::new();
        write_file(&store, "f", 10, 1 << 20);
        let mut r = ColumnarReader::open(&store, "f").unwrap();
        assert!(matches!(
            r.read_columns(0, &[99]),
            Err(StorageError::OutOfBounds { .. })
        ));
        assert!(matches!(
            r.read_columns(99, &[0]),
            Err(StorageError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn stats_visible_through_footer() {
        let store = MemStore::new();
        write_file(&store, "f", 500, 1 << 12);
        let r = ColumnarReader::open(&store, "f").unwrap();
        let tokens_col = r.schema().index_of("tokens").unwrap();
        for rg in &r.footer().row_groups {
            let stats = rg.columns[tokens_col].stats.expect("int col has stats");
            assert!(stats.min >= 0 && stats.max < 128);
        }
    }
}
