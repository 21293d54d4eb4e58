//! Buffer-metadata summaries.
//!
//! Source Loaders hold materialized samples in read buffers; the Planner
//! never sees payloads, only these lightweight summaries (sample ids,
//! source signatures, sequence lengths). Plan generation then operates on
//! kilobytes of metadata even when buffers hold gigabytes of tensors.

use msd_data::{SampleMeta, SourceId};

use crate::window::Window;

/// Metadata summary of one Source Loader's read buffer.
#[derive(Debug, Clone, PartialEq)]
pub struct BufferSummary {
    /// The loader's id (unique across the deployment).
    pub loader_id: u32,
    /// The source this loader serves.
    pub source: SourceId,
    /// Metadata of buffered, not-yet-scheduled samples, in buffer order:
    /// a window onto a table shared with the other summaries of the same
    /// reply (see [`SourceLoader::summaries`](crate::loader::SourceLoader::summaries)).
    pub samples: Window<SampleMeta>,
    /// Loader-reported mean transform cost (ns/sample), for autoscaling.
    pub mean_transform_ns: f64,
}

impl BufferSummary {
    /// Number of buffered samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Serialized wire size estimate in bytes (drives the Fig 15 "buffer
    /// gather" cost model: ~32 B per sample of packed metadata).
    pub fn wire_bytes(&self) -> u64 {
        32 + self.samples.len() as u64 * 32
    }
}

/// The Planner's gathered view across all loaders ("buffer infos" in the
/// paper's `DGraph.from_buffer_infos`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BufferInfo {
    /// Per-loader summaries.
    pub summaries: Vec<BufferSummary>,
}

impl BufferInfo {
    /// Creates a gathered view.
    pub fn new(summaries: Vec<BufferSummary>) -> Self {
        BufferInfo { summaries }
    }

    /// Total buffered samples across loaders.
    pub fn total_samples(&self) -> usize {
        self.summaries.iter().map(BufferSummary::len).sum()
    }

    /// Iterates `(loader_id, &SampleMeta)` pairs across all summaries.
    pub fn iter_samples(&self) -> impl Iterator<Item = (u32, &SampleMeta)> {
        self.summaries
            .iter()
            .flat_map(|s| s.samples.iter().map(move |m| (s.loader_id, m)))
    }

    /// Iterates `(summary index, row, &SampleMeta)` across all summaries,
    /// in order: the slots a [`DNode`](crate::dgraph::DNode) names.
    pub fn rows(&self) -> impl Iterator<Item = (u32, u32, &SampleMeta)> {
        self.summaries.iter().zip(0..).flat_map(|(summary, s)| {
            summary
                .samples
                .iter()
                .zip(0..)
                .map(move |(meta, row)| (s, row, meta))
        })
    }

    /// Total wire size of the gather (Fig 15 planner-gather model).
    pub fn wire_bytes(&self) -> u64 {
        self.summaries.iter().map(BufferSummary::wire_bytes).sum()
    }

    /// Distinct sources present.
    pub fn source_count(&self) -> usize {
        let mut ids: Vec<SourceId> = self.summaries.iter().map(|s| s.source).collect();
        ids.sort_unstable();
        ids.dedup();
        ids.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msd_data::Modality;

    fn meta(id: u64, src: u32, tokens: u32) -> SampleMeta {
        SampleMeta {
            sample_id: id,
            source: SourceId(src),
            modality: Modality::Text,
            text_tokens: tokens,
            image_patches: 0,
            raw_bytes: 64,
        }
    }

    fn summary(loader: u32, src: u32, n: u64) -> BufferSummary {
        BufferSummary {
            loader_id: loader,
            source: SourceId(src),
            samples: (0..n)
                .map(|i| meta(u64::from(loader) * 1000 + i, src, 10))
                .collect(),
            mean_transform_ns: 1000.0,
        }
    }

    #[test]
    fn aggregation() {
        let info = BufferInfo::new(vec![summary(0, 0, 5), summary(1, 0, 3), summary(2, 1, 2)]);
        assert_eq!(info.total_samples(), 10);
        assert_eq!(info.source_count(), 2);
        assert_eq!(info.iter_samples().count(), 10);
        assert!(info.wire_bytes() > 10 * 32);
    }

    #[test]
    fn empty_info() {
        let info = BufferInfo::default();
        assert_eq!(info.total_samples(), 0);
        assert_eq!(info.source_count(), 0);
        let s = BufferSummary {
            loader_id: 0,
            source: SourceId(0),
            samples: Vec::new().into(),
            mean_transform_ns: 0.0,
        };
        assert!(s.is_empty());
    }
}
