//! Chunked dataset access for streaming evaluation.
//!
//! [`BatchSource`] is the capped-memory counterpart of [`Dataset`]: a
//! consumer asks for one contiguous range of items at a time and never
//! holds more than that range in memory. An in-memory [`Dataset`] is
//! trivially a `BatchSource`; a [`ChunkLoader`] produces chunks on demand
//! from a closure (decode a file chunk, synthesize items, compute
//! features); and `scnn-core`'s `FeatureSource` streams a hybrid
//! network's first-layer features for one evaluation pass without
//! materializing the full feature tensor. Training reads every item once
//! per epoch, so `scnn-core`'s retraining extracts the features into a
//! [`Dataset`] once instead of streaming them.
//!
//! Evaluation pipelines ([`Network::evaluate`](crate::Network::evaluate))
//! consume any `BatchSource` through the [`parallel`](crate::parallel)
//! chunked map, and because ranges are contiguous and results are reduced
//! in range order, the outputs are byte-identical for every thread count
//! and for every source that yields the same items.

use super::Dataset;
use crate::{Error, Tensor};
use std::ops::Range;

/// A source of labeled fixed-shape items, consumed one contiguous chunk at
/// a time.
///
/// `Sync` is a supertrait: evaluation shares one source across the
/// parallel worker threads.
///
/// # Example
///
/// ```
/// use scnn_nn::data::{BatchSource, ChunkLoader, Dataset};
///
/// # fn main() -> Result<(), scnn_nn::Error> {
/// // A loader that synthesizes items on demand…
/// let streamed = ChunkLoader::new(4, &[2], |range| {
///     let data = range.clone().flat_map(|i| [i as f32, -(i as f32)]).collect();
///     Ok((data, range.map(|i| i as u8).collect()))
/// });
/// // …yields the same batches as the materialized dataset.
/// let data: Vec<f32> = (0..4).flat_map(|i| [i as f32, -(i as f32)]).collect();
/// let materialized = Dataset::new(data, &[2], vec![0, 1, 2, 3])?;
/// let (a, la) = streamed.batch_range(1..3)?;
/// let (b, lb) = materialized.batch_range(1..3)?;
/// assert_eq!(a.data(), b.data());
/// assert_eq!(la, lb);
/// # Ok(())
/// # }
/// ```
pub trait BatchSource: Sync {
    /// Number of items.
    fn len(&self) -> usize;

    /// Shape of one item (e.g. `[1, 28, 28]`).
    fn item_shape(&self) -> &[usize];

    /// Materializes items `range` as a `[range.len(), …item_shape]` tensor
    /// plus their labels.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidDataset`] for an out-of-range request, or a
    /// loader-specific error.
    fn batch_range(&self, range: Range<usize>) -> Result<(Tensor, Vec<u8>), Error>;

    /// Whether the source holds no items.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Elements per item.
    fn item_len(&self) -> usize {
        self.item_shape().iter().product()
    }

    /// Materializes the (not necessarily contiguous) items `indices` as a
    /// `[indices.len(), …item_shape]` tensor plus their labels — what a
    /// shuffled training pass needs from a streaming source.
    ///
    /// The default assembles the batch item by item through
    /// [`batch_range`](Self::batch_range), so index-seeded sources (fault
    /// injection keyed on the absolute item index) stay byte-identical
    /// with their contiguous reads; [`Dataset`] overrides it with its
    /// direct indexed gather.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidDataset`] for an out-of-range index, or a
    /// loader-specific error.
    fn gather(&self, indices: &[usize]) -> Result<(Tensor, Vec<u8>), Error> {
        let item_len = self.item_len();
        let mut data = Vec::with_capacity(indices.len() * item_len);
        let mut labels = Vec::with_capacity(indices.len());
        for &i in indices {
            let (x, l) = self.batch_range(i..i + 1)?;
            data.extend_from_slice(x.data());
            labels.extend_from_slice(&l);
        }
        let mut shape = vec![indices.len()];
        shape.extend_from_slice(self.item_shape());
        Ok((Tensor::from_vec(data, &shape)?, labels))
    }
}

impl BatchSource for Dataset {
    fn len(&self) -> usize {
        Dataset::len(self)
    }

    fn item_shape(&self) -> &[usize] {
        Dataset::item_shape(self)
    }

    fn batch_range(&self, range: Range<usize>) -> Result<(Tensor, Vec<u8>), Error> {
        check_range(&range, Dataset::len(self))?;
        let n = Dataset::item_len(self);
        let data = self.data[range.start * n..range.end * n].to_vec();
        let labels = self.labels[range.clone()].to_vec();
        let mut shape = vec![range.len()];
        shape.extend_from_slice(&self.item_shape);
        Ok((Tensor::from_vec(data, &shape)?, labels))
    }

    fn gather(&self, indices: &[usize]) -> Result<(Tensor, Vec<u8>), Error> {
        self.batch(indices)
    }
}

/// Validates a chunk request against the source length.
fn check_range(range: &Range<usize>, len: usize) -> Result<(), Error> {
    if range.start > range.end || range.end > len {
        return Err(Error::InvalidDataset {
            reason: format!("range {range:?} out of bounds for {len} items"),
        });
    }
    Ok(())
}

/// A streaming chunk loader: produces each requested range through a
/// closure, so only one chunk of the (possibly huge) dataset exists in
/// memory at a time.
///
/// The closure receives the item range and returns the flat chunk data
/// (`range.len() × item_len` values) plus the chunk labels; the loader
/// validates both lengths. See the [trait example](BatchSource) and the
/// `streaming_chunks_match_materialized_dataset` property test.
#[derive(Debug, Clone)]
pub struct ChunkLoader<F> {
    len: usize,
    item_shape: Vec<usize>,
    loader: F,
}

impl<F> ChunkLoader<F>
where
    F: Fn(Range<usize>) -> Result<(Vec<f32>, Vec<u8>), Error> + Sync,
{
    /// A source of `len` items of shape `item_shape`, loaded chunk-wise by
    /// `loader`.
    pub fn new(len: usize, item_shape: &[usize], loader: F) -> Self {
        Self { len, item_shape: item_shape.to_vec(), loader }
    }
}

impl<F> BatchSource for ChunkLoader<F>
where
    F: Fn(Range<usize>) -> Result<(Vec<f32>, Vec<u8>), Error> + Sync,
{
    fn len(&self) -> usize {
        self.len
    }

    fn item_shape(&self) -> &[usize] {
        &self.item_shape
    }

    fn batch_range(&self, range: Range<usize>) -> Result<(Tensor, Vec<u8>), Error> {
        check_range(&range, self.len)?;
        let _decode = scnn_obs::span("data/chunk_decode");
        if scnn_obs::metrics_enabled() {
            scnn_obs::registry().counter("data/items_decoded").add(range.len() as u64);
        }
        let (data, labels) = (self.loader)(range.clone())?;
        let item_len: usize = self.item_shape.iter().product();
        if data.len() != range.len() * item_len || labels.len() != range.len() {
            return Err(Error::InvalidDataset {
                reason: format!(
                    "loader returned {} values / {} labels for range {range:?}",
                    data.len(),
                    labels.len()
                ),
            });
        }
        let mut shape = vec![range.len()];
        shape.extend_from_slice(&self.item_shape);
        Ok((Tensor::from_vec(data, &shape)?, labels))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dataset() -> Dataset {
        Dataset::new((0..24).map(|v| v as f32).collect(), &[3], vec![1, 2, 3, 4, 5, 6, 7, 8])
            .unwrap()
    }

    #[test]
    fn dataset_batch_range_matches_indexed_batch() {
        let ds = dataset();
        let (by_range, labels_range) = ds.batch_range(2..5).unwrap();
        let (by_index, labels_index) = ds.batch(&[2, 3, 4]).unwrap();
        assert_eq!(by_range.shape(), by_index.shape());
        assert_eq!(by_range.data(), by_index.data());
        assert_eq!(labels_range, labels_index);
        assert_eq!(BatchSource::item_len(&ds), 3);
        assert!(!BatchSource::is_empty(&ds));
    }

    #[test]
    fn ranges_are_validated() {
        let ds = dataset();
        assert!(ds.batch_range(6..9).is_err());
        #[allow(clippy::reversed_empty_ranges)]
        let reversed = 5..2;
        assert!(ds.batch_range(reversed).is_err());
        assert!(ds.batch_range(8..8).is_ok()); // empty suffix chunk
    }

    #[test]
    fn gather_matches_indexed_batch_on_both_sources() {
        let ds = dataset();
        let loader = ChunkLoader::new(8, &[3], |range: Range<usize>| {
            let mut data = Vec::new();
            let mut labels = Vec::new();
            for i in range {
                data.extend((0..3).map(|j| (i * 3 + j) as f32));
                labels.push(i as u8 + 1);
            }
            Ok((data, labels))
        });
        let indices = [5usize, 0, 3, 3, 7];
        let (expect, expect_labels) = ds.batch(&indices).unwrap();
        // The Dataset override and the per-item default assemble the same
        // batch, labels, and shape.
        let (a, la) = BatchSource::gather(&ds, &indices).unwrap();
        let (b, lb) = loader.gather(&indices).unwrap();
        assert_eq!(a.shape(), expect.shape());
        assert_eq!(a.data(), expect.data());
        assert_eq!(b.data(), expect.data());
        assert_eq!(la, expect_labels);
        assert_eq!(lb, expect_labels);
        // Out-of-range indices are rejected, empty gathers succeed.
        assert!(loader.gather(&[8]).is_err());
        assert_eq!(loader.gather(&[]).unwrap().1.len(), 0);
    }

    #[test]
    fn chunk_loader_streams_and_validates() {
        let ds = dataset();
        let loader = ChunkLoader::new(8, &[3], |range: Range<usize>| {
            let mut data = Vec::new();
            let mut labels = Vec::new();
            for i in range {
                data.extend((0..3).map(|j| (i * 3 + j) as f32));
                labels.push(i as u8 + 1);
            }
            Ok((data, labels))
        });
        for range in [0..8, 3..5, 7..8] {
            let (a, la) = loader.batch_range(range.clone()).unwrap();
            let (b, lb) = ds.batch_range(range.clone()).unwrap();
            assert_eq!(a.data(), b.data(), "{range:?}");
            assert_eq!(la, lb, "{range:?}");
        }
        assert!(loader.batch_range(7..9).is_err());

        // A loader returning the wrong chunk size is rejected.
        let bad = ChunkLoader::new(4, &[3], |range: Range<usize>| {
            Ok((vec![0.0; 2], vec![0; range.len()]))
        });
        assert!(bad.batch_range(0..2).is_err());
    }
}
