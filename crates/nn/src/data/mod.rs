//! Datasets: the MNIST IDX parser, the synthetic digit generator, and
//! chunked streaming access.
//!
//! The paper evaluates on MNIST (LeCun et al.). In an offline environment
//! the four IDX files may be unavailable, so [`load_or_synthesize`] falls
//! back to [`synthetic::generate`], a procedural stroke-rendered digit set
//! with the same geometry (28×28, 8-bit grayscale, labels 0–9). Every
//! experiment harness reports which source was used.
//!
//! For datasets too large to hold in memory, [`BatchSource`] provides
//! contiguous-chunk access ([`Dataset`] implements it; [`ChunkLoader`]
//! adapts a chunk-producing closure), and
//! [`Network::evaluate`](crate::Network::evaluate) consumes any such
//! source with byte-identical results.

mod idx;
mod source;
pub mod synthetic;

pub use idx::{load_mnist, parse_idx_images, parse_idx_labels};
pub use source::{BatchSource, ChunkLoader};

use crate::{Error, Tensor};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::path::Path;

/// Image side length of MNIST and the synthetic set.
pub const IMAGE_SIDE: usize = 28;

/// An in-memory labeled dataset of fixed-shape `f32` items.
///
/// # Example
///
/// ```
/// use scnn_nn::data::Dataset;
///
/// # fn main() -> Result<(), scnn_nn::Error> {
/// let ds = Dataset::new(vec![0.0; 4 * 9], &[1, 3, 3], vec![0, 1, 2, 3])?;
/// assert_eq!(ds.len(), 4);
/// let (batch, labels) = ds.batch(&[0, 2])?;
/// assert_eq!(batch.shape(), &[2, 1, 3, 3]);
/// assert_eq!(labels, vec![0, 2]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    data: Vec<f32>,
    item_shape: Vec<usize>,
    labels: Vec<u8>,
}

impl Dataset {
    /// Wraps flat data (`len × item_shape` elements) and per-item labels.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidDataset`] if the buffer length does not
    /// equal `labels.len() × product(item_shape)`.
    pub fn new(data: Vec<f32>, item_shape: &[usize], labels: Vec<u8>) -> Result<Self, Error> {
        let item_len: usize = item_shape.iter().product();
        if item_len == 0 || data.len() != labels.len() * item_len {
            return Err(Error::InvalidDataset {
                reason: format!(
                    "{} values cannot hold {} items of shape {item_shape:?}",
                    data.len(),
                    labels.len()
                ),
            });
        }
        Ok(Self { data, item_shape: item_shape.to_vec(), labels })
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the dataset holds no items.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Shape of one item (e.g. `[1, 28, 28]`).
    pub fn item_shape(&self) -> &[usize] {
        &self.item_shape
    }

    /// Elements per item.
    pub fn item_len(&self) -> usize {
        self.item_shape.iter().product()
    }

    /// Flat view of item `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len()`.
    pub fn item(&self, index: usize) -> &[f32] {
        let n = self.item_len();
        &self.data[index * n..(index + 1) * n]
    }

    /// Label of item `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len()`.
    pub fn label(&self, index: usize) -> u8 {
        self.labels[index]
    }

    /// All labels.
    pub fn labels(&self) -> &[u8] {
        &self.labels
    }

    /// Number of classes (`max label + 1`), 0 when empty.
    pub fn num_classes(&self) -> usize {
        self.labels.iter().copied().max().map_or(0, |m| usize::from(m) + 1)
    }

    /// Gathers the given item indices into a `[batch, …item_shape]` tensor
    /// plus their labels.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidDataset`] if any index is out of range.
    pub fn batch(&self, indices: &[usize]) -> Result<(Tensor, Vec<u8>), Error> {
        let n = self.item_len();
        let mut data = Vec::with_capacity(indices.len() * n);
        let mut labels = Vec::with_capacity(indices.len());
        for &i in indices {
            if i >= self.len() {
                return Err(Error::InvalidDataset {
                    reason: format!("index {i} out of range for {} items", self.len()),
                });
            }
            data.extend_from_slice(self.item(i));
            labels.push(self.labels[i]);
        }
        let mut shape = vec![indices.len()];
        shape.extend_from_slice(&self.item_shape);
        Ok((Tensor::from_vec(data, &shape)?, labels))
    }

    /// A new dataset containing only the first `count` items (or all, if
    /// fewer) — the "quick mode" subset used by the experiment harnesses.
    pub fn take(&self, count: usize) -> Dataset {
        let count = count.min(self.len());
        Dataset {
            data: self.data[..count * self.item_len()].to_vec(),
            item_shape: self.item_shape.clone(),
            labels: self.labels[..count].to_vec(),
        }
    }

    /// A deterministically shuffled copy.
    pub fn shuffled(&self, seed: u64) -> Dataset {
        let mut indices: Vec<usize> = (0..self.len()).collect();
        indices.shuffle(&mut StdRng::seed_from_u64(seed));
        let n = self.item_len();
        let mut data = Vec::with_capacity(self.data.len());
        let mut labels = Vec::with_capacity(self.labels.len());
        for i in indices {
            data.extend_from_slice(&self.data[i * n..(i + 1) * n]);
            labels.push(self.labels[i]);
        }
        Dataset { data, item_shape: self.item_shape.clone(), labels }
    }
}

/// Where [`load_or_synthesize`] got its data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataSource {
    /// Parsed from real MNIST IDX files.
    Mnist,
    /// Procedurally generated (the README, *Substitutions*, item 3).
    Synthetic,
}

impl std::fmt::Display for DataSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DataSource::Mnist => f.write_str("mnist"),
            DataSource::Synthetic => f.write_str("synthetic"),
        }
    }
}

/// Loads real MNIST from `dir` if the four IDX files are present, otherwise
/// generates a synthetic train/test pair of the requested sizes.
///
/// # Errors
///
/// Returns a parse error only if MNIST files are present but corrupt;
/// absence of the files is not an error.
pub fn load_or_synthesize(
    dir: &Path,
    train_size: usize,
    test_size: usize,
    seed: u64,
) -> Result<(Dataset, Dataset, DataSource), Error> {
    if let Some((train, test)) = load_mnist(dir)? {
        return Ok((train.take(train_size), test.take(test_size), DataSource::Mnist));
    }
    let train = synthetic::generate(train_size, seed);
    let test = synthetic::generate(test_size, seed ^ 0x5eed_7e57);
    Ok((train, test, DataSource::Synthetic))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_validates_lengths() {
        assert!(Dataset::new(vec![0.0; 5], &[2], vec![0, 1]).is_err());
        assert!(Dataset::new(vec![0.0; 4], &[2], vec![0, 1]).is_ok());
        assert!(Dataset::new(vec![], &[0], vec![]).is_err());
    }

    #[test]
    fn item_and_label_access() {
        let ds = Dataset::new(vec![1.0, 2.0, 3.0, 4.0], &[2], vec![7, 9]).unwrap();
        assert_eq!(ds.item(1), &[3.0, 4.0]);
        assert_eq!(ds.label(0), 7);
        assert_eq!(ds.num_classes(), 10);
        assert_eq!(ds.item_len(), 2);
    }

    #[test]
    fn batch_gathers() {
        let ds = Dataset::new((0..12).map(|v| v as f32).collect(), &[3], vec![0, 1, 2, 3]).unwrap();
        let (x, labels) = ds.batch(&[3, 0]).unwrap();
        assert_eq!(x.shape(), &[2, 3]);
        assert_eq!(x.data(), &[9.0, 10.0, 11.0, 0.0, 1.0, 2.0]);
        assert_eq!(labels, vec![3, 0]);
        assert!(ds.batch(&[4]).is_err());
    }

    #[test]
    fn take_and_shuffle_preserve_pairing() {
        let ds =
            Dataset::new((0..20).map(|v| v as f32).collect(), &[2], (0..10).collect()).unwrap();
        let s = ds.shuffled(42);
        assert_eq!(s.len(), 10);
        for i in 0..10 {
            // Each shuffled item must still carry its own label: item j has
            // values [2j, 2j+1] and label j.
            let v = s.item(i)[0] as u8 / 2;
            assert_eq!(s.label(i), v);
        }
        let t = ds.take(3);
        assert_eq!(t.len(), 3);
        assert_eq!(t.item(2), &[4.0, 5.0]);
        assert_eq!(ds.take(99).len(), 10);
    }

    #[test]
    fn load_or_synthesize_falls_back() {
        let (train, test, source) =
            load_or_synthesize(Path::new("/nonexistent"), 20, 10, 1).unwrap();
        assert_eq!(source, DataSource::Synthetic);
        assert_eq!(train.len(), 20);
        assert_eq!(test.len(), 10);
        assert_eq!(train.item_shape(), &[1, IMAGE_SIDE, IMAGE_SIDE]);
    }
}
