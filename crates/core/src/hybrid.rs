use crate::baseline::FirstLayer;
use crate::Error;
use scnn_nn::data::{BatchSource, Dataset};
use scnn_nn::layers::{Layer, MaxPool2d};
use scnn_nn::{Evaluation, Network, Tensor};
use std::ops::Range;

/// The hybrid stochastic-binary LeNet-5 (paper Fig. 3): a [`FirstLayer`]
/// engine (stochastic, quantized binary, or float), the fixed 2×2 max-pool,
/// and the binary tail network.
///
/// # Example
///
/// ```no_run
/// use scnn_core::{FloatConvLayer, HybridLenet};
/// use scnn_nn::lenet::{lenet5_head, lenet5_tail, LenetConfig};
/// use scnn_nn::layers::Conv2d;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let cfg = LenetConfig::default();
/// let mut head = lenet5_head(&cfg)?;
/// let conv = head.layer(0).unwrap().as_any().downcast_ref::<Conv2d>().unwrap();
/// let engine = FloatConvLayer::from_conv(conv, 0.0)?;
/// let hybrid = HybridLenet::new(Box::new(engine), lenet5_tail(&cfg)?);
/// # let _ = hybrid;
/// # Ok(())
/// # }
/// ```
pub struct HybridLenet {
    head: Box<dyn FirstLayer>,
    tail: Network,
}

impl std::fmt::Debug for HybridLenet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HybridLenet")
            .field("head", &self.head.label())
            .field("tail", &self.tail.summary())
            .finish()
    }
}

impl HybridLenet {
    /// Combines a first-layer engine with a binary tail
    /// (`lenet5_tail`-shaped: expects `[batch, 32, 14, 14]` inputs).
    pub fn new(head: Box<dyn FirstLayer>, tail: Network) -> Self {
        Self { head, tail }
    }

    /// Borrow of the binary tail.
    pub fn tail(&self) -> &Network {
        &self.tail
    }

    /// Mutable borrow of the binary tail (what retraining updates).
    pub fn tail_mut(&mut self) -> &mut Network {
        &mut self.tail
    }

    /// Replaces the first-layer engine, keeping the tail (used to compare
    /// engines on an already retrained tail).
    pub fn set_head(&mut self, head: Box<dyn FirstLayer>) {
        self.head = head;
    }

    /// Runs the engine + pooling over every image of any [`BatchSource`],
    /// producing the `[32, 14, 14]` feature dataset the binary tail
    /// consumes.
    ///
    /// This materializes the whole feature tensor, for callers that train
    /// the tail on fixed features, as [`retrain`](crate::retrain) does;
    /// plain evaluation streams through [`features`](Self::features)
    /// instead, which never materializes them. Faults are seeded by each
    /// image's absolute index, never by its chunk. Images are distributed
    /// over the [`parallel`](crate::parallel) worker threads (the engine is
    /// immutable and shared); item order is preserved, so the features are
    /// identical for every `SCNN_THREADS` setting.
    ///
    /// # Errors
    ///
    /// Propagates engine, source and shape errors.
    pub fn extract_features<S: BatchSource + ?Sized>(&self, source: &S) -> Result<Dataset, Error> {
        // Upper bound on images fetched per batch_range call — the
        // streaming memory cap (and the chunk size a streaming loader
        // amortizes its work over). Small datasets shrink the chunk so
        // every worker thread stays busy; per-item features don't depend
        // on chunk boundaries, so the output is identical either way.
        const MAX_CHUNK: usize = 64;
        let _pass = scnn_obs::span("core/extract_features");
        let chunk = source.len().div_ceil(crate::parallel::thread_count()).clamp(1, MAX_CHUNK);
        let features = self.features(source);
        let chunks: Vec<FeatureChunk> =
            crate::parallel::par_map_range(source.len().div_ceil(chunk), |c| {
                let start = c * chunk;
                let end = (start + chunk).min(source.len());
                let (x, labels) = features.batch_range(start..end)?;
                Ok((x.into_vec(), labels))
            });
        let mut data = Vec::with_capacity(source.len() * features.item_len());
        let mut labels = Vec::with_capacity(source.len());
        for chunk in chunks {
            let (d, l) = chunk?;
            data.extend_from_slice(&d);
            labels.extend_from_slice(&l);
        }
        let shape = features.item_shape().to_vec();
        Ok(Dataset::new(data, &shape, labels)?)
    }

    /// A streaming view of this network's first-layer features over
    /// `source`: a [`BatchSource`] that computes engine + pooling per
    /// requested chunk, so a full evaluation never materializes the
    /// feature tensor. Byte-identical with
    /// [`extract_features`](Self::extract_features) (property-tested).
    pub fn features<'a, S: BatchSource + ?Sized>(&'a self, source: &'a S) -> FeatureSource<'a, S> {
        FeatureSource::new(self.head.as_ref(), source)
    }

    /// Classifies one image end to end.
    ///
    /// # Errors
    ///
    /// Propagates engine and shape errors.
    pub fn classify_image(&mut self, image: &[f32]) -> Result<usize, Error> {
        let kernels = self.head.kernels();
        let raw = self.head.forward_image(image)?;
        let t = Tensor::from_vec(raw, &[1, kernels, 28, 28])?;
        let mut pool = MaxPool2d::new();
        let pooled = pool.forward(&t, false)?;
        let preds = self.tail.predict(&pooled)?;
        Ok(preds[0])
    }

    /// End-to-end accuracy over any [`BatchSource`], streaming the
    /// first-layer features batch by batch through
    /// [`features`](Self::features) — peak memory is one batch of
    /// features per worker thread, never the full feature tensor.
    ///
    /// # Errors
    ///
    /// Propagates engine, source and shape errors.
    pub fn evaluate<S: BatchSource + ?Sized>(
        &mut self,
        source: &S,
        batch_size: usize,
    ) -> Result<Evaluation, Error> {
        let features = FeatureSource::new(self.head.as_ref(), source);
        Ok(self.tail.evaluate(&features, batch_size)?)
    }
}

/// One extracted feature chunk: flat feature data plus labels.
type FeatureChunk = Result<(Vec<f32>, Vec<u8>), Error>;

/// Engine + pooling for one image: the per-item kernel of
/// [`FeatureSource`] (and through it every feature-extraction path).
/// `index` is the image's position in the source dataset, which seeds
/// per-image fault injection on engines that model it — threading it here
/// keeps faulted feature extraction byte-identical for any worker count.
fn head_features(
    head: &dyn FirstLayer,
    kernels: usize,
    image: &[f32],
    index: u64,
) -> Result<Vec<f32>, Error> {
    let raw = head.forward_image_indexed(image, index)?;
    let t = Tensor::from_vec(raw, &[1, kernels, 28, 28])?;
    let mut pool = MaxPool2d::new();
    Ok(pool.forward(&t, false)?.into_vec())
}

/// A streaming [`BatchSource`] of a hybrid network's pooled first-layer
/// features (see [`HybridLenet::features`]): each requested chunk loads
/// the underlying images and runs engine + pooling on the spot.
///
/// # Example
///
/// ```no_run
/// use scnn_core::{FloatConvLayer, HybridLenet};
/// use scnn_nn::data::{synthetic, BatchSource};
/// use scnn_nn::layers::Conv2d;
/// use scnn_nn::lenet::{lenet5_head, lenet5_tail, LenetConfig};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let cfg = LenetConfig::default();
/// let head = lenet5_head(&cfg)?;
/// let conv = head.layer(0).unwrap().as_any().downcast_ref::<Conv2d>().unwrap();
/// let hybrid = HybridLenet::new(
///     Box::new(FloatConvLayer::from_conv(conv, 0.0)?),
///     lenet5_tail(&cfg)?,
/// );
/// let images = synthetic::generate(100, 1);
/// let features = hybrid.features(&images);
/// assert_eq!(features.len(), 100);
/// let (batch, labels) = features.batch_range(0..8)?; // computed on demand
/// assert_eq!(batch.shape(), &[8, 32, 14, 14]);
/// assert_eq!(labels.len(), 8);
/// # Ok(())
/// # }
/// ```
pub struct FeatureSource<'a, S: ?Sized> {
    head: &'a dyn FirstLayer,
    source: &'a S,
    shape: Vec<usize>,
}

impl<'a, S: BatchSource + ?Sized> FeatureSource<'a, S> {
    fn new(head: &'a dyn FirstLayer, source: &'a S) -> Self {
        let shape = vec![head.kernels(), 14, 14];
        Self { head, source, shape }
    }
}

impl<S: BatchSource + ?Sized> BatchSource for FeatureSource<'_, S> {
    fn len(&self) -> usize {
        self.source.len()
    }

    fn item_shape(&self) -> &[usize] {
        &self.shape
    }

    fn batch_range(&self, range: Range<usize>) -> Result<(Tensor, Vec<u8>), scnn_nn::Error> {
        let (x, labels) = self.source.batch_range(range.clone())?;
        let kernels = self.shape[0];
        let in_len: usize = self.source.item_shape().iter().product();
        let out_len: usize = self.shape.iter().product();
        let mut data = Vec::with_capacity(range.len() * out_len);
        for i in 0..range.len() {
            let image = &x.data()[i * in_len..(i + 1) * in_len];
            let pooled = head_features(self.head, kernels, image, (range.start + i) as u64)
                .map_err(|e| scnn_nn::Error::InvalidDataset { reason: e.to_string() })?;
            data.extend_from_slice(&pooled);
        }
        let mut shape = vec![range.len()];
        shape.extend_from_slice(&self.shape);
        Ok((Tensor::from_vec(data, &shape)?, labels))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::FloatConvLayer;
    use scnn_nn::data::synthetic;
    use scnn_nn::layers::Conv2d;
    use scnn_nn::lenet::{lenet5_head, lenet5_tail, LenetConfig};

    fn make_hybrid() -> HybridLenet {
        let cfg = LenetConfig::default();
        let head_net = lenet5_head(&cfg).unwrap();
        let conv = head_net.layer(0).unwrap().as_any().downcast_ref::<Conv2d>().unwrap().clone();
        let engine = FloatConvLayer::from_conv(&conv, 0.0).unwrap();
        HybridLenet::new(Box::new(engine), lenet5_tail(&cfg).unwrap())
    }

    #[test]
    fn feature_extraction_shapes() {
        let hybrid = make_hybrid();
        let ds = synthetic::generate(6, 3);
        let features = hybrid.extract_features(&ds).unwrap();
        assert_eq!(features.len(), 6);
        assert_eq!(features.item_shape(), &[32, 14, 14]);
        assert_eq!(features.labels(), ds.labels());
        // Pooled sign features stay ternary.
        assert!(features.item(0).iter().all(|&v| v == -1.0 || v == 0.0 || v == 1.0));
    }

    #[test]
    fn classify_and_evaluate_agree() {
        let mut hybrid = make_hybrid();
        let ds = synthetic::generate(8, 5);
        let eval = hybrid.evaluate(&ds, 4).unwrap();
        let mut correct = 0;
        for i in 0..ds.len() {
            if hybrid.classify_image(ds.item(i)).unwrap() == usize::from(ds.label(i)) {
                correct += 1;
            }
        }
        assert_eq!(eval.correct, correct);
        assert_eq!(eval.total, 8);
    }

    #[test]
    fn debug_and_accessors() {
        let mut hybrid = make_hybrid();
        assert!(format!("{hybrid:?}").contains(r#"head: "float""#));
        assert!(hybrid.tail().summary().contains("dense"));
        let _ = hybrid.tail_mut();
        let cfg = LenetConfig::default();
        let conv = lenet5_head(&cfg).unwrap().into_layers().remove(0);
        let conv = conv.as_any().downcast_ref::<Conv2d>().unwrap().clone();
        hybrid.set_head(Box::new(FloatConvLayer::from_conv(&conv, 0.5).unwrap()));
        assert!(format!("{hybrid:?}").contains(r#"head: "float""#));
    }
}
