use crate::data::BatchSource;
use crate::layers::{Conv2d, Dense, Dropout, Layer};
use crate::optim::Optimizer;
use crate::{softmax_cross_entropy, Error, Tensor};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::fmt;

/// Gradient shards per training batch. Fixed — *not* the worker-thread
/// count — so the shard boundaries, the per-shard dropout streams, and the
/// fixed-order gradient reduction are identical for every `SCNN_THREADS`
/// setting: more threads only changes how many shards run concurrently,
/// never what any shard computes.
const GRAD_SHARDS: usize = 8;

/// SplitMix64 finalizer: decorrelates structured seed material (epoch ^
/// batch index, shard index) into independent-looking dropout seeds.
fn mix_seed(a: u64, b: u64) -> u64 {
    let mut z = a ^ b.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Accuracy/loss summary from [`Network::evaluate`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Evaluation {
    /// Fraction of correctly classified items in `[0, 1]`.
    pub accuracy: f64,
    /// Mean cross-entropy loss per item (independent of the batch size).
    pub loss: f32,
    /// Correctly classified items.
    pub correct: usize,
    /// Total items evaluated.
    pub total: usize,
}

impl Evaluation {
    /// `1 − accuracy` — the metric the paper's Table 3 reports.
    pub fn misclassification_rate(&self) -> f64 {
        1.0 - self.accuracy
    }
}

impl fmt::Display for Evaluation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/{} correct ({:.2}% misclassified, loss {:.4})",
            self.correct,
            self.total,
            self.misclassification_rate() * 100.0,
            self.loss
        )
    }
}

/// A sequential feed-forward network: an ordered stack of [`Layer`]s
/// trained with backpropagation and softmax cross-entropy.
///
/// # Example
///
/// ```
/// use scnn_nn::{layers, Network, Tensor};
///
/// # fn main() -> Result<(), scnn_nn::Error> {
/// let mut net = Network::new();
/// net.push(layers::Dense::new(4, 8, 1));
/// net.push(layers::Relu::new());
/// net.push(layers::Dense::new(8, 2, 2));
/// let logits = net.forward(&Tensor::zeros(&[3, 4]), false)?;
/// assert_eq!(logits.shape(), &[3, 2]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default, Clone)]
pub struct Network {
    layers: Vec<Box<dyn Layer>>,
}

impl Network {
    /// Creates an empty network.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a layer.
    pub fn push(&mut self, layer: impl Layer + 'static) {
        self.layers.push(Box::new(layer));
    }

    /// Appends a boxed layer (for composing networks programmatically).
    pub fn push_boxed(&mut self, layer: Box<dyn Layer>) {
        self.layers.push(layer);
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the network has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Borrow of layer `index`, if present.
    pub fn layer(&self, index: usize) -> Option<&dyn Layer> {
        self.layers.get(index).map(AsRef::as_ref)
    }

    /// Runs the input through every layer.
    ///
    /// # Errors
    ///
    /// Propagates the first layer shape error.
    pub fn forward(&mut self, input: &Tensor, training: bool) -> Result<Tensor, Error> {
        let mut x = input.clone();
        for layer in &mut self.layers {
            x = layer.forward(&x, training)?;
        }
        Ok(x)
    }

    /// Backpropagates a loss gradient, accumulating parameter gradients.
    ///
    /// Layers `n − 1` down to `1` run their full [`Layer::backward`]. The
    /// gradient w.r.t. the network input is never computed: a [`Conv2d`]
    /// or [`Dense`] first layer runs only its `weight_grads` half, found
    /// through [`Layer::as_any_mut`] as [`reseed_dropout`] finds dropout
    /// layers, and a parameter-free first layer is skipped. Any other first
    /// layer runs its full `backward`. The parameter gradients are
    /// bit-identical to running every layer's `backward` in reverse
    /// (tested).
    ///
    /// # Errors
    ///
    /// Propagates layer shape errors (e.g. backward before forward).
    ///
    /// [`reseed_dropout`]: Self::reseed_dropout
    pub fn backward(&mut self, grad: &Tensor) -> Result<(), Error> {
        let Some((first, rest)) = self.layers.split_first_mut() else {
            return Ok(());
        };
        let mut g = grad.clone();
        for layer in rest.iter_mut().rev() {
            g = layer.backward(&g)?;
        }
        weight_grads_only(first.as_mut(), &g)
    }

    /// Visits every `(parameter, gradient)` pair across all layers, in the
    /// stable visit order used by optimizers and serialization.
    pub fn visit_all_params(&mut self, f: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {
        for layer in &mut self.layers {
            layer.visit_params(f);
        }
    }

    /// Clears accumulated gradients.
    pub fn zero_grads(&mut self) {
        for layer in &mut self.layers {
            layer.visit_params(&mut |_, g| g.fill_zero());
        }
    }

    /// Applies one optimizer step over all parameters (keys follow visit
    /// order, which is stable for a fixed architecture).
    pub fn step(&mut self, opt: &mut dyn Optimizer) {
        opt.begin_step();
        let mut key = 0usize;
        for layer in &mut self.layers {
            layer.visit_params(&mut |p, g| {
                opt.update(key, p.data_mut(), g.data());
                key += 1;
            });
        }
    }

    /// Reseeds every [`Dropout`] layer deterministically from `seed`
    /// (per-layer seeds are decorrelated by layer position). The
    /// data-parallel trainer calls this on its worker before each gradient
    /// shard so mask streams depend on the `(batch, shard)` pair instead of
    /// on a shared RNG or a worker's earlier shards — the one piece of
    /// training state that would otherwise tie the result to scheduling.
    pub fn reseed_dropout(&mut self, seed: u64) {
        for (i, layer) in self.layers.iter_mut().enumerate() {
            if let Some(dropout) = layer.as_any_mut().downcast_mut::<Dropout>() {
                dropout.reseed(mix_seed(seed, i as u64));
            }
        }
    }

    /// One shuffled pass over any [`BatchSource`]; returns the mean batch
    /// loss.
    ///
    /// Each batch's forward/backward is sharded across the
    /// [`parallel`](crate::parallel) worker threads while batches stay
    /// sequential through the optimizer; see [`train_epoch_threads`]
    /// (this method uses the ambient `SCNN_THREADS` worker count) for the
    /// determinism contract.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidArgument`] for a zero `batch_size`, and
    /// propagates shape errors from the layers, the source, or the loss.
    ///
    /// [`train_epoch_threads`]: Self::train_epoch_threads
    pub fn train_epoch<S: BatchSource + ?Sized>(
        &mut self,
        source: &S,
        batch_size: usize,
        opt: &mut dyn Optimizer,
        shuffle_seed: u64,
    ) -> Result<f32, Error> {
        self.train_epoch_threads(
            source,
            batch_size,
            opt,
            shuffle_seed,
            crate::parallel::thread_count(),
        )
    }

    /// [`train_epoch`](Self::train_epoch) with an explicit worker-thread
    /// count.
    ///
    /// Data parallelism is *within* each batch: the shuffled batch is cut
    /// into a fixed number of shards (eight, or the batch size when
    /// smaller). Each worker clones the network once per batch, as
    /// [`evaluate`](Self::evaluate) does, and runs a contiguous run of
    /// shards on it, each with zeroed gradients and a `(batch, shard)`-
    /// seeded dropout stream. The shard gradients are reduced in shard
    /// order into this network's gradients before the single optimizer
    /// step. Shard boundaries, dropout seeds, and reduction order are all
    /// independent of `threads`, so the trained weights and the per-epoch
    /// loss are **byte-identical for every thread count** (property-tested).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidArgument`] for a zero `batch_size`, and
    /// propagates shape errors from the layers, the source, or the loss.
    pub fn train_epoch_threads<S: BatchSource + ?Sized>(
        &mut self,
        source: &S,
        batch_size: usize,
        opt: &mut dyn Optimizer,
        shuffle_seed: u64,
        threads: usize,
    ) -> Result<f32, Error> {
        check_batch_size(batch_size)?;
        let _pass = scnn_obs::span("nn/train_epoch");
        let mut indices: Vec<usize> = (0..source.len()).collect();
        indices.shuffle(&mut StdRng::seed_from_u64(shuffle_seed));
        let mut total = 0.0f64;
        let mut batches = 0usize;
        for (bi, chunk) in indices.chunks(batch_size).enumerate() {
            let batch_seed = mix_seed(shuffle_seed, bi as u64);
            total += f64::from(self.train_batch_sharded(source, chunk, opt, batch_seed, threads)?);
            batches += 1;
        }
        Ok((total / batches.max(1) as f64) as f32)
    }

    /// One sharded forward/backward/update over the batch items `indices`.
    ///
    /// The gradient of the batch mean loss is the shard-size-weighted sum
    /// of the shard mean-loss gradients; writing the first and adding the
    /// rest in fixed shard order on the calling thread keeps the
    /// floating-point association order — and therefore the updated
    /// weights — independent of how the shards were scheduled.
    fn train_batch_sharded<S: BatchSource + ?Sized>(
        &mut self,
        source: &S,
        indices: &[usize],
        opt: &mut dyn Optimizer,
        batch_seed: u64,
        threads: usize,
    ) -> Result<f32, Error> {
        let _batch = scnn_obs::span("nn/train_batch");
        if scnn_obs::metrics_enabled() {
            scnn_obs::registry().counter("nn/batches_trained").add(1);
        }
        let n = indices.len();
        let shard_len = n.div_ceil(GRAD_SHARDS.min(n.max(1)));
        // Only the non-empty shards: ceil(n / shard_len) may round below
        // the nominal fan-out (n = 12 packs into 6 two-item shards).
        let shards = n.div_ceil(shard_len);
        let net: &Network = self;
        let per_shard = crate::parallel::par_chunk_map_threads(threads, shards, |range| {
            let mut worker = net.clone();
            range
                .map(|s| -> Result<_, Error> {
                    let shard = &indices[s * shard_len..((s + 1) * shard_len).min(n)];
                    let (x, labels) = source.gather(shard)?;
                    worker.reseed_dropout(mix_seed(batch_seed, s as u64));
                    worker.zero_grads();
                    let logits = worker.forward(&x, true)?;
                    let (loss, grad) = softmax_cross_entropy(&logits, &labels)?;
                    {
                        let _bwd = scnn_obs::span("nn/backward");
                        worker.backward(&grad)?;
                    }
                    let mut flat = Vec::new();
                    worker.visit_all_params(&mut |_, g| flat.extend_from_slice(g.data()));
                    Ok((flat, loss, shard.len()))
                })
                .collect()
        });

        let _reduce = scnn_obs::span("nn/grad_reduce");
        let mut loss = 0.0f64;
        for (s, result) in per_shard.into_iter().enumerate() {
            let (flat, shard_loss, shard_items) = result?;
            let weight = shard_items as f32 / n as f32;
            let mut rest = &flat[..];
            self.visit_all_params(&mut |_, g| {
                let (shard_g, tail) = rest.split_at(g.len());
                for (a, &v) in g.data_mut().iter_mut().zip(shard_g) {
                    *a = if s == 0 { v * weight } else { *a + v * weight };
                }
                rest = tail;
            });
            loss += f64::from(shard_loss) * f64::from(weight);
        }
        drop(_reduce);
        {
            let _step = scnn_obs::span("opt/step");
            self.step(opt);
        }
        Ok(loss as f32)
    }

    /// Argmax class predictions for a batch.
    ///
    /// # Errors
    ///
    /// Propagates layer shape errors.
    pub fn predict(&mut self, input: &Tensor) -> Result<Vec<usize>, Error> {
        let logits = self.forward(input, false)?;
        let &[batch, classes] = logits.shape() else {
            return Err(Error::shape("[batch, classes] logits", logits.shape()));
        };
        Ok(logits.data().chunks_exact(classes).take(batch).map(argmax).collect())
    }

    /// Classification accuracy and loss over a whole [`BatchSource`] —
    /// an in-memory [`Dataset`](crate::data::Dataset), a streaming
    /// [`ChunkLoader`](crate::data::ChunkLoader), or any other chunked
    /// source; only one batch per worker is materialized at a time.
    ///
    /// Batches are distributed over the [`parallel`](crate::parallel)
    /// worker threads (one network clone per worker); per-batch results are
    /// reduced in batch order, so the evaluation is identical for every
    /// `SCNN_THREADS` setting and byte-identical between a streaming
    /// source and its materialized equivalent (property-tested).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidArgument`] for a zero `batch_size` or an
    /// empty `source` (whose accuracy is undefined), and propagates layer
    /// shape and source errors.
    pub fn evaluate<S: BatchSource + ?Sized>(
        &mut self,
        source: &S,
        batch_size: usize,
    ) -> Result<Evaluation, Error> {
        check_batch_size(batch_size)?;
        let total = source.len();
        if total == 0 {
            return Err(Error::InvalidArgument {
                reason: "cannot evaluate an empty source".into(),
            });
        }
        let _pass = scnn_obs::span("nn/evaluate");
        let batches: Vec<std::ops::Range<usize>> =
            (0..total).step_by(batch_size).map(|s| s..(s + batch_size).min(total)).collect();
        let net: &Network = self;
        let per_batch: Vec<Result<(usize, f64), Error>> =
            crate::parallel::par_chunk_map(batches.len(), |range| {
                let mut worker = net.clone();
                range.map(|bi| worker.evaluate_batch(source, batches[bi].clone())).collect()
            });
        let mut correct = 0usize;
        let mut loss_total = 0.0f64;
        for result in per_batch {
            let (batch_correct, batch_loss_sum) = result?;
            correct += batch_correct;
            loss_total += batch_loss_sum;
        }
        Ok(Evaluation {
            accuracy: correct as f64 / total as f64,
            loss: (loss_total / total as f64) as f32,
            correct,
            total,
        })
    }

    /// One evaluation batch: correct-prediction count and the batch's
    /// summed loss (its mean loss times its item count, so a partial last
    /// batch weighs by what it holds).
    fn evaluate_batch<S: BatchSource + ?Sized>(
        &mut self,
        source: &S,
        chunk: std::ops::Range<usize>,
    ) -> Result<(usize, f64), Error> {
        let _batch = scnn_obs::span("nn/evaluate_batch");
        if scnn_obs::metrics_enabled() {
            scnn_obs::registry().counter("nn/images_evaluated").add(chunk.len() as u64);
        }
        let (x, labels) = source.batch_range(chunk)?;
        let logits = self.forward(&x, false)?;
        let (loss, _) = softmax_cross_entropy(&logits, &labels)?;
        Ok((count_correct(&logits, &labels)?, f64::from(loss) * labels.len() as f64))
    }

    /// Decomposes the network into its boxed layers (for recomposing heads
    /// and tails, as the retraining pipeline does).
    pub fn into_layers(self) -> Vec<Box<dyn Layer>> {
        self.layers
    }

    /// One-line architecture summary, e.g. `"conv2d → sign → maxpool2"`.
    pub fn summary(&self) -> String {
        self.layers.iter().map(|l| l.name()).collect::<Vec<_>>().join(" → ")
    }

    /// Total number of trainable parameters.
    pub fn num_params(&mut self) -> usize {
        let mut n = 0usize;
        for layer in &mut self.layers {
            layer.visit_params(&mut |p, _| n += p.len());
        }
        n
    }
}

/// Accumulates `layer`'s parameter gradients from `grad` without its
/// input gradient; see [`Network::backward`].
fn weight_grads_only(layer: &mut dyn Layer, grad: &Tensor) -> Result<(), Error> {
    let any = layer.as_any_mut();
    if let Some(conv) = any.downcast_mut::<Conv2d>() {
        return conv.weight_grads(grad);
    }
    if let Some(dense) = any.downcast_mut::<Dense>() {
        return dense.weight_grads(grad);
    }
    let mut has_params = false;
    layer.visit_params(&mut |_, _| has_params = true);
    if has_params {
        layer.backward(grad)?;
    }
    Ok(())
}

/// Argmax-vs-label count over a `[batch, classes]` logits tensor.
fn count_correct(logits: &Tensor, labels: &[u8]) -> Result<usize, Error> {
    let &[batch, classes] = logits.shape() else {
        return Err(Error::shape("[batch, classes] logits", logits.shape()));
    };
    let rows = logits.data().chunks_exact(classes).take(batch);
    Ok(rows.zip(labels).filter(|&(row, &label)| argmax(row) == usize::from(label)).count())
}

/// The predicted class of one logit row: the index of its largest value,
/// the last one on a tie (`max_by`'s rule).
///
/// # Panics
///
/// Panics on an empty row or a NaN logit.
fn argmax(row: &[f32]) -> usize {
    row.iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite logits"))
        .map(|(i, _)| i)
        .expect("at least one class")
}

/// Rejects a zero batch size before any work starts.
fn check_batch_size(batch_size: usize) -> Result<(), Error> {
    if batch_size == 0 {
        return Err(Error::InvalidArgument { reason: "batch size must be positive".into() });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::Dataset;
    use crate::layers::Relu;
    use crate::optim::{Adam, Sgd};
    use std::any::Any;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn xor_dataset() -> Dataset {
        // The classic non-linearly-separable sanity problem.
        let mut data = Vec::new();
        let mut labels = Vec::new();
        for _ in 0..64 {
            for (a, b) in [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)] {
                data.extend_from_slice(&[a, b]);
                labels.push(u8::from((a != b) as u8 == 1));
            }
        }
        Dataset::new(data, &[2], labels).unwrap()
    }

    #[test]
    fn zero_batch_size_is_an_error_not_a_panic() {
        let ds = xor_dataset();
        let mut net = Network::new();
        net.push(Dense::new(2, 2, 1));
        let invalid = |r: Result<_, Error>| matches!(r, Err(Error::InvalidArgument { .. }));
        assert!(invalid(net.evaluate(&ds, 0).map(|_| ())));
        let mut opt = Sgd::new(0.1);
        assert!(invalid(net.train_epoch(&ds, 0, &mut opt, 3).map(|_| ())));
        assert!(invalid(net.train_epoch_threads(&ds, 0, &mut opt, 3, 2).map(|_| ())));
        assert!(net.evaluate(&ds, 4).is_ok());
    }

    #[test]
    fn empty_source_is_an_error_not_nan() {
        let mut net = Network::new();
        net.push(Dense::new(2, 2, 1));
        let err =
            net.evaluate(&Dataset::new(Vec::new(), &[2], Vec::new()).unwrap(), 4).unwrap_err();
        assert!(matches!(err, Error::InvalidArgument { .. }), "{err}");
    }

    #[test]
    fn loss_is_the_per_item_mean_for_any_batch_size() {
        // 100 items: batch 64 leaves a partial last batch of 36.
        let data: Vec<f32> = (0..200).map(|i| ((i * 37) % 17) as f32 / 8.0 - 1.0).collect();
        let labels: Vec<u8> = (0..100).map(|i| (i % 3 == 0) as u8).collect();
        let ds = Dataset::new(data, &[2], labels).unwrap();
        let mut net = Network::new();
        net.push(Dense::new(2, 2, 1));
        let split = net.evaluate(&ds, 64).unwrap();
        let whole = net.evaluate(&ds, 100).unwrap();
        let rel = ((split.loss - whole.loss) / whole.loss).abs();
        assert!(rel < 1e-6, "batch 64 loss {} vs one batch {}", split.loss, whole.loss);
        assert_eq!(split.correct, whole.correct);
    }

    #[test]
    fn learns_xor() {
        let ds = xor_dataset();
        let mut net = Network::new();
        net.push(Dense::new(2, 16, 1));
        net.push(Relu::new());
        net.push(Dense::new(16, 2, 2));
        let mut opt = Sgd::new(0.5);
        for epoch in 0..60 {
            net.train_epoch(&ds, 16, &mut opt, epoch).unwrap();
        }
        let eval = net.evaluate(&ds, 32).unwrap();
        assert!(eval.accuracy > 0.99, "accuracy {}", eval.accuracy);
        assert_eq!(eval.correct, eval.total);
    }

    #[test]
    fn loss_decreases_during_training() {
        let ds = xor_dataset();
        let mut net = Network::new();
        net.push(Dense::new(2, 8, 3));
        net.push(Relu::new());
        net.push(Dense::new(8, 2, 4));
        let mut opt = Sgd::new(0.3);
        let first = net.train_epoch(&ds, 16, &mut opt, 0).unwrap();
        let mut last = first;
        for e in 1..30 {
            last = net.train_epoch(&ds, 16, &mut opt, e).unwrap();
        }
        assert!(last < first * 0.5, "first {first}, last {last}");
    }

    #[test]
    fn predict_matches_evaluate() {
        let ds = xor_dataset();
        let mut net = Network::new();
        net.push(Dense::new(2, 2, 9));
        let (x, labels) = ds.batch(&[0, 1, 2, 3]).unwrap();
        let preds = net.predict(&x).unwrap();
        assert_eq!(preds.len(), labels.len());
        assert!(preds.iter().all(|&p| p < 2));
    }

    #[test]
    fn argmax_breaks_ties_to_the_last_maximum() {
        assert_eq!(argmax(&[0.5, 2.0, -1.0, 2.0, 1.0]), 3);
        assert_eq!(argmax(&[-3.0]), 0);
    }

    #[test]
    fn misclassification_rate_complements_accuracy() {
        let e = Evaluation { accuracy: 0.97, loss: 0.1, correct: 97, total: 100 };
        assert!((e.misclassification_rate() - 0.03).abs() < 1e-12);
        assert!(e.to_string().contains("97/100"));
    }

    #[test]
    fn sharded_training_is_identical_for_every_thread_count() {
        let ds = xor_dataset();
        let build = || {
            let mut net = Network::new();
            net.push(Dense::new(2, 16, 1));
            net.push(Relu::new());
            net.push(Dropout::new(0.3, 5));
            net.push(Dense::new(16, 2, 2));
            net
        };
        let mut reference: Option<(Vec<u32>, Vec<u32>)> = None;
        for threads in [1usize, 2, 8, 32] {
            let mut net = build();
            let mut opt = Adam::new(1e-2);
            let mut losses = Vec::new();
            for epoch in 0..3u64 {
                losses.push(
                    net.train_epoch_threads(&ds, 16, &mut opt, epoch, threads).unwrap().to_bits(),
                );
            }
            let mut weights = Vec::new();
            net.visit_all_params(&mut |p, _| {
                weights.extend(p.data().iter().map(|v| v.to_bits()));
            });
            match &reference {
                None => reference = Some((weights, losses)),
                Some((w, l)) => {
                    assert_eq!(w, &weights, "weights differ at threads={threads}");
                    assert_eq!(l, &losses, "loss trajectory differs at threads={threads}");
                }
            }
        }
    }

    #[test]
    fn batches_smaller_than_the_shard_count_train() {
        // 3 items with batch_size 2 → batches of 2 and 1, both below the
        // 8-shard fan-out; every shard must still hold ≥1 item.
        let ds = Dataset::new(vec![0.0, 0.0, 0.0, 1.0, 1.0, 0.0], &[2], vec![0, 1, 1]).unwrap();
        let mut net = Network::new();
        net.push(Dense::new(2, 4, 3));
        net.push(Relu::new());
        net.push(Dense::new(4, 2, 4));
        let mut opt = Sgd::new(0.1);
        let a = net.train_epoch_threads(&ds, 2, &mut opt, 0, 4).unwrap();
        assert!(a.is_finite());
        // Single-item batches too.
        let b = net.train_epoch_threads(&ds, 1, &mut opt, 1, 4).unwrap();
        assert!(b.is_finite());
    }

    #[test]
    fn reseed_dropout_pins_the_training_forward() {
        let mut net = Network::new();
        net.push(Dense::new(2, 32, 7));
        net.push(Dropout::new(0.5, 1));
        let x = Tensor::filled(&[1, 2], 1.0);
        net.reseed_dropout(99);
        let first = net.forward(&x, true).unwrap();
        let drifted = net.forward(&x, true).unwrap();
        assert_ne!(first.data(), drifted.data());
        net.reseed_dropout(99);
        assert_eq!(net.forward(&x, true).unwrap().data(), first.data());
    }

    /// Delegates every method to the wrapped layer, `as_any_mut` too, as
    /// a tracing wrapper would, and counts its `backward` calls.
    #[derive(Debug, Clone)]
    struct Counted {
        inner: Box<dyn Layer>,
        backward_calls: Arc<AtomicUsize>,
    }

    impl Layer for Counted {
        fn name(&self) -> &'static str {
            self.inner.name()
        }

        fn forward(&mut self, input: &Tensor, training: bool) -> Result<Tensor, Error> {
            self.inner.forward(input, training)
        }

        fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor, Error> {
            self.backward_calls.fetch_add(1, Ordering::Relaxed);
            self.inner.backward(grad_output)
        }

        fn visit_params(&mut self, f: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {
            self.inner.visit_params(f);
        }

        fn as_any(&self) -> &dyn Any {
            self.inner.as_any()
        }

        fn as_any_mut(&mut self) -> &mut dyn Any {
            self.inner.as_any_mut()
        }

        fn clone_box(&self) -> Box<dyn Layer> {
            Box::new(self.clone())
        }
    }

    /// Every parameter gradient, in visit order, as bits.
    fn grad_bits(layers: &mut [Box<dyn Layer>]) -> Vec<u32> {
        let mut bits = Vec::new();
        for layer in layers {
            layer.visit_params(&mut |_, g| bits.extend(g.data().iter().map(|v| v.to_bits())));
        }
        bits
    }

    /// Zeros, ±1 and values whose sums round, chosen by a hash of `i`.
    fn mixed(shape: &[usize], salt: usize) -> Tensor {
        let len: usize = shape.iter().product();
        let data = (0..len)
            .map(|i| match (i * 7919 + salt * 104_729) % 23 {
                0..=4 => 0.0,
                5..=7 => 1.0,
                8..=10 => -1.0,
                _ => (i % 97) as f32 / 13.0 - 3.5,
            })
            .collect();
        Tensor::from_vec(data, shape).unwrap()
    }

    #[test]
    fn backward_skips_only_the_first_layers_input_gradient() {
        let cfg = crate::lenet::LenetConfig { dense_width: 24, ..Default::default() };
        let mut dense_first = Network::new();
        dense_first.push(Dense::new(12, 16, 1));
        dense_first.push(Relu::new());
        dense_first.push(Dropout::new(0.5, 2));
        dense_first.push(Dense::new(16, 5, 3));
        let mut param_free_first = Network::new();
        param_free_first.push(crate::layers::Flatten::new());
        param_free_first.push(Dense::new(18, 7, 4));
        param_free_first.push(Relu::new());
        param_free_first.push(Dense::new(7, 3, 5));
        let cases = [
            ("conv first", crate::lenet::lenet5_tail(&cfg).unwrap(), vec![3, 32, 14, 14]),
            ("dense first", dense_first, vec![4, 12]),
            ("parameter-free first", param_free_first, vec![2, 2, 3, 3]),
        ];
        for (what, mut net, input_shape) in cases {
            let logits = net.forward(&mixed(&input_shape, 1), true).unwrap();
            let grad = mixed(logits.shape(), 2);
            // The clones carry the forward caches and dropout masks.
            let mut reference = net.clone().into_layers();
            let mut g = grad.clone();
            for layer in reference.iter_mut().rev() {
                g = layer.backward(&g).unwrap();
            }
            let want = grad_bits(&mut reference);
            assert!(want.iter().any(|&b| b != 0), "{what}: gradients are all zero");

            let calls: Vec<Arc<AtomicUsize>> = (0..net.len()).map(|_| Arc::default()).collect();
            let mut wrapped = Network::new();
            for (inner, backward_calls) in net.clone().into_layers().into_iter().zip(&calls) {
                wrapped.push(Counted { inner, backward_calls: Arc::clone(backward_calls) });
            }
            net.backward(&grad).unwrap();
            wrapped.backward(&grad).unwrap();
            for (got, how) in [(net, "plain"), (wrapped, "wrapped")] {
                let got = grad_bits(&mut got.into_layers());
                let differ = got.iter().zip(&want).filter(|(a, b)| a != b).count();
                assert!(got.len() == want.len() && differ == 0, "{what}, {how}: {differ} differ");
            }
            let counts: Vec<usize> = calls.iter().map(|c| c.load(Ordering::Relaxed)).collect();
            assert_eq!(counts[0], 0, "{what}: the first layer's backward ran");
            assert!(counts[1..].iter().all(|&c| c == 1), "{what}: backward calls {counts:?}");
        }
    }

    #[test]
    fn layer_access() {
        let mut net = Network::new();
        net.push(Dense::new(2, 2, 0));
        assert_eq!(net.len(), 1);
        assert!(!net.is_empty());
        assert!(net.layer(0).is_some());
        assert_eq!(net.layer(0).unwrap().name(), "dense");
    }
}
