use crate::data::BatchSource;
use crate::layers::{Dropout, Layer};
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
    /// Mean cross-entropy loss.
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
    /// # Errors
    ///
    /// Propagates layer shape errors (e.g. backward before forward).
    pub fn backward(&mut self, grad: &Tensor) -> Result<Tensor, Error> {
        let mut g = grad.clone();
        for layer in self.layers.iter_mut().rev() {
            g = layer.backward(&g)?;
        }
        Ok(g)
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
    /// data-parallel trainer calls this on each gradient-shard clone so
    /// mask streams depend on the `(batch, shard)` pair instead of on a
    /// shared mutable RNG — the one piece of training state that would
    /// otherwise tie the result to the execution order.
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
    /// Propagates shape errors from the layers, the source, or the loss.
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
    /// smaller), each shard gathers its items
    /// (so streaming sources compute their chunks concurrently too), runs
    /// forward/backward on a clone of the current parameters with a
    /// `(batch, shard)`-seeded dropout stream, and the shard gradients are
    /// reduced in shard order on the calling thread before the single
    /// optimizer step. Shard boundaries, dropout seeds, and reduction
    /// order are all independent of `threads`, so the trained weights and
    /// the per-epoch loss are **byte-identical for every thread count**
    /// (property-tested).
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the layers, the source, or the loss.
    pub fn train_epoch_threads<S: BatchSource + ?Sized>(
        &mut self,
        source: &S,
        batch_size: usize,
        opt: &mut dyn Optimizer,
        shuffle_seed: u64,
        threads: usize,
    ) -> Result<f32, Error> {
        assert!(batch_size > 0, "batch size must be positive");
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
    /// of the shard mean-loss gradients; accumulating those in fixed shard
    /// order on the calling thread keeps the floating-point association
    /// order — and therefore the updated weights — independent of how the
    /// shards were scheduled.
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
        type ShardResult = Result<(Vec<f32>, f32, usize), Error>;
        let per_shard: Vec<ShardResult> =
            crate::parallel::par_map_range_threads(threads, shards, |s| {
                let shard = &indices[s * shard_len..((s + 1) * shard_len).min(n)];
                let (x, labels) = source.gather(shard)?;
                let mut worker = net.clone();
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
            });

        let _reduce = scnn_obs::span("nn/grad_reduce");
        let mut acc: Vec<f32> = Vec::new();
        let mut loss = 0.0f64;
        for result in per_shard {
            let (flat, shard_loss, shard_items) = result?;
            let weight = shard_items as f32 / n as f32;
            if acc.is_empty() {
                acc = flat.iter().map(|&g| g * weight).collect();
            } else {
                for (a, &g) in acc.iter_mut().zip(&flat) {
                    *a += g * weight;
                }
            }
            loss += f64::from(shard_loss) * f64::from(weight);
        }
        drop(_reduce);
        let mut offset = 0usize;
        self.visit_all_params(&mut |_, g| {
            let data = g.data_mut();
            data.copy_from_slice(&acc[offset..offset + data.len()]);
            offset += data.len();
        });
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
        Ok((0..batch)
            .map(|bi| {
                let row = &logits.data()[bi * classes..(bi + 1) * classes];
                row.iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite logits"))
                    .map(|(i, _)| i)
                    .expect("at least one class")
            })
            .collect())
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
    /// Propagates layer shape and source errors.
    pub fn evaluate<S: BatchSource + ?Sized>(
        &mut self,
        source: &S,
        batch_size: usize,
    ) -> Result<Evaluation, Error> {
        assert!(batch_size > 0, "batch size must be positive");
        let _pass = scnn_obs::span("nn/evaluate");
        let total = source.len();
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
            let (batch_correct, batch_loss) = result?;
            correct += batch_correct;
            loss_total += batch_loss;
        }
        Ok(Evaluation {
            accuracy: correct as f64 / total as f64,
            loss: (loss_total / batches.len().max(1) as f64) as f32,
            correct,
            total,
        })
    }

    /// One evaluation batch: forward, loss, and correct-prediction count.
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
        Ok((count_correct(&logits, &labels)?, f64::from(loss)))
    }

    /// Evaluates two networks — e.g. an un-retrained and a retrained tail —
    /// over **one** pass of a [`BatchSource`], returning their evaluations
    /// in argument order. Each batch is materialized once and forwarded
    /// through both networks, so a streaming source (feature extraction,
    /// chunk decoding) pays its per-batch cost once instead of per network.
    /// Batches are distributed and reduced exactly like
    /// [`evaluate`](Self::evaluate), so each result is byte-identical with
    /// evaluating that network alone, for every thread count.
    ///
    /// # Errors
    ///
    /// Propagates layer shape and source errors.
    pub fn evaluate_pair<S: BatchSource + ?Sized>(
        a: &Network,
        b: &Network,
        source: &S,
        batch_size: usize,
    ) -> Result<(Evaluation, Evaluation), Error> {
        assert!(batch_size > 0, "batch size must be positive");
        let _pass = scnn_obs::span("nn/evaluate_pair");
        let total = source.len();
        let batches: Vec<std::ops::Range<usize>> =
            (0..total).step_by(batch_size).map(|s| s..(s + batch_size).min(total)).collect();
        type PairResult = Result<[(usize, f64); 2], Error>;
        let per_batch: Vec<PairResult> = crate::parallel::par_chunk_map(batches.len(), |range| {
            let mut workers = [a.clone(), b.clone()];
            range
                .map(|bi| {
                    let (x, labels) = source.batch_range(batches[bi].clone())?;
                    let mut out = [(0usize, 0.0f64); 2];
                    for (worker, slot) in workers.iter_mut().zip(&mut out) {
                        let logits = worker.forward(&x, false)?;
                        let (loss, _) = softmax_cross_entropy(&logits, &labels)?;
                        *slot = (count_correct(&logits, &labels)?, f64::from(loss));
                    }
                    Ok(out)
                })
                .collect()
        });
        let mut correct = [0usize; 2];
        let mut loss_total = [0.0f64; 2];
        for result in per_batch {
            let pair = result?;
            for (i, (batch_correct, batch_loss)) in pair.into_iter().enumerate() {
                correct[i] += batch_correct;
                loss_total[i] += batch_loss;
            }
        }
        let evaluation = |i: usize| Evaluation {
            accuracy: correct[i] as f64 / total as f64,
            loss: (loss_total[i] / batches.len().max(1) as f64) as f32,
            correct: correct[i],
            total,
        };
        Ok((evaluation(0), evaluation(1)))
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

/// Argmax-vs-label count over a `[batch, classes]` logits tensor.
fn count_correct(logits: &Tensor, labels: &[u8]) -> Result<usize, Error> {
    let &[batch, classes] = logits.shape() else {
        return Err(Error::shape("[batch, classes] logits", logits.shape()));
    };
    let mut correct = 0usize;
    for (bi, &label) in labels.iter().enumerate().take(batch) {
        let row = &logits.data()[bi * classes..(bi + 1) * classes];
        let pred = row
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite logits"))
            .map(|(i, _)| i)
            .expect("at least one class");
        if pred == usize::from(label) {
            correct += 1;
        }
    }
    Ok(correct)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::Dataset;
    use crate::layers::{Dense, Relu};
    use crate::optim::{Adam, Sgd};

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
    fn evaluate_pair_matches_individual_evaluations() {
        let ds = xor_dataset();
        let mut a = Network::new();
        a.push(Dense::new(2, 8, 11));
        a.push(Relu::new());
        a.push(Dense::new(8, 2, 12));
        let mut b = a.clone();
        let mut opt = Sgd::new(0.4);
        for epoch in 0..10 {
            b.train_epoch(&ds, 16, &mut opt, epoch).unwrap();
        }
        let (pa, pb) = Network::evaluate_pair(&a, &b, &ds, 13).unwrap();
        let ea = a.evaluate(&ds, 13).unwrap();
        let eb = b.evaluate(&ds, 13).unwrap();
        assert_eq!(pa, ea);
        assert_eq!(pb, eb);
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
