//! Base-model training and the §V-B retraining pipeline.
//!
//! The paper's workflow, reproduced here end to end:
//!
//! 1. [`train_base`] — train the full LeNet-5 (sign first-layer activation,
//!    straight-through gradients) in float. This is the paper's
//!    TensorFlow/Keras step.
//! 2. Build a hardware engine ([`StochasticConvLayer`] /
//!    [`BinaryConvLayer`]) from the trained first-layer convolution.
//! 3. [`retrain`] — freeze the engine and retrain the binary tail on its
//!    feature maps, extracted once per dataset, recovering the accuracy
//!    lost to quantization and stochastic noise.
//!
//! [`StochasticConvLayer`]: crate::StochasticConvLayer
//! [`BinaryConvLayer`]: crate::BinaryConvLayer

use crate::baseline::FirstLayer;
use crate::hybrid::HybridLenet;
use crate::Error;
use scnn_nn::data::Dataset;
use scnn_nn::layers::Conv2d;
use scnn_nn::lenet::{lenet5, split, LenetConfig};
use scnn_nn::optim::Adam;
use scnn_nn::{Evaluation, Network};

/// Hyper-parameters for base-model training.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainConfig {
    /// Training epochs.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Adam learning rate.
    pub learning_rate: f32,
    /// Network architecture parameters.
    pub lenet: LenetConfig,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self { epochs: 3, batch_size: 32, learning_rate: 1e-3, lenet: LenetConfig::default() }
    }
}

/// A trained base model, split at the hybrid boundary.
#[derive(Debug, Clone)]
pub struct BaseModel {
    /// The trained float head (`Conv1 → Sign → MaxPool`).
    pub head: Network,
    /// The trained binary tail (retraining starts from these weights).
    pub tail: Network,
    /// Test-set evaluation of the full float model.
    pub evaluation: Evaluation,
    /// The configuration it was trained with.
    pub config: TrainConfig,
}

impl BaseModel {
    /// The trained first-layer convolution (the engines' parameter source).
    ///
    /// # Panics
    ///
    /// Panics if the head was tampered with (layer 0 must be a `Conv2d`).
    pub fn conv1(&self) -> &Conv2d {
        self.head
            .layer(0)
            .expect("head has layers")
            .as_any()
            .downcast_ref::<Conv2d>()
            .expect("layer 0 is the first convolution")
    }

    /// A fresh copy of the tail for one retraining experiment.
    pub fn tail_clone(&self) -> Network {
        self.tail.clone()
    }

    /// Persists the trained parameters (head, tail, and the recorded test
    /// evaluation) so later runs can skip base training.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn save(&mut self, path: &std::path::Path) -> Result<(), Error> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent).map_err(|e| Error::config(e.to_string()))?;
        }
        let file = std::fs::File::create(path).map_err(|e| Error::config(e.to_string()))?;
        let mut writer = std::io::BufWriter::new(file);
        scnn_nn::serialize::write_network(&mut self.head, &mut writer)?;
        scnn_nn::serialize::write_network(&mut self.tail, &mut writer)?;
        use std::io::Write;
        let meta = [
            self.evaluation.accuracy.to_le_bytes().to_vec(),
            f64::from(self.evaluation.loss).to_le_bytes().to_vec(),
            (self.evaluation.correct as u64).to_le_bytes().to_vec(),
            (self.evaluation.total as u64).to_le_bytes().to_vec(),
        ]
        .concat();
        writer.write_all(&meta).map_err(|e| Error::config(e.to_string()))?;
        Ok(())
    }

    /// Loads a model previously written by [`save`](Self::save), rebuilding
    /// the architecture from `config`. Returns `Ok(None)` if the file does
    /// not exist.
    ///
    /// # Errors
    ///
    /// Returns an error for a present-but-corrupt or mismatched file.
    pub fn load(path: &std::path::Path, config: &TrainConfig) -> Result<Option<BaseModel>, Error> {
        if !path.exists() {
            return Ok(None);
        }
        let file = std::fs::File::open(path).map_err(|e| Error::config(e.to_string()))?;
        let mut reader = std::io::BufReader::new(file);
        let net = lenet5(&config.lenet)?;
        let (mut head, mut tail) = split(net);
        scnn_nn::serialize::read_network_into(&mut head, &mut reader)?;
        scnn_nn::serialize::read_network_into(&mut tail, &mut reader)?;
        use std::io::Read;
        let mut buf8 = [0u8; 8];
        let mut read8 = |r: &mut std::io::BufReader<std::fs::File>| -> Result<[u8; 8], Error> {
            r.read_exact(&mut buf8).map_err(|e| Error::config(e.to_string()))?;
            Ok(buf8)
        };
        let accuracy = f64::from_le_bytes(read8(&mut reader)?);
        let loss = f64::from_le_bytes(read8(&mut reader)?) as f32;
        let correct = u64::from_le_bytes(read8(&mut reader)?) as usize;
        let total = u64::from_le_bytes(read8(&mut reader)?) as usize;
        let evaluation = Evaluation { accuracy, loss, correct, total };
        Ok(Some(BaseModel { head, tail, evaluation, config: *config }))
    }
}

/// Trains the full float LeNet-5 base model (paper §V-A: "All NN training
/// was performed using the TensorFlow framework" — here, `scnn-nn`).
///
/// # Errors
///
/// Returns [`Error::Config`] for a zero batch size or an empty test set;
/// propagates training errors.
pub fn train_base(
    train: &Dataset,
    test: &Dataset,
    config: &TrainConfig,
) -> Result<BaseModel, Error> {
    check_evaluation(config.batch_size, test.len())?;
    let mut net = lenet5(&config.lenet)?;
    let mut opt = Adam::new(config.learning_rate);
    for epoch in 0..config.epochs {
        net.train_epoch(train, config.batch_size, &mut opt, config.lenet.seed ^ epoch as u64)?;
    }
    let evaluation = net.evaluate(test, 64)?;
    let (head, tail) = split(net);
    Ok(BaseModel { head, tail, evaluation, config: *config })
}

/// Hyper-parameters for tail retraining.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetrainConfig {
    /// Retraining epochs (the paper notes a few suffice).
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Adam learning rate (lower than base training: fine-tuning).
    pub learning_rate: f32,
    /// Shuffle seed.
    pub seed: u64,
}

impl Default for RetrainConfig {
    fn default() -> Self {
        Self { epochs: 2, batch_size: 32, learning_rate: 5e-4, seed: 77 }
    }
}

/// Before/after accuracy of one retraining run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetrainReport {
    /// Test accuracy with the engine's features and the *base* tail
    /// (i.e. quantize/convert without retraining — the §V-B ablation).
    pub before: Evaluation,
    /// Test accuracy after retraining the tail on the engine's features.
    pub after: Evaluation,
}

impl RetrainReport {
    /// Accuracy recovered by retraining, in percentage points.
    pub fn recovered_points(&self) -> f64 {
        (self.after.accuracy - self.before.accuracy) * 100.0
    }
}

/// Runs the §V-B pipeline for one engine: freeze the first layer, evaluate
/// the un-retrained tail, retrain it on the engine's features, and evaluate
/// again. Returns the hybrid network (with the retrained tail) and the
/// report.
///
/// The frozen engine runs once per image: the training features are
/// extracted once ([`HybridLenet::extract_features`]) and every epoch
/// trains on them, then they are dropped before the test features are
/// extracted for both evaluations. Peak memory is one dataset's features,
/// `kernels × 14 × 14` floats per image (25 KB at LeNet-5's 32 kernels).
///
/// # Errors
///
/// Returns [`Error::Config`] for a zero batch size or an empty test set
/// before the engine runs; propagates engine and training errors.
pub fn retrain(
    engine: Box<dyn FirstLayer>,
    base_tail: Network,
    train: &Dataset,
    test: &Dataset,
    config: &RetrainConfig,
) -> Result<(HybridLenet, RetrainReport), Error> {
    check_evaluation(config.batch_size, test.len())?;
    let mut hybrid = HybridLenet::new(engine, base_tail);
    // A pre-training copy of the tail: the "no retraining" ablation row.
    let mut base_tail = hybrid.tail().clone();
    let mut opt = Adam::new(config.learning_rate);
    let train_features = hybrid.extract_features(train)?;
    for epoch in 0..config.epochs {
        hybrid.tail_mut().train_epoch(
            &train_features,
            config.batch_size,
            &mut opt,
            config.seed ^ epoch as u64,
        )?;
    }
    drop(train_features);
    let test_features = hybrid.extract_features(test)?;
    let before = base_tail.evaluate(&test_features, 64)?;
    let after = hybrid.tail_mut().evaluate(&test_features, 64)?;
    Ok((hybrid, RetrainReport { before, after }))
}

/// Rejects a zero batch size, and an evaluation over no images (whose
/// accuracy is undefined), before any training or feature work starts.
pub(crate) fn check_evaluation(batch_size: usize, images: usize) -> Result<(), Error> {
    if batch_size == 0 {
        return Err(Error::config("batch size must be positive"));
    }
    if images == 0 {
        return Err(Error::config("cannot evaluate an empty test set"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::BinaryConvLayer;
    use scnn_bitstream::Precision;
    use scnn_nn::data::synthetic;

    fn tiny_config() -> TrainConfig {
        TrainConfig { epochs: 1, batch_size: 16, ..TrainConfig::default() }
    }

    #[test]
    fn base_training_learns_something() {
        let train = synthetic::generate(120, 1);
        let test = synthetic::generate(60, 2);
        let config = TrainConfig { epochs: 2, ..tiny_config() };
        let base = train_base(&train, &test, &config).unwrap();
        // Two epochs on 120 images: far better than the 10% chance floor.
        assert!(base.evaluation.accuracy > 0.3, "accuracy {}", base.evaluation.accuracy);
        assert_eq!(base.conv1().out_channels(), 32);
        assert_eq!(base.head.len(), 3);
        assert!(base.tail.len() >= 7);
    }

    fn param_bits(net: &mut Network) -> Vec<u32> {
        let mut bits = Vec::new();
        net.visit_all_params(&mut |p, _| bits.extend(p.data().iter().map(|v| v.to_bits())));
        bits
    }

    #[test]
    fn tail_clone_is_independent() {
        let train = synthetic::generate(40, 3);
        let test = synthetic::generate(20, 4);
        let mut base = train_base(&train, &test, &tiny_config()).unwrap();
        let mut a = base.tail_clone();
        let mut b = base.tail_clone();
        // Train one clone; the other must keep the base tail's bits.
        let features = HybridLenet::new(
            Box::new(crate::FloatConvLayer::from_conv(base.conv1(), 0.0).unwrap()),
            base.tail_clone(),
        )
        .extract_features(&train)
        .unwrap();
        let mut opt = Adam::new(1e-3);
        a.train_epoch(&features, 8, &mut opt, 0).unwrap();
        let base_bits = param_bits(&mut base.tail);
        assert!(param_bits(&mut b) == base_bits, "untrained clone drifted from the base tail");
        assert!(param_bits(&mut a) != base_bits, "training left the clone unchanged");
    }

    #[test]
    fn base_model_save_load_round_trip() {
        let train = synthetic::generate(60, 7);
        let test = synthetic::generate(30, 8);
        let config = tiny_config();
        let mut base = train_base(&train, &test, &config).unwrap();
        let dir = std::env::temp_dir().join(format!("scnn-base-{}", std::process::id()));
        let path = dir.join("base.bin");
        base.save(&path).unwrap();
        let mut loaded = BaseModel::load(&path, &config).unwrap().expect("file present");
        // Same parameters ⇒ same test evaluation.
        assert_eq!(loaded.evaluation, base.evaluation);
        let re_eval_a = {
            let mut full = base.head.clone();
            for l in base.tail_clone().into_layers() {
                full.push_boxed(l);
            }
            full.evaluate(&test, 64).unwrap()
        };
        let re_eval_b = {
            let mut full = loaded.head.clone();
            for l in loaded.tail_clone().into_layers() {
                full.push_boxed(l);
            }
            full.evaluate(&test, 64).unwrap()
        };
        assert_eq!(re_eval_a.correct, re_eval_b.correct);
        // conv1 weights identical.
        assert_eq!(base.conv1().weights().data(), loaded.conv1().weights().data());
        let _ = &mut loaded;
        std::fs::remove_dir_all(&dir).unwrap();
        assert!(BaseModel::load(&path, &config).unwrap().is_none());
    }

    #[test]
    fn zero_batch_size_is_a_config_error() {
        let train = synthetic::generate(8, 9);
        let test = synthetic::generate(4, 10);
        let config = TrainConfig { batch_size: 0, ..tiny_config() };
        assert!(matches!(train_base(&train, &test, &config), Err(Error::Config { .. })));
        let conv = Conv2d::new(1, 32, 5, scnn_nn::layers::Padding::Same, 1).unwrap();
        let engine = crate::FloatConvLayer::from_conv(&conv, 0.0).unwrap();
        let tail = scnn_nn::lenet::lenet5_tail(&LenetConfig::default()).unwrap();
        let config = RetrainConfig { batch_size: 0, ..RetrainConfig::default() };
        let result = retrain(Box::new(engine), tail, &train, &test, &config);
        assert!(matches!(result, Err(Error::Config { .. })));
    }

    #[test]
    fn empty_test_set_is_a_config_error() {
        let (train, empty) = (synthetic::generate(8, 9), synthetic::generate(0, 10));
        let err = train_base(&train, &empty, &tiny_config()).unwrap_err();
        assert!(err.to_string().contains("empty test set"), "{err}");
    }

    #[test]
    fn retraining_recovers_accuracy_at_low_precision() {
        let train = synthetic::generate(200, 5);
        let test = synthetic::generate(80, 6);
        let base = train_base(&train, &test, &TrainConfig { epochs: 2, ..tiny_config() }).unwrap();
        // 2-bit quantization hurts; retraining must claw accuracy back.
        let engine =
            BinaryConvLayer::from_conv(base.conv1(), Precision::new(2).unwrap(), 0.0).unwrap();
        let (mut hybrid, report) = retrain(
            Box::new(engine),
            base.tail_clone(),
            &train,
            &test,
            &RetrainConfig { epochs: 2, ..RetrainConfig::default() },
        )
        .unwrap();
        assert!(report.after.accuracy >= report.before.accuracy, "retraining hurt: {report:?}");
        // The returned hybrid uses the retrained tail.
        let eval = hybrid.evaluate(&test, 64).unwrap();
        assert_eq!(eval.correct, report.after.correct);
    }
}
