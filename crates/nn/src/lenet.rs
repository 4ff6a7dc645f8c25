//! The LeNet-5 variant of the paper's Fig. 3 (a Keras-style layout):
//!
//! ```text
//! input [1, 28, 28]
//!   → Conv2d(32, 5×5, same)   ┐ head: replaced by the stochastic /
//!   → Sign(τ) or ReLU         │ quantized-binary engine in scnn-core
//!   → MaxPool 2×2             ┘
//!   → Conv2d(64, 5×5, valid)  ┐
//!   → ReLU → MaxPool 2×2      │ tail: always binary, retrained to absorb
//!   → Flatten → Dense(256)    │ the head's precision loss (§V-B)
//!   → ReLU → Dropout(0.5)     │
//!   → Dense(10)               ┘
//! ```
//!
//! The dense width is 256 (vs. the common 512) purely for CPU training
//! speed; see the README, *Substitutions*, item 2.

use crate::layers::{Conv2d, Dense, Dropout, Flatten, MaxPool2d, Padding, Relu, Sign};
use crate::{Error, Network};

/// First-layer activation selection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FirstActivation {
    /// Standard rectified linear unit (float baseline).
    Relu,
    /// The paper's ternary sign with soft threshold τ.
    Sign(f32),
}

/// Configuration for the LeNet-5 builder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LenetConfig {
    /// Activation after the first convolution.
    pub first_activation: FirstActivation,
    /// Width of the penultimate dense layer.
    pub dense_width: usize,
    /// Dropout rate before the classifier head.
    pub dropout: f32,
    /// Seed for all weight initialization and dropout masks.
    pub seed: u64,
}

impl Default for LenetConfig {
    fn default() -> Self {
        Self {
            first_activation: FirstActivation::Sign(0.0),
            dense_width: 256,
            dropout: 0.5,
            seed: 42,
        }
    }
}

/// Number of first-layer kernels (the paper's 32 parallel convolutions).
pub const CONV1_KERNELS: usize = 32;
/// First-layer kernel side (5×5 windows, 25 stochastic multipliers each).
pub const CONV1_KERNEL_SIZE: usize = 5;
/// Second-layer kernels.
pub const CONV2_KERNELS: usize = 64;

/// Builds the head of LeNet-5: `Conv1 → activation → MaxPool`.
///
/// This is the part the hybrid design replaces with stochastic hardware.
///
/// # Errors
///
/// Propagates layer construction errors.
pub fn lenet5_head(cfg: &LenetConfig) -> Result<Network, Error> {
    let mut net = Network::new();
    net.push(Conv2d::new(1, CONV1_KERNELS, CONV1_KERNEL_SIZE, Padding::Same, cfg.seed)?);
    match cfg.first_activation {
        FirstActivation::Relu => net.push(Relu::new()),
        FirstActivation::Sign(tau) => net.push(Sign::new(tau)),
    }
    net.push(MaxPool2d::new());
    Ok(net)
}

/// Builds the binary tail of LeNet-5: everything after the first pooling
/// stage (input shape `[32, 14, 14]`). This is the part that gets retrained.
///
/// # Errors
///
/// Propagates layer construction errors.
pub fn lenet5_tail(cfg: &LenetConfig) -> Result<Network, Error> {
    let mut net = Network::new();
    net.push(Conv2d::new(CONV1_KERNELS, CONV2_KERNELS, 5, Padding::Valid, cfg.seed ^ 0xc2)?);
    net.push(Relu::new());
    net.push(MaxPool2d::new());
    net.push(Flatten::new());
    // 14×14 → conv valid → 10×10 → pool → 5×5.
    net.push(Dense::new(CONV2_KERNELS * 5 * 5, cfg.dense_width, cfg.seed ^ 0xd1));
    net.push(Relu::new());
    net.push(Dropout::new(cfg.dropout, cfg.seed ^ 0xd0));
    net.push(Dense::new(cfg.dense_width, 10, cfg.seed ^ 0xd2));
    Ok(net)
}

/// Builds the full LeNet-5 (head + tail).
///
/// # Errors
///
/// Propagates layer construction errors.
///
/// # Example
///
/// ```
/// use scnn_nn::lenet::{lenet5, LenetConfig};
/// use scnn_nn::Tensor;
///
/// # fn main() -> Result<(), scnn_nn::Error> {
/// let mut net = lenet5(&LenetConfig::default())?;
/// let logits = net.forward(&Tensor::zeros(&[1, 1, 28, 28]), false)?;
/// assert_eq!(logits.shape(), &[1, 10]);
/// # Ok(())
/// # }
/// ```
pub fn lenet5(cfg: &LenetConfig) -> Result<Network, Error> {
    let mut net = lenet5_head(cfg)?;
    for layer in lenet5_tail(cfg)?.into_layers() {
        net.push_boxed(layer);
    }
    Ok(net)
}

/// Number of layers in the head (`Conv1 → activation → MaxPool`).
pub const HEAD_LAYERS: usize = 3;

/// Splits a trained full LeNet-5 back into `(head, tail)` at the boundary
/// the hybrid design replaces.
///
/// # Panics
///
/// Panics if the network has fewer than [`HEAD_LAYERS`] layers.
pub fn split(net: Network) -> (Network, Network) {
    let mut layers = net.into_layers();
    assert!(layers.len() >= HEAD_LAYERS, "network too small to split");
    let tail_layers = layers.split_off(HEAD_LAYERS);
    let mut head = Network::new();
    for l in layers {
        head.push_boxed(l);
    }
    let mut tail = Network::new();
    for l in tail_layers {
        tail.push_boxed(l);
    }
    (head, tail)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tensor;

    #[test]
    fn shapes_flow_end_to_end() {
        let cfg = LenetConfig::default();
        let mut head = lenet5_head(&cfg).unwrap();
        let x = Tensor::zeros(&[2, 1, 28, 28]);
        let features = head.forward(&x, false).unwrap();
        assert_eq!(features.shape(), &[2, CONV1_KERNELS, 14, 14]);
        let mut tail = lenet5_tail(&cfg).unwrap();
        let logits = tail.forward(&features, false).unwrap();
        assert_eq!(logits.shape(), &[2, 10]);
    }

    #[test]
    fn full_network_matches_head_plus_tail() {
        let cfg = LenetConfig { dropout: 0.0, ..LenetConfig::default() };
        let mut full = lenet5(&cfg).unwrap();
        let mut head = lenet5_head(&cfg).unwrap();
        let mut tail = lenet5_tail(&cfg).unwrap();
        let x =
            Tensor::from_vec((0..784).map(|v| (v % 255) as f32 / 255.0).collect(), &[1, 1, 28, 28])
                .unwrap();
        let direct = full.forward(&x, false).unwrap();
        let staged = tail.forward(&head.forward(&x, false).unwrap(), false).unwrap();
        for (a, b) in direct.data().iter().zip(staged.data()) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn sign_head_outputs_are_ternary() {
        let cfg = LenetConfig::default();
        let mut head = lenet5_head(&cfg).unwrap();
        let x =
            Tensor::from_vec((0..784).map(|v| (v % 199) as f32 / 199.0).collect(), &[1, 1, 28, 28])
                .unwrap();
        let f = head.forward(&x, false).unwrap();
        assert!(f.data().iter().all(|&v| v == -1.0 || v == 0.0 || v == 1.0));
    }

    #[test]
    fn parameter_counts() {
        let cfg = LenetConfig::default();
        let mut net = lenet5(&cfg).unwrap();
        // conv1: 32·25 + 32; conv2: 64·32·25 + 64; d1: 1600·256 + 256; d2: 256·10 + 10.
        let expected = 32 * 25 + 32 + 64 * 32 * 25 + 64 + 1600 * 256 + 256 + 256 * 10 + 10;
        assert_eq!(net.num_params(), expected);
        assert!(net.summary().starts_with("conv2d"));
    }
}
