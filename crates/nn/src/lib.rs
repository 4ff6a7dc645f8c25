//! A minimal, dependency-light CPU neural-network training framework.
//!
//! This crate is the `scnn` workspace's stand-in for the paper's
//! TensorFlow/Keras training stack (see the README, *Substitutions*, item 2). It
//! provides exactly what reproducing the paper requires — and implements all
//! of it from scratch:
//!
//! * [`Tensor`] — a flat `f32` n-d array with the handful of kernels the
//!   layers need (elementwise ops) and [`matmul_into`], the one
//!   register-tiled matrix product behind every layer,
//! * [`layers`] — `Conv2d`, `MaxPool2d`, `Dense`, `Flatten`, `Relu`,
//!   [`layers::Sign`] (the paper's ternary first-layer activation, trained
//!   with a straight-through estimator), `Dropout`,
//! * [`Network`] — a sequential container with backpropagation,
//!   cross-entropy loss and accuracy evaluation,
//! * [`optim`] — SGD, momentum and Adam optimizers,
//! * [`data`] — the MNIST IDX parser plus a synthetic stroke-rendered
//!   digit generator used when the real files are absent (substitution 3),
//! * [`lenet`] — the LeNet-5 variant of the paper's Fig. 3,
//! * [`quant`] — weight scaling, uniform quantization and soft thresholding
//!   (Kim et al., DAC 2016) used by the hybrid first layer.
//!
//! # Example: train a tiny classifier
//!
//! ```
//! use scnn_nn::{data::Dataset, layers, optim::Sgd, Network};
//!
//! # fn main() -> Result<(), scnn_nn::Error> {
//! // Toy two-class problem: is the single input pixel bright?
//! let data: Vec<f32> = (0..64).map(|i| f32::from(i % 2 == 0)).collect();
//! let labels: Vec<u8> = (0..64).map(|i| (i % 2 == 0) as u8).collect();
//! let ds = Dataset::new(data, &[1], labels)?;
//!
//! let mut net = Network::new();
//! net.push(layers::Dense::new(1, 2, 42));
//! let mut opt = Sgd::new(0.5);
//! for _ in 0..20 {
//!     net.train_epoch(&ds, 8, &mut opt, 7)?;
//! }
//! assert!(net.evaluate(&ds, 8)?.accuracy > 0.99);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod data;
mod error;
pub mod layers;
pub mod lenet;
mod loss;
mod network;
pub mod optim;
pub mod parallel;
pub mod quant;
pub mod serialize;
mod tensor;

pub use error::Error;
pub use loss::softmax_cross_entropy;
pub use network::{Evaluation, Network};
pub use tensor::{matmul_into, Layout, MatRef, Tensor, NN, NT, TN};
