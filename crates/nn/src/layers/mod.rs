//! Neural-network layers with forward and backward passes.

mod activation;
mod conv;
mod dense;
mod dropout;
mod flatten;
mod pool;

pub use activation::{Relu, Sign};
pub use conv::{Conv2d, Padding};
pub use dense::Dense;
pub use dropout::Dropout;
pub use flatten::Flatten;
pub use pool::MaxPool2d;

use crate::{Error, Tensor};
use std::any::Any;
use std::fmt;

/// A differentiable network layer.
///
/// Layers own their parameters and accumulated gradients; the sequential
/// [`Network`](crate::Network) drives `forward`/`backward` and hands
/// parameter/gradient pairs to the optimizer through
/// [`visit_params`](Layer::visit_params).
///
/// `Send + Sync` are supertraits so networks can be cloned into the scoped
/// worker threads of [`parallel`](crate::parallel) for batch evaluation;
/// every layer here is plain owned data, so the bounds are free.
pub trait Layer: fmt::Debug + Send + Sync {
    /// Short human-readable layer name (for summaries).
    fn name(&self) -> &'static str;

    /// Computes the layer output. `training` enables train-only behaviour
    /// (dropout masking, cache retention for backward).
    ///
    /// # Errors
    ///
    /// Returns [`Error::ShapeMismatch`] if the input shape is incompatible.
    fn forward(&mut self, input: &Tensor, training: bool) -> Result<Tensor, Error>;

    /// Propagates `grad_output` back through the layer, accumulating
    /// parameter gradients, and returns the gradient w.r.t. the input.
    ///
    /// Must be called after a `forward(…, training = true)`.
    /// [`Network::backward`](crate::Network::backward) does not call it on
    /// the network's first layer, whose input gradient nothing reads: a
    /// [`Conv2d`] or [`Dense`] there runs only its `weight_grads` half,
    /// reached through [`as_any_mut`](Layer::as_any_mut), so a wrapper
    /// layer must delegate `as_any_mut` to the layer it wraps.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ShapeMismatch`] if the gradient shape is
    /// incompatible or no forward pass was cached.
    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor, Error>;

    /// Visits every `(parameter, gradient)` pair. Parameter-free layers use
    /// the default empty implementation.
    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {}

    /// Upcast support for callers that need the concrete layer type (e.g.
    /// to read trained convolution kernels out of a network).
    fn as_any(&self) -> &dyn Any;

    /// Mutable upcast support.
    fn as_any_mut(&mut self) -> &mut dyn Any;

    /// Deep copy as a boxed trait object — lets a trained
    /// [`Network`](crate::Network) be cloned so each experiment can retrain
    /// from the same base weights.
    fn clone_box(&self) -> Box<dyn Layer>;
}

impl Clone for Box<dyn Layer> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}
