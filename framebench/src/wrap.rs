//! Timing wrappers at the library's public trait boundaries: the first
//! layer ([`FirstLayer`]), each binary-tail [`Layer`], and the image
//! [`BatchSource`]. Each delegates every method to the wrapped value, so
//! the program computes exactly what it computes without them.

use crate::trace;
use scnn_core::FirstLayer;
use scnn_nn::data::BatchSource;
use scnn_nn::layers::Layer;
use scnn_nn::{Network, Tensor};
use std::any::Any;
use std::ops::Range;
use std::sync::Arc;

/// Span name of one first-layer image forward.
pub const HEAD_FORWARD: &str = "core.stochastic.forward";

/// A first-layer engine whose image forwards are spans.
pub struct TracedHead(pub Arc<dyn FirstLayer>);

impl FirstLayer for TracedHead {
    fn forward_image(&self, image: &[f32]) -> Result<Vec<f32>, scnn_core::Error> {
        let _span = trace::span(HEAD_FORWARD);
        self.0.forward_image(image)
    }

    fn forward_image_indexed(
        &self,
        image: &[f32],
        image_index: u64,
    ) -> Result<Vec<f32>, scnn_core::Error> {
        let _span = trace::span(HEAD_FORWARD);
        self.0.forward_image_indexed(image, image_index)
    }

    fn kernels(&self) -> usize {
        self.0.kernels()
    }

    fn label(&self) -> String {
        self.0.label()
    }
}

/// A tail layer whose forward and backward calls are spans named
/// `nn.tail.<i>_<layer>.forward` / `.backward`.
#[derive(Debug)]
pub struct TracedLayer {
    inner: Box<dyn Layer>,
    forward: &'static str,
    backward: &'static str,
}

impl Layer for TracedLayer {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn forward(&mut self, input: &Tensor, training: bool) -> Result<Tensor, scnn_nn::Error> {
        let _span = trace::span(self.forward);
        self.inner.forward(input, training)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor, scnn_nn::Error> {
        let _span = trace::span(self.backward);
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
        Box::new(Self { inner: self.inner.clone_box(), ..*self })
    }
}

/// Stage name of tail layer `index`, e.g. `nn.tail.0_conv2d`.
pub fn tail_stage(index: usize, layer: &str) -> String {
    format!("nn.tail.{index}_{layer}")
}

/// Wraps every layer of `tail` in a [`TracedLayer`], in order.
pub fn traced_tail(tail: Network) -> Network {
    let mut traced = Network::new();
    for (i, inner) in tail.into_layers().into_iter().enumerate() {
        let stage = tail_stage(i, inner.name());
        // Eight names per process; leaking them gives the `&'static str`
        // span names the recorder stores.
        let forward = Box::leak(format!("{stage}.forward").into_boxed_str());
        let backward = Box::leak(format!("{stage}.backward").into_boxed_str());
        traced.push_boxed(Box::new(TracedLayer { inner, forward, backward }));
    }
    traced
}

/// Span name of one image-source read.
pub const DATA_READ: &str = "nn.data.read";

/// An image source whose `batch_range` and `gather` calls are spans.
pub struct TracedSource<'a, S: ?Sized>(pub &'a S);

impl<S: BatchSource + ?Sized> BatchSource for TracedSource<'_, S> {
    fn len(&self) -> usize {
        self.0.len()
    }

    fn item_shape(&self) -> &[usize] {
        self.0.item_shape()
    }

    fn batch_range(&self, range: Range<usize>) -> Result<(Tensor, Vec<u8>), scnn_nn::Error> {
        let _span = trace::span(DATA_READ);
        self.0.batch_range(range)
    }

    fn gather(&self, indices: &[usize]) -> Result<(Tensor, Vec<u8>), scnn_nn::Error> {
        let _span = trace::span(DATA_READ);
        self.0.gather(indices)
    }
}
