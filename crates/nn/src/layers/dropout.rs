use super::Layer;
use crate::{Error, Tensor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::any::Any;

/// Inverted dropout: during training each activation is zeroed with
/// probability `rate` and survivors are scaled by `1/(1−rate)`; at inference
/// the layer is the identity (paper §II-B's overfitting countermeasure).
///
/// # Example
///
/// ```
/// use scnn_nn::layers::{Dropout, Layer};
/// use scnn_nn::Tensor;
///
/// # fn main() -> Result<(), scnn_nn::Error> {
/// let mut drop = Dropout::new(0.5, 42);
/// let x = Tensor::filled(&[1, 100], 1.0);
/// // Identity at inference:
/// assert_eq!(drop.forward(&x, false)?.data(), x.data());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Dropout {
    rate: f32,
    rng: StdRng,
    mask_cache: Vec<f32>,
}

impl Dropout {
    /// Creates a dropout layer with drop probability `rate`, deterministic
    /// from `seed`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= rate < 1`.
    pub fn new(rate: f32, seed: u64) -> Self {
        assert!((0.0..1.0).contains(&rate), "dropout rate {rate} outside [0, 1)");
        Self { rate, rng: StdRng::seed_from_u64(seed), mask_cache: Vec::new() }
    }

    /// The drop probability.
    pub fn rate(&self) -> f32 {
        self.rate
    }

    /// Resets the mask stream to a fresh deterministic sequence.
    ///
    /// The data-parallel trainer reseeds its worker's dropout from the
    /// `(batch, shard)` pair before each gradient shard, so the masks
    /// depend only on the shard boundaries — which are fixed — and never
    /// on the thread count or on a worker's earlier shards.
    pub fn reseed(&mut self, seed: u64) {
        self.rng = StdRng::seed_from_u64(seed);
    }
}

impl Layer for Dropout {
    fn name(&self) -> &'static str {
        "dropout"
    }

    fn forward(&mut self, input: &Tensor, training: bool) -> Result<Tensor, Error> {
        if !training || self.rate == 0.0 {
            return Ok(input.clone());
        }
        let keep = 1.0 - self.rate;
        let scale = 1.0 / keep;
        self.mask_cache = (0..input.len())
            .map(|_| if self.rng.gen::<f32>() < keep { scale } else { 0.0 })
            .collect();
        let data = input.data().iter().zip(&self.mask_cache).map(|(&v, &m)| v * m).collect();
        Tensor::from_vec(data, input.shape())
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor, Error> {
        if self.rate == 0.0 {
            return Ok(grad_output.clone());
        }
        if grad_output.len() != self.mask_cache.len() {
            return Err(Error::shape(
                format!("{} cached mask entries", self.mask_cache.len()),
                grad_output.shape(),
            ));
        }
        let data = grad_output.data().iter().zip(&self.mask_cache).map(|(&g, &m)| g * m).collect();
        Tensor::from_vec(data, grad_output.shape())
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_at_inference() {
        let mut d = Dropout::new(0.5, 1);
        let x = Tensor::filled(&[10], 2.0);
        assert_eq!(d.forward(&x, false).unwrap().data(), x.data());
    }

    #[test]
    fn drops_roughly_rate_fraction() {
        let mut d = Dropout::new(0.5, 7);
        let x = Tensor::filled(&[10_000], 1.0);
        let y = d.forward(&x, true).unwrap();
        let zeros = y.data().iter().filter(|&&v| v == 0.0).count();
        assert!((4000..6000).contains(&zeros), "zeros = {zeros}");
        // Survivors are scaled to preserve the expectation.
        let mean: f32 = y.data().iter().sum::<f32>() / y.len() as f32;
        assert!((mean - 1.0).abs() < 0.1, "mean = {mean}");
    }

    #[test]
    fn backward_uses_same_mask() {
        let mut d = Dropout::new(0.5, 3);
        let x = Tensor::filled(&[100], 1.0);
        let y = d.forward(&x, true).unwrap();
        let dx = d.backward(&Tensor::filled(&[100], 1.0)).unwrap();
        // Gradient is zero exactly where the activation was dropped.
        for (a, b) in y.data().iter().zip(dx.data()) {
            assert_eq!(*a == 0.0, *b == 0.0);
        }
    }

    #[test]
    fn zero_rate_is_identity_both_ways() {
        let mut d = Dropout::new(0.0, 3);
        let x = Tensor::filled(&[5], 3.0);
        assert_eq!(d.forward(&x, true).unwrap().data(), x.data());
        assert_eq!(d.backward(&x).unwrap().data(), x.data());
    }

    #[test]
    #[should_panic(expected = "outside [0, 1)")]
    fn rate_validated() {
        let _ = Dropout::new(1.0, 0);
    }

    #[test]
    fn reseed_replays_the_same_masks() {
        let x = Tensor::filled(&[64], 1.0);
        let mut d = Dropout::new(0.5, 9);
        let first = d.forward(&x, true).unwrap();
        // The stream has advanced; reseeding rewinds it exactly.
        let drifted = d.forward(&x, true).unwrap();
        assert_ne!(first.data(), drifted.data());
        d.reseed(9);
        assert_eq!(d.forward(&x, true).unwrap().data(), first.data());
        // A different seed gives a different (still deterministic) stream.
        d.reseed(10);
        let other = d.forward(&x, true).unwrap();
        d.reseed(10);
        assert_eq!(d.forward(&x, true).unwrap().data(), other.data());
    }
}
