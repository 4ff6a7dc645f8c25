use super::Layer;
use crate::{Error, Tensor};
use std::any::Any;

/// 2×2, stride-2 max pooling over `[batch, c, h, w]` tensors — the
/// subsampling layers of LeNet-5 (paper §II-B).
///
/// Odd trailing rows/columns are dropped (floor division), matching the
/// Keras default.
///
/// # Example
///
/// ```
/// use scnn_nn::layers::{Layer, MaxPool2d};
/// use scnn_nn::Tensor;
///
/// # fn main() -> Result<(), scnn_nn::Error> {
/// let mut pool = MaxPool2d::new();
/// let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2])?;
/// let y = pool.forward(&x, false)?;
/// assert_eq!(y.data(), &[4.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default, Clone)]
pub struct MaxPool2d {
    argmax_cache: Vec<usize>,
    input_shape_cache: Option<Vec<usize>>,
}

impl MaxPool2d {
    /// Creates a 2×2/stride-2 max-pool layer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for MaxPool2d {
    fn name(&self) -> &'static str {
        "maxpool2"
    }

    fn forward(&mut self, input: &Tensor, training: bool) -> Result<Tensor, Error> {
        let &[batch, c, h, w] = input.shape() else {
            return Err(Error::shape("[batch, c, h, w]", input.shape()));
        };
        let (oh, ow) = (h / 2, w / 2);
        if oh == 0 || ow == 0 {
            return Err(Error::shape("spatial size at least 2×2", input.shape()));
        }
        let mut out = Tensor::zeros(&[batch, c, oh, ow]);
        let data = input.data();
        let out_data = out.data_mut();
        if !training {
            // Values only, with the argmax loop's first-maximum rule: each
            // strict `>` select is one `maxps`, and no argmax is built.
            let planes = data.chunks_exact(h * w).zip(out_data.chunks_exact_mut(oh * ow));
            for (plane, dst) in planes {
                for (oy, dst) in dst.chunks_exact_mut(ow).enumerate() {
                    let top = plane[2 * oy * w..][..2 * ow].chunks_exact(2);
                    let bottom = plane[(2 * oy + 1) * w..][..2 * ow].chunks_exact(2);
                    for ((d, t), b) in dst.iter_mut().zip(top).zip(bottom) {
                        *d = [t[1], b[0], b[1]]
                            .into_iter()
                            .fold(t[0], |m, v| if v > m { v } else { m });
                    }
                }
            }
            return Ok(out);
        }
        let mut argmax = vec![0usize; batch * c * oh * ow];
        for bc in 0..batch * c {
            let plane = &data[bc * h * w..(bc + 1) * h * w];
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut best_idx = (2 * oy) * w + 2 * ox;
                    let mut best = plane[best_idx];
                    for (dy, dx) in [(0usize, 1usize), (1, 0), (1, 1)] {
                        let idx = (2 * oy + dy) * w + 2 * ox + dx;
                        if plane[idx] > best {
                            best = plane[idx];
                            best_idx = idx;
                        }
                    }
                    let o = bc * oh * ow + oy * ow + ox;
                    out_data[o] = best;
                    argmax[o] = bc * h * w + best_idx;
                }
            }
        }
        self.argmax_cache = argmax;
        self.input_shape_cache = Some(input.shape().to_vec());
        Ok(out)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor, Error> {
        let shape = self.input_shape_cache.clone().ok_or_else(|| {
            Error::shape("forward(training=true) before backward", grad_output.shape())
        })?;
        if grad_output.len() != self.argmax_cache.len() {
            return Err(Error::shape(
                format!("{} pooled gradients", self.argmax_cache.len()),
                grad_output.shape(),
            ));
        }
        let mut dinput = Tensor::zeros(&shape);
        for (g, &src) in grad_output.data().iter().zip(&self.argmax_cache) {
            dinput.data_mut()[src] += g;
        }
        Ok(dinput)
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
    fn picks_window_maxima() {
        let x = Tensor::from_vec(
            vec![
                1.0, 5.0, 2.0, 0.0, //
                3.0, 4.0, 1.0, 7.0, //
                0.0, 0.0, 9.0, 8.0, //
                2.0, 1.0, 6.0, 3.0,
            ],
            &[1, 1, 4, 4],
        )
        .unwrap();
        let mut pool = MaxPool2d::new();
        let y = pool.forward(&x, false).unwrap();
        assert_eq!(y.shape(), &[1, 1, 2, 2]);
        assert_eq!(y.data(), &[5.0, 7.0, 2.0, 9.0]);
    }

    #[test]
    fn odd_sizes_floor() {
        let x = Tensor::zeros(&[1, 1, 5, 5]);
        let mut pool = MaxPool2d::new();
        assert_eq!(pool.forward(&x, false).unwrap().shape(), &[1, 1, 2, 2]);
        assert!(pool.forward(&Tensor::zeros(&[1, 1, 1, 4]), false).is_err());
    }

    #[test]
    fn backward_routes_gradient_to_argmax() {
        let x = Tensor::from_vec(vec![1.0, 5.0, 3.0, 4.0], &[1, 1, 2, 2]).unwrap();
        let mut pool = MaxPool2d::new();
        let _ = pool.forward(&x, true).unwrap();
        let dx = pool.backward(&Tensor::filled(&[1, 1, 1, 1], 2.5)).unwrap();
        assert_eq!(dx.data(), &[0.0, 2.5, 0.0, 0.0]);
    }

    #[test]
    fn inference_values_match_the_training_pass_bit_for_bit() {
        // Odd sizes, ties between 0.0 and −0.0, and NaNs: the values-only
        // loop must keep the first maximum exactly as the argmax loop does.
        let specials = [0.0, -0.0, f32::NAN, 1.0, -1.0, 0.5, 0.5, f32::NEG_INFINITY];
        let data: Vec<f32> = (0..2 * 3 * 5 * 7).map(|i| specials[(i * 5 + i / 3) % 8]).collect();
        let x = Tensor::from_vec(data, &[2, 3, 5, 7]).unwrap();
        let mut pool = MaxPool2d::new();
        let bits = |t: Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let inference = bits(pool.forward(&x, false).unwrap());
        assert_eq!(inference, bits(pool.forward(&x, true).unwrap()));
    }

    #[test]
    fn backward_requires_forward() {
        let mut pool = MaxPool2d::new();
        assert!(pool.backward(&Tensor::zeros(&[1, 1, 1, 1])).is_err());
    }

    #[test]
    fn channels_pool_independently() {
        let x = Tensor::from_vec(
            vec![
                1.0, 2.0, 3.0, 4.0, // channel 0
                8.0, 7.0, 6.0, 5.0, // channel 1
            ],
            &[1, 2, 2, 2],
        )
        .unwrap();
        let mut pool = MaxPool2d::new();
        let y = pool.forward(&x, false).unwrap();
        assert_eq!(y.data(), &[4.0, 8.0]);
    }
}
