use super::Layer;
use crate::{matmul_into, Error, MatRef, Tensor, NN, NT, TN};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::any::Any;

/// A fully connected layer: `y = x·W + b` over `[batch, in]` inputs.
///
/// Weights use Glorot-uniform initialization.
///
/// # Example
///
/// ```
/// use scnn_nn::layers::{Dense, Layer};
/// use scnn_nn::Tensor;
///
/// # fn main() -> Result<(), scnn_nn::Error> {
/// let mut layer = Dense::new(3, 2, 42);
/// let x = Tensor::zeros(&[4, 3]);
/// let y = layer.forward(&x, false)?;
/// assert_eq!(y.shape(), &[4, 2]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Dense {
    in_features: usize,
    out_features: usize,
    w: Tensor,
    b: Tensor,
    dw: Tensor,
    db: Tensor,
    input_cache: Option<Tensor>,
}

impl Dense {
    /// Creates a dense layer mapping `in_features` to `out_features`,
    /// Glorot-initialized from `seed`.
    pub fn new(in_features: usize, out_features: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let limit = (6.0 / (in_features + out_features) as f32).sqrt();
        let w_data: Vec<f32> =
            (0..in_features * out_features).map(|_| rng.gen_range(-limit..=limit)).collect();
        Self {
            in_features,
            out_features,
            w: Tensor::from_vec(w_data, &[in_features, out_features])
                .expect("constructed with matching length"),
            b: Tensor::zeros(&[out_features]),
            dw: Tensor::zeros(&[in_features, out_features]),
            db: Tensor::zeros(&[out_features]),
            input_cache: None,
        }
    }

    /// The weight matrix, shape `[in, out]`.
    pub fn weights(&self) -> &Tensor {
        &self.w
    }

    /// Mutable weight matrix (for loading trained parameters).
    pub fn weights_mut(&mut self) -> &mut Tensor {
        &mut self.w
    }

    /// The bias vector, shape `[out]`.
    pub fn bias(&self) -> &Tensor {
        &self.b
    }

    /// Mutable bias vector.
    pub fn bias_mut(&mut self) -> &mut Tensor {
        &mut self.b
    }

    /// The parameter half of [`Layer::backward`]: accumulates `dw` and
    /// `db` from `grad_output` and computes no input gradient.
    /// [`Network::backward`](crate::Network::backward) calls it for a
    /// first layer, whose input gradient nothing reads. `backward` runs
    /// the same code, so the gradients are bit-identical either way.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ShapeMismatch`] if the gradient shape is
    /// incompatible or no training forward pass was cached.
    pub fn weight_grads(&mut self, grad_output: &Tensor) -> Result<(), Error> {
        let input = self.input_cache.as_ref().ok_or_else(|| {
            Error::shape("forward(training=true) before backward", grad_output.shape())
        })?;
        let batch = input.shape()[0];
        if grad_output.shape() != [batch, self.out_features] {
            return Err(Error::shape(
                format!("[batch, {}]", self.out_features),
                grad_output.shape(),
            ));
        }
        let x = MatRef::new(input.data(), batch, self.in_features);
        let g = MatRef::new(grad_output.data(), batch, self.out_features);
        let mut dw_batch = Tensor::zeros(self.dw.shape());
        matmul_into(TN, x, g, dw_batch.data_mut());
        self.dw.add_scaled(&dw_batch, 1.0);
        for row in grad_output.data().chunks(self.out_features) {
            for (g, &v) in self.db.data_mut().iter_mut().zip(row) {
                *g += v;
            }
        }
        Ok(())
    }

    fn weight_matrix(&self) -> MatRef<'_> {
        MatRef::new(self.w.data(), self.in_features, self.out_features)
    }
}

impl Layer for Dense {
    fn name(&self) -> &'static str {
        "dense"
    }

    fn forward(&mut self, input: &Tensor, training: bool) -> Result<Tensor, Error> {
        if input.shape().len() != 2 || input.shape()[1] != self.in_features {
            return Err(Error::shape(format!("[batch, {}]", self.in_features), input.shape()));
        }
        let batch = input.shape()[0];
        let mut out = Tensor::zeros(&[batch, self.out_features]);
        matmul_into(
            NN,
            MatRef::new(input.data(), batch, self.in_features),
            self.weight_matrix(),
            out.data_mut(),
        );
        for row in out.data_mut().chunks_mut(self.out_features) {
            for (o, &b) in row.iter_mut().zip(self.b.data()) {
                *o += b;
            }
        }
        if training {
            self.input_cache = Some(input.clone());
        }
        Ok(out)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor, Error> {
        self.weight_grads(grad_output)?;
        let batch = grad_output.shape()[0];
        let g = MatRef::new(grad_output.data(), batch, self.out_features);
        let mut dx = Tensor::zeros(&[batch, self.in_features]);
        matmul_into(NT, g, self.weight_matrix(), dx.data_mut());
        Ok(dx)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {
        f(&mut self.w, &mut self.dw);
        f(&mut self.b, &mut self.db);
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
    fn forward_applies_affine_map() {
        let mut layer = Dense::new(2, 2, 1);
        layer.weights_mut().data_mut().copy_from_slice(&[1.0, 2.0, 3.0, 4.0]);
        layer.bias_mut().data_mut().copy_from_slice(&[0.5, -0.5]);
        let x = Tensor::from_vec(vec![1.0, 1.0], &[1, 2]).unwrap();
        let y = layer.forward(&x, false).unwrap();
        assert_eq!(y.data(), &[4.5, 5.5]);
    }

    #[test]
    fn rejects_wrong_input_width() {
        let mut layer = Dense::new(3, 2, 1);
        assert!(layer.forward(&Tensor::zeros(&[1, 4]), false).is_err());
        assert!(layer.forward(&Tensor::zeros(&[6]), false).is_err());
    }

    #[test]
    fn backward_requires_forward() {
        let mut layer = Dense::new(2, 2, 1);
        assert!(layer.backward(&Tensor::zeros(&[1, 2])).is_err());
    }

    #[test]
    fn gradient_check_against_finite_differences() {
        let mut layer = Dense::new(3, 2, 7);
        let x = Tensor::from_vec(vec![0.3, -0.6, 0.9, -0.2, 0.1, 0.5], &[2, 3]).unwrap();
        // Loss = sum(outputs); dL/dout = 1.
        let grad_out = Tensor::filled(&[2, 2], 1.0);
        let _ = layer.forward(&x, true).unwrap();
        let dx = layer.backward(&grad_out).unwrap();

        let eps = 1e-3f32;
        let loss = |layer: &mut Dense, x: &Tensor| -> f32 {
            layer.forward(x, false).unwrap().data().iter().sum()
        };
        // Check dL/dx numerically.
        for i in 0..x.len() {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let num = (loss(&mut layer, &xp) - loss(&mut layer, &xm)) / (2.0 * eps);
            assert!((num - dx.data()[i]).abs() < 1e-2, "dx[{i}]: num {num} vs {}", dx.data()[i]);
        }
        // Check dL/dw numerically for a few entries.
        let mut dw = Tensor::zeros(&[3, 2]);
        layer.visit_params(&mut |_, g| {
            if g.shape() == [3, 2] {
                dw = g.clone();
            }
        });
        for i in [0usize, 3, 5] {
            let orig = layer.weights().data()[i];
            layer.weights_mut().data_mut()[i] = orig + eps;
            let lp = loss(&mut layer, &x);
            layer.weights_mut().data_mut()[i] = orig - eps;
            let lm = loss(&mut layer, &x);
            layer.weights_mut().data_mut()[i] = orig;
            let num = (lp - lm) / (2.0 * eps);
            assert!((num - dw.data()[i]).abs() < 1e-2, "dw[{i}]: num {num} vs {}", dw.data()[i]);
        }
    }

    /// Forward output, `dx`, `dw` and `db` equal direct loops bit for bit.
    /// The loops use the documented order: every sum ascends its index
    /// from `+0.0`, and `dw` adds the whole batch's partial product, whose
    /// sums run over the images in order. Batch 4 sends the forward and
    /// `dx` products through the register tile.
    #[test]
    fn batched_passes_match_direct_loops_bit_for_bit() {
        let (inputs, outputs) = (24usize, 19usize);
        // Exact zeros (ReLU) and values whose sums round.
        let value = |i: usize, salt: usize| match (i * 7919 + salt * 104_729) % 23 {
            0..=5 => 0.0,
            _ => (i % 97) as f32 / 13.0 - 3.5,
        };
        for batch in [1usize, 3, 4] {
            let mut layer = Dense::new(inputs, outputs, 5);
            for (i, b) in layer.bias_mut().data_mut().iter_mut().enumerate() {
                *b = value(i, 9) / 4.0;
            }
            let w = layer.weights().data().to_vec();
            let x: Vec<f32> = (0..batch * inputs).map(|i| value(i, 1)).collect();
            let g: Vec<f32> = (0..batch * outputs).map(|i| value(i, 2)).collect();
            let y = layer.forward(&Tensor::from_vec(x.clone(), &[batch, inputs]).unwrap(), true);
            let dx = layer.backward(&Tensor::from_vec(g.clone(), &[batch, outputs]).unwrap());
            let (y, dx) = (y.unwrap(), dx.unwrap());

            let (mut y_ref, mut dx_ref) = (Vec::new(), Vec::new());
            for b in 0..batch {
                for o in 0..outputs {
                    let mut acc = 0.0f32;
                    for i in 0..inputs {
                        acc += x[b * inputs + i] * w[i * outputs + o];
                    }
                    y_ref.push(acc + layer.bias().data()[o]);
                }
                for i in 0..inputs {
                    let mut acc = 0.0f32;
                    for o in 0..outputs {
                        acc += g[b * outputs + o] * w[i * outputs + o];
                    }
                    dx_ref.push(acc);
                }
            }
            let mut dw_ref = vec![0.0f32; inputs * outputs];
            for (i, o) in (0..inputs * outputs).map(|s| (s / outputs, s % outputs)) {
                let mut partial = 0.0f32;
                for b in 0..batch {
                    partial += x[b * inputs + i] * g[b * outputs + o];
                }
                dw_ref[i * outputs + o] += partial;
            }
            let mut db_ref = vec![0.0f32; outputs];
            for row in g.chunks(outputs) {
                for (d, &v) in db_ref.iter_mut().zip(row) {
                    *d += v;
                }
            }
            let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(y.data()), bits(&y_ref), "forward, batch {batch}");
            assert_eq!(bits(dx.data()), bits(&dx_ref), "dx, batch {batch}");
            let mut grads = Vec::new();
            layer.visit_params(&mut |_, g| grads.push(bits(g.data())));
            assert_eq!(grads, [bits(&dw_ref), bits(&db_ref)], "dw and db, batch {batch}");
        }
    }

    #[test]
    fn grads_accumulate_until_cleared() {
        let mut layer = Dense::new(2, 2, 3);
        let x = Tensor::filled(&[1, 2], 1.0);
        let g = Tensor::filled(&[1, 2], 1.0);
        let _ = layer.forward(&x, true).unwrap();
        let _ = layer.backward(&g).unwrap();
        let mut first = Tensor::zeros(&[1]);
        layer.visit_params(&mut |_, grad| {
            if grad.shape() == [2, 2] {
                first = grad.clone();
            }
        });
        let _ = layer.forward(&x, true).unwrap();
        let _ = layer.backward(&g).unwrap();
        layer.visit_params(&mut |_, grad| {
            if grad.shape() == [2, 2] {
                for (a, b) in grad.data().iter().zip(first.data()) {
                    assert!((a - 2.0 * b).abs() < 1e-6);
                }
            }
        });
    }
}
