use super::Layer;
use crate::{matmul_into, Error, MatRef, Tensor, NN, NT, TN};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::any::Any;

/// Spatial padding mode for [`Conv2d`] (stride is always 1, as in the
/// paper's first layer where all 784 windows are evaluated in parallel).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Padding {
    /// Zero-pad so the output spatial size equals the input size
    /// (requires an odd kernel).
    Same,
    /// No padding; output shrinks by `kernel − 1`.
    Valid,
}

/// A 2-D convolution layer over `[batch, channels, height, width]` tensors,
/// implemented per image as im2col and one [`matmul_into`].
///
/// Weight gradients keep one partial product per image, added into the
/// gradient in image order.
///
/// # Example
///
/// ```
/// use scnn_nn::layers::{Conv2d, Layer, Padding};
/// use scnn_nn::Tensor;
///
/// # fn main() -> Result<(), scnn_nn::Error> {
/// let mut conv = Conv2d::new(1, 32, 5, Padding::Same, 42)?;
/// let x = Tensor::zeros(&[2, 1, 28, 28]);
/// let y = conv.forward(&x, false)?;
/// assert_eq!(y.shape(), &[2, 32, 28, 28]); // the paper's 784 windows × 32 kernels
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Conv2d {
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    padding: Padding,
    /// Shape `[out_channels, in_channels·k·k]`.
    w: Tensor,
    b: Tensor,
    dw: Tensor,
    db: Tensor,
    cols_cache: Vec<Tensor>,
    input_shape_cache: Option<Vec<usize>>,
}

impl Conv2d {
    /// Creates a convolution with `kernel × kernel` filters, He-initialized
    /// from `seed`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ShapeMismatch`] if `kernel` is even with
    /// [`Padding::Same`], or any dimension is zero.
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        padding: Padding,
        seed: u64,
    ) -> Result<Self, Error> {
        if in_channels == 0 || out_channels == 0 || kernel == 0 {
            return Err(Error::shape(
                "non-zero conv dimensions",
                &[in_channels, out_channels, kernel],
            ));
        }
        if padding == Padding::Same && kernel.is_multiple_of(2) {
            return Err(Error::shape("odd kernel for same padding", &[kernel]));
        }
        let fan_in = in_channels * kernel * kernel;
        let mut rng = StdRng::seed_from_u64(seed);
        let std = (2.0 / fan_in as f32).sqrt();
        let w_data: Vec<f32> = (0..out_channels * fan_in)
            .map(|_| {
                // Box–Muller normal from two uniforms.
                let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
                let u2: f32 = rng.gen_range(0.0..1.0);
                std * (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
            })
            .collect();
        Ok(Self {
            in_channels,
            out_channels,
            kernel,
            padding,
            w: Tensor::from_vec(w_data, &[out_channels, fan_in])
                .expect("constructed with matching length"),
            b: Tensor::zeros(&[out_channels]),
            dw: Tensor::zeros(&[out_channels, fan_in]),
            db: Tensor::zeros(&[out_channels]),
            cols_cache: Vec::new(),
            input_shape_cache: None,
        })
    }

    /// The filter bank, shape `[out_channels, in_channels·k·k]`.
    pub fn weights(&self) -> &Tensor {
        &self.w
    }

    /// Mutable filter bank.
    pub fn weights_mut(&mut self) -> &mut Tensor {
        &mut self.w
    }

    /// The bias vector, shape `[out_channels]`.
    pub fn bias(&self) -> &Tensor {
        &self.b
    }

    /// Mutable bias vector.
    pub fn bias_mut(&mut self) -> &mut Tensor {
        &mut self.b
    }

    /// The kernel side length.
    pub fn kernel(&self) -> usize {
        self.kernel
    }

    /// Number of input channels.
    pub fn in_channels(&self) -> usize {
        self.in_channels
    }

    /// Number of output channels (kernels).
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    /// The padding mode.
    pub fn padding(&self) -> Padding {
        self.padding
    }

    fn pad(&self) -> usize {
        match self.padding {
            Padding::Same => (self.kernel - 1) / 2,
            Padding::Valid => 0,
        }
    }

    /// Output spatial size for an input of `h × w`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ShapeMismatch`] if the input is smaller than the
    /// kernel.
    pub fn output_size(&self, h: usize, w: usize) -> Result<(usize, usize), Error> {
        let p = self.pad();
        let oh = (h + 2 * p).checked_sub(self.kernel - 1);
        let ow = (w + 2 * p).checked_sub(self.kernel - 1);
        match (oh, ow) {
            (Some(oh), Some(ow)) if oh > 0 && ow > 0 => Ok((oh, ow)),
            _ => Err(Error::shape(format!("input at least {0}×{0}", self.kernel), &[h, w])),
        }
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
        let (shape, oh, ow) = self.grad_dims(grad_output)?;
        let patch = oh * ow;
        let fan_in = shape[1] * self.kernel * self.kernel;
        let mut dw_image = Tensor::zeros(self.dw.shape());
        let images = grad_output.data().chunks_exact(self.out_channels * patch);
        for (g, cols) in images.zip(&self.cols_cache) {
            let g_mat = MatRef::new(g, self.out_channels, patch);
            matmul_into(NT, g_mat, MatRef::new(cols.data(), fan_in, patch), dw_image.data_mut());
            self.dw.add_scaled(&dw_image, 1.0);
            for oc in 0..self.out_channels {
                let s: f32 = g[oc * patch..(oc + 1) * patch].iter().sum();
                self.db.data_mut()[oc] += s;
            }
        }
        Ok(())
    }

    /// The cached input shape and output size, after checking that
    /// `grad_output` matches them.
    fn grad_dims(&self, grad_output: &Tensor) -> Result<(Vec<usize>, usize, usize), Error> {
        let shape = self.input_shape_cache.clone().ok_or_else(|| {
            Error::shape("forward(training=true) before backward", grad_output.shape())
        })?;
        let (oh, ow) = self.output_size(shape[2], shape[3])?;
        if grad_output.shape() != [shape[0], self.out_channels, oh, ow] {
            return Err(Error::shape(
                format!("[{}, {}, {oh}, {ow}]", shape[0], self.out_channels),
                grad_output.shape(),
            ));
        }
        Ok((shape, oh, ow))
    }

    /// im2col for one image `[C, H, W] → [C·k·k, oh·ow]`.
    fn im2col(&self, img: &[f32], h: usize, w: usize, oh: usize, ow: usize) -> Tensor {
        let k = self.kernel;
        let p = self.pad() as isize;
        let mut cols = vec![0.0f32; self.in_channels * k * k * oh * ow];
        let patch = oh * ow;
        for c in 0..self.in_channels {
            let ch = &img[c * h * w..(c + 1) * h * w];
            for ki in 0..k {
                for kj in 0..k {
                    let row = &mut cols[(c * k * k + ki * k + kj) * patch..][..patch];
                    for oy in 0..oh {
                        let iy = oy as isize + ki as isize - p;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        let src = &ch[iy as usize * w..(iy as usize + 1) * w];
                        let dst = &mut row[oy * ow..(oy + 1) * ow];
                        for (ox, d) in dst.iter_mut().enumerate() {
                            let ix = ox as isize + kj as isize - p;
                            if ix >= 0 && ix < w as isize {
                                *d = src[ix as usize];
                            }
                        }
                    }
                }
            }
        }
        Tensor::from_vec(cols, &[self.in_channels * k * k, patch])
            .expect("constructed with matching length")
    }

    /// Scatter-add of column gradients back to image layout.
    fn col2im(&self, dcols: &[f32], h: usize, w: usize, oh: usize, ow: usize, dimg: &mut [f32]) {
        let k = self.kernel;
        let p = self.pad() as isize;
        let patch = oh * ow;
        for c in 0..self.in_channels {
            let dch = &mut dimg[c * h * w..(c + 1) * h * w];
            for ki in 0..k {
                for kj in 0..k {
                    let row = &dcols[(c * k * k + ki * k + kj) * patch..][..patch];
                    for oy in 0..oh {
                        let iy = oy as isize + ki as isize - p;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        for ox in 0..ow {
                            let ix = ox as isize + kj as isize - p;
                            if ix >= 0 && ix < w as isize {
                                dch[iy as usize * w + ix as usize] += row[oy * ow + ox];
                            }
                        }
                    }
                }
            }
        }
    }
}

impl Layer for Conv2d {
    fn name(&self) -> &'static str {
        "conv2d"
    }

    fn forward(&mut self, input: &Tensor, training: bool) -> Result<Tensor, Error> {
        let &[batch, c, h, w] = input.shape() else {
            return Err(Error::shape("[batch, c, h, w]", input.shape()));
        };
        if c != self.in_channels {
            return Err(Error::shape(
                format!("{} input channels", self.in_channels),
                input.shape(),
            ));
        }
        let (oh, ow) = self.output_size(h, w)?;
        let patch = oh * ow;
        let mut out = Tensor::zeros(&[batch, self.out_channels, oh, ow]);
        if training {
            self.cols_cache.clear();
            self.input_shape_cache = Some(input.shape().to_vec());
        }
        let fan_in = c * self.kernel * self.kernel;
        let w_mat = MatRef::new(self.w.data(), self.out_channels, fan_in);
        let mut prod = vec![0.0f32; self.out_channels * patch];
        for bi in 0..batch {
            let img = &input.data()[bi * c * h * w..(bi + 1) * c * h * w];
            let cols = self.im2col(img, h, w, oh, ow);
            matmul_into(NN, w_mat, MatRef::new(cols.data(), fan_in, patch), &mut prod);
            let dst =
                &mut out.data_mut()[bi * self.out_channels * patch..][..self.out_channels * patch];
            for oc in 0..self.out_channels {
                let bias = self.b.data()[oc];
                let src = &prod[oc * patch..(oc + 1) * patch];
                let d = &mut dst[oc * patch..(oc + 1) * patch];
                for (o, &v) in d.iter_mut().zip(src) {
                    *o = v + bias;
                }
            }
            if training {
                self.cols_cache.push(cols);
            }
        }
        Ok(out)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor, Error> {
        self.weight_grads(grad_output)?;
        let (shape, oh, ow) = self.grad_dims(grad_output)?;
        let (c, h, w) = (shape[1], shape[2], shape[3]);
        let patch = oh * ow;
        let fan_in = c * self.kernel * self.kernel;
        let w_mat = MatRef::new(self.w.data(), self.out_channels, fan_in);
        let mut dinput = Tensor::zeros(&shape);
        let mut dcols = vec![0.0f32; fan_in * patch];
        let images = grad_output.data().chunks_exact(self.out_channels * patch);
        for (g, dimg) in images.zip(dinput.data_mut().chunks_exact_mut(c * h * w)) {
            matmul_into(TN, w_mat, MatRef::new(g, self.out_channels, patch), &mut dcols);
            self.col2im(&dcols, h, w, oh, ow, dimg);
        }
        Ok(dinput)
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

    fn conv_with_weights(
        in_c: usize,
        out_c: usize,
        k: usize,
        padding: Padding,
        w: &[f32],
    ) -> Conv2d {
        let mut conv = Conv2d::new(in_c, out_c, k, padding, 0).unwrap();
        conv.weights_mut().data_mut().copy_from_slice(w);
        conv
    }

    #[test]
    fn constructor_validation() {
        assert!(Conv2d::new(0, 1, 3, Padding::Valid, 0).is_err());
        assert!(Conv2d::new(1, 1, 4, Padding::Same, 0).is_err());
        assert!(Conv2d::new(1, 1, 4, Padding::Valid, 0).is_ok());
    }

    #[test]
    fn identity_kernel_same_padding() {
        // 3×3 kernel with centre 1: output equals input.
        let mut w = vec![0.0f32; 9];
        w[4] = 1.0;
        let mut conv = conv_with_weights(1, 1, 3, Padding::Same, &w);
        let x = Tensor::from_vec((1..=16).map(|v| v as f32).collect(), &[1, 1, 4, 4]).unwrap();
        let y = conv.forward(&x, false).unwrap();
        assert_eq!(y.shape(), &[1, 1, 4, 4]);
        assert_eq!(y.data(), x.data());
    }

    #[test]
    fn box_sum_valid_padding() {
        // All-ones 2×2 kernel, valid: each output = sum of a 2×2 window.
        let mut conv = conv_with_weights(1, 1, 2, Padding::Valid, &[1.0; 4]);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]).unwrap();
        let y = conv.forward(&x, false).unwrap();
        assert_eq!(y.shape(), &[1, 1, 1, 1]);
        assert_eq!(y.data(), &[10.0]);
    }

    #[test]
    fn multi_channel_sums_channels() {
        // Two input channels, kernel all ones (1×1): output = c0 + c1.
        let mut conv = conv_with_weights(2, 1, 1, Padding::Valid, &[1.0, 1.0]);
        let x = Tensor::from_vec(vec![1.0, 2.0, 10.0, 20.0], &[1, 2, 1, 2]).unwrap();
        let y = conv.forward(&x, false).unwrap();
        assert_eq!(y.data(), &[11.0, 22.0]);
    }

    #[test]
    fn bias_is_added() {
        let mut conv = conv_with_weights(1, 1, 1, Padding::Valid, &[1.0]);
        conv.bias_mut().data_mut()[0] = 5.0;
        let x = Tensor::from_vec(vec![1.0], &[1, 1, 1, 1]).unwrap();
        assert_eq!(conv.forward(&x, false).unwrap().data(), &[6.0]);
    }

    #[test]
    fn rejects_wrong_shapes() {
        let mut conv = Conv2d::new(1, 1, 3, Padding::Valid, 0).unwrap();
        assert!(conv.forward(&Tensor::zeros(&[1, 2, 4, 4]), false).is_err());
        assert!(conv.forward(&Tensor::zeros(&[4, 4]), false).is_err());
        assert!(conv.forward(&Tensor::zeros(&[1, 1, 2, 2]), false).is_err());
        assert!(conv.backward(&Tensor::zeros(&[1, 1, 2, 2])).is_err());
    }

    #[test]
    fn gradient_check_small_conv() {
        let mut conv = Conv2d::new(1, 2, 3, Padding::Same, 11).unwrap();
        let x = Tensor::from_vec((0..16).map(|v| (v as f32 - 8.0) / 8.0).collect(), &[1, 1, 4, 4])
            .unwrap();
        let _ = conv.forward(&x, true).unwrap();
        let grad_out = Tensor::filled(&[1, 2, 4, 4], 1.0);
        let dx = conv.backward(&grad_out).unwrap();
        let loss = |conv: &mut Conv2d, x: &Tensor| -> f32 {
            conv.forward(x, false).unwrap().data().iter().sum()
        };
        let eps = 1e-3;
        for i in [0usize, 5, 10, 15] {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let num = (loss(&mut conv, &xp) - loss(&mut conv, &xm)) / (2.0 * eps);
            assert!(
                (num - dx.data()[i]).abs() < 1e-2,
                "dx[{i}]: numeric {num} vs analytic {}",
                dx.data()[i]
            );
        }
        // Weight gradients.
        let mut dw = Tensor::zeros(&[1]);
        conv.visit_params(&mut |p, g| {
            if p.shape().len() == 2 {
                dw = g.clone();
            }
        });
        for i in [0usize, 4, 9, 17] {
            let orig = conv.weights().data()[i];
            conv.weights_mut().data_mut()[i] = orig + eps;
            let lp = loss(&mut conv, &x);
            conv.weights_mut().data_mut()[i] = orig - eps;
            let lm = loss(&mut conv, &x);
            conv.weights_mut().data_mut()[i] = orig;
            let num = (lp - lm) / (2.0 * eps);
            assert!(
                (num - dw.data()[i]).abs() < 1e-2,
                "dw[{i}]: numeric {num} vs analytic {}",
                dw.data()[i]
            );
        }
    }

    /// Forward output, `dx`, `dw` and `db` equal direct loops bit for bit.
    /// The loops use the documented order: every sum ascends its index
    /// from `+0.0`, and `dw` adds one partial product per image, in image
    /// order. The Valid 3×3 shape sends the forward, `dw` and `dx`
    /// products through the register tile and the leftover rows.
    #[test]
    fn batched_passes_match_direct_loops_bit_for_bit() {
        let (c, oc, k, h) = (2usize, 18usize, 3usize, 7usize);
        let (o, fan_in) = (h - k + 1, c * k * k);
        // Exact zeros, ±1 (conv2 reads ±1 pooled features) and values whose
        // sums round.
        let value = |i: usize, salt: usize| match (i * 7919 + salt * 104_729) % 23 {
            0..=3 => 0.0,
            4..=7 => 1.0,
            8..=11 => -1.0,
            _ => (i % 97) as f32 / 13.0 - 3.5,
        };
        for batch in [1usize, 3, 4] {
            let mut conv = Conv2d::new(c, oc, k, Padding::Valid, 5).unwrap();
            for (i, b) in conv.bias_mut().data_mut().iter_mut().enumerate() {
                *b = value(i, 9) / 4.0;
            }
            let w = conv.weights().data().to_vec();
            let x: Vec<f32> = (0..batch * c * h * h).map(|i| value(i, 1)).collect();
            let g: Vec<f32> = (0..batch * oc * o * o).map(|i| value(i, 2)).collect();
            let y = conv.forward(&Tensor::from_vec(x.clone(), &[batch, c, h, h]).unwrap(), true);
            let dx = conv.backward(&Tensor::from_vec(g.clone(), &[batch, oc, o, o]).unwrap());
            let (y, dx) = (y.unwrap(), dx.unwrap());

            let xi = |b: usize, r: usize, oy: usize, ox: usize| {
                let (ci, ki, kj) = (r / (k * k), r / k % k, r % k);
                x[((b * c + ci) * h + oy + ki) * h + ox + kj]
            };
            let gi = |b: usize, q: usize, oy: usize, ox: usize| g[((b * oc + q) * o + oy) * o + ox];
            let mut y_ref = Vec::new();
            let mut dx_ref = vec![0.0f32; batch * c * h * h];
            let (mut dw_ref, mut db_ref) = (vec![0.0f32; oc * fan_in], vec![0.0f32; oc]);
            for b in 0..batch {
                for q in 0..oc {
                    for (oy, ox) in (0..o * o).map(|s| (s / o, s % o)) {
                        let mut acc = 0.0f32;
                        for r in 0..fan_in {
                            acc += w[q * fan_in + r] * xi(b, r, oy, ox);
                        }
                        y_ref.push(acc + conv.bias().data()[q]);
                    }
                }
                for q in 0..oc {
                    for r in 0..fan_in {
                        let mut partial = 0.0f32;
                        for (oy, ox) in (0..o * o).map(|s| (s / o, s % o)) {
                            partial += gi(b, q, oy, ox) * xi(b, r, oy, ox);
                        }
                        dw_ref[q * fan_in + r] += partial;
                    }
                    db_ref[q] += g[(b * oc + q) * o * o..][..o * o].iter().sum::<f32>();
                }
                for r in 0..fan_in {
                    let (ci, ki, kj) = (r / (k * k), r / k % k, r % k);
                    for (oy, ox) in (0..o * o).map(|s| (s / o, s % o)) {
                        let mut dcol = 0.0f32;
                        for q in 0..oc {
                            dcol += w[q * fan_in + r] * gi(b, q, oy, ox);
                        }
                        dx_ref[((b * c + ci) * h + oy + ki) * h + ox + kj] += dcol;
                    }
                }
            }
            let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(y.data()), bits(&y_ref), "forward, batch {batch}");
            assert_eq!(bits(dx.data()), bits(&dx_ref), "dx, batch {batch}");
            let mut grads = Vec::new();
            conv.visit_params(&mut |_, g| grads.push(bits(g.data())));
            assert_eq!(grads, [bits(&dw_ref), bits(&db_ref)], "dw and db, batch {batch}");
        }
    }

    #[test]
    fn output_size_math() {
        let same = Conv2d::new(1, 1, 5, Padding::Same, 0).unwrap();
        assert_eq!(same.output_size(28, 28).unwrap(), (28, 28));
        let valid = Conv2d::new(1, 1, 5, Padding::Valid, 0).unwrap();
        assert_eq!(valid.output_size(14, 14).unwrap(), (10, 10));
        assert!(valid.output_size(4, 4).is_err());
    }
}
