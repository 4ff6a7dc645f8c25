use crate::Error;
use scnn_bitstream::Precision;
use scnn_nn::layers::{Conv2d, Padding};
use scnn_nn::quant::{pixel_level, quantize_bipolar, scale_kernels};

/// Side length of the input images all first-layer engines process.
pub const IMAGE_SIDE: usize = 28;

/// An implementation of LeNet-5's first layer, `g(x, w) = sign(x ∘ w)`
/// (paper §IV-B), mapping one 28×28 grayscale image to 32 ternary feature
/// maps.
///
/// All engines in this crate implement it — the full-precision float
/// reference, the quantized binary baseline, and the stochastic engines —
/// so [`HybridLenet`](crate::HybridLenet) and the retraining pipeline are
/// generic over the hardware design being evaluated.
///
/// `Send + Sync` are supertraits: `forward_image` takes `&self`, so one
/// engine is shared by all [`parallel`](scnn_nn::parallel) workers during
/// dataset-scale feature extraction. Engines are immutable after
/// construction, so the bounds are free.
pub trait FirstLayer: Send + Sync {
    /// Computes the 32 × 28 × 28 ternary feature maps (values −1/0/+1,
    /// channel-major) for one image of 784 pixels in `[0, 1]`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] if the image has the wrong size.
    fn forward_image(&self, image: &[f32]) -> Result<Vec<f32>, Error>;

    /// [`forward_image`](Self::forward_image) with the image's dataset
    /// index. Deterministic engines ignore the index (this default); the
    /// stochastic engine under bit errors seeds each image's flip set from
    /// it, on the count path and the streaming path alike, so batched
    /// evaluation is byte-identical for any worker count or visit order.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] if the image has the wrong size.
    fn forward_image_indexed(&self, image: &[f32], image_index: u64) -> Result<Vec<f32>, Error> {
        let _ = image_index;
        self.forward_image(image)
    }

    /// Number of kernels (feature channels), always 32 for LeNet-5.
    fn kernels(&self) -> usize;

    /// A short label for reports, e.g. `"binary(4-bit)"`.
    fn label(&self) -> String;
}

/// Weight/bias data shared by every engine: per-kernel scaled weights and
/// the bias folded into a comparator offset.
#[derive(Debug, Clone)]
pub(crate) struct KernelBank {
    pub kernels: usize,
    pub ksize: usize,
    /// Scaled weights in `[−1, 1]`, kernel-major (`kernels × ksize²`).
    pub weights: Vec<f32>,
    /// Per-kernel activation offset `bias / s` — the sign decision of
    /// `x∘w + bias` re-expressed in scaled-weight units so engines without
    /// a bias datapath implement it as a comparator preload.
    pub offsets: Vec<f32>,
}

impl KernelBank {
    /// Extracts and conditions the first-layer parameters from a trained
    /// convolution.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] unless the convolution is the paper's
    /// first-layer shape: 1 input channel, `Same` padding, odd kernel.
    pub fn from_conv(conv: &Conv2d) -> Result<Self, Error> {
        if conv.in_channels() != 1 {
            return Err(Error::config(format!(
                "first layer expects 1 input channel, got {}",
                conv.in_channels()
            )));
        }
        if conv.padding() != Padding::Same {
            return Err(Error::config("first layer expects same padding"));
        }
        let kernels = conv.out_channels();
        let ksize = conv.kernel();
        let mut weights = conv.weights().data().to_vec();
        let scales = scale_kernels(&mut weights, ksize * ksize);
        let offsets = conv.bias().data().iter().zip(&scales).map(|(&b, &s)| b / s).collect();
        Ok(Self { kernels, ksize, weights, offsets })
    }

    /// The scaled weight of kernel `k`, tap `t`.
    #[inline]
    pub fn weight(&self, k: usize, t: usize) -> f32 {
        self.weights[k * self.ksize * self.ksize + t]
    }
}

/// Iterates the taps of a `ksize × ksize` window centred at `(oy, ox)` on a
/// 28×28 image with zero padding, yielding `(tap_index, Option<pixel_index>)`.
pub(crate) fn window_taps(
    ksize: usize,
    oy: usize,
    ox: usize,
) -> impl Iterator<Item = (usize, Option<usize>)> {
    let pad = (ksize as isize - 1) / 2;
    (0..ksize * ksize).map(move |t| {
        let ki = (t / ksize) as isize;
        let kj = (t % ksize) as isize;
        let iy = oy as isize + ki - pad;
        let ix = ox as isize + kj - pad;
        if iy >= 0 && iy < IMAGE_SIDE as isize && ix >= 0 && ix < IMAGE_SIDE as isize {
            (t, Some(iy as usize * IMAGE_SIDE + ix as usize))
        } else {
            (t, None)
        }
    })
}

/// The ternary activation `sign(soft_threshold(v, tau))` (`+0.0` for a zero
/// or NaN result), branch-free so that a loop over outputs vectorizes.
#[inline]
pub(crate) fn ternary(v: f32, tau: f32) -> f32 {
    let sign = i8::from(v > 0.0) - i8::from(v < 0.0);
    f32::from(if v.abs() <= tau { 0 } else { sign })
}

/// The window loop of the float and fixed-point heads: per kernel and
/// output pixel, `offset + Σ pixel·weight` over the in-image taps in tap
/// order, then [`ternary`]. `weights` is lane-major (`kernel · ksize² +
/// tap`), like [`KernelBank::weights`].
fn conv_ternary(bank: &KernelBank, weights: &[f32], pixels: &[f32], tau: f32) -> Vec<f32> {
    let n = IMAGE_SIDE * IMAGE_SIDE;
    let ksq = bank.ksize * bank.ksize;
    let mut out = vec![0.0f32; bank.kernels * n];
    for (k, kernel) in weights.chunks_exact(ksq).enumerate() {
        for oy in 0..IMAGE_SIDE {
            for ox in 0..IMAGE_SIDE {
                let mut d = bank.offsets[k];
                for (t, px) in window_taps(bank.ksize, oy, ox) {
                    if let Some(p) = px {
                        d += pixels[p] * kernel[t];
                    }
                }
                out[k * n + oy * IMAGE_SIDE + ox] = ternary(d, tau);
            }
        }
    }
    out
}

/// Rejects images that are not 28×28.
pub(crate) fn check_image(image: &[f32]) -> Result<(), Error> {
    if image.len() != IMAGE_SIDE * IMAGE_SIDE {
        return Err(Error::config(format!(
            "expected {} pixels, got {}",
            IMAGE_SIDE * IMAGE_SIDE,
            image.len()
        )));
    }
    Ok(())
}

/// The full-precision reference first layer: float dot products with the
/// trained weights and bias, followed by the ternary sign activation.
///
/// Produces (for `tau = 0`) exactly the features of the trained float head,
/// so it anchors the accuracy comparisons and validates the engines.
///
/// # Example
///
/// ```
/// use scnn_core::{FirstLayer, FloatConvLayer};
/// use scnn_nn::layers::{Conv2d, Padding};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let conv = Conv2d::new(1, 32, 5, Padding::Same, 7)?;
/// let layer = FloatConvLayer::from_conv(&conv, 0.0)?;
/// let features = layer.forward_image(&vec![0.3; 784])?;
/// assert_eq!(features.len(), 32 * 784);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct FloatConvLayer {
    bank: KernelBank,
    tau: f32,
}

impl FloatConvLayer {
    /// Builds the reference layer from a trained convolution.
    ///
    /// `tau` is the soft threshold in scaled dot-product units.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] for non-first-layer convolution shapes.
    pub fn from_conv(conv: &Conv2d, tau: f32) -> Result<Self, Error> {
        Ok(Self { bank: KernelBank::from_conv(conv)?, tau })
    }
}

impl FirstLayer for FloatConvLayer {
    fn forward_image(&self, image: &[f32]) -> Result<Vec<f32>, Error> {
        check_image(image)?;
        Ok(conv_ternary(&self.bank, &self.bank.weights, image, self.tau))
    }

    fn kernels(&self) -> usize {
        self.bank.kernels
    }

    fn label(&self) -> String {
        "float".to_string()
    }
}

/// The quantized fixed-point baseline first layer — Table 3's "Binary"
/// design: `b`-bit pixels, `b`-bit weights, exact integer dot products,
/// ternary sign activation (the sliding-window conv engine of \[23\] at the
/// arithmetic level).
///
/// # Example
///
/// ```
/// use scnn_bitstream::Precision;
/// use scnn_core::{BinaryConvLayer, FirstLayer};
/// use scnn_nn::layers::{Conv2d, Padding};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let conv = Conv2d::new(1, 32, 5, Padding::Same, 7)?;
/// let layer = BinaryConvLayer::from_conv(&conv, Precision::new(4)?, 0.0)?;
/// assert_eq!(layer.label(), "binary(4-bit)");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct BinaryConvLayer {
    bank: KernelBank,
    precision: Precision,
    /// Weights after `b`-bit quantization (still in `[−1, 1]`).
    quantized: Vec<f32>,
    tau: f32,
}

impl BinaryConvLayer {
    /// Builds the baseline from a trained convolution at the given
    /// precision; `tau` is the soft threshold in scaled dot-product units.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] for non-first-layer convolution shapes.
    pub fn from_conv(conv: &Conv2d, precision: Precision, tau: f32) -> Result<Self, Error> {
        let bank = KernelBank::from_conv(conv)?;
        let quantized =
            bank.weights.iter().map(|&w| quantize_bipolar(w, precision.bits())).collect();
        Ok(Self { bank, precision, quantized, tau })
    }

    /// The operating precision.
    pub fn precision(&self) -> Precision {
        self.precision
    }
}

impl FirstLayer for BinaryConvLayer {
    fn forward_image(&self, image: &[f32]) -> Result<Vec<f32>, Error> {
        check_image(image)?;
        let bits = self.precision.bits();
        let denom = (1u64 << bits) as f32;
        // Quantize the image once (the sensor-side ADC).
        let pixels: Vec<f32> = image.iter().map(|&p| pixel_level(p, bits) as f32 / denom).collect();
        Ok(conv_ternary(&self.bank, &self.quantized, &pixels, self.tau))
    }

    fn kernels(&self) -> usize {
        self.bank.kernels
    }

    fn label(&self) -> String {
        format!("binary({})", self.precision)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scnn_nn::lenet::{lenet5_head, LenetConfig};
    use scnn_nn::quant::soft_threshold;
    use scnn_nn::Tensor;

    fn test_image(seed: u64) -> Vec<f32> {
        (0..784).map(|i| (((i as u64).wrapping_mul(seed * 2 + 1) % 256) as f32) / 255.0).collect()
    }

    #[test]
    fn float_layer_matches_nn_head() {
        // The FloatConvLayer must reproduce the nn head (Conv → Sign) at
        // tau = 0, because sign is invariant to per-kernel weight scaling.
        let cfg = LenetConfig::default();
        let head = lenet5_head(&cfg).unwrap();
        let conv = head
            .layer(0)
            .unwrap()
            .as_any()
            .downcast_ref::<Conv2d>()
            .expect("layer 0 is conv")
            .clone();
        let layer = FloatConvLayer::from_conv(&conv, 0.0).unwrap();
        let img = test_image(3);
        let ours = layer.forward_image(&img).unwrap();
        // nn head: conv + sign (ignore pool by building conv+sign only).
        let x = Tensor::from_vec(img.clone(), &[1, 1, 28, 28]).unwrap();
        let mut conv_l = conv.clone();
        use scnn_nn::layers::{Layer, Sign};
        let conv_out = conv_l.forward(&x, false).unwrap();
        let mut sign = Sign::new(0.0);
        let expected = sign.forward(&conv_out, false).unwrap();
        assert_eq!(ours.len(), expected.len());
        let mismatches =
            ours.iter().zip(expected.data()).filter(|(a, b)| (*a - *b).abs() > 0.5).count();
        assert_eq!(mismatches, 0, "{mismatches} feature mismatches");
    }

    #[test]
    fn binary_layer_converges_to_float_with_precision() {
        let conv = Conv2d::new(1, 32, 5, Padding::Same, 11).unwrap();
        let float = FloatConvLayer::from_conv(&conv, 0.0).unwrap();
        let img = test_image(5);
        let reference = float.forward_image(&img).unwrap();
        let mut last_mismatch = usize::MAX;
        for bits in [2u32, 4, 8] {
            let binary =
                BinaryConvLayer::from_conv(&conv, Precision::new(bits).unwrap(), 0.0).unwrap();
            let got = binary.forward_image(&img).unwrap();
            let mismatch =
                got.iter().zip(&reference).filter(|(a, b)| (*a - *b).abs() > 0.5).count();
            assert!(
                mismatch <= last_mismatch.saturating_add(got.len() / 50),
                "{bits}-bit mismatches {mismatch} > previous {last_mismatch}"
            );
            last_mismatch = mismatch;
        }
        // 8-bit should agree with float almost everywhere.
        assert!(last_mismatch < reference.len() / 20, "8-bit mismatches: {last_mismatch}");
    }

    #[test]
    fn outputs_are_ternary_and_right_sized() {
        let conv = Conv2d::new(1, 32, 5, Padding::Same, 2).unwrap();
        for layer in [
            Box::new(FloatConvLayer::from_conv(&conv, 0.1).unwrap()) as Box<dyn FirstLayer>,
            Box::new(BinaryConvLayer::from_conv(&conv, Precision::new(4).unwrap(), 0.1).unwrap()),
        ] {
            let out = layer.forward_image(&test_image(1)).unwrap();
            assert_eq!(out.len(), 32 * 784);
            assert!(out.iter().all(|&v| v == -1.0 || v == 0.0 || v == 1.0));
            assert_eq!(layer.kernels(), 32);
        }
    }

    #[test]
    fn rejects_wrong_image_and_conv_shapes() {
        let conv = Conv2d::new(1, 8, 5, Padding::Same, 2).unwrap();
        let layer = FloatConvLayer::from_conv(&conv, 0.0).unwrap();
        assert!(layer.forward_image(&[0.0; 100]).is_err());
        let bad = Conv2d::new(2, 8, 5, Padding::Same, 2).unwrap();
        assert!(FloatConvLayer::from_conv(&bad, 0.0).is_err());
        let bad = Conv2d::new(1, 8, 5, Padding::Valid, 2).unwrap();
        assert!(FloatConvLayer::from_conv(&bad, 0.0).is_err());
    }

    #[test]
    fn window_taps_cover_borders() {
        // Centre window: all 25 taps valid.
        let all: Vec<_> = window_taps(5, 14, 14).collect();
        assert_eq!(all.len(), 25);
        assert!(all.iter().all(|(_, p)| p.is_some()));
        // Corner window: only the inner 3×3 of the 5×5 remains.
        let corner: Vec<_> = window_taps(5, 0, 0).filter(|(_, p)| p.is_some()).collect();
        assert_eq!(corner.len(), 9);
    }

    #[test]
    fn ternary_is_the_sign_of_the_soft_threshold() {
        let sign = |v: f32| {
            if v > 0.0 {
                1.0
            } else if v < 0.0 {
                -1.0
            } else {
                0.0
            }
        };
        let values = [0.0, -0.0, 0.25, -0.25, 0.5, -0.5, 3.0, -3.0, f32::INFINITY, f32::NAN];
        for tau in [0.0, 0.25, 1.0, -1.0, f32::NAN] {
            for v in values {
                let want: f32 = sign(soft_threshold(v, tau));
                assert_eq!(ternary(v, tau).to_bits(), want.to_bits(), "v={v} tau={tau}");
            }
        }
    }

    #[test]
    fn soft_threshold_zeroes_weak_responses() {
        let conv = Conv2d::new(1, 4, 5, Padding::Same, 9).unwrap();
        let strict = FloatConvLayer::from_conv(&conv, 0.0).unwrap();
        let relaxed = FloatConvLayer::from_conv(&conv, 10.0).unwrap();
        let img = test_image(7);
        let a = strict.forward_image(&img).unwrap();
        let b = relaxed.forward_image(&img).unwrap();
        let zeros_strict = a.iter().filter(|&&v| v == 0.0).count();
        let zeros_relaxed = b.iter().filter(|&&v| v == 0.0).count();
        assert!(zeros_relaxed > zeros_strict);
    }
}
