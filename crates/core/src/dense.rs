use crate::arena::{and_count, StreamArena};
use crate::counts::{table_fits, LaneTree, LevelCountTable, LevelStreamCache};
use crate::stochastic::{SourceKind, INPUT_SEED_SALT, WEIGHT_SEED_SALT};
use crate::Error;
use scnn_bitstream::Precision;
use scnn_nn::layers::Dense;
use scnn_nn::quant::{pixel_level, scale_kernels, weight_level};
use scnn_sim::{S0Policy, TffAdderTree};

/// The S0 policy of the dense engine's adder trees — one source of truth
/// for the streaming [`TffAdderTree`] and the count-domain
/// [`LaneTree`] fold, which must agree bit for bit.
pub(crate) const DENSE_S0_POLICY: S0Policy = S0Policy::Alternating;

/// What kind of values feed a [`StochasticDenseLayer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DenseInput {
    /// Unipolar activations in `[0, 1]` (e.g. raw pixels): converted to
    /// streams by the layer's SNG bank.
    Unipolar,
    /// Ternary activations in `{−1, 0, +1}` (the output of a sign layer):
    /// magnitude streams are all-ones or all-zero, so products reduce to
    /// the weight streams themselves — free and exact.
    Ternary,
}

/// A fully connected layer computed in the stochastic domain — the
/// building block of the *fully stochastic* NNs of the paper's §II
/// background (Ardakani et al., Kim et al.), implemented here so the
/// hybrid design can be compared against running *more* of the network
/// stochastically (`ablation_fully_stochastic`).
///
/// Same machinery as the convolution engine: per-weight pos/neg unipolar
/// split after per-neuron weight scaling, AND-gate products, TFF adder
/// trees, counters, and a bias comparator offset. The output is the raw
/// counter difference re-normalized to scaled dot-product units (apply a
/// sign activation externally for hidden layers; use argmax directly for
/// a classifier head).
///
/// Like the convolution engine, the unipolar mode runs in the **count
/// domain** by default: the same counting identity (Hirtzlin et al. apply
/// it to fully-connected SC layers) lets a
/// [`LevelCountTable`](crate::counts::LevelCountTable) precomputed at
/// construction replace every per-call stream regeneration and AND-count,
/// with the positive and negative trees of all neurons folded as one
/// [`LaneTree`](crate::counts::LaneTree) over the table's split rows.
/// [`forward_streaming`](Self::forward_streaming) remains the bit-level
/// reference — bit-exact with the fast path (checked by the oracle harness
/// in `tests/oracle.rs`).
///
/// # Example
///
/// ```
/// use scnn_bitstream::Precision;
/// use scnn_core::{DenseInput, StochasticDenseLayer};
/// use scnn_nn::layers::Dense;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let dense = Dense::new(16, 4, 42);
/// let layer = StochasticDenseLayer::from_dense(
///     &dense,
///     Precision::new(8)?,
///     DenseInput::Unipolar,
///     1,
/// )?;
/// let outputs = layer.forward(&vec![0.5; 16])?;
/// assert_eq!(outputs.len(), 4);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct StochasticDenseLayer {
    in_features: usize,
    out_features: usize,
    precision: Precision,
    input_kind: DenseInput,
    /// Magnitude stream 1-counts per (neuron, input) — the exact stream
    /// weight the ternary fast path needs.
    weight_counts: Vec<u64>,
    /// Sign per (neuron, input).
    weight_neg: Vec<bool>,
    /// Magnitude streams per (neuron, input), for the unipolar path.
    weight_streams: StreamArena,
    /// Per-neuron `bias / scale` comparator offsets.
    offsets: Vec<f32>,
    /// Source values for the input SNG bank (unipolar mode).
    input_seq: Vec<u64>,
    tree: TffAdderTree,
    /// Level-indexed AND-count table for the unipolar count-domain fast
    /// path; `None` for ternary inputs or oversized configurations.
    lut: Option<LevelCountTable>,
}

impl StochasticDenseLayer {
    /// Builds the engine from a trained [`Dense`] layer.
    ///
    /// # Errors
    ///
    /// Propagates stream/configuration errors.
    pub fn from_dense(
        dense: &Dense,
        precision: Precision,
        input_kind: DenseInput,
        seed: u64,
    ) -> Result<Self, Error> {
        let &[in_features, out_features] = dense.weights().shape() else {
            return Err(Error::config("dense weights must be 2-d"));
        };
        let n = precision.stream_len();
        let bits = precision.bits();
        // Dense stores weights [in, out]; regroup per neuron and scale to
        // the full [−1, 1] range (per-neuron, like per-kernel in the conv).
        let mut per_neuron = vec![0.0f32; in_features * out_features];
        for i in 0..in_features {
            for j in 0..out_features {
                per_neuron[j * in_features + i] = dense.weights().data()[i * out_features + j];
            }
        }
        let scales = scale_kernels(&mut per_neuron, in_features);
        let offsets = dense.bias().data().iter().zip(&scales).map(|(&b, &s)| b / s).collect();
        // Shared weight SNG bank.
        let weight_seq = SourceKind::Sobol2.sequence(bits, n, seed ^ WEIGHT_SEED_SALT)?;
        let mut weight_streams = StreamArena::new(in_features * out_features, n)?;
        let mut weight_counts = vec![0u64; in_features * out_features];
        let mut weight_neg = vec![false; in_features * out_features];
        for (idx, &w) in per_neuron.iter().enumerate() {
            let (level, neg) = weight_level(w, bits);
            weight_streams.write_from_levels(idx, &weight_seq, level);
            weight_counts[idx] = weight_streams.count(idx);
            weight_neg[idx] = neg;
        }
        let input_seq = SourceKind::Ramp.sequence(bits, n, seed ^ INPUT_SEED_SALT)?;
        let tree = TffAdderTree::new(in_features, DENSE_S0_POLICY)
            .map_err(|e| Error::config(e.to_string()))?;
        // The unipolar count-domain fast path: weight streams are already
        // lane-major (`neuron · in_features + input`), exactly the
        // LevelCountTable convention.
        let count_path =
            input_kind == DenseInput::Unipolar && table_fits(n, in_features, out_features);
        let lut = if count_path {
            let _build = scnn_obs::span("dense/lut_build");
            Some(LevelCountTable::build(
                &input_seq,
                &weight_streams,
                &weight_neg,
                in_features,
                out_features,
            )?)
        } else {
            None
        };
        Ok(Self {
            in_features,
            out_features,
            precision,
            input_kind,
            weight_counts,
            weight_neg,
            weight_streams,
            offsets,
            input_seq,
            tree,
            lut,
        })
    }

    /// Number of inputs.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Number of neurons.
    pub fn out_features(&self) -> usize {
        self.out_features
    }

    /// The operating precision.
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// Whether the level-indexed AND-count fast path is active (unipolar
    /// inputs, table within budget).
    pub fn uses_count_table(&self) -> bool {
        self.lut.is_some()
    }

    /// Computes all neuron outputs (scaled dot-product units, bias
    /// included) for one input vector.
    ///
    /// Unipolar inputs take the count-domain fast path when
    /// [`uses_count_table`](Self::uses_count_table) — bit-exact with the
    /// retained [`forward_streaming`](Self::forward_streaming) reference.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] on a wrong input length or values outside
    /// the declared [`DenseInput`] domain.
    pub fn forward(&self, input: &[f32]) -> Result<Vec<f32>, Error> {
        match &self.lut {
            Some(lut) => self.forward_lut(lut, input),
            None => self.forward_streaming(input),
        }
    }

    /// Validates one input vector against the declared [`DenseInput`]
    /// domain.
    fn check_input(&self, input: &[f32]) -> Result<(), Error> {
        if input.len() != self.in_features {
            return Err(Error::config(format!(
                "expected {} inputs, got {}",
                self.in_features,
                input.len()
            )));
        }
        match self.input_kind {
            DenseInput::Unipolar => {
                if input.iter().any(|&v| !(0.0..=1.0).contains(&v)) {
                    return Err(Error::config("unipolar inputs must lie in [0, 1]"));
                }
            }
            DenseInput::Ternary => {
                if input.iter().any(|&v| v != -1.0 && v != 0.0 && v != 1.0) {
                    return Err(Error::config("ternary inputs must be −1, 0 or +1"));
                }
            }
        }
        Ok(())
    }

    /// The count-domain fast path: quantize each input once and fold one
    /// split-row tree for all neurons whose leaves are the table rows of
    /// the inputs' levels, read in place.
    fn forward_lut(&self, lut: &LevelCountTable, input: &[f32]) -> Result<Vec<f32>, Error> {
        self.check_input(input)?;
        let _forward = scnn_obs::span("dense/forward");
        if scnn_obs::metrics_enabled() {
            scnn_obs::registry().counter("dense/rows").add(1);
        }
        let bits = self.precision.bits();
        let n = self.precision.stream_len() as f32;
        let max_leaf = self.precision.stream_len();
        let levels = input.iter().map(|&v| pixel_level(v, bits) as usize);
        let rows: Vec<&[u16]> = levels.zip(0..).map(|(level, i)| lut.row(level, i)).collect();
        let mut tree =
            LaneTree::new(self.in_features, self.out_features, DENSE_S0_POLICY, max_leaf)?;
        let _fold = scnn_obs::span("dense/fold");
        let root = tree.fold(&rows);
        let (pos, neg) = root.split_at(self.out_features);
        let scale = self.tree.scale() as f32;
        Ok(self
            .offsets
            .iter()
            .zip(pos.iter().zip(neg))
            .map(|(&offset, (&p, &m))| (f32::from(p) - f32::from(m)) * scale / n + offset)
            .collect())
    }

    /// The bit-level streaming engine — the hardware reference model,
    /// kept public so benches and the oracle harness can compare it
    /// against the count-domain path on any configuration (they are
    /// bit-exact).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] on a wrong input length or values outside
    /// the declared [`DenseInput`] domain.
    pub fn forward_streaming(&self, input: &[f32]) -> Result<Vec<f32>, Error> {
        self.check_input(input)?;
        let _forward = scnn_obs::span("dense/forward_streaming");
        if scnn_obs::metrics_enabled() {
            scnn_obs::registry().counter("dense/rows").add(1);
        }
        let n = self.precision.stream_len();
        let bits = self.precision.bits();
        // Input magnitude streams (unipolar mode only), deduplicated per
        // distinct level like the conv engine's pixel bank.
        let input_streams = match self.input_kind {
            DenseInput::Unipolar => {
                let mut arena = StreamArena::new(self.in_features, n)?;
                let mut cache = LevelStreamCache::new(&self.input_seq)?;
                for (i, &v) in input.iter().enumerate() {
                    let words = cache.words(pixel_level(v, bits) as usize);
                    arena.stream_mut(i).copy_from_slice(words);
                }
                Some(arena)
            }
            DenseInput::Ternary => None,
        };
        let scale = self.tree.scale() as f32;
        let mut out = vec![0.0f32; self.out_features];
        let mut pos_counts = vec![0u64; self.tree.scale() as usize];
        let mut neg_counts = vec![0u64; self.tree.scale() as usize];
        for (j, o) in out.iter_mut().enumerate() {
            pos_counts.fill(0);
            neg_counts.fill(0);
            for (i, &x) in input.iter().enumerate() {
                let idx = j * self.in_features + i;
                let (count, product_neg) = match (&input_streams, self.input_kind) {
                    (Some(streams), DenseInput::Unipolar) => (
                        and_count(streams.stream(i), self.weight_streams.stream(idx)),
                        self.weight_neg[idx],
                    ),
                    (_, DenseInput::Ternary) => {
                        if x == 0.0 {
                            continue;
                        }
                        // |x| = 1 ⇒ AND with all-ones = the weight stream.
                        (self.weight_counts[idx], self.weight_neg[idx] != (x < 0.0))
                    }
                    _ => unreachable!("streams exist iff unipolar"),
                };
                if product_neg {
                    neg_counts[i] = count;
                } else {
                    pos_counts[i] = count;
                }
            }
            let pos = self.tree.fold_padded(&mut pos_counts, None);
            let neg = self.tree.fold_padded(&mut neg_counts, None);
            *o = (pos as f32 - neg as f32) * scale / n as f32 + self.offsets[j];
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference_forward(dense: &Dense, input: &[f32]) -> Vec<f32> {
        // Float dot products, per-neuron scaled like the engine (sign- and
        // argmax-compatible comparison space).
        let &[in_f, out_f] = dense.weights().shape() else { unreachable!() };
        let mut per_neuron = vec![0.0f32; in_f * out_f];
        for i in 0..in_f {
            for j in 0..out_f {
                per_neuron[j * in_f + i] = dense.weights().data()[i * out_f + j];
            }
        }
        let scales = scale_kernels(&mut per_neuron, in_f);
        (0..out_f)
            .map(|j| {
                let d: f32 = (0..in_f).map(|i| input[i] * per_neuron[j * in_f + i]).sum();
                d + dense.bias().data()[j] / scales[j]
            })
            .collect()
    }

    #[test]
    fn unipolar_forward_tracks_reference() {
        let dense = Dense::new(32, 6, 3);
        let layer = StochasticDenseLayer::from_dense(
            &dense,
            Precision::new(8).unwrap(),
            DenseInput::Unipolar,
            1,
        )
        .unwrap();
        let input: Vec<f32> = (0..32).map(|i| (i as f32 * 13.0 % 17.0) / 17.0).collect();
        let got = layer.forward(&input).unwrap();
        let want = reference_forward(&dense, &input);
        for (j, (g, w)) in got.iter().zip(&want).enumerate() {
            assert!((g - w).abs() < 1.5, "neuron {j}: {g} vs {w}");
        }
    }

    #[test]
    fn ternary_forward_is_fast_path_exact_for_full_magnitudes() {
        // With ternary inputs the engine's products are exactly the weight
        // streams, so the result equals the quantized dot product up to
        // tree rounding only.
        let dense = Dense::new(16, 4, 9);
        let precision = Precision::new(8).unwrap();
        let layer =
            StochasticDenseLayer::from_dense(&dense, precision, DenseInput::Ternary, 1).unwrap();
        let input: Vec<f32> = (0..16).map(|i| [1.0f32, -1.0, 0.0, 1.0][i % 4]).collect();
        let got = layer.forward(&input).unwrap();
        let want = reference_forward(&dense, &input);
        for (j, (g, w)) in got.iter().zip(&want).enumerate() {
            // Quantization of weights + tree rounding at 8-bit: small.
            assert!((g - w).abs() < 1.0, "neuron {j}: {g} vs {w}");
        }
    }

    #[test]
    fn validates_inputs() {
        let dense = Dense::new(8, 2, 0);
        let layer = StochasticDenseLayer::from_dense(
            &dense,
            Precision::new(6).unwrap(),
            DenseInput::Unipolar,
            1,
        )
        .unwrap();
        assert!(layer.forward(&[0.0; 7]).is_err());
        assert!(layer.forward(&[2.0; 8]).is_err());
        let ternary = StochasticDenseLayer::from_dense(
            &dense,
            Precision::new(6).unwrap(),
            DenseInput::Ternary,
            1,
        )
        .unwrap();
        assert!(ternary.forward(&[0.5; 8]).is_err());
        assert!(ternary.forward(&[1.0; 8]).is_ok());
    }

    #[test]
    fn accessors() {
        let dense = Dense::new(8, 2, 0);
        let layer = StochasticDenseLayer::from_dense(
            &dense,
            Precision::new(4).unwrap(),
            DenseInput::Unipolar,
            7,
        )
        .unwrap();
        assert_eq!(layer.in_features(), 8);
        assert_eq!(layer.out_features(), 2);
        assert_eq!(layer.precision().bits(), 4);
    }

    #[test]
    fn zero_input_gives_bias_only() {
        let dense = Dense::new(8, 3, 5);
        let layer = StochasticDenseLayer::from_dense(
            &dense,
            Precision::new(8).unwrap(),
            DenseInput::Ternary,
            1,
        )
        .unwrap();
        let got = layer.forward(&[0.0; 8]).unwrap();
        let want = reference_forward(&dense, &[0.0; 8]);
        for (g, w) in got.iter().zip(&want) {
            assert!((g - w).abs() < 1e-5);
        }
    }
}
