use crate::{MuxAdder, TffAdder};
use scnn_bitstream::{BitStream, Error};
use scnn_rng::{Lfsr, Sng};

/// How the initial TFF states (`S0`) of a [`TffAdderTree`] are assigned.
///
/// `S0` controls each node's rounding direction (Fig. 2c), so the policy is
/// a bias/variance knob for deep trees: all-floor biases the sum low,
/// alternating cancels most of the bias. The `ablation_adder_tree` bench
/// quantifies the difference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[non_exhaustive]
pub enum S0Policy {
    /// Every node starts at `0` (round every carry down).
    AllZero,
    /// Every node starts at `1` (round every carry up).
    AllOne,
    /// Node `i` starts at `i mod 2` — alternating rounding that cancels
    /// bias across the tree. The default.
    #[default]
    Alternating,
}

impl S0Policy {
    /// The initial state for tree node `index` (numbered breadth-first).
    pub fn state_for(self, index: usize) -> bool {
        match self {
            S0Policy::AllZero => false,
            S0Policy::AllOne => true,
            S0Policy::Alternating => index % 2 == 1,
        }
    }
}

/// A balanced reduction tree of [`TffAdder`]s computing the scaled sum
/// `(Σ p_i) / 2^depth` of many streams — the paper's convolution dot-product
/// reducer.
///
/// Inputs are padded with zero streams up to the next power of two (exactly
/// what the hardware's unused leaf inputs do), so the scale factor is the
/// padded width. Because each TFF adder's output count is a deterministic
/// function of its input counts, the whole tree admits a closed-form count
/// fold ([`fold_counts`](Self::fold_counts),
/// [`fold_padded`](Self::fold_padded)) that `scnn-core`'s streaming
/// references use; the streamwise simulation here is the reference model.
///
/// # Example
///
/// ```
/// use scnn_bitstream::BitStream;
/// use scnn_sim::{S0Policy, TffAdderTree};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let tree = TffAdderTree::new(3, S0Policy::AllZero)?;
/// assert_eq!(tree.scale(), 4); // padded to 4 leaves
/// let inputs = vec![
///     BitStream::parse("1111")?,
///     BitStream::parse("1100")?,
///     BitStream::parse("1000")?,
/// ];
/// let sum = tree.add_streams(&inputs)?;
/// // (4 + 2 + 1) / 4 = 1.75 ones → floor-rounded by the all-zero policy.
/// assert_eq!(sum.count_ones(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TffAdderTree {
    num_inputs: usize,
    padded: usize,
    policy: S0Policy,
}

impl TffAdderTree {
    /// Creates a tree for `num_inputs` streams with the given `S0` policy.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ValueOutOfRange`] if `num_inputs` is zero.
    pub fn new(num_inputs: usize, policy: S0Policy) -> Result<Self, Error> {
        if num_inputs == 0 {
            return Err(Error::ValueOutOfRange { value: 0.0, domain: "at least one input" });
        }
        Ok(Self { num_inputs, padded: num_inputs.next_power_of_two(), policy })
    }

    /// The number of (unpadded) inputs.
    pub fn num_inputs(&self) -> usize {
        self.num_inputs
    }

    /// Tree depth, `log2` of the padded width.
    pub fn depth(&self) -> u32 {
        self.padded.trailing_zeros()
    }

    /// The scale factor `2^depth` dividing the sum.
    pub fn scale(&self) -> u64 {
        self.padded as u64
    }

    /// Number of adder nodes in the tree (`padded − 1`).
    pub fn num_nodes(&self) -> usize {
        self.padded - 1
    }

    /// Streamwise (bit-level) tree evaluation — the hardware reference model.
    ///
    /// Folds in place over one padded scratch buffer (node `i`'s output
    /// overwrites slot `i`, which level processing has already consumed),
    /// so the only allocations are the buffer and each node's output
    /// stream — no per-level `Vec`s.
    ///
    /// # Errors
    ///
    /// Returns [`Error::LengthMismatch`] on inconsistent stream lengths, or
    /// [`Error::ValueOutOfRange`] if the input count differs from
    /// [`num_inputs`](Self::num_inputs).
    pub fn add_streams(&self, inputs: &[BitStream]) -> Result<BitStream, Error> {
        if inputs.len() != self.num_inputs {
            return Err(Error::ValueOutOfRange {
                value: inputs.len() as f64,
                domain: "inputs.len() == num_inputs",
            });
        }
        let len = inputs[0].len();
        let mut level: Vec<BitStream> = Vec::with_capacity(self.padded);
        level.extend_from_slice(inputs);
        level.resize(self.padded, BitStream::zeros(len));
        let mut width = self.padded;
        let mut node_index = 0usize;
        while width > 1 {
            for i in 0..width / 2 {
                let adder = TffAdder::new(self.policy.state_for(node_index));
                node_index += 1;
                let sum = adder.add(&level[2 * i], &level[2 * i + 1])?;
                level[i] = sum;
            }
            width /= 2;
        }
        Ok(level.swap_remove(0))
    }

    /// Closed-form output count from the input counts only. Exactly
    /// equivalent to counting [`add_streams`](Self::add_streams)' output
    /// (property-tested). Copies the counts into a padded buffer and runs
    /// [`fold_padded`](Self::fold_padded) on it.
    ///
    /// # Panics
    ///
    /// Panics if `counts.len() != num_inputs`.
    pub fn fold_counts(&self, counts: &[u64]) -> u64 {
        assert_eq!(counts.len(), self.num_inputs, "count vector length mismatch");
        let mut level = vec![0; self.padded];
        level[..counts.len()].copy_from_slice(counts);
        self.fold_padded(&mut level, None)
    }

    /// The count fold over a caller's buffer of [`scale`](Self::scale)
    /// leaf counts (zeros past [`num_inputs`](Self::num_inputs)), which it
    /// overwrites: node `i`'s output lands in a slot its level has already
    /// read. Allocates nothing, so a per-window caller reuses one buffer.
    ///
    /// `stuck = Some((node, count))` is a stuck-at fault: node `node`,
    /// numbered breadth-first from the bottom level as in
    /// [`FaultSite::AdderNode`](crate::FaultSite::AdderNode), emits `count`
    /// instead of its computed output.
    ///
    /// # Panics
    ///
    /// Panics if `counts.len() != scale()`.
    pub fn fold_padded(&self, counts: &mut [u64], stuck: Option<(usize, u64)>) -> u64 {
        assert_eq!(counts.len(), self.padded, "padded count buffer length mismatch");
        let mut width = self.padded;
        let mut node = 0usize;
        while width > 1 {
            for i in 0..width / 2 {
                counts[i] = match stuck {
                    Some((stuck_node, count)) if stuck_node == node => count,
                    _ => TffAdder::new(self.policy.state_for(node))
                        .add_count(counts[2 * i], counts[2 * i + 1]),
                };
                node += 1;
            }
            width /= 2;
        }
        counts[0]
    }
}

/// A balanced reduction tree of conventional [`MuxAdder`]s, with per-node
/// LFSR-generated select streams — the "old SC" dot-product reducer used as
/// the prior-work baseline in Table 3.
///
/// Every level discards half the surviving input bits, so errors compound
/// with depth (§III motivation). Unlike the TFF tree there is no exact count
/// shortcut: the output depends on *which* bits the selects sample.
///
/// The per-node select streams are deterministic functions of the
/// construction parameters (seed, width) and the stream length — the
/// hardware's fixed select register bank — so every
/// [`add_streams`](Self::add_streams) call with the same length sees the
/// same bank.
///
/// # Example
///
/// ```
/// use scnn_bitstream::BitStream;
/// use scnn_sim::MuxAdderTree;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let tree = MuxAdderTree::new(4, 8, 42)?;
/// let inputs = vec![BitStream::ones(256); 4];
/// let sum = tree.add_streams(&inputs)?;
/// assert_eq!(sum.count_ones(), 256); // all-ones in, all-ones out
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct MuxAdderTree {
    num_inputs: usize,
    padded: usize,
    select_width: u32,
    seed: u64,
}

impl MuxAdderTree {
    /// Creates a tree for `num_inputs` streams whose select streams come
    /// from `select_width`-bit LFSRs seeded from `seed` (one LFSR per node,
    /// as hardware would share a register bank).
    ///
    /// # Errors
    ///
    /// Returns [`Error::ValueOutOfRange`] if `num_inputs` is zero, or an
    /// invalid-precision error if `select_width` is outside `3..=32`.
    pub fn new(num_inputs: usize, select_width: u32, seed: u64) -> Result<Self, Error> {
        if num_inputs == 0 {
            return Err(Error::ValueOutOfRange { value: 0.0, domain: "at least one input" });
        }
        if !(3..=32).contains(&select_width) {
            return Err(Error::InvalidPrecision { bits: select_width });
        }
        Ok(Self { num_inputs, padded: num_inputs.next_power_of_two(), select_width, seed })
    }

    /// The number of (unpadded) inputs.
    pub fn num_inputs(&self) -> usize {
        self.num_inputs
    }

    /// Tree depth.
    pub fn depth(&self) -> u32 {
        self.padded.trailing_zeros()
    }

    /// The scale factor `2^depth`.
    pub fn scale(&self) -> u64 {
        self.padded as u64
    }

    /// Number of adder nodes (`padded − 1`).
    pub fn num_nodes(&self) -> usize {
        self.padded - 1
    }

    /// Generates the select stream for node `index`, of length `len`.
    fn generate_select_stream(&self, index: usize, len: usize) -> BitStream {
        let mask = (1u64 << self.select_width) - 1;
        let mut seed = (self.seed ^ (index as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)) & mask;
        if seed == 0 {
            seed = 1;
        }
        let lfsr = Lfsr::new(self.select_width, seed).expect("validated width and seed");
        let mut sng = Sng::new(lfsr);
        sng.generate_level(1u64 << (self.select_width - 1), len)
    }

    /// Streamwise tree evaluation.
    ///
    /// # Errors
    ///
    /// Returns [`Error::LengthMismatch`] on inconsistent stream lengths, or
    /// [`Error::ValueOutOfRange`] if the input count differs from
    /// [`num_inputs`](Self::num_inputs).
    pub fn add_streams(&self, inputs: &[BitStream]) -> Result<BitStream, Error> {
        if inputs.len() != self.num_inputs {
            return Err(Error::ValueOutOfRange {
                value: inputs.len() as f64,
                domain: "inputs.len() == num_inputs",
            });
        }
        let len = inputs[0].len();
        let selects: Vec<BitStream> =
            (0..self.num_nodes()).map(|i| self.generate_select_stream(i, len)).collect();
        let mut level: Vec<BitStream> = Vec::with_capacity(self.padded);
        level.extend_from_slice(inputs);
        level.resize(self.padded, BitStream::zeros(len));
        let mut width = self.padded;
        let mut node_index = 0usize;
        while width > 1 {
            for i in 0..width / 2 {
                let sum = MuxAdder.add(&level[2 * i], &level[2 * i + 1], &selects[node_index])?;
                node_index += 1;
                level[i] = sum;
            }
            width /= 2;
        }
        Ok(level.swap_remove(0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tff_tree_rejects_empty() {
        assert!(TffAdderTree::new(0, S0Policy::AllZero).is_err());
        assert!(MuxAdderTree::new(0, 8, 1).is_err());
    }

    #[test]
    fn tff_tree_shapes() {
        let t = TffAdderTree::new(25, S0Policy::Alternating).unwrap();
        assert_eq!(t.num_inputs(), 25);
        assert_eq!(t.scale(), 32);
        assert_eq!(t.depth(), 5);
        assert_eq!(t.num_nodes(), 31);
        let t1 = TffAdderTree::new(1, S0Policy::AllZero).unwrap();
        assert_eq!(t1.scale(), 1);
        assert_eq!(t1.num_nodes(), 0);
    }

    #[test]
    fn single_input_tree_is_identity() {
        let t = TffAdderTree::new(1, S0Policy::AllZero).unwrap();
        let s = BitStream::parse("1011").unwrap();
        assert_eq!(t.add_streams(std::slice::from_ref(&s)).unwrap(), s);
        assert_eq!(t.fold_counts(&[3]), 3);
    }

    #[test]
    fn tff_tree_count_equals_fold() {
        // Deterministic pseudo-random streams; every policy; several widths.
        for n_inputs in [2usize, 3, 5, 8, 25] {
            for policy in [S0Policy::AllZero, S0Policy::AllOne, S0Policy::Alternating] {
                let len = 64;
                let inputs: Vec<BitStream> = (0..n_inputs)
                    .map(|k| BitStream::from_fn(len, |i| (i * 31 + k * 17 + i * i * k) % 7 < 3))
                    .collect();
                let tree = TffAdderTree::new(n_inputs, policy).unwrap();
                let stream_count = tree.add_streams(&inputs).unwrap().count_ones();
                let counts: Vec<u64> = inputs.iter().map(BitStream::count_ones).collect();
                assert_eq!(
                    stream_count,
                    tree.fold_counts(&counts),
                    "n={n_inputs} policy={policy:?}"
                );
            }
        }
    }

    #[test]
    fn tff_tree_sum_accuracy_within_rounding() {
        // The tree's output is (Σ counts)/scale with at most depth·1 bits of
        // cumulative rounding.
        let n = 25;
        let len = 1024usize;
        let inputs: Vec<BitStream> =
            (0..n).map(|k| BitStream::from_fn(len, |i| (i * 7 + k * 13) % 11 < 4)).collect();
        let tree = TffAdderTree::new(n, S0Policy::Alternating).unwrap();
        let got = tree.add_streams(&inputs).unwrap().count_ones() as f64;
        let exact: u64 = inputs.iter().map(BitStream::count_ones).sum();
        let expected = exact as f64 / tree.scale() as f64;
        assert!((got - expected).abs() <= tree.depth() as f64, "got {got}, expected {expected}");
    }

    #[test]
    fn s0_policies_differ_in_rounding_direction() {
        // One '1' summed with zeros: floor loses it, ceil amplifies rounding.
        let inputs =
            vec![BitStream::parse("1000").unwrap(), BitStream::zeros(4), BitStream::zeros(4)];
        let floor_tree = TffAdderTree::new(3, S0Policy::AllZero).unwrap();
        let ceil_tree = TffAdderTree::new(3, S0Policy::AllOne).unwrap();
        let f = floor_tree.add_streams(&inputs).unwrap().count_ones();
        let c = ceil_tree.add_streams(&inputs).unwrap().count_ones();
        assert_eq!(f, 0);
        assert!(c >= 1);
    }

    #[test]
    fn mux_tree_unbiased_but_noisy() {
        let n = 8;
        let len = 256usize;
        let inputs: Vec<BitStream> =
            (0..n).map(|k| BitStream::from_fn(len, |i| (i * 5 + k * 29) % 13 < 6)).collect();
        let tree = MuxAdderTree::new(n, 8, 7).unwrap();
        let got = tree.add_streams(&inputs).unwrap().count_ones() as f64;
        let exact: u64 = inputs.iter().map(BitStream::count_ones).sum();
        let expected = exact as f64 / tree.scale() as f64;
        // Noisy, but in the neighbourhood.
        assert!((got - expected).abs() < 0.15 * len as f64, "got {got}, expected {expected}");
    }

    #[test]
    fn mux_tree_validates_input_count() {
        let tree = MuxAdderTree::new(4, 8, 1).unwrap();
        assert!(tree.add_streams(&[BitStream::zeros(8)]).is_err());
        let tff = TffAdderTree::new(4, S0Policy::AllZero).unwrap();
        assert!(tff.add_streams(&[BitStream::zeros(8)]).is_err());
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn fold_counts_validates_length() {
        let tree = TffAdderTree::new(4, S0Policy::AllZero).unwrap();
        let _ = tree.fold_counts(&[1, 2]);
    }

    #[test]
    fn mux_tree_is_deterministic() {
        // Repeated calls, fresh trees, clones and mixed lengths must all
        // agree: the select bank depends on the seed, width and length only.
        let inputs = |len: usize, n: usize| -> Vec<BitStream> {
            (0..n).map(|k| BitStream::from_fn(len, |i| (i * 13 + k * 7) % 5 < 2)).collect()
        };
        let tree = MuxAdderTree::new(5, 8, 99).unwrap();
        let short = inputs(64, 5);
        let long = inputs(256, 5);
        let first_short = tree.add_streams(&short).unwrap();
        let first_long = tree.add_streams(&long).unwrap();
        assert_eq!(tree.add_streams(&short).unwrap(), first_short);
        assert_eq!(tree.add_streams(&long).unwrap(), first_long);
        let fresh = MuxAdderTree::new(5, 8, 99).unwrap();
        assert_eq!(fresh.add_streams(&short).unwrap(), first_short);
        let cloned = tree.clone();
        assert_eq!(cloned.add_streams(&long).unwrap(), first_long);
    }
}
