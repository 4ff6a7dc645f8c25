//! Switching-activity measurement from simulation traces — the role the
//! paper's PrimeTime activity files play ("Activity factors for power
//! measurement are recorded using traces based on MNIST test images and
//! weights from the TensorFlow model", §VI).
//!
//! Activities are measured on the *actual* packed streams the
//! `scnn-core` engine produces for real images, so sparse sensor data
//! (MNIST images are mostly black) is reflected in the energy numbers —
//! which is precisely what makes the stochastic datapath cheap per cycle.

use crate::designs::TAPS;
use scnn_core::{FirstLayer, StochasticConvLayer};
use scnn_nn::data::Dataset;
use scnn_nn::quant::pixel_level;
use scnn_sim::{S0Policy, TffAdderTree};

/// Measured activity factors for the stochastic datapath.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScActivity {
    /// Mean toggle rate of multiplier (AND) output streams.
    pub product_toggle: f64,
    /// Mean toggle rate of adder-tree node outputs.
    pub tree_toggle: f64,
    /// Mean TFF toggle-event rate.
    pub tff_toggle: f64,
    /// Mean counter increment rate (root stream density).
    pub counter_increment: f64,
    /// Mean toggle rate of weight SNG comparator outputs.
    pub weight_stream_toggle: f64,
}

impl Default for ScActivity {
    /// Conservative defaults for use without a trace (roughly what dense
    /// mid-grey images would produce).
    fn default() -> Self {
        Self {
            product_toggle: 0.10,
            tree_toggle: 0.10,
            tff_toggle: 0.05,
            counter_increment: 0.15,
            weight_stream_toggle: 0.30,
        }
    }
}

/// Measured activity factors for the binary MAC-serial datapath.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BinaryActivity {
    /// Mean datapath (multiplier/adder) toggle rate per cycle.
    pub datapath_toggle: f64,
    /// Mean register-bit toggle rate per cycle.
    pub register_toggle: f64,
}

impl Default for BinaryActivity {
    fn default() -> Self {
        Self { datapath_toggle: 0.25, register_toggle: 0.20 }
    }
}

/// Toggle count of a packed stream: the number of positions `t ≥ 1` whose
/// bit differs from bit `t − 1`.
pub fn toggle_count(words: &[u64], bits: usize) -> u64 {
    let mut toggles = 0u64;
    let mut prev_bit = words[0] & 1;
    // Within-word transitions via shifted XOR, plus word boundaries.
    for (wi, &w) in words.iter().enumerate() {
        let valid = bits.saturating_sub(wi * 64).min(64);
        if valid == 0 {
            break;
        }
        let shifted = (w << 1) | prev_bit;
        let diff = (w ^ shifted) & if valid == 64 { u64::MAX } else { (1u64 << valid) - 1 };
        // Position 0 of the whole stream is not a transition.
        let mut d = diff;
        if wi == 0 {
            d &= !1u64;
        }
        toggles += u64::from(d.count_ones());
        prev_bit = (w >> (valid - 1)) & 1;
    }
    toggles
}

/// Rate form of [`toggle_count`]: toggles per cycle.
pub fn toggle_rate(words: &[u64], bits: usize) -> f64 {
    if bits <= 1 {
        return 0.0;
    }
    toggle_count(words, bits) as f64 / (bits - 1) as f64
}

/// Measures stochastic-datapath activity from the engine's own streams
/// over up to `max_images` images and `windows_per_image` sampled windows.
///
/// # Errors
///
/// Propagates engine errors.
pub fn measure_sc_activity(
    engine: &StochasticConvLayer,
    dataset: &Dataset,
    max_images: usize,
    windows_per_image: usize,
) -> Result<ScActivity, scnn_core::Error> {
    let n = engine.stream_len();
    let kernels = engine.kernels();
    let mut product_toggles = 0.0f64;
    let mut product_samples = 0u64;
    let mut root_toggles = 0.0f64;
    let mut root_density = 0.0f64;
    let mut root_samples = 0u64;
    let mut tff_events = 0.0f64;
    let tree = TffAdderTree::new(TAPS, S0Policy::Alternating).expect("25 > 0");

    let images = dataset.len().min(max_images);
    for i in 0..images {
        let pixels = engine.pixel_streams(dataset.item(i), i as u64)?;
        for wsample in 0..windows_per_image {
            // Deterministic spread of sampled windows and kernels.
            let window = (wsample * 97 + i * 13) % (28 * 28);
            let k = (wsample + i) % kernels;
            let mut products = Vec::with_capacity(TAPS);
            let (oy, ox) = (window / 28, window % 28);
            for t in 0..TAPS {
                let ki = t / 5;
                let kj = t % 5;
                let iy = oy as isize + ki as isize - 2;
                let ix = ox as isize + kj as isize - 2;
                let prod: Vec<u64> = if (0..28).contains(&iy) && (0..28).contains(&ix) {
                    let p = (iy * 28 + ix) as usize;
                    pixels
                        .stream(p)
                        .iter()
                        .zip(engine.weight_stream(k, t))
                        .map(|(a, b)| a & b)
                        .collect()
                } else {
                    vec![0u64; pixels.words_per_stream()]
                };
                product_toggles += toggle_rate(&prod, n);
                product_samples += 1;
                products.push(scnn_bitstream::BitStream::from_words(prod, n));
            }
            // Bit-level tree for root stream statistics.
            let root = tree.add_streams(&products).expect("matched input count");
            let root_words = root.words().to_vec();
            root_toggles += toggle_rate(&root_words, n);
            root_density += root.count_ones() as f64 / n as f64;
            root_samples += 1;
            // TFF toggle events happen on input disagreement; approximate
            // the mean event rate by half the mean node-output toggle rate.
            tff_events += toggle_rate(&root_words, n) / 2.0;
        }
    }
    let product_toggle = product_toggles / product_samples.max(1) as f64;
    let root_toggle = root_toggles / root_samples.max(1) as f64;
    // Node activity interpolates between leaves and root (scaled addition
    // preserves mean density level to level).
    let tree_toggle = 0.5 * (product_toggle + root_toggle);
    // Weight streams.
    let mut w_toggles = 0.0;
    let mut w_samples = 0u64;
    for k in 0..kernels {
        for t in 0..TAPS {
            w_toggles += toggle_rate(engine.weight_stream(k, t), n);
            w_samples += 1;
        }
    }
    Ok(ScActivity {
        product_toggle,
        tree_toggle,
        tff_toggle: tff_events / root_samples.max(1) as f64,
        counter_increment: root_density / root_samples.max(1) as f64,
        weight_stream_toggle: w_toggles / w_samples.max(1) as f64,
    })
}

/// Measures binary MAC-serial datapath activity: the operand bit-flip rate
/// between consecutive taps in scan order (what the serial multiplier's
/// inputs actually see) and the register toggle rate.
pub fn measure_binary_activity(
    dataset: &Dataset,
    precision: scnn_bitstream::Precision,
    max_images: usize,
) -> BinaryActivity {
    let bits = precision.bits();
    let mut flips = 0u64;
    let mut total = 0u64;
    let mut ones = 0u64;
    let images = dataset.len().min(max_images);
    for i in 0..images {
        let item = dataset.item(i);
        let levels: Vec<u64> = item.iter().map(|&p| pixel_level(p, bits)).collect();
        for pair in levels.windows(2) {
            flips += u64::from((pair[0] ^ pair[1]).count_ones());
            total += u64::from(bits);
        }
        ones += levels.iter().map(|l| u64::from(l.count_ones())).sum::<u64>();
    }
    let datapath_toggle =
        if total == 0 { 0.25 } else { (flips as f64 / total as f64).clamp(0.02, 1.0) };
    let pixel_count = (images * dataset.item_len()).max(1) as f64;
    let register_toggle = (ones as f64 / (pixel_count * f64::from(bits))).clamp(0.02, 1.0);
    BinaryActivity { datapath_toggle, register_toggle }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scnn_bitstream::Precision;
    use scnn_core::ScenarioSpec;
    use scnn_nn::data::synthetic;
    use scnn_nn::layers::{Conv2d, Padding};

    #[test]
    fn toggle_count_known_patterns() {
        // 0101 0101 → toggles at every position ≥ 1.
        let s: u64 = 0x5555_5555_5555_5555;
        assert_eq!(toggle_count(&[s], 64), 63);
        // Constant streams never toggle.
        assert_eq!(toggle_count(&[0], 64), 0);
        assert_eq!(toggle_count(&[u64::MAX], 64), 0);
        // Thermometer 111…000: exactly one transition.
        assert_eq!(toggle_count(&[0b0000_1111], 8), 1);
        // Word boundary transition counted once.
        assert_eq!(toggle_count(&[u64::MAX, 0], 128), 1);
        assert_eq!(toggle_count(&[u64::MAX, u64::MAX], 128), 0);
    }

    #[test]
    fn toggle_rate_bounds() {
        let s: u64 = 0x5555_5555_5555_5555;
        assert!((toggle_rate(&[s], 64) - 1.0).abs() < 1e-9);
        assert_eq!(toggle_rate(&[0], 1), 0.0);
    }

    #[test]
    fn sc_activity_measured_on_sparse_images_is_low() {
        let conv = Conv2d::new(1, 8, 5, Padding::Same, 3).unwrap();
        let engine = ScenarioSpec::this_work(6).stochastic_conv(&conv).unwrap();
        let ds = synthetic::generate(3, 1);
        let act = measure_sc_activity(&engine, &ds, 2, 8).unwrap();
        // Mostly-black digit images → sparse products → low activity.
        assert!(act.product_toggle < 0.5, "{act:?}");
        assert!(act.product_toggle > 0.0, "{act:?}");
        assert!(act.counter_increment <= 1.0);
        assert!(act.weight_stream_toggle > 0.0);
    }

    #[test]
    fn binary_activity_in_bounds() {
        let ds = synthetic::generate(4, 2);
        let act = measure_binary_activity(&ds, Precision::new(8).unwrap(), 4);
        assert!((0.02..=1.0).contains(&act.datapath_toggle), "{act:?}");
        assert!((0.02..=1.0).contains(&act.register_toggle), "{act:?}");
    }

    #[test]
    fn defaults_are_sane() {
        let sc = ScActivity::default();
        assert!(sc.product_toggle > 0.0 && sc.product_toggle < 1.0);
        let bin = BinaryActivity::default();
        assert!(bin.datapath_toggle > 0.0 && bin.datapath_toggle < 1.0);
    }
}
