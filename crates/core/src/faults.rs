//! Count-domain fault injection: the LUT-speed twin of the streaming
//! bit-flip model.
//!
//! Transient faults flip pixel-stream bits under a Bernoulli model. The
//! streaming engine flips the bits themselves, which forfeits the
//! count-domain fast path: the AND-count LUT tabulates *healthy* streams.
//! But a flip's effect on every downstream count is itself a pure function
//! of the flipped position: flipping bit `j` of pixel `p`'s stream changes
//! `count(pixel(p) ∧ weight(k, t))` by `±weight_bit(k, t, j)` — `+1` when
//! the healthy bit was 0, `−1` when it was 1, and only where the weight
//! stream has a 1 at `j`. So the engine can read healthy counts from the
//! LUT and add the flipped bits' **weight-plane rows** instead of touching
//! any stream bits.
//!
//! Both paths draw their flipped positions from one sampler, [`flips`]:
//! a geometric gap sampler seeded from `(seed, image_index, pixel)`, so the
//! flip set is a pure function of the image *index*, byte-identical for
//! any `SCNN_THREADS`. The streaming reference flips exactly those bits,
//! and the count path adds exactly their plane rows, so the two agree bit
//! for bit (checked by the oracle harness in `tests/oracle.rs`).
//!
//! [`CountFaultPlan`] precomputes, per stream-bit position `j` and tap
//! `t`, the per-kernel weight-bit indicator rows as one split row
//! (`[pos lanes | neg lanes]`, the layout of every
//! [`LevelCountTable`](crate::counts::LevelCountTable) row). Per image,
//! [`CountFaultPlan::image_faults`] collects each pixel's flip positions
//! into a compact flip list. A `(pixel, tap)` leaf whose pixel has flips
//! is a copy of the table row that [`ImageFaults::apply`] perturbs by its
//! flips' plane rows; a flip-free pixel's leaves stay the table rows
//! themselves. The plane is a few hundred kilobytes and stays cache-hot
//! across the whole image, where a materialized per-pixel delta block
//! would stream megabytes through memory for exactly one use per entry.
//!
//! Lane safety: [`ImageFaults::apply`] accumulates a pixel's `0→1` flips
//! (count grows) before its `1→0` flips (count shrinks). Each add keeps a
//! lane at most `healthy + plus ≤ 2N ≤ 65534`, so it never wraps; each
//! subtract then steps the lane down toward the final faulted count,
//! which is a true AND-count and hence non-negative, so every
//! intermediate stays `≥ 0`.

use crate::arena::StreamArena;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Deterministic per-(seed, image, pixel) RNG seed: a SplitMix64-style
/// finalizer over the three coordinates, so neighbouring images and
/// pixels get uncorrelated flip sets while any thread assignment sees the
/// same bytes.
fn fault_seed(seed: u64, image: u64, pixel: u64) -> u64 {
    let mut z = seed
        ^ image.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ pixel.wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The flipped bit positions of one pixel stream of `n` bits, ascending,
/// seeded from `(seed, image, pixel)`.
///
/// Geometric skip-sampling: each draw is the gap to the next flipped bit
/// (`P(gap = g) = (1 − p)^g · p`, the inverse-CDF form), the same
/// Bernoulli(p) flip distribution as one draw per bit in O(expected flips).
/// `ln_keep` is `ln(1 − p)`, computed via `ln_1p` so denormally small rates
/// don't round it to 0 (`−∞` when `p == 1`: every gap is 0).
pub(crate) fn flips(
    seed: u64,
    image: u64,
    pixel: u64,
    n: usize,
    ln_keep: f64,
) -> impl Iterator<Item = usize> {
    let mut rng = StdRng::seed_from_u64(fault_seed(seed, image, pixel));
    let mut j = 0usize;
    std::iter::from_fn(move || {
        let u: f64 = rng.gen();
        let gap = ((1.0 - u).ln() / ln_keep).floor();
        if gap >= (n - j) as f64 {
            return None;
        }
        j += gap as usize + 1;
        Some(j - 1)
    })
}

/// Per-engine precomputation for count-domain bit-error injection; built
/// at engine construction alongside the count table.
#[derive(Debug, Clone)]
pub(crate) struct CountFaultPlan {
    seed: u64,
    n: usize,
    taps: usize,
    lanes: usize,
    /// `ln(1 − ber)`, the `ln_keep` of [`flips`].
    ln_keep: f64,
    /// The comparator source sequence: bit `j` of a level-`L` pixel stream
    /// is `pixel_seq[j] < L`, which decides each flip's sign.
    pixel_seq: Vec<u64>,
    /// Per `(stream bit j, tap t)`: per-kernel weight-bit indicator rows
    /// (lane `k` is 1 where kernel `k`'s weight stream has a 1 at `j`),
    /// the positive-weight row then the negative-weight row, laid out
    /// `(j · taps + t) · 2 · lanes` so one flip touches one contiguous
    /// row pair.
    plane: Vec<u16>,
}

impl CountFaultPlan {
    /// Precomputes the weight bit planes; arguments mirror
    /// [`LevelCountTable::build`](crate::counts::LevelCountTable::build)
    /// plus the fault parameters.
    pub(crate) fn build(
        ber: f64,
        seed: u64,
        pixel_seq: &[u64],
        weight_streams: &StreamArena,
        weight_neg: &[bool],
        taps: usize,
        lanes: usize,
    ) -> Self {
        let n = pixel_seq.len();
        let mut plane = vec![0u16; n * taps * 2 * lanes];
        for k in 0..lanes {
            for t in 0..taps {
                let idx = k * taps + t;
                let words = weight_streams.stream(idx);
                let half = usize::from(weight_neg[idx]) * lanes;
                for j in 0..n {
                    if (words[j / 64] >> (j % 64)) & 1 == 1 {
                        plane[(j * taps + t) * 2 * lanes + half + k] = 1;
                    }
                }
            }
        }
        Self { seed, n, taps, lanes, ln_keep: (-ber).ln_1p(), pixel_seq: pixel_seq.to_vec(), plane }
    }

    /// Collects this image's flip set (each pixel's [`flips`]) into a
    /// per-pixel flip list, `0→1` flips first.
    ///
    /// `levels` holds one quantized comparator level per pixel — the same
    /// values the LUT forward reads its table rows with.
    pub(crate) fn image_faults(&self, levels: &[usize], image_index: u64) -> ImageFaults<'_> {
        let mut starts = Vec::with_capacity(levels.len() + 1);
        starts.push(0u32);
        let mut splits = Vec::with_capacity(levels.len());
        let mut bits: Vec<u16> = Vec::new();
        let (mut adds, mut subs): (Vec<u16>, Vec<u16>) = (Vec::new(), Vec::new());
        for (p, &level) in levels.iter().enumerate() {
            adds.clear();
            subs.clear();
            for j in flips(self.seed, image_index, p as u64, self.n, self.ln_keep) {
                // A healthy 1 flips to 0 (counts shrink where the weight
                // samples bit j), a healthy 0 flips to 1 (counts grow).
                if self.pixel_seq[j] < level as u64 {
                    subs.push(j as u16);
                } else {
                    adds.push(j as u16);
                }
            }
            bits.extend_from_slice(&adds);
            splits.push(bits.len() as u32);
            bits.extend_from_slice(&subs);
            starts.push(bits.len() as u32);
        }
        let flips = bits.len() as u64;
        ImageFaults { plan: self, starts, splits, bits, flips }
    }
}

/// One image's sampled flip set: per pixel, the flipped stream-bit
/// positions (`0→1` flips first, then `1→0` — the order
/// [`apply`](Self::apply)'s lane-safety argument needs), resolved against
/// the plan's cache-hot weight planes per perturbed leaf.
#[derive(Debug)]
pub(crate) struct ImageFaults<'a> {
    plan: &'a CountFaultPlan,
    /// Per pixel: start offset of its flips in `bits` (one trailing end).
    starts: Vec<u32>,
    /// Per pixel: offset where its `1→0` flips begin.
    splits: Vec<u32>,
    /// Flipped bit positions, grouped per pixel.
    bits: Vec<u16>,
    /// Total flips sampled (the `fault/injected` counter's increment).
    pub(crate) flips: u64,
}

impl ImageFaults<'_> {
    /// Whether pixel `pixel` has any flipped bit — only then do its leaves
    /// need a perturbed copy of the table row.
    #[inline]
    pub(crate) fn flipped(&self, pixel: usize) -> bool {
        self.starts[pixel] != self.starts[pixel + 1]
    }

    /// Perturbs a copy of the `(pixel, tap)` split row in place by the
    /// pixel's flips. A pixel without flips leaves it unchanged.
    #[inline]
    pub(crate) fn apply(&self, pixel: usize, tap: usize, row: &mut [u16]) {
        let start = self.starts[pixel] as usize;
        let split = self.splits[pixel] as usize;
        let end = self.starts[pixel + 1] as usize;
        let width = 2 * self.plan.lanes;
        let plane =
            |j: u16| &self.plan.plane[(j as usize * self.plan.taps + tap) * width..][..width];
        for &j in &self.bits[start..split] {
            for (c, &d) in row.iter_mut().zip(plane(j)) {
                *c = c.wrapping_add(d);
            }
        }
        for &j in &self.bits[split..end] {
            for (c, &d) in row.iter_mut().zip(plane(j)) {
                *c = c.wrapping_sub(d);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counts::LevelCountTable;
    use crate::stochastic::SourceKind;

    /// A small conv-like fixture: `taps` weight streams per kernel lane.
    fn fixture(
        bits: u32,
        taps: usize,
        lanes: usize,
    ) -> (Vec<u64>, StreamArena, Vec<bool>, LevelCountTable) {
        let n = 1usize << bits;
        let pixel_seq = SourceKind::Ramp.sequence(bits, n, 1).unwrap();
        let weight_seq = SourceKind::Sobol2.sequence(bits, n, 7).unwrap();
        let mut weights = StreamArena::new(taps * lanes, n).unwrap();
        let mut neg = vec![false; taps * lanes];
        for (i, sign) in neg.iter_mut().enumerate() {
            weights.write_from_levels(i, &weight_seq, (i as u64 * 3 + 1) % (n as u64));
            *sign = i % 4 == 2;
        }
        let table = LevelCountTable::build(&pixel_seq, &weights, &neg, taps, lanes).unwrap();
        (pixel_seq, weights, neg, table)
    }

    #[test]
    fn deltas_equal_counts_of_literally_flipped_streams() {
        // The plan's perturbed counts must equal popcount(flipped ∧ weight)
        // exactly, for every (pixel, tap, kernel) — the defining identity
        // of the count-domain model.
        let (bits, taps, lanes) = (5u32, 3usize, 6usize);
        let n = 1usize << bits;
        let (pixel_seq, weights, neg, table) = fixture(bits, taps, lanes);
        let (ber, seed) = (0.2f64, 99u64);
        let plan = CountFaultPlan::build(ber, seed, &pixel_seq, &weights, &neg, taps, lanes);
        // Pretend a `taps`-pixel image where window tap t reads pixel t.
        let levels: Vec<usize> = (0..taps).map(|p| (p * 11 + 3) % (n + 1)).collect();
        for image in 0..8u64 {
            let faults = plan.image_faults(&levels, image);
            for (p, &level) in levels.iter().enumerate() {
                // Literal flipped stream of pixel p.
                let flipped: Vec<usize> = flips(seed, image, p as u64, n, (-ber).ln_1p()).collect();
                let mut stream: Vec<bool> = (0..n).map(|j| pixel_seq[j] < level as u64).collect();
                for &j in &flipped {
                    stream[j] = !stream[j];
                }
                let mut row = table.row(level, p).to_vec();
                assert_eq!(faults.flipped(p), !flipped.is_empty());
                faults.apply(p, p, &mut row);
                let (pos, neg_row) = row.split_at(lanes);
                for k in 0..lanes {
                    let idx = k * taps + p;
                    let words = weights.stream(idx);
                    let want: u16 = (0..n)
                        .filter(|&j| stream[j] && (words[j / 64] >> (j % 64)) & 1 == 1)
                        .count() as u16;
                    let got = if neg[idx] { neg_row[k] } else { pos[k] };
                    assert_eq!(got, want, "image={image} pixel={p} kernel={k}");
                    // And the other tree's lane stays untouched.
                    let other = if neg[idx] { pos[k] } else { neg_row[k] };
                    assert_eq!(other, 0, "image={image} pixel={p} kernel={k}");
                }
            }
        }
    }

    #[test]
    fn flip_sets_depend_on_image_index_not_thread_or_order() {
        let (bits, taps, lanes) = (4u32, 3usize, 2usize);
        let (pixel_seq, weights, neg, _table) = fixture(bits, taps, lanes);
        let plan = CountFaultPlan::build(0.3, 5, &pixel_seq, &weights, &neg, taps, lanes);
        let levels = vec![3usize; taps];
        let a = plan.image_faults(&levels, 12);
        let b = plan.image_faults(&levels, 12);
        assert_eq!(a.starts, b.starts);
        assert_eq!(a.splits, b.splits);
        assert_eq!(a.bits, b.bits);
        assert_eq!(a.flips, b.flips);
        let c = plan.image_faults(&levels, 13);
        assert_ne!((c.flips, c.bits.clone()), (a.flips, a.bits.clone()));
    }

    #[test]
    fn flip_lists_group_adds_before_subs() {
        // apply()'s no-borrow argument needs every pixel's 0→1 flips ahead
        // of its 1→0 flips; check the layout against the comparator rule.
        let (bits, taps, lanes) = (6u32, 2usize, 1usize);
        let (pixel_seq, weights, neg, _table) = fixture(bits, taps, lanes);
        let plan = CountFaultPlan::build(0.4, 21, &pixel_seq, &weights, &neg, taps, lanes);
        let levels = vec![40usize, 9];
        let faults = plan.image_faults(&levels, 3);
        for (p, &level) in levels.iter().enumerate() {
            let (start, split, end) = (
                faults.starts[p] as usize,
                faults.splits[p] as usize,
                faults.starts[p + 1] as usize,
            );
            for &j in &faults.bits[start..split] {
                assert!(pixel_seq[j as usize] >= level as u64, "add flip must be a healthy 0");
            }
            for &j in &faults.bits[split..end] {
                assert!(pixel_seq[j as usize] < level as u64, "sub flip must be a healthy 1");
            }
        }
    }

    #[test]
    fn sampled_flip_rate_concentrates_near_ber() {
        // Per image the flip count is Binomial(pixels · N, ber): its mean
        // rate must sit near ber and its variance within [0.3, 3]× the
        // binomial variance.
        let (bits, taps, lanes) = (8u32, 2usize, 1usize);
        let n = 1usize << bits;
        let (pixel_seq, weights, neg, _table) = fixture(bits, taps, lanes);
        for ber in [0.02f64, 0.1, 0.5] {
            let plan = CountFaultPlan::build(ber, 11, &pixel_seq, &weights, &neg, taps, lanes);
            let levels = vec![7usize; 64]; // 64 "pixels" per image
            let flips: Vec<f64> =
                (0..40u64).map(|image| plan.image_faults(&levels, image).flips as f64).collect();
            let images = flips.len() as f64;
            let mean = flips.iter().sum::<f64>() / images;
            let var = flips.iter().map(|f| (f - mean) * (f - mean)).sum::<f64>() / (images - 1.0);
            let stream_bits = (levels.len() * n) as f64;
            let rate = mean / stream_bits;
            assert!((rate - ber).abs() < 0.15 * ber + 0.002, "ber={ber} observed {rate}");
            let expect_var = stream_bits * ber * (1.0 - ber);
            assert!(
                var > 0.3 * expect_var && var < 3.0 * expect_var,
                "ber={ber} flip variance {var} vs binomial {expect_var}"
            );
        }
    }

    #[test]
    fn ber_one_flips_every_bit() {
        let (bits, taps, lanes) = (4u32, 2usize, 1usize);
        let n = 1usize << bits;
        let (pixel_seq, weights, neg, _table) = fixture(bits, taps, lanes);
        let plan = CountFaultPlan::build(1.0, 3, &pixel_seq, &weights, &neg, taps, lanes);
        let levels = vec![5usize; taps];
        let faults = plan.image_faults(&levels, 0);
        assert_eq!(faults.flips, (taps * n) as u64);
    }
}
