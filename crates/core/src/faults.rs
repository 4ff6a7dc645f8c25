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
//! [`LevelCountTable`] row), stored `(j · taps + t)`, so one flip's rows
//! for all taps are one contiguous block. Per image,
//! [`CountFaultPlan::image_faults`] samples every pixel's flips and writes
//! each flipped pixel's **block**: a per-pixel block of all taps' rows,
//! copied from the table's [`level_rows`](LevelCountTable::level_rows)
//! for the pixel's level and perturbed by one long add or subtract of
//! each flip's plane block. Each `(pixel, tap)` leaf is read by exactly
//! one window, so building every perturbed row once per image costs no
//! more than building it per leaf, and the window loop gathers its leaves
//! from per-pixel blocks whether or not the pixel flipped; a flip-free
//! pixel's block is the table's own. The plane is a few hundred kilobytes
//! and stays cache-hot across the whole image.
//!
//! Lane safety: a flipped pixel's block takes its flips in stream order,
//! `0→1` flips (counts grow) and `1→0` flips (counts shrink) alike, with
//! wrapping `u16` adds and subtracts. Those commute mod 2¹⁶, so the order
//! cannot change the bits, and the final faulted counts are true
//! AND-counts in `[0, N]`, so the block ends exact even where an
//! intermediate lane wrapped.

use crate::arena::StreamArena;
use crate::counts::LevelCountTable;
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
    /// `(j · taps + t) · 2 · lanes` so one flip's rows for all taps are
    /// one contiguous block, in the tap order of
    /// [`LevelCountTable::level_rows`].
    plane: Vec<u16>,
}

impl CountFaultPlan {
    /// Precomputes the weight bit planes; arguments mirror
    /// [`LevelCountTable::build`] plus the fault parameters.
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

    /// Samples this image's flip set (each pixel's [`flips`]) and writes
    /// every flipped pixel's perturbed block of all taps' rows.
    ///
    /// `levels` holds one quantized comparator level per pixel — the same
    /// values the LUT forward reads its table rows with — and `table` is
    /// the engine's count table, whose [`level_rows`](LevelCountTable::level_rows)
    /// each block starts from.
    pub(crate) fn image_faults(
        &self,
        table: &LevelCountTable,
        levels: &[usize],
        image_index: u64,
    ) -> ImageFaults {
        // Every pixel's flips first, so the block arena is sized once.
        let mut ends = Vec::with_capacity(levels.len());
        let mut bits: Vec<u16> = Vec::new();
        let mut flipped = 0;
        for p in 0..levels.len() {
            let begin = bits.len();
            let pixel_flips = flips(self.seed, image_index, p as u64, self.n, self.ln_keep);
            bits.extend(pixel_flips.map(|j| j as u16));
            flipped += usize::from(bits.len() != begin);
            ends.push(bits.len());
        }
        let block = self.taps * 2 * self.lanes;
        let plane = |j: u16| &self.plane[usize::from(j) * block..][..block];
        let mut blocks = Vec::with_capacity(flipped * block);
        let mut starts = vec![None; levels.len()];
        let mut begin = 0;
        for ((start, &end), &level) in starts.iter_mut().zip(&ends).zip(levels) {
            let pixel_flips = &bits[begin..end];
            begin = end;
            let Some((&first, rest)) = pixel_flips.split_first() else {
                continue;
            };
            let at = blocks.len();
            *start = Some(at);
            // A healthy 0 flips to 1 (counts grow where the weight samples
            // bit j), a healthy 1 flips to 0 (counts shrink). The copy of
            // the level block takes the first flip on the way.
            let grows = |j: u16| self.pixel_seq[usize::from(j)] >= level as u64;
            let healthy = table.level_rows(level).iter().zip(plane(first));
            if grows(first) {
                blocks.extend(healthy.map(|(&c, &d)| c.wrapping_add(d)));
            } else {
                blocks.extend(healthy.map(|(&c, &d)| c.wrapping_sub(d)));
            }
            for &j in rest {
                let rows = blocks[at..].iter_mut().zip(plane(j));
                if grows(j) {
                    rows.for_each(|(c, &d)| *c = c.wrapping_add(d));
                } else {
                    rows.for_each(|(c, &d)| *c = c.wrapping_sub(d));
                }
            }
        }
        ImageFaults { block_len: block, starts, blocks, flips: bits.len() as u64 }
    }
}

/// One image's sampled bit errors in count form: per flipped pixel, its
/// block of all taps' perturbed split rows.
#[derive(Debug)]
pub(crate) struct ImageFaults {
    /// Counts per block: `taps · 2 · lanes`.
    block_len: usize,
    /// Per pixel: where its block starts in `blocks`, `None` if no bit of
    /// its stream flipped.
    starts: Vec<Option<usize>>,
    /// The flipped pixels' blocks, in pixel order.
    blocks: Vec<u16>,
    /// Total flips sampled (the `fault/injected` counter's increment).
    pub(crate) flips: u64,
}

impl ImageFaults {
    /// The block of all taps' rows that pixel `pixel`, at comparator
    /// level `level`, feeds its windows, laid out like
    /// [`LevelCountTable::level_rows`]: its perturbed block, or, when no
    /// bit of its stream flipped, the table's level block in place.
    #[inline]
    pub(crate) fn block<'a>(
        &'a self,
        table: &'a LevelCountTable,
        pixel: usize,
        level: usize,
    ) -> &'a [u16] {
        match self.starts[pixel] {
            Some(start) => &self.blocks[start..][..self.block_len],
            None => table.level_rows(level),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    /// Checks every tap's row of every pixel's block against
    /// `popcount(flipped ∧ weight)` of the literally flipped stream; a
    /// flip-free pixel has no block of its own.
    fn assert_blocks_count_flipped_streams(
        plan: &CountFaultPlan,
        table: &LevelCountTable,
        weights: &StreamArena,
        neg: &[bool],
        levels: &[usize],
        image: u64,
    ) {
        let (n, taps, lanes) = (plan.n, plan.taps, plan.lanes);
        let faults = plan.image_faults(table, levels, image);
        for (p, &level) in levels.iter().enumerate() {
            let flipped: Vec<usize> = flips(plan.seed, image, p as u64, n, plan.ln_keep).collect();
            let mut stream: Vec<bool> = (0..n).map(|j| plan.pixel_seq[j] < level as u64).collect();
            for &j in &flipped {
                stream[j] = !stream[j];
            }
            let block = faults.block(table, p, level);
            let aliased = std::ptr::eq(block, table.level_rows(level));
            assert_eq!(aliased, flipped.is_empty(), "image={image} pixel={p}");
            assert_eq!(block.len(), taps * 2 * lanes);
            for (t, row) in block.chunks_exact(2 * lanes).enumerate() {
                let (pos, neg_row) = row.split_at(lanes);
                for k in 0..lanes {
                    let idx = k * taps + t;
                    let words = weights.stream(idx);
                    let want: u16 = (0..n)
                        .filter(|&j| stream[j] && (words[j / 64] >> (j % 64)) & 1 == 1)
                        .count() as u16;
                    let (got, other) =
                        if neg[idx] { (neg_row[k], pos[k]) } else { (pos[k], neg_row[k]) };
                    assert_eq!(got, want, "image={image} pixel={p} tap={t} kernel={k}");
                    // And the other tree's lane stays untouched.
                    assert_eq!(other, 0, "image={image} pixel={p} tap={t} kernel={k}");
                }
            }
        }
    }

    #[test]
    fn deltas_equal_counts_of_literally_flipped_streams() {
        // Every tap's perturbed count must equal popcount(flipped ∧ weight)
        // exactly, for every (pixel, tap, kernel) — the defining identity
        // of the count-domain model.
        let (bits, taps, lanes) = (5u32, 3usize, 6usize);
        let n = 1usize << bits;
        let (pixel_seq, weights, neg, table) = fixture(bits, taps, lanes);
        let (ber, seed) = (0.2f64, 99u64);
        let plan = CountFaultPlan::build(ber, seed, &pixel_seq, &weights, &neg, taps, lanes);
        // Levels 0 and n included: all-zero and all-one healthy streams.
        let levels: Vec<usize> = (0..7).map(|p| (p * 11 + 3) % (n + 1)).chain([0, n]).collect();
        for image in 0..8u64 {
            assert_blocks_count_flipped_streams(&plan, &table, &weights, &neg, &levels, image);
        }
    }

    #[test]
    fn ber_one_flips_every_bit() {
        let (bits, taps, lanes) = (4u32, 2usize, 3usize);
        let n = 1usize << bits;
        let (pixel_seq, weights, neg, table) = fixture(bits, taps, lanes);
        let plan = CountFaultPlan::build(1.0, 3, &pixel_seq, &weights, &neg, taps, lanes);
        let levels: Vec<usize> = (0..=n).collect();
        let faults = plan.image_faults(&table, &levels, 0);
        assert_eq!(faults.flips, (levels.len() * n) as u64);
        // Every pixel's stream is complemented, so every pixel has a block
        // of its own.
        assert!(faults.starts.iter().all(Option::is_some));
        assert_blocks_count_flipped_streams(&plan, &table, &weights, &neg, &levels, 0);
    }

    #[test]
    fn flip_free_cells_alias_the_table_block() {
        // A pixel without flips gets no block of its own: the forward reads
        // the table's level block in place. At a small rate most pixels are
        // flip-free, and each flipped pixel's block is a copy in the arena.
        let (bits, taps, lanes) = (6u32, 3usize, 4usize);
        let n = 1usize << bits;
        let (pixel_seq, weights, neg, table) = fixture(bits, taps, lanes);
        let plan = CountFaultPlan::build(2e-3, 17, &pixel_seq, &weights, &neg, taps, lanes);
        let levels: Vec<usize> = (0..200).map(|p| p % (n + 1)).collect();
        let image = 4;
        let faults = plan.image_faults(&table, &levels, image);
        let mut flipped = 0;
        for (p, &level) in levels.iter().enumerate() {
            let block = faults.block(&table, p, level);
            if flips(plan.seed, image, p as u64, n, plan.ln_keep).next().is_none() {
                assert!(std::ptr::eq(block, table.level_rows(level)), "pixel={p} aliases");
            } else {
                flipped += 1;
                assert!(faults.blocks.as_ptr_range().contains(&block.as_ptr()), "pixel={p}");
            }
        }
        assert!(flipped > 0 && flipped < levels.len(), "{flipped} of {} flipped", levels.len());
        assert_eq!(faults.blocks.len(), flipped * taps * 2 * lanes, "one block per flipped pixel");
    }

    #[test]
    fn flip_sets_depend_on_image_index_not_thread_or_order() {
        let (bits, taps, lanes) = (4u32, 3usize, 2usize);
        let (pixel_seq, weights, neg, table) = fixture(bits, taps, lanes);
        let plan = CountFaultPlan::build(0.3, 5, &pixel_seq, &weights, &neg, taps, lanes);
        let levels = vec![3usize; taps];
        let a = plan.image_faults(&table, &levels, 12);
        let b = plan.image_faults(&table, &levels, 12);
        assert_eq!(a.starts, b.starts);
        assert_eq!(a.blocks, b.blocks);
        assert_eq!(a.flips, b.flips);
        let c = plan.image_faults(&table, &levels, 13);
        assert_ne!((c.flips, c.blocks.clone()), (a.flips, a.blocks.clone()));
    }

    #[test]
    fn sampled_flip_rate_concentrates_near_ber() {
        // Per image the flip count is Binomial(pixels · N, ber): its mean
        // rate must sit near ber and its variance within [0.3, 3]× the
        // binomial variance.
        let (bits, taps, lanes) = (8u32, 2usize, 1usize);
        let n = 1usize << bits;
        let (pixel_seq, weights, neg, table) = fixture(bits, taps, lanes);
        for ber in [0.02f64, 0.1, 0.5] {
            let plan = CountFaultPlan::build(ber, 11, &pixel_seq, &weights, &neg, taps, lanes);
            let levels = vec![7usize; 64]; // 64 "pixels" per image
            let flips: Vec<f64> = (0..40u64)
                .map(|image| plan.image_faults(&table, &levels, image).flips as f64)
                .collect();
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
}
