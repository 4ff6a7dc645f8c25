use crate::arena::{and_count, mux_words, StreamArena};
use crate::baseline::{check_image, ternary, window_taps, FirstLayer, KernelBank, IMAGE_SIDE};
use crate::counts::{
    live_fold_node, mux_route_masks, split_by_sign, table_fits, LaneTree, LevelCountTable,
    LevelStreamCache,
};
use crate::faults::{flips, CountFaultPlan};
use crate::scenario::{HeadKind, ScenarioSpec};
use crate::Error;
use scnn_bitstream::Precision;
use scnn_nn::layers::Conv2d;
use scnn_nn::quant::{pixel_level, weight_level};
use scnn_rng::{Lfsr, NumberSource, Ramp, Sobol2, TrueRandom, VanDerCorput};
use scnn_sim::{FaultSite, TffAdderTree};

/// Salt XORed into the scenario seed for the shared weight SNG sequence
/// (conv and dense engines alike).
pub(crate) const WEIGHT_SEED_SALT: u64 = 0x77_5eed;

/// Salt XORed into the scenario seed for the pixel/input SNG sequence.
pub(crate) const INPUT_SEED_SALT: u64 = 0x1234;

/// Which number source drives a comparator SNG bank in the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum SourceKind {
    /// Linear ramp — the analog-to-stochastic converter model (paper §IV-A).
    Ramp,
    /// Van der Corput (Sobol' dimension 1) low-discrepancy sequence.
    VanDerCorput,
    /// Sobol' dimension 2 low-discrepancy sequence.
    Sobol2,
    /// Maximal-length LFSR (prior-work configuration).
    Lfsr,
    /// Seeded uniform random values.
    Random,
}

impl SourceKind {
    /// Materializes one period of source values (`len` draws of `bits` bits).
    ///
    /// # Errors
    ///
    /// Propagates construction errors for unsupported widths.
    pub fn sequence(self, bits: u32, len: usize, seed: u64) -> Result<Vec<u64>, Error> {
        let mut src: Box<dyn NumberSource> = match self {
            SourceKind::Ramp => Box::new(Ramp::new(bits)?),
            SourceKind::VanDerCorput => Box::new(VanDerCorput::new(bits)?),
            SourceKind::Sobol2 => Box::new(Sobol2::new(bits)?),
            SourceKind::Lfsr => {
                let width = bits.max(3);
                let mask = (1u64 << width) - 1;
                let lfsr_seed = (seed & mask).max(1);
                Box::new(Lfsr::new(width, lfsr_seed)?)
            }
            SourceKind::Random => Box::new(TrueRandom::new(bits, seed)?),
        };
        let scale_shift = src.width() - bits;
        Ok((0..len).map(|_| src.next_value() >> scale_shift).collect())
    }
}

/// Which scaled-adder tree reduces the dot products.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AdderKind {
    /// The proposed TFF adder tree (§III) — exact counting, no selects.
    Tff,
    /// The conventional MUX adder tree with LFSR select streams — the
    /// prior-work ("Old SC") reducer.
    Mux,
}

/// The stochastic first-layer convolution engine (paper Fig. 3, §IV-B).
///
/// Per image: each pixel is converted once to a stream of `N = 2^b` bits
/// (shared by all windows covering it, as in the 784-unit parallel
/// hardware); each kernel weight is split into positive/negative unipolar
/// magnitudes and converted once by the shared weight SNG bank; every
/// window evaluates 25 AND-gate multiplications feeding two scaled-adder
/// trees (positive and negative), two counters, and a comparator that
/// implements the ternary sign activation with the trained bias folded in
/// as a count offset.
///
/// The TFF configuration uses the counting closed form of the TFF adder
/// (§III) as a fast path — bit-exact with the sequential hardware model,
/// which the test-suite cross-validates against `scnn-sim`'s reference
/// tree. The MUX configuration counts too: its select streams are fixed
/// per engine, so each cycle routes exactly one tap to the root, and the
/// root count is the sum of each tap's AND count restricted to the cycles
/// its root path selects ([`mux_route_masks`]). The bit-parallel MUX
/// simulation (words of 64 cycles) stays as its streaming reference.
///
/// # The level-indexed AND-count table
///
/// Against the fixed shared `pixel_seq`, a comparator SNG stream can take
/// at most `2^b + 1` distinct bit patterns, one per input level, and the
/// TFF datapath consumes streams *only* through `count(pixel ∧ weight)`.
/// So the whole per-tap multiply-and-count collapses to a
/// [`LevelCountTable`](crate::counts::LevelCountTable) precomputed at
/// construction, its rows already split by weight sign.
/// [`forward_image`](FirstLayer::forward_image) quantizes each pixel once
/// and, per window, folds the positive and negative trees of all `K`
/// kernels as one [`LaneTree`](crate::counts::LaneTree) over the table
/// rows, read in place — bit-exact with
/// [`forward_image_streaming`](Self::forward_image_streaming) (checked by
/// the oracle harness in `tests/oracle.rs`). Faults stay on this path: bit
/// errors become per-(pixel, tap) count deltas on a copy of the row (the
/// streaming path flips the same stream bits for the same image index)
/// and stuck-at sites leaf/fold overrides (see [`ScenarioSpec::fault`]). For
/// the MUX tree the table is built over route-masked weight streams and
/// the tree reduces by a plain lane sum instead of the fold. The streaming
/// simulation remains the reference model for both adders and the
/// ground-truth fault reference.
#[derive(Debug, Clone)]
pub struct StochasticConvLayer {
    bank: KernelBank,
    precision: Precision,
    spec: ScenarioSpec,
    /// Stream length N.
    n: usize,
    /// Padded tap count (next power of two ≥ ksize²) — the tree width.
    padded: usize,
    /// Magnitude streams per (kernel, tap), never route-masked: they feed
    /// [`weight_stream`](Self::weight_stream) and the activity model.
    weight_streams: StreamArena,
    /// Sign of each (kernel, tap) weight.
    weight_neg: Vec<bool>,
    /// Pixel SNG sequence (the hardware's global ramp / shared LFSR),
    /// converted per distinct level on the streaming paths.
    pixel_seq: Vec<u64>,
    /// Select streams for the MUX trees (2·(padded−1) streams), empty for TFF.
    select_streams: StreamArena,
    /// Level-indexed AND-count table, over route-masked weights for the
    /// MUX adder; `None` when the streaming path must run (oversized
    /// table, 15- and 16-bit streams).
    lut: Option<LevelCountTable>,
    /// Count-domain bit-error plan, built when the table is live and
    /// [`ScenarioSpec::fault`] carries a positive bit-error rate; per image
    /// it samples the flip set from `(seed, image_index, pixel)` and
    /// perturbs the table rows exactly as literal stream flips would.
    fault_plan: Option<CountFaultPlan>,
    /// A stuck AND-gate line on the count path: its tap and the split row
    /// it drives — `N` routed by each kernel's weight sign when stuck at
    /// 1, all zero when stuck at 0.
    stuck_leaf: Option<(usize, Vec<u16>)>,
}

impl StochasticConvLayer {
    /// Builds the engine from a trained first-layer convolution, configured
    /// by `spec` (precision, SNG sources, adder, S0 policy, τ, fault model
    /// and seed).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] unless the head kind is
    /// [`Stochastic`](HeadKind::Stochastic), and for non-first-layer
    /// convolution shapes, unsupported precisions or invalid fault models.
    pub fn from_conv(conv: &Conv2d, spec: &ScenarioSpec) -> Result<Self, Error> {
        if spec.head != HeadKind::Stochastic {
            return Err(Error::config(format!(
                "a stochastic engine needs a stochastic scenario, got {:?}",
                spec.head
            )));
        }
        let (spec, precision) = (*spec, spec.precision()?);
        let bank = KernelBank::from_conv(conv)?;
        let bits = precision.bits();
        let n = precision.stream_len();
        let ksq = bank.ksize * bank.ksize;
        let padded = ksq.next_power_of_two();

        // Fault-model validation: a malformed rate is rejected up front,
        // and a stuck-at site must name real hardware — a window tap or a
        // live node of the TFF fold (the MUX tree has no count-domain
        // nodes to pin).
        spec.fault.validate().map_err(|e| Error::config(e.to_string()))?;
        if let Some((site, _)) = spec.fault.stuck() {
            if spec.adder != AdderKind::Tff {
                return Err(Error::config("stuck-at fault models target the TFF adder datapath"));
            }
            match site {
                FaultSite::LutTap { tap } if tap as usize >= ksq => {
                    return Err(Error::config(format!(
                        "stuck-at tap {tap} out of range (window has {ksq} taps)"
                    )));
                }
                FaultSite::AdderNode { node } if !live_fold_node(ksq, node as usize) => {
                    return Err(Error::config(format!(
                        "stuck-at node {node} is not a live node of the {ksq}-tap TFF fold"
                    )));
                }
                _ => {}
            }
            if scnn_obs::metrics_enabled() {
                scnn_obs::registry().counter("fault/sites").add(1);
            }
        }

        // Shared weight SNG bank: one sequence, one comparator per weight.
        let weight_seq = spec.weight_source.sequence(bits, n, spec.seed ^ WEIGHT_SEED_SALT)?;
        let mut weight_streams = StreamArena::new(bank.kernels * ksq, n)?;
        let mut weight_neg = vec![false; bank.kernels * ksq];
        for k in 0..bank.kernels {
            for t in 0..ksq {
                let (level, neg) = weight_level(bank.weight(k, t), bits);
                weight_streams.write_from_levels(k * ksq + t, &weight_seq, level);
                weight_neg[k * ksq + t] = neg;
            }
        }

        // Pixel SNG sequence (regenerated identically for every image —
        // the hardware's global ramp / shared LFSR).
        let pixel_seq = spec.pixel_source.sequence(bits, n, spec.seed ^ INPUT_SEED_SALT)?;

        // MUX select streams: one LFSR-driven 1/2 stream per tree node,
        // shared across all 784 engines (they run in lock-step).
        let select_streams = if spec.adder == AdderKind::Mux {
            let nodes = 2 * (padded - 1);
            let mut arena = StreamArena::new(nodes, n)?;
            for node in 0..nodes {
                let seq = SourceKind::Lfsr.sequence(
                    bits,
                    n,
                    spec.seed ^ (node as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
                )?;
                arena.write_from_levels(node, &seq, 1u64 << (bits - 1));
            }
            arena
        } else {
            StreamArena::new(0, n)?
        };

        // The weights the count table sees. A MUX tree passes each tap to
        // its root only in the cycles its select path picks, so each
        // weight stream is masked with its sign tree's route mask for that
        // tap; the TFF tree counts every cycle.
        let masked;
        let counted_weights = if spec.adder == AdderKind::Mux {
            let routes = [
                mux_route_masks(&select_streams, 0, padded)?,
                mux_route_masks(&select_streams, padded - 1, padded)?,
            ];
            let mut arena = weight_streams.clone();
            for (idx, &neg) in weight_neg.iter().enumerate() {
                let route = routes[usize::from(neg)].stream(idx % ksq);
                for (w, &m) in arena.stream_mut(idx).iter_mut().zip(route) {
                    *w &= m;
                }
            }
            masked = arena;
            &masked
        } else {
            &weight_streams
        };

        // Level-indexed AND-count table (see the type-level docs).
        // `table_fits` gates the memory budget and the 16-bit lane
        // arithmetic; one MUX tree's route masks partition the N cycles,
        // so its root sums stay ≤ N as well. Fault injection does not
        // force streaming: bit errors become count deltas (the plan below)
        // and stuck-at sites become leaf/fold overrides.
        let lut = if table_fits(n, ksq, bank.kernels) {
            let _build = scnn_obs::span("conv/lut_build");
            Some(LevelCountTable::build(
                &pixel_seq,
                counted_weights,
                &weight_neg,
                ksq,
                bank.kernels,
            )?)
        } else {
            None
        };

        // Count-domain bit-error plan: per-(stream bit, tap) weight bit
        // planes of the counted (for MUX, route-masked) weights, sampled
        // per (image index, pixel) at forward time.
        let fault_plan = match (&lut, spec.fault.bit_error_rate()) {
            (Some(_), ber) if ber > 0.0 => Some(CountFaultPlan::build(
                ber,
                spec.seed,
                &pixel_seq,
                counted_weights,
                &weight_neg,
                ksq,
                bank.kernels,
            )),
            _ => None,
        };
        let stuck_leaf = match (&lut, spec.fault.stuck()) {
            (Some(_), Some((FaultSite::LutTap { tap }, value))) => {
                let count = if value { n as u16 } else { 0 };
                Some((tap as usize, split_by_sign(&weight_neg, ksq, tap as usize, count)))
            }
            _ => None,
        };

        Ok(Self {
            bank,
            precision,
            spec,
            n,
            padded,
            weight_streams,
            weight_neg,
            pixel_seq,
            select_streams,
            lut,
            fault_plan,
            stuck_leaf,
        })
    }

    /// The operating precision.
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// The scenario the engine was built from.
    pub fn spec(&self) -> &ScenarioSpec {
        &self.spec
    }

    /// Stream length `N = 2^b` (clock cycles per frame window).
    pub fn stream_len(&self) -> usize {
        self.n
    }

    /// Number of taps per kernel window (`ksize²`).
    pub fn taps(&self) -> usize {
        self.bank.ksize * self.bank.ksize
    }

    /// Packed words of the magnitude stream for kernel `k`, tap `t`
    /// (exposed for the hardware activity-factor measurements in `scnn-hw`).
    ///
    /// # Panics
    ///
    /// Panics if `k` or `t` is out of range.
    pub fn weight_stream(&self, k: usize, t: usize) -> &[u64] {
        self.weight_streams.stream(k * self.taps() + t)
    }

    /// Whether the weight at kernel `k`, tap `t` feeds the negative tree.
    ///
    /// # Panics
    ///
    /// Panics if `k` or `t` is out of range.
    pub fn weight_is_negative(&self, k: usize, t: usize) -> bool {
        self.weight_neg[k * self.taps() + t]
    }

    /// Converts the image to its per-pixel streams — step one of the
    /// pipeline, exposed for tests, benches and the activity model. Under
    /// bit errors each pixel's stream is flipped at the positions
    /// `(seed, image_index, pixel)` draws, the flip set the count path
    /// applies as weight-plane deltas for the same index.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] if the image has the wrong size.
    pub fn pixel_streams(&self, image: &[f32], image_index: u64) -> Result<StreamArena, Error> {
        check_image(image)?;
        let _convert = scnn_obs::span("conv/sng_convert");
        let bits = self.precision.bits();
        let mut arena = StreamArena::new(image.len(), self.n)?;
        // One comparator-SNG conversion per *distinct* level (≤ 2^b + 1)
        // instead of one per pixel: against the fixed shared `pixel_seq`
        // the stream is a pure function of the level, so equal-level pixels
        // share bit patterns and the rest is a word copy.
        let mut levels = LevelStreamCache::new(&self.pixel_seq)?;
        for (p, &v) in image.iter().enumerate() {
            let level = pixel_level(v, bits) as usize;
            arena.stream_mut(p).copy_from_slice(levels.words(level));
        }
        let ber = self.spec.fault.bit_error_rate();
        if ber > 0.0 {
            let ln_keep = (-ber).ln_1p();
            for p in 0..image.len() {
                let stream = arena.stream_mut(p);
                for j in flips(self.spec.seed, image_index, p as u64, self.n, ln_keep) {
                    stream[j / 64] ^= 1u64 << (j % 64);
                }
            }
        }
        Ok(arena)
    }

    /// Whether the level-indexed AND-count fast path is active (table
    /// within budget, stream counts within the 16-bit lane ceiling) — for
    /// both adders, faulted configurations included: bit errors run as
    /// count deltas, stuck-at sites as leaf/fold overrides.
    pub fn uses_count_table(&self) -> bool {
        self.lut.is_some()
    }

    /// The count-domain fast path: quantize each pixel once and give every
    /// cell of the padded canvas a block of all taps' split rows — the
    /// table's block for the pixel's level, level 0's zero block for
    /// padding, or, under bit errors, the pixel's perturbed block, written
    /// once per image. Each window then gathers tap `t`'s leaf from its
    /// cell's block (one gather for every fault model; a stuck AND line
    /// overrides its tap), and reduces the leaves as one split-row tree for
    /// all kernels: a TFF fold, or a plain sum of the route-masked MUX
    /// counts. All kernels' comparators run at once, branch-free, into a
    /// buffer of the image row's windows, stored into the `[kernel][pixel]`
    /// output once per row. `image_index` seeds the bit-error flip set,
    /// keeping faulted results byte-identical for any thread count or
    /// batch order.
    fn forward_image_lut(
        &self,
        lut: &LevelCountTable,
        image: &[f32],
        image_index: u64,
    ) -> Result<Vec<f32>, Error> {
        check_image(image)?;
        let _forward = scnn_obs::span("conv/forward");
        if scnn_obs::metrics_enabled() {
            scnn_obs::registry().counter("conv/images").add(1);
        }
        let bits = self.precision.bits();
        let lanes = self.bank.kernels;
        let width = 2 * lanes;
        let n_out = IMAGE_SIDE * IMAGE_SIDE;
        let levels: Vec<usize> = image.iter().map(|&v| pixel_level(v, bits) as usize).collect();
        // Per-image bit errors (seeded from the image index): each flipped
        // pixel's perturbed block of all taps' rows.
        let faults = self.fault_plan.as_ref().map(|p| p.image_faults(lut, &levels, image_index));
        // Each cell's block on a padded canvas, so every window reads its
        // taps at fixed offsets from its corner. A padding cell holds
        // level 0's block, the zero rows (a level-0 comparator stream has
        // no ones).
        let ksize = self.bank.ksize;
        let (side, pad) = (IMAGE_SIDE + ksize - 1, (ksize - 1) / 2);
        let mut cells = vec![lut.level_rows(0); side * side];
        for (iy, src) in levels.chunks_exact(IMAGE_SIDE).enumerate() {
            let row = &mut cells[(iy + pad) * side + pad..][..IMAGE_SIDE];
            for ((cell, &level), p) in row.iter_mut().zip(src).zip(iy * IMAGE_SIDE..) {
                *cell = match &faults {
                    Some(f) => f.block(lut, p, level),
                    None => lut.level_rows(level),
                };
            }
        }
        let tap_offsets: Vec<usize> =
            (0..ksize).flat_map(|ki| (0..ksize).map(move |kj| ki * side + kj)).collect();
        // MUX trees sum their route-masked counts; TFF trees fold.
        let mux = self.spec.adder == AdderKind::Mux;
        // A stuck TFF column pins one node of the positive tree (a
        // systematic defect: the same physical adder in every window).
        let stuck_node = match self.spec.fault.stuck() {
            Some((FaultSite::AdderNode { node }, value)) => {
                Some((node as usize, if value { self.n as u16 } else { 0 }))
            }
            _ => None,
        };
        if scnn_obs::metrics_enabled() {
            if let Some(f) = &faults {
                scnn_obs::registry().counter("fault/injected").add(f.flips);
            }
        }
        // Counter difference to scaled dot-product units. Both factors are
        // powers of two, so the one multiplier is exact.
        let (unit, tau) = (self.padded as f32 / self.n as f32, self.spec.soft_threshold);
        let mut out = vec![0.0f32; lanes * n_out];
        let ksq = ksize * ksize;
        let mut tree = LaneTree::new(ksq, lanes, self.spec.s0_policy, self.n)?;
        // The comparator outputs of one image row, `[window][kernel]`.
        let mut row_out = vec![0.0f32; IMAGE_SIDE * lanes];
        let _fold = scnn_obs::span("conv/fold");
        let mut leaves: Vec<&[u16]> = vec![&[]; ksq];
        for oy in 0..IMAGE_SIDE {
            for (ox, window_out) in row_out.chunks_exact_mut(lanes).enumerate() {
                let corner = oy * side + ox;
                for (t, (leaf, &offset)) in leaves.iter_mut().zip(&tap_offsets).enumerate() {
                    *leaf = &cells[corner + offset][t * width..][..width];
                }
                // A stuck AND-gate line overrides its tap's leaf, perturbed
                // or not, out-of-image taps included.
                if let Some((tap, row)) = &self.stuck_leaf {
                    leaves[*tap] = row;
                }
                let root = match stuck_node {
                    _ if mux => tree.sum(&leaves),
                    Some((node, value)) => tree.fold_stuck(&leaves, node, value),
                    None => tree.fold(&leaves),
                };
                let (pos, neg) = root.split_at(lanes);
                let lanes_in = pos.iter().zip(neg).zip(&self.bank.offsets);
                for (o, ((&p, &m), &offset)) in window_out.iter_mut().zip(lanes_in) {
                    *o = ternary((f32::from(p) - f32::from(m)) * unit + offset, tau);
                }
            }
            // One store per kernel and image row.
            for (k, plane) in out.chunks_exact_mut(n_out).enumerate() {
                let dst = &mut plane[oy * IMAGE_SIDE..][..IMAGE_SIDE];
                for (d, window_out) in dst.iter_mut().zip(row_out.chunks_exact(lanes)) {
                    *d = window_out[k];
                }
            }
        }
        Ok(out)
    }

    /// The bit-level streaming engine — the hardware reference model.
    ///
    /// [`forward_image_indexed`](FirstLayer::forward_image_indexed)
    /// dispatches here whenever the count-domain table is unavailable
    /// (oversized table, 15- and 16-bit streams); it stays public so
    /// benches and the oracle harness can compare the two paths on any
    /// configuration, bit for bit. For the MUX adder it ANDs every window's
    /// taps directly and folds the select streams over the products. Under
    /// [`FaultModel::BitError`](crate::FaultModel::BitError) this path
    /// flips literal stream bits ([`pixel_streams`](Self::pixel_streams))
    /// for image index 0, the convention of
    /// [`forward_image`](FirstLayer::forward_image).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] if the image has the wrong size.
    pub fn forward_image_streaming(&self, image: &[f32]) -> Result<Vec<f32>, Error> {
        self.forward_streaming(image, 0)
    }

    /// [`forward_image_streaming`](Self::forward_image_streaming) with the
    /// image index that seeds its bit-error flips.
    fn forward_streaming(&self, image: &[f32], image_index: u64) -> Result<Vec<f32>, Error> {
        check_image(image)?;
        let _forward = scnn_obs::span("conv/forward_streaming");
        if scnn_obs::metrics_enabled() {
            scnn_obs::registry().counter("conv/images").add(1);
        }
        let n_out = IMAGE_SIDE * IMAGE_SIDE;
        let ksq = self.bank.ksize * self.bank.ksize;
        let scale = self.padded as f32;
        let n_f = self.n as f32;
        let tree = TffAdderTree::new(ksq, self.spec.s0_policy)?;
        // Stuck-at site, mirrored from the LUT path (construction already
        // rejected stuck-at on the MUX adder, so only the TFF arm reads it).
        // A stuck TFF column pins one node of the positive tree.
        let stuck = self.spec.fault.stuck();
        let stuck_node = match stuck {
            Some((FaultSite::AdderNode { node }, value)) => {
                Some((node as usize, if value { self.n as u64 } else { 0 }))
            }
            _ => None,
        };
        let mut out = vec![0.0f32; self.bank.kernels * n_out];
        let w = self.weight_streams.words_per_stream();
        let mut scratch = vec![0u64; self.padded * w];
        let mut next = vec![0u64; (self.padded / 2).max(1) * w];
        let mut pos_counts = vec![0u64; self.padded];
        let mut neg_counts = vec![0u64; self.padded];
        let arena = self.pixel_streams(image, image_index)?;
        for k in 0..self.bank.kernels {
            for oy in 0..IMAGE_SIDE {
                for ox in 0..IMAGE_SIDE {
                    let (pos, neg) = match self.spec.adder {
                        AdderKind::Tff => {
                            pos_counts.fill(0);
                            neg_counts.fill(0);
                            for (t, px) in window_taps(self.bank.ksize, oy, ox) {
                                if let Some(p) = px {
                                    let idx = k * ksq + t;
                                    let c =
                                        and_count(arena.stream(p), self.weight_streams.stream(idx));
                                    if self.weight_neg[idx] {
                                        neg_counts[t] = c;
                                    } else {
                                        pos_counts[t] = c;
                                    }
                                }
                            }
                            // Stuck AND-gate line: override the tap's count
                            // (out-of-image taps included), routed by this
                            // kernel's weight sign — exactly the LUT path's
                            // split_by_sign leaf.
                            if let Some((FaultSite::LutTap { tap }, value)) = stuck {
                                let t = tap as usize;
                                pos_counts[t] = 0;
                                neg_counts[t] = 0;
                                if value {
                                    let c = self.n as u64;
                                    if self.weight_neg[k * ksq + t] {
                                        neg_counts[t] = c;
                                    } else {
                                        pos_counts[t] = c;
                                    }
                                }
                            }
                            (
                                tree.fold_padded(&mut pos_counts, stuck_node),
                                tree.fold_padded(&mut neg_counts, None),
                            )
                        }
                        AdderKind::Mux => {
                            let mut window = |tree| {
                                self.mux_window(&arena, k, oy, ox, &mut scratch, &mut next, tree)
                            };
                            (window(0), window(1))
                        }
                    };
                    // Counter difference, re-normalized to scaled dot-product
                    // units, plus the bias comparator offset.
                    let diff_norm = (pos as f32 - neg as f32) * scale / n_f;
                    let v = diff_norm + self.bank.offsets[k];
                    out[k * n_out + oy * IMAGE_SIDE + ox] = ternary(v, self.spec.soft_threshold);
                }
            }
        }
        Ok(out)
    }

    /// One window-kernel dot product via the MUX trees (bit-parallel).
    #[allow(clippy::too_many_arguments)]
    fn mux_window(
        &self,
        pixels: &StreamArena,
        k: usize,
        oy: usize,
        ox: usize,
        scratch: &mut [u64],
        next: &mut [u64],
        tree: usize, // 0 = positive, 1 = negative
    ) -> u64 {
        let w = self.weight_streams.words_per_stream();
        let ksq = self.bank.ksize * self.bank.ksize;
        scratch.fill(0);
        for (t, px) in window_taps(self.bank.ksize, oy, ox) {
            let idx = k * ksq + t;
            let is_neg = self.weight_neg[idx];
            if (tree == 1) != is_neg {
                continue;
            }
            if let Some(p) = px {
                let dst = &mut scratch[t * w..(t + 1) * w];
                for ((d, &a), &b) in
                    dst.iter_mut().zip(pixels.stream(p)).zip(self.weight_streams.stream(idx))
                {
                    *d = a & b;
                }
            }
        }
        // Fold the tree level by level (ping-pong between scratch and next).
        let mut width = self.padded;
        let mut node = (self.padded - 1) * tree;
        let mut cur: &mut [u64] = scratch;
        let mut nxt: &mut [u64] = next;
        while width > 1 {
            for i in 0..width / 2 {
                let sel = self.select_streams.stream(node);
                node += 1;
                let (a, b) =
                    (&cur[2 * i * w..(2 * i + 1) * w], &cur[(2 * i + 1) * w..(2 * i + 2) * w]);
                // Select 1 picks the first input, matching sim::MuxAdder's
                // convention of select picking y when 1 — orientation is
                // symmetric for a 1/2 select, so either is faithful.
                mux_words(&mut nxt[i * w..(i + 1) * w], a, b, sel);
            }
            std::mem::swap(&mut cur, &mut nxt);
            width /= 2;
        }
        cur[..w].iter().map(|x| u64::from(x.count_ones())).sum()
    }
}

impl FirstLayer for StochasticConvLayer {
    fn forward_image(&self, image: &[f32]) -> Result<Vec<f32>, Error> {
        self.forward_image_indexed(image, 0)
    }

    fn forward_image_indexed(&self, image: &[f32], image_index: u64) -> Result<Vec<f32>, Error> {
        match &self.lut {
            Some(lut) => self.forward_image_lut(lut, image, image_index),
            None => self.forward_streaming(image, image_index),
        }
    }

    fn kernels(&self) -> usize {
        self.bank.kernels
    }

    fn label(&self) -> String {
        self.spec.label()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::FloatConvLayer;
    use scnn_bitstream::BitStream;
    use scnn_nn::layers::Padding;
    use scnn_sim::{FaultModel, TffAdderTree};

    fn conv() -> Conv2d {
        Conv2d::new(1, 8, 5, Padding::Same, 5).unwrap()
    }

    fn test_image(seed: u64) -> Vec<f32> {
        (0..784).map(|i| (((i as u64).wrapping_mul(seed * 7 + 3) % 251) as f32) / 250.0).collect()
    }

    fn engine(spec: ScenarioSpec) -> StochasticConvLayer {
        StochasticConvLayer::from_conv(&conv(), &spec).unwrap()
    }

    #[test]
    fn tff_engine_matches_bit_level_stream_simulation() {
        // Cross-validate one window of the packed fast path against a fully
        // sequential scnn-sim simulation built from the same streams.
        let engine = engine(ScenarioSpec::this_work(6));
        let img = test_image(3);
        let pixels = engine.pixel_streams(&img, 0).unwrap();
        let ksq = 25;
        let (k, oy, ox) = (2usize, 10usize, 12usize);
        // Reconstruct BitStreams and run the reference tree.
        let to_stream = |words: &[u64]| BitStream::from_words(words.to_vec(), engine.stream_len());
        let mut pos_inputs = Vec::new();
        let mut neg_inputs = Vec::new();
        for (t, px) in window_taps(5, oy, ox) {
            let idx = k * ksq + t;
            let product = match px {
                Some(p) => to_stream(pixels.stream(p))
                    .checked_and(&to_stream(engine.weight_streams.stream(idx)))
                    .unwrap(),
                None => BitStream::zeros(engine.stream_len()),
            };
            if engine.weight_neg[idx] {
                neg_inputs.push(product);
                pos_inputs.push(BitStream::zeros(engine.stream_len()));
            } else {
                pos_inputs.push(product);
                neg_inputs.push(BitStream::zeros(engine.stream_len()));
            }
        }
        let tree = TffAdderTree::new(25, engine.spec().s0_policy).unwrap();
        let pos_ref = tree.add_streams(&pos_inputs).unwrap().count_ones();
        let neg_ref = tree.add_streams(&neg_inputs).unwrap().count_ones();

        // Fast path equivalents.
        let mut pos_counts = vec![0u64; engine.padded];
        let mut neg_counts = vec![0u64; engine.padded];
        for (t, px) in window_taps(5, oy, ox) {
            if let Some(p) = px {
                let idx = k * ksq + t;
                let c = and_count(pixels.stream(p), engine.weight_streams.stream(idx));
                if engine.weight_neg[idx] {
                    neg_counts[t] = c;
                } else {
                    pos_counts[t] = c;
                }
            }
        }
        assert_eq!(tree.fold_padded(&mut pos_counts, None), pos_ref);
        assert_eq!(tree.fold_padded(&mut neg_counts, None), neg_ref);
    }

    #[test]
    fn mux_route_masks_partition_the_stream() {
        // Each cycle routes exactly one tap of a tree to its root, so the
        // tree's masks are pairwise disjoint and OR to exactly the first N
        // bits — the bound that keeps the lane sum within N.
        for bits in [2u32, 4, 7, 8] {
            let engine = engine(ScenarioSpec::old_sc(bits));
            let n = engine.stream_len();
            let padded = engine.padded;
            for first_node in [0, padded - 1] {
                let masks = mux_route_masks(&engine.select_streams, first_node, padded).unwrap();
                let mut union = vec![0u64; n.div_ceil(64)];
                for tap in 0..padded {
                    for (u, &m) in union.iter_mut().zip(masks.stream(tap)) {
                        assert_eq!(*u & m, 0, "bits={bits} tree@{first_node} tap={tap} overlaps");
                        *u |= m;
                    }
                }
                let mut first_n = StreamArena::new(1, n).unwrap();
                first_n.write_from_levels(0, &vec![0; n], 1);
                assert_eq!(union, first_n.stream(0), "bits={bits} tree@{first_node}");
            }
        }
    }

    #[test]
    fn this_work_approaches_float_reference_with_precision() {
        let c = conv();
        let float = FloatConvLayer::from_conv(&c, 0.0).unwrap();
        let img = test_image(9);
        let reference = float.forward_image(&img).unwrap();
        let mismatch_at = |bits: u32| {
            let engine =
                StochasticConvLayer::from_conv(&c, &ScenarioSpec::this_work(bits)).unwrap();
            let got = engine.forward_image(&img).unwrap();
            got.iter().zip(&reference).filter(|(a, b)| (*a - *b).abs() > 0.5).count()
        };
        let m4 = mismatch_at(4);
        let m8 = mismatch_at(8);
        assert!(m8 < reference.len() / 10, "8-bit mismatches {m8}");
        assert!(m8 <= m4 + reference.len() / 100, "m8={m8} m4={m4}");
    }

    #[test]
    fn this_work_beats_old_sc_against_reference() {
        let c = conv();
        let float = FloatConvLayer::from_conv(&c, 0.0).unwrap();
        let img = test_image(13);
        let reference = float.forward_image(&img).unwrap();
        let mismatch = |spec: ScenarioSpec| {
            let engine = StochasticConvLayer::from_conv(&c, &spec).unwrap();
            let got = engine.forward_image(&img).unwrap();
            got.iter().zip(&reference).filter(|(a, b)| (*a - *b).abs() > 0.5).count()
        };
        let new = mismatch(ScenarioSpec::this_work(6));
        let old = mismatch(ScenarioSpec::old_sc(6));
        assert!(new < old, "this-work {new} vs old-sc {old} feature errors");
    }

    #[test]
    fn bit_errors_degrade_gracefully() {
        let clean_spec = ScenarioSpec::this_work(6);
        let noisy_spec = ScenarioSpec { fault: FaultModel::BitError(0.02), ..clean_spec };
        let img = test_image(17);
        let clean = engine(clean_spec).forward_image(&img).unwrap();
        let noisy = engine(noisy_spec).forward_image(&img).unwrap();
        let flipped = clean.iter().zip(&noisy).filter(|(a, b)| (*a - *b).abs() > 0.5).count();
        // 2% stream bit errors should flip only a small fraction of the
        // ternary features — SC's graceful degradation (paper §I).
        assert!(flipped < clean.len() / 10, "{flipped} of {} features flipped", clean.len());
    }

    #[test]
    fn label_and_accessors() {
        let engine = engine(ScenarioSpec::this_work(4));
        assert_eq!(engine.label(), "this-work(4-bit)");
        assert_eq!(engine.stream_len(), 16);
        assert_eq!(engine.kernels(), 8);
        assert_eq!(engine.precision().bits(), 4);
        assert_eq!(self::engine(ScenarioSpec::old_sc(4)).label(), "old-sc(4-bit)");
    }

    #[test]
    fn rejects_wrong_image() {
        let engine = engine(ScenarioSpec::this_work(4));
        assert!(engine.forward_image(&[0.0; 10]).is_err());
        assert!(engine.forward_image_streaming(&[0.0; 10]).is_err());
    }

    #[test]
    fn deduped_pixel_streams_match_direct_conversion() {
        // The per-distinct-level cache must reproduce exactly what one
        // comparator conversion per pixel used to produce.
        let engine = engine(ScenarioSpec::this_work(6));
        let img = test_image(21);
        let streams = engine.pixel_streams(&img, 0).unwrap();
        let bits = engine.precision().bits();
        let mut direct = StreamArena::new(img.len(), engine.stream_len()).unwrap();
        for (p, &v) in img.iter().enumerate() {
            direct.write_from_levels(p, &engine.pixel_seq, pixel_level(v, bits));
        }
        assert_eq!(streams, direct);
    }

    #[test]
    fn stuck_at_validation_rejects_bad_sites() {
        let c = conv();
        let stuck_at = |site| FaultModel::StuckAt { site, value: true };
        let build = |fault, preset: ScenarioSpec| {
            StochasticConvLayer::from_conv(&c, &ScenarioSpec { fault, ..preset })
        };
        let make = |fault| build(fault, ScenarioSpec::this_work(4));
        // Tap out of the 25-tap window.
        let err = make(stuck_at(FaultSite::LutTap { tap: 25 })).unwrap_err();
        assert!(err.to_string().contains("out of range"), "{err}");
        // Dead node of the 25-tap fold (the padded tail never folds).
        let err = make(stuck_at(FaultSite::AdderNode { node: 13 })).unwrap_err();
        assert!(err.to_string().contains("live"), "{err}");
        assert!(make(stuck_at(FaultSite::AdderNode { node: 31 })).is_err());
        // The MUX tree has no count-domain site to pin.
        let err =
            build(stuck_at(FaultSite::LutTap { tap: 0 }), ScenarioSpec::old_sc(4)).unwrap_err();
        assert!(err.to_string().contains("TFF"), "{err}");
        // Malformed rates are rejected up front, NaN included.
        assert!(make(FaultModel::BitError(f64::NAN)).is_err());
        assert!(make(FaultModel::BitError(1.5)).is_err());
        // A well-formed compound model compiles.
        let compound = FaultModel::Compound {
            ber: 0.01,
            site: FaultSite::AdderNode { node: 30 },
            value: false,
        };
        assert!(make(compound).is_ok());
    }
}
