//! The shared count-domain engine core.
//!
//! Every TFF-adder datapath in this workspace consumes bit streams only
//! through `count(a ∧ b)` — the closed form of the TFF adder
//! ([`scnn_sim::TffAdder::add_count`]) makes the whole tree a pure function
//! of its leaf 1-counts. The MUX tree becomes one too once its fixed
//! select streams are folded into the weights. That observation powers
//! every count-domain engine here:
//!
//! * [`LevelCountTable`] — the level-indexed AND-count LUT. A comparator
//!   SNG's output is a deterministic function of its input level, so
//!   against a fixed source sequence a stream takes at most `2^b + 1`
//!   distinct patterns; pre-counting `count(stream(level) ∧ weight)` for
//!   every (level, weight) pair turns a whole multiply-and-count datapath
//!   into a table lookup. Used by the convolution engine and the
//!   dense engine's unipolar mode (the same counting identity Hirtzlin
//!   et al. apply to fully-connected SC layers).
//! * [`LaneTree`] — folds the positive and negative TFF adder trees of
//!   many output lanes at once (all kernels of a conv window, all neurons
//!   of a dense layer), bit-exact with
//!   [`scnn_sim::TffAdderTree::fold_counts`] per lane; for a MUX tree,
//!   [`LaneTree::sum`] adds up route-masked counts instead.
//! * [`mux_route_masks`] — the MUX scaled-adder tree in the count domain.
//!   Its select streams are fixed per engine, so at every cycle the root
//!   outputs exactly one leaf's bit; masking each leaf's weight stream with
//!   the cycles its root path selects turns the tree into a plain count
//!   sum over a [`LevelCountTable`].
//! * [`LevelStreamCache`] — one comparator conversion per *distinct* level
//!   for the streaming reference paths.
//!
//! # Lanes
//!
//! Counts are `u16` lanes, one per kernel or neuron, and every row is
//! split by weight sign: a **split row** holds `2 · lanes` counts,
//! `[pos lanes | neg lanes]`. A lane whose weight is positive carries its
//! count in the positive half and `0` in the negative half, and the other
//! way round for a negative weight. The table stores each (level, tap)
//! row already split, so the two adder trees of every lane are one
//! `2 · lanes`-wide tree, and every per-node `(x + y + S0) >> 1` is one
//! plain loop over a row, which the compiler can vectorize. The lane
//! ceiling is [`MAX_LEAF_COUNT`]: with every leaf count at most 32767 the
//! transient `x + y + S0 ≤ 65535` fits the lane, so streams of 14-bit
//! precision and under fold exactly ([`table_fits`] is the gate).
//!
//! A [`LaneTree`] has no leaf buffer. [`fold`](LaneTree::fold),
//! [`fold_stuck`](LaneTree::fold_stuck) and [`sum`](LaneTree::sum) take
//! the leaves as borrowed split rows — table rows in place, a zero row for
//! an idle tap, or a caller's perturbed copy — so the bottom level reads
//! the table directly. The fold walks only the **live prefix** of each
//! level (the padded tail above `taps` is all-zero by construction —
//! ~20 % of the nodes at 784 taps) and its scratch holds only inner nodes,
//! each written before it is read, so a forward builds one tree per call
//! and reuses it across windows with nothing to reset.
//!
//! # Example: count a dot product through the table
//!
//! ```
//! use scnn_core::counts::{LaneTree, LevelCountTable};
//! use scnn_core::{SourceKind, StreamArena};
//! use scnn_sim::S0Policy;
//!
//! # fn main() -> Result<(), scnn_core::Error> {
//! let n = 16; // 4-bit streams
//! let seq = SourceKind::Ramp.sequence(4, n, 1)?;
//! // Two lanes × three taps of weight streams, lane-major.
//! let mut weights = StreamArena::new(2 * 3, n)?;
//! for i in 0..6 {
//!     weights.write_from_levels(i, &seq, (i as u64 * 3) % 17);
//! }
//! let neg = vec![false, true, false, true, false, true];
//! let table = LevelCountTable::build(&seq, &weights, &neg, 3, 2)?;
//! let mut tree = LaneTree::new(3, 2, S0Policy::Alternating, n)?;
//! // Input level 9 on every tap: the leaves are the table's rows, read in
//! // place.
//! let root = tree.fold(|tap| table.row(9, tap));
//! // One scaled sum per lane and sign.
//! let (pos, neg) = root.split_at(2);
//! assert!(pos.iter().chain(neg).all(|&count| usize::from(count) <= n));
//! # Ok(())
//! # }
//! ```

use crate::arena::{and_count, StreamArena};
use crate::Error;
use scnn_sim::S0Policy;

/// Upper bound on AND-count table entries (`(2^b + 1) · taps · lanes`);
/// configurations above it fall back to the streaming engines.
pub const MAX_LUT_ENTRIES: usize = 1 << 24;

/// Largest leaf count a lane may carry without the fold's transient
/// `2·count + 1` overflowing the 16-bit lane: `(2¹⁶ − 1 − 1) / 2 = 32767`,
/// i.e. streams of 14-bit precision and under.
pub const MAX_LEAF_COUNT: u16 = (u16::MAX - 1) / 2;

/// One TFF adder node on one lane: `(x + y + S0) >> 1` — exactly
/// [`scnn_sim::TffAdder::add_count`] for both rounding directions. With
/// both inputs within [`MAX_LEAF_COUNT`] the sum never wraps and the mask
/// is a no-op; it bounds the result to 15 bits all the same.
#[inline]
fn tff_node(x: u16, y: u16, s0: bool) -> u16 {
    (x.wrapping_add(y).wrapping_add(u16::from(s0)) >> 1) & 0x7FFF
}

/// Whether a level table for `n`-bit streams over `taps × lanes` weights
/// fits the memory budget *and* the 16-bit lane arithmetic (the fold's
/// transient `2n + 1` must fit a lane).
pub fn table_fits(n: usize, taps: usize, lanes: usize) -> bool {
    2 * n < usize::from(u16::MAX)
        && (n + 1).saturating_mul(taps.saturating_mul(lanes)) <= MAX_LUT_ENTRIES
}

/// A level-indexed AND-count table of split rows.
///
/// Layout: one split row (`[pos lanes | neg lanes]`, see the module's
/// *Lanes*) per (level, tap), stored at `[level][tap]`, so a tap's
/// [`row`](Self::row) is one contiguous slice shared by every lane and a
/// [`LaneTree`] reads it in place. Weight streams and signs are supplied
/// **lane-major** (`lane · taps + tap`), the natural layout of both the
/// convolution engine (`kernel · ksize² + tap`) and the dense engine
/// (`neuron · in_features + input`).
///
/// Level 0's rows are all zero — a level-0 comparator stream has no ones
/// — so they double as the zero row of a tap that reads no input.
#[derive(Debug, Clone)]
pub struct LevelCountTable {
    taps: usize,
    lanes: usize,
    /// `(n + 1) × taps` split rows of `2 · lanes` counts.
    rows: Vec<u16>,
}

impl LevelCountTable {
    /// Builds the table by enumerating every comparator level of `seq`
    /// against every weight stream.
    ///
    /// `weight_streams` and `weight_neg` hold `lanes · taps` entries,
    /// lane-major; `seq` is the source sequence shared by all level
    /// streams (its length is the stream bit length).
    ///
    /// # Errors
    ///
    /// Propagates arena construction errors.
    ///
    /// # Panics
    ///
    /// Panics if the stream/sign counts do not match `taps · lanes` or the
    /// configuration fails [`table_fits`].
    pub fn build(
        seq: &[u64],
        weight_streams: &StreamArena,
        weight_neg: &[bool],
        taps: usize,
        lanes: usize,
    ) -> Result<Self, Error> {
        let n = seq.len();
        assert_eq!(weight_streams.len(), taps * lanes, "weight stream count mismatch");
        assert_eq!(weight_neg.len(), taps * lanes, "weight sign count mismatch");
        assert!(table_fits(n, taps, lanes), "table exceeds the count-domain budget");
        let width = 2 * lanes;
        let mut rows = vec![0u16; (n + 1) * taps * width];
        let mut level_stream = StreamArena::new(1, n)?;
        for (level, level_rows) in rows.chunks_exact_mut(taps * width).enumerate() {
            level_stream.write_from_levels(0, seq, level as u64);
            for (t, row) in level_rows.chunks_exact_mut(width).enumerate() {
                for lane in 0..lanes {
                    let idx = lane * taps + t;
                    let count = and_count(level_stream.stream(0), weight_streams.stream(idx));
                    row[usize::from(weight_neg[idx]) * lanes + lane] = count as u16;
                }
            }
        }
        Ok(Self { taps, lanes, rows })
    }

    /// The split row of input level `level` on tap `tap`: `2 · lanes`
    /// counts, positive-weight lanes first.
    ///
    /// # Panics
    ///
    /// Panics if `level` or `tap` is out of range.
    #[inline]
    pub fn row(&self, level: usize, tap: usize) -> &[u16] {
        assert!(tap < self.taps, "tap out of range");
        let width = 2 * self.lanes;
        &self.rows[(level * self.taps + tap) * width..][..width]
    }
}

/// The split row of one uniform `count` on tap `tap` — the stuck-at-1
/// AND line of the count-domain fault model: positive-weight lanes carry
/// `count` in the positive half, negative-weight lanes in the negative
/// half. Exactly a [`LevelCountTable::row`] whose every AND count is
/// `count`.
///
/// `weight_neg` holds `lanes · taps` signs, lane-major, as for
/// [`LevelCountTable::build`].
///
/// # Panics
///
/// Panics if `tap` is out of range or `weight_neg` is not a whole number
/// of lanes.
pub fn split_by_sign(weight_neg: &[bool], taps: usize, tap: usize, count: u16) -> Vec<u16> {
    assert!(tap < taps && weight_neg.len().is_multiple_of(taps), "tap or sign layout out of range");
    let lanes = weight_neg.len() / taps;
    let mut row = vec![0u16; 2 * lanes];
    for lane in 0..lanes {
        row[usize::from(weight_neg[lane * taps + tap]) * lanes + lane] = count;
    }
    row
}

/// A multi-lane TFF adder tree over split rows, folded in `u16` lanes.
///
/// One tree carries the positive and the negative tree of every lane:
/// its rows are `2 · lanes` wide (`[pos lanes | neg lanes]`) and its root
/// row holds both roots of every lane. Per node and lane the op is
/// `(x + y + S0) >> 1` — exactly [`scnn_sim::TffAdder::add_count`] for
/// both rounding directions — and nodes are numbered breadth-first as in
/// [`scnn_sim::TffAdderTree`], the same number for both halves, so each
/// lane's roots equal
/// [`TffAdderTree::fold_counts`](scnn_sim::TffAdderTree::fold_counts) on
/// that lane's taps (property-tested in `scnn-core`).
///
/// The leaves are borrowed: `leaf(tap)` returns tap `tap`'s split row,
/// which the bottom level reads in place. [`fold`](Self::fold) walks only
/// the **live prefix** of each level: the padded tail above `taps` is
/// all-zero by construction (a zero pair folds to zero under either
/// rounding direction), so an unpaired last node folds against a zero row
/// and the tail is never touched. The scratch holds only inner nodes, each
/// written before it is read, so one tree can be reused for any number of
/// folds.
///
/// Count ceiling: the per-node transient `x + y + S0` lives in a 16-bit
/// lane, so every leaf count must satisfy `2·count + 1 ≤ u16::MAX`
/// ([`MAX_LEAF_COUNT`], streams of 14-bit precision and under). The
/// constructor **rejects** a declared `max_leaf_count` beyond the ceiling
/// — release builds cannot wrap silently — and [`fold`](Self::fold) still
/// debug-asserts the leaf counts.
#[derive(Debug, Clone)]
pub struct LaneTree {
    taps: usize,
    lanes: usize,
    padded: usize,
    policy: S0Policy,
    /// Bottom-level nodes: `taps.div_ceil(2)` rows; the upper levels
    /// alternate between this buffer and `upper`.
    bottom: Vec<u16>,
    /// `taps.div_ceil(4)` rows.
    upper: Vec<u16>,
    /// One all-zero row: the right child of an unpaired node.
    zero: Vec<u16>,
}

impl LaneTree {
    /// A tree over `taps` leaves (logically padded to the next power of
    /// two) carrying `lanes` independent positive and negative sums,
    /// accepting leaf counts up to `max_leaf_count`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] if `taps` or `lanes` is zero, or if
    /// `max_leaf_count` exceeds [`MAX_LEAF_COUNT`] (the fold's transient
    /// would wrap a 16-bit lane).
    pub fn new(
        taps: usize,
        lanes: usize,
        policy: S0Policy,
        max_leaf_count: usize,
    ) -> Result<Self, Error> {
        if taps == 0 || lanes == 0 {
            return Err(Error::config("LaneTree needs at least one tap and lane"));
        }
        if max_leaf_count > usize::from(MAX_LEAF_COUNT) {
            return Err(Error::config(format!(
                "leaf counts up to {max_leaf_count} overflow the 16-bit lanes of a LaneTree \
                 (ceiling {MAX_LEAF_COUNT})"
            )));
        }
        let width = 2 * lanes;
        Ok(Self {
            taps,
            lanes,
            padded: taps.next_power_of_two(),
            policy,
            bottom: vec![0; taps.div_ceil(2) * width],
            upper: vec![0; taps.div_ceil(4) * width],
            zero: vec![0; width],
        })
    }

    /// Folds the tree bottom-up over the live prefix of each level and
    /// returns the root split row: each lane's positive root, then each
    /// lane's negative root.
    ///
    /// `leaf(tap)` is called once per tap and must return a split row of
    /// at least `2 · lanes` counts; debug builds assert the leaf-count
    /// ceiling the constructor declared.
    pub fn fold<'a>(&mut self, leaf: impl Fn(usize) -> &'a [u16]) -> &[u16] {
        self.fold_with(leaf, None)
    }

    /// [`fold`](Self::fold) with a stuck-at fault: node `node` (numbered
    /// breadth-first, bottom-up, as in [`scnn_sim::TffAdderTree`]) of the
    /// **positive** tree emits `value` in every lane instead of its
    /// computed output — the count-domain image of a TFF column stuck at
    /// constant 0s (`value = 0`) or 1s (`value = N`), systematic across the
    /// kernel bank. The negative half folds as usual.
    ///
    /// `node` must be a **live** node of this tree shape (see
    /// [`live_fold_node`]): the fold never computes the all-zero padded
    /// tail, so a defect there has no dataflow to intervene on. The
    /// engines validate sites at construction; here a dead or out-of-range
    /// node simply never matches and the fold equals [`fold`](Self::fold).
    pub fn fold_stuck<'a>(
        &mut self,
        leaf: impl Fn(usize) -> &'a [u16],
        node: usize,
        value: u16,
    ) -> &[u16] {
        self.fold_with(leaf, Some((node, value)))
    }

    fn fold_with<'a>(
        &mut self,
        leaf: impl Fn(usize) -> &'a [u16],
        stuck: Option<(usize, u16)>,
    ) -> &[u16] {
        let Self { taps, lanes, padded, policy, bottom, upper, zero } = self;
        let width = 2 * *lanes;
        let leaf = |tap: usize| {
            let row = &leaf(tap)[..width];
            debug_assert!(
                row.iter().all(|&c| c <= MAX_LEAF_COUNT),
                "LaneTree leaf counts must satisfy 2·count + 1 ≤ u16::MAX"
            );
            row
        };
        if *taps == 1 {
            bottom.copy_from_slice(leaf(0));
            return bottom;
        }
        let level = Level { width, lanes: *lanes, policy: *policy, stuck, zero: &zero[..] };
        level.fold(bottom, *taps, 0, leaf);
        // Dead pairs fold zeros to zero under either rounding direction,
        // so only the node *numbering* must account for them: each level
        // starts `level_width / 2` nodes further on.
        let (mut live, mut level_width) = (taps.div_ceil(2), *padded / 2);
        let mut node_base = level_width;
        let (mut cur, mut next) = (bottom, upper);
        while level_width > 1 {
            let src: &[u16] = cur;
            level.fold(next, live, node_base, |row| &src[row * width..(row + 1) * width]);
            live = live.div_ceil(2);
            node_base += level_width / 2;
            level_width /= 2;
            std::mem::swap(&mut cur, &mut next);
        }
        &cur[..width]
    }

    /// Sums the leaf rows lane-wise into the root split row — the MUX
    /// tree's reduction over [`mux_route_masks`]-masked counts, where each
    /// cycle reaches the root through exactly one tap. The caller
    /// guarantees every lane's sum stays below `2¹⁶` (route-masked counts
    /// of one tree add up to at most the stream length).
    pub fn sum<'a>(&mut self, leaf: impl Fn(usize) -> &'a [u16]) -> &[u16] {
        let width = 2 * self.lanes;
        let root = &mut self.bottom[..width];
        root.copy_from_slice(&leaf(0)[..width]);
        for tap in 1..self.taps {
            for (r, &c) in root.iter_mut().zip(&leaf(tap)[..width]) {
                *r = r.wrapping_add(c);
            }
        }
        root
    }
}

/// One level of a [`LaneTree`] fold: the per-fold constants.
struct Level<'z> {
    width: usize,
    lanes: usize,
    policy: S0Policy,
    stuck: Option<(usize, u16)>,
    zero: &'z [u16],
}

impl Level<'_> {
    /// Folds `live` input rows (from `row`) pairwise into the first
    /// `live.div_ceil(2)` rows of `dst`, nodes numbered from `node_base`.
    /// An unpaired last row folds against zero, a stuck node pins its
    /// positive half.
    #[inline]
    fn fold<'a>(
        &self,
        dst: &mut [u16],
        live: usize,
        node_base: usize,
        row: impl Fn(usize) -> &'a [u16],
    ) {
        let w = self.width;
        for (i, out) in dst.chunks_exact_mut(w).take(live.div_ceil(2)).enumerate() {
            let node = node_base + i;
            let x = row(2 * i);
            let y = if 2 * i + 1 < live { row(2 * i + 1) } else { self.zero };
            let s0 = self.policy.state_for(node);
            for ((d, &a), &b) in out.iter_mut().zip(&x[..w]).zip(&y[..w]) {
                *d = tff_node(a, b, s0);
            }
            if let Some((stuck, value)) = self.stuck {
                if stuck == node {
                    out[..self.lanes].fill(value);
                }
            }
        }
    }
}

/// The wide scalar TFF tree fold used by the bit-level streaming engines:
/// each element is one `u64` count, so counts beyond the 16-bit lane
/// ceiling (15- and 16-bit streams) fold exactly. Node numbering matches
/// [`scnn_sim::TffAdderTree`].
///
/// `stuck = Some((node, value))` is a stuck-at fault: node `node` emits
/// `value` instead of its computed output — the scalar twin of
/// [`LaneTree::fold_stuck`], so the streaming and count-domain engines
/// share one defect semantics.
///
/// # Panics
///
/// Debug-panics if `counts.len()` is not a power of two.
pub fn fold_tree_counts_wide(
    policy: S0Policy,
    counts: &mut [u64],
    stuck: Option<(usize, u64)>,
) -> u64 {
    debug_assert!(counts.len().is_power_of_two(), "fold needs the padded tree width");
    let mut width = counts.len();
    let mut node = 0usize;
    while width > 1 {
        for i in 0..width / 2 {
            counts[i] = match stuck {
                Some((stuck_node, value)) if stuck_node == node => value,
                _ => {
                    let sum = counts[2 * i] + counts[2 * i + 1];
                    if policy.state_for(node) {
                        sum.div_ceil(2)
                    } else {
                        sum / 2
                    }
                }
            };
            node += 1;
        }
        width /= 2;
    }
    counts[0]
}

/// Whether breadth-first node `node` is on the **live prefix** of a
/// `taps`-leaf TFF tree fold — the nodes [`LaneTree::fold`] actually
/// computes. The padded tail above `taps` is all-zero by construction and
/// the fold skips it, so only live nodes are valid stuck-at sites (the
/// engines reject the rest at construction).
///
/// # Example
///
/// ```
/// use scnn_core::counts::live_fold_node;
///
/// // A 25-tap (5×5 window) tree pads to 32 leaves: 13 + 7 + 4 + 2 + 1
/// // live nodes of the 31 structural ones.
/// assert!(live_fold_node(25, 0)); // first bottom-level node
/// assert!(live_fold_node(25, 12)); // last live bottom-level node
/// assert!(!live_fold_node(25, 13)); // dead: pads rows 26..32
/// assert!(live_fold_node(25, 30)); // the root
/// assert!(!live_fold_node(25, 31)); // out of range
/// ```
pub fn live_fold_node(taps: usize, node: usize) -> bool {
    let mut width = taps.next_power_of_two();
    let mut live = taps;
    let mut node_base = 0usize;
    while width > 1 {
        let pairs = live.div_ceil(2);
        if (node_base..node_base + pairs).contains(&node) {
            return true;
        }
        node_base += width / 2;
        width /= 2;
        live = pairs;
    }
    false
}

/// The route masks of one MUX scaled-adder tree: stream `leaf` holds the
/// cycles in which the tree passes leaf `leaf` to its root.
///
/// The tree has `leaves` (a power of two) leaves and takes its select
/// streams from `selects`, numbered breadth-first from `first_node` as in
/// the streaming MUX fold: node `i` of a level pairs children `2i` and
/// `2i + 1`, and select `1` picks the even child. A leaf's mask is the AND
/// of `sel` or `!sel` along its root path. At every cycle exactly one leaf
/// is routed, so the masks are pairwise disjoint and together cover the
/// stream's bits; hence
/// `count(root) = Σ_leaf count(leaf ∧ mask(leaf))`, and the whole tree is
/// a sum over a [`LevelCountTable`] built on masked weight streams.
///
/// # Errors
///
/// Propagates arena construction errors.
///
/// # Panics
///
/// Panics if `leaves` is not a power of two or `selects` holds fewer than
/// `first_node + leaves − 1` streams.
///
/// # Example
///
/// ```
/// use scnn_core::counts::mux_route_masks;
/// use scnn_core::StreamArena;
///
/// # fn main() -> Result<(), scnn_core::Error> {
/// // One node over two leaves, selecting the even leaf on cycles 0 and 2.
/// let mut selects = StreamArena::new(1, 4)?;
/// selects.stream_mut(0)[0] = 0b0101;
/// let masks = mux_route_masks(&selects, 0, 2)?;
/// assert_eq!(masks.stream(0), &[0b0101]);
/// assert_eq!(masks.stream(1), &[0b1010]);
/// # Ok(())
/// # }
/// ```
pub fn mux_route_masks(
    selects: &StreamArena,
    first_node: usize,
    leaves: usize,
) -> Result<StreamArena, Error> {
    assert!(leaves.is_power_of_two(), "a MUX tree needs a power-of-two leaf count");
    let n = selects.stream_bits();
    let mut masks = StreamArena::new(leaves, n)?;
    for leaf in 0..leaves {
        let mask = masks.stream_mut(leaf);
        // Start from the first N bits; `!sel` must not leak beyond them.
        for (w, word) in mask.iter_mut().enumerate() {
            *word = u64::MAX >> (64 * (w + 1)).saturating_sub(n);
        }
        let (mut width, mut node_base, mut index) = (leaves, first_node, leaf);
        while width > 1 {
            let sel = selects.stream(node_base + index / 2);
            let even = index % 2 == 0;
            for (m, &s) in mask.iter_mut().zip(sel) {
                *m &= if even { s } else { !s };
            }
            node_base += width / 2;
            width /= 2;
            index /= 2;
        }
    }
    Ok(masks)
}

/// One comparator-SNG conversion per *distinct* level.
///
/// Against a fixed source sequence the comparator stream is a pure function
/// of the level, so equal-level inputs share bit patterns; the cache
/// converts on first sight and hands out word slices afterwards. Both
/// streaming references build one per call: the conv engine's
/// `pixel_streams` and the dense engine's input bank, so a call converts
/// at most `2^b + 1` levels.
#[derive(Debug)]
pub struct LevelStreamCache {
    seq: Vec<u64>,
    scratch: StreamArena,
    cache: Vec<Option<Vec<u64>>>,
}

impl LevelStreamCache {
    /// A cache over the source sequence `seq` (one value per stream bit),
    /// covering comparator levels `0..=seq.len()`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] for an empty sequence.
    pub fn new(seq: &[u64]) -> Result<Self, Error> {
        Ok(Self {
            seq: seq.to_vec(),
            scratch: StreamArena::new(1, seq.len())?,
            cache: vec![None; seq.len() + 1],
        })
    }

    /// The packed words of the level-`level` comparator stream, converting
    /// on first use.
    ///
    /// # Panics
    ///
    /// Panics if `level > seq.len()`.
    pub fn words(&mut self, level: usize) -> &[u64] {
        if self.cache[level].is_none() {
            self.scratch.write_from_levels(0, &self.seq, level as u64);
            self.cache[level] = Some(self.scratch.stream(0).to_vec());
        }
        self.cache[level].as_deref().expect("just filled")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SourceKind;
    use scnn_sim::TffAdderTree;

    fn seq(bits: u32, n: usize) -> Vec<u64> {
        SourceKind::VanDerCorput.sequence(bits, n, 3).unwrap()
    }

    const POLICIES: [S0Policy; 3] = [S0Policy::AllZero, S0Policy::AllOne, S0Policy::Alternating];

    /// `taps` leaf rows of `2 · lanes` counts, column `c` of tap `t` set to
    /// `count(t, c)`.
    fn leaves(taps: usize, lanes: usize, count: impl Fn(usize, usize) -> u16) -> Vec<Vec<u16>> {
        (0..taps).map(|t| (0..2 * lanes).map(|c| count(t, c)).collect()).collect()
    }

    /// Column `c` of every leaf row, widened for the scalar references.
    fn column(rows: &[Vec<u16>], c: usize) -> Vec<u64> {
        rows.iter().map(|row| u64::from(row[c])).collect()
    }

    #[test]
    fn lane_tree_matches_reference_tree_per_lane() {
        for taps in [1usize, 3, 7, 25, 30] {
            for policy in POLICIES {
                let lanes = 9;
                let mut tree = LaneTree::new(taps, lanes, policy, 64).unwrap();
                let reference = TffAdderTree::new(taps, policy).unwrap();
                let rows = leaves(taps, lanes, |t, c| ((t * 31 + c * 17 + 5) % 64) as u16);
                let root = tree.fold(|t| &rows[t]).to_vec();
                assert_eq!(root.len(), 2 * lanes);
                for (c, &got) in root.iter().enumerate() {
                    assert_eq!(
                        u64::from(got),
                        reference.fold_counts(&column(&rows, c)),
                        "taps={taps} column={c} policy={policy:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn tff_node_is_exact_at_the_count_ceiling() {
        // (32767 + 32767 + s0) >> 1 = 32767 for both rounding directions.
        for s0 in [false, true] {
            assert_eq!(tff_node(MAX_LEAF_COUNT, MAX_LEAF_COUNT, s0), MAX_LEAF_COUNT, "s0={s0}");
        }
        assert_eq!(tff_node(MAX_LEAF_COUNT, 0, true), 16384);
        assert_eq!(tff_node(MAX_LEAF_COUNT, 0, false), 16383);
    }

    #[test]
    fn lane_tree_fold_matches_wide_fold_near_the_ceiling() {
        // Counts up to the lane ceiling fold exactly as the unbounded
        // scalar fold does.
        for policy in POLICIES {
            let (taps, lanes) = (32usize, 4usize);
            let mut tree = LaneTree::new(taps, lanes, policy, 32000).unwrap();
            let rows = leaves(taps, lanes, |t, c| ((t * 29 + c * 1031 + 3) % 32000) as u16);
            let root = tree.fold(|t| &rows[t]).to_vec();
            for (c, &got) in root.iter().enumerate() {
                assert_eq!(
                    u64::from(got),
                    fold_tree_counts_wide(policy, &mut column(&rows, c), None),
                    "column={c} policy={policy:?}"
                );
            }
        }
    }

    #[test]
    fn lane_tree_is_reusable_without_residue() {
        // A fold after a fold, a stuck fold and a sum over other leaves
        // must equal a fresh tree's fold.
        let (taps, lanes) = (25, 3);
        let first = leaves(taps, lanes, |_, _| 7);
        let second = leaves(taps, lanes, |t, c| ((t + c) % 9) as u16);
        let mut tree = LaneTree::new(taps, lanes, S0Policy::Alternating, 16).unwrap();
        let _ = tree.fold(|t| &first[t]);
        let _ = tree.fold_stuck(|t| &first[t], 3, 16);
        let _ = tree.sum(|t| &first[t]);
        let reused = tree.fold(|t| &second[t]).to_vec();
        let mut fresh = LaneTree::new(taps, lanes, S0Policy::Alternating, 16).unwrap();
        assert_eq!(reused, fresh.fold(|t| &second[t]));
    }

    #[test]
    fn lane_tree_sum_adds_the_leaf_rows_lane_wise() {
        for taps in [1usize, 2, 25] {
            let lanes = 5;
            let rows = leaves(taps, lanes, |t, c| ((t * 3 + c * 7) % 11) as u16);
            let mut tree = LaneTree::new(taps, lanes, S0Policy::AllZero, 16).unwrap();
            let root = tree.sum(|t| &rows[t]).to_vec();
            for (c, &got) in root.iter().enumerate() {
                assert_eq!(u64::from(got), column(&rows, c).iter().sum::<u64>(), "column={c}");
            }
        }
    }

    #[test]
    fn constructor_rejects_overflowing_leaf_counts() {
        // 14-bit streams (16384 counts) are the last fitting precision.
        assert!(LaneTree::new(25, 4, S0Policy::Alternating, 1 << 14).is_ok());
        for too_big in [1usize << 15, 1 << 16, usize::MAX] {
            let err = LaneTree::new(25, 4, S0Policy::Alternating, too_big).unwrap_err();
            assert!(err.to_string().contains("overflow"), "{err}");
        }
        assert!(LaneTree::new(0, 4, S0Policy::Alternating, 16).is_err());
        assert!(LaneTree::new(4, 0, S0Policy::Alternating, 16).is_err());
    }

    #[test]
    fn level_table_counts_match_direct_and_count() {
        let n = 32;
        let s = seq(5, n);
        let (taps, lanes) = (4, 9);
        let mut weights = StreamArena::new(taps * lanes, n).unwrap();
        let mut neg = vec![false; taps * lanes];
        for lane in 0..lanes {
            for t in 0..taps {
                let idx = lane * taps + t;
                weights.write_from_levels(idx, &s, ((idx * 7 + 3) % 33) as u64);
                neg[idx] = idx % 3 == 1;
            }
        }
        let table = LevelCountTable::build(&s, &weights, &neg, taps, lanes).unwrap();
        let mut level_stream = StreamArena::new(1, n).unwrap();
        for level in [0usize, 1, 16, 32] {
            level_stream.write_from_levels(0, &s, level as u64);
            for t in 0..taps {
                let row = table.row(level, t);
                assert_eq!(row.len(), 2 * lanes);
                for lane in 0..lanes {
                    let idx = lane * taps + t;
                    let expect = and_count(level_stream.stream(0), weights.stream(idx)) as u16;
                    let want = if neg[idx] { (0, expect) } else { (expect, 0) };
                    let got = (row[lane], row[lanes + lane]);
                    assert_eq!(got, want, "level={level} t={t} lane={lane}");
                }
            }
        }
    }

    #[test]
    fn fits_rejects_oversized_configurations() {
        assert!(table_fits(256, 25, 32));
        assert!(!table_fits(40_000, 25, 32)); // 16-bit lanes overflow
        assert!(!table_fits(256, 1 << 12, 1 << 12)); // table too big
    }

    #[test]
    fn level_stream_cache_matches_direct_conversion() {
        let n = 48;
        let s = seq(6, n);
        let mut cache = LevelStreamCache::new(&s).unwrap();
        let mut direct = StreamArena::new(1, n).unwrap();
        for level in [0usize, 5, 5, 48, 17, 5] {
            direct.write_from_levels(0, &s, level as u64);
            assert_eq!(cache.words(level), direct.stream(0), "level={level}");
        }
    }

    #[test]
    fn live_fold_node_matches_the_fold_walk() {
        // Enumerate live nodes by re-walking the fold's level loop and
        // cross-check the predicate over the full structural range.
        for taps in 1usize..=33 {
            let padded = taps.next_power_of_two();
            let mut expected = std::collections::HashSet::new();
            let (mut width, mut live, mut node_base) = (padded, taps, 0usize);
            while width > 1 {
                for i in 0..live.div_ceil(2) {
                    expected.insert(node_base + i);
                }
                node_base += width / 2;
                live = live.div_ceil(2);
                width /= 2;
            }
            for node in 0..padded.max(2) {
                assert_eq!(
                    live_fold_node(taps, node),
                    expected.contains(&node),
                    "taps={taps} node={node}"
                );
            }
        }
        // The documented 25-tap shape: 27 live of 31 structural nodes.
        assert_eq!((0..31).filter(|&n| live_fold_node(25, n)).count(), 27);
    }

    #[test]
    fn fold_stuck_matches_the_scalar_stuck_fold_per_lane() {
        // The stuck node pins the positive half only; the negative half
        // folds as if healthy.
        let (taps, lanes, n) = (25usize, 5usize, 64usize);
        let rows = leaves(taps, lanes, |t, c| ((t * 7 + c * 13) % (n + 1)) as u16);
        for policy in POLICIES {
            for value in [0u16, 17, n as u16] {
                for node in (0..31).filter(|&nd| live_fold_node(taps, nd)) {
                    let mut tree = LaneTree::new(taps, lanes, policy, n).unwrap();
                    let root = tree.fold_stuck(|t| &rows[t], node, value).to_vec();
                    for (c, &got) in root.iter().enumerate() {
                        let mut counts = column(&rows, c);
                        counts.resize(taps.next_power_of_two(), 0);
                        let stuck = (c < lanes).then_some((node, u64::from(value)));
                        assert_eq!(
                            u64::from(got),
                            fold_tree_counts_wide(policy, &mut counts, stuck),
                            "policy={policy:?} node={node} value={value} column={c}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn fold_stuck_without_a_matching_node_equals_fold() {
        let (taps, lanes, n) = (25usize, 3usize, 64usize);
        let rows = leaves(taps, lanes, |t, c| ((t * 11 + c * 5) % (n + 1)) as u16);
        let mut tree = LaneTree::new(taps, lanes, S0Policy::Alternating, n).unwrap();
        let healthy = tree.fold(|t| &rows[t]).to_vec();
        // Node 13 is dead for a 25-tap tree; an out-of-range index too.
        assert_eq!(healthy, tree.fold_stuck(|t| &rows[t], 13, 50));
        assert_eq!(healthy, tree.fold_stuck(|t| &rows[t], 1000, 50));
    }

    #[test]
    fn split_by_sign_routes_uniform_counts_by_weight_sign() {
        let n = 16u16;
        let (taps, lanes) = (3usize, 5usize);
        let neg: Vec<bool> = (0..taps * lanes).map(|i| i % 3 == 1).collect();
        for t in 0..taps {
            let row = split_by_sign(&neg, taps, t, n);
            assert_eq!(row.len(), 2 * lanes);
            for lane in 0..lanes {
                let want = if neg[lane * taps + t] { (0, n) } else { (n, 0) };
                assert_eq!((row[lane], row[lanes + lane]), want, "tap={t} lane={lane}");
            }
        }
    }
}
