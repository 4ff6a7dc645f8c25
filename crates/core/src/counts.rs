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
//! pass over fixed 64-lane blocks, which the compiler vectorizes. The lane
//! ceiling is [`MAX_LEAF_COUNT`]: with every leaf count at most 32767 the
//! transient `x + y + S0 ≤ 65535` fits the lane, so streams of 14-bit
//! precision and under fold exactly ([`table_fits`] is the gate).
//!
//! A [`LaneTree`] has no leaf buffer: its folds take the leaves as one
//! slice of borrowed split rows — table rows in place, or rows of a
//! caller's perturbed block — and fold only the **live prefix** of each
//! level (~20 % of the nodes at 784 taps are padding), so a forward builds
//! one tree per call and reuses it across windows with nothing to reset.
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
//! let rows: Vec<&[u16]> = (0..3).map(|tap| table.row(9, tap)).collect();
//! let root = tree.fold(&rows);
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
/// [`LaneTree`] reads it in place, and one level's rows for all taps are
/// one contiguous block ([`level_rows`](Self::level_rows)). Weight
/// streams and signs are supplied **lane-major** (`lane · taps + tap`),
/// the natural layout of both the convolution engine
/// (`kernel · ksize² + tap`) and the dense engine
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

    /// Every tap's split row of input level `level`, tap-major: the
    /// `taps · 2 · lanes` counts whose tap-`t` slice of `2 · lanes` is
    /// [`row(level, t)`](Self::row).
    ///
    /// # Panics
    ///
    /// Panics if `level` is out of range.
    #[inline]
    pub fn level_rows(&self, level: usize) -> &[u16] {
        let block = self.taps * 2 * self.lanes;
        &self.rows[level * block..][..block]
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

/// Lanes per fold block: four AVX2 (eight SSE2) registers of `u16`, so a
/// node folds with no per-lane bounds checks. The production head's 32
/// kernels are exactly one block.
const BLOCK: usize = 64;
type Block = [u16; BLOCK];
/// The right child of an unpaired node.
const ZERO: Block = [0; BLOCK];

/// An inner node's block, cache-line aligned so no load straddles lines.
#[derive(Debug, Clone, Copy)]
#[repr(C, align(64))]
struct Node(Block);

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
/// A fold takes one borrowed split row per tap and reads them in place. It
/// runs block by block: each node folds a fixed array of 64 lanes, its S0
/// read from a table built in [`new`](Self::new). Lanes past the last
/// whole block are first copied into zero-padded blocks. Only the **live
/// prefix** of each level is folded: the padded tail above `taps` is
/// all-zero (a zero pair folds to zero either way), so an unpaired node
/// folds against a zero block. Every inner node is written before it is
/// read, so one tree serves any number of folds.
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
    /// Breadth-first number of each live node, in fold order.
    numbers: Vec<usize>,
    /// S0 (`0` or `1`) of each live node, in fold order.
    s0: Vec<u16>,
    /// One block per live node, in fold order; the last one is the root.
    nodes: Vec<Node>,
    /// Each tap's lanes past the last whole block, zero-padded, if any.
    partial: Vec<Block>,
    /// The root split row.
    root: Vec<u16>,
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
        let numbers = live_nodes(taps);
        Ok(Self {
            taps,
            lanes,
            s0: numbers.iter().map(|&node| u16::from(policy.state_for(node))).collect(),
            nodes: vec![Node(ZERO); numbers.len()],
            numbers,
            partial: vec![ZERO; if (2 * lanes).is_multiple_of(BLOCK) { 0 } else { taps }],
            root: vec![0; 2 * lanes],
        })
    }

    /// Folds the tree bottom-up over the live prefix of each level and
    /// returns the root split row: each lane's positive root, then each
    /// lane's negative root. `rows` holds one split row per tap, at least
    /// `2 · lanes` long; debug builds assert the declared count ceiling.
    pub fn fold(&mut self, rows: &[&[u16]]) -> &[u16] {
        self.fold_pinned(rows, usize::MAX, 0)
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
    pub fn fold_stuck(&mut self, rows: &[&[u16]], node: usize, value: u16) -> &[u16] {
        let at = self.numbers.iter().position(|&n| n == node).unwrap_or(usize::MAX);
        self.fold_pinned(rows, at, value)
    }

    /// The fold, with the live node at fold position `pin_at` (if any)
    /// emitting `pin_value` on its positive half.
    fn fold_pinned(&mut self, rows: &[&[u16]], pin_at: usize, pin_value: u16) -> &[u16] {
        let width = self.stage(rows);
        let Self { lanes, s0, nodes, partial, root, .. } = self;
        let (s0, nodes, partial): (&[u16], &mut [Node], &[Block]) = (s0, nodes, partial);
        if rows.len() == 1 {
            root.copy_from_slice(&rows[0][..width]);
            return root;
        }
        for (b, root) in root.chunks_mut(BLOCK).enumerate() {
            let positive = lanes.saturating_sub(b * BLOCK).min(BLOCK);
            // The bottom level reads the leaf rows in place.
            let pairs = nodes.iter_mut().zip(s0).zip(rows.chunks(2));
            for (i, ((node, &s0), pair)) in pairs.enumerate() {
                let x = leaf_block(pair[0], partial, 2 * i, b, width);
                let y = match pair.get(1) {
                    Some(row) => leaf_block(row, partial, 2 * i + 1, b, width),
                    None => &ZERO,
                };
                node.0 = tff_block(x, y, s0);
                if i == pin_at {
                    node.0[..positive].fill(pin_value);
                }
            }
            // Each upper level reads the level below it.
            let (mut start, mut live) = (0, rows.len().div_ceil(2));
            while live > 1 {
                let (below, above) = nodes.split_at_mut(start + live);
                let pairs = above.iter_mut().zip(&s0[start + live..]).zip(below[start..].chunks(2));
                for (i, ((node, &s0), pair)) in pairs.enumerate() {
                    node.0 = tff_block(&pair[0].0, pair.get(1).map_or(&ZERO, |y| &y.0), s0);
                    if start + live + i == pin_at {
                        node.0[..positive].fill(pin_value);
                    }
                }
                (start, live) = (start + live, live.div_ceil(2));
            }
            root.copy_from_slice(&nodes[start].0[..root.len()]);
        }
        root
    }

    /// Sums the leaf rows lane-wise into the root split row — the MUX
    /// tree's reduction over [`mux_route_masks`]-masked counts, where each
    /// cycle reaches the root through exactly one tap. The caller
    /// guarantees every lane's sum stays below `2¹⁶` (route-masked counts
    /// of one tree add up to at most the stream length).
    pub fn sum(&mut self, rows: &[&[u16]]) -> &[u16] {
        let width = self.stage(rows);
        for (b, root) in self.root.chunks_mut(BLOCK).enumerate() {
            let mut acc = ZERO;
            for (t, row) in rows.iter().enumerate() {
                for (a, &c) in acc.iter_mut().zip(leaf_block(row, &self.partial, t, b, width)) {
                    *a = a.wrapping_add(c);
                }
            }
            root.copy_from_slice(&acc[..root.len()]);
        }
        &self.root
    }

    /// Checks the leaf rows and copies each tap's lanes past the last whole
    /// block into its zero-padded block; returns the row width.
    fn stage(&mut self, rows: &[&[u16]]) -> usize {
        let width = 2 * self.lanes;
        assert_eq!(rows.len(), self.taps, "a LaneTree needs one leaf row per tap");
        debug_assert!(
            rows.iter().all(|row| row[..width].iter().all(|&c| c <= MAX_LEAF_COUNT)),
            "LaneTree leaf counts must satisfy 2·count + 1 ≤ u16::MAX"
        );
        let whole = width / BLOCK * BLOCK;
        for (block, row) in self.partial.iter_mut().zip(rows) {
            block[..width - whole].copy_from_slice(&row[whole..width]);
        }
        width
    }
}

/// Block `b` of tap `t`'s leaf row of width `w`: in place if the row holds
/// it whole, else the tap's zero-padded block in `pads`.
#[inline(always)]
fn leaf_block<'a>(row: &'a [u16], pads: &'a [Block], t: usize, b: usize, w: usize) -> &'a Block {
    match row[..w].get(b * BLOCK..(b + 1) * BLOCK) {
        Some(block) => block.try_into().expect("a whole block"),
        None => &pads[t],
    }
}

/// One TFF adder node over a block of lanes: `(x + y + S0) >> 1` per lane
/// — exactly [`scnn_sim::TffAdder::add_count`] for both rounding
/// directions. With both inputs within [`MAX_LEAF_COUNT`] the sum never
/// wraps and the mask is a no-op; it bounds the result to 15 bits all the
/// same.
#[inline(always)]
fn tff_block(x: &Block, y: &Block, s0: u16) -> Block {
    std::array::from_fn(|j| (x[j].wrapping_add(y[j]).wrapping_add(s0) >> 1) & 0x7FFF)
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
    live_nodes(taps).contains(&node)
}

/// The breadth-first numbers of a `taps`-leaf fold's live nodes, bottom
/// level first. Dead pairs (zeros fold to zero) count only in the
/// numbering: each level starts `level_width / 2` nodes further on.
fn live_nodes(taps: usize) -> Vec<usize> {
    let mut numbers = Vec::new();
    let (mut live, mut level_width, mut base) = (taps, taps.next_power_of_two(), 0);
    while level_width > 1 {
        live = live.div_ceil(2);
        numbers.extend(base..base + live);
        base += level_width / 2;
        level_width /= 2;
    }
    numbers
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

    /// The leaf rows as the slice of borrowed rows a fold takes.
    fn refs(rows: &[Vec<u16>]) -> Vec<&[u16]> {
        rows.iter().map(Vec::as_slice).collect()
    }

    /// Column `c` of every leaf row, widened for the scalar references.
    fn column(rows: &[Vec<u16>], c: usize) -> Vec<u64> {
        rows.iter().map(|row| u64::from(row[c])).collect()
    }

    #[test]
    fn lane_tree_matches_reference_tree_per_lane() {
        // Every tap count up to one past the 5×5 window's padded 32, at a
        // width inside one lane block, exactly one block, and one block
        // plus a partial one.
        for taps in 1usize..=33 {
            for policy in POLICIES {
                for lanes in [9, 32, 40] {
                    let mut tree = LaneTree::new(taps, lanes, policy, 64).unwrap();
                    let reference = TffAdderTree::new(taps, policy).unwrap();
                    let rows = leaves(taps, lanes, |t, c| ((t * 31 + c * 17 + 5) % 64) as u16);
                    let root = tree.fold(&refs(&rows)).to_vec();
                    assert_eq!(root.len(), 2 * lanes);
                    for (c, &got) in root.iter().enumerate() {
                        assert_eq!(
                            u64::from(got),
                            reference.fold_counts(&column(&rows, c)),
                            "taps={taps} lanes={lanes} column={c} policy={policy:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn tff_node_is_exact_at_the_count_ceiling() {
        // (32767 + 32767 + s0) >> 1 = 32767 for both rounding directions.
        let (ceiling, zero) = ([MAX_LEAF_COUNT; BLOCK], [0; BLOCK]);
        for s0 in [0, 1] {
            assert_eq!(tff_block(&ceiling, &ceiling, s0), ceiling, "s0={s0}");
        }
        assert_eq!(tff_block(&ceiling, &zero, 1), [16384; BLOCK]);
        assert_eq!(tff_block(&ceiling, &zero, 0), [16383; BLOCK]);
    }

    #[test]
    fn lane_tree_fold_matches_wide_fold_near_the_ceiling() {
        // Counts up to the lane ceiling fold exactly as the unbounded
        // scalar fold does.
        for policy in POLICIES {
            let (taps, lanes) = (32usize, 4usize);
            let mut tree = LaneTree::new(taps, lanes, policy, 32000).unwrap();
            let reference = TffAdderTree::new(taps, policy).unwrap();
            let rows = leaves(taps, lanes, |t, c| ((t * 29 + c * 1031 + 3) % 32000) as u16);
            let root = tree.fold(&refs(&rows)).to_vec();
            for (c, &got) in root.iter().enumerate() {
                assert_eq!(
                    u64::from(got),
                    reference.fold_counts(&column(&rows, c)),
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
        let _ = tree.fold(&refs(&first));
        let _ = tree.fold_stuck(&refs(&first), 3, 16);
        let _ = tree.sum(&refs(&first));
        let reused = tree.fold(&refs(&second)).to_vec();
        let mut fresh = LaneTree::new(taps, lanes, S0Policy::Alternating, 16).unwrap();
        assert_eq!(reused, fresh.fold(&refs(&second)));
    }

    #[test]
    fn lane_tree_sum_adds_the_leaf_rows_lane_wise() {
        for taps in [1usize, 2, 25] {
            let lanes = 5;
            let rows = leaves(taps, lanes, |t, c| ((t * 3 + c * 7) % 11) as u16);
            let mut tree = LaneTree::new(taps, lanes, S0Policy::AllZero, 16).unwrap();
            let root = tree.sum(&refs(&rows)).to_vec();
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
                let reference = TffAdderTree::new(taps, policy).unwrap();
                for node in (0..31).filter(|&nd| live_fold_node(taps, nd)) {
                    let mut tree = LaneTree::new(taps, lanes, policy, n).unwrap();
                    let root = tree.fold_stuck(&refs(&rows), node, value).to_vec();
                    for (c, &got) in root.iter().enumerate() {
                        let mut counts = column(&rows, c);
                        counts.resize(taps.next_power_of_two(), 0);
                        let stuck = (c < lanes).then_some((node, u64::from(value)));
                        assert_eq!(
                            u64::from(got),
                            reference.fold_padded(&mut counts, stuck),
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
        let healthy = tree.fold(&refs(&rows)).to_vec();
        // Node 13 is dead for a 25-tap tree; an out-of-range index too.
        assert_eq!(healthy, tree.fold_stuck(&refs(&rows), 13, 50));
        assert_eq!(healthy, tree.fold_stuck(&refs(&rows), 1000, 50));
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
