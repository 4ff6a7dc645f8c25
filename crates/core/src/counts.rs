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
//!   into a table gather. Used by the convolution engine and the
//!   dense engine's unipolar mode (the same counting identity Hirtzlin
//!   et al. apply to fully-connected SC layers).
//! * [`LaneTree`] — folds one TFF adder tree for many output lanes at once
//!   (all kernels of a conv window, all neurons of a dense layer),
//!   bit-exact with [`scnn_sim::TffAdderTree::fold_counts`] per lane; for
//!   a MUX tree, [`LaneTree::sum`] adds up route-masked counts instead.
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
//! Both count structures store one `u16` count per lane — one lane per
//! kernel or neuron — laid out tap-major, so a tap's lanes are one
//! contiguous row. Every per-node `(x + y + S0) >> 1` is then a plain loop
//! over a row, which the compiler can vectorize. The lane ceiling is
//! [`MAX_LEAF_COUNT`]: with every leaf count at most 32767 the transient
//! `x + y + S0 ≤ 65535` fits the lane, so streams of 14-bit precision and
//! under fold exactly ([`table_fits`] is the gate).
//!
//! [`LaneTree::fold`] walks only the **live prefix** of each tree level
//! (the padded tail above `taps` is all-zero by construction — ~20 % of
//! the nodes at 784 taps). A forward allocates its trees once per call and
//! reuses them across windows.
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
//! let mut pos = LaneTree::new(3, 2, S0Policy::Alternating, n)?;
//! let mut neg_tree = LaneTree::new(3, 2, S0Policy::Alternating, n)?;
//! for tap in 0..3 {
//!     table.gather(9, tap, pos.tap_lanes_mut(tap), neg_tree.tap_lanes_mut(tap));
//! }
//! // One scaled sum per lane.
//! let roots = pos.fold();
//! assert!(roots.iter().all(|&count| usize::from(count) <= n));
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

/// Rounds a row count up to the next even number — the fold always reads
/// whole pairs, so every buffer keeps one zero row beyond an odd live
/// prefix.
fn round_even(rows: usize) -> usize {
    rows + (rows & 1)
}

/// A level-indexed AND-count table with positive/negative lane masks.
///
/// Layout: `count(stream(level) ∧ weight(lane, tap))` is stored tap-major
/// at `[level][tap][lane]`, so one tap's [`gather`](Self::gather) reads a
/// contiguous row shared by every lane. Weight streams and signs are
/// supplied **lane-major** (`lane · taps + tap`), the natural layout of
/// both the convolution engine (`kernel · ksize² + tap`) and the dense
/// engine (`neuron · in_features + input`).
#[derive(Debug, Clone)]
pub struct LevelCountTable {
    taps: usize,
    lanes: usize,
    /// `(n + 1) × taps × lanes` counts.
    lut: Vec<u16>,
    /// Per-`(tap, lane)` mask: all-ones where the weight feeds the
    /// positive tree, zero where it feeds the negative.
    pos_mask: Vec<u16>,
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
        let levels = n + 1;
        let mut lut = vec![0u16; levels * taps * lanes];
        let mut level_stream = StreamArena::new(1, n)?;
        for (level, rows) in lut.chunks_exact_mut(taps * lanes).enumerate() {
            level_stream.write_from_levels(0, seq, level as u64);
            for (t, row) in rows.chunks_exact_mut(lanes).enumerate() {
                for (lane, count) in row.iter_mut().enumerate() {
                    let stream = weight_streams.stream(lane * taps + t);
                    *count = and_count(level_stream.stream(0), stream) as u16;
                }
            }
        }
        let mut pos_mask = vec![0u16; taps * lanes];
        for (t, row) in pos_mask.chunks_exact_mut(lanes).enumerate() {
            for (lane, mask) in row.iter_mut().enumerate() {
                if !weight_neg[lane * taps + t] {
                    *mask = u16::MAX;
                }
            }
        }
        Ok(Self { taps, lanes, lut, pos_mask })
    }

    /// Lanes per tap row.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Taps per lane.
    pub fn taps(&self) -> usize {
        self.taps
    }

    /// One stored count (test and diagnostic access).
    ///
    /// # Panics
    ///
    /// Panics if `level`, `tap` or `lane` is out of range.
    pub fn count(&self, level: usize, tap: usize, lane: usize) -> u16 {
        assert!(lane < self.lanes, "lane out of range");
        self.lut[(level * self.taps + tap) * self.lanes + lane]
    }

    /// Splits one (level, tap) row into the positive and negative tree
    /// inputs: lanes whose weight is positive receive the count in `pos`
    /// (and `0` in `neg`), negative lanes the other way around.
    ///
    /// # Panics
    ///
    /// Panics if `level`/`tap` are out of range or the slices are shorter
    /// than [`lanes`](Self::lanes).
    #[inline]
    pub fn gather(&self, level: usize, tap: usize, pos: &mut [u16], neg: &mut [u16]) {
        let row = &self.lut[(level * self.taps + tap) * self.lanes..][..self.lanes];
        let mask = &self.pos_mask[tap * self.lanes..(tap + 1) * self.lanes];
        for (((pd, nd), &c), &m) in pos.iter_mut().zip(neg.iter_mut()).zip(row).zip(mask) {
            let to_pos = c & m;
            *pd = to_pos;
            *nd = c - to_pos;
        }
    }

    /// Routes one uniform `count` through tap `tap`'s weight signs — the
    /// stuck-at-1 override of the count-domain fault model: positive-
    /// weight lanes receive `count` in `pos` (and 0 in `neg`), negative
    /// lanes the other way around. Exactly [`gather`](Self::gather) with
    /// every lane's stored count replaced by `count`.
    ///
    /// # Panics
    ///
    /// Panics if `tap` is out of range or the slices are shorter than
    /// [`lanes`](Self::lanes).
    #[inline]
    pub fn split_by_sign(&self, tap: usize, count: u16, pos: &mut [u16], neg: &mut [u16]) {
        let mask = &self.pos_mask[tap * self.lanes..(tap + 1) * self.lanes];
        for ((pd, nd), &m) in pos.iter_mut().zip(neg.iter_mut()).zip(mask) {
            let to_pos = count & m;
            *pd = to_pos;
            *nd = count - to_pos;
        }
    }
}

/// A multi-lane TFF adder tree folded in `u16` lanes.
///
/// Holds the live tap rows (`lanes` counts per row) plus the fold
/// scratch. Per node and lane the op is `(x + y + S0) >> 1` — exactly
/// [`scnn_sim::TffAdder::add_count`] for both rounding directions — and
/// nodes are numbered breadth-first as in [`scnn_sim::TffAdderTree`], so
/// each lane's root equals
/// [`TffAdderTree::fold_counts`](scnn_sim::TffAdderTree::fold_counts) on
/// that lane's taps (property-tested in `scnn-core`).
///
/// [`fold`](Self::fold) walks only the **live prefix** of each level: the
/// padded tail above `taps` is all-zero by construction (a zero pair folds
/// to zero under either rounding direction), so the tree never touches it
/// — neither the ~20 % dead nodes a 784-tap tree used to fold, nor the
/// dead entry rows it used to allocate and re-zero.
///
/// Reuse contract: [`fold`](Self::fold) dirties entry rows below
/// `taps.div_ceil(4) + 1`, which is always less than `taps` for multi-tap
/// trees; a caller that rewrites **every** tap's lanes (via
/// [`tap_lanes_mut`](Self::tap_lanes_mut)) before each fold keeps the
/// zero rows beyond the live prefix intact and may reuse one tree across
/// windows.
///
/// Count ceiling: the per-node transient `x + y + S0` lives in a 16-bit
/// lane, so every leaf count must satisfy `2·count + 1 ≤ u16::MAX`
/// ([`MAX_LEAF_COUNT`], streams of 14-bit precision and under). The
/// constructor **rejects** a declared `max_leaf_count` beyond the ceiling
/// — release builds cannot wrap silently — and [`fold`](Self::fold) still
/// debug-asserts the loaded counts.
#[derive(Debug, Clone)]
pub struct LaneTree {
    taps: usize,
    lanes: usize,
    padded: usize,
    policy: S0Policy,
    /// `round_even(taps) × lanes` tap counts; rows beyond `taps` are zero
    /// and stay zero (the live-prefix invariant).
    entry: Vec<u16>,
    /// `round_even(taps.div_ceil(2)).max(1) × lanes` fold scratch.
    scratch: Vec<u16>,
    root: Vec<u16>,
}

impl LaneTree {
    /// A tree over `taps` leaves (logically padded to the next power of
    /// two) carrying `lanes` independent sums, accepting leaf counts up to
    /// `max_leaf_count`.
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
        Ok(Self {
            taps,
            lanes,
            padded: taps.next_power_of_two(),
            policy,
            entry: vec![0; round_even(taps) * lanes],
            scratch: vec![0; round_even(taps.div_ceil(2)).max(1) * lanes],
            root: vec![0; lanes],
        })
    }

    /// The padded tree width (the scale factor of the scaled sum).
    pub fn scale(&self) -> usize {
        self.padded
    }

    /// Leaves of the tree.
    pub fn taps(&self) -> usize {
        self.taps
    }

    /// Lanes carried per node.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Mutable lane row of tap `tap` — fill these with the leaf counts
    /// (via [`LevelCountTable::gather`] or directly).
    ///
    /// # Panics
    ///
    /// Panics if `tap` is out of range.
    #[inline]
    pub fn tap_lanes_mut(&mut self, tap: usize) -> &mut [u16] {
        assert!(tap < self.taps, "tap out of range");
        &mut self.entry[tap * self.lanes..(tap + 1) * self.lanes]
    }

    /// Folds the tree bottom-up over the live prefix of each level and
    /// returns the root row (one count per lane).
    ///
    /// Debug-asserts the leaf-count ceiling the constructor declared.
    pub fn fold(&mut self) -> &[u16] {
        self.fold_with(None)
    }

    /// [`fold`](Self::fold) with a stuck-at fault: node `node` (numbered
    /// breadth-first, bottom-up, as in [`scnn_sim::TffAdderTree`]) emits
    /// `value` in every lane instead of its computed output — the count-
    /// domain image of a TFF column stuck at constant 0s (`value = 0`) or
    /// 1s (`value = N`), systematic across the kernel bank.
    ///
    /// `node` must be a **live** node of this tree shape (see
    /// [`live_fold_node`]): the fold never computes the all-zero padded
    /// tail, so a defect there has no dataflow to intervene on. The
    /// engines validate sites at construction; here a dead or out-of-range
    /// node simply never matches and the fold equals [`fold`](Self::fold).
    pub fn fold_stuck(&mut self, node: usize, value: u16) -> &[u16] {
        self.fold_with(Some((node, value)))
    }

    fn fold_with(&mut self, stuck: Option<(usize, u16)>) -> &[u16] {
        debug_assert!(
            self.entry.iter().all(|&c| c <= MAX_LEAF_COUNT),
            "LaneTree leaf counts must satisfy 2·count + 1 ≤ u16::MAX"
        );
        let rw = self.lanes;
        let mut width = self.padded;
        let mut live = self.taps;
        let mut node_base = 0usize;
        let mut cur: &mut [u16] = &mut self.entry;
        let mut nxt: &mut [u16] = &mut self.scratch;
        while width > 1 {
            let pairs = live.div_ceil(2);
            for i in 0..pairs {
                let dst = &mut nxt[i * rw..(i + 1) * rw];
                match stuck {
                    Some((node, value)) if node == node_base + i => dst.fill(value),
                    _ => {
                        let s0 = self.policy.state_for(node_base + i);
                        let (left, right) = cur[2 * i * rw..(2 * i + 2) * rw].split_at(rw);
                        for ((d, &x), &y) in dst.iter_mut().zip(left).zip(right) {
                            *d = tff_node(x, y, s0);
                        }
                    }
                }
            }
            // Dead pairs fold zeros to zero under either rounding
            // direction, so only the node *numbering* must account for
            // them: the next level starts `width / 2` nodes further on.
            // An odd live prefix makes the next level read one row past
            // the written prefix — keep that boundary row zero (in the
            // entry buffer it may hold stale tap data from the caller).
            if pairs % 2 == 1 && width > 2 {
                nxt[pairs * rw..(pairs + 1) * rw].fill(0);
            }
            node_base += width / 2;
            width /= 2;
            live = pairs;
            std::mem::swap(&mut cur, &mut nxt);
        }
        self.root.copy_from_slice(&cur[..rw]);
        &self.root
    }

    /// Sums the tap rows lane-wise into the root — the MUX tree's
    /// reduction over [`mux_route_masks`]-masked counts, where each cycle
    /// reaches the root through exactly one tap. The caller guarantees
    /// every lane's sum stays below `2¹⁶` (route-masked counts of one tree
    /// add up to at most the stream length).
    pub fn sum(&mut self) -> &[u16] {
        let rw = self.lanes;
        self.root.fill(0);
        for row in self.entry[..self.taps * rw].chunks_exact(rw) {
            for (r, &c) in self.root.iter_mut().zip(row) {
                *r = r.wrapping_add(c);
            }
        }
        &self.root
    }

    /// The root count of lane `lane` from the last [`fold`](Self::fold)
    /// or [`sum`](Self::sum).
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    #[inline]
    pub fn root_lane(&self, lane: usize) -> u16 {
        self.root[lane]
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

    #[test]
    fn lane_tree_matches_reference_tree_per_lane() {
        for taps in [1usize, 3, 7, 25, 30] {
            for policy in POLICIES {
                let lanes = 9;
                let mut tree = LaneTree::new(taps, lanes, policy, 64).unwrap();
                let reference = TffAdderTree::new(taps, policy).unwrap();
                let mut per_lane = vec![vec![0u64; taps]; lanes];
                #[allow(clippy::needless_range_loop)]
                for t in 0..taps {
                    let row = tree.tap_lanes_mut(t);
                    for lane in 0..lanes {
                        let c = ((t * 31 + lane * 17 + 5) % 64) as u64;
                        row[lane] = c as u16;
                        per_lane[lane][t] = c;
                    }
                }
                tree.fold();
                for (lane, counts) in per_lane.iter().enumerate() {
                    assert_eq!(
                        u64::from(tree.root_lane(lane)),
                        reference.fold_counts(counts),
                        "taps={taps} lane={lane} policy={policy:?}"
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
            let mut scalar = vec![vec![0u64; taps]; lanes];
            for t in 0..taps {
                let row = tree.tap_lanes_mut(t);
                for (lane, counts) in scalar.iter_mut().enumerate() {
                    let c = ((t * 29 + lane * 1031 + 3) % 32000) as u64;
                    row[lane] = c as u16;
                    counts[t] = c;
                }
            }
            tree.fold();
            for (lane, counts) in scalar.iter_mut().enumerate() {
                assert_eq!(
                    u64::from(tree.root_lane(lane)),
                    fold_tree_counts_wide(policy, counts, None),
                    "lane={lane} policy={policy:?}"
                );
            }
        }
    }

    #[test]
    fn lane_tree_is_reusable_without_residue() {
        // Second fold over fresh taps must equal a fresh tree's fold.
        let fill = |tree: &mut LaneTree| {
            for t in 0..25 {
                let row = tree.tap_lanes_mut(t);
                for (lane, c) in row.iter_mut().enumerate() {
                    *c = (t + lane) as u16 % 9;
                }
            }
        };
        let mut tree = LaneTree::new(25, 3, S0Policy::Alternating, 16).unwrap();
        for t in 0..25 {
            tree.tap_lanes_mut(t).fill(7);
        }
        let _ = tree.fold();
        fill(&mut tree);
        let second = tree.fold().to_vec();
        let mut fresh = LaneTree::new(25, 3, S0Policy::Alternating, 16).unwrap();
        fill(&mut fresh);
        assert_eq!(second, fresh.fold());
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
        let mut pos = vec![0u16; lanes];
        let mut neg_out = vec![0u16; lanes];
        for level in [0usize, 1, 16, 32] {
            level_stream.write_from_levels(0, &s, level as u64);
            for t in 0..taps {
                table.gather(level, t, &mut pos, &mut neg_out);
                for lane in 0..lanes {
                    let idx = lane * taps + t;
                    let expect = and_count(level_stream.stream(0), weights.stream(idx)) as u16;
                    let want = if neg[idx] { (0, expect) } else { (expect, 0) };
                    assert_eq!(table.count(level, t, lane), expect);
                    assert_eq!((pos[lane], neg_out[lane]), want, "level={level} t={t} lane={lane}");
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
        let (taps, lanes, n) = (25usize, 5usize, 64usize);
        for policy in [S0Policy::AllZero, S0Policy::AllOne, S0Policy::Alternating] {
            for value in [0u16, 17, n as u16] {
                for node in (0..31).filter(|&nd| live_fold_node(taps, nd)) {
                    let mut tree = LaneTree::new(taps, lanes, policy, n).unwrap();
                    let mut scalar = vec![vec![0u64; taps.next_power_of_two()]; lanes];
                    #[allow(clippy::needless_range_loop)]
                    for t in 0..taps {
                        let row = tree.tap_lanes_mut(t);
                        for lane in 0..lanes {
                            let c = ((t * 7 + lane * 13) % (n + 1)) as u16;
                            row[lane] = c;
                            scalar[lane][t] = u64::from(c);
                        }
                    }
                    tree.fold_stuck(node, value);
                    for (lane, counts) in scalar.iter().enumerate() {
                        let stuck = Some((node, u64::from(value)));
                        let want = fold_tree_counts_wide(policy, &mut counts.clone(), stuck);
                        assert_eq!(
                            u64::from(tree.root_lane(lane)),
                            want,
                            "policy={policy:?} node={node} value={value} lane={lane}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn fold_stuck_without_a_matching_node_equals_fold() {
        let (taps, lanes, n) = (25usize, 3usize, 64usize);
        let mut a = LaneTree::new(taps, lanes, S0Policy::Alternating, n).unwrap();
        let mut b = a.clone();
        for t in 0..taps {
            for lane in 0..lanes {
                let c = ((t * 11 + lane * 5) % (n + 1)) as u16;
                a.tap_lanes_mut(t)[lane] = c;
                b.tap_lanes_mut(t)[lane] = c;
            }
        }
        // Node 13 is dead for a 25-tap tree; an out-of-range index too.
        assert_eq!(a.fold().to_vec(), b.fold_stuck(13, 50).to_vec());
        assert_eq!(a.fold().to_vec(), b.fold_stuck(1000, 50).to_vec());
    }

    #[test]
    fn split_by_sign_routes_uniform_counts_by_weight_sign() {
        let n = 16;
        let seq = crate::SourceKind::Ramp.sequence(4, n, 1).unwrap();
        let (taps, lanes) = (3usize, 5usize);
        let mut weights = StreamArena::new(taps * lanes, n).unwrap();
        let mut neg = vec![false; taps * lanes];
        for (i, n) in neg.iter_mut().enumerate() {
            weights.write_from_levels(i, &seq, (i as u64 * 5) % 17);
            *n = i % 3 == 1;
        }
        let table = LevelCountTable::build(&seq, &weights, &neg, taps, lanes).unwrap();
        let mut pos = vec![0u16; lanes];
        let mut neg_row = vec![0u16; lanes];
        for t in 0..taps {
            table.split_by_sign(t, n as u16, &mut pos, &mut neg_row);
            for lane in 0..lanes {
                let want = if neg[lane * taps + t] { (0, n as u16) } else { (n as u16, 0) };
                assert_eq!((pos[lane], neg_row[lane]), want, "tap={t} lane={lane}");
            }
        }
    }
}
