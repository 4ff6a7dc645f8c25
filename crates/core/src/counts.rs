//! The shared count-domain engine core, generic over the lane word.
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
//!   into a table gather. Used by the convolution engine (PR 2) and the
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
//! * [`WindowCache`] — window memoization above the fold: a bounded,
//!   sharded LRU keyed by the quantized window level pattern whose value
//!   is the full per-kernel pos/neg root-count output, so a repeated
//!   window (backgrounds, recurring edges) skips the fold and the
//!   [`ScratchPool`] checkout entirely. Enabled per engine via
//!   [`WindowCacheMode`].
//!
//! # Lane words
//!
//! Both count structures are generic over a [`LaneWord`] `W` — a packed
//! machine word of 16-bit count lanes, modeled on `hi_sparse_bitset`'s
//! `BitBlock` trait over generic words. `u16` carries one lane (the
//! original engine), `u32` two, `u64` four and `u128` eight, so one fold
//! implementation serves 4–8× wider words: every per-node
//! `(x + y + S0) >> 1` then retires that many lanes per instruction. The
//! default word is `u16` for source compatibility; the engines resolve
//! [`LaneWidth::Auto`] to `u64`, the widest natively-arithmetic word.
//!
//! Two further wastes of the original `u16` engine are gone in the same
//! rewrite: [`LaneTree::fold`] walks only the **live prefix** of each tree
//! level (the padded tail above `taps` is all-zero by construction — ~20 %
//! of the nodes at 784 taps), and the per-call `entry`/`scratch` buffers
//! are checked out of a per-thread [`ScratchPool`] instead of being
//! reallocated by every `forward`.
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
//! // Both lanes fit one u64 word; the fold retires them per instruction.
//! let table = LevelCountTable::<u64>::build(&seq, &weights, &neg, 3, 2)?;
//! let mut pos = LaneTree::<u64>::new(3, 2, S0Policy::Alternating, n)?;
//! let mut neg_tree = LaneTree::<u64>::new(3, 2, S0Policy::Alternating, n)?;
//! for tap in 0..3 {
//!     table.gather(9, tap, pos.tap_lanes_mut(tap), neg_tree.tap_lanes_mut(tap));
//! }
//! pos.fold();
//! // One scaled sum per logical lane, extracted from the packed root.
//! let (lane0, lane1) = (pos.root_lane(0), pos.root_lane(1));
//! assert!(u64::from(lane0.max(lane1)) <= 16);
//! # Ok(())
//! # }
//! ```

use crate::arena::{and_count, StreamArena};
use crate::Error;
use scnn_sim::S0Policy;
use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::Mutex;

/// Upper bound on AND-count table entries (`(2^b + 1) · taps · lanes`);
/// configurations above it fall back to the streaming engines.
pub const MAX_LUT_ENTRIES: usize = 1 << 24;

/// Trees kept per word width in each thread's [`ScratchPool`]; checkouts
/// beyond the cap simply allocate and are dropped on return.
const POOL_CAP: usize = 8;

mod sealed {
    /// Seals [`LaneWord`](super::LaneWord): the fold's cross-lane carry
    /// argument is only audited for the four packed words implemented
    /// here, so foreign impls are not accepted.
    pub trait Sealed {}
}

/// A packed machine word of 16-bit count lanes — the unit the generic
/// count-domain fold operates on.
///
/// Modeled on `hi_sparse_bitset`'s `BitBlock` trait over generic words:
/// the same fold implementation runs over `u16` (one lane), `u32` (two),
/// `u64` (four) and `u128` (eight lanes). The trait is **sealed** — the
/// per-node arithmetic below is only sound under the lane-ceiling
/// invariant these four impls enforce.
///
/// # The in-lane widening argument
///
/// A TFF tree node computes `(x + y + S0) >> 1` per lane. With every leaf
/// count at most [`MAX_LEAF_COUNT`](Self::MAX_LEAF_COUNT) `= 32767`, the
/// transient `x + y + S0 ≤ 65535` still fits the 16-bit lane, so the
/// word-wide add never carries across a lane boundary — the widening add
/// stays in-lane and one `wrapping_add` retires [`LANES`](Self::LANES)
/// nodes. The shift leaks each lane's LSB into its lower neighbour's MSB;
/// masking with per-lane `0x7FFF` restores exactness because the true
/// result `≤ 32767` needs only 15 bits. [`LaneTree::new`] rejects
/// configurations whose declared maximum leaf count breaks the invariant.
///
/// # Example
///
/// ```
/// use scnn_core::counts::LaneWord;
///
/// let mut w = <u64 as LaneWord>::splat(9);
/// assert_eq!(<u64 as LaneWord>::LANES, 4);
/// assert_eq!(w.lane(3), 9);
/// w.set_lane(1, 700);
/// assert_eq!(w.lane(1), 700);
/// // One instruction folds all four lanes: (9 + 9 + 1) >> 1 = 9.
/// let folded = <u64 as LaneWord>::tff_node(w, w, true);
/// assert_eq!(folded.lane(0), 9);
/// assert_eq!(folded.lane(1), 700);
/// ```
pub trait LaneWord:
    sealed::Sealed + Copy + PartialEq + Eq + fmt::Debug + Send + Sync + 'static
{
    /// The all-zero word (every lane count 0).
    const ZERO: Self;
    /// Number of 16-bit count lanes packed in one word.
    const LANES: usize;
    /// Largest leaf count a lane may carry without the fold's transient
    /// `2·count + 1` overflowing the lane: `(2¹⁶ − 1 − 1) / 2 = 32767`,
    /// i.e. streams of 14-bit precision and under.
    const MAX_LEAF_COUNT: u16;
    /// The [`LaneWidth`] tag naming this word.
    const WIDTH: LaneWidth;
    #[doc(hidden)]
    const ONES: Self;
    #[doc(hidden)]
    const HALF_MASK: Self;
    #[doc(hidden)]
    const TOP_BITS: Self;

    /// Broadcasts one count into every lane.
    fn splat(count: u16) -> Self;
    /// Reads lane `lane` (0-based from the least significant end).
    fn lane(self, lane: usize) -> u16;
    /// Writes lane `lane`.
    fn set_lane(&mut self, lane: usize, count: u16);
    /// One TFF adder node, all lanes at once: per lane
    /// `(x + y + S0) >> 1` — exactly [`scnn_sim::TffAdder::add_count`]
    /// for both rounding directions.
    fn tff_node(x: Self, y: Self, s0: bool) -> Self;
    /// Lane-wise AND (used with all-ones/all-zero lane masks).
    fn and(self, mask: Self) -> Self;
    /// Lane-wise subtraction; the caller guarantees `rhs ≤ self` in every
    /// lane, so no borrow crosses a lane boundary.
    fn lane_sub(self, rhs: Self) -> Self;
    /// Lane-wise addition; the caller guarantees `self + rhs < 2¹⁶` in
    /// every lane, so no carry crosses a lane boundary. The count-domain
    /// fault injector relies on this with both sides ≤ the stream length
    /// `N ≤ 32767`.
    fn lane_add(self, rhs: Self) -> Self;
    #[doc(hidden)]
    fn pool_bucket(pool: &mut ScratchPool) -> &mut Vec<LaneTree<Self>>;
}

macro_rules! impl_lane_word {
    ($ty:ty, $width:expr, $bucket:ident) => {
        impl sealed::Sealed for $ty {}

        impl LaneWord for $ty {
            const ZERO: Self = 0;
            const LANES: usize = std::mem::size_of::<$ty>() / 2;
            const MAX_LEAF_COUNT: u16 = (u16::MAX - 1) / 2;
            const WIDTH: LaneWidth = $width;
            // 0x0001_0001…: one set bit per 16-bit lane.
            const ONES: Self = <$ty>::MAX / 0xFFFF;
            const HALF_MASK: Self = Self::ONES.wrapping_mul(0x7FFF);
            const TOP_BITS: Self = Self::ONES.wrapping_mul(0x8000);

            #[inline]
            fn splat(count: u16) -> Self {
                Self::ONES.wrapping_mul(count as $ty)
            }

            #[inline]
            fn lane(self, lane: usize) -> u16 {
                debug_assert!(lane < Self::LANES, "lane index out of range");
                (self >> (lane * 16)) as u16
            }

            #[inline]
            fn set_lane(&mut self, lane: usize, count: u16) {
                debug_assert!(lane < Self::LANES, "lane index out of range");
                let shift = lane * 16;
                *self = (*self & !((0xFFFF as $ty) << shift)) | ((count as $ty) << shift);
            }

            #[inline]
            fn tff_node(x: Self, y: Self, s0: bool) -> Self {
                let carry_in = if s0 { Self::ONES } else { 0 };
                let sum = x.wrapping_add(y).wrapping_add(carry_in);
                (sum >> 1) & Self::HALF_MASK
            }

            #[inline]
            fn and(self, mask: Self) -> Self {
                self & mask
            }

            #[inline]
            fn lane_sub(self, rhs: Self) -> Self {
                self.wrapping_sub(rhs)
            }

            #[inline]
            fn lane_add(self, rhs: Self) -> Self {
                self.wrapping_add(rhs)
            }

            fn pool_bucket(pool: &mut ScratchPool) -> &mut Vec<LaneTree<Self>> {
                &mut pool.$bucket
            }
        }
    };
}

impl_lane_word!(u16, LaneWidth::U16, trees_u16);
impl_lane_word!(u32, LaneWidth::U32, trees_u32);
impl_lane_word!(u64, LaneWidth::U64, trees_u64);
impl_lane_word!(u128, LaneWidth::U128, trees_u128);

/// Which [`LaneWord`] a count-domain engine folds with.
///
/// `Auto` (the default, and what every [`ScenarioSpec`](crate::ScenarioSpec)
/// preset uses) resolves to `u64` — the widest word with native single-
/// instruction arithmetic — whenever the count table is available, and
/// falls back to the streaming engines otherwise. The explicit widths pin
/// the word and turn the silent fallback into a configuration error, which
/// is what benches and width-sweep experiments want.
///
/// Every width packs **16-bit lanes**, so they share one count ceiling
/// ([`LaneWord::MAX_LEAF_COUNT`]): a precision whose stream length exceeds
/// it (15- and 16-bit streams) can overflow a lane and is rejected at
/// validation rather than wrapped at runtime.
///
/// # Example
///
/// ```
/// use scnn_core::counts::LaneWidth;
///
/// assert_eq!(LaneWidth::Auto.resolve(), LaneWidth::U64);
/// assert_eq!(LaneWidth::U128.lanes_per_word(), 8);
/// // 8-bit streams (256 counts) fit every width…
/// assert!(LaneWidth::U32.supports_counts_to(256));
/// // …16-bit streams overflow the shared 16-bit lane ceiling.
/// assert!(!LaneWidth::U32.supports_counts_to(1 << 16));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[non_exhaustive]
pub enum LaneWidth {
    /// Let the engine pick: `u64` when the count-domain path is available.
    #[default]
    Auto,
    /// One 16-bit lane per word — the original scalar engine.
    U16,
    /// Two lanes per `u32` word.
    U32,
    /// Four lanes per `u64` word (what `Auto` resolves to).
    U64,
    /// Eight lanes per `u128` word (two-word synthesized arithmetic on
    /// 64-bit targets, but half the memory traffic per lane).
    U128,
}

impl LaneWidth {
    /// The concrete width `Auto` stands for.
    pub fn resolve(self) -> LaneWidth {
        match self {
            LaneWidth::Auto => LaneWidth::U64,
            other => other,
        }
    }

    /// 16-bit lanes per word of the resolved width.
    pub fn lanes_per_word(self) -> usize {
        match self.resolve() {
            LaneWidth::U16 => 1,
            LaneWidth::U32 => 2,
            LaneWidth::U64 => 4,
            LaneWidth::U128 => 8,
            LaneWidth::Auto => unreachable!("resolve never returns Auto"),
        }
    }

    /// Short lower-case name (`"auto"`, `"u16"`, …) used in bench keys and
    /// error messages.
    pub fn name(self) -> &'static str {
        match self {
            LaneWidth::Auto => "auto",
            LaneWidth::U16 => "u16",
            LaneWidth::U32 => "u32",
            LaneWidth::U64 => "u64",
            LaneWidth::U128 => "u128",
        }
    }

    /// Whether leaf counts up to `max_leaf_count` fit this width's 16-bit
    /// lanes without the fold's transient overflowing
    /// ([`LaneWord::MAX_LEAF_COUNT`]).
    pub fn supports_counts_to(self, max_leaf_count: usize) -> bool {
        max_leaf_count <= usize::from((u16::MAX - 1) / 2)
    }
}

impl fmt::Display for LaneWidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Whether a level table for `n`-bit streams over `taps × lanes` weights
/// fits the memory budget *and* the 16-bit lane arithmetic (the fold's
/// transient `2n + 1` must fit a lane — the same bound for every
/// [`LaneWidth`]).
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

/// A level-indexed AND-count table with positive/negative lane masks,
/// packed in [`LaneWord`]s.
///
/// Layout: `count(stream(level) ∧ weight(lane, tap))` is stored tap-major
/// at `[level][tap][lane]`, each tap row packed into
/// `lanes.div_ceil(W::LANES)` words so one tap's [`gather`](Self::gather)
/// reads a contiguous word row shared by every lane. Weight streams and
/// signs are supplied **lane-major** (`lane · taps + tap`), the natural
/// layout of both the convolution engine (`kernel · ksize² + tap`) and the
/// dense engine (`neuron · in_features + input`).
///
/// The default word is `u16` — the pre-generic layout; the engines build
/// wider tables through [`AnyLevelCountTable`].
#[derive(Debug, Clone)]
pub struct LevelCountTable<W: LaneWord = u16> {
    taps: usize,
    lanes: usize,
    /// Packed words per tap row: `lanes.div_ceil(W::LANES)`.
    row_words: usize,
    /// `(n + 1) × taps × row_words` packed counts.
    lut: Vec<W>,
    /// Per-`(tap, lane)` mask word row: lane all-ones where the weight
    /// feeds the positive tree, all-zero where it feeds the negative.
    pos_mask: Vec<W>,
}

impl<W: LaneWord> LevelCountTable<W> {
    /// Whether a table for `n`-bit streams over `taps × lanes` weights
    /// fits the budget — see [`table_fits`].
    pub fn fits(n: usize, taps: usize, lanes: usize) -> bool {
        table_fits(n, taps, lanes)
    }

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
    /// configuration fails [`fits`](Self::fits).
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
        assert!(Self::fits(n, taps, lanes), "table exceeds the count-domain budget");
        let levels = n + 1;
        let row_words = lanes.div_ceil(W::LANES);
        let mut lut = vec![W::ZERO; levels * taps * row_words];
        let mut level_stream = StreamArena::new(1, n)?;
        for level in 0..levels {
            level_stream.write_from_levels(0, seq, level as u64);
            let row = &mut lut[level * taps * row_words..(level + 1) * taps * row_words];
            for t in 0..taps {
                for lane in 0..lanes {
                    let count =
                        and_count(level_stream.stream(0), weight_streams.stream(lane * taps + t));
                    row[t * row_words + lane / W::LANES].set_lane(lane % W::LANES, count as u16);
                }
            }
        }
        let mut pos_mask = vec![W::ZERO; taps * row_words];
        for t in 0..taps {
            for lane in 0..lanes {
                if !weight_neg[lane * taps + t] {
                    pos_mask[t * row_words + lane / W::LANES].set_lane(lane % W::LANES, u16::MAX);
                }
            }
        }
        Ok(Self { taps, lanes, row_words, lut, pos_mask })
    }

    /// Logical lanes per tap row.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Taps per lane.
    pub fn taps(&self) -> usize {
        self.taps
    }

    /// Packed words per tap row (`lanes.div_ceil(W::LANES)`) — the length
    /// [`gather`](Self::gather) expects of its output slices.
    pub fn row_words(&self) -> usize {
        self.row_words
    }

    /// One stored count, unpacked (test and diagnostic access).
    ///
    /// # Panics
    ///
    /// Panics if `level`, `tap` or `lane` is out of range.
    pub fn count(&self, level: usize, tap: usize, lane: usize) -> u16 {
        assert!(lane < self.lanes, "lane out of range");
        self.lut[(level * self.taps + tap) * self.row_words + lane / W::LANES].lane(lane % W::LANES)
    }

    /// Splits one (level, tap) word row into the positive and negative
    /// tree inputs: lanes whose weight is positive receive the count in
    /// `pos` (and `0` in `neg`), negative lanes the other way around.
    ///
    /// # Panics
    ///
    /// Panics if `level`/`tap` are out of range or the slices are shorter
    /// than [`row_words`](Self::row_words).
    #[inline]
    pub fn gather(&self, level: usize, tap: usize, pos: &mut [W], neg: &mut [W]) {
        let row = &self.lut[(level * self.taps + tap) * self.row_words..][..self.row_words];
        let mask = &self.pos_mask[tap * self.row_words..(tap + 1) * self.row_words];
        for (((pd, nd), &c), &m) in pos.iter_mut().zip(neg.iter_mut()).zip(row).zip(mask) {
            let to_pos = c.and(m);
            *pd = to_pos;
            *nd = c.lane_sub(to_pos);
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
    /// [`row_words`](Self::row_words).
    #[inline]
    pub fn split_by_sign(&self, tap: usize, count: u16, pos: &mut [W], neg: &mut [W]) {
        let mask = &self.pos_mask[tap * self.row_words..(tap + 1) * self.row_words];
        let c = W::splat(count);
        for ((pd, nd), &m) in pos.iter_mut().zip(neg.iter_mut()).zip(mask) {
            let to_pos = c.and(m);
            *pd = to_pos;
            *nd = c.lane_sub(to_pos);
        }
    }
}

/// A [`LevelCountTable`] of runtime-selected [`LaneWidth`] — the engines
/// pick the word per [`ScenarioSpec`](crate::ScenarioSpec) and dispatch
/// each forward through one `match` into the monomorphized fold.
#[derive(Debug, Clone)]
pub enum AnyLevelCountTable {
    /// One 16-bit lane per word.
    U16(LevelCountTable<u16>),
    /// Two lanes per word.
    U32(LevelCountTable<u32>),
    /// Four lanes per word.
    U64(LevelCountTable<u64>),
    /// Eight lanes per word.
    U128(LevelCountTable<u128>),
}

impl AnyLevelCountTable {
    /// Builds a table of the given width ([`LaneWidth::Auto`] resolves to
    /// `u64`); arguments as in [`LevelCountTable::build`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] when the stream length's counts overflow
    /// the width's 16-bit lanes; propagates construction errors.
    pub fn build(
        width: LaneWidth,
        seq: &[u64],
        weight_streams: &StreamArena,
        weight_neg: &[bool],
        taps: usize,
        lanes: usize,
    ) -> Result<Self, Error> {
        if !width.supports_counts_to(seq.len()) {
            return Err(Error::config(format!(
                "stream counts up to {} overflow the 16-bit lanes of lane width {}",
                seq.len(),
                width
            )));
        }
        Ok(match width.resolve() {
            LaneWidth::U16 => {
                Self::U16(LevelCountTable::build(seq, weight_streams, weight_neg, taps, lanes)?)
            }
            LaneWidth::U32 => {
                Self::U32(LevelCountTable::build(seq, weight_streams, weight_neg, taps, lanes)?)
            }
            LaneWidth::U64 => {
                Self::U64(LevelCountTable::build(seq, weight_streams, weight_neg, taps, lanes)?)
            }
            LaneWidth::U128 => {
                Self::U128(LevelCountTable::build(seq, weight_streams, weight_neg, taps, lanes)?)
            }
            LaneWidth::Auto => unreachable!("resolve never returns Auto"),
        })
    }

    /// The concrete width of the stored table (never `Auto`).
    pub fn width(&self) -> LaneWidth {
        match self {
            Self::U16(_) => LaneWidth::U16,
            Self::U32(_) => LaneWidth::U32,
            Self::U64(_) => LaneWidth::U64,
            Self::U128(_) => LaneWidth::U128,
        }
    }
}

/// A multi-lane TFF adder tree folded in packed [`LaneWord`] lanes.
///
/// Holds the live tap rows (packed `lanes.div_ceil(W::LANES)` words per
/// row) plus the fold scratch. Per node the lane op is
/// [`LaneWord::tff_node`] — exactly [`scnn_sim::TffAdder::add_count`] for
/// both rounding directions — and nodes are numbered breadth-first as in
/// [`scnn_sim::TffAdderTree`], so each lane's root equals
/// [`TffAdderTree::fold_counts`](scnn_sim::TffAdderTree::fold_counts) on
/// that lane's taps (property-tested in `scnn-core` for every word).
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
/// windows. [`ScratchPool::checkout`] hands out exactly such reusable
/// trees.
///
/// Count ceiling: the per-node transient `x + y + S0` lives in a 16-bit
/// lane, so every leaf count must satisfy `2·count + 1 ≤ u16::MAX`
/// ([`LaneWord::MAX_LEAF_COUNT`], streams of 14-bit precision and under).
/// The constructor **rejects** a declared `max_leaf_count` beyond the
/// ceiling — release builds can no longer wrap silently — and
/// [`fold`](Self::fold) still debug-asserts the loaded counts.
#[derive(Debug, Clone)]
pub struct LaneTree<W: LaneWord = u16> {
    taps: usize,
    lanes: usize,
    row_words: usize,
    padded: usize,
    policy: S0Policy,
    /// `round_even(taps) × row_words` packed tap counts; rows beyond
    /// `taps` are zero and stay zero (the live-prefix invariant).
    entry: Vec<W>,
    /// `round_even(taps.div_ceil(2)).max(1) × row_words` fold scratch.
    scratch: Vec<W>,
    root: Vec<W>,
}

impl<W: LaneWord> LaneTree<W> {
    /// A tree over `taps` leaves (logically padded to the next power of
    /// two) carrying `lanes` independent sums, accepting leaf counts up to
    /// `max_leaf_count`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] if `taps` or `lanes` is zero, or if
    /// `max_leaf_count` exceeds [`LaneWord::MAX_LEAF_COUNT`] (the fold's
    /// transient would wrap a 16-bit lane).
    pub fn new(
        taps: usize,
        lanes: usize,
        policy: S0Policy,
        max_leaf_count: usize,
    ) -> Result<Self, Error> {
        Self::validate(taps, lanes, max_leaf_count)?;
        let row_words = lanes.div_ceil(W::LANES);
        Ok(Self {
            taps,
            lanes,
            row_words,
            padded: taps.next_power_of_two(),
            policy,
            entry: vec![W::ZERO; round_even(taps) * row_words],
            scratch: vec![W::ZERO; round_even(taps.div_ceil(2)).max(1) * row_words],
            root: vec![W::ZERO; row_words],
        })
    }

    /// The shared constructor-time checks behind [`new`](Self::new) and
    /// pool reconfiguration.
    fn validate(taps: usize, lanes: usize, max_leaf_count: usize) -> Result<(), Error> {
        if taps == 0 || lanes == 0 {
            return Err(Error::config("LaneTree needs at least one tap and lane"));
        }
        if max_leaf_count > usize::from(W::MAX_LEAF_COUNT) {
            return Err(Error::config(format!(
                "leaf counts up to {max_leaf_count} overflow the 16-bit lanes of a {} tree \
                 (ceiling {})",
                W::WIDTH,
                W::MAX_LEAF_COUNT,
            )));
        }
        Ok(())
    }

    /// Reshapes a recycled tree in place, reusing its allocations. The
    /// buffers are re-zeroed so the live-prefix invariant holds afresh.
    fn reconfigure(
        &mut self,
        taps: usize,
        lanes: usize,
        policy: S0Policy,
        max_leaf_count: usize,
    ) -> Result<(), Error> {
        Self::validate(taps, lanes, max_leaf_count)?;
        self.taps = taps;
        self.lanes = lanes;
        self.row_words = lanes.div_ceil(W::LANES);
        self.padded = taps.next_power_of_two();
        self.policy = policy;
        self.entry.clear();
        self.entry.resize(round_even(taps) * self.row_words, W::ZERO);
        self.scratch.clear();
        self.scratch.resize(round_even(taps.div_ceil(2)).max(1) * self.row_words, W::ZERO);
        self.root.clear();
        self.root.resize(self.row_words, W::ZERO);
        Ok(())
    }

    /// The padded tree width (the scale factor of the scaled sum).
    pub fn scale(&self) -> usize {
        self.padded
    }

    /// Leaves of the tree.
    pub fn taps(&self) -> usize {
        self.taps
    }

    /// Logical lanes carried per node.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Packed words per row (`lanes.div_ceil(W::LANES)`).
    pub fn row_words(&self) -> usize {
        self.row_words
    }

    /// Mutable packed lane row of tap `tap` — fill these with the leaf
    /// counts (via [`LevelCountTable::gather`] or [`LaneWord::set_lane`]).
    ///
    /// # Panics
    ///
    /// Panics if `tap` is out of range.
    #[inline]
    pub fn tap_lanes_mut(&mut self, tap: usize) -> &mut [W] {
        assert!(tap < self.taps, "tap out of range");
        &mut self.entry[tap * self.row_words..(tap + 1) * self.row_words]
    }

    /// Folds the tree bottom-up over the live prefix of each level and
    /// returns the packed root row (one 16-bit lane per logical lane; see
    /// [`root_lane`](Self::root_lane) for scalar access).
    ///
    /// Debug-asserts the leaf-count ceiling the constructor declared.
    pub fn fold(&mut self) -> &[W] {
        debug_assert!(
            self.entry.iter().all(|w| w.and(W::TOP_BITS) == W::ZERO),
            "LaneTree leaf counts must satisfy 2·count + 1 ≤ u16::MAX"
        );
        let rw = self.row_words;
        let mut width = self.padded;
        let mut live = self.taps;
        let mut node_base = 0usize;
        let mut cur: &mut [W] = &mut self.entry;
        let mut nxt: &mut [W] = &mut self.scratch;
        while width > 1 {
            let pairs = live.div_ceil(2);
            for i in 0..pairs {
                let s0 = self.policy.state_for(node_base + i);
                let (left, right) = cur[2 * i * rw..(2 * i + 2) * rw].split_at(rw);
                let dst = &mut nxt[i * rw..(i + 1) * rw];
                for ((d, &x), &y) in dst.iter_mut().zip(left).zip(right) {
                    *d = W::tff_node(x, y, s0);
                }
            }
            // Dead pairs fold zeros to zero under either rounding
            // direction, so only the node *numbering* must account for
            // them: the next level starts `width / 2` nodes further on.
            // An odd live prefix makes the next level read one row past
            // the written prefix — keep that boundary row zero (in the
            // entry buffer it may hold stale tap data from the caller).
            if pairs % 2 == 1 && width > 2 {
                nxt[pairs * rw..(pairs + 1) * rw].fill(W::ZERO);
            }
            node_base += width / 2;
            width /= 2;
            live = pairs;
            std::mem::swap(&mut cur, &mut nxt);
        }
        self.root.copy_from_slice(&cur[..rw]);
        &self.root
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
    pub fn fold_stuck(&mut self, node: usize, value: u16) -> &[W] {
        debug_assert!(
            self.entry.iter().all(|w| w.and(W::TOP_BITS) == W::ZERO),
            "LaneTree leaf counts must satisfy 2·count + 1 ≤ u16::MAX"
        );
        let stuck = W::splat(value);
        let rw = self.row_words;
        let mut width = self.padded;
        let mut live = self.taps;
        let mut node_base = 0usize;
        let mut cur: &mut [W] = &mut self.entry;
        let mut nxt: &mut [W] = &mut self.scratch;
        while width > 1 {
            let pairs = live.div_ceil(2);
            for i in 0..pairs {
                let dst = &mut nxt[i * rw..(i + 1) * rw];
                if node_base + i == node {
                    dst.fill(stuck);
                    continue;
                }
                let s0 = self.policy.state_for(node_base + i);
                let (left, right) = cur[2 * i * rw..(2 * i + 2) * rw].split_at(rw);
                for ((d, &x), &y) in dst.iter_mut().zip(left).zip(right) {
                    *d = W::tff_node(x, y, s0);
                }
            }
            if pairs % 2 == 1 && width > 2 {
                nxt[pairs * rw..(pairs + 1) * rw].fill(W::ZERO);
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
    /// add up to at most the stream length), so no carry crosses a lane.
    pub fn sum(&mut self) -> &[W] {
        let rw = self.row_words;
        self.root.fill(W::ZERO);
        for row in self.entry[..self.taps * rw].chunks_exact(rw) {
            for (r, &c) in self.root.iter_mut().zip(row) {
                *r = r.lane_add(c);
            }
        }
        &self.root
    }

    /// The root count of logical lane `lane` from the last
    /// [`fold`](Self::fold) or [`sum`](Self::sum).
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    #[inline]
    pub fn root_lane(&self, lane: usize) -> u16 {
        assert!(lane < self.lanes, "lane out of range");
        self.root[lane / W::LANES].lane(lane % W::LANES)
    }
}

/// The generic scalar-shaped closed-form TFF tree fold: folds a padded
/// (power-of-two length) buffer of packed [`LaneWord`]s in place, lane-
/// wise, and returns the root word. Node numbering matches
/// [`scnn_sim::TffAdderTree`] exactly, so each 16-bit lane folds
/// independently and bit-exactly.
///
/// Counts must respect [`LaneWord::MAX_LEAF_COUNT`] per lane; for the
/// streaming engines' wide scalar counts (15- and 16-bit streams) use
/// [`fold_tree_counts_wide`].
///
/// # Panics
///
/// Debug-panics if `counts.len()` is not a power of two.
pub fn fold_tree_counts<W: LaneWord>(policy: S0Policy, counts: &mut [W]) -> W {
    debug_assert!(counts.len().is_power_of_two(), "fold needs the padded tree width");
    let mut width = counts.len();
    let mut node = 0usize;
    while width > 1 {
        for i in 0..width / 2 {
            counts[i] = W::tff_node(counts[2 * i], counts[2 * i + 1], policy.state_for(node));
            node += 1;
        }
        width /= 2;
    }
    counts[0]
}

/// The wide scalar TFF tree fold used by the bit-level streaming engines:
/// each element is one `u64` count with no lane packing, so counts beyond
/// the 16-bit lane ceiling (15- and 16-bit streams) fold exactly. Node
/// numbering matches [`scnn_sim::TffAdderTree`].
///
/// # Panics
///
/// Debug-panics if `counts.len()` is not a power of two.
pub fn fold_tree_counts_wide(policy: S0Policy, counts: &mut [u64]) -> u64 {
    debug_assert!(counts.len().is_power_of_two(), "fold needs the padded tree width");
    let mut width = counts.len();
    let mut node = 0usize;
    while width > 1 {
        for i in 0..width / 2 {
            let sum = counts[2 * i] + counts[2 * i + 1];
            counts[i] = if policy.state_for(node) { sum.div_ceil(2) } else { sum / 2 };
            node += 1;
        }
        width /= 2;
    }
    counts[0]
}

/// [`fold_tree_counts_wide`] with a stuck-at fault: node `stuck_node`
/// emits `value` instead of its computed output — the scalar twin of
/// [`LaneTree::fold_stuck`], used by the streaming engine so both paths
/// share one defect semantics (bit-exactness is property-tested).
///
/// # Panics
///
/// Debug-panics if `counts.len()` is not a power of two.
pub fn fold_tree_counts_wide_stuck(
    policy: S0Policy,
    counts: &mut [u64],
    stuck_node: usize,
    value: u64,
) -> u64 {
    debug_assert!(counts.len().is_power_of_two(), "fold needs the padded tree width");
    let mut width = counts.len();
    let mut node = 0usize;
    while width > 1 {
        for i in 0..width / 2 {
            counts[i] = if node == stuck_node {
                value
            } else {
                let sum = counts[2 * i] + counts[2 * i + 1];
                if policy.state_for(node) {
                    sum.div_ceil(2)
                } else {
                    sum / 2
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

/// A per-thread pool of reusable [`LaneTree`] scratch, one bucket per
/// [`LaneWord`] width.
///
/// The count-domain forwards of
/// [`StochasticConvLayer`](crate::StochasticConvLayer) and
/// [`StochasticDenseLayer`](crate::StochasticDenseLayer) used to allocate
/// fresh `entry`/`scratch` buffers on every call; they now
/// [`checkout`](Self::checkout) a tree from the calling thread's pool and
/// return it on drop, so steady-state inference does no per-forward
/// allocation on any worker thread. Recycled trees are reshaped (and
/// re-zeroed) in place, growing their buffers only when a larger shape
/// comes along.
///
/// # Example
///
/// ```
/// use scnn_core::counts::{LaneWord, ScratchPool};
/// use scnn_sim::S0Policy;
///
/// # fn main() -> Result<(), scnn_core::Error> {
/// let mut tree = ScratchPool::checkout::<u64>(25, 32, S0Policy::Alternating, 64)?;
/// for tap in 0..25 {
///     tree.tap_lanes_mut(tap).fill(<u64 as LaneWord>::splat(7));
/// }
/// tree.fold();
/// // All 32 lanes fold the same taps, so every root lane agrees.
/// assert_eq!(tree.root_lane(0), tree.root_lane(31));
/// drop(tree); // returns the buffers to this thread's pool
/// assert!(ScratchPool::thread_pooled::<u64>() >= 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct ScratchPool {
    trees_u16: Vec<LaneTree<u16>>,
    trees_u32: Vec<LaneTree<u32>>,
    trees_u64: Vec<LaneTree<u64>>,
    trees_u128: Vec<LaneTree<u128>>,
}

thread_local! {
    static THREAD_POOL: RefCell<ScratchPool> = RefCell::new(ScratchPool::default());
}

impl ScratchPool {
    /// Checks a tree of the requested shape out of the calling thread's
    /// pool, recycling a previous tree's buffers when one is available.
    /// The guard returns the tree on drop.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] for shapes [`LaneTree::new`] rejects.
    pub fn checkout<W: LaneWord>(
        taps: usize,
        lanes: usize,
        policy: S0Policy,
        max_leaf_count: usize,
    ) -> Result<PooledTree<W>, Error> {
        let recycled = THREAD_POOL
            .try_with(|pool| W::pool_bucket(&mut pool.borrow_mut()).pop())
            .ok()
            .flatten();
        if scnn_obs::metrics_enabled() {
            // Handles are resolved once per process; a checkout that finds
            // the thread pool empty pays a fresh tree allocation.
            static HANDLES: std::sync::OnceLock<(
                &'static scnn_obs::Counter,
                &'static scnn_obs::Counter,
            )> = std::sync::OnceLock::new();
            let (checkouts, allocs) = HANDLES.get_or_init(|| {
                let registry = scnn_obs::registry();
                (
                    registry.counter("scratch_pool/checkouts"),
                    registry.counter("scratch_pool/allocs"),
                )
            });
            checkouts.add(1);
            if recycled.is_none() {
                allocs.add(1);
            }
        }
        let tree = match recycled {
            Some(mut tree) => {
                tree.reconfigure(taps, lanes, policy, max_leaf_count)?;
                tree
            }
            None => LaneTree::new(taps, lanes, policy, max_leaf_count)?,
        };
        Ok(PooledTree { tree: Some(tree) })
    }

    /// How many `W` trees the calling thread's pool currently holds
    /// (diagnostics and tests).
    pub fn thread_pooled<W: LaneWord>() -> usize {
        THREAD_POOL.try_with(|pool| W::pool_bucket(&mut pool.borrow_mut()).len()).unwrap_or(0)
    }
}

/// A [`LaneTree`] checked out of the calling thread's [`ScratchPool`];
/// dereferences to the tree and returns it to the pool on drop.
#[derive(Debug)]
pub struct PooledTree<W: LaneWord> {
    tree: Option<LaneTree<W>>,
}

impl<W: LaneWord> Deref for PooledTree<W> {
    type Target = LaneTree<W>;

    fn deref(&self) -> &LaneTree<W> {
        self.tree.as_ref().expect("tree present until drop")
    }
}

impl<W: LaneWord> DerefMut for PooledTree<W> {
    fn deref_mut(&mut self) -> &mut LaneTree<W> {
        self.tree.as_mut().expect("tree present until drop")
    }
}

impl<W: LaneWord> Drop for PooledTree<W> {
    fn drop(&mut self) {
        if let Some(tree) = self.tree.take() {
            // During thread teardown the pool may already be gone; the
            // tree is then simply dropped.
            let _ = THREAD_POOL.try_with(|pool| {
                let mut pool = pool.borrow_mut();
                let bucket = W::pool_bucket(&mut pool);
                if bucket.len() < POOL_CAP {
                    bucket.push(tree);
                }
            });
        }
    }
}

/// One comparator-SNG conversion per *distinct* level.
///
/// Against a fixed source sequence the comparator stream is a pure function
/// of the level, so equal-level inputs share bit patterns; the cache
/// converts on first sight and hands out word slices afterwards. This is
/// the stream-arena dedup the conv engine's `pixel_streams` has used since
/// PR 2, now shared with the dense engine's input bank. The cache owns a
/// copy of its source sequence, so an engine can keep one instance warm
/// across calls instead of rebuilding it per image.
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

    /// The source sequence this cache converts against.
    pub fn seq(&self) -> &[u64] {
        &self.seq
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

/// Lock shards of a [`WindowCache`]. A key's shard is a pure function of
/// its bytes, so worker threads mostly lock disjoint shards and a given
/// window always lands in the same shard regardless of thread count.
const WINDOW_CACHE_SHARDS: usize = 8;

/// Environment variable the bench bins read to force window memoization on
/// or off without editing scenario tables (see
/// [`WindowCacheMode::from_env_value`]).
pub const WINDOW_CACHE_ENV: &str = "SCNN_WINDOW_CACHE";

/// Whether (and how large) a [`StochasticConvLayer`](crate::StochasticConvLayer)
/// keeps a [`WindowCache`] — the window-memoization knob on
/// [`ScOptions`](crate::ScOptions) and
/// [`ScenarioSpec`](crate::ScenarioSpec).
///
/// `Off` (the default, and what every preset uses) keeps the recorded
/// tables and timings unchanged. `Entries(n)` bounds the cache to `n`
/// memoized windows across all shards, evicted least-recently-used;
/// `Entries(0)` is rejected at validation. Like an explicit
/// [`LaneWidth`], a non-`Off` mode on a configuration without the
/// fault-free TFF count-domain fold (MUX adder, fault injection, oversized
/// table) is a configuration error rather than a silent fallback.
///
/// # Example
///
/// ```
/// use scnn_core::counts::WindowCacheMode;
///
/// assert_eq!(WindowCacheMode::default(), WindowCacheMode::Off);
/// assert_eq!(WindowCacheMode::on(), WindowCacheMode::Entries(65536));
/// assert!(WindowCacheMode::Entries(0).validate().is_err());
/// // The bins parse SCNN_WINDOW_CACHE through the same grammar:
/// assert_eq!(WindowCacheMode::from_env_value("off").unwrap(), WindowCacheMode::Off);
/// assert_eq!(WindowCacheMode::from_env_value("256").unwrap(), WindowCacheMode::Entries(256));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum WindowCacheMode {
    /// No memoization — every window folds (the default).
    #[default]
    Off,
    /// Memoize up to this many windows, evicting least-recently-used.
    Entries(usize),
}

impl WindowCacheMode {
    /// Default entry budget of [`on`](Self::on): sized for dataset-scale
    /// working sets, not one image. A 64-image pass over noisy synthetic
    /// digits produces ~30–50k distinct 5×5 windows (real MNIST far
    /// fewer — its background is exactly zero), and a budget below the
    /// working set thrashes the LRU into pure overhead; 65536 entries
    /// (~20 MB at 32 kernels) holds those working sets comfortably.
    pub const DEFAULT_ENTRIES: usize = 65536;

    /// Memoization at the default budget
    /// ([`DEFAULT_ENTRIES`](Self::DEFAULT_ENTRIES)).
    pub fn on() -> Self {
        Self::Entries(Self::DEFAULT_ENTRIES)
    }

    /// Whether memoization is requested.
    pub fn is_on(self) -> bool {
        self != Self::Off
    }

    /// The entry budget, or `None` when off.
    pub fn entries(self) -> Option<usize> {
        match self {
            Self::Off => None,
            Self::Entries(n) => Some(n),
        }
    }

    /// Rejects the degenerate budget.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] for `Entries(0)` (use [`Off`](Self::Off)
    /// to disable memoization explicitly).
    pub fn validate(self) -> Result<(), Error> {
        if self == Self::Entries(0) {
            return Err(Error::config(
                "window_cache entry budget must be at least 1 (use Off to disable)",
            ));
        }
        Ok(())
    }

    /// Parses the [`WINDOW_CACHE_ENV`] grammar the bench bins accept:
    /// `off`/`0` disable, `on`/`1` enable at the default budget, and any
    /// other positive integer is an explicit entry budget.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] for anything else.
    pub fn from_env_value(value: &str) -> Result<Self, Error> {
        match value.trim().to_ascii_lowercase().as_str() {
            "off" | "0" | "" => Ok(Self::Off),
            "on" | "1" => Ok(Self::on()),
            other => match other.parse::<usize>() {
                Ok(n) if n > 0 => Ok(Self::Entries(n)),
                _ => Err(Error::config(format!(
                    "{WINDOW_CACHE_ENV} must be off/0, on/1 or a positive entry budget, \
                     got {value:?}"
                ))),
            },
        }
    }
}

impl fmt::Display for WindowCacheMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Off => f.write_str("off"),
            Self::Entries(n) => write!(f, "{n} entries"),
        }
    }
}

/// Hit/miss/eviction counters of a [`WindowCache`].
///
/// The counters are diagnostics, not part of the memoized values: cached
/// fold outputs are pure functions of their keys, so forward outputs are
/// byte-identical for any interleaving, but which thread scores a given
/// hit can vary with `SCNN_THREADS`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WindowCacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that fell through to the fold.
    pub misses: u64,
    /// Entries displaced to stay within the budget.
    pub evictions: u64,
}

impl WindowCacheStats {
    /// Hits as a fraction of all lookups (`0.0` when none were made).
    ///
    /// # Example
    ///
    /// ```
    /// use scnn_core::counts::WindowCacheStats;
    ///
    /// let stats = WindowCacheStats { hits: 3, misses: 1, evictions: 0 };
    /// assert_eq!(stats.hit_rate(), 0.75);
    /// assert_eq!(WindowCacheStats::default().hit_rate(), 0.0);
    /// ```
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Counter deltas since an earlier snapshot (per-dataset reporting).
    pub fn since(&self, earlier: WindowCacheStats) -> WindowCacheStats {
        WindowCacheStats {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            evictions: self.evictions - earlier.evictions,
        }
    }
}

/// Index sentinel of the intrusive age list ("no slot").
const NO_SLOT: u32 = u32::MAX;

/// One memoized window: its key and value, threaded on the shard's
/// doubly-linked age list (most-recent at the head).
#[derive(Debug)]
struct WindowSlot {
    key: Box<[u8]>,
    value: Box<[u16]>,
    prev: u32,
    next: u32,
}

/// One lock shard of a [`WindowCache`]: a hash map from key to slot index
/// plus an intrusive LRU age list over the slot arena — the hand-rolled
/// equivalent of an `LruCache`, kept crate-local under the same vendoring
/// discipline as `vendor/rand`.
#[derive(Debug, Default)]
struct WindowShard {
    /// Entry budget of this shard (the cache budget split across shards).
    cap: usize,
    map: HashMap<Box<[u8]>, u32>,
    slots: Vec<WindowSlot>,
    /// Most-recently-used slot index, [`NO_SLOT`] when empty.
    head: u32,
    /// Least-recently-used slot index, [`NO_SLOT`] when empty.
    tail: u32,
}

impl WindowShard {
    fn new(cap: usize) -> Self {
        Self { cap, map: HashMap::new(), slots: Vec::new(), head: NO_SLOT, tail: NO_SLOT }
    }

    /// Detaches slot `i` from the age list.
    fn unlink(&mut self, i: u32) {
        let (prev, next) = (self.slots[i as usize].prev, self.slots[i as usize].next);
        match prev {
            NO_SLOT => self.head = next,
            p => self.slots[p as usize].next = next,
        }
        match next {
            NO_SLOT => self.tail = prev,
            n => self.slots[n as usize].prev = prev,
        }
    }

    /// Attaches slot `i` at the most-recently-used end.
    fn push_front(&mut self, i: u32) {
        self.slots[i as usize].prev = NO_SLOT;
        self.slots[i as usize].next = self.head;
        match self.head {
            NO_SLOT => self.tail = i,
            h => self.slots[h as usize].prev = i,
        }
        self.head = i;
    }

    /// Copies the value for `key` into `out` and refreshes its age, if
    /// present.
    fn get_into(&mut self, key: &[u8], out: &mut [u16]) -> bool {
        let Some(&i) = self.map.get(key) else { return false };
        out.copy_from_slice(&self.slots[i as usize].value);
        if self.head != i {
            self.unlink(i);
            self.push_front(i);
        }
        true
    }

    /// Inserts (or refreshes) `key → value`; returns whether an older
    /// entry was evicted to make room.
    fn insert(&mut self, key: &[u8], value: &[u16]) -> bool {
        if self.cap == 0 {
            return false;
        }
        if let Some(&i) = self.map.get(key) {
            // Another worker memoized the same window between our miss and
            // this insert; the value is identical by construction.
            if self.head != i {
                self.unlink(i);
                self.push_front(i);
            }
            return false;
        }
        if self.slots.len() < self.cap {
            let i = self.slots.len() as u32;
            self.slots.push(WindowSlot {
                key: key.into(),
                value: value.into(),
                prev: NO_SLOT,
                next: NO_SLOT,
            });
            self.map.insert(key.into(), i);
            self.push_front(i);
            return false;
        }
        // Budget reached: recycle the least-recently-used slot in place.
        let i = self.tail;
        self.unlink(i);
        let slot = &mut self.slots[i as usize];
        let old_key = std::mem::replace(&mut slot.key, key.into());
        slot.value.copy_from_slice(value);
        self.map.remove(&old_key);
        self.map.insert(key.into(), i);
        self.push_front(i);
        true
    }
}

/// FNV-1a over the key bytes — the shard selector. Deterministic (unlike
/// the map's per-process-seeded hasher), so a key's shard never depends on
/// process or thread identity.
fn fnv1a(key: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in key {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// A bounded LRU cache of adder-tree fold outputs keyed by the quantized
/// window level pattern — the Hashlife idea applied to the count-domain
/// conv: natural-image 5×5 windows are heavy-tailed (backgrounds and a
/// small set of edge patterns repeat constantly), and against a fixed
/// table the pos/neg root counts are pure functions of the window's pixel
/// levels, so a hit skips the entire fold *and* the [`ScratchPool`]
/// checkout.
///
/// # Key and value scheme
///
/// The key is the window's `ksize²` pixel levels as little-endian `u16`
/// tags (`level + 1`; `0` marks an out-of-image tap), byte-packed — valid
/// for every count-path precision (≤ 14 bit, so `level + 1 ≤ 16385`).
/// Table identity is enforced by ownership: each engine owns its cache
/// (clones share it via `Arc`, and share the identical table), so keys
/// never mix tables. The value is the full per-kernel fold output: `2 ·
/// kernels` root counts, positive tree then negative.
///
/// # Sharding, budget and determinism
///
/// Entries live in [`WINDOW_CACHE_SHARDS`] independently locked LRU
/// shards; a key's shard is a pure function of its bytes, so concurrent
/// workers mostly lock disjoint shards and any `SCNN_THREADS` setting
/// sees the same shard layout. The entry budget is split across shards
/// (remainder to the low shards), each evicting least-recently-used
/// independently — a budget below [`WINDOW_CACHE_SHARDS`] leaves some
/// shards with zero capacity, whose keys simply always miss. Because
/// values are pure functions of keys, eviction and interleaving affect
/// only the [`stats`](Self::stats) counters — never the forward output,
/// which stays byte-identical for any thread count.
///
/// # Example
///
/// ```
/// use scnn_core::counts::WindowCache;
///
/// # fn main() -> Result<(), scnn_core::Error> {
/// // 16 entries (2 per shard), 4-byte keys, 3-lane values.
/// let cache = WindowCache::new(16, 4, 3)?;
/// let mut out = [0u16; 3];
/// assert!(!cache.get_into(b"key1", &mut out)); // cold miss
/// cache.insert(b"key1", &[7, 8, 9]);
/// assert!(cache.get_into(b"key1", &mut out)); // hit
/// assert_eq!(out, [7, 8, 9]);
/// let stats = cache.stats();
/// assert_eq!((stats.hits, stats.misses), (1, 1));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct WindowCache {
    shards: Vec<Mutex<WindowShard>>,
    budget: usize,
    key_len: usize,
    value_len: usize,
    // Per-instance counters on the scnn_obs primitive (sharded, exact
    // totals); `stats()` reads these.
    hits: scnn_obs::Counter,
    misses: scnn_obs::Counter,
    evictions: scnn_obs::Counter,
    // Process-global registry mirrors, resolved once at construction and
    // bumped only when SCNN_METRICS is on — the cross-cache totals the
    // `obs/window_cache/*` BENCH.json keys report.
    global: GlobalWindowCounters,
}

/// Registry handles mirroring every [`WindowCache`]'s counters.
#[derive(Debug, Clone, Copy)]
struct GlobalWindowCounters {
    hits: &'static scnn_obs::Counter,
    misses: &'static scnn_obs::Counter,
    evictions: &'static scnn_obs::Counter,
}

impl GlobalWindowCounters {
    fn resolve() -> Self {
        let registry = scnn_obs::registry();
        Self {
            hits: registry.counter("window_cache/hits"),
            misses: registry.counter("window_cache/misses"),
            evictions: registry.counter("window_cache/evictions"),
        }
    }
}

impl WindowCache {
    /// A cache bounded to `entries` memoized windows, over `key_len`-byte
    /// keys and `value_len`-lane values.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] when `entries`, `key_len` or `value_len`
    /// is zero.
    pub fn new(entries: usize, key_len: usize, value_len: usize) -> Result<Self, Error> {
        if entries == 0 || key_len == 0 || value_len == 0 {
            return Err(Error::config(
                "WindowCache needs a positive entry budget, key length and value length",
            ));
        }
        let shards = (0..WINDOW_CACHE_SHARDS)
            .map(|i| {
                // Split the budget across shards, remainder to the low ones,
                // so the shard caps sum to exactly `entries`.
                let cap =
                    entries / WINDOW_CACHE_SHARDS + usize::from(i < entries % WINDOW_CACHE_SHARDS);
                Mutex::new(WindowShard::new(cap))
            })
            .collect();
        Ok(Self {
            shards,
            budget: entries,
            key_len,
            value_len,
            hits: scnn_obs::Counter::default(),
            misses: scnn_obs::Counter::default(),
            evictions: scnn_obs::Counter::default(),
            global: GlobalWindowCounters::resolve(),
        })
    }

    /// The entry budget across all shards.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Key length in bytes (`2 · ksize²` for the conv engine).
    pub fn key_len(&self) -> usize {
        self.key_len
    }

    /// Value length in lanes (`2 · kernels` for the conv engine).
    pub fn value_len(&self) -> usize {
        self.value_len
    }

    /// Memoized windows currently held (never exceeds
    /// [`budget`](Self::budget)).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| self.lock(s).map.len()).sum()
    }

    /// Whether no window has been memoized yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn lock<'a>(&self, shard: &'a Mutex<WindowShard>) -> std::sync::MutexGuard<'a, WindowShard> {
        // A poisoned shard only means another worker panicked mid-insert;
        // the map/list state is updated atomically with respect to panics
        // (no unwinding between linked mutations), so keep serving.
        shard.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn shard_for(&self, key: &[u8]) -> &Mutex<WindowShard> {
        &self.shards[(fnv1a(key) % self.shards.len() as u64) as usize]
    }

    /// Copies the memoized fold output for `key` into `out` (length
    /// [`value_len`](Self::value_len)) and returns `true`, or records a
    /// miss and returns `false`.
    ///
    /// # Panics
    ///
    /// Panics if `key` or `out` disagree with the constructed lengths.
    pub fn get_into(&self, key: &[u8], out: &mut [u16]) -> bool {
        assert_eq!(key.len(), self.key_len, "window key length mismatch");
        assert_eq!(out.len(), self.value_len, "window value length mismatch");
        let hit = self.lock(self.shard_for(key)).get_into(key, out);
        if hit {
            self.hits.add(1);
        } else {
            self.misses.add(1);
        }
        if scnn_obs::metrics_enabled() {
            if hit {
                self.global.hits.add(1);
            } else {
                self.global.misses.add(1);
            }
        }
        hit
    }

    /// Memoizes `key → value`, evicting the shard's least-recently-used
    /// entry when its budget is full.
    ///
    /// # Panics
    ///
    /// Panics if `key` or `value` disagree with the constructed lengths.
    pub fn insert(&self, key: &[u8], value: &[u16]) {
        assert_eq!(key.len(), self.key_len, "window key length mismatch");
        assert_eq!(value.len(), self.value_len, "window value length mismatch");
        if self.lock(self.shard_for(key)).insert(key, value) {
            self.evictions.add(1);
            if scnn_obs::metrics_enabled() {
                self.global.evictions.add(1);
            }
        }
    }

    /// A snapshot of the hit/miss/eviction counters.
    ///
    /// The counters are [`scnn_obs::Counter`]s; when `SCNN_METRICS` is on
    /// every lookup also bumps the process-global `window_cache/hits`,
    /// `window_cache/misses` and `window_cache/evictions` registry counters,
    /// so dataset hit rates surface in the `obs/` exports alongside the
    /// per-stage histograms.
    pub fn stats(&self) -> WindowCacheStats {
        WindowCacheStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            evictions: self.evictions.get(),
        }
    }

    /// Zeroes the per-instance counters (entries stay memoized) — lets
    /// benches measure per-dataset hit rates on a warm cache. The global
    /// registry mirrors are left alone; reset those with
    /// [`scnn_obs::MetricsRegistry::reset`].
    pub fn reset_stats(&self) {
        self.hits.reset();
        self.misses.reset();
        self.evictions.reset();
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

    fn lane_tree_matches_reference<W: LaneWord>() {
        for taps in [1usize, 3, 7, 25, 30] {
            for policy in POLICIES {
                let lanes = 2 * W::LANES + 1; // exercise a partial last word
                let mut tree = LaneTree::<W>::new(taps, lanes, policy, 64).unwrap();
                let reference = TffAdderTree::new(taps, policy).unwrap();
                let mut per_lane = vec![vec![0u64; taps]; lanes];
                #[allow(clippy::needless_range_loop)]
                for t in 0..taps {
                    let row = tree.tap_lanes_mut(t);
                    for lane in 0..lanes {
                        let c = ((t * 31 + lane * 17 + 5) % 64) as u64;
                        row[lane / W::LANES].set_lane(lane % W::LANES, c as u16);
                        per_lane[lane][t] = c;
                    }
                }
                tree.fold();
                for (lane, counts) in per_lane.iter().enumerate() {
                    assert_eq!(
                        u64::from(tree.root_lane(lane)),
                        reference.fold_counts(counts),
                        "taps={taps} lane={lane} policy={policy:?} width={}",
                        W::WIDTH
                    );
                }
            }
        }
    }

    #[test]
    fn lane_tree_matches_reference_tree_per_lane_every_width() {
        lane_tree_matches_reference::<u16>();
        lane_tree_matches_reference::<u32>();
        lane_tree_matches_reference::<u64>();
        lane_tree_matches_reference::<u128>();
    }

    #[test]
    fn lane_word_splat_and_lanes_round_trip() {
        fn check<W: LaneWord>() {
            let w = W::splat(0x1234);
            for lane in 0..W::LANES {
                assert_eq!(w.lane(lane), 0x1234, "width={}", W::WIDTH);
            }
            let mut w = W::ZERO;
            for lane in 0..W::LANES {
                w.set_lane(lane, (lane as u16 + 1) * 3);
            }
            for lane in 0..W::LANES {
                assert_eq!(w.lane(lane), (lane as u16 + 1) * 3, "width={}", W::WIDTH);
            }
        }
        check::<u16>();
        check::<u32>();
        check::<u64>();
        check::<u128>();
    }

    #[test]
    fn tff_node_is_exact_at_the_count_ceiling() {
        // The widening-add argument: both rounding directions stay exact
        // with every lane at the ceiling simultaneously.
        fn check<W: LaneWord>() {
            let max = W::MAX_LEAF_COUNT;
            let full = W::splat(max);
            for (s0, expect) in [(false, max), (true, max)] {
                // (32767 + 32767 + s0) >> 1 = 32767 either way.
                let folded = W::tff_node(full, full, s0);
                for lane in 0..W::LANES {
                    assert_eq!(folded.lane(lane), expect, "s0={s0} width={}", W::WIDTH);
                }
            }
            // Mixed lanes: adjacent ceiling/zero lanes must not leak.
            let mut mixed = W::ZERO;
            for lane in (0..W::LANES).step_by(2) {
                mixed.set_lane(lane, max);
            }
            let folded = W::tff_node(mixed, mixed, true);
            for lane in 0..W::LANES {
                let expect = if lane % 2 == 0 { max } else { 0 };
                assert_eq!(folded.lane(lane), expect, "width={}", W::WIDTH);
            }
        }
        check::<u16>();
        check::<u32>();
        check::<u64>();
        check::<u128>();
    }

    #[test]
    fn lane_tree_is_reusable_without_residue() {
        // Second fold over fresh taps must equal a fresh tree's fold.
        let mut tree = LaneTree::<u64>::new(25, 3, S0Policy::Alternating, 16).unwrap();
        for t in 0..25 {
            tree.tap_lanes_mut(t).fill(<u64 as LaneWord>::splat(7));
        }
        let _ = tree.fold();
        for t in 0..25 {
            let row = tree.tap_lanes_mut(t);
            for lane in 0..3 {
                row[lane / 4].set_lane(lane % 4, (t + lane) as u16 % 9);
            }
        }
        tree.fold();
        let second: Vec<u16> = (0..3).map(|l| tree.root_lane(l)).collect();
        let mut fresh = LaneTree::<u64>::new(25, 3, S0Policy::Alternating, 16).unwrap();
        for t in 0..25 {
            let row = fresh.tap_lanes_mut(t);
            for lane in 0..3 {
                row[lane / 4].set_lane(lane % 4, (t + lane) as u16 % 9);
            }
        }
        fresh.fold();
        let fresh_roots: Vec<u16> = (0..3).map(|l| fresh.root_lane(l)).collect();
        assert_eq!(second, fresh_roots);
    }

    #[test]
    fn constructor_rejects_overflowing_leaf_counts() {
        // 14-bit streams (16384 counts) are the last fitting precision.
        assert!(LaneTree::<u16>::new(25, 4, S0Policy::Alternating, 1 << 14).is_ok());
        for too_big in [1usize << 15, 1 << 16, usize::MAX] {
            let err = LaneTree::<u64>::new(25, 4, S0Policy::Alternating, too_big).unwrap_err();
            assert!(err.to_string().contains("overflow"), "{err}");
        }
        assert!(LaneTree::<u64>::new(0, 4, S0Policy::Alternating, 16).is_err());
        assert!(LaneTree::<u64>::new(4, 0, S0Policy::Alternating, 16).is_err());
    }

    #[test]
    fn generic_fold_matches_reference_tree() {
        let reference = TffAdderTree::new(25, S0Policy::Alternating).unwrap();
        let counts: Vec<u64> = (0..25).map(|i| (i * 13 + 7) % 65).collect();
        // Scalar u16 lane words…
        let mut padded16: Vec<u16> = counts.iter().map(|&c| c as u16).collect();
        padded16.resize(32, 0);
        assert_eq!(
            u64::from(fold_tree_counts(S0Policy::Alternating, &mut padded16)),
            reference.fold_counts(&counts)
        );
        // …and the wide scalar fold agree with the reference.
        let mut padded = counts.clone();
        padded.resize(32, 0);
        assert_eq!(
            fold_tree_counts_wide(S0Policy::Alternating, &mut padded),
            reference.fold_counts(&counts)
        );
    }

    #[test]
    fn packed_fold_matches_scalar_fold_per_lane() {
        // Four independent count sets fold in one u64 pass.
        for policy in POLICIES {
            let mut packed = vec![0u64; 32];
            let mut scalar = vec![[0u64; 32]; 4];
            for (i, word) in packed.iter_mut().enumerate() {
                for (lane, counts) in scalar.iter_mut().enumerate() {
                    let c = ((i * 29 + lane * 1031 + 3) % 32000) as u64;
                    LaneWord::set_lane(word, lane, c as u16);
                    counts[i] = c;
                }
            }
            let root = fold_tree_counts(policy, &mut packed);
            for (lane, counts) in scalar.iter_mut().enumerate() {
                assert_eq!(
                    u64::from(root.lane(lane)),
                    fold_tree_counts_wide(policy, counts),
                    "lane={lane} policy={policy:?}"
                );
            }
        }
    }

    #[test]
    fn level_table_counts_match_direct_and_count_every_width() {
        fn check<W: LaneWord>() {
            let n = 32;
            let s = seq(5, n);
            let taps = 4;
            let lanes = 2 * W::LANES + 1;
            let mut weights = StreamArena::new(taps * lanes, n).unwrap();
            let mut neg = vec![false; taps * lanes];
            for lane in 0..lanes {
                for t in 0..taps {
                    let idx = lane * taps + t;
                    weights.write_from_levels(idx, &s, ((idx * 7 + 3) % 33) as u64);
                    neg[idx] = idx % 3 == 1;
                }
            }
            let table = LevelCountTable::<W>::build(&s, &weights, &neg, taps, lanes).unwrap();
            assert_eq!(table.row_words(), lanes.div_ceil(W::LANES));
            let mut level_stream = StreamArena::new(1, n).unwrap();
            let mut pos = vec![W::ZERO; table.row_words()];
            let mut neg_out = vec![W::ZERO; table.row_words()];
            for level in [0usize, 1, 16, 32] {
                level_stream.write_from_levels(0, &s, level as u64);
                for t in 0..taps {
                    table.gather(level, t, &mut pos, &mut neg_out);
                    for lane in 0..lanes {
                        let idx = lane * taps + t;
                        let expect = and_count(level_stream.stream(0), weights.stream(idx)) as u16;
                        let (want_pos, want_neg) = if neg[idx] { (0, expect) } else { (expect, 0) };
                        assert_eq!(table.count(level, t, lane), expect);
                        assert_eq!(
                            pos[lane / W::LANES].lane(lane % W::LANES),
                            want_pos,
                            "level={level} t={t} lane={lane} width={}",
                            W::WIDTH
                        );
                        assert_eq!(
                            neg_out[lane / W::LANES].lane(lane % W::LANES),
                            want_neg,
                            "level={level} t={t} lane={lane} width={}",
                            W::WIDTH
                        );
                    }
                }
            }
        }
        check::<u16>();
        check::<u32>();
        check::<u64>();
        check::<u128>();
    }

    #[test]
    fn any_table_builds_the_requested_width() {
        let n = 16;
        let s = seq(4, n);
        let mut weights = StreamArena::new(6, n).unwrap();
        for i in 0..6 {
            weights.write_from_levels(i, &s, (i % 17) as u64);
        }
        let neg = vec![false; 6];
        for (width, expect) in [
            (LaneWidth::Auto, LaneWidth::U64),
            (LaneWidth::U16, LaneWidth::U16),
            (LaneWidth::U32, LaneWidth::U32),
            (LaneWidth::U64, LaneWidth::U64),
            (LaneWidth::U128, LaneWidth::U128),
        ] {
            let table = AnyLevelCountTable::build(width, &s, &weights, &neg, 3, 2).unwrap();
            assert_eq!(table.width(), expect);
        }
    }

    #[test]
    fn lane_width_validation_and_names() {
        assert_eq!(LaneWidth::Auto.resolve(), LaneWidth::U64);
        assert_eq!(LaneWidth::U16.resolve(), LaneWidth::U16);
        assert_eq!(LaneWidth::Auto.lanes_per_word(), 4);
        assert_eq!(LaneWidth::U128.lanes_per_word(), 8);
        for width in [LaneWidth::Auto, LaneWidth::U16, LaneWidth::U32, LaneWidth::U128] {
            assert!(width.supports_counts_to(1 << 14), "{width}");
            assert!(!width.supports_counts_to(1 << 15), "{width}");
        }
        assert_eq!(LaneWidth::U64.to_string(), "u64");
        assert_eq!(LaneWidth::Auto.name(), "auto");
    }

    #[test]
    fn fits_rejects_oversized_configurations() {
        assert!(LevelCountTable::<u16>::fits(256, 25, 32));
        assert!(table_fits(256, 25, 32));
        assert!(!table_fits(40_000, 25, 32)); // 16-bit lanes overflow
        assert!(!table_fits(256, 1 << 12, 1 << 12)); // table too big
    }

    #[test]
    fn scratch_pool_recycles_buffers() {
        let tree = ScratchPool::checkout::<u128>(25, 9, S0Policy::Alternating, 64).unwrap();
        let while_out = ScratchPool::thread_pooled::<u128>();
        drop(tree);
        assert_eq!(ScratchPool::thread_pooled::<u128>(), while_out + 1);
        // A recycled checkout must behave like a fresh tree even after the
        // previous user dirtied it with a different shape.
        let mut a = ScratchPool::checkout::<u128>(7, 3, S0Policy::AllOne, 64).unwrap();
        for t in 0..7 {
            a.tap_lanes_mut(t).fill(<u128 as LaneWord>::splat(9));
        }
        a.fold();
        let dirty_roots: Vec<u16> = (0..3).map(|l| a.root_lane(l)).collect();
        drop(a);
        let mut b = ScratchPool::checkout::<u128>(7, 3, S0Policy::AllOne, 64).unwrap();
        for t in 0..7 {
            b.tap_lanes_mut(t).fill(<u128 as LaneWord>::splat(9));
        }
        b.fold();
        let clean_roots: Vec<u16> = (0..3).map(|l| b.root_lane(l)).collect();
        assert_eq!(dirty_roots, clean_roots);
        // And invalid shapes are rejected at checkout.
        assert!(ScratchPool::checkout::<u128>(0, 3, S0Policy::AllOne, 64).is_err());
        assert!(ScratchPool::checkout::<u128>(7, 3, S0Policy::AllOne, 1 << 15).is_err());
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
    fn window_cache_mode_grammar_and_validation() {
        assert_eq!(WindowCacheMode::default(), WindowCacheMode::Off);
        assert!(!WindowCacheMode::Off.is_on());
        assert!(WindowCacheMode::on().is_on());
        assert_eq!(WindowCacheMode::on().entries(), Some(WindowCacheMode::DEFAULT_ENTRIES));
        assert_eq!(WindowCacheMode::Off.entries(), None);
        assert!(WindowCacheMode::Off.validate().is_ok());
        assert!(WindowCacheMode::Entries(1).validate().is_ok());
        assert!(WindowCacheMode::Entries(0).validate().is_err());
        for (value, expect) in [
            ("off", WindowCacheMode::Off),
            ("0", WindowCacheMode::Off),
            ("", WindowCacheMode::Off),
            ("on", WindowCacheMode::on()),
            ("1", WindowCacheMode::on()),
            (" ON ", WindowCacheMode::on()),
            ("256", WindowCacheMode::Entries(256)),
        ] {
            assert_eq!(WindowCacheMode::from_env_value(value).unwrap(), expect, "{value:?}");
        }
        assert!(WindowCacheMode::from_env_value("sometimes").is_err());
        assert!(WindowCacheMode::from_env_value("-3").is_err());
        assert_eq!(WindowCacheMode::Off.to_string(), "off");
        assert_eq!(WindowCacheMode::Entries(7).to_string(), "7 entries");
    }

    #[test]
    fn window_cache_hits_misses_and_stats() {
        let cache = WindowCache::new(16, 2, 3).unwrap();
        assert_eq!(cache.budget(), 16);
        assert_eq!(cache.key_len(), 2);
        assert_eq!(cache.value_len(), 3);
        assert!(cache.is_empty());
        let mut out = [0u16; 3];
        assert!(!cache.get_into(&[1, 0], &mut out));
        cache.insert(&[1, 0], &[10, 20, 30]);
        cache.insert(&[2, 0], &[40, 50, 60]);
        assert_eq!(cache.len(), 2);
        assert!(cache.get_into(&[1, 0], &mut out));
        assert_eq!(out, [10, 20, 30]);
        assert!(cache.get_into(&[2, 0], &mut out));
        assert_eq!(out, [40, 50, 60]);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.evictions), (2, 1, 0));
        assert_eq!(stats.hit_rate(), 2.0 / 3.0);
        // Reset clears counters but keeps entries memoized.
        cache.reset_stats();
        assert_eq!(cache.stats(), WindowCacheStats::default());
        assert!(cache.get_into(&[1, 0], &mut out));
        assert_eq!(cache.len(), 2);
        // Delta snapshots subtract counter-wise.
        let later = WindowCacheStats { hits: 5, misses: 3, evictions: 1 };
        let earlier = WindowCacheStats { hits: 2, misses: 3, evictions: 0 };
        assert_eq!(later.since(earlier), WindowCacheStats { hits: 3, misses: 0, evictions: 1 });
    }

    #[test]
    fn window_cache_evicts_least_recently_used() {
        // Budget 1 puts at most one entry in one shard (the other shards
        // have capacity 0 and simply never store), so same-shard LRU order
        // is forced for colliding keys; exercise the age list through a
        // larger cache with keys that share a shard by construction.
        let cache = WindowCache::new(WINDOW_CACHE_SHARDS * 2, 2, 1).unwrap();
        // Collect keys landing in one shard until three share it.
        let shard_of = |key: &[u8]| fnv1a(key) % WINDOW_CACHE_SHARDS as u64;
        let mut same: Vec<[u8; 2]> = Vec::new();
        let mut b = 0u16;
        while same.len() < 3 {
            let key = b.to_le_bytes();
            if same.is_empty() || shard_of(&key) == shard_of(&same[0]) {
                same.push(key);
            }
            b += 1;
        }
        let (a, bk, c) = (same[0], same[1], same[2]);
        // That shard holds exactly 2 entries (budget split evenly).
        cache.insert(&a, &[1]);
        cache.insert(&bk, &[2]);
        let mut out = [0u16; 1];
        // Touch `a` so `b` is the least recently used…
        assert!(cache.get_into(&a, &mut out));
        cache.insert(&c, &[3]);
        // …and gets evicted by `c`.
        assert!(cache.get_into(&a, &mut out));
        assert!(cache.get_into(&c, &mut out));
        assert!(!cache.get_into(&bk, &mut out));
        assert_eq!(cache.stats().evictions, 1);
        // Re-inserting an existing key refreshes, never evicts or grows.
        let len = cache.len();
        cache.insert(&a, &[1]);
        assert_eq!(cache.len(), len);
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn window_cache_stays_within_budget_under_churn() {
        for budget in [1usize, 3, 8, 17] {
            let cache = WindowCache::new(budget, 2, 1).unwrap();
            for i in 0..200u16 {
                cache.insert(&i.to_le_bytes(), &[i]);
                assert!(cache.len() <= budget, "budget={budget}");
            }
            // A hit must return exactly what was inserted for that key.
            let mut out = [0u16; 1];
            for i in 0..200u16 {
                if cache.get_into(&i.to_le_bytes(), &mut out) {
                    assert_eq!(out, [i], "budget={budget}");
                }
            }
        }
    }

    #[test]
    fn window_cache_rejects_degenerate_shapes() {
        assert!(WindowCache::new(0, 2, 1).is_err());
        assert!(WindowCache::new(4, 0, 1).is_err());
        assert!(WindowCache::new(4, 2, 0).is_err());
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
                    let mut tree = LaneTree::<u64>::new(taps, lanes, policy, n).unwrap();
                    let mut scalar = vec![vec![0u64; taps.next_power_of_two()]; lanes];
                    #[allow(clippy::needless_range_loop)]
                    for t in 0..taps {
                        let row = tree.tap_lanes_mut(t);
                        for lane in 0..lanes {
                            let c = ((t * 7 + lane * 13) % (n + 1)) as u16;
                            row[lane / <u64 as LaneWord>::LANES]
                                .set_lane(lane % <u64 as LaneWord>::LANES, c);
                            scalar[lane][t] = u64::from(c);
                        }
                    }
                    tree.fold_stuck(node, value);
                    for (lane, counts) in scalar.iter().enumerate() {
                        let want = fold_tree_counts_wide_stuck(
                            policy,
                            &mut counts.clone(),
                            node,
                            u64::from(value),
                        );
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
        let mut a = LaneTree::<u32>::new(taps, lanes, S0Policy::Alternating, n).unwrap();
        let mut b = a.clone();
        for t in 0..taps {
            for lane in 0..lanes {
                let c = ((t * 11 + lane * 5) % (n + 1)) as u16;
                a.tap_lanes_mut(t)[lane / 2].set_lane(lane % 2, c);
                b.tap_lanes_mut(t)[lane / 2].set_lane(lane % 2, c);
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
        let table = LevelCountTable::<u64>::build(&seq, &weights, &neg, taps, lanes).unwrap();
        let rw = table.row_words();
        let mut pos = vec![0u64; rw];
        let mut neg_row = vec![0u64; rw];
        for t in 0..taps {
            table.split_by_sign(t, n as u16, &mut pos, &mut neg_row);
            for lane in 0..lanes {
                let p = pos[lane / 4].lane(lane % 4);
                let m = neg_row[lane / 4].lane(lane % 4);
                if neg[lane * taps + t] {
                    assert_eq!((p, m), (0, n as u16), "tap={t} lane={lane}");
                } else {
                    assert_eq!((p, m), (n as u16, 0), "tap={t} lane={lane}");
                }
            }
        }
    }

    #[test]
    fn window_cache_recovers_from_a_poisoned_shard() {
        use std::sync::Arc;
        let cache = Arc::new(WindowCache::new(WINDOW_CACHE_SHARDS * 2, 2, 1).unwrap());
        // Find two keys on shard 0: one inserted before the poison, one
        // after, so both the hit path and the insert path are exercised
        // across the recovery.
        let mut on_shard0 = Vec::new();
        let mut b = 0u16;
        while on_shard0.len() < 2 {
            if fnv1a(&b.to_le_bytes()).is_multiple_of(WINDOW_CACHE_SHARDS as u64) {
                on_shard0.push(b.to_le_bytes());
            }
            b += 1;
        }
        cache.insert(&on_shard0[0], &[7]);
        // Panic a thread while it holds shard 0's guard — the classic
        // poisoning scenario a worker panic mid-lookup would produce.
        let poisoner = Arc::clone(&cache);
        let handle = std::thread::spawn(move || {
            let _guard = poisoner.shards[0].lock().unwrap();
            panic!("poison shard 0 on purpose");
        });
        assert!(handle.join().is_err(), "the poisoning thread must panic");
        assert!(cache.shards[0].lock().is_err(), "shard 0 must actually be poisoned");
        // Subsequent callers recover the guard: the pre-poison entry is
        // still readable and new inserts land.
        let mut out = [0u16; 1];
        assert!(cache.get_into(&on_shard0[0], &mut out));
        assert_eq!(out, [7]);
        cache.insert(&on_shard0[1], &[9]);
        assert!(cache.get_into(&on_shard0[1], &mut out));
        assert_eq!(out, [9]);
    }
}
