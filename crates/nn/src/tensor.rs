use crate::Error;
use std::fmt;

/// A dense, row-major `f32` n-dimensional array.
///
/// Deliberately small: storage, shape and the elementwise helpers the
/// `scnn` layers need. Their matrix products all go through the one
/// register-tiled kernel, [`matmul_into`]. Not a general tensor library.
///
/// # Example
///
/// ```
/// use scnn_nn::Tensor;
///
/// # fn main() -> Result<(), scnn_nn::Error> {
/// let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
/// let b = Tensor::eye(2);
/// let c = a.matmul(&b)?;
/// assert_eq!(c.data(), a.data());
/// # Ok(())
/// # }
/// ```
#[derive(Clone, PartialEq)]
pub struct Tensor {
    data: Vec<f32>,
    shape: Vec<usize>,
}

impl Tensor {
    /// An all-zero tensor of the given shape.
    pub fn zeros(shape: &[usize]) -> Self {
        Self { data: vec![0.0; shape.iter().product()], shape: shape.to_vec() }
    }

    /// A tensor filled with `value`.
    pub fn filled(shape: &[usize], value: f32) -> Self {
        Self { data: vec![value; shape.iter().product()], shape: shape.to_vec() }
    }

    /// The `n×n` identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut t = Self::zeros(&[n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// Wraps a flat buffer with a shape.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ShapeMismatch`] if the element count differs from
    /// the product of `shape`.
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Result<Self, Error> {
        if data.len() != shape.iter().product::<usize>() {
            return Err(Error::shape(format!("{} elements", data.len()), shape));
        }
        Ok(Self { data, shape: shape.to_vec() })
    }

    /// The shape.
    #[inline]
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has zero elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The flat data, row-major.
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable flat data.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor, returning the flat buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Returns a reshaped view (same data, new shape).
    ///
    /// # Errors
    ///
    /// Returns [`Error::ShapeMismatch`] if the element counts differ.
    pub fn reshape(mut self, shape: &[usize]) -> Result<Self, Error> {
        if self.data.len() != shape.iter().product::<usize>() {
            return Err(Error::shape(format!("{} elements", self.data.len()), shape));
        }
        self.shape = shape.to_vec();
        Ok(self)
    }

    /// Matrix product of two 2-D tensors: `[m, k] × [k, n] → [m, n]`,
    /// computed by [`matmul_into`] with the [`NN`] layout.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ShapeMismatch`] unless both are 2-D with matching
    /// inner dimension.
    pub fn matmul(&self, other: &Tensor) -> Result<Tensor, Error> {
        let (&[m, k], &[k2, n]) = (&self.shape[..], &other.shape[..]) else {
            return Err(Error::shape("two 2-d tensors", &self.shape));
        };
        if k != k2 {
            return Err(Error::shape(format!("inner dim {k}"), &other.shape));
        }
        let mut out = vec![0.0f32; m * n];
        matmul_into(NN, MatRef::new(&self.data, m, k), MatRef::new(&other.data, k, n), &mut out);
        Tensor::from_vec(out, &[m, n])
    }

    /// Applies `f` to every element, returning a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor { data: self.data.iter().map(|&v| f(v)).collect(), shape: self.shape.clone() }
    }

    /// Sets every element to zero (grad reset between steps).
    pub fn fill_zero(&mut self) {
        self.data.fill(0.0);
    }

    /// Largest absolute element, or 0 for an empty tensor.
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, &v| m.max(v.abs()))
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor(shape={:?}", self.shape)?;
        if self.data.len() <= 8 {
            write!(f, ", data={:?}", self.data)?;
        } else {
            write!(f, ", data=[{}, {}, …; {}]", self.data[0], self.data[1], self.data.len())?;
        }
        write!(f, ")")
    }
}

/// Rows of the left operand in one register tile of [`matmul_into`].
const MR: usize = 4;
/// Columns of the right operand in one register tile of [`matmul_into`]:
/// two 8-lane AVX2 registers per row, so a tile keeps 8 independent sums
/// in flight, enough to hide the add latency.
const NR: usize = 16;
/// Fewest `k` steps worth a register tile: below it the tile's fixed cost
/// per `NR` columns outweighs its sums, and rows stream instead.
const MIN_TILE_K: usize = 16;
/// Right-operand elements in one column block (256 KiB), swept by every
/// row before the next block, so that the block stays in L2.
const B_BLOCK: usize = 1 << 16;

/// How [`matmul_into`] reads its two stored operands. The three layouts
/// are zero-sized types, so the choice is made at compile time and callers
/// never build a transposed copy.
pub trait Layout: Copy {
    /// The left operand is stored `[k, m]` and read as its transpose.
    const A_T: bool;
    /// The right operand is stored `[n, k]` and read as its transpose.
    const B_T: bool;
}

/// `A · B`: `a` is stored `[m, k]`, `b` is stored `[k, n]`.
#[derive(Debug, Clone, Copy)]
pub struct NN;

/// `A · Bᵀ`: `a` is stored `[m, k]`, `b` is stored `[n, k]`.
#[derive(Debug, Clone, Copy)]
pub struct NT;

/// `Aᵀ · B`: `a` is stored `[k, m]`, `b` is stored `[k, n]`.
#[derive(Debug, Clone, Copy)]
pub struct TN;

impl Layout for NN {
    const A_T: bool = false;
    const B_T: bool = false;
}

impl Layout for NT {
    const A_T: bool = false;
    const B_T: bool = true;
}

impl Layout for TN {
    const A_T: bool = true;
    const B_T: bool = false;
}

/// A borrowed row-major `f32` matrix of `rows × cols` elements.
#[derive(Debug, Clone, Copy)]
pub struct MatRef<'a> {
    data: &'a [f32],
    rows: usize,
    cols: usize,
}

impl<'a> MatRef<'a> {
    /// Views `data` as a `rows × cols` matrix.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows · cols`.
    pub fn new(data: &'a [f32], rows: usize, cols: usize) -> Self {
        assert_eq!(data.len(), rows * cols, "matrix view of {rows}×{cols}");
        Self { data, rows, cols }
    }

    #[inline]
    fn at(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.cols + c]
    }

    #[inline]
    fn row(&self, r: usize) -> &'a [f32] {
        &self.data[r * self.cols..][..self.cols]
    }
}

/// The accumulating matrix product `out += op(a) · op(b)` for the
/// [`Layout`] `L`, where `op` reads an operand as stored (`N`) or
/// transposed (`T`); `out` is `[m, n]`, row-major. It packs `a` and runs
/// [`PackedA::matmul_into`], which has the details.
///
/// Each element's `k` products are summed in ascending `k` from `+0.0`,
/// and only then added to `out`: bit-identical to a naive triple loop plus
/// one add, for every layout and shape (for finite operands). That sum is
/// never `-0.0`, so a zeroed `out` receives the product exactly.
///
/// # Example
///
/// ```
/// use scnn_nn::{matmul_into, MatRef, NT};
///
/// // [1 2] · [3 4]ᵀ = [11], added to what `out` holds
/// let mut out = [0.0f32];
/// matmul_into(NT, MatRef::new(&[1.0, 2.0], 1, 2), MatRef::new(&[3.0, 4.0], 1, 2), &mut out);
/// assert_eq!(out, [11.0]);
/// matmul_into(NT, MatRef::new(&[1.0, 2.0], 1, 2), MatRef::new(&[3.0, 4.0], 1, 2), &mut out);
/// assert_eq!(out, [22.0]);
/// ```
///
/// # Panics
///
/// Panics if the inner dimensions differ or `out.len() != m · n`.
pub fn matmul_into<L: Layout>(layout: L, a: MatRef<'_>, b: MatRef<'_>, out: &mut [f32]) {
    PackedA::new(layout, a).matmul_into(layout, b, out);
}

/// The left operand of a matrix product, packed once for the register
/// tile so that several products can share it: a convolution packs its
/// weights once per batch, not once per image.
///
/// Each group of `MR` = 4 rows with at least a third of its entries
/// non-zero is packed `k`-major when `k` ≥ 16; every other row (the
/// `m mod MR` left over, a short `k`, or a sparse group such as a
/// max-pooled gradient) is read in place when the product runs.
#[derive(Debug, Clone)]
pub struct PackedA<'a> {
    a: MatRef<'a>,
    transposed: bool,
    m: usize,
    k: usize,
    /// First row of each packed group, ascending.
    panel_rows: Vec<usize>,
    /// The packed groups, `MR · k` values each.
    panels: Vec<f32>,
}

/// The right operand of [`PackedA::product`], `k × n`.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Rhs<'a> {
    /// Stored `[k, n]` and read in place.
    Rows(MatRef<'a>),
    /// Stored `[n, k]` and read as its transpose.
    Cols(MatRef<'a>),
    /// Entry `(p, j)` is `data[p_off[p] + j_off[j]]`: a convolution's patch
    /// matrix, read from its image. `ternary` promises that every entry is
    /// ±0 or ±1, so that every product is exact and may be fused.
    Gather { data: &'a [f32], p_off: &'a [usize], j_off: &'a [usize], ternary: bool },
}

impl<'a> PackedA<'a> {
    /// Packs `a` as the left operand of an `L` product.
    pub fn new<L: Layout>(_layout: L, a: MatRef<'a>) -> Self {
        let (m, k) = if L::A_T { (a.cols, a.rows) } else { (a.rows, a.cols) };
        let groups = if k < MIN_TILE_K { 0 } else { m / MR };
        let mut panels = vec![0.0f32; groups * MR * k];
        let mut panel_rows = Vec::with_capacity(groups);
        for i0 in (0..groups * MR).step_by(MR) {
            let panel = &mut panels[panel_rows.len() * MR * k..][..MR * k];
            if L::A_T {
                for (p, dst) in panel.chunks_exact_mut(MR).enumerate() {
                    dst.copy_from_slice(&a.data[p * m + i0..][..MR]);
                }
            } else {
                let rows: [&[f32]; MR] = std::array::from_fn(|r| &a.data[(i0 + r) * k..][..k]);
                for (p, dst) in panel.chunks_exact_mut(MR).enumerate() {
                    for (d, row) in dst.iter_mut().zip(&rows) {
                        *d = row[p];
                    }
                }
            }
            // Sparser groups (a max-pooled gradient) do less work streaming.
            let nonzero = panel.iter().filter(|&&v| v != 0.0).count();
            if 3 * nonzero >= MR * k {
                panel_rows.push(i0);
            }
        }
        panels.truncate(panel_rows.len() * MR * k);
        Self { a, transposed: L::A_T, m, k, panel_rows, panels }
    }

    /// Entry `(i, p)` of the left operand as the product reads it.
    #[inline]
    fn at(&self, i: usize, p: usize) -> f32 {
        if self.transposed {
            self.a.at(p, i)
        } else {
            self.a.at(i, p)
        }
    }

    /// [`matmul_into`] with this packed left operand: `out += op(a) · op(b)`
    /// for the layout `L` it was packed for.
    ///
    /// Packed row groups run through a 4×16 register tile, swept across
    /// the right operand one L2-sized column block after another. The
    /// other rows stream the right operand into one scratch row and skip
    /// zero left-hand entries, which cannot change a sum that starts at
    /// `+0.0`; each sum is complete before it is added to `out`. A
    /// transposed right operand is packed `k`-major, one column block at a
    /// time; an untransposed one is read in place.
    ///
    /// # Panics
    ///
    /// Panics if `L` transposes the left operand differently from the
    /// packing, if the inner dimensions differ or if `out.len() != m · n`.
    pub fn matmul_into<L: Layout>(&self, _layout: L, b: MatRef<'_>, out: &mut [f32]) {
        assert_eq!(self.transposed, L::A_T, "PackedA used with another layout");
        self.product(if L::B_T { Rhs::Cols(b) } else { Rhs::Rows(b) }, out);
    }

    /// `out += A · b`, the one kernel behind every product (see
    /// [`matmul_into`](Self::matmul_into)). A right operand that is not
    /// stored `[k, n]` is packed `k`-major, one column block at a time.
    ///
    /// A ternary [`Rhs::Gather`] takes fused multiply-adds where the target
    /// has them: each product `a·x` is `±a` or `±0`, exact, so
    /// `fma(a, x, s)` rounds once to the bits of `s + a·x`.
    pub(crate) fn product(&self, b: Rhs<'_>, out: &mut [f32]) {
        let (m, k) = (self.m, self.k);
        let fused = matches!(b, Rhs::Gather { ternary: true, .. });
        let (kb, n) = match b {
            Rhs::Rows(b) => (b.rows, b.cols),
            Rhs::Cols(b) => (b.cols, b.rows),
            Rhs::Gather { p_off, j_off, .. } => (p_off.len(), j_off.len()),
        };
        assert_eq!(k, kb, "matmul_into inner dimensions");
        assert_eq!(out.len(), m * n, "matmul_into output of {m}×{n}");
        if k == 0 || n == 0 {
            out.iter_mut().for_each(|o| *o += 0.0); // the empty sum, +0.0
            return;
        }

        let pack = !matches!(b, Rhs::Rows(_));
        let block = if pack || !self.panel_rows.is_empty() {
            (B_BLOCK / k).clamp(NR, n.next_multiple_of(NR)).next_multiple_of(NR)
        } else {
            n
        };
        let mut packed = vec![0.0f32; if pack { k * block.min(n) } else { 0 }];
        let mut edge = Vec::new();
        let mut sums = Vec::new();
        for j_block in (0..n).step_by(block) {
            let width = block.min(n - j_block);
            // Row `p` of the block is `b_data[b_off + p · b_stride..][..width]`.
            let (b_data, b_off, b_stride) = match b {
                Rhs::Rows(b) => (b.data, j_block, n),
                Rhs::Cols(b) => {
                    for p0 in (0..k).step_by(NR) {
                        // NR steps at a time, so reads and writes stay on few lines.
                        for j in 0..width {
                            for (p, &v) in (p0..).zip(&b.row(j_block + j)[p0..k.min(p0 + NR)]) {
                                packed[p * width + j] = v;
                            }
                        }
                    }
                    (&packed[..], 0, width)
                }
                Rhs::Gather { data, p_off, j_off, .. } => {
                    let j_off = &j_off[j_block..][..width];
                    for (row, &po) in packed.chunks_exact_mut(width).zip(p_off) {
                        for (dst, &jo) in row.iter_mut().zip(j_off) {
                            *dst = data[po + jo];
                        }
                    }
                    (&packed[..], 0, width)
                }
            };

            if !self.panel_rows.is_empty() {
                // The last column panel, if narrower than NR, zero-padded.
                let edge_start = width - width % NR;
                if edge_start < width {
                    edge.resize(k * NR, 0.0);
                    for (p, dst) in edge.chunks_exact_mut(NR).enumerate() {
                        let src = &b_data[b_off + p * b_stride..][edge_start..width];
                        dst[..src.len()].copy_from_slice(src);
                    }
                }
                for (a_panel, &i0) in self.panels.chunks_exact(MR * k).zip(&self.panel_rows) {
                    for j0 in (0..width).step_by(NR) {
                        let acc = if j0 < edge_start {
                            tile(fused, a_panel, &b_data[b_off + j0..], b_stride)
                        } else {
                            tile(fused, a_panel, &edge, NR)
                        };
                        let cols = NR.min(width - j0);
                        for (r, acc_row) in acc.iter().enumerate() {
                            let dst = &mut out[(i0 + r) * n + j_block + j0..][..cols];
                            dst.iter_mut().zip(acc_row).for_each(|(o, &s)| *o += s);
                        }
                    }
                }
            }

            let mut panels = self.panel_rows.iter().peekable();
            let mut i = 0;
            while i < m {
                if panels.next_if(|&&i0| i0 == i).is_some() {
                    i += MR;
                    continue;
                }
                sums.clear();
                sums.resize(width, 0.0f32);
                for p in 0..k {
                    let av = self.at(i, p);
                    if av == 0.0 {
                        continue;
                    }
                    let b_row = &b_data[b_off + p * b_stride..][..width];
                    if fused {
                        add_row_product::<true>(&mut sums, av, b_row);
                    } else {
                        add_row_product::<false>(&mut sums, av, b_row);
                    }
                }
                let o_row = &mut out[i * n + j_block..][..width];
                o_row.iter_mut().zip(&sums).for_each(|(o, &s)| *o += s);
                i += 1;
            }
        }
    }
}

/// [`register_tile`], fused when every product is exact.
fn tile(fused: bool, a_panel: &[f32], b: &[f32], b_stride: usize) -> [[f32; NR]; MR] {
    if fused {
        register_tile::<true>(a_panel, b, b_stride)
    } else {
        register_tile::<false>(a_panel, b, b_stride)
    }
}

/// One `MR × NR` block of outputs from a packed row panel and `k` rows of
/// `NR` right-hand columns, `b_stride` apart in `b`; each output is summed
/// in ascending `k` in a register.
///
/// `FUSED` promises that every product is exact (a ternary `b`, the
/// zero-padded edge panel included), so each step may be one fused
/// multiply-add with the bits of a multiply and an add; see [`mul_acc`].
#[inline(always)]
fn register_tile<const FUSED: bool>(
    a_panel: &[f32],
    b: &[f32],
    b_stride: usize,
) -> [[f32; NR]; MR] {
    let mut acc = [[0.0f32; NR]; MR];
    for (p, a) in a_panel.chunks_exact(MR).enumerate() {
        let b_row = &b[p * b_stride..][..NR];
        for (acc_row, &av) in acc.iter_mut().zip(a) {
            for (o, &bv) in acc_row.iter_mut().zip(b_row) {
                *o = mul_acc::<FUSED>(*o, av, bv);
            }
        }
    }
    acc
}

/// `sums += a · b_row`, one streamed row step; `FUSED` as in [`mul_acc`].
#[inline(always)]
fn add_row_product<const FUSED: bool>(sums: &mut [f32], a: f32, b_row: &[f32]) {
    for (s, &bv) in sums.iter_mut().zip(b_row) {
        *s = mul_acc::<FUSED>(*s, a, bv);
    }
}

/// `s + a·b`. With `FUSED`, and only where the target has FMA, it is one
/// fused multiply-add, which rounds once: callers pass `FUSED` only when
/// `a·b` is exact, so both forms give the same bits. Without FMA,
/// `f32::mul_add` would call a software `fmaf`, so that build keeps the
/// multiply and the add.
#[inline(always)]
fn mul_acc<const FUSED: bool>(s: f32, a: f32, b: f32) -> f32 {
    if FUSED && cfg!(target_feature = "fma") {
        a.mul_add(b, s)
    } else {
        s + a * b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        let z = Tensor::zeros(&[2, 3]);
        assert_eq!(z.len(), 6);
        assert_eq!(z.shape(), &[2, 3]);
        let f = Tensor::filled(&[4], 2.5);
        assert!(f.data().iter().all(|&v| v == 2.5));
        assert!(Tensor::from_vec(vec![1.0; 5], &[2, 3]).is_err());
    }

    #[test]
    fn matmul_known_values() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        let b = Tensor::from_vec(vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0], &[3, 2]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.shape(), &[2, 2]);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_validates() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[4, 2]);
        assert!(a.matmul(&b).is_err());
        let c = Tensor::zeros(&[6]);
        assert!(c.matmul(&a).is_err());
    }

    #[test]
    fn identity_is_neutral() {
        let a = Tensor::from_vec((0..9).map(|v| v as f32).collect(), &[3, 3]).unwrap();
        assert_eq!(a.matmul(&Tensor::eye(3)).unwrap().data(), a.data());
        assert_eq!(Tensor::eye(3).matmul(&a).unwrap().data(), a.data());
    }

    #[test]
    fn reshape_preserves_data() {
        let a = Tensor::from_vec((0..6).map(|v| v as f32).collect(), &[2, 3]).unwrap();
        let b = a.clone().reshape(&[3, 2]).unwrap();
        assert_eq!(b.data(), a.data());
        assert!(a.clone().reshape(&[4, 2]).is_err());
    }

    #[test]
    fn map_max_abs_and_fill_zero() {
        let a = Tensor::from_vec(vec![1.0, -2.0], &[2]).unwrap();
        let b = a.map(f32::abs);
        assert_eq!(b.data(), &[1.0, 2.0]);
        let mut c = a.map(|v| v * 0.5);
        assert_eq!(c.data(), &[0.5, -1.0]);
        assert_eq!(c.max_abs(), 1.0);
        c.fill_zero();
        assert_eq!(c.data(), &[0.0, 0.0]);
    }

    #[test]
    fn debug_short_and_long() {
        let small = Tensor::zeros(&[2]);
        assert!(format!("{small:?}").contains("data="));
        let big = Tensor::zeros(&[100]);
        assert!(format!("{big:?}").contains("…"));
    }
}
