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

    /// `self += alpha · other`, elementwise.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn add_scaled(&mut self, other: &Tensor, alpha: f32) {
        assert_eq!(self.shape, other.shape, "add_scaled shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
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
/// Columns of the right operand in one register tile of [`matmul_into`].
const NR: usize = 8;
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

/// The matrix product `out = op(a) · op(b)` for the [`Layout`] `L`, where
/// `op` reads an operand as stored (`N`) or transposed (`T`); `out` is
/// `[m, n]`, row-major, and is overwritten.
///
/// Every output element is the sum of its `k` products in ascending `k`,
/// starting from `+0.0`, so the result is bit-identical to a naive triple
/// loop for every layout and shape (for finite operands).
///
/// Groups of `MR` = 4 rows with at least a third of their left-hand
/// entries non-zero run through a register tile: each group is packed
/// `k`-major once, then swept across the right operand `NR` = 8 columns
/// at a time, one L2-sized column block after another. Every other row
/// (the `m mod MR` left over, `k` < 16, or a sparse group such as a
/// max-pooled gradient) streams the right operand row by row and skips
/// zero left-hand entries, which cannot change a sum that starts at
/// `+0.0`. A transposed right operand is packed `k`-major, one column
/// block at a time, when at least `MR` rows read it, so a single row (a
/// serial frame's dense layer) never pays for packing.
///
/// # Example
///
/// ```
/// use scnn_nn::{matmul_into, MatRef, NT};
///
/// // [1 2] · [3 4]ᵀ = [11]
/// let mut out = [0.0f32];
/// matmul_into(NT, MatRef::new(&[1.0, 2.0], 1, 2), MatRef::new(&[3.0, 4.0], 1, 2), &mut out);
/// assert_eq!(out, [11.0]);
/// ```
///
/// # Panics
///
/// Panics if the inner dimensions differ or `out.len() != m · n`.
pub fn matmul_into<L: Layout>(_layout: L, a: MatRef<'_>, b: MatRef<'_>, out: &mut [f32]) {
    let (m, k) = if L::A_T { (a.cols, a.rows) } else { (a.rows, a.cols) };
    let (kb, n) = if L::B_T { (b.cols, b.rows) } else { (b.rows, b.cols) };
    assert_eq!(k, kb, "matmul_into inner dimensions");
    assert_eq!(out.len(), m * n, "matmul_into output of {m}×{n}");
    if k == 0 || n == 0 {
        out.fill(0.0);
        return;
    }
    let a_at = |i: usize, p: usize| if L::A_T { a.at(p, i) } else { a.at(i, p) };

    // Pack each group of MR rows at least a third non-zero: sparser groups
    // (a max-pooled gradient) do less work streaming.
    let mut panel_rows = Vec::new();
    let mut a_packed = Vec::new();
    if k >= MIN_TILE_K {
        a_packed.reserve_exact((m - m % MR) * k);
        for i0 in (0..m - m % MR).step_by(MR) {
            let start = a_packed.len();
            for p in 0..k {
                a_packed.extend((i0..i0 + MR).map(|i| a_at(i, p)));
            }
            let nonzero = a_packed[start..].iter().filter(|&&v| v != 0.0).count();
            if 3 * nonzero >= MR * k {
                panel_rows.push(i0);
            } else {
                a_packed.truncate(start);
            }
        }
    }

    // Tiles and packing walk the right operand one L2-sized block of
    // columns at a time. A transposed right operand is packed `k`-major
    // per block when MR or more rows read it; otherwise its rows are read
    // in place, and rows that only stream take them whole.
    let pack = L::B_T && m >= MR;
    let block = if pack || !panel_rows.is_empty() {
        (B_BLOCK / k).clamp(NR, n.next_multiple_of(NR)).next_multiple_of(NR)
    } else {
        n
    };
    let mut packed = vec![0.0f32; if pack { k * block.min(n) } else { 0 }];
    let mut edge = Vec::new();
    for j_block in (0..n).step_by(block) {
        let width = block.min(n - j_block);
        // Row `p` of the block is `b_data[b_off + p · b_stride..][..width]`.
        let (b_data, b_off, b_stride) = if pack {
            for p0 in (0..k).step_by(NR) {
                // NR steps at a time, so reads and writes stay on few lines.
                for j in 0..width {
                    for (p, &v) in (p0..).zip(&b.row(j_block + j)[p0..k.min(p0 + NR)]) {
                        packed[p * width + j] = v;
                    }
                }
            }
            (&packed[..], 0, width)
        } else {
            (b.data, j_block, n)
        };

        if !panel_rows.is_empty() {
            // The last column panel, if narrower than NR, zero-padded.
            let edge_start = width - width % NR;
            if edge_start < width {
                edge.resize(k * NR, 0.0);
                for (p, dst) in edge.chunks_exact_mut(NR).enumerate() {
                    let src = &b_data[b_off + p * b_stride..][edge_start..width];
                    dst[..src.len()].copy_from_slice(src);
                }
            }
            for (a_panel, &i0) in a_packed.chunks_exact(MR * k).zip(&panel_rows) {
                for j0 in (0..width).step_by(NR) {
                    let acc = if j0 < edge_start {
                        register_tile(a_panel, &b_data[b_off + j0..], b_stride)
                    } else {
                        register_tile(a_panel, &edge, NR)
                    };
                    let cols = NR.min(width - j0);
                    for (r, acc_row) in acc.iter().enumerate() {
                        let dst = &mut out[(i0 + r) * n + j_block + j0..];
                        if cols == NR {
                            dst[..NR].copy_from_slice(acc_row);
                        } else {
                            dst[..cols].copy_from_slice(&acc_row[..cols]);
                        }
                    }
                }
            }
        }

        let mut panels = panel_rows.iter().peekable();
        let mut i = 0;
        while i < m {
            if panels.next_if(|&&i0| i0 == i).is_some() {
                i += MR;
                continue;
            }
            let o_row = &mut out[i * n + j_block..][..width];
            o_row.fill(0.0);
            for p in 0..k {
                let av = a_at(i, p);
                if av == 0.0 {
                    continue;
                }
                if L::B_T && !pack {
                    for (o, j) in o_row.iter_mut().zip(j_block..) {
                        *o += av * b.at(j, p);
                    }
                } else {
                    for (o, &bv) in o_row.iter_mut().zip(&b_data[b_off + p * b_stride..][..width]) {
                        *o += av * bv;
                    }
                }
            }
            i += 1;
        }
    }
}

/// One `MR × NR` block of outputs from a packed row panel and `k` rows of
/// `NR` right-hand columns, `b_stride` apart in `b`; each output is summed
/// in ascending `k` in a register.
#[inline(always)]
fn register_tile(a_panel: &[f32], b: &[f32], b_stride: usize) -> [[f32; NR]; MR] {
    let mut acc = [[0.0f32; NR]; MR];
    for (p, a) in a_panel.chunks_exact(MR).enumerate() {
        let b_row = &b[p * b_stride..][..NR];
        for (acc_row, &av) in acc.iter_mut().zip(a) {
            for (o, &bv) in acc_row.iter_mut().zip(b_row) {
                *o += av * bv;
            }
        }
    }
    acc
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
    fn map_and_add_scaled() {
        let a = Tensor::from_vec(vec![1.0, -2.0], &[2]).unwrap();
        let b = a.map(f32::abs);
        assert_eq!(b.data(), &[1.0, 2.0]);
        let mut c = Tensor::zeros(&[2]);
        c.add_scaled(&a, 0.5);
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
