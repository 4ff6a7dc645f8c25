use crate::{Bipolar, Error, Unipolar};
use std::fmt;
use std::ops::{BitAnd, BitOr, BitXor, Not};

const WORD_BITS: usize = 64;

/// A stochastic bit-stream, densely packed 64 bits per word.
///
/// Bit `i` of the stream is stored at bit `i % 64` of word `i / 64`
/// (LSB-first). Unused high bits of the final word are always zero — an
/// invariant every operation maintains, so [`count_ones`](Self::count_ones)
/// is a plain popcount over the words.
///
/// # Example
///
/// ```
/// use scnn_bitstream::BitStream;
///
/// let x: BitStream = [true, false, true, true].into_iter().collect();
/// assert_eq!(x.len(), 4);
/// assert_eq!(x.count_ones(), 3);
/// assert_eq!(x.to_string(), "1011");
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct BitStream {
    words: Vec<u64>,
    len: usize,
}

impl BitStream {
    /// Creates an empty stream.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a stream of `len` zero bits.
    pub fn zeros(len: usize) -> Self {
        Self { words: vec![0; len.div_ceil(WORD_BITS)], len }
    }

    /// Creates a stream of `len` one bits.
    pub fn ones(len: usize) -> Self {
        let mut s = Self { words: vec![u64::MAX; len.div_ceil(WORD_BITS)], len };
        s.mask_tail();
        s
    }

    /// Creates a stream from anything yielding `bool`s.
    ///
    /// ```
    /// use scnn_bitstream::BitStream;
    /// let s = BitStream::from_bits([true, false, true]);
    /// assert_eq!(s.count_ones(), 2);
    /// ```
    pub fn from_bits<I: IntoIterator<Item = bool>>(bits: I) -> Self {
        bits.into_iter().collect()
    }

    /// Creates a stream of length `len` whose bit `i` is `f(i)`.
    pub fn from_fn<F: FnMut(usize) -> bool>(len: usize, mut f: F) -> Self {
        let mut s = Self::zeros(len);
        for i in 0..len {
            if f(i) {
                s.words[i / WORD_BITS] |= 1u64 << (i % WORD_BITS);
            }
        }
        s
    }

    /// Parses a stream from a string of `'0'`/`'1'` characters; whitespace
    /// and `_` separators are ignored (so the paper's grouped notation
    /// `"0110 0011"` parses directly).
    ///
    /// # Errors
    ///
    /// Returns [`Error::ValueOutOfRange`] if any other character appears.
    pub fn parse(s: &str) -> Result<Self, Error> {
        let mut bits = Vec::with_capacity(s.len());
        for c in s.chars() {
            match c {
                '0' => bits.push(false),
                '1' => bits.push(true),
                c if c.is_whitespace() || c == '_' => {}
                _ => {
                    return Err(Error::ValueOutOfRange {
                        value: f64::NAN,
                        domain: "bit-string of '0'/'1'",
                    })
                }
            }
        }
        Ok(Self::from_bits(bits))
    }

    /// Reconstructs a stream from raw words (LSB-first packing).
    ///
    /// # Panics
    ///
    /// Panics if `words` is shorter than `len` requires; excess words and
    /// bits beyond `len` are discarded/cleared.
    pub fn from_words(mut words: Vec<u64>, len: usize) -> Self {
        let needed = len.div_ceil(WORD_BITS);
        assert!(words.len() >= needed, "need {needed} words for {len} bits, got {}", words.len());
        words.truncate(needed);
        let mut s = Self { words, len };
        s.mask_tail();
        s
    }

    /// Number of bits (clock cycles) in the stream.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the stream holds no bits.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// A view of the packed words (LSB-first; tail bits are zero).
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Bit at position `index`, or `None` past the end.
    #[inline]
    pub fn get(&self, index: usize) -> Option<bool> {
        if index < self.len {
            Some(self.words[index / WORD_BITS] >> (index % WORD_BITS) & 1 == 1)
        } else {
            None
        }
    }

    /// Sets the bit at `index`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::IndexOutOfBounds`] if `index >= len`.
    pub fn set(&mut self, index: usize, bit: bool) -> Result<(), Error> {
        if index >= self.len {
            return Err(Error::IndexOutOfBounds { index, len: self.len });
        }
        let mask = 1u64 << (index % WORD_BITS);
        if bit {
            self.words[index / WORD_BITS] |= mask;
        } else {
            self.words[index / WORD_BITS] &= !mask;
        }
        Ok(())
    }

    /// Flips the bit at `index` (models a single-event upset for the
    /// fault-tolerance experiments).
    ///
    /// # Errors
    ///
    /// Returns [`Error::IndexOutOfBounds`] if `index >= len`.
    pub fn flip(&mut self, index: usize) -> Result<(), Error> {
        if index >= self.len {
            return Err(Error::IndexOutOfBounds { index, len: self.len });
        }
        self.words[index / WORD_BITS] ^= 1u64 << (index % WORD_BITS);
        Ok(())
    }

    /// Appends a bit.
    pub fn push(&mut self, bit: bool) {
        if self.len.is_multiple_of(WORD_BITS) {
            self.words.push(0);
        }
        if bit {
            *self.words.last_mut().expect("word allocated above") |= 1u64 << (self.len % WORD_BITS);
        }
        self.len += 1;
    }

    /// Number of `1` bits — the quantity a stochastic-to-binary counter
    /// (paper Fig. 1d) accumulates.
    #[inline]
    pub fn count_ones(&self) -> u64 {
        self.words.iter().map(|w| u64::from(w.count_ones())).sum()
    }

    /// Number of `0` bits.
    #[inline]
    pub fn count_zeros(&self) -> u64 {
        self.len as u64 - self.count_ones()
    }

    /// The unipolar value `ones / len` of this stream.
    ///
    /// # Panics
    ///
    /// Panics if the stream is empty (an empty stream encodes no value).
    pub fn unipolar(&self) -> Unipolar {
        assert!(!self.is_empty(), "empty bit-stream has no value");
        Unipolar::saturating(self.count_ones() as f64 / self.len as f64)
    }

    /// The bipolar value `2·(ones/len) − 1` of this stream.
    ///
    /// # Panics
    ///
    /// Panics if the stream is empty.
    pub fn bipolar(&self) -> Bipolar {
        self.unipolar().to_bipolar()
    }

    /// Iterates over the bits.
    pub fn iter(&self) -> Iter<'_> {
        Iter { stream: self, pos: 0 }
    }

    /// Bitwise AND — the stochastic multiplier of Fig. 1a.
    ///
    /// # Errors
    ///
    /// Returns [`Error::LengthMismatch`] if the lengths differ.
    pub fn checked_and(&self, other: &Self) -> Result<Self, Error> {
        self.zip_words(other, |a, b| a & b)
    }

    /// Bitwise OR — the saturating adder of Li et al. (accurate only near 0).
    ///
    /// # Errors
    ///
    /// Returns [`Error::LengthMismatch`] if the lengths differ.
    pub fn checked_or(&self, other: &Self) -> Result<Self, Error> {
        self.zip_words(other, |a, b| a | b)
    }

    /// Bitwise XOR.
    ///
    /// # Errors
    ///
    /// Returns [`Error::LengthMismatch`] if the lengths differ.
    pub fn checked_xor(&self, other: &Self) -> Result<Self, Error> {
        self.zip_words(other, |a, b| a ^ b)
    }

    /// Bitwise NOT — computes `1 − p` in the unipolar domain (and `−v` in
    /// the bipolar domain).
    pub fn not(&self) -> Self {
        let mut out = Self { words: self.words.iter().map(|w| !w).collect(), len: self.len };
        out.mask_tail();
        out
    }

    /// Counts positions where both streams are `1` without materializing the
    /// AND stream. This is the hot path of the packed convolution engine.
    ///
    /// # Errors
    ///
    /// Returns [`Error::LengthMismatch`] if the lengths differ.
    pub fn and_count(&self, other: &Self) -> Result<u64, Error> {
        if self.len != other.len {
            return Err(Error::LengthMismatch { left: self.len, right: other.len });
        }
        Ok(self.words.iter().zip(&other.words).map(|(a, b)| u64::from((a & b).count_ones())).sum())
    }

    /// The overlap-free correlation (SCC-style numerator) helper:
    /// counts of `(11, 10, 01, 00)` position pairs.
    ///
    /// # Errors
    ///
    /// Returns [`Error::LengthMismatch`] if the lengths differ.
    pub fn pair_counts(&self, other: &Self) -> Result<(u64, u64, u64, u64), Error> {
        if self.len != other.len {
            return Err(Error::LengthMismatch { left: self.len, right: other.len });
        }
        let n11: u64 =
            self.words.iter().zip(&other.words).map(|(a, b)| u64::from((a & b).count_ones())).sum();
        let n10 = self.count_ones() - n11;
        let n01 = other.count_ones() - n11;
        let n00 = self.len as u64 - n11 - n10 - n01;
        Ok((n11, n10, n01, n00))
    }

    fn zip_words(&self, other: &Self, f: impl Fn(u64, u64) -> u64) -> Result<Self, Error> {
        if self.len != other.len {
            return Err(Error::LengthMismatch { left: self.len, right: other.len });
        }
        let mut out = Self {
            words: self.words.iter().zip(&other.words).map(|(a, b)| f(*a, *b)).collect(),
            len: self.len,
        };
        out.mask_tail();
        Ok(out)
    }

    fn mask_tail(&mut self) {
        let rem = self.len % WORD_BITS;
        if rem != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << rem) - 1;
            }
        }
    }
}

impl fmt::Debug for BitStream {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BitStream(len={}, ones={}, bits=", self.len, self.count_ones())?;
        const PREVIEW: usize = 64;
        for i in 0..self.len.min(PREVIEW) {
            write!(f, "{}", u8::from(self.get(i).expect("index < len")))?;
        }
        if self.len > PREVIEW {
            write!(f, "…")?;
        }
        write!(f, ")")
    }
}

impl fmt::Display for BitStream {
    /// Renders every bit as `0`/`1`, oldest bit first.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.len {
            write!(f, "{}", u8::from(self.get(i).expect("index < len")))?;
        }
        Ok(())
    }
}

impl FromIterator<bool> for BitStream {
    fn from_iter<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        let mut s = BitStream::new();
        for b in iter {
            s.push(b);
        }
        s
    }
}

impl Extend<bool> for BitStream {
    fn extend<I: IntoIterator<Item = bool>>(&mut self, iter: I) {
        for b in iter {
            self.push(b);
        }
    }
}

impl<'a> IntoIterator for &'a BitStream {
    type Item = bool;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

impl BitAnd for &BitStream {
    type Output = BitStream;

    /// # Panics
    ///
    /// Panics if the stream lengths differ; use
    /// [`BitStream::checked_and`] for a fallible variant.
    fn bitand(self, rhs: &BitStream) -> BitStream {
        self.checked_and(rhs).expect("bit-stream length mismatch in &")
    }
}

impl BitOr for &BitStream {
    type Output = BitStream;

    /// # Panics
    ///
    /// Panics if the stream lengths differ; use
    /// [`BitStream::checked_or`] for a fallible variant.
    fn bitor(self, rhs: &BitStream) -> BitStream {
        self.checked_or(rhs).expect("bit-stream length mismatch in |")
    }
}

impl BitXor for &BitStream {
    type Output = BitStream;

    /// # Panics
    ///
    /// Panics if the stream lengths differ; use
    /// [`BitStream::checked_xor`] for a fallible variant.
    fn bitxor(self, rhs: &BitStream) -> BitStream {
        self.checked_xor(rhs).expect("bit-stream length mismatch in ^")
    }
}

impl Not for &BitStream {
    type Output = BitStream;

    fn not(self) -> BitStream {
        BitStream::not(self)
    }
}

/// Iterator over the bits of a [`BitStream`], produced by
/// [`BitStream::iter`].
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    stream: &'a BitStream,
    pos: usize,
}

impl Iterator for Iter<'_> {
    type Item = bool;

    fn next(&mut self) -> Option<bool> {
        let b = self.stream.get(self.pos)?;
        self.pos += 1;
        Some(b)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.stream.len - self.pos;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for Iter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_ones() {
        let z = BitStream::zeros(100);
        assert_eq!(z.len(), 100);
        assert_eq!(z.count_ones(), 0);
        let o = BitStream::ones(100);
        assert_eq!(o.count_ones(), 100);
        assert_eq!(o.count_zeros(), 0);
    }

    #[test]
    fn ones_masks_tail() {
        // 70 bits spans two words; the second word must only have 6 bits set.
        let o = BitStream::ones(70);
        assert_eq!(o.words().len(), 2);
        assert_eq!(o.words()[1].count_ones(), 6);
    }

    #[test]
    fn push_and_get() {
        let mut s = BitStream::new();
        for i in 0..200 {
            s.push(i % 3 == 0);
        }
        assert_eq!(s.len(), 200);
        for i in 0..200 {
            assert_eq!(s.get(i), Some(i % 3 == 0), "bit {i}");
        }
        assert_eq!(s.get(200), None);
    }

    #[test]
    fn set_and_flip() {
        let mut s = BitStream::zeros(10);
        s.set(3, true).unwrap();
        assert_eq!(s.get(3), Some(true));
        s.flip(3).unwrap();
        assert_eq!(s.get(3), Some(false));
        assert!(s.set(10, true).is_err());
        assert!(s.flip(10).is_err());
    }

    #[test]
    fn parse_paper_notation() {
        // X from the paper's Fig. 2b worked example.
        let x = BitStream::parse("0110 0011 0101 0111 1000").unwrap();
        assert_eq!(x.len(), 20);
        assert_eq!(x.count_ones(), 10);
        assert_eq!(x.unipolar().get(), 0.5);
        assert!(BitStream::parse("01x0").is_err());
    }

    #[test]
    fn and_is_multiplication_of_counts_on_identical_streams() {
        let x = BitStream::parse("110100").unwrap();
        let z = x.checked_and(&x).unwrap();
        assert_eq!(z, x);
    }

    #[test]
    fn logical_ops() {
        let a = BitStream::parse("1100").unwrap();
        let b = BitStream::parse("1010").unwrap();
        assert_eq!((&a & &b).to_string(), "1000");
        assert_eq!((&a | &b).to_string(), "1110");
        assert_eq!((&a ^ &b).to_string(), "0110");
        assert_eq!((!&a).to_string(), "0011");
    }

    #[test]
    fn not_computes_complement_value() {
        let a = BitStream::parse("1101").unwrap();
        assert!((a.not().unipolar().get() - 0.25).abs() < 1e-12);
        // NOT twice is identity, including tail masking.
        let long = BitStream::from_fn(97, |i| i % 2 == 0);
        assert_eq!(long.not().not(), long);
    }

    #[test]
    fn length_mismatch_errors() {
        let a = BitStream::zeros(4);
        let b = BitStream::zeros(8);
        assert!(matches!(a.checked_and(&b), Err(Error::LengthMismatch { left: 4, right: 8 })));
        assert!(a.checked_or(&b).is_err());
        assert!(a.checked_xor(&b).is_err());
        assert!(a.and_count(&b).is_err());
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn operator_panics_on_mismatch() {
        let a = BitStream::zeros(4);
        let b = BitStream::zeros(8);
        let _ = &a & &b;
    }

    #[test]
    fn and_count_matches_materialized_and() {
        let a = BitStream::from_fn(300, |i| (i * 7) % 13 < 5);
        let b = BitStream::from_fn(300, |i| (i * 11) % 17 < 9);
        assert_eq!(a.and_count(&b).unwrap(), a.checked_and(&b).unwrap().count_ones());
    }

    #[test]
    fn pair_counts_partition_length() {
        let a = BitStream::from_fn(130, |i| i % 2 == 0);
        let b = BitStream::from_fn(130, |i| i % 3 == 0);
        let (n11, n10, n01, n00) = a.pair_counts(&b).unwrap();
        assert_eq!(n11 + n10 + n01 + n00, 130);
        assert_eq!(n11 + n10, a.count_ones());
        assert_eq!(n11 + n01, b.count_ones());
    }

    #[test]
    fn values() {
        let s = BitStream::parse("1111_0000").unwrap();
        assert_eq!(s.unipolar().get(), 0.5);
        assert_eq!(s.bipolar().get(), 0.0);
        let s = BitStream::parse("1110").unwrap();
        assert_eq!(s.bipolar().get(), 0.5);
    }

    #[test]
    #[should_panic(expected = "empty bit-stream")]
    fn empty_stream_has_no_value() {
        let _ = BitStream::new().unipolar();
    }

    #[test]
    fn iterator_round_trip() {
        let s = BitStream::from_fn(77, |i| i % 5 < 2);
        let collected: BitStream = s.iter().collect();
        assert_eq!(collected, s);
        assert_eq!(s.iter().len(), 77);
        let mut extended = BitStream::new();
        extended.extend(s.iter());
        assert_eq!(extended, s);
    }

    #[test]
    fn from_words_round_trip() {
        let s = BitStream::from_fn(100, |i| i % 7 == 0);
        let t = BitStream::from_words(s.words().to_vec(), 100);
        assert_eq!(s, t);
    }

    #[test]
    #[should_panic(expected = "need")]
    fn from_words_validates_length() {
        let _ = BitStream::from_words(vec![0u64], 100);
    }

    #[test]
    fn debug_is_nonempty_and_truncated() {
        let s = BitStream::ones(100);
        let d = format!("{s:?}");
        assert!(d.contains("len=100"));
        assert!(d.contains('…'));
    }
}
