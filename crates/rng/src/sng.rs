use crate::NumberSource;
use scnn_bitstream::{BitStream, Precision, Unipolar};

/// A stochastic number generator: a comparator fed by a [`NumberSource`]
/// (paper, Fig. 1c).
///
/// Each cycle draws one `k`-bit value `r` from the source and emits the
/// stream bit `r < B`, where `B` is the binary input level. Over `N = 2^k`
/// cycles the expected `1`-density is `B / 2^k`; how tightly a finite stream
/// tracks it depends on the source (this is what Table 1 measures).
///
/// # Example
///
/// ```
/// use scnn_bitstream::{Precision, Unipolar};
/// use scnn_rng::{Lfsr, Sng};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let precision = Precision::new(8)?;
/// let mut sng = Sng::new(Lfsr::new(8, 0x5a)?);
/// let stream = sng.generate_unipolar(Unipolar::new(0.25)?, precision);
/// assert_eq!(stream.len(), 256);
/// // An 8-bit maximal LFSR is one state short of a permutation, so the
/// // count is within 1 of exact.
/// assert!((stream.count_ones() as i64 - 64).abs() <= 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Sng<S> {
    source: S,
}

impl<S: NumberSource> Sng<S> {
    /// Wraps a number source in a comparator SNG.
    pub fn new(source: S) -> Self {
        Self { source }
    }

    /// The comparator width `k` in bits.
    pub fn width(&self) -> u32 {
        self.source.width()
    }

    /// Immutable access to the underlying source.
    pub fn source(&self) -> &S {
        &self.source
    }

    /// Mutable access to the underlying source (e.g. to reseed).
    pub fn source_mut(&mut self) -> &mut S {
        &mut self.source
    }

    /// Consumes the SNG, returning the source.
    pub fn into_inner(self) -> S {
        self.source
    }

    /// Rewinds the source to its initial state.
    pub fn reset(&mut self) {
        self.source.reset();
    }

    /// Generates `len` stream bits for binary input level `level`
    /// (`0..=2^k`; `2^k` yields an all-ones stream), continuing from the
    /// source's current state.
    pub fn generate_level(&mut self, level: u64, len: usize) -> BitStream {
        BitStream::from_fn(len, |_| self.source.next_value() < level)
    }

    /// Generates one full period (`N = 2^bits`) for a unipolar value,
    /// quantized to the SNG grid.
    pub fn generate_unipolar(&mut self, value: Unipolar, precision: Precision) -> BitStream {
        let level = precision.quantize_unipolar(value.get());
        self.generate_level(level, precision.stream_len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Halton, Lfsr, Ramp, TrueRandom, VanDerCorput};

    fn precision(bits: u32) -> Precision {
        Precision::new(bits).unwrap()
    }

    #[test]
    fn vdc_sng_is_exact_over_one_period() {
        let p = precision(6);
        let mut sng = Sng::new(VanDerCorput::new(6).unwrap());
        for level in p.all_levels() {
            sng.reset();
            let s = sng.generate_level(level, p.stream_len());
            assert_eq!(s.count_ones(), level, "level {level}");
        }
    }

    #[test]
    fn ramp_sng_is_exact_and_thermometer() {
        let p = precision(5);
        let mut sng = Sng::new(Ramp::new(5).unwrap());
        for level in p.all_levels() {
            sng.reset();
            let s = sng.generate_level(level, p.stream_len());
            assert_eq!(s.count_ones(), level);
            // Thermometer: all ones precede all zeros.
            let bits: Vec<bool> = s.iter().collect();
            let first_zero = bits.iter().position(|b| !b).unwrap_or(bits.len());
            assert!(bits[first_zero..].iter().all(|b| !b), "level {level} not thermometer");
        }
    }

    #[test]
    fn lfsr_sng_is_within_one_of_exact() {
        let p = precision(8);
        let mut sng = Sng::new(Lfsr::new(8, 0xb5).unwrap());
        for level in p.all_levels() {
            sng.reset();
            let s = sng.generate_level(level, p.stream_len());
            let err = s.count_ones() as i64 - level as i64;
            assert!(err.abs() <= 1, "level {level} err {err}");
        }
    }

    #[test]
    fn random_sng_converges_statistically() {
        let mut sng = Sng::new(TrueRandom::new(8, 1234).unwrap());
        let s = sng.generate_level(128, 1 << 14);
        let p = s.unipolar().get();
        assert!((p - 0.5).abs() < 0.02, "p = {p}");
    }

    #[test]
    fn level_extremes() {
        let mut sng = Sng::new(Halton::new(2, 4).unwrap());
        assert_eq!(sng.generate_level(0, 16).count_ones(), 0);
        sng.reset();
        assert_eq!(sng.generate_level(16, 16).count_ones(), 16);
    }

    #[test]
    fn accessors() {
        let mut sng = Sng::new(Ramp::new(4).unwrap());
        assert_eq!(sng.width(), 4);
        sng.source_mut().reset();
        let _ = sng.source();
        let _inner = sng.into_inner();
    }
}
