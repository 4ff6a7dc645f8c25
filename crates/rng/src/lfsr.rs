use crate::{Error, NumberSource};

/// Maximal-length feedback taps (1-indexed bit positions) for Fibonacci
/// LFSRs of width 3..=32, from the classic Xilinx XAPP052 table. Each entry
/// yields a sequence of period `2^w − 1` that visits every non-zero state.
const TAPS: [&[u32]; 30] = [
    &[3, 2],           // 3
    &[4, 3],           // 4
    &[5, 3],           // 5
    &[6, 5],           // 6
    &[7, 6],           // 7
    &[8, 6, 5, 4],     // 8
    &[9, 5],           // 9
    &[10, 7],          // 10
    &[11, 9],          // 11
    &[12, 6, 4, 1],    // 12
    &[13, 4, 3, 1],    // 13
    &[14, 5, 3, 1],    // 14
    &[15, 14],         // 15
    &[16, 15, 13, 4],  // 16
    &[17, 14],         // 17
    &[18, 11],         // 18
    &[19, 6, 2, 1],    // 19
    &[20, 17],         // 20
    &[21, 19],         // 21
    &[22, 21],         // 22
    &[23, 18],         // 23
    &[24, 23, 22, 17], // 24
    &[25, 22],         // 25
    &[26, 6, 2, 1],    // 26
    &[27, 5, 2, 1],    // 27
    &[28, 25],         // 28
    &[29, 27],         // 29
    &[30, 6, 4, 1],    // 30
    &[31, 28],         // 31
    &[32, 22, 2, 1],   // 32
];

/// A maximal-length Fibonacci linear-feedback shift register.
///
/// The workhorse pseudo-random number generator of stochastic computing
/// hardware: one flip-flop per bit plus a couple of XOR gates. Its period is
/// `2^w − 1` (the all-zero state is excluded), so over a full stream of
/// length `2^w` the generated numbers are *almost* a permutation — the
/// source of the small residual bias LFSR-driven SNGs exhibit relative to
/// low-discrepancy sequences (Table 1).
///
/// # Example
///
/// ```
/// use scnn_rng::{Lfsr, NumberSource};
///
/// # fn main() -> Result<(), scnn_rng::Error> {
/// let mut lfsr = Lfsr::new(4, 0b1001)?;
/// assert_eq!(lfsr.period(), Some(15));
/// let first = lfsr.next_value();
/// assert!(first < 16);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lfsr {
    width: u32,
    taps_mask: u64,
    seed: u64,
    state: u64,
}

impl Lfsr {
    /// Creates a `width`-bit LFSR seeded with `seed`.
    ///
    /// # Errors
    ///
    /// * [`Error::UnsupportedWidth`] unless `3 <= width <= 32`.
    /// * [`Error::InvalidSeed`] if `seed` is zero (the lock-up state) or
    ///   does not fit in `width` bits.
    pub fn new(width: u32, seed: u64) -> Result<Self, Error> {
        if !(3..=32).contains(&width) {
            return Err(Error::UnsupportedWidth { width, min: 3, max: 32 });
        }
        let mask = (1u64 << width) - 1;
        if seed == 0 || seed > mask {
            return Err(Error::InvalidSeed { seed, width });
        }
        // For a right-shift Fibonacci LFSR, polynomial exponent `t` taps
        // register bit `width - t` (e.g. x^16+x^14+x^13+x^11 → bits 0,2,3,5).
        let mut taps_mask = 0u64;
        for &t in TAPS[(width - 3) as usize] {
            taps_mask |= 1u64 << (width - t);
        }
        Ok(Self { width, taps_mask, seed, state: seed })
    }

    /// The current register state (never zero).
    #[inline]
    pub fn state(&self) -> u64 {
        self.state
    }

    /// Advances the register one cycle and returns the *new* state.
    #[inline]
    pub fn step(&mut self) -> u64 {
        let feedback = (self.state & self.taps_mask).count_ones() as u64 & 1;
        self.state = (self.state >> 1) | (feedback << (self.width - 1));
        self.state
    }
}

impl NumberSource for Lfsr {
    fn width(&self) -> u32 {
        self.width
    }

    /// Returns the current state, then shifts. States lie in `1..2^w`, so
    /// comparator level `0` yields the all-zero stream and level `2^w − 1`
    /// saturates one step early — faithful to real LFSR-based SNG hardware.
    fn next_value(&mut self) -> u64 {
        let v = self.state;
        self.step();
        v
    }

    fn reset(&mut self) {
        self.state = self.seed;
    }

    fn period(&self) -> Option<u64> {
        Some((1u64 << self.width) - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn rejects_bad_construction() {
        assert!(Lfsr::new(2, 1).is_err());
        assert!(Lfsr::new(33, 1).is_err());
        assert!(Lfsr::new(8, 0).is_err());
        assert!(Lfsr::new(8, 256).is_err());
        assert!(Lfsr::new(8, 255).is_ok());
    }

    #[test]
    fn maximal_period_small_widths() {
        // Exhaustively verify the taps give full period 2^w - 1 for w <= 16.
        for width in 3..=16u32 {
            let mut lfsr = Lfsr::new(width, 1).unwrap();
            let mut seen = HashSet::new();
            let period = (1u64 << width) - 1;
            for _ in 0..period {
                assert!(seen.insert(lfsr.next_value()), "width {width} repeated early");
            }
            // After a full period we are back at the seed.
            assert_eq!(lfsr.state(), 1, "width {width} did not return to seed");
            assert!(!seen.contains(&0), "width {width} visited the lock-up state");
        }
    }

    #[test]
    fn wide_lfsrs_do_not_repeat_quickly() {
        for width in [17u32, 24, 32] {
            let mut lfsr = Lfsr::new(width, 0xace1 & ((1 << width) - 1)).unwrap();
            let mut seen = HashSet::new();
            for _ in 0..10_000 {
                assert!(seen.insert(lfsr.next_value()), "width {width} repeated in 10k steps");
            }
        }
    }

    #[test]
    fn values_fit_width_and_are_nonzero() {
        let mut lfsr = Lfsr::new(5, 17).unwrap();
        for _ in 0..100 {
            let v = lfsr.next_value();
            assert!(v > 0 && v < 32);
        }
    }

    #[test]
    fn reset_restores_sequence() {
        let mut lfsr = Lfsr::new(10, 0x2ff).unwrap();
        let a: Vec<u64> = (0..50).map(|_| lfsr.next_value()).collect();
        lfsr.reset();
        let b: Vec<u64> = (0..50).map(|_| lfsr.next_value()).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_give_shifted_sequences() {
        // Maximal LFSRs traverse one cycle; different seeds are rotations.
        let mut a = Lfsr::new(8, 1).unwrap();
        let mut b = Lfsr::new(8, 2).unwrap();
        let sa: HashSet<u64> = (0..255).map(|_| a.next_value()).collect();
        let sb: HashSet<u64> = (0..255).map(|_| b.next_value()).collect();
        assert_eq!(sa, sb); // same state set
        let mut a = Lfsr::new(8, 1).unwrap();
        let mut b = Lfsr::new(8, 2).unwrap();
        let va: Vec<u64> = (0..10).map(|_| a.next_value()).collect();
        let vb: Vec<u64> = (0..10).map(|_| b.next_value()).collect();
        assert_ne!(va, vb); // but different phase
    }
}
