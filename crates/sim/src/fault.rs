//! Fault models: stream bit flips and stuck-at defects.
//!
//! One of stochastic computing's selling points (§I) is graceful
//! degradation: a flipped stream bit perturbs the encoded value by exactly
//! `1/N`, whereas a flipped binary MSB halves the dynamic range. These
//! helpers inject faults so tests and benches can quantify that claim.
//!
//! Two families live here:
//!
//! * **Transient bit errors** — [`inject_bit_errors`] /
//!   [`inject_exact_flips`] perturb a [`BitStream`] in place; the engines
//!   in `scnn-core` reproduce the same Bernoulli model either on real
//!   streams (the ground-truth streaming path) or directly in the count
//!   domain (the LUT fast path).
//! * **Permanent defects** — [`FaultModel`] describes the configured fault
//!   of a whole datapath: a bit-error rate, a stuck-at-0/1 defect at a
//!   [`FaultSite`] (an adder-tree node or an AND-gate/LUT tap), or both at
//!   once ([`FaultModel::Compound`]).

use rand::Rng;
use scnn_bitstream::BitStream;
use std::fmt;

/// Typed validation error for the fault helpers and [`FaultModel`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultError {
    /// A bit-error rate outside `[0, 1]`, or NaN (NaN is rejected
    /// explicitly — it would silently disable every comparison-based
    /// sampler downstream).
    InvalidRate {
        /// The offending rate.
        rate: f64,
    },
    /// An exact-flip request larger than the stream.
    FlipBudget {
        /// Requested number of flips.
        count: usize,
        /// Stream length in bits.
        len: usize,
    },
}

impl fmt::Display for FaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultError::InvalidRate { rate } if rate.is_nan() => {
                write!(f, "bit-error rate is NaN")
            }
            FaultError::InvalidRate { rate } => {
                write!(f, "bit-error rate {rate} outside [0, 1]")
            }
            FaultError::FlipBudget { count, len } => {
                write!(f, "cannot flip {count} of {len} bits")
            }
        }
    }
}

impl std::error::Error for FaultError {}

/// Validates a bit-error rate: finite and within `[0, 1]` (NaN rejected).
fn check_rate(rate: f64) -> Result<(), FaultError> {
    // `contains` is false for NaN, so the one check covers both cases.
    if (0.0..=1.0).contains(&rate) {
        Ok(())
    } else {
        Err(FaultError::InvalidRate { rate })
    }
}

/// Where a permanent stuck-at defect sits in the TFF count datapath.
///
/// Both sites are count-domain observable, so the streaming engine and the
/// LUT engine implement them identically (and bit-exactly — stuck-at
/// models carry no randomness).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// One node of the (positive) TFF adder tree, numbered bottom-up,
    /// breadth-first — the numbering of
    /// [`TffAdderTree`](crate::TffAdderTree) and of `scnn-core`'s lane
    /// fold. The node's output count is stuck at 0 or at the full stream
    /// length `N`.
    AdderNode {
        /// Bottom-up breadth-first node index.
        node: u32,
    },
    /// One multiplier tap: the AND gate (equivalently, the AND-count LUT
    /// row) of window-tap `tap`, for every kernel. Stuck-0 zeroes the
    /// product stream; stuck-1 forces it all-ones (count `N`), routed to
    /// the positive or negative tree by each kernel's weight sign.
    LutTap {
        /// Tap index within the `ksize²` window.
        tap: u32,
    },
}

impl fmt::Display for FaultSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultSite::AdderNode { node } => write!(f, "node{node}"),
            FaultSite::LutTap { tap } => write!(f, "tap{tap}"),
        }
    }
}

/// The configured fault of a whole datapath.
///
/// Carried on `scnn-core`'s `ScOptions`/`ScenarioSpec` and validated at
/// engine construction. `Copy` on purpose —
/// scenario specs stay plain literals.
///
/// # Example
///
/// ```
/// use scnn_sim::fault::{FaultModel, FaultSite};
///
/// // A 1% transient bit-error rate.
/// let ber = FaultModel::BitError(0.01);
/// assert_eq!(ber.bit_error_rate(), 0.01);
/// assert!(ber.validate().is_ok());
///
/// // A stuck-at-1 defect on adder-tree node 3.
/// let stuck = FaultModel::StuckAt { site: FaultSite::AdderNode { node: 3 }, value: true };
/// assert_eq!(stuck.stuck(), Some((FaultSite::AdderNode { node: 3 }, true)));
///
/// // NaN rates are rejected explicitly.
/// assert!(FaultModel::BitError(f64::NAN).validate().is_err());
/// // BER 0 is the healthy model: the engines treat it exactly like None.
/// assert_eq!(FaultModel::BitError(0.0).bit_error_rate(), 0.0);
/// assert!(FaultModel::default().is_none());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum FaultModel {
    /// Healthy hardware (the default).
    #[default]
    None,
    /// Transient faults: each pixel-stream bit flips independently with
    /// this probability.
    BitError(f64),
    /// A permanent stuck-at-`value` defect at `site`.
    StuckAt {
        /// Defect location.
        site: FaultSite,
        /// `false` = stuck-at-0, `true` = stuck-at-1.
        value: bool,
    },
    /// Both at once: transient bit errors *and* a permanent defect.
    Compound {
        /// Per-bit flip probability.
        ber: f64,
        /// Defect location.
        site: FaultSite,
        /// `false` = stuck-at-0, `true` = stuck-at-1.
        value: bool,
    },
}

impl FaultModel {
    /// Whether this is the healthy model (including `BitError(0.0)`,
    /// which injects nothing).
    pub fn is_none(&self) -> bool {
        match self {
            FaultModel::None => true,
            FaultModel::BitError(ber) => *ber == 0.0,
            _ => false,
        }
    }

    /// The transient bit-error rate component (0 for `None`/`StuckAt`).
    pub fn bit_error_rate(&self) -> f64 {
        match self {
            FaultModel::BitError(ber) | FaultModel::Compound { ber, .. } => *ber,
            _ => 0.0,
        }
    }

    /// The permanent defect component, if any.
    pub fn stuck(&self) -> Option<(FaultSite, bool)> {
        match self {
            FaultModel::StuckAt { site, value } | FaultModel::Compound { site, value, .. } => {
                Some((*site, *value))
            }
            _ => None,
        }
    }

    /// Validates the rate component (site ranges are datapath-shaped and
    /// checked by the engine that hosts the fault).
    ///
    /// # Errors
    ///
    /// [`FaultError::InvalidRate`] when the bit-error rate is NaN or
    /// outside `[0, 1]`.
    pub fn validate(&self) -> Result<(), FaultError> {
        match self {
            FaultModel::BitError(ber) | FaultModel::Compound { ber, .. } => check_rate(*ber),
            _ => Ok(()),
        }
    }

    /// Short human/bench-key label: `none`, `ber-0.01`, `stuck1-node3`,
    /// `compound-0.01-stuck0-tap7`.
    pub fn label(&self) -> String {
        match self {
            FaultModel::None => "none".to_string(),
            FaultModel::BitError(ber) => format!("ber-{ber}"),
            FaultModel::StuckAt { site, value } => {
                format!("stuck{}-{site}", u8::from(*value))
            }
            FaultModel::Compound { ber, site, value } => {
                format!("compound-{ber}-stuck{}-{site}", u8::from(*value))
            }
        }
    }
}

impl fmt::Display for FaultModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

/// Flips each bit of `stream` independently with probability `ber`
/// (bit-error rate), returning how many bits were flipped.
///
/// # Errors
///
/// [`FaultError::InvalidRate`] if `ber` is NaN or outside `[0, 1]`.
///
/// # Example
///
/// ```
/// use rand::SeedableRng;
/// use scnn_bitstream::BitStream;
/// use scnn_sim::fault::inject_bit_errors;
///
/// let mut stream = BitStream::zeros(1000);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let flipped = inject_bit_errors(&mut stream, 0.01, &mut rng).unwrap();
/// assert_eq!(stream.count_ones(), flipped as u64);
/// assert!(inject_bit_errors(&mut stream, f64::NAN, &mut rng).is_err());
/// ```
pub fn inject_bit_errors<R: Rng>(
    stream: &mut BitStream,
    ber: f64,
    rng: &mut R,
) -> Result<usize, FaultError> {
    check_rate(ber)?;
    Ok(inject_bit_errors_unchecked(stream, ber, rng))
}

/// [`inject_bit_errors`] without the rate check.
///
/// # Panics
///
/// Panics if `ber` is not within `[0, 1]` (via `Rng::gen_bool`).
fn inject_bit_errors_unchecked<R: Rng>(stream: &mut BitStream, ber: f64, rng: &mut R) -> usize {
    let mut flipped = 0;
    for i in 0..stream.len() {
        if rng.gen_bool(ber) {
            stream.flip(i).expect("index < len");
            flipped += 1;
        }
    }
    flipped
}

/// Flips exactly `count` distinct positions chosen uniformly at random,
/// returning the chosen positions.
///
/// # Errors
///
/// [`FaultError::FlipBudget`] if `count > stream.len()`.
pub fn inject_exact_flips<R: Rng>(
    stream: &mut BitStream,
    count: usize,
    rng: &mut R,
) -> Result<Vec<usize>, FaultError> {
    if count > stream.len() {
        return Err(FaultError::FlipBudget { count, len: stream.len() });
    }
    Ok(inject_exact_flips_unchecked(stream, count, rng))
}

/// [`inject_exact_flips`] without the budget check.
///
/// # Panics
///
/// Panics if `count > stream.len()`.
fn inject_exact_flips_unchecked<R: Rng>(
    stream: &mut BitStream,
    count: usize,
    rng: &mut R,
) -> Vec<usize> {
    assert!(count <= stream.len(), "cannot flip {count} of {} bits", stream.len());
    // Floyd's sampling: uniform distinct positions without a full shuffle.
    let mut chosen = std::collections::HashSet::with_capacity(count);
    let n = stream.len();
    for j in (n - count)..n {
        let t = rng.gen_range(0..=j);
        let pick = if chosen.contains(&t) { j } else { t };
        chosen.insert(pick);
    }
    let mut positions: Vec<usize> = chosen.into_iter().collect();
    positions.sort_unstable();
    for &p in &positions {
        stream.flip(p).expect("index < len");
    }
    positions
}

/// The worst-case value perturbation `count` flips can cause on a stream of
/// length `len`: each flip moves the unipolar value by exactly `1/len`.
pub fn max_value_perturbation(count: usize, len: usize) -> f64 {
    count as f64 / len as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(123)
    }

    #[test]
    fn ber_zero_flips_nothing() {
        let mut s = BitStream::ones(100);
        assert_eq!(inject_bit_errors(&mut s, 0.0, &mut rng()).unwrap(), 0);
        assert_eq!(s.count_ones(), 100);
    }

    #[test]
    fn ber_one_flips_everything() {
        let mut s = BitStream::ones(100);
        assert_eq!(inject_bit_errors(&mut s, 1.0, &mut rng()).unwrap(), 100);
        assert_eq!(s.count_ones(), 0);
    }

    #[test]
    fn ber_validated_as_typed_error() {
        let mut s = BitStream::zeros(10);
        assert_eq!(
            inject_bit_errors(&mut s, 1.5, &mut rng()),
            Err(FaultError::InvalidRate { rate: 1.5 })
        );
        assert_eq!(s.count_ones(), 0, "a rejected rate must not touch the stream");
        // NaN is rejected with a dedicated message, not sampled.
        let err = inject_bit_errors(&mut s, f64::NAN, &mut rng()).unwrap_err();
        assert_eq!(err.to_string(), "bit-error rate is NaN");
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn unchecked_variant_still_panics() {
        let mut s = BitStream::zeros(10);
        inject_bit_errors_unchecked(&mut s, 1.5, &mut rng());
    }

    #[test]
    fn exact_flips_change_exactly_count_positions() {
        let mut s = BitStream::zeros(200);
        let positions = inject_exact_flips(&mut s, 17, &mut rng()).unwrap();
        assert_eq!(positions.len(), 17);
        assert_eq!(s.count_ones(), 17);
        // Distinct and in range.
        let unique: std::collections::HashSet<_> = positions.iter().collect();
        assert_eq!(unique.len(), 17);
        assert!(positions.iter().all(|&p| p < 200));
    }

    #[test]
    fn value_perturbation_is_linear_in_flips() {
        let original = BitStream::from_fn(256, |i| i % 3 == 0);
        let v0 = original.unipolar().get();
        for flips in [1usize, 4, 16, 64] {
            let mut s = original.clone();
            inject_exact_flips(&mut s, flips, &mut rng()).unwrap();
            let dv = (s.unipolar().get() - v0).abs();
            assert!(dv <= max_value_perturbation(flips, 256) + 1e-12, "flips={flips} dv={dv}");
        }
    }

    #[test]
    fn exact_flips_validated_as_typed_error() {
        let mut s = BitStream::zeros(4);
        assert_eq!(
            inject_exact_flips(&mut s, 5, &mut rng()),
            Err(FaultError::FlipBudget { count: 5, len: 4 })
        );
    }

    #[test]
    fn fault_model_accessors() {
        assert!(FaultModel::None.is_none());
        assert!(FaultModel::BitError(0.0).is_none());
        assert!(!FaultModel::BitError(0.1).is_none());
        let site = FaultSite::LutTap { tap: 7 };
        let stuck = FaultModel::StuckAt { site, value: false };
        assert!(!stuck.is_none());
        assert_eq!(stuck.bit_error_rate(), 0.0);
        assert_eq!(stuck.stuck(), Some((site, false)));
        let compound = FaultModel::Compound { ber: 0.25, site, value: true };
        assert_eq!(compound.bit_error_rate(), 0.25);
        assert_eq!(compound.stuck(), Some((site, true)));
        assert_eq!(FaultModel::None.stuck(), None);
    }

    #[test]
    fn fault_model_validation_rejects_bad_rates() {
        for bad in [-0.1, 1.5, f64::NAN, f64::INFINITY] {
            assert!(FaultModel::BitError(bad).validate().is_err(), "{bad}");
            let compound = FaultModel::Compound {
                ber: bad,
                site: FaultSite::AdderNode { node: 0 },
                value: true,
            };
            assert!(compound.validate().is_err(), "{bad}");
        }
        assert!(FaultModel::BitError(0.5).validate().is_ok());
        assert!(FaultModel::None.validate().is_ok());
    }

    #[test]
    fn fault_model_labels() {
        assert_eq!(FaultModel::None.label(), "none");
        assert_eq!(FaultModel::BitError(0.01).label(), "ber-0.01");
        let site = FaultSite::AdderNode { node: 3 };
        assert_eq!(FaultModel::StuckAt { site, value: true }.label(), "stuck1-node3");
        let tap = FaultSite::LutTap { tap: 12 };
        assert_eq!(
            FaultModel::Compound { ber: 0.05, site: tap, value: false }.label(),
            "compound-0.05-stuck0-tap12"
        );
    }
}
