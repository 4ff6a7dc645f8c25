//! Gate-level stochastic computing circuit simulation.
//!
//! This crate models the arithmetic primitives of the paper at the bit
//! level:
//!
//! * [`Multiplier`] — the AND-gate unipolar multiplier (Fig. 1a),
//! * [`MuxAdder`] — the conventional scaled adder (Fig. 1b),
//! * [`OrAdder`] — the saturating OR "adder" accurate only near zero,
//! * [`TffAdder`] — **the paper's contribution** (Fig. 2b): an exact scaled
//!   adder built from a toggle flip-flop, needing no random select stream
//!   and immune to input auto-correlation,
//! * [`TffHalver`] — the `p/2` circuit of Fig. 2a,
//! * [`TffAdderTree`] / [`MuxAdderTree`] — multi-input reduction trees for
//!   dot products,
//! * [`accuracy`] — the exhaustive mean-squared-error sweeps behind
//!   Tables 1 and 2,
//! * [`fault`] — bit-flip fault injection for the error-tolerance claims.
//!
//! # The TFF adder in one example
//!
//! ```
//! use scnn_bitstream::BitStream;
//! use scnn_sim::TffAdder;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Paper Fig. 2b: Z = (1/2 + 4/5)/2 = 13/20, bit-exact.
//! let x = BitStream::parse("0110 0011 0101 0111 1000")?;
//! let y = BitStream::parse("1011 1111 0101 0111 1111")?;
//! let z = TffAdder::new(false).add(&x, &y)?;
//! assert_eq!(z.to_string(), "01101011010101111101");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod accuracy;
mod add;
pub mod fault;
mod mult;
mod tff;
mod tree;

pub use add::{MuxAdder, OrAdder, TffAdder};
pub use fault::{FaultError, FaultModel, FaultSite};
pub use mult::Multiplier;
pub use tff::{TFlipFlop, TffHalver};
pub use tree::{MuxAdderTree, S0Policy, TffAdderTree};
