//! # scnn — hybrid stochastic-binary neural networks for near-sensor computing
//!
//! Umbrella crate re-exporting the whole `scnn` workspace, a from-scratch Rust
//! reproduction of *"Energy-Efficient Hybrid Stochastic-Binary Neural Networks
//! for Near-Sensor Computing"* (Lee, Alaghi, Hayes, Sathe, Ceze — DATE 2017).
//!
//! The workspace layers are re-exported under their short names:
//!
//! * [`bitstream`] — packed stochastic bit-streams and value domains,
//! * [`rng`] — stochastic number generators (LFSR, low-discrepancy,
//!   ramp-compare analog-to-stochastic conversion),
//! * [`sim`] — gate-level stochastic arithmetic (AND multiplier, MUX/OR
//!   adders, and the paper's TFF adder),
//! * [`nn`] — a minimal CPU training framework plus MNIST-like data,
//! * [`core`] — the hybrid stochastic-binary network and retraining pipeline,
//! * [`hw`] — the 65 nm area/power/energy cost model,
//! * [`obs`] — zero-dependency metrics registry and span tracing, switched
//!   on by `SCNN_METRICS`.
//!
//! # Quickstart
//!
//! ```
//! use scnn::bitstream::{BitStream, Precision};
//! use scnn::sim::TffAdder;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // The paper's Fig. 2b example: (1/2 + 4/5) / 2 = 13/20.
//! let x = BitStream::parse("0110 0011 0101 0111 1000")?;
//! let y = BitStream::parse("1011 1111 0101 0111 1111")?;
//! let z = TffAdder::new(false).add(&x, &y)?;
//! assert_eq!(z.count_ones(), 13);
//! # let _ = Precision::new(4)?;
//! # Ok(())
//! # }
//! ```

pub use scnn_bitstream as bitstream;
pub use scnn_core as core;
pub use scnn_hw as hw;
pub use scnn_nn as nn;
pub use scnn_obs as obs;
pub use scnn_rng as rng;
pub use scnn_sim as sim;
