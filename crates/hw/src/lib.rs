//! Analytical 65 nm hardware cost model: area, activity-driven power, and
//! energy for the stochastic and binary convolution engines.
//!
//! This crate is the workspace's substitute for the paper's Synopsys
//! Design Compiler / IC Compiler / PrimeTime flow on a TSMC 65 nm library
//! (see the README, *Substitutions*, item 1). It follows the same methodology at a
//! coarser granularity:
//!
//! 1. each design is expressed as a **bill of standard cells**
//!    ([`Netlist`], composed in [`designs`]),
//! 2. per-cell area / switching-energy / leakage come from a typical-case
//!    65 nm [`CellLibrary`],
//! 3. dynamic power is driven by **activity factors measured from the
//!    workspace's own bit-level simulation traces** ([`activity`]) — the
//!    role PrimeTime's switching-activity files play in the paper,
//! 4. [`table3`] combines them into the paper's reporting conventions:
//!    throughput-normalized power, energy per frame, and area, for the
//!    binary and stochastic designs at each precision.
//!
//! Absolute numbers differ from a tapeout-quality flow; the *structure*
//! the paper measures (SC cycle count `32·2^b` vs. binary datapath width,
//! amortized number-generator cost, break-even near 8 bits) is what the
//! model preserves.
//!
//! # Example
//!
//! ```
//! use scnn_hw::{designs, CellLibrary};
//! use scnn_bitstream::Precision;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let lib = CellLibrary::tsmc65_typical();
//! let sc = designs::sc_conv_array(Precision::new(8)?, designs::ScFlavor::TffAdder);
//! let bin = designs::binary_conv_array(Precision::new(8)?);
//! // The SC array is the same order of size as the 8-bit binary array
//! // (paper: 1.32 vs 1.31 mm²; this model lands within ~2×).
//! let ratio = sc.area_mm2(&lib) / bin.area_mm2(&lib);
//! assert!(ratio > 0.25 && ratio < 4.0, "ratio {ratio}");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod activity;
mod cells;
pub mod designs;
mod netlist;
pub mod table3;

pub use cells::{Cell, CellLibrary};
pub use netlist::Netlist;
