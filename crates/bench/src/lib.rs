//! Shared infrastructure for the experiment harnesses that regenerate
//! every table and figure of the paper.
//!
//! Each table has a binary (`cargo run -p scnn-bench --bin table1` …) that
//! prints a markdown table next to the paper's reference values, plus
//! Criterion benches for the performance-sensitive kernels.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod report;
pub mod resilience;
pub mod setup;
