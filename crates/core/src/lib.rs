//! The paper's primary contribution: hybrid stochastic-binary neural
//! network layers and the retraining pipeline.
//!
//! Three interchangeable implementations of LeNet-5's first layer
//! (`sign(x ∘ w)`, §IV-B) are provided behind the [`FirstLayer`] trait:
//!
//! * [`StochasticConvLayer`] — the stochastic-computing engine: pixels are
//!   converted by a ramp-compare analog-to-stochastic converter, weights by
//!   shared low-discrepancy SNGs, products by AND gates, sums by a tree of
//!   **TFF adders** (this work) or MUX adders (prior "old SC" work), and
//!   the ternary activation by counters plus a comparator,
//! * [`BinaryConvLayer`] — the quantized fixed-point baseline (Table 3
//!   "Binary" rows),
//! * [`FloatConvLayer`] — the full-precision reference used to train the
//!   base model and validate the engines.
//!
//! [`HybridLenet`] combines any first layer with the binary LeNet-5 tail,
//! and [`retrain`] implements §V-B: freeze the first layer, extract its
//! feature maps over the training set once, and retrain the binary
//! remainder on them to absorb the precision loss.
//!
//! Three crosscutting facilities support the engines:
//!
//! * [`counts`] — the shared count-domain core (level-indexed AND-count
//!   tables, multi-lane TFF tree folds and MUX route-masked sums, and the
//!   comparator stream cache) behind the conv and dense fast paths,
//! * [`ScenarioSpec`] — the one engine configuration: declarative
//!   experiment scenarios that compile to ready engines (see the presets
//!   `this_work` / `old_sc` / `binary` / `float`; variants are
//!   struct-update literals),
//! * [`HybridLenet::features`] — a streaming
//!   [`BatchSource`](scnn_nn::data::BatchSource) of first-layer features,
//!   so dataset-scale evaluation never materializes the feature tensor.
//!
//! # Example: run one image through the stochastic engine
//!
//! ```
//! use scnn_core::{FirstLayer, ScenarioSpec};
//! use scnn_nn::layers::{Conv2d, Padding};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let conv = Conv2d::new(1, 32, 5, Padding::Same, 42)?;
//! let engine = ScenarioSpec::this_work(8).stochastic_conv(&conv)?;
//! let image = vec![0.5f32; 28 * 28];
//! let features = engine.forward_image(&image)?;
//! assert_eq!(features.len(), 32 * 28 * 28);
//! assert!(features.iter().all(|&v| v == -1.0 || v == 0.0 || v == 1.0));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arena;
mod baseline;
pub mod counts;
mod dense;
mod error;
mod faults;
mod hybrid;
pub mod parallel;
mod retrain;
mod scenario;
mod stochastic;

pub use arena::{and_count, mux_words, StreamArena};
pub use baseline::{BinaryConvLayer, FirstLayer, FloatConvLayer};
pub use dense::{DenseInput, StochasticDenseLayer};
pub use error::Error;
pub use hybrid::{FeatureSource, HybridLenet};
pub use retrain::{retrain, train_base, BaseModel, RetrainConfig, RetrainReport, TrainConfig};
pub use scenario::{HeadKind, ScenarioBuilder, ScenarioSpec};
pub use scnn_sim::{FaultError, FaultModel, FaultSite};
pub use stochastic::{AdderKind, SourceKind, StochasticConvLayer};
