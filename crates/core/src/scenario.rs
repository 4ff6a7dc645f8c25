//! Declarative experiment scenarios.
//!
//! A [`ScenarioSpec`] is the one engine configuration: one literal names
//! the head engine kind, precision, number-generation scheme, adder, fault
//! model and input mode, and compiles to a ready [`FirstLayer`],
//! [`StochasticConvLayer`], [`HybridLenet`] or [`StochasticDenseLayer`].
//! Adding a new scenario to a harness is adding a spec literal to a list;
//! a variant of a preset is a struct-update literal.
//!
//! # Example
//!
//! ```
//! use scnn_core::{HeadKind, ScenarioSpec, SourceKind};
//! use scnn_nn::layers::{Conv2d, Padding};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let conv = Conv2d::new(1, 8, 5, Padding::Same, 42)?;
//! // The paper's proposed design at 6 bits…
//! let engine = ScenarioSpec::this_work(6).first_layer(&conv)?;
//! assert_eq!(engine.label(), "this-work(6-bit)");
//! // …and a variant with LFSR pixel conversion.
//! let lfsr = ScenarioSpec { pixel_source: SourceKind::Lfsr, ..ScenarioSpec::this_work(6) };
//! assert_eq!(lfsr.head, HeadKind::Stochastic);
//! assert_eq!(lfsr.pixel_source, SourceKind::Lfsr);
//! # Ok(())
//! # }
//! ```

use crate::baseline::{BinaryConvLayer, FirstLayer, FloatConvLayer};
use crate::dense::{DenseInput, StochasticDenseLayer};
use crate::hybrid::HybridLenet;
use crate::stochastic::{AdderKind, SourceKind, StochasticConvLayer};
use crate::Error;
use scnn_bitstream::Precision;
use scnn_nn::layers::{Conv2d, Dense};
use scnn_nn::Network;
use scnn_sim::{FaultModel, S0Policy};

/// Which first-layer engine family a scenario compiles to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HeadKind {
    /// The full-precision float reference ([`FloatConvLayer`]).
    Float,
    /// The quantized fixed-point baseline ([`BinaryConvLayer`]) — Table 3
    /// "Binary" rows.
    Binary,
    /// The stochastic-computing engine ([`StochasticConvLayer`] /
    /// [`StochasticDenseLayer`]).
    Stochastic,
}

/// A declarative description of one experiment scenario.
///
/// Plain data (`Copy`), so scenario tables are arrays of literals and
/// variants are struct updates of a preset. Compile with
/// [`first_layer`](Self::first_layer),
/// [`stochastic_conv`](Self::stochastic_conv), [`hybrid`](Self::hybrid) or
/// [`dense_layer`](Self::dense_layer).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScenarioSpec {
    /// Engine family.
    pub head: HeadKind,
    /// Operating precision in bits (stream length `2^bits`); ignored by
    /// the float reference.
    pub bits: u32,
    /// Adder tree implementation (stochastic engines).
    pub adder: AdderKind,
    /// Number source behind the pixel/input SNG bank.
    pub pixel_source: SourceKind,
    /// Number source behind the shared weight SNG bank.
    pub weight_source: SourceKind,
    /// Initial-state policy of the TFF trees (ignored by the MUX adder).
    pub s0_policy: S0Policy,
    /// Soft threshold τ in scaled dot-product units (Kim et al.).
    pub soft_threshold: f32,
    /// Fault model for the resilience experiments (paper §I / Fig. 8):
    /// [`FaultModel::None`] (every preset) runs fault-free;
    /// [`FaultModel::BitError`] injects per-bit stream flips — in the
    /// count domain on the fast path (either adder), literally on the
    /// streaming path; stuck-at models pin a datapath site (TFF only).
    pub fault: FaultModel,
    /// Input domain for dense compilations ([`dense_layer`](Self::dense_layer)).
    pub input_mode: DenseInput,
    /// Seed for LFSRs, random sources and fault injection.
    pub seed: u64,
}

impl ScenarioSpec {
    /// The paper's proposed configuration at `bits` precision:
    /// ramp-compare pixel conversion, Sobol' weight generation, TFF adder
    /// trees (Table 3 "This Work" rows).
    pub fn this_work(bits: u32) -> Self {
        Self {
            head: HeadKind::Stochastic,
            bits,
            adder: AdderKind::Tff,
            pixel_source: SourceKind::Ramp,
            weight_source: SourceKind::Sobol2,
            s0_policy: S0Policy::Alternating,
            soft_threshold: 0.0,
            fault: FaultModel::None,
            input_mode: DenseInput::Unipolar,
            seed: 42,
        }
    }

    /// The prior-work configuration at `bits` precision: LFSR number
    /// generation everywhere and MUX adder trees (Table 3 "Old SC" rows).
    pub fn old_sc(bits: u32) -> Self {
        Self {
            adder: AdderKind::Mux,
            pixel_source: SourceKind::Lfsr,
            weight_source: SourceKind::Lfsr,
            ..Self::this_work(bits)
        }
    }

    /// The quantized fixed-point baseline at `bits` precision (Table 3
    /// "Binary" rows).
    pub fn binary(bits: u32) -> Self {
        Self { head: HeadKind::Binary, ..Self::this_work(bits) }
    }

    /// The full-precision float reference.
    pub fn float() -> Self {
        Self { head: HeadKind::Float, ..Self::this_work(8) }
    }

    /// Starts a [`ScenarioBuilder`] from this spec (see its docs for why it
    /// remains).
    pub fn customize(self) -> ScenarioBuilder {
        ScenarioBuilder { spec: self }
    }

    /// The spec's [`Precision`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] for unsupported bit widths.
    pub fn precision(&self) -> Result<Precision, Error> {
        Precision::new(self.bits).map_err(|e| Error::config(e.to_string()))
    }

    /// The engine's report label (matches [`FirstLayer::label`]).
    pub fn label(&self) -> String {
        match (self.head, self.adder) {
            (HeadKind::Float, _) => "float".into(),
            (HeadKind::Binary, _) => format!("binary({}-bit)", self.bits),
            (HeadKind::Stochastic, AdderKind::Tff) => format!("this-work({}-bit)", self.bits),
            (HeadKind::Stochastic, AdderKind::Mux) => format!("old-sc({}-bit)", self.bits),
        }
    }

    /// Compiles the spec into a boxed first-layer convolution engine over
    /// the trained `conv`.
    ///
    /// # Errors
    ///
    /// Propagates precision and engine-construction errors.
    pub fn first_layer(&self, conv: &Conv2d) -> Result<Box<dyn FirstLayer>, Error> {
        Ok(match self.head {
            HeadKind::Float => Box::new(FloatConvLayer::from_conv(conv, self.soft_threshold)?),
            HeadKind::Binary => {
                Box::new(BinaryConvLayer::from_conv(conv, self.precision()?, self.soft_threshold)?)
            }
            HeadKind::Stochastic => Box::new(self.stochastic_conv(conv)?),
        })
    }

    /// Compiles the spec into a concrete [`StochasticConvLayer`] (some
    /// consumers — e.g. the hardware activity measurements — need the
    /// stochastic engine's stream accessors, not a boxed [`FirstLayer`]).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] unless the head kind is
    /// [`Stochastic`](HeadKind::Stochastic); propagates construction
    /// errors.
    pub fn stochastic_conv(&self, conv: &Conv2d) -> Result<StochasticConvLayer, Error> {
        StochasticConvLayer::from_conv(conv, self)
    }

    /// Compiles the spec into a ready [`HybridLenet`]: the scenario's
    /// first layer plus the given binary tail.
    ///
    /// # Errors
    ///
    /// Propagates precision and engine-construction errors.
    pub fn hybrid(&self, conv: &Conv2d, tail: Network) -> Result<HybridLenet, Error> {
        Ok(HybridLenet::new(self.first_layer(conv)?, tail))
    }

    /// Compiles the spec into a [`StochasticDenseLayer`] over the trained
    /// `dense`, using the spec's [`input_mode`](Self::input_mode).
    ///
    /// The dense engine implements only the paper's proposed datapath —
    /// TFF trees over ramp-converted inputs and Sobol'-converted weights,
    /// fault-free — so a spec that deviates on any of those fields is
    /// rejected rather than silently compiled as "This Work"
    /// ([`soft_threshold`](Self::soft_threshold) alone is ignored: a dense
    /// engine has no activation comparator).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] unless the head kind is
    /// [`Stochastic`](HeadKind::Stochastic) with the default adder,
    /// sources, S0 policy and a zero bit-error rate; propagates
    /// construction errors.
    pub fn dense_layer(&self, dense: &Dense) -> Result<StochasticDenseLayer, Error> {
        if self.head != HeadKind::Stochastic {
            return Err(Error::config(format!(
                "dense scenarios must be stochastic, got {:?}",
                self.head
            )));
        }
        let supported = Self::this_work(self.bits);
        let unsupported: &[(&str, bool)] = &[
            ("adder", self.adder != supported.adder),
            ("pixel_source", self.pixel_source != supported.pixel_source),
            ("weight_source", self.weight_source != supported.weight_source),
            ("s0_policy", self.s0_policy != crate::dense::DENSE_S0_POLICY),
            ("fault", !self.fault.is_none()),
        ];
        if let Some((field, _)) = unsupported.iter().find(|(_, differs)| *differs) {
            return Err(Error::config(format!(
                "the dense engine does not implement non-default `{field}` scenarios"
            )));
        }
        StochasticDenseLayer::from_dense(dense, self.precision()?, self.input_mode, self.seed)
    }
}

/// Sets the fault model of a preset (start via
/// [`ScenarioSpec::customize`]).
///
/// Kept only because the frame benchmark (`framebench/`) builds its faulted
/// scenario through it; it goes when that benchmark next changes. Other code
/// writes the struct-update literal `ScenarioSpec { fault, ..spec }`.
#[derive(Debug, Clone, Copy)]
pub struct ScenarioBuilder {
    spec: ScenarioSpec,
}

impl ScenarioBuilder {
    /// Sets the full [`FaultModel`] (bit errors, stuck-at sites, or both).
    ///
    /// # Example
    ///
    /// ```
    /// use scnn_core::{FaultModel, FaultSite, ScenarioSpec};
    ///
    /// let spec = ScenarioSpec::this_work(6)
    ///     .customize()
    ///     .fault(FaultModel::StuckAt { site: FaultSite::AdderNode { node: 30 }, value: true })
    ///     .build();
    /// assert_eq!(spec.fault.label(), "stuck1-node30");
    /// ```
    pub fn fault(mut self, fault: FaultModel) -> Self {
        self.spec.fault = fault;
        self
    }

    /// Finishes the builder.
    pub fn build(self) -> ScenarioSpec {
        self.spec
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scnn_nn::layers::Padding;

    fn conv() -> Conv2d {
        Conv2d::new(1, 4, 5, Padding::Same, 7).unwrap()
    }

    #[test]
    fn presets_compile_to_matching_engines() {
        let c = conv();
        for (spec, label) in [
            (ScenarioSpec::float(), "float"),
            (ScenarioSpec::binary(4), "binary(4-bit)"),
            (ScenarioSpec::this_work(4), "this-work(4-bit)"),
            (ScenarioSpec::old_sc(4), "old-sc(4-bit)"),
        ] {
            let engine = spec.first_layer(&c).unwrap();
            assert_eq!(engine.label(), label);
            assert_eq!(spec.label(), label);
            let out = engine.forward_image(&vec![0.4; 784]).unwrap();
            assert_eq!(out.len(), 4 * 784);
        }
        // Only a stochastic head compiles to the concrete stochastic engine.
        for spec in [ScenarioSpec::float(), ScenarioSpec::binary(4)] {
            let err = spec.stochastic_conv(&c).unwrap_err();
            assert!(err.to_string().contains("stochastic scenario"), "{err}");
            assert!(StochasticConvLayer::from_conv(&c, &spec).is_err());
        }
    }

    #[test]
    fn spec_engines_match_hand_assembled_ones() {
        // The spec must compile to exactly the engine the harnesses used
        // to build by hand — identical features.
        let c = conv();
        let img: Vec<f32> = (0..784).map(|i| (i % 97) as f32 / 96.0).collect();
        let precision = Precision::new(6).unwrap();
        let by_hand = StochasticConvLayer::from_conv(&c, &ScenarioSpec::this_work(6))
            .unwrap()
            .forward_image(&img)
            .unwrap();
        let by_spec =
            ScenarioSpec::this_work(6).first_layer(&c).unwrap().forward_image(&img).unwrap();
        assert_eq!(by_hand, by_spec);
        let by_hand =
            BinaryConvLayer::from_conv(&c, precision, 0.0).unwrap().forward_image(&img).unwrap();
        let by_spec = ScenarioSpec::binary(6).first_layer(&c).unwrap().forward_image(&img).unwrap();
        assert_eq!(by_hand, by_spec);
    }

    #[test]
    fn builder_overrides_fields() {
        let spec = ScenarioSpec {
            bits: 4,
            adder: AdderKind::Mux,
            pixel_source: SourceKind::Lfsr,
            weight_source: SourceKind::Lfsr,
            s0_policy: S0Policy::AllZero,
            soft_threshold: 0.5,
            input_mode: DenseInput::Ternary,
            seed: 99,
            ..ScenarioSpec::this_work(8)
        };
        // The builder's one setter is the struct update it abbreviates.
        let fault = FaultModel::BitError(0.01);
        let faulted = spec.customize().fault(fault).build();
        assert_eq!(faulted, ScenarioSpec { fault, ..spec });
        // The engine keeps the whole spec it was built from.
        let engine = faulted.stochastic_conv(&conv()).unwrap();
        assert_eq!(engine.spec(), &faulted);
        assert_eq!(engine.precision().bits(), 4);
        assert_eq!(ScenarioSpec { head: HeadKind::Float, ..spec }.label(), "float");
    }

    #[test]
    fn dense_compilation_rejects_unimplemented_variants() {
        // The dense engine only implements the proposed datapath: a spec
        // deviating on adder, sources, S0 policy or fault rate must not
        // silently compile to "This Work" numbers under another label.
        let dense = Dense::new(8, 2, 1);
        assert!(ScenarioSpec::old_sc(4).dense_layer(&dense).is_err());
        let base = ScenarioSpec::this_work(4);
        for spec in [
            ScenarioSpec { adder: AdderKind::Mux, ..base },
            ScenarioSpec { pixel_source: SourceKind::Lfsr, ..base },
            ScenarioSpec { weight_source: SourceKind::Lfsr, ..base },
            ScenarioSpec { s0_policy: S0Policy::AllZero, ..base },
            ScenarioSpec { fault: FaultModel::BitError(0.01), ..base },
        ] {
            let err = spec.dense_layer(&dense).unwrap_err();
            assert!(err.to_string().contains("dense engine"), "{err}");
        }
        // τ alone is ignored (no comparator in a dense engine).
        let tau = ScenarioSpec { soft_threshold: 0.5, ..base };
        assert!(tau.dense_layer(&dense).is_ok());
    }

    #[test]
    fn dense_compilation_requires_stochastic_head() {
        let dense = Dense::new(8, 2, 1);
        assert!(ScenarioSpec::binary(4).dense_layer(&dense).is_err());
        let layer = ScenarioSpec::this_work(4).dense_layer(&dense).unwrap();
        assert_eq!(layer.in_features(), 8);
        let ternary =
            ScenarioSpec { input_mode: DenseInput::Ternary, ..ScenarioSpec::this_work(4) }
                .dense_layer(&dense)
                .unwrap();
        assert!(!ternary.uses_count_table());
    }

    #[test]
    fn invalid_precision_is_reported() {
        assert!(ScenarioSpec::this_work(99).precision().is_err());
        assert!(ScenarioSpec::this_work(99).first_layer(&conv()).is_err());
    }
}
