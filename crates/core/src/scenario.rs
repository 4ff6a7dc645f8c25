//! Declarative experiment scenarios.
//!
//! Every table and ablation harness used to hand-assemble its engines —
//! pick a precision, thread `ScOptions` through, box the right
//! [`FirstLayer`] — duplicating the same glue ten times. A
//! [`ScenarioSpec`] is that glue as data: one literal names the head
//! engine kind, precision, number-generation scheme, adder, fault model
//! and input mode, and compiles to a ready [`FirstLayer`],
//! [`HybridLenet`] or [`StochasticDenseLayer`]. Adding a new scenario to
//! a harness is adding a spec literal to a list.
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
//! // …and a variant with LFSR pixel conversion, via the builder.
//! let lfsr = ScenarioSpec::this_work(6)
//!     .customize()
//!     .pixel_source(SourceKind::Lfsr)
//!     .build();
//! assert_eq!(lfsr.head, HeadKind::Stochastic);
//! assert_eq!(lfsr.pixel_source, SourceKind::Lfsr);
//! # Ok(())
//! # }
//! ```

use crate::baseline::{BinaryConvLayer, FirstLayer, FloatConvLayer};
use crate::counts::{LaneWidth, WindowCacheMode};
use crate::dense::{DenseInput, StochasticDenseLayer};
use crate::hybrid::HybridLenet;
use crate::stochastic::{AdderKind, ScOptions, SourceKind, StochasticConvLayer};
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
/// Plain data (`Copy`), so scenario tables are arrays of literals; see the
/// [module docs](self) for an example. Compile with
/// [`first_layer`](Self::first_layer), [`hybrid`](Self::hybrid) or
/// [`dense_layer`](Self::dense_layer); derive variants with
/// [`customize`](Self::customize).
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
    /// Initial-state policy of the TFF trees.
    pub s0_policy: S0Policy,
    /// Soft threshold τ in scaled dot-product units.
    pub soft_threshold: f32,
    /// Fault model for the resilience experiments:
    /// [`FaultModel::None`] in every preset; bit errors, stuck-at sites
    /// or both (see [`ScOptions::fault`]).
    pub fault: FaultModel,
    /// Input domain for dense compilations ([`dense_layer`](Self::dense_layer)).
    pub input_mode: DenseInput,
    /// Seed for LFSRs, random sources and fault injection.
    pub seed: u64,
    /// [`LaneWord`](crate::counts::LaneWord) width of the count-domain
    /// fold. Every preset keeps [`LaneWidth::Auto`] (pick `u64` when the
    /// count path applies, stream otherwise), so recorded tables are
    /// unchanged; an explicit width pins the fold and makes unavailable
    /// configurations a compile error.
    pub lane_width: LaneWidth,
    /// Window memoization
    /// ([`WindowCache`](crate::counts::WindowCache)): `Off` in every
    /// preset. A budgeted mode memoizes per-window fold outputs in the
    /// compiled conv engine and is rejected at compile time on
    /// configurations without the fault-free TFF fold (non-stochastic
    /// head, MUX adder, fault injection) instead of silently degrading.
    pub window_cache: WindowCacheMode,
}

impl ScenarioSpec {
    /// The paper's proposed configuration at `bits` precision:
    /// ramp-compare pixel conversion, Sobol' weight generation, TFF adder
    /// trees (Table 3 "This Work" rows).
    pub fn this_work(bits: u32) -> Self {
        Self::from_sc_options(bits, ScOptions::this_work())
    }

    /// The prior-work configuration at `bits` precision: LFSR number
    /// generation everywhere and MUX adder trees (Table 3 "Old SC" rows).
    pub fn old_sc(bits: u32) -> Self {
        Self::from_sc_options(bits, ScOptions::old_sc())
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

    /// A stochastic scenario carrying an existing [`ScOptions`].
    pub fn from_sc_options(bits: u32, options: ScOptions) -> Self {
        Self {
            head: HeadKind::Stochastic,
            bits,
            adder: options.adder,
            pixel_source: options.pixel_source,
            weight_source: options.weight_source,
            s0_policy: options.s0_policy,
            soft_threshold: options.soft_threshold,
            fault: options.fault,
            input_mode: DenseInput::Unipolar,
            seed: options.seed,
            lane_width: options.lane_width,
            window_cache: options.window_cache,
        }
    }

    /// Starts a [`ScenarioBuilder`] from this spec.
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

    /// The stochastic-engine options this spec describes.
    pub fn sc_options(&self) -> ScOptions {
        ScOptions {
            adder: self.adder,
            pixel_source: self.pixel_source,
            weight_source: self.weight_source,
            s0_policy: self.s0_policy,
            soft_threshold: self.soft_threshold,
            fault: self.fault,
            seed: self.seed,
            lane_width: self.lane_width,
            window_cache: self.window_cache,
        }
    }

    /// Rejects lane-width requests the compiled engine could not honor:
    /// an explicit width needs a stochastic head and a precision whose
    /// stream counts fit the shared 16-bit lane ceiling (≤ 14 bits).
    /// The engine constructors enforce the remaining count-path
    /// requirement (table budget); both adders have the count path.
    fn validate_lane_width(&self) -> Result<(), Error> {
        if self.lane_width == LaneWidth::Auto {
            return Ok(());
        }
        if self.head != HeadKind::Stochastic {
            return Err(Error::config(format!(
                "lane width {} only applies to stochastic scenarios, got {:?}",
                self.lane_width, self.head
            )));
        }
        let n = self.precision()?.stream_len();
        if !self.lane_width.supports_counts_to(n) {
            return Err(Error::config(format!(
                "{}-bit streams ({} counts) overflow the 16-bit lanes of lane width {}",
                self.bits, n, self.lane_width
            )));
        }
        Ok(())
    }

    /// Rejects window-memoization requests the compiled engine could not
    /// honor: a non-`Off` mode needs a stochastic head, the TFF adder and
    /// a fault-free datapath (the memoized fold outputs only exist on the
    /// fault-free count-domain path). The engine constructor enforces the
    /// remaining requirements (table budget, lane ceiling).
    fn validate_window_cache(&self) -> Result<(), Error> {
        self.window_cache.validate()?;
        if !self.window_cache.is_on() {
            return Ok(());
        }
        if self.head != HeadKind::Stochastic {
            return Err(Error::config(format!(
                "window_cache only applies to stochastic scenarios, got {:?}",
                self.head
            )));
        }
        if self.adder != AdderKind::Tff {
            return Err(Error::config(
                "window_cache requires the TFF adder (only the TFF fold is memoized)",
            ));
        }
        if !self.fault.is_none() {
            return Err(Error::config(
                "window_cache requires a fault-free scenario (a faulted fold is not a pure \
                 function of the window levels, so windows with equal levels no longer share \
                 outputs)",
            ));
        }
        Ok(())
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
        self.validate_lane_width()?;
        self.validate_window_cache()?;
        Ok(match self.head {
            HeadKind::Float => Box::new(FloatConvLayer::from_conv(conv, self.soft_threshold)?),
            HeadKind::Binary => {
                Box::new(BinaryConvLayer::from_conv(conv, self.precision()?, self.soft_threshold)?)
            }
            HeadKind::Stochastic => Box::new(StochasticConvLayer::from_conv(
                conv,
                self.precision()?,
                self.sc_options(),
            )?),
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
        if self.head != HeadKind::Stochastic {
            return Err(Error::config(format!(
                "stochastic_conv needs a stochastic scenario, got {:?}",
                self.head
            )));
        }
        self.validate_lane_width()?;
        self.validate_window_cache()?;
        StochasticConvLayer::from_conv(conv, self.precision()?, self.sc_options())
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
            // Window memoization is a conv concept: the dense engine has
            // no sliding window to key on.
            ("window_cache", self.window_cache.is_on()),
        ];
        if let Some((field, _)) = unsupported.iter().find(|(_, differs)| *differs) {
            return Err(Error::config(format!(
                "the dense engine does not implement non-default `{field}` scenarios"
            )));
        }
        self.validate_lane_width()?;
        StochasticDenseLayer::from_dense_with_width(
            dense,
            self.precision()?,
            self.input_mode,
            self.lane_width,
            self.seed,
        )
    }
}

/// Fluent builder over a [`ScenarioSpec`] (start from a preset via
/// [`ScenarioSpec::customize`]).
#[derive(Debug, Clone, Copy)]
pub struct ScenarioBuilder {
    spec: ScenarioSpec,
}

impl ScenarioBuilder {
    /// Sets the engine family.
    pub fn head(mut self, head: HeadKind) -> Self {
        self.spec.head = head;
        self
    }

    /// Sets the precision in bits.
    pub fn bits(mut self, bits: u32) -> Self {
        self.spec.bits = bits;
        self
    }

    /// Sets the adder tree kind.
    pub fn adder(mut self, adder: AdderKind) -> Self {
        self.spec.adder = adder;
        self
    }

    /// Sets the pixel/input number source.
    pub fn pixel_source(mut self, source: SourceKind) -> Self {
        self.spec.pixel_source = source;
        self
    }

    /// Sets the weight number source.
    pub fn weight_source(mut self, source: SourceKind) -> Self {
        self.spec.weight_source = source;
        self
    }

    /// Sets the TFF initial-state policy.
    pub fn s0_policy(mut self, policy: S0Policy) -> Self {
        self.spec.s0_policy = policy;
        self
    }

    /// Sets the soft threshold τ.
    pub fn soft_threshold(mut self, tau: f32) -> Self {
        self.spec.soft_threshold = tau;
        self
    }

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

    /// Sets a pure bit-error fault model with the given per-bit flip
    /// probability (shorthand for
    /// [`fault`](Self::fault)`(FaultModel::BitError(rate))`; `0.0` means
    /// fault-free).
    pub fn bit_error_rate(mut self, rate: f64) -> Self {
        self.spec.fault = if rate == 0.0 { FaultModel::None } else { FaultModel::BitError(rate) };
        self
    }

    /// Sets the dense input mode.
    pub fn input_mode(mut self, mode: DenseInput) -> Self {
        self.spec.input_mode = mode;
        self
    }

    /// Sets the scenario seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.spec.seed = seed;
        self
    }

    /// Sets the count-domain [`LaneWidth`].
    pub fn lane_width(mut self, width: LaneWidth) -> Self {
        self.spec.lane_width = width;
        self
    }

    /// Sets the window-memoization mode.
    ///
    /// # Example
    ///
    /// ```
    /// use scnn_core::counts::WindowCacheMode;
    /// use scnn_core::ScenarioSpec;
    ///
    /// let spec =
    ///     ScenarioSpec::this_work(6).customize().window_cache(WindowCacheMode::on()).build();
    /// assert_eq!(spec.window_cache, WindowCacheMode::Entries(65536));
    /// ```
    pub fn window_cache(mut self, mode: WindowCacheMode) -> Self {
        self.spec.window_cache = mode;
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
    }

    #[test]
    fn spec_engines_match_hand_assembled_ones() {
        // The spec must compile to exactly the engine the harnesses used
        // to build by hand — identical features.
        let c = conv();
        let img: Vec<f32> = (0..784).map(|i| (i % 97) as f32 / 96.0).collect();
        let precision = Precision::new(6).unwrap();
        let by_hand = StochasticConvLayer::from_conv(&c, precision, ScOptions::this_work())
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
        let spec = ScenarioSpec::this_work(8)
            .customize()
            .bits(4)
            .adder(AdderKind::Mux)
            .pixel_source(SourceKind::Lfsr)
            .weight_source(SourceKind::Lfsr)
            .s0_policy(S0Policy::AllZero)
            .soft_threshold(0.5)
            .bit_error_rate(0.01)
            .input_mode(DenseInput::Ternary)
            .seed(99)
            .build();
        assert_eq!(spec.bits, 4);
        assert_eq!(spec.adder, AdderKind::Mux);
        assert_eq!(spec.pixel_source, SourceKind::Lfsr);
        assert_eq!(spec.s0_policy, S0Policy::AllZero);
        assert_eq!(spec.soft_threshold, 0.5);
        assert_eq!(spec.fault, FaultModel::BitError(0.01));
        assert_eq!(spec.input_mode, DenseInput::Ternary);
        assert_eq!(spec.seed, 99);
        // Every builder field must survive the round trip into ScOptions.
        let opts = spec.sc_options();
        assert_eq!(opts.adder, AdderKind::Mux);
        assert_eq!(opts.pixel_source, SourceKind::Lfsr);
        assert_eq!(opts.weight_source, SourceKind::Lfsr);
        assert_eq!(opts.s0_policy, S0Policy::AllZero);
        assert_eq!(opts.soft_threshold, 0.5);
        assert_eq!(opts.fault, FaultModel::BitError(0.01));
        assert_eq!(opts.seed, 99);
        assert_eq!(spec.customize().head(HeadKind::Float).build().label(), "float");
    }

    #[test]
    fn dense_compilation_rejects_unimplemented_variants() {
        // The dense engine only implements the proposed datapath: a spec
        // deviating on adder, sources, S0 policy or fault rate must not
        // silently compile to "This Work" numbers under another label.
        let dense = Dense::new(8, 2, 1);
        assert!(ScenarioSpec::old_sc(4).dense_layer(&dense).is_err());
        for spec in [
            ScenarioSpec::this_work(4).customize().adder(AdderKind::Mux).build(),
            ScenarioSpec::this_work(4).customize().pixel_source(SourceKind::Lfsr).build(),
            ScenarioSpec::this_work(4).customize().weight_source(SourceKind::Lfsr).build(),
            ScenarioSpec::this_work(4).customize().s0_policy(S0Policy::AllZero).build(),
            ScenarioSpec::this_work(4).customize().bit_error_rate(0.01).build(),
        ] {
            let err = spec.dense_layer(&dense).unwrap_err();
            assert!(err.to_string().contains("dense engine"), "{err}");
        }
        // τ alone is ignored (no comparator in a dense engine).
        let tau = ScenarioSpec::this_work(4).customize().soft_threshold(0.5).build();
        assert!(tau.dense_layer(&dense).is_ok());
    }

    #[test]
    fn dense_compilation_requires_stochastic_head() {
        let dense = Dense::new(8, 2, 1);
        assert!(ScenarioSpec::binary(4).dense_layer(&dense).is_err());
        let layer = ScenarioSpec::this_work(4).dense_layer(&dense).unwrap();
        assert_eq!(layer.in_features(), 8);
        let ternary = ScenarioSpec::this_work(4)
            .customize()
            .input_mode(DenseInput::Ternary)
            .build()
            .dense_layer(&dense)
            .unwrap();
        assert!(!ternary.uses_count_table());
    }

    #[test]
    fn invalid_precision_is_reported() {
        assert!(ScenarioSpec::this_work(99).precision().is_err());
        assert!(ScenarioSpec::this_work(99).first_layer(&conv()).is_err());
    }

    #[test]
    fn presets_keep_auto_lane_width() {
        for spec in [
            ScenarioSpec::this_work(6),
            ScenarioSpec::old_sc(6),
            ScenarioSpec::binary(6),
            ScenarioSpec::float(),
        ] {
            assert_eq!(spec.lane_width, LaneWidth::Auto);
        }
    }

    #[test]
    fn lane_width_round_trips_and_compiles() {
        let spec = ScenarioSpec::this_work(6).customize().lane_width(LaneWidth::U128).build();
        assert_eq!(spec.lane_width, LaneWidth::U128);
        assert_eq!(spec.sc_options().lane_width, LaneWidth::U128);
        let engine = spec.stochastic_conv(&conv()).unwrap();
        assert_eq!(engine.lane_width(), Some(LaneWidth::U128));
        let dense = Dense::new(8, 2, 1);
        let layer = spec.dense_layer(&dense).unwrap();
        assert_eq!(layer.lane_width(), Some(LaneWidth::U128));
    }

    #[test]
    fn presets_keep_window_cache_off() {
        for spec in [
            ScenarioSpec::this_work(6),
            ScenarioSpec::old_sc(6),
            ScenarioSpec::binary(6),
            ScenarioSpec::float(),
        ] {
            assert_eq!(spec.window_cache, WindowCacheMode::Off);
        }
    }

    #[test]
    fn window_cache_round_trips_and_compiles() {
        let spec =
            ScenarioSpec::this_work(4).customize().window_cache(WindowCacheMode::on()).build();
        assert_eq!(spec.window_cache, WindowCacheMode::on());
        assert_eq!(spec.sc_options().window_cache, WindowCacheMode::on());
        let engine = spec.stochastic_conv(&conv()).unwrap();
        assert!(engine.uses_window_cache());
        assert_eq!(engine.window_cache().unwrap().budget(), WindowCacheMode::DEFAULT_ENTRIES);
        // first_layer compiles the same engine behind the trait.
        let boxed = spec.first_layer(&conv()).unwrap();
        let img: Vec<f32> = (0..784).map(|i| (i % 97) as f32 / 96.0).collect();
        assert_eq!(
            boxed.forward_image(&img).unwrap(),
            ScenarioSpec::this_work(4).first_layer(&conv()).unwrap().forward_image(&img).unwrap()
        );
    }

    #[test]
    fn window_cache_validation_rejects_unsupported_paths() {
        let on = WindowCacheMode::on();
        // Non-stochastic heads have no fold to memoize.
        for head in [ScenarioSpec::float(), ScenarioSpec::binary(6)] {
            let spec = head.customize().window_cache(on).build();
            let err = spec.first_layer(&conv()).err().unwrap();
            assert!(err.to_string().contains("stochastic"), "{err}");
        }
        // Only the TFF fold is memoized.
        let mux = ScenarioSpec::old_sc(6).customize().window_cache(on).build();
        let err = mux.first_layer(&conv()).err().unwrap();
        assert!(err.to_string().contains("TFF"), "{err}");
        // A faulted fold is not a pure function of the window levels.
        let noisy =
            ScenarioSpec::this_work(6).customize().bit_error_rate(0.01).window_cache(on).build();
        let err = noisy.first_layer(&conv()).err().unwrap();
        assert!(err.to_string().contains("fault"), "{err}");
        let stuck = ScenarioSpec::this_work(6)
            .customize()
            .fault(FaultModel::StuckAt { site: crate::FaultSite::LutTap { tap: 3 }, value: false })
            .window_cache(on)
            .build();
        assert!(stuck.first_layer(&conv()).is_err());
        // A zero budget is degenerate in any position.
        let zero = ScenarioSpec::this_work(6)
            .customize()
            .window_cache(WindowCacheMode::Entries(0))
            .build();
        assert!(zero.first_layer(&conv()).is_err());
        // The dense engine has no window; non-Off modes are rejected.
        let dense = Dense::new(8, 2, 1);
        let spec = ScenarioSpec::this_work(4).customize().window_cache(on).build();
        let err = spec.dense_layer(&dense).unwrap_err();
        assert!(err.to_string().contains("window_cache"), "{err}");
    }

    #[test]
    fn lane_width_validation_rejects_bad_combinations() {
        // Overflowing precision: 15-bit streams exceed the 16-bit lane
        // ceiling shared by every width.
        let wide = ScenarioSpec::this_work(15).customize().lane_width(LaneWidth::U64).build();
        let err = wide.validate_lane_width().unwrap_err();
        assert!(err.to_string().contains("overflow"), "{err}");
        assert!(wide.first_layer(&conv()).is_err());
        // Auto at the same precision streams instead of erroring.
        let auto = ScenarioSpec::this_work(15);
        assert!(auto.validate_lane_width().is_ok());
        // Non-stochastic heads have no count-domain fold to pin.
        let binary = ScenarioSpec::binary(6).customize().lane_width(LaneWidth::U64).build();
        assert!(binary.first_layer(&conv()).is_err());
        // The MUX adder runs the count path too, so a pinned width compiles.
        let mux = ScenarioSpec::old_sc(6).customize().lane_width(LaneWidth::U32).build();
        assert_eq!(mux.stochastic_conv(&conv()).unwrap().lane_width(), Some(LaneWidth::U32));
    }
}
