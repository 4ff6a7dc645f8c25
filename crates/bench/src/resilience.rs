//! Preset registry and curve helpers for the fault-resilience campaign
//! (`fault_campaign` bin).
//!
//! The paper's graceful-degradation argument (§I, Fig. 8) is that one
//! flipped stream bit perturbs an encoded value by exactly `1/N`, so a
//! stochastic classifier's accuracy degrades smoothly with the bit-error
//! rate where a binary datapath can lose an MSB. The campaign replays that
//! experiment deterministically: for each design row and precision it
//! retrains the tail once on the fault-free head, then swaps in faulted
//! heads from this registry and records the accuracy of each point under
//! `resilience/` keys in the file [`RESILIENCE_OUT_ENV`] names.
//!
//! # Example
//!
//! ```
//! use scnn_bench::resilience::{campaign, registry, FaultPreset};
//! use scnn_bench::setup::Effort;
//!
//! // The full registry covers a BER ladder plus stuck-at sites…
//! assert!(registry().len() > campaign(Effort::Smoke).len());
//! // …and every preset's name is stable for resilience keys.
//! assert!(registry().iter().any(|p| p.name == "ber-0.01"));
//! ```

use crate::setup::Effort;
use scnn_core::{AdderKind, FaultModel, FaultSite, ScenarioSpec};

/// Environment variable naming the file that receives a campaign run's
/// `resilience/` points — how CI captures the `resilience-curves`
/// artifact. They never enter `BENCH.json`.
pub const RESILIENCE_OUT_ENV: &str = "SCNN_RESILIENCE_OUT";

/// One campaign point: a named fault model.
///
/// The `name` is the stable resilience key segment
/// (`resilience/accuracy/<design>/<bits>/<name>`); keep it in sync with
/// [`FaultModel::label`] so the keys and engine logs agree.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPreset {
    /// Stable key segment of the CI `resilience-curves` artifact.
    pub name: &'static str,
    /// The fault model the campaign compiles into the head engine.
    pub model: FaultModel,
}

/// Root node of the 25-tap (5×5 kernel) TFF fold — a stuck-at fault here
/// wipes or saturates the whole positive-tree dot product, the worst
/// single-site case the campaign tracks.
pub const ROOT_NODE_5X5: u32 = 30;

/// Center tap of a 5×5 window — a representative single-tap LUT fault.
pub const CENTER_TAP_5X5: u32 = 12;

/// The bit-error-rate ladder every campaign sweeps (ascending): spaced to
/// show the shoulder of the degradation curve at smoke sizes without
/// adjacent points drowning in sampling noise.
pub const BER_LADDER: [f64; 4] = [0.001, 0.01, 0.05, 0.2];

/// The full preset registry: the [`BER_LADDER`] plus stuck-at-0/1 on the
/// fold root and the center LUT tap, and one compound point.
///
/// ```
/// use scnn_bench::resilience::registry;
///
/// let names: Vec<&str> = registry().iter().map(|p| p.name).collect();
/// assert!(names.contains(&"stuck0-node30"));
/// assert!(names.contains(&"compound"));
/// ```
pub fn registry() -> Vec<FaultPreset> {
    let mut presets: Vec<FaultPreset> = vec![
        FaultPreset { name: "ber-0.001", model: FaultModel::BitError(BER_LADDER[0]) },
        FaultPreset { name: "ber-0.01", model: FaultModel::BitError(BER_LADDER[1]) },
        FaultPreset { name: "ber-0.05", model: FaultModel::BitError(BER_LADDER[2]) },
        FaultPreset { name: "ber-0.2", model: FaultModel::BitError(BER_LADDER[3]) },
    ];
    let root = FaultSite::AdderNode { node: ROOT_NODE_5X5 };
    let tap = FaultSite::LutTap { tap: CENTER_TAP_5X5 };
    presets.push(FaultPreset {
        name: "stuck0-node30",
        model: FaultModel::StuckAt { site: root, value: false },
    });
    presets.push(FaultPreset {
        name: "stuck1-node30",
        model: FaultModel::StuckAt { site: root, value: true },
    });
    presets.push(FaultPreset {
        name: "stuck0-tap12",
        model: FaultModel::StuckAt { site: tap, value: false },
    });
    presets.push(FaultPreset {
        name: "stuck1-tap12",
        model: FaultModel::StuckAt { site: tap, value: true },
    });
    presets.push(FaultPreset {
        name: "compound",
        model: FaultModel::Compound { ber: BER_LADDER[1], site: tap, value: false },
    });
    presets
}

/// The registry subset one effort tier sweeps: `smoke` keeps the CI gate
/// to a handful of points, `quick` adds the stuck-at sites, `full` runs
/// everything.
pub fn campaign(effort: Effort) -> Vec<FaultPreset> {
    let all = registry();
    match effort {
        Effort::Smoke => all
            .into_iter()
            .filter(|p| matches!(p.name, "ber-0.01" | "ber-0.2" | "stuck1-node30"))
            .collect(),
        Effort::Quick => all.into_iter().filter(|p| p.name != "compound").collect(),
        Effort::Full => all,
    }
}

/// The precisions one effort tier sweeps (all within the 4–8-bit band the
/// acceptance speedup is measured over).
pub fn campaign_bits(effort: Effort) -> &'static [u32] {
    match effort {
        Effort::Smoke => &[4, 6],
        Effort::Quick => &[4, 6, 8],
        Effort::Full => &[4, 5, 6, 7, 8],
    }
}

/// Applies a preset to a clean scenario, or `None` where the combination
/// is unsupported by construction: stuck-at models target the TFF adder
/// datapath, so MUX ("old SC") rows only sweep the bit-error presets.
pub fn apply(clean: &ScenarioSpec, preset: &FaultPreset) -> Option<ScenarioSpec> {
    if preset.model.stuck().is_some() && clean.adder != AdderKind::Tff {
        return None;
    }
    Some(ScenarioSpec { fault: preset.model, ..*clean })
}

/// Whether an accuracy-vs-BER curve (ascending BER) is non-increasing
/// within `slack` — the campaign's curve-health check. `slack` absorbs the
/// few-image jitter of smoke-tier evaluations; genuine inversions (a
/// noisier point scoring clearly higher) fail.
///
/// ```
/// use scnn_bench::resilience::curve_is_monotone;
///
/// assert!(curve_is_monotone(&[(0.0, 0.9), (0.01, 0.88), (0.2, 0.4)], 0.02));
/// assert!(!curve_is_monotone(&[(0.0, 0.5), (0.01, 0.9)], 0.02));
/// ```
pub fn curve_is_monotone(curve: &[(f64, f64)], slack: f64) -> bool {
    curve.windows(2).all(|pair| pair[1].1 <= pair[0].1 + slack)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_match_model_labels_or_document_compounds() {
        for preset in registry() {
            // BER and stuck presets reuse the engine's own label grammar,
            // so resilience keys and engine logs agree; the compound point
            // keeps a short stable alias.
            if preset.name == "compound" {
                assert!(preset.model.label().starts_with("compound-"));
            } else {
                assert_eq!(preset.name, preset.model.label());
            }
        }
    }

    #[test]
    fn every_registry_model_validates() {
        for preset in registry() {
            assert!(preset.model.validate().is_ok(), "{} must validate", preset.name);
            assert!(!preset.model.is_none(), "{} must actually inject", preset.name);
        }
    }

    #[test]
    fn effort_tiers_nest() {
        let smoke = campaign(Effort::Smoke);
        let quick = campaign(Effort::Quick);
        let full = campaign(Effort::Full);
        assert!(smoke.len() < quick.len() && quick.len() < full.len());
        for preset in &smoke {
            assert!(quick.contains(preset), "{} must survive into quick", preset.name);
        }
        for preset in &quick {
            assert!(full.contains(preset), "{} must survive into full", preset.name);
        }
        assert!(campaign_bits(Effort::Smoke).len() < campaign_bits(Effort::Full).len());
        for bits in campaign_bits(Effort::Full) {
            assert!((2..=8).contains(bits));
        }
    }

    #[test]
    fn apply_filters_stuck_models_off_the_mux_row() {
        let tff = ScenarioSpec::this_work(6);
        let mux = ScenarioSpec::old_sc(6);
        for preset in registry() {
            let on_tff = apply(&tff, &preset).expect("every preset applies to the TFF row");
            assert_eq!(on_tff.fault, preset.model);
            match apply(&mux, &preset) {
                Some(spec) => assert!(spec.fault.stuck().is_none()),
                None => assert!(preset.model.stuck().is_some()),
            }
        }
    }

    #[test]
    fn monotone_check_tolerates_slack_but_not_inversions() {
        let jitter = [(0.0, 0.90), (0.01, 0.91), (0.05, 0.80), (0.2, 0.30)];
        assert!(curve_is_monotone(&jitter, 0.02));
        assert!(!curve_is_monotone(&jitter, 0.005));
        assert!(curve_is_monotone(&[], 0.0));
        assert!(curve_is_monotone(&[(0.0, 1.0)], 0.0));
    }
}
