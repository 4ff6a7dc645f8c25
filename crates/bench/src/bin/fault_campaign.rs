//! Deterministic fault-resilience campaign (paper §I / Fig. 8): accuracy
//! degradation of each design row under the preset fault registry, plus
//! the count-domain fault-injection speedup.
//!
//! ```text
//! cargo run -p scnn-bench --release --bin fault_campaign            # quick
//! cargo run -p scnn-bench --release --bin fault_campaign -- --smoke # CI gate
//! ```
//!
//! For every `(design, bits)` cell the tail is retrained **once** on the
//! fault-free head; faulted heads from the registry are then swapped in
//! front of that frozen tail (the paper's methodology — the classifier is
//! trained healthy and the silicon degrades in the field). Accuracy points
//! are recorded as `resilience/accuracy/<design>/<bits>/<fault>`, the
//! LUT-vs-streaming fault speedup as `resilience/speedup_fault_lut_x`,
//! into the JSON file that `SCNN_RESILIENCE_OUT` names (the CI
//! `resilience-curves` artifact); without it they are only printed.
//! `BENCH.json` receives the campaign's wall clock alone
//! (`bin/fault_campaign`).

use scnn_bench::report::{key, pct, BenchJson, Table};
use scnn_bench::resilience;
use scnn_bench::setup::{prepare, Effort, Workbench};
use scnn_core::{FaultModel, FirstLayer, RetrainConfig, ScenarioSpec};
use std::time::Instant;

fn main() {
    scnn_bench::report::timed_run("fault_campaign", run);
}

/// A campaign design row: display name (also the resilience key
/// segment) plus its per-precision clean scenario.
type Design = (&'static str, fn(u32) -> ScenarioSpec);

/// The design rows the campaign degrades. The MUX row only sweeps the
/// bit-error presets (stuck-at models target the TFF datapath; see
/// [`resilience::apply`]).
const DESIGNS: [Design; 2] =
    [("this-work", ScenarioSpec::this_work), ("old-sc", ScenarioSpec::old_sc)];

/// Slack for the smoke-tier monotonicity check: one image flipping at the
/// tiny CI evaluation sizes moves accuracy by ~1/test-set, so adjacent
/// BER points may jitter by a few images without the curve being wrong.
const MONOTONE_SLACK: f64 = 0.05;

fn run() {
    let effort = Effort::from_args();
    let bench = prepare(effort);
    let retrain_cfg = RetrainConfig { epochs: effort.retrain_epochs(), ..RetrainConfig::default() };
    let presets = resilience::campaign(effort);
    let bits_list = resilience::campaign_bits(effort);

    let mut curves = BenchJson::new();
    let mut table = Table::new(vec![
        "design".into(),
        "bits".into(),
        "fault".into(),
        "accuracy".into(),
        "Δ vs clean".into(),
    ]);

    for (design, scenario) in DESIGNS {
        for &bits in bits_list {
            let clean_spec = scenario(bits);
            let (mut hybrid, report) = bench.retrain_scenario(&clean_spec, &retrain_cfg);
            let clean = report.after;
            curves.record(
                &key::resilience(&format!("accuracy/{design}/{bits}/none")),
                clean.accuracy,
            );
            table.row(vec![
                design.into(),
                bits.to_string(),
                "none".into(),
                pct(clean.accuracy),
                "—".into(),
            ]);

            let mut ber_curve = vec![(0.0, clean.accuracy)];
            for preset in &presets {
                let Some(spec) = resilience::apply(&clean_spec, preset) else { continue };
                hybrid.set_head(bench.first_layer(&spec));
                let eval = hybrid.evaluate(&bench.test, 64).expect("faulted evaluation");
                let degraded = clean.correct.saturating_sub(eval.correct) as u64;
                if scnn_obs::metrics_enabled() {
                    scnn_obs::registry().counter("fault/images_degraded").add(degraded);
                }
                curves.record(
                    &key::resilience(&format!("accuracy/{design}/{bits}/{}", preset.name)),
                    eval.accuracy,
                );
                if let FaultModel::BitError(ber) = preset.model {
                    ber_curve.push((ber, eval.accuracy));
                }
                table.row(vec![
                    design.into(),
                    bits.to_string(),
                    preset.name.into(),
                    pct(eval.accuracy),
                    format!("{:+.2}pp", (eval.accuracy - clean.accuracy) * 100.0),
                ]);
                eprintln!(
                    "[fault_campaign] {design}/{bits}/{}: {} ({degraded} images degraded)",
                    preset.name,
                    pct(eval.accuracy),
                );
            }

            // The degradation curve must trend down in BER — the graceful-
            // degradation claim the campaign exists to guard. Only the
            // proposed (TFF) row is gated: the MUX row's select-sampling
            // noise floor is too close to its clean accuracy at smoke sizes.
            let monotone = resilience::curve_is_monotone(&ber_curve, MONOTONE_SLACK);
            if design == "this-work" {
                assert!(
                    monotone,
                    "accuracy-vs-BER curve not monotone for {design}/{bits}: {ber_curve:?}"
                );
                curves.record(&key::resilience(&format!("monotone/{design}/{bits}")), 1.0);
            }
        }
    }

    let speedup = record_fault_speedup(&bench, bits_list, &mut curves);
    write_resilience_artifact(&curves);

    println!("\n# Fault-resilience campaign — accuracy under injected faults\n");
    println!(
        "data source: {}; {} train / {} test; presets: {}; faulted LUT speedup: {speedup:.1}×",
        bench.source,
        bench.train.len(),
        bench.test.len(),
        presets.iter().map(|p| p.name).collect::<Vec<_>>().join(", "),
    );
    println!();
    println!("{}", table.render());
}

/// Times the count-domain faulted forward against the literal streaming
/// fault path on the same engine, per precision, and records the minimum
/// ratio as `resilience/speedup_fault_lut_x` — the number that certifies
/// faulted sweeps run at LUT speed rather than stream speed.
///
/// Measured at the ladder's base rate (`BER_LADDER[0]` = 10⁻³, the
/// soft-error regime the resilience literature targets): count-domain
/// injection does work proportional to the *flip count* (`ber · N` per
/// pixel), so its advantage is structurally largest while faults are
/// sparse per pixel and converges toward streaming cost once `ber · N`
/// passes a few flips per pixel — the accuracy campaign above still
/// sweeps those heavy rates, they just pay more of the streaming price.
///
/// Before timing, it asserts that the first image's faulted count-path
/// forward equals the streaming forward bit for bit on the trained base
/// model.
fn record_fault_speedup(bench: &Workbench, bits_list: &[u32], curves: &mut BenchJson) -> f64 {
    let images: Vec<&[f32]> = (0..bench.test.len().min(4)).map(|i| bench.test.item(i)).collect();
    let mut min_speedup = f64::INFINITY;
    for &bits in bits_list.iter().filter(|b| (4..=8).contains(*b)) {
        let fault = FaultModel::BitError(resilience::BER_LADDER[0]);
        let spec = ScenarioSpec { fault, ..ScenarioSpec::this_work(bits) };
        let engine = spec.stochastic_conv(bench.base.conv1()).expect("faulted engine");
        assert!(engine.uses_count_table(), "faulted TFF engine must stay on the LUT path");
        // One warm-up pass each, then one timed pass over the same images.
        // The streaming warm-up realizes index 0, as the first count-path
        // one does: both flip the same bits, so they agree bit for bit.
        let mut warm = images.iter().enumerate().map(|(i, image)| {
            FirstLayer::forward_image_indexed(&engine, image, i as u64).expect("warm-up")
        });
        let counted = warm.next().expect("at least one test image");
        warm.for_each(drop);
        let streamed = engine.forward_image_streaming(images[0]).expect("warm-up");
        assert!(counted == streamed, "faulted count path differs from streaming at {bits} bits");
        let start = Instant::now();
        for (i, image) in images.iter().enumerate() {
            FirstLayer::forward_image_indexed(&engine, image, i as u64).expect("lut forward");
        }
        let lut_ns = start.elapsed().as_nanos() as f64;
        let start = Instant::now();
        for image in &images {
            engine.forward_image_streaming(image).expect("streaming forward");
        }
        let stream_ns = start.elapsed().as_nanos() as f64;
        let speedup = stream_ns / lut_ns;
        eprintln!("[fault_campaign] faulted forward at {bits} bits: {speedup:.1}× (LUT vs stream)");
        curves.record(&key::resilience(&format!("speedup_fault_lut_x/{bits}")), speedup);
        min_speedup = min_speedup.min(speedup);
    }
    if min_speedup.is_finite() {
        curves.record(&key::resilience("speedup_fault_lut_x"), min_speedup);
    }
    min_speedup
}

/// Writes the campaign's points to the file named by
/// `SCNN_RESILIENCE_OUT`, if set — the CI `resilience-curves` artifact.
fn write_resilience_artifact(curves: &BenchJson) {
    let Some(out) = std::env::var_os(resilience::RESILIENCE_OUT_ENV).filter(|v| !v.is_empty())
    else {
        return;
    };
    if let Err(e) = curves.write(std::path::Path::new(&out)) {
        eprintln!("[fault_campaign] note: could not write {out:?}: {e}");
    }
}
