//! Ablation: how the number-generation scheme affects the *hybrid layer's
//! feature fidelity* (why §IV adopts ramp-compare + low-discrepancy,
//! Table 1's conclusion carried into the full design).
//!
//! For each pixel/weight source pairing, measures the fraction of first
//! layer ternary features that disagree with the float reference.
//!
//! ```text
//! cargo run -p scnn-bench --release --bin ablation_sng
//! ```

use scnn_bench::report::{pct, Table};
use scnn_core::{ScenarioSpec, SourceKind};
use scnn_nn::layers::{Conv2d, Padding};

/// Full-dynamic-range test patterns (deterministic). Digit images are
/// mostly black, which makes every window's dot product sit near the sign
/// activation's decision point and drowns the scheme differences in
/// coin-flip noise (that is the paper's *soft-thresholding* motivation,
/// exercised elsewhere); dense patterns isolate the number-generation
/// quality this ablation is about.
fn test_pattern(seed: u64) -> Vec<f32> {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    (0..784)
        .map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 40) & 0xff) as f32 / 255.0
        })
        .collect()
}

fn mismatch_rate(conv: &Conv2d, images: &[&[f32]], spec: &ScenarioSpec) -> f64 {
    // Reference: the exact fixed-point engine at the *same* precision, so
    // quantization error (identical across schemes) cancels and only the
    // stochastic stream error remains.
    let reference_engine =
        ScenarioSpec::binary(spec.bits).first_layer(conv).expect("reference engine");
    let engine = spec.first_layer(conv).expect("engine");
    // Engines are immutable: one per-image task per parallel worker.
    let per_image = scnn_nn::parallel::par_map_range(images.len(), |i| {
        let reference = reference_engine.forward_image(images[i]).expect("forward");
        let got = engine.forward_image(images[i]).expect("forward");
        let mismatches = got.iter().zip(&reference).filter(|(a, b)| (*a - *b).abs() > 0.5).count();
        (mismatches, got.len())
    });
    let (mismatches, total) =
        per_image.iter().fold((0usize, 0usize), |(m, t), &(mi, ti)| (m + mi, t + ti));
    mismatches as f64 / total as f64
}

fn main() {
    scnn_bench::report::timed_run("ablation_sng", run);
}

fn run() {
    let patterns: Vec<Vec<f32>> = (0..6).map(|i| test_pattern(i + 1)).collect();
    let conv = Conv2d::new(1, 32, 5, Padding::Same, 42).expect("conv");
    let images: Vec<&[f32]> = patterns.iter().map(Vec::as_slice).collect();

    // One scenario literal per table row (bits filled per column); adding
    // a pairing is adding a line here.
    let scenario = |base: ScenarioSpec, px: SourceKind, wt: SourceKind| ScenarioSpec {
        pixel_source: px,
        weight_source: wt,
        ..base
    };
    let this_work = ScenarioSpec::this_work(8);
    let old_sc = ScenarioSpec::old_sc(8);
    let pairings = [
        ("TFF tree, LFSR + LFSR", scenario(this_work, SourceKind::Lfsr, SourceKind::Lfsr)),
        ("TFF tree, random + random", scenario(this_work, SourceKind::Random, SourceKind::Random)),
        (
            "TFF tree, VDC + Sobol'",
            scenario(this_work, SourceKind::VanDerCorput, SourceKind::Sobol2),
        ),
        (
            "TFF tree, ramp + Sobol' (this work)",
            scenario(this_work, SourceKind::Ramp, SourceKind::Sobol2),
        ),
        ("MUX tree, LFSR + LFSR (old SC)", scenario(old_sc, SourceKind::Lfsr, SourceKind::Lfsr)),
        ("MUX tree, ramp + Sobol'", scenario(old_sc, SourceKind::Ramp, SourceKind::Sobol2)),
    ];
    let mut table = Table::new(vec![
        "Pixel/weight sources".into(),
        "4-bit mismatch".into(),
        "6-bit mismatch".into(),
        "8-bit mismatch".into(),
    ]);
    for (label, base_spec) in pairings {
        let mut cells = vec![label.to_string()];
        for bits in [4u32, 6, 8] {
            let spec = ScenarioSpec { bits, ..base_spec };
            cells.push(pct(mismatch_rate(&conv, &images, &spec)));
        }
        table.row(cells);
    }
    println!("\n# Ablation — hybrid-layer feature error vs number-generation scheme\n");
    println!("full-range test patterns; mismatch = ternary features differing from the exact fixed-point engine\n");
    println!("{}", table.render());
    println!("(with the TFF tree the residual error is dominated by the tree's own");
    println!(" one-LSB-per-node rounding, so the engine is nearly *insensitive* to the");
    println!(" number-generation scheme — the robustness §III promises. The MUX tree's");
    println!(" select-sampling noise sits on top and is what the old-SC design pays.)");
}
