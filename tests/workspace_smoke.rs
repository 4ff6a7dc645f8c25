//! End-to-end smoke test of the umbrella crate's re-export surface: every
//! workspace layer is reached *through* `scnn::*` paths, so a broken
//! re-export or a crate wiring regression fails here even if the per-crate
//! suites still pass.

use scnn::bitstream::{BitStream, Precision, Unipolar};
use scnn::core::{FirstLayer, ScenarioSpec};
use scnn::hw::activity::{BinaryActivity, ScActivity};
use scnn::hw::table3::{compute, paper_precisions};
use scnn::hw::CellLibrary;
use scnn::nn::data::synthetic;
use scnn::nn::layers::{Conv2d, Padding};
use scnn::rng::{Sng, VanDerCorput};
use scnn::sim::TffAdder;

/// SNG → TFF adder: generate two streams of known value through the
/// low-discrepancy source and add them with the paper's TFF adder.
#[test]
fn sng_feeds_tff_adder() {
    let precision = Precision::new(6).expect("6-bit precision");
    let n = precision.stream_len();

    let mut sng = Sng::new(VanDerCorput::new(6).expect("width 6"));
    let a = sng.generate_unipolar(Unipolar::new(0.5).expect("in range"), precision);
    sng.reset();
    let b = sng.generate_unipolar(Unipolar::new(0.25).expect("in range"), precision);
    assert_eq!(a.len(), n);
    assert_eq!(b.len(), n);
    // Low-discrepancy sources are exact at representable levels.
    assert_eq!(a.count_ones(), n as u64 / 2);
    assert_eq!(b.count_ones(), n as u64 / 4);

    // TFF adder computes the scaled sum (x + y) / 2 exactly in counts.
    let sum = TffAdder::new(false).add(&a, &b).expect("equal lengths");
    assert_eq!(sum.count_ones(), (a.count_ones() + b.count_ones()) / 2);

    // And the bit-level parse/format round-trip from the crate docs works.
    let x = BitStream::parse("0110 0011 0101 0111 1000").expect("valid");
    assert_eq!(x.count_ones(), 10);
}

/// Hybrid first layer: a stochastic conv engine built from a float conv
/// produces ternary features of the right shape, deterministically.
#[test]
fn hybrid_first_layer_forward() {
    let conv = Conv2d::new(1, 8, 5, Padding::Same, 42).expect("conv definition");
    let engine = ScenarioSpec::this_work(4).stochastic_conv(&conv).expect("engine construction");

    let image = synthetic::single(7, 1);
    assert_eq!(image.len(), 28 * 28);

    let features = engine.forward_image(&image).expect("forward");
    assert_eq!(features.len(), 8 * 28 * 28, "8 output channels on a 28x28 plane");
    assert!(
        features.iter().all(|&v| v == -1.0 || v == 0.0 || v == 1.0),
        "first-layer features must be ternary"
    );

    let again = engine.forward_image(&image).expect("forward");
    assert_eq!(features, again, "stochastic engine must be deterministic");
}

/// Energy model: the Table 3 pipeline runs off default activity factors and
/// reproduces the paper's structural claims (monotone SC energy in
/// precision, sub-binary energy at low precision).
#[test]
fn energy_model_reports_paper_structure() {
    let lib = CellLibrary::tsmc65_typical();
    let precisions = paper_precisions();
    let table = compute(&precisions, &ScActivity::default(), &BinaryActivity::default(), &lib);

    assert_eq!(table.this_work.len(), precisions.len());
    assert_eq!(table.binary.len(), precisions.len());
    for (sc, bin) in table.this_work.iter().zip(&table.binary) {
        assert_eq!(sc.bits, bin.bits);
        assert!(sc.energy_nj > 0.0 && bin.energy_nj > 0.0);
        assert!(sc.area_mm2 > 0.0 && bin.area_mm2 > 0.0);
    }
    // SC frame energy grows with precision (2^b cycles per frame).
    for pair in table.this_work.windows(2) {
        assert!(
            pair[0].energy_nj >= pair[1].energy_nj,
            "SC energy should fall as precision drops: {pair:?}"
        );
    }
    // The paper's headline: stochastic wins at low precision.
    let gain_low = table.efficiency_gain(2).expect("2-bit point");
    assert!(gain_low > 1.0, "SC should beat binary at 2 bits, gain {gain_low}");
}
