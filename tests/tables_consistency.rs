//! Integration tests asserting the *relationships* each paper table
//! reports, across crates: orderings in Tables 1 and 2, and the energy
//! crossover structure of Table 3's hardware half.

use scnn::bitstream::Precision;
use scnn::hw::activity::{BinaryActivity, ScActivity};
use scnn::hw::table3::{compute, paper_precisions};
use scnn::hw::CellLibrary;
use scnn::rng::{AdderScheme, MultiplierScheme};
use scnn::sim::accuracy::{adder_sweep, multiplier_sweep, tff_adder_theoretical_mse};

#[test]
fn table1_orderings_hold_at_8bit() {
    let p = Precision::new(8).expect("valid");
    let mse: Vec<f64> = MultiplierScheme::ALL
        .iter()
        .map(|&s| multiplier_sweep(s, p, 1).expect("sweep").mse)
        .collect();
    // shared-LFSR ≫ two LFSRs > low-discrepancy ≥ ramp+LD (paper Table 1).
    assert!(mse[0] > mse[1] * 10.0, "shared {:.2e} vs two {:.2e}", mse[0], mse[1]);
    assert!(mse[1] > mse[2], "two {:.2e} vs LD {:.2e}", mse[1], mse[2]);
    assert!(mse[3] <= mse[2], "ramp+LD {:.2e} vs LD {:.2e}", mse[3], mse[2]);
}

#[test]
fn table2_new_adder_dominates_and_matches_theory() {
    for bits in [4u32, 6, 8] {
        let p = Precision::new(bits).expect("valid");
        let new = adder_sweep(AdderScheme::NewTffAdder, p, 1).expect("sweep").mse;
        assert!(
            (new - tff_adder_theoretical_mse(p)).abs() < 1e-12,
            "{bits}-bit: measured {new:.3e}"
        );
        for old in [
            AdderScheme::RandomDataLfsrSelect,
            AdderScheme::RandomDataTffSelect,
            AdderScheme::LfsrDataTffSelect,
        ] {
            let old_mse = adder_sweep(old, p, 1).expect("sweep").mse;
            assert!(new < old_mse / 2.0, "{bits}-bit {old}: {old_mse:.3e} vs new {new:.3e}");
        }
    }
}

#[test]
fn table3_hw_shape_matches_paper() {
    let t = compute(
        &paper_precisions(),
        &ScActivity::default(),
        &BinaryActivity::default(),
        &CellLibrary::tsmc65_typical(),
    );
    // SC energy halves per bit (exponential run-time reduction, §V-B/VI).
    for pair in t.this_work.windows(2) {
        let ratio = pair[0].energy_nj / pair[1].energy_nj;
        assert!((1.5..2.5).contains(&ratio), "SC energy ratio {ratio}");
    }
    // Binary energy decreases far more slowly.
    let bin_total_drop = t.binary[0].energy_nj / t.binary.last().expect("rows").energy_nj;
    let sc_total_drop = t.this_work[0].energy_nj / t.this_work.last().expect("rows").energy_nj;
    assert!(sc_total_drop > 5.0 * bin_total_drop, "sc {sc_total_drop}× vs bin {bin_total_drop}×");
    // Efficiency gain near break-even at 8 bits and large at 4 (paper 9.8×).
    let g8 = t.efficiency_gain(8).expect("row");
    let g4 = t.efficiency_gain(4).expect("row");
    assert!((0.4..4.0).contains(&g8), "8-bit gain {g8}");
    assert!(g4 > 4.0, "4-bit gain {g4}");
    // Areas: SC roughly flat, binary strongly shrinking (paper area row).
    let sc_area_ratio = t.this_work[0].area_mm2 / t.this_work.last().expect("rows").area_mm2;
    let bin_area_ratio = t.binary[0].area_mm2 / t.binary.last().expect("rows").area_mm2;
    assert!(sc_area_ratio < 1.6, "SC area ratio {sc_area_ratio}");
    assert!(bin_area_ratio > 2.5, "binary area ratio {bin_area_ratio}");
    // SC power roughly constant across precision (paper: 28–33 mW).
    let sc_p_max = t.this_work.iter().map(|p| p.power_mw).fold(0.0f64, f64::max);
    let sc_p_min = t.this_work.iter().map(|p| p.power_mw).fold(f64::MAX, f64::min);
    assert!(sc_p_max / sc_p_min < 2.0, "SC power spread {sc_p_min}..{sc_p_max}");
}

#[test]
fn measured_activities_drive_the_model_sanely() {
    use scnn::core::ScenarioSpec;
    use scnn::hw::activity::{measure_binary_activity, measure_sc_activity};
    use scnn::nn::data::synthetic;
    use scnn::nn::layers::{Conv2d, Padding};

    let ds = synthetic::generate(3, 9);
    let conv = Conv2d::new(1, 8, 5, Padding::Same, 1).expect("conv");
    let engine = ScenarioSpec::this_work(6).stochastic_conv(&conv).expect("engine");
    let sc = measure_sc_activity(&engine, &ds, 2, 8).expect("activity");
    let bin = measure_binary_activity(&ds, Precision::new(8).expect("valid"), 3);
    let t = compute(&paper_precisions(), &sc, &bin, &CellLibrary::tsmc65_typical());
    // With real (sparse) traces the crossover structure must persist.
    let g4 = t.efficiency_gain(4).expect("row");
    assert!(g4 > 3.0, "4-bit gain with measured activities: {g4}");
    assert!(t.this_work.iter().all(|p| p.energy_nj > 0.0 && p.area_mm2 > 0.0));
}
