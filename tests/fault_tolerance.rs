//! Integration test for the §I fault-tolerance claim: stochastic streams
//! degrade gracefully under bit flips (each flip perturbs a value by
//! exactly 1/N), so the hybrid classifier survives substantial stream
//! noise, unlike a binary word where one MSB flip halves the range.

use scnn::bitstream::BitStream;
use scnn::core::{train_base, FaultModel, HybridLenet, ScenarioSpec, TrainConfig};
use scnn::nn::data::synthetic;
use scnn::sim::fault::{inject_exact_flips, max_value_perturbation};

#[test]
fn stream_value_perturbation_is_linear_in_flips() {
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    let original = BitStream::from_fn(256, |i| i % 5 < 2);
    let v0 = original.unipolar().get();
    for flips in [1usize, 8, 32] {
        let mut s = original.clone();
        inject_exact_flips(&mut s, flips, &mut rng).expect("flip budget fits");
        let dv = (s.unipolar().get() - v0).abs();
        assert!(dv <= max_value_perturbation(flips, 256) + 1e-12);
    }
}

#[test]
fn hybrid_classifier_survives_stream_bit_errors() {
    let train = synthetic::generate(500, 21);
    let test = synthetic::generate(120, 22);
    let base = train_base(&train, &test, &TrainConfig { epochs: 4, ..TrainConfig::default() })
        .expect("base");
    let this_work = ScenarioSpec::this_work(6);

    let accuracy_at = |ber: f64| {
        let spec = ScenarioSpec { fault: FaultModel::BitError(ber), ..this_work };
        let engine = spec.stochastic_conv(base.conv1()).expect("engine");
        // Bit errors ride the count-domain fast path now — the whole sweep
        // runs at LUT speed.
        assert!(engine.uses_count_table(), "faulted TFF engine left the LUT path");
        let mut hybrid = HybridLenet::new(Box::new(engine), base.tail_clone());
        hybrid.evaluate(&test, 64).expect("evaluate").accuracy
    };

    let clean = accuracy_at(0.0);
    // 1% of all stream bits flipped.
    let noisy = accuracy_at(0.01);
    // Graceful degradation: a 1% bit-error rate must not collapse accuracy.
    assert!(noisy >= clean - 0.15, "1% BER dropped accuracy from {clean:.3} to {noisy:.3}");
    // And heavy noise should hurt more than light noise (sanity direction).
    let heavy = accuracy_at(0.2);
    assert!(heavy <= noisy + 0.05, "heavy noise {heavy:.3} vs light {noisy:.3}");

    // Mean accuracy (averaged over fault-seed realizations) is
    // non-increasing in the bit-error rate over widely spaced points. A
    // single realization can jitter either way at these sizes — one
    // flipped feature moves a handful of classifications — so the property
    // holds in the mean, with a small slack for residual sampling noise.
    let mean_accuracy_at = |ber: f64| {
        let seeds = [0u64, 1001, 2002];
        let mean: f64 = seeds
            .iter()
            .map(|&seed| {
                let spec = ScenarioSpec { fault: FaultModel::BitError(ber), seed, ..this_work };
                let engine = spec.stochastic_conv(base.conv1()).expect("engine");
                let mut hybrid = HybridLenet::new(Box::new(engine), base.tail_clone());
                hybrid.evaluate(&test, 64).expect("evaluate").accuracy
            })
            .sum::<f64>()
            / seeds.len() as f64;
        mean
    };
    let curve: Vec<f64> = [0.0, 0.1, 0.4].iter().map(|&ber| mean_accuracy_at(ber)).collect();
    for pair in curve.windows(2) {
        assert!(pair[1] <= pair[0] + 0.05, "mean accuracy rose with BER: {curve:?}");
    }
}
