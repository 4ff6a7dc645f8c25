//! Thread-count invariance of the batch-parallel evaluation pipeline.
//!
//! This test mutates the `SCNN_THREADS` environment variable, so it lives
//! in its own integration-test binary (its own process): no other test can
//! concurrently read the environment while `set_var` runs — and the tests
//! inside this binary serialize their env mutation through [`ENV_LOCK`].

use scnn_bitstream::Precision;
use scnn_core::{HybridLenet, ScOptions, StochasticConvLayer};
use scnn_nn::layers::{Conv2d, Padding};
use std::sync::Mutex;

/// Tests in one integration binary run on concurrent test threads; every
/// test that touches `SCNN_THREADS` must hold this lock across the
/// mutation and the reads it wants to observe it.
static ENV_LOCK: Mutex<()> = Mutex::new(());

/// Feature extraction and tail evaluation must be byte-identical for every
/// worker-thread count: `SCNN_THREADS=1` vs `SCNN_THREADS=4` (and the
/// explicit-thread-count API for good measure).
#[test]
fn parallel_evaluation_identical_for_any_thread_count() {
    use scnn_nn::data::synthetic;
    use scnn_nn::lenet::{lenet5_tail, LenetConfig};

    let _env = ENV_LOCK.lock().unwrap();
    let cfg = LenetConfig::default();
    let conv = Conv2d::new(1, 32, 5, Padding::Same, 17).unwrap();
    let engine =
        StochasticConvLayer::from_conv(&conv, Precision::new(4).unwrap(), ScOptions::this_work())
            .unwrap();
    let mut hybrid = HybridLenet::new(Box::new(engine), lenet5_tail(&cfg).unwrap());
    let dataset = synthetic::generate(12, 3);

    let run = |hybrid: &mut HybridLenet, threads: &str| {
        std::env::set_var(scnn_core::parallel::THREADS_ENV, threads);
        let features = hybrid.extract_features(&dataset).unwrap();
        let eval = hybrid.evaluate(&dataset, 5).unwrap();
        std::env::remove_var(scnn_core::parallel::THREADS_ENV);
        (features, eval)
    };
    let (features_1, eval_1) = run(&mut hybrid, "1");
    let (features_4, eval_4) = run(&mut hybrid, "4");

    assert_eq!(features_1.len(), features_4.len());
    for i in 0..features_1.len() {
        let (a, b) = (features_1.item(i), features_4.item(i));
        assert_eq!(a.len(), b.len());
        assert!(
            a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits()),
            "features differ at item {i}"
        );
    }
    assert_eq!(eval_1.correct, eval_4.correct);
    assert_eq!(eval_1.total, eval_4.total);
    assert_eq!(eval_1.accuracy.to_bits(), eval_4.accuracy.to_bits());
    assert_eq!(eval_1.loss.to_bits(), eval_4.loss.to_bits());

    // The explicit-thread-count primitive is order-preserving too.
    let serial = scnn_core::parallel::par_map_range_threads(1, 40, |i| i * i);
    let parallel = scnn_core::parallel::par_map_range_threads(4, 40, |i| i * i);
    assert_eq!(serial, parallel);
}

/// Count-domain fault injection is seeded per `(spec.seed, image_index,
/// pixel)`, never per worker: the faulted feature bytes must be identical
/// for every `SCNN_THREADS` value, even though different thread counts
/// assign images to workers differently — for the TFF fold and the
/// route-masked MUX sum alike.
#[test]
fn faulted_lut_features_identical_for_any_thread_count() {
    use scnn_core::FaultModel;
    use scnn_nn::data::synthetic;
    use scnn_nn::lenet::{lenet5_tail, LenetConfig};

    let _env = ENV_LOCK.lock().unwrap();
    let cfg = LenetConfig::default();
    let conv = Conv2d::new(1, 32, 5, Padding::Same, 41).unwrap();
    let dataset = synthetic::generate(10, 11);
    for preset in [ScOptions::this_work(), ScOptions::old_sc()] {
        let opts = ScOptions { fault: FaultModel::BitError(0.05), ..preset };
        let engine =
            StochasticConvLayer::from_conv(&conv, Precision::new(4).unwrap(), opts).unwrap();
        assert!(engine.uses_count_table(), "faulted {:?} engine left the LUT path", preset.adder);
        let hybrid = HybridLenet::new(Box::new(engine), lenet5_tail(&cfg).unwrap());

        let run = |threads: &str| {
            std::env::set_var(scnn_core::parallel::THREADS_ENV, threads);
            let features = hybrid.extract_features(&dataset).unwrap();
            std::env::remove_var(scnn_core::parallel::THREADS_ENV);
            features
        };
        let reference = run("1");
        for threads in ["2", "8"] {
            let features = run(threads);
            for i in 0..reference.len() {
                let (a, b) = (reference.item(i), features.item(i));
                assert!(
                    a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits()),
                    "faulted {:?} features differ at item {i} with {threads} threads",
                    preset.adder
                );
            }
        }
    }
}
