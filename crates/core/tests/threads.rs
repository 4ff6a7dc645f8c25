//! Thread-count invariance of the batch-parallel evaluation pipeline.
//!
//! This test mutates the `SCNN_THREADS` environment variable, so it lives
//! in its own integration-test binary (its own process): no other test can
//! concurrently read the environment while `set_var` runs — and the tests
//! inside this binary serialize their env mutation through [`ENV_LOCK`].

use scnn_bitstream::Precision;
use scnn_core::{HybridLenet, ScOptions, StochasticConvLayer, WindowCacheMode};
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

/// The shared `WindowCache` must be invisible to the output for every
/// worker-thread count: the memoized fold roots are pure functions of the
/// window keys, so which thread populates an entry (and in what order)
/// cannot change a single feature byte. Mirrors the `ScratchPool`
/// transparency test below for the cache layer.
#[test]
fn window_cache_identical_across_thread_counts() {
    use scnn_nn::data::synthetic;
    use scnn_nn::lenet::{lenet5_tail, LenetConfig};

    let _env = ENV_LOCK.lock().unwrap();
    let cfg = LenetConfig::default();
    let conv = Conv2d::new(1, 32, 5, Padding::Same, 29).unwrap();
    let precision = Precision::new(4).unwrap();
    let build = |cache| {
        let opts = ScOptions { window_cache: cache, ..ScOptions::this_work() };
        let engine = StochasticConvLayer::from_conv(&conv, precision, opts).unwrap();
        // Clones share one cache, so the handle observes the hybrid's.
        let handle = engine.clone();
        (HybridLenet::new(Box::new(engine), lenet5_tail(&cfg).unwrap()), handle)
    };
    let dataset = synthetic::generate(8, 5);
    let run = |hybrid: &HybridLenet, threads: &str| {
        std::env::set_var(scnn_core::parallel::THREADS_ENV, threads);
        let features = hybrid.extract_features(&dataset).unwrap();
        std::env::remove_var(scnn_core::parallel::THREADS_ENV);
        features
    };

    let (plain, _) = build(WindowCacheMode::Off);
    let reference = run(&plain, "1");
    for threads in ["1", "4"] {
        // A fresh cache per thread count: each run exercises its own
        // population races (and each must still match the uncached run).
        let (cached, handle) = build(WindowCacheMode::on());
        let features = run(&cached, threads);
        for i in 0..reference.len() {
            let (a, b) = (reference.item(i), features.item(i));
            assert!(
                a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits()),
                "features differ at item {i} with {threads} threads"
            );
        }
        let stats = handle.window_cache_stats().unwrap();
        assert_eq!(stats.hits + stats.misses, 8 * 784, "{threads} threads");
        assert!(stats.hits > 0, "{threads} threads never hit the cache");
    }
}

/// Eviction pressure from concurrent workers stays within the entry
/// budget and stays transparent: a budget far below the distinct-window
/// count must evict constantly, yet every feature byte still matches the
/// uncached engine.
#[test]
fn window_cache_budget_holds_under_concurrent_eviction() {
    use scnn_nn::data::synthetic;
    use scnn_nn::lenet::{lenet5_tail, LenetConfig};

    let _env = ENV_LOCK.lock().unwrap();
    let cfg = LenetConfig::default();
    let conv = Conv2d::new(1, 32, 5, Padding::Same, 31).unwrap();
    let precision = Precision::new(4).unwrap();
    let opts = ScOptions { window_cache: WindowCacheMode::Entries(8), ..ScOptions::this_work() };
    let engine = StochasticConvLayer::from_conv(&conv, precision, opts).unwrap();
    let stats_handle = engine.clone();
    let cached = HybridLenet::new(Box::new(engine), lenet5_tail(&cfg).unwrap());
    let plain = HybridLenet::new(
        Box::new(StochasticConvLayer::from_conv(&conv, precision, ScOptions::this_work()).unwrap()),
        lenet5_tail(&cfg).unwrap(),
    );
    let dataset = synthetic::generate(6, 7);

    std::env::set_var(scnn_core::parallel::THREADS_ENV, "4");
    let features = cached.extract_features(&dataset).unwrap();
    let reference = plain.extract_features(&dataset).unwrap();
    std::env::remove_var(scnn_core::parallel::THREADS_ENV);

    for i in 0..reference.len() {
        let (a, b) = (reference.item(i), features.item(i));
        assert!(
            a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits()),
            "features differ at item {i} under eviction churn"
        );
    }
    let cache = stats_handle.window_cache().unwrap();
    let stats = cache.stats();
    assert!(stats.evictions > 0, "budget 8 should thrash: {stats:?}");
    assert!(cache.len() <= 8, "cache exceeded its budget");
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

/// The per-thread `ScratchPool` behind the count-domain forwards must not
/// perturb results across worker-thread counts: each worker checks trees
/// out of its own thread-local pool, so recycling is invisible to the
/// output (byte-identity already covered above) and pools actually retain
/// buffers per thread.
#[test]
fn scratch_pool_is_per_thread_and_transparent() {
    use scnn_core::ScratchPool;
    use scnn_sim::S0Policy;

    // A fresh worker thread starts with an empty pool, parks its trees on
    // drop, and reuses them on the next checkout — all thread-locally.
    let handle = std::thread::spawn(|| {
        assert_eq!(ScratchPool::thread_pooled::<u64>(), 0);
        let tree = ScratchPool::checkout::<u64>(25, 32, S0Policy::Alternating, 16).unwrap();
        drop(tree);
        let after_first = ScratchPool::thread_pooled::<u64>();
        let tree = ScratchPool::checkout::<u64>(25, 32, S0Policy::Alternating, 16).unwrap();
        let during_second = ScratchPool::thread_pooled::<u64>();
        drop(tree);
        (after_first, during_second)
    });
    let (after_first, during_second) = handle.join().unwrap();
    assert_eq!(after_first, 1);
    assert_eq!(during_second, 0, "the second checkout must recycle the parked tree");

    // And a forward on the main thread parks its trees here, not on the
    // worker threads (the pool is thread-local, not global).
    let conv = Conv2d::new(1, 8, 5, Padding::Same, 23).unwrap();
    let engine =
        StochasticConvLayer::from_conv(&conv, Precision::new(4).unwrap(), ScOptions::this_work())
            .unwrap();
    let image: Vec<f32> = (0..784).map(|i| (i % 100) as f32 / 99.0).collect();
    let before = ScratchPool::thread_pooled::<u64>();
    scnn_core::FirstLayer::forward_image(&engine, &image).unwrap();
    assert!(ScratchPool::thread_pooled::<u64>() >= before.max(2).min(before + 2));
}
