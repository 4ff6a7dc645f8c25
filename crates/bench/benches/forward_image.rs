//! Criterion bench for the stochastic first layer's two TFF execution
//! paths: the level-indexed AND-count table (the default `forward_image`)
//! versus the packed bit-level streaming simulation
//! (`forward_image_streaming`), across precisions. The MUX engine's count
//! path is timed on the same image (`forward_image/mux_lut/<bits>`), and
//! so is the faulted frame benchmark's compound model (bit errors at 1e-2
//! plus a stuck adder node) at 6 bits (`forward_image/tff_lut_faulted/6`);
//! its ratio to `tff_lut/6` is printed as the faulted head cost.
//!
//! This is the repo's perf-trajectory anchor: the measured times are
//! written to `BENCH.json` (`scnn_bench::report::BenchJson`), which CI
//! uploads as an artifact so future PRs can diff them. The
//! LUT-vs-streaming speedup is printed; it is the ratio of two recorded
//! timings. The acceptance bar for the count-table fast path is a ≥ 10×
//! speedup at 8-bit precision.
//!
//! A dataset pass additionally measures the per-image forward time over
//! a set of distinct images (`forward_image/dataset_<source>/<bits>`), so
//! the count-domain path is timed on fresh inputs rather than one image
//! repeated.
//!
//! An observability section measures the metrics layer itself: the
//! per-image loop is re-timed with recording forced off and forced on in
//! alternating rounds, and the median on-vs-off overhead with its range
//! and the per-precision stage-latency percentiles are printed.
//!
//! ```text
//! cargo bench -p scnn-bench --bench forward_image            # measured
//! SCNN_BENCH_QUICK=1 cargo bench -p scnn-bench --bench forward_image
//! ```

use criterion::{BenchmarkId, Criterion};
use scnn_bench::report::{key, metrics_overhead, BenchJson};
use scnn_core::{FaultModel, FaultSite, FirstLayer, ScenarioSpec, StochasticConvLayer};
use scnn_nn::data::{load_or_synthesize, synthetic};
use scnn_nn::layers::{Conv2d, Padding};
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

const DATASET_IMAGES: usize = 64;

const PRECISIONS: [u32; 3] = [4, 6, 8];

/// The frame benchmark's faulted head: bit errors at 1e-2 plus a stuck
/// node of the TFF fold, at 6 bits.
const FAULTED: FaultModel =
    FaultModel::Compound { ber: 1e-2, site: FaultSite::AdderNode { node: 3 }, value: false };
const FAULTED_BITS: u32 = 6;

/// Mean per-image nanoseconds over `iters` forward passes.
fn time_forwards(engine: &StochasticConvLayer, image: &[f32], iters: usize) -> f64 {
    let start = Instant::now();
    for _ in 0..iters {
        black_box(engine.forward_image(black_box(image)).expect("forward"));
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

fn main() {
    scnn_bench::setup::obs_env_init();
    let conv = Conv2d::new(1, 32, 5, Padding::Same, 42).expect("conv");
    let image = synthetic::single(7, 1);
    let path = BenchJson::default_path();
    let mut json = BenchJson::load(&path);

    let mut criterion = Criterion::default();
    let mut group = criterion.benchmark_group("forward_image");
    group.sample_size(10).measurement_time(Duration::from_secs(2));
    for bits in PRECISIONS {
        let engine = ScenarioSpec::this_work(bits).stochastic_conv(&conv).expect("engine");
        assert!(engine.uses_count_table(), "TFF engine at {bits}-bit must build the count table");
        group.bench_with_input(BenchmarkId::new("tff_lut", bits), &engine, |b, e| {
            b.iter(|| e.forward_image(black_box(&image)).expect("forward"));
            json.record(&key::per_bits("forward_image", "tff_lut", bits), b.last_ns_per_iter);
        });
        group.bench_with_input(BenchmarkId::new("tff_streaming", bits), &engine, |b, e| {
            b.iter(|| e.forward_image_streaming(black_box(&image)).expect("forward"));
            json.record(&key::per_bits("forward_image", "tff_streaming", bits), b.last_ns_per_iter);
        });
        let mux = ScenarioSpec::old_sc(bits).stochastic_conv(&conv).expect("engine");
        assert!(mux.uses_count_table(), "MUX engine at {bits}-bit must build the count table");
        group.bench_with_input(BenchmarkId::new("mux_lut", bits), &mux, |b, e| {
            b.iter(|| e.forward_image(black_box(&image)).expect("forward"));
            json.record(&key::per_bits("forward_image", "mux_lut", bits), b.last_ns_per_iter);
        });
    }
    let faulted = ScenarioSpec { fault: FAULTED, ..ScenarioSpec::this_work(FAULTED_BITS) };
    let engine = faulted.stochastic_conv(&conv).expect("engine");
    assert!(engine.uses_count_table(), "the faulted engine must build the count table");
    group.bench_with_input(BenchmarkId::new("tff_lut_faulted", FAULTED_BITS), &engine, |b, e| {
        b.iter(|| e.forward_image(black_box(&image)).expect("forward"));
        json.record(
            &key::per_bits("forward_image", "tff_lut_faulted", FAULTED_BITS),
            b.last_ns_per_iter,
        );
    });
    group.finish();

    // Dataset pass: per-image time over distinct images (MNIST when
    // `data/mnist` is present, synthetic digits otherwise — the keys name
    // the source).
    let (dataset, _, source) =
        load_or_synthesize(Path::new("data/mnist"), DATASET_IMAGES, 1, 20170327).expect("dataset");
    let images: Vec<&[f32]> = (0..dataset.len()).map(|i| dataset.item(i)).collect();
    let mut group = criterion.benchmark_group("forward_image");
    group.sample_size(10).measurement_time(Duration::from_secs(2));
    for bits in PRECISIONS {
        let engine = ScenarioSpec::this_work(bits).stochastic_conv(&conv).expect("engine");
        let metric = format!("dataset_{source}");
        group.bench_with_input(BenchmarkId::new(&metric, bits), &engine, |b, e| {
            b.iter(|| {
                for image in &images {
                    black_box(e.forward_image(black_box(image)).expect("forward"));
                }
            });
            json.record(
                &key::per_bits("forward_image", &metric, bits),
                b.last_ns_per_iter / images.len() as f64,
            );
        });
    }
    group.finish();

    for bits in PRECISIONS {
        let lut = json.get(&key::per_bits("forward_image", "tff_lut", bits));
        let streaming = json.get(&key::per_bits("forward_image", "tff_streaming", bits));
        if let (Some(lut), Some(streaming)) = (lut, streaming) {
            let speedup = streaming / lut;
            println!(
                "forward_image: {bits}-bit TFF count-table speedup {speedup:.1}x over streaming"
            );
        }
    }
    let faulted = json.get(&key::per_bits("forward_image", "tff_lut_faulted", FAULTED_BITS));
    let healthy = json.get(&key::per_bits("forward_image", "tff_lut", FAULTED_BITS));
    if let (Some(faulted), Some(healthy)) = (faulted, healthy) {
        let cost = faulted / healthy;
        println!("forward_image: {FAULTED_BITS}-bit faulted head cost {cost:.2}x over tff_lut");
    }
    // --- Observability: metrics-layer overhead and stage percentiles ---
    // Re-time the same per-image loop with recording forced off and on in
    // alternating rounds: the measured cost of full metrics collection
    // (median on/off ratio and its range), plus the per-precision
    // stage-latency percentiles of the forced-on loops.
    let quick = std::env::args().any(|a| a == "--test" || a == "--quick")
        || std::env::var_os("SCNN_BENCH_QUICK").is_some_and(|v| v != "0");
    let (iters, rounds) = if quick { (3, 3) } else { (50, 7) };
    let was_metrics = scnn_obs::metrics_enabled();
    for bits in PRECISIONS {
        let engine = ScenarioSpec::this_work(bits).stochastic_conv(&conv).expect("engine");
        let ratios = metrics_overhead(rounds, || time_forwards(&engine, &image, iters));
        scnn_obs::flush_thread_spans();
        for (metric, value) in scnn_obs::registry().snapshot() {
            if metric.starts_with("stage/") {
                println!("forward_image: {bits}-bit {metric} {value}");
            }
        }
        let (min, median, max) = (ratios[0], ratios[rounds / 2], ratios[rounds - 1]);
        println!(
            "forward_image: {bits}-bit metrics-on overhead {median:.3}x over forced-off \
             (min {min:.3}x, max {max:.3}x, {rounds} rounds)"
        );
    }
    scnn_obs::force(was_metrics);

    json.write(&path).expect("write BENCH.json");
    println!("timings recorded in {}", path.display());
}
