//! Criterion bench for the stochastic first layer's two TFF execution
//! paths: the level-indexed AND-count table (the default `forward_image`)
//! versus the packed bit-level streaming simulation
//! (`forward_image_streaming`), across precisions. The MUX engine's count
//! path is timed on the same image (`forward_image/mux_lut/<bits>`).
//!
//! This is the repo's perf-trajectory anchor: the measured times and the
//! derived LUT-vs-streaming speedups are written to `BENCH.json`
//! (`scnn_bench::report::BenchJson`), which CI uploads as an artifact so
//! future PRs can diff them. The acceptance bar for the count-table fast
//! path is a ≥ 10× speedup at 8-bit precision.
//!
//! A dataset pass additionally measures the per-image forward time over
//! a set of distinct images (`forward_image/dataset_<source>/<bits>`), so
//! the count-domain path is timed on fresh inputs rather than one image
//! repeated.
//!
//! An observability section measures the metrics layer itself: the
//! metrics-off run is compared against the baseline the loaded
//! `BENCH.json` carried in (`forward_image/metrics_off_overhead_x` — the
//! disabled toggles must cost nothing), the same loop is re-timed with
//! recording forced on (`metrics_on_overhead_x`), and per-precision
//! stage-latency percentiles land under `obs/stage/.../{bits}`.
//!
//! ```text
//! cargo bench -p scnn-bench --bench forward_image            # measured
//! SCNN_BENCH_QUICK=1 cargo bench -p scnn-bench --bench forward_image
//! ```

use criterion::{BenchmarkId, Criterion};
use scnn_bench::report::{key, BenchJson};
use scnn_core::{FirstLayer, ScenarioSpec, StochasticConvLayer};
use scnn_nn::data::{load_or_synthesize, synthetic};
use scnn_nn::layers::{Conv2d, Padding};
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

const DATASET_IMAGES: usize = 64;

const PRECISIONS: [u32; 3] = [4, 6, 8];

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
    // The metrics-off overhead ratio compares this run against whatever
    // baseline the loaded record carries, so the prior values must be
    // captured before the timing loops overwrite them.
    let prior_lut: Vec<(u32, Option<f64>)> = PRECISIONS
        .iter()
        .map(|&bits| (bits, json.get(&key::per_bits("forward_image", "tff_lut", bits))))
        .collect();

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
            json.record(&key::per_bits("forward_image", "speedup_tff_lut_x", bits), speedup);
            println!(
                "forward_image: {bits}-bit TFF count-table speedup {speedup:.1}x over streaming"
            );
        }
    }
    // --- Observability: metrics-layer overhead and stage percentiles ---
    // The timing loops above ran with the toggles in their environment
    // state (off unless the operator set SCNN_METRICS), so this run's
    // tff_lut timings against the loaded record's prior values measure
    // what the disabled instrumentation costs. Skipped when the loaded
    // record had no prior entry to compare against.
    let mut worst = f64::NEG_INFINITY;
    for (bits, prior) in prior_lut {
        let now = json.get(&key::per_bits("forward_image", "tff_lut", bits));
        let (Some(prior), Some(now)) = (prior, now) else { continue };
        if prior <= 0.0 {
            continue;
        }
        let ratio = now / prior;
        json.record(&key::per_bits("forward_image", "metrics_off_overhead_x", bits), ratio);
        worst = worst.max(ratio);
    }
    if worst.is_finite() {
        json.record("forward_image/metrics_off_overhead_x", worst);
        println!(
            "forward_image: metrics-off time vs prior recorded baseline: {worst:.3}x \
             (worst precision)"
        );
    }

    // Re-time the same per-image loop with recording forced on: the
    // measured cost of full metrics collection, plus the per-precision
    // stage-latency percentiles recorded under the obs/ namespace.
    let quick = std::env::args().any(|a| a == "--test" || a == "--quick")
        || std::env::var_os("SCNN_BENCH_QUICK").is_some_and(|v| v != "0");
    let iters = if quick { 3 } else { 50 };
    let (was_metrics, was_trace) = (scnn_obs::metrics_enabled(), scnn_obs::trace_enabled());
    for bits in PRECISIONS {
        let engine = ScenarioSpec::this_work(bits).stochastic_conv(&conv).expect("engine");
        scnn_obs::force(false, false);
        // Untimed warmup so the off-loop doesn't absorb cold-start costs
        // (page faults, frequency ramp) that would skew the ratio.
        let _ = time_forwards(&engine, &image, iters.min(5));
        let off_ns = time_forwards(&engine, &image, iters);
        scnn_obs::force(true, was_trace);
        scnn_obs::registry().reset();
        let on_ns = time_forwards(&engine, &image, iters);
        scnn_obs::flush_thread_spans();
        for (metric, value) in scnn_obs::registry().snapshot() {
            if metric.starts_with("stage/") {
                json.record(&key::obs_bits(&metric, bits), value);
            }
        }
        if off_ns > 0.0 {
            let overhead = on_ns / off_ns;
            json.record(&key::per_bits("forward_image", "metrics_on_overhead_x", bits), overhead);
            println!(
                "forward_image: {bits}-bit metrics-on overhead {overhead:.3}x over forced-off"
            );
        }
    }
    scnn_obs::force(was_metrics, was_trace);

    json.write(&path).expect("write BENCH.json");
    println!("timings recorded in {}", path.display());
}
