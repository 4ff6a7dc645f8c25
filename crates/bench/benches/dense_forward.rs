//! Criterion bench for the stochastic dense layer's two unipolar
//! execution paths: the shared count-domain table (`forward`, via
//! `scnn_core::counts`) versus the packed bit-level streaming reference
//! (`forward_streaming`), across precisions.
//!
//! Like `forward_image`, the measured times are written to `BENCH.json`
//! for the CI `bench-timings-v2` artifact, and the speedup, a ratio of
//! two recorded timings, is printed. The acceptance bar for the dense
//! count-domain port is a ≥ 5× speedup at 8-bit precision.
//!
//! An observability section re-runs the count-domain forward with
//! metrics recording forced off and on in alternating rounds, and prints
//! the dense stage-latency percentiles and the median on-vs-off overhead
//! with its range.
//!
//! ```text
//! cargo bench -p scnn-bench --bench dense_forward            # measured
//! SCNN_BENCH_QUICK=1 cargo bench -p scnn-bench --bench dense_forward
//! ```

use criterion::{BenchmarkId, Criterion};
use scnn_bench::report::{key, metrics_overhead, BenchJson};
use scnn_core::ScenarioSpec;
use scnn_nn::layers::Dense;
use std::hint::black_box;
use std::time::Duration;

const PRECISIONS: [u32; 3] = [4, 6, 8];

fn main() {
    scnn_bench::setup::obs_env_init();
    // The ablation_fully_stochastic layer-1 shape: 784 pixels → 48 neurons.
    let dense = Dense::new(784, 48, 11);
    let input: Vec<f32> = (0..784).map(|i| (i % 251) as f32 / 250.0).collect();
    let path = BenchJson::default_path();
    let mut json = BenchJson::load(&path);

    let mut criterion = Criterion::default();
    let mut group = criterion.benchmark_group("dense_forward");
    group.sample_size(10).measurement_time(Duration::from_secs(2));
    for bits in PRECISIONS {
        let layer = ScenarioSpec::this_work(bits).dense_layer(&dense).expect("engine");
        assert!(layer.uses_count_table(), "dense engine at {bits}-bit must build the count table");
        group.bench_with_input(BenchmarkId::new("unipolar_lut", bits), &layer, |b, l| {
            b.iter(|| l.forward(black_box(&input)).expect("forward"));
            json.record(&key::per_bits("dense_forward", "unipolar_lut", bits), b.last_ns_per_iter);
        });
        group.bench_with_input(BenchmarkId::new("unipolar_streaming", bits), &layer, |b, l| {
            b.iter(|| l.forward_streaming(black_box(&input)).expect("forward"));
            json.record(
                &key::per_bits("dense_forward", "unipolar_streaming", bits),
                b.last_ns_per_iter,
            );
        });
    }
    group.finish();

    for bits in PRECISIONS {
        let lut = json.get(&key::per_bits("dense_forward", "unipolar_lut", bits));
        let streaming = json.get(&key::per_bits("dense_forward", "unipolar_streaming", bits));
        if let (Some(lut), Some(streaming)) = (lut, streaming) {
            let speedup = streaming / lut;
            println!("dense_forward: {bits}-bit count-table speedup {speedup:.1}x over streaming");
        }
    }
    // --- Observability: dense stage percentiles + metrics overhead ---
    // Re-run the count-domain forward with recording forced off and on in
    // alternating rounds: the median on/off ratio and its range, plus the
    // dense stage-latency percentiles of the forced-on loops.
    let quick = std::env::args().any(|a| a == "--test" || a == "--quick")
        || std::env::var_os("SCNN_BENCH_QUICK").is_some_and(|v| v != "0");
    let (iters, rounds) = if quick { (3, 3) } else { (50, 7) };
    let was_metrics = scnn_obs::metrics_enabled();
    for bits in PRECISIONS {
        let layer = ScenarioSpec::this_work(bits).dense_layer(&dense).expect("engine");
        let time_rows = || {
            let start = std::time::Instant::now();
            for _ in 0..iters {
                black_box(layer.forward(black_box(&input)).expect("forward"));
            }
            start.elapsed().as_nanos() as f64 / iters as f64
        };
        let ratios = metrics_overhead(rounds, time_rows);
        scnn_obs::flush_thread_spans();
        for (metric, value) in scnn_obs::registry().snapshot() {
            if metric.starts_with("stage/") {
                println!("dense_forward: {bits}-bit {metric} {value}");
            }
        }
        let (min, median, max) = (ratios[0], ratios[rounds / 2], ratios[rounds - 1]);
        println!(
            "dense_forward: {bits}-bit metrics-on overhead {median:.3}x over forced-off \
             (min {min:.3}x, max {max:.3}x, {rounds} rounds)"
        );
    }
    scnn_obs::force(was_metrics);

    json.write(&path).expect("write BENCH.json");
    println!("timings recorded in {}", path.display());
}
