//! Criterion bench for the end-to-end engines: first-layer forward time
//! per image as a function of precision.
//!
//! This is the run-time counterpart of the paper's §VI observation that
//! stochastic run time grows as `2^b` (one simulated stream bit per clock)
//! while the binary engine's work is precision-independent at the
//! algorithmic level.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use scnn_bitstream::Precision;
use scnn_core::{BinaryConvLayer, FirstLayer, ScOptions, StochasticConvLayer};
use scnn_nn::data::synthetic;
use scnn_nn::layers::{Conv2d, Padding};
use std::hint::black_box;
use std::time::Duration;

fn bench_first_layers(c: &mut Criterion) {
    let conv = Conv2d::new(1, 32, 5, Padding::Same, 42).expect("conv");
    let image = synthetic::single(7, 1);
    let mut group = c.benchmark_group("pipeline/first_layer_forward");
    group.sample_size(10).measurement_time(Duration::from_secs(3));
    for bits in [4u32, 6, 8] {
        let precision = Precision::new(bits).expect("valid");
        let tff = StochasticConvLayer::from_conv(&conv, precision, ScOptions::this_work())
            .expect("engine");
        group.bench_with_input(BenchmarkId::new("this_work", bits), &tff, |b, engine| {
            b.iter(|| engine.forward_image(black_box(&image)).expect("forward"))
        });
        let binary = BinaryConvLayer::from_conv(&conv, precision, 0.0).expect("engine");
        group.bench_with_input(BenchmarkId::new("binary", bits), &binary, |b, engine| {
            b.iter(|| engine.forward_image(black_box(&image)).expect("forward"))
        });
    }
    // The old-SC MUX engine (route-masked count sum); one point suffices.
    let old = StochasticConvLayer::from_conv(
        &conv,
        Precision::new(6).expect("valid"),
        ScOptions::old_sc(),
    )
    .expect("engine");
    group.bench_function("old_sc/6", |b| {
        b.iter(|| old.forward_image(black_box(&image)).expect("forward"))
    });
    group.finish();
}

criterion_group!(benches, bench_first_layers);
criterion_main!(benches);
