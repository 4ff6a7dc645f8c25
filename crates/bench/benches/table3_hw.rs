//! Criterion bench behind Table 3's hardware half: the analytical model
//! evaluation and the trace-driven activity measurement.

use criterion::{criterion_group, criterion_main, Criterion};
use scnn_bitstream::Precision;
use scnn_core::ScenarioSpec;
use scnn_hw::activity::{measure_binary_activity, measure_sc_activity, BinaryActivity, ScActivity};
use scnn_hw::table3::{compute, paper_precisions};
use scnn_hw::CellLibrary;
use scnn_nn::data::synthetic;
use scnn_nn::layers::{Conv2d, Padding};
use std::hint::black_box;
use std::time::Duration;

fn bench_model(c: &mut Criterion) {
    let lib = CellLibrary::tsmc65_typical();
    let precisions = paper_precisions();
    let sc = ScActivity::default();
    let bin = BinaryActivity::default();
    c.bench_function("table3/analytical_model_7_precisions", |b| {
        b.iter(|| compute(black_box(&precisions), &sc, &bin, &lib))
    });
}

fn bench_activity(c: &mut Criterion) {
    let ds = synthetic::generate(2, 1);
    let conv = Conv2d::new(1, 8, 5, Padding::Same, 42).expect("conv");
    let engine = ScenarioSpec::this_work(6).stochastic_conv(&conv).expect("engine");
    let mut group = c.benchmark_group("table3/activity_measurement");
    group.sample_size(10).measurement_time(Duration::from_secs(3));
    group.bench_function("sc_trace_2img_8win", |b| {
        b.iter(|| measure_sc_activity(black_box(&engine), &ds, 2, 8).expect("activity"))
    });
    group.bench_function("binary_trace_2img", |b| {
        b.iter(|| measure_binary_activity(black_box(&ds), Precision::new(8).expect("valid"), 2))
    });
    group.finish();
}

criterion_group!(benches, bench_model, bench_activity);
criterion_main!(benches);
