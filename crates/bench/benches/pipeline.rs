//! Criterion bench for the end-to-end engines: first-layer forward time
//! per image as a function of precision, and the binary tail's matrix
//! products.
//!
//! The first group is the run-time counterpart of the paper's §VI
//! observation that stochastic run time grows as `2^b` (one simulated
//! stream bit per clock) while the binary engine's work is
//! precision-independent at the algorithmic level.
//!
//! The `tail` group times the LeNet tail layers that run through
//! `scnn_nn::matmul_into`: conv2 forward, backward and weight gradients
//! alone (what the tail's first layer costs per training step) at batch 1
//! and 8, and the first dense layer's forward at batch 1 (a serial frame)
//! and 8 and its backward (weight and input gradients, the largest
//! training stage after conv2) at the same batch sizes, and one whole
//! training step (`train_batch`: a 32-item batch through the LeNet-5 tail,
//! its sharded forward and backward, the in-order gradient reduce and the
//! Adam update, at the default thread count).
//! Its times go to `BENCH.json` as `tail/<pass>/b<batch>`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use scnn_bench::report::{key, BenchJson};
use scnn_bitstream::Precision;
use scnn_core::{BinaryConvLayer, FirstLayer, ScenarioSpec};
use scnn_nn::data::{synthetic, Dataset};
use scnn_nn::layers::{Conv2d, Dense, Layer, Padding};
use scnn_nn::lenet::{lenet5_tail, LenetConfig};
use scnn_nn::optim::Adam;
use scnn_nn::parallel::thread_count;
use scnn_nn::Tensor;
use std::hint::black_box;
use std::time::Duration;

fn bench_first_layers(c: &mut Criterion) {
    let conv = Conv2d::new(1, 32, 5, Padding::Same, 42).expect("conv");
    let image = synthetic::single(7, 1);
    let mut group = c.benchmark_group("pipeline/first_layer_forward");
    group.sample_size(10).measurement_time(Duration::from_secs(3));
    for bits in [4u32, 6, 8] {
        let precision = Precision::new(bits).expect("valid");
        let tff = ScenarioSpec::this_work(bits).stochastic_conv(&conv).expect("engine");
        group.bench_with_input(BenchmarkId::new("this_work", bits), &tff, |b, engine| {
            b.iter(|| engine.forward_image(black_box(&image)).expect("forward"))
        });
        let binary = BinaryConvLayer::from_conv(&conv, precision, 0.0).expect("engine");
        group.bench_with_input(BenchmarkId::new("binary", bits), &binary, |b, engine| {
            b.iter(|| engine.forward_image(black_box(&image)).expect("forward"))
        });
    }
    // The old-SC MUX engine (route-masked count sum); one point suffices.
    let old = ScenarioSpec::old_sc(6).stochastic_conv(&conv).expect("engine");
    group.bench_function("old_sc/6", |b| {
        b.iter(|| old.forward_image(black_box(&image)).expect("forward"))
    });
    group.finish();
}

/// A deterministic stand-in for tail activations: one entry in about
/// `keep_one_in` (chosen by a hash of its index) is non-zero, `scale`
/// times a value in `[1, 2)`, and `signed` negates about half of them.
fn activations(shape: &[usize], keep_one_in: u64, scale: f32, signed: bool) -> Tensor {
    let len: usize = shape.iter().product();
    let data = (0..len as u64)
        .map(|i| {
            let h = i.wrapping_add(1).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32;
            let v = scale * (1.0 + (h >> 8) as f32 / (1u64 << 24) as f32);
            if h % keep_one_in != 0 {
                0.0
            } else if signed && h & 16 == 0 {
                -v
            } else {
                v
            }
        })
        .collect();
    Tensor::from_vec(data, shape).expect("matching length")
}

fn bench_tail(c: &mut Criterion) {
    let path = BenchJson::default_path();
    let mut json = BenchJson::load(&path);
    let mut group = c.benchmark_group("tail");
    group.sample_size(10).measurement_time(Duration::from_secs(2));
    for batch in [1usize, 8] {
        // conv2 of the LeNet tail: 32 → 64 channels, 5×5, on 14×14 maps.
        let mut conv = Conv2d::new(32, 64, 5, Padding::Valid, 42).expect("conv");
        let x = activations(&[batch, 32, 14, 14], 1, 1.0, true).map(f32::signum);
        group.bench_with_input(BenchmarkId::new("conv2_forward", batch), &x, |b, x| {
            b.iter(|| conv.forward(black_box(x), false).expect("forward"));
            json.record(&key::per_batch("tail", "conv2_forward", batch), b.last_ns_per_iter);
        });
        // Max pooling passes back one gradient in four.
        conv.forward(&x, true).expect("forward");
        let grad = activations(&[batch, 64, 10, 10], 4, 0.01, true);
        group.bench_with_input(BenchmarkId::new("conv2_backward", batch), &grad, |b, g| {
            b.iter(|| conv.backward(black_box(g)).expect("backward"));
            json.record(&key::per_batch("tail", "conv2_backward", batch), b.last_ns_per_iter);
        });
        // What the tail's first layer costs per training step: no dinput.
        group.bench_with_input(BenchmarkId::new("conv2_weight_grads", batch), &grad, |b, g| {
            b.iter(|| conv.weight_grads(black_box(g)).expect("weight grads"));
            json.record(&key::per_batch("tail", "conv2_weight_grads", batch), b.last_ns_per_iter);
        });
        let mut dense = Dense::new(1600, 256, 7);
        let x = activations(&[batch, 1600], 1, 0.5, false);
        group.bench_with_input(BenchmarkId::new("dense_forward", batch), &x, |b, x| {
            b.iter(|| dense.forward(black_box(x), false).expect("forward"));
            json.record(&key::per_batch("tail", "dense_forward", batch), b.last_ns_per_iter);
        });
        // The ReLU after this layer passes back about half its gradients.
        dense.forward(&x, true).expect("forward");
        let grad = activations(&[batch, 256], 2, 0.01, true);
        group.bench_with_input(BenchmarkId::new("dense_backward", batch), &grad, |b, g| {
            b.iter(|| dense.backward(black_box(g)).expect("backward"));
            json.record(&key::per_batch("tail", "dense_backward", batch), b.last_ns_per_iter);
        });
    }
    // One retraining step: a 32-item batch of pooled head features through
    // the whole tail, sharded over the default worker count, then Adam.
    let batch = 32;
    let x = activations(&[batch, 32, 14, 14], 1, 1.0, true).map(f32::signum);
    let labels = (0..batch as u8).map(|i| i % 10).collect();
    let features = Dataset::new(x.into_vec(), &[32, 14, 14], labels).expect("features");
    let mut tail = lenet5_tail(&LenetConfig::default()).expect("tail");
    let mut opt = Adam::new(5e-4);
    group.bench_with_input(BenchmarkId::new("train_batch", batch), &features, |b, ds| {
        b.iter(|| {
            tail.train_epoch_threads(black_box(ds), batch, &mut opt, 7, thread_count())
                .expect("step")
        });
        json.record(&key::per_batch("tail", "train_batch", batch), b.last_ns_per_iter);
    });
    group.finish();
    json.write(&path).expect("write BENCH.json");
}

criterion_group!(benches, bench_first_layers, bench_tail);
criterion_main!(benches);
