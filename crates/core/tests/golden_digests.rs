//! Golden output digests: the bits that every performance change of the
//! binary tail must leave alone.
//!
//! For each of the benchmark's four engine specs, three FNV-1a digests
//! over `f32::to_bits` pin
//!
//! * (a) the pooled head features of a small fixed image set,
//! * (b) the tail's logits on those features, and
//! * (c) the tail's parameters after one `retrain` epoch.
//!
//! (c) trains batches of 8 images, one image per gradient shard. One more
//! (c) row, [`MULTI_IMAGE_C`], trains batches of 32, four images per
//! shard, so that conv2's weight gradient adds several per-image products
//! into one `dw`. The float and 4-bit fixed-point heads get (a) only
//! ([`head_cases`]).
//!
//! The images and every parameter come from an integer hash, not from
//! `synthetic::generate` (which calls `sin_cos`) or the layers' own
//! initializers (`ln`, `cos`), and no base training runs (it calls `exp`
//! and `ln`). So (a) and (b) call no libm function and must hold on any
//! IEEE-754 target, under any `target-cpu`: Rust reorders no float
//! operation, and the code fuses a multiply and an add only where the
//! product is exact (conv2's ternary input, where the target has FMA), so
//! the fused and unfused sums round alike. Two exceptions are gated to
//! x86_64 Linux, where the constants were recorded with glibc:
//!
//! * the faulted engine samples its bit-error gaps through `ln`, so its
//!   (a) and (b) are;
//! * (c) trains through the softmax loss (`exp`, `ln`), so it is too.
//!
//! A change that reorders float sums on purpose updates the constants and
//! says which digest moved and why.

use scnn_core::{retrain, FaultModel, FaultSite, RetrainConfig, ScenarioSpec};
use scnn_nn::data::Dataset;
use scnn_nn::layers::Conv2d;
use scnn_nn::lenet::{lenet5, split, LenetConfig};
use scnn_nn::{Network, Tensor};

/// Whether glibc's `exp` and `ln` are the ones the constants assume.
const GLIBC_X86_64: bool = cfg!(all(target_arch = "x86_64", target_os = "linux"));

/// The four benchmark specs and their digests `[(a), (b), (c)]`.
fn cases() -> [(&'static str, ScenarioSpec, [u64; 3]); 4] {
    let faulted = ScenarioSpec {
        fault: FaultModel::Compound {
            ber: 1e-2,
            site: FaultSite::AdderNode { node: 3 },
            value: false,
        },
        ..ScenarioSpec::this_work(6)
    };
    [
        (
            "this_work(8)",
            ScenarioSpec::this_work(8),
            [0x55a4_24c8_e094_07a5, 0xf2d0_0804_3d74_415c, 0x6300_e9dd_e6f0_15ff],
        ),
        (
            "old_sc(8)",
            ScenarioSpec::old_sc(8),
            [0x9c3e_32b8_3887_79a5, 0xb234_4dd4_5b01_0b7b, 0xc041_fffa_a5c7_6bf7],
        ),
        (
            "this_work(6) faulted",
            faulted,
            [0x6564_7d2e_bc61_ffa5, 0x5f5c_d8ad_c3a4_bb7d, 0x309b_c523_308b_e91f],
        ),
        (
            "this_work(4)",
            ScenarioSpec::this_work(4),
            [0x5d04_e265_a9fd_8ea5, 0x374e_7d2d_b963_e950, 0x8548_e069_aa11_5a95],
        ),
    ]
}

/// Digest (a) of the two non-stochastic heads: the float reference and
/// the 4-bit fixed-point baseline. The tail code behind (b) and (c) is
/// already pinned by [`cases`].
fn head_cases() -> [(&'static str, ScenarioSpec, u64); 2] {
    [
        ("float", ScenarioSpec::float(), 0x44e3_3aa7_da38_9525),
        ("binary(4)", ScenarioSpec::binary(4), 0x9519_60e9_67e0_dca5),
    ]
}

/// Digest (c) for `this_work(4)` after one epoch of 32-image batches over
/// 64 training images: four images per gradient shard.
const MULTI_IMAGE_C: u64 = 0x2ebd_e5df_bd12_700b;

/// 64-bit FNV-1a over the little-endian bytes of each value's bits.
fn fnv1a(values: &[f32]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in values.iter().flat_map(|v| v.to_bits().to_le_bytes()) {
        hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

/// A SplitMix64 step: the integer hash behind every image and parameter.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A value in `[-1, 1)` on a 1/1024 grid.
fn unit(seed: u64) -> f32 {
    (mix(seed) % 2048) as f32 / 1024.0 - 1.0
}

/// `count` 28×28 images in `[0, 1]`: a label-dependent bright bar over
/// hashed background noise.
fn images(count: usize, seed: u64) -> Dataset {
    let mut data = Vec::with_capacity(count * 784);
    let labels: Vec<u8> = (0..count).map(|i| (mix(seed ^ i as u64) % 10) as u8).collect();
    for (i, &label) in labels.iter().enumerate() {
        let bar = 4 + 2 * usize::from(label);
        for p in 0..784usize {
            let (y, x) = (p / 28, p % 28);
            let on = if label % 2 == 0 { x.abs_diff(bar) < 2 } else { y.abs_diff(bar) < 2 };
            let noise = (unit(seed.wrapping_mul(31) ^ (i * 784 + p) as u64) + 1.0) / 8.0;
            data.push(if on { 1.0 - noise } else { noise });
        }
    }
    Dataset::new(data, &[1, 28, 28], labels).expect("784 values per image")
}

/// The seeded base: LeNet-5 with every parameter drawn from [`unit`],
/// scaled by `sqrt(3 / fan_in)` (a uniform He-style range), split into
/// head and tail.
fn seeded_base() -> (Network, Network) {
    let mut net = lenet5(&LenetConfig::default()).expect("default LeNet-5");
    let mut tensor = 0u64;
    net.visit_all_params(&mut |p, _| {
        tensor += 1;
        let fan_in = match *p.shape() {
            [_, fan_in] => fan_in,
            _ => 64,
        };
        let scale = (3.0 / fan_in as f32).sqrt();
        for (j, v) in p.data_mut().iter_mut().enumerate() {
            *v = scale * unit(tensor << 32 ^ j as u64);
        }
    });
    split(net)
}

/// Digests (a) and (b) for one spec.
fn forward_digests(spec: &ScenarioSpec, conv1: &Conv2d, tail: &Network, set: &Dataset) -> [u64; 2] {
    let mut hybrid = spec.hybrid(conv1, tail.clone()).expect("spec compiles");
    let features = hybrid.extract_features(set).expect("features");
    let (x, _) = features.batch(&(0..features.len()).collect::<Vec<_>>()).expect("batch");
    let logits: Tensor = hybrid.tail_mut().forward(&x, false).expect("tail forward");
    [fnv1a(x.data()), fnv1a(logits.data())]
}

/// Digest (c) for one spec: one retraining epoch from the seeded tail on
/// `train` in batches of `batch_size`.
fn retrain_digest(
    spec: &ScenarioSpec,
    conv1: &Conv2d,
    tail: &Network,
    train: &Dataset,
    batch_size: usize,
) -> u64 {
    let config = RetrainConfig { epochs: 1, batch_size, ..RetrainConfig::default() };
    let engine = spec.first_layer(conv1).expect("spec compiles");
    let (mut hybrid, _) =
        retrain(engine, tail.clone(), train, &images(8, 12), &config).expect("retrain");
    let mut bits = Vec::new();
    hybrid.tail_mut().visit_all_params(&mut |p, _| bits.extend_from_slice(p.data()));
    fnv1a(&bits)
}

#[test]
fn golden_output_digests() {
    let (head, tail) = seeded_base();
    let conv1 = head.layer(0).and_then(|l| l.as_any().downcast_ref::<Conv2d>()).expect("conv1");
    let set = images(12, 7);
    let mut mismatches = Vec::new();
    for (name, spec, [a, b, c]) in cases() {
        if !spec.fault.is_none() && !GLIBC_X86_64 {
            continue;
        }
        let [got_a, got_b] = forward_digests(&spec, conv1, &tail, &set);
        let got_c =
            if GLIBC_X86_64 { retrain_digest(&spec, conv1, &tail, &images(24, 11), 8) } else { c };
        for (what, got, want) in [("(a)", got_a, a), ("(b)", got_b, b), ("(c)", got_c, c)] {
            if got != want {
                mismatches.push(format!("{name} {what}: {got:#018x}, expected {want:#018x}"));
            }
        }
    }
    for (name, spec, a) in head_cases() {
        let [got, _] = forward_digests(&spec, conv1, &tail, &set);
        if got != a {
            mismatches.push(format!("{name} (a): {got:#018x}, expected {a:#018x}"));
        }
    }
    if GLIBC_X86_64 {
        let got = retrain_digest(&ScenarioSpec::this_work(4), conv1, &tail, &images(64, 13), 32);
        if got != MULTI_IMAGE_C {
            mismatches.push(format!(
                "this_work(4) (c), 4 images per shard: {got:#018x}, expected {MULTI_IMAGE_C:#018x}"
            ));
        }
    }
    assert!(mismatches.is_empty(), "digests moved:\n{}", mismatches.join("\n"));
}
