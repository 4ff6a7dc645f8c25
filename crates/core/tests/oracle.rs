//! The differential oracle harness: every count-domain fast path answers
//! to its bit-level streaming reference.
//!
//! One table of [`ScenarioSpec`] cases ([`cases`]) spans the engine space:
//! head (float, binary and stochastic conv, dense unipolar and ternary),
//! adder, precision, S0 policy, SNG sources, fault model and seed. Conv
//! rows use 4 kernels, except the production-width rows at the
//! benchmarked 32 and a few at 12 and 40, whose lanes fill no whole
//! number of the fold's 64-lane blocks. One check function per head kind
//! runs over it:
//!
//! * every case: conv outputs are ternary and every output is correctly
//!   sized, two engines built from the same spec give identical bytes, and
//!   the count table is live exactly for streams of at most 14 bits (12-
//!   and 15-bit rows check only that path selection, except one 15-bit
//!   bit-error row that forwards one image on the streaming path);
//! * every stochastic case, faulted or not: the count-domain forward at
//!   image index 0 equals the streaming forward bit for bit (dense:
//!   `forward` against `forward_streaming`), since both paths flip the
//!   bits one sampler draws from `(seed, image_index, pixel)`;
//! * bit-error cases: the realization is a function of the image index,
//!   and a zero rate gives the fault-free bytes;
//! * the thread-axis rows: features and evaluations are byte-identical at
//!   `SCNN_THREADS` = 1, 2, 4 and 8.
//!
//! Tests that change `SCNN_THREADS` or the global metrics toggle hold
//! [`ENV_LOCK`] for writing; every other test holds it for reading, so the
//! engine checks run concurrently but never beside such a change.

use scnn_core::{
    AdderKind, DenseInput, FaultModel, FaultSite, FirstLayer, HeadKind, ScenarioSpec, SourceKind,
};
use scnn_nn::data::{synthetic, Dataset};
use scnn_nn::layers::{Conv2d, Dense, Flatten, Padding};
use scnn_nn::lenet::{lenet5_tail, LenetConfig};
use scnn_nn::parallel::{par_map_range, par_map_range_threads, THREADS_ENV};
use scnn_nn::Network;
use scnn_sim::S0Policy;
use std::collections::BTreeMap;
use std::sync::{PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Serializes `SCNN_THREADS` and metrics-toggle changes against every
/// other test in this binary.
static ENV_LOCK: RwLock<()> = RwLock::new(());

fn shared_env() -> RwLockReadGuard<'static, ()> {
    ENV_LOCK.read().unwrap_or_else(PoisonError::into_inner)
}

fn exclusive_env() -> RwLockWriteGuard<'static, ()> {
    ENV_LOCK.write().unwrap_or_else(PoisonError::into_inner)
}

/// Runs `f` with `SCNN_THREADS` set to `threads`; the caller holds
/// [`exclusive_env`].
fn with_threads<T>(threads: &str, f: impl FnOnce() -> T) -> T {
    std::env::set_var(THREADS_ENV, threads);
    let out = f();
    std::env::remove_var(THREADS_ENV);
    out
}

/// Kernels of most of the table's conv cases.
const KERNELS: usize = 4;
/// Kernels of the production-width rows: the benchmarked LeNet-5 first
/// layer, so a lane-width-specific loop is checked at the measured width.
const WIDE_KERNELS: usize = 32;
/// Kernel counts whose `2 · K` split-row lanes end in a partial 64-lane
/// fold block: inside the first block, and one block plus a partial one.
const PARTIAL_BLOCK_KERNELS: [usize; 2] = [12, 40];
const SEEDS: [u64; 3] = [1, 42, 977];
const POLICIES: [S0Policy; 3] = [S0Policy::AllZero, S0Policy::AllOne, S0Policy::Alternating];
/// (pixel, weight) sources of the full product: the paper's design and the
/// prior-work LFSR pair.
const SOURCES: [(SourceKind, SourceKind); 2] =
    [(SourceKind::Ramp, SourceKind::Sobol2), (SourceKind::Lfsr, SourceKind::Lfsr)];
const STUCK_SITES: [FaultSite; 5] = [
    FaultSite::LutTap { tap: 7 },
    FaultSite::LutTap { tap: 24 },
    FaultSite::AdderNode { node: 0 },
    FaultSite::AdderNode { node: 16 },
    FaultSite::AdderNode { node: 30 },
];
/// `(inputs, outputs)` of the dense cases.
const DENSE_SHAPES: [(usize, usize); 4] = [(1, 2), (16, 4), (25, 3), (39, 7)];
/// Widest forwarded precision; wider rows check path selection only.
const MAX_FORWARDED_BITS: u32 = 8;
/// Widest precision whose counts fit the 16-bit lanes.
const MAX_COUNT_BITS: u32 = 14;
/// Images (or dense input vectors) per forwarded case.
const IMAGES_PER_CASE: u64 = 2;

/// One row of the table.
#[derive(Debug, Clone, Copy)]
struct Case {
    spec: ScenarioSpec,
    /// `(inputs, outputs)` of a dense case; `None` compiles a first layer.
    dense: Option<(usize, usize)>,
    /// Kernels of a first-layer case's convolution (unused by dense rows).
    kernels: usize,
    /// Images (or dense input vectors) forwarded; 0 checks path selection
    /// only.
    images: u64,
    /// Whether the row also runs on the thread axis.
    threads: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FaultClass {
    FaultFree,
    StuckAt,
    BitError,
}

impl Case {
    fn conv(spec: ScenarioSpec) -> Self {
        let images = if spec.bits <= MAX_FORWARDED_BITS { IMAGES_PER_CASE } else { 0 };
        Self { spec, dense: None, kernels: KERNELS, images, threads: false }
    }

    /// A first-layer row at the production width.
    fn wide(spec: ScenarioSpec) -> Self {
        Self { kernels: WIDE_KERNELS, ..Self::conv(spec) }
    }

    fn class(&self) -> FaultClass {
        match self.spec.fault {
            FaultModel::None => FaultClass::FaultFree,
            FaultModel::StuckAt { .. } => FaultClass::StuckAt,
            FaultModel::BitError(_) | FaultModel::Compound { .. } => FaultClass::BitError,
        }
    }

    /// The image indices this case forwards; each also seeds its image.
    fn indices(&self) -> impl Iterator<Item = u64> {
        let base = self.spec.seed.wrapping_mul(31) + u64::from(self.spec.bits);
        (0..self.images).map(move |i| base + 5 * i)
    }
}

/// A stochastic spec from the given axes.
fn stochastic(
    adder: AdderKind,
    bits: u32,
    (pixel, weight): (SourceKind, SourceKind),
    policy: S0Policy,
    fault: FaultModel,
    seed: u64,
) -> ScenarioSpec {
    ScenarioSpec {
        adder,
        pixel_source: pixel,
        weight_source: weight,
        s0_policy: policy,
        fault,
        seed,
        ..ScenarioSpec::this_work(bits)
    }
}

/// The adder's Table 3 preset (`this_work` or `old_sc`) with a fault model.
fn preset(adder: AdderKind, bits: u32, fault: FaultModel) -> ScenarioSpec {
    let spec = match adder {
        AdderKind::Tff => ScenarioSpec::this_work(bits),
        AdderKind::Mux => ScenarioSpec::old_sc(bits),
    };
    ScenarioSpec { fault, ..spec }
}

/// The oracle table: a curated product of the axes, not the full cross.
fn cases() -> Vec<Case> {
    use AdderKind::{Mux, Tff};
    let mut cases = Vec::new();
    // Fault-free stochastic conv: both adders at 2–8 bits over both source
    // pairs and every seed. The S0 policy rotates with the seed, so every
    // (adder, bits, sources) cell sees all three.
    for adder in [Tff, Mux] {
        for (b, bits) in [2, 3, 4, 6, 8].into_iter().enumerate() {
            for sources in SOURCES {
                for (s, seed) in SEEDS.into_iter().enumerate() {
                    let policy = POLICIES[(b + s) % 3];
                    let spec = stochastic(adder, bits, sources, policy, FaultModel::None, seed);
                    cases.push(Case::conv(spec));
                }
            }
        }
    }
    // Every pixel × weight source pair on the TFF adder at one precision.
    let pixel_sources =
        [SourceKind::Ramp, SourceKind::VanDerCorput, SourceKind::Lfsr, SourceKind::Random];
    let weight_sources = [SourceKind::Sobol2, SourceKind::VanDerCorput, SourceKind::Lfsr];
    for (p, pixel) in pixel_sources.into_iter().enumerate() {
        for (w, weight) in weight_sources.into_iter().enumerate() {
            let policy = POLICIES[(p + w) % 3];
            cases.push(Case::conv(stochastic(
                Tff,
                5,
                (pixel, weight),
                policy,
                FaultModel::None,
                7,
            )));
        }
    }
    // The remaining sources, once each on each adder.
    for adder in [Tff, Mux] {
        for bits in [4, 8] {
            for sources in [
                (SourceKind::VanDerCorput, SourceKind::Random),
                (SourceKind::Random, SourceKind::VanDerCorput),
            ] {
                let spec =
                    stochastic(adder, bits, sources, S0Policy::Alternating, FaultModel::None, 7);
                cases.push(Case::conv(spec));
            }
        }
    }
    // Stuck-at on every named site at both values (TFF only).
    for (i, site) in STUCK_SITES.into_iter().enumerate() {
        for value in [false, true] {
            for (b, bits) in [4, 6, 8].into_iter().enumerate() {
                let fault = FaultModel::StuckAt { site, value };
                let sources = SOURCES[usize::from(value)];
                let policy = POLICIES[(i + b) % 3];
                cases.push(Case::conv(stochastic(Tff, bits, sources, policy, fault, SEEDS[b])));
            }
        }
    }
    // Bit errors: the zero rate, a 10% rate and one compound model.
    for adder in [Tff, Mux] {
        for bits in [4, 6] {
            cases.push(Case::conv(preset(adder, bits, FaultModel::BitError(0.0))));
        }
        cases.push(Case::conv(preset(adder, 6, FaultModel::BitError(0.1))));
    }
    let compound =
        FaultModel::Compound { ber: 0.05, site: FaultSite::LutTap { tap: 7 }, value: true };
    cases.push(Case::conv(preset(Tff, 6, compound)));
    // Path selection only: the count table ends at 14 bits, faulted or not.
    for adder in [Tff, Mux] {
        for bits in [12, 15] {
            cases.push(Case::conv(preset(adder, bits, FaultModel::None)));
        }
    }
    let root_stuck = FaultModel::StuckAt { site: FaultSite::AdderNode { node: 30 }, value: true };
    cases.push(Case::conv(preset(Tff, 15, root_stuck)));
    // Bit errors where only the streaming path runs: one image, so its
    // flip set must follow the index there too.
    cases.push(Case { images: 1, ..Case::conv(preset(Tff, 15, FaultModel::BitError(1e-2))) });
    // Production width: both adders fault-free at 8 bits, the faulted
    // frame benchmark's compound model at 6 bits, the MUX sum over the
    // same perturbed blocks, and a stuck AND line.
    let benchmarked =
        FaultModel::Compound { ber: 1e-2, site: FaultSite::AdderNode { node: 3 }, value: false };
    let stuck_line = FaultModel::StuckAt { site: FaultSite::LutTap { tap: 7 }, value: true };
    for spec in [
        preset(Tff, 8, FaultModel::None),
        preset(Mux, 8, FaultModel::None),
        preset(Tff, 6, benchmarked),
        preset(Mux, 6, FaultModel::BitError(1e-2)),
        preset(Tff, 6, stuck_line),
    ] {
        cases.push(Case::wide(spec));
    }
    // Production width, a stuck adder node at the bottom, the middle and
    // the root of the 25-tap fold, under each S0 policy.
    for (i, node) in [0, 24, 30].into_iter().enumerate() {
        for (p, policy) in POLICIES.into_iter().enumerate() {
            let fault = FaultModel::StuckAt {
                site: FaultSite::AdderNode { node },
                value: (i + p) % 2 == 0,
            };
            let spec = stochastic(Tff, 6, SOURCES[p % 2], policy, fault, SEEDS[i]);
            cases.push(Case::wide(spec));
        }
    }
    // Partial fold blocks: both adders fault-free.
    for (kernels, bits) in PARTIAL_BLOCK_KERNELS.into_iter().zip([6, 8]) {
        for adder in [Tff, Mux] {
            cases.push(Case { kernels, ..Case::conv(preset(adder, bits, FaultModel::None)) });
        }
    }
    // Float and binary heads: no streaming reference, but the same
    // every-case checks and index independence.
    for seed in SEEDS {
        cases.push(Case::conv(ScenarioSpec { seed, ..ScenarioSpec::float() }));
        for bits in [2, 4, 6, 8] {
            cases.push(Case::conv(ScenarioSpec { seed, ..ScenarioSpec::binary(bits) }));
        }
    }
    // Dense engines in both input modes; one shape checks path selection.
    for mode in [DenseInput::Unipolar, DenseInput::Ternary] {
        let dense =
            |bits, seed| ScenarioSpec { input_mode: mode, seed, ..ScenarioSpec::this_work(bits) };
        for shape in DENSE_SHAPES {
            for bits in [2, 4, 6, 8] {
                for seed in SEEDS {
                    cases.push(Case { dense: Some(shape), ..Case::conv(dense(bits, seed)) });
                }
            }
        }
        for bits in [12, 15] {
            let spec = dense(bits, SEEDS[0]);
            cases.push(Case { dense: Some(DENSE_SHAPES[1]), ..Case::conv(spec) });
        }
    }
    // The thread axis: both adders fault-free and under bit errors, one
    // stuck-at site, binary and float.
    for spec in [
        preset(Tff, 4, FaultModel::None),
        preset(Mux, 4, FaultModel::None),
        preset(Tff, 4, FaultModel::BitError(0.05)),
        preset(Mux, 4, FaultModel::BitError(0.05)),
        preset(Tff, 4, root_stuck),
        ScenarioSpec::binary(4),
        ScenarioSpec::float(),
    ] {
        cases.push(Case { threads: true, ..Case::conv(spec) });
    }
    cases
}

fn conv(seed: u64, kernels: usize) -> Conv2d {
    Conv2d::new(1, kernels, 5, Padding::Same, seed % 97 + 1).expect("valid conv")
}

/// A one-layer classifier over the pooled `[kernels, 14, 14]` features:
/// the tail's parallel evaluation path at a fraction of LeNet-5's cost.
fn light_tail(kernels: usize) -> Network {
    let mut tail = Network::new();
    tail.push(Flatten::new());
    tail.push(Dense::new(kernels * 14 * 14, 10, 5));
    tail
}

/// `len` deterministic values in `[0, 1]` (an LCG over `seed`).
fn values(len: usize, seed: u64) -> Vec<f32> {
    let mut state = seed | 1;
    (0..len)
        .map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 40) & 0xff) as f32 / 255.0
        })
        .collect()
}

fn image(seed: u64) -> Vec<f32> {
    values(28 * 28, seed ^ 0xABCD)
}

/// Asserts two outputs are byte-identical, naming the first difference.
#[track_caller]
fn assert_same(got: &[f32], want: &[f32], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    let diff = got.iter().zip(want).filter(|(a, b)| a.to_bits() != b.to_bits()).count();
    if let Some(at) = got.iter().zip(want).position(|(a, b)| a.to_bits() != b.to_bits()) {
        panic!("{what}: {diff} outputs differ, first at {at} ({} vs {})", got[at], want[at]);
    }
}

#[track_caller]
fn assert_ternary_and_sized(out: &[f32], case: &Case, what: &str) {
    assert_eq!(out.len(), case.kernels * 28 * 28, "{what}: size");
    assert!(out.iter().all(|&v| v == -1.0 || v == 0.0 || v == 1.0), "{what}: not ternary");
}

/// Whether any feature differs from `base`.
fn differs(out: &[f32], base: &[f32]) -> bool {
    out.iter().zip(base).any(|(a, b)| a.to_bits() != b.to_bits())
}

/// Runs every check of one first-layer row: the every-case checks, then
/// the streaming reference's and, under bit errors, the index checks.
fn check_first_layer(case: &Case) {
    let spec = case.spec;
    let conv = conv(spec.seed, case.kernels);
    let what = format!("{case:?}");
    if spec.head != HeadKind::Stochastic {
        // Float and binary heads: deterministic and index-independent.
        let (engine, twin) = (spec.first_layer(&conv).unwrap(), spec.first_layer(&conv).unwrap());
        for index in case.indices() {
            let img = image(index);
            let out = engine.forward_image(&img).unwrap();
            assert_ternary_and_sized(&out, case, &what);
            assert_same(&twin.forward_image_indexed(&img, index).unwrap(), &out, &what);
        }
        return;
    }
    let engine = spec.stochastic_conv(&conv).unwrap();
    assert_eq!(engine.uses_count_table(), spec.bits <= MAX_COUNT_BITS, "{what}: path");
    if case.images == 0 {
        return;
    }
    let twin = spec.stochastic_conv(&conv).unwrap();
    let ber = spec.fault.bit_error_rate();
    // A zero rate is the fault-free engine.
    let fault_free = matches!(spec.fault, FaultModel::BitError(_) if ber == 0.0)
        .then(|| ScenarioSpec { fault: FaultModel::None, ..spec }.stochastic_conv(&conv).unwrap());
    for (i, index) in case.indices().enumerate() {
        let img = image(index);
        let out = engine.forward_image_indexed(&img, index).unwrap();
        assert_ternary_and_sized(&out, case, &what);
        if i == 0 {
            assert_same(&twin.forward_image_indexed(&img, index).unwrap(), &out, &what);
        }
        // The streaming reference realizes image index 0.
        let at_zero =
            if ber > 0.0 { engine.forward_image_indexed(&img, 0).unwrap() } else { out.clone() };
        let streaming = engine.forward_image_streaming(&img).unwrap();
        assert_same(&at_zero, &streaming, &format!("{what}: count path vs streaming"));
        if ber > 0.0 {
            let again = engine.forward_image_indexed(&img, index).unwrap();
            assert_same(&again, &out, &format!("{what}: same index"));
            let other = engine.forward_image_indexed(&img, index + 1).unwrap();
            assert!(differs(&other, &out), "{what}: another index must draw other flips");
        }
        if let Some(clean) = &fault_free {
            let want = clean.forward_image(&img).unwrap();
            assert_same(&out, &want, &format!("{what}: zero rate vs fault-free"));
        }
    }
}

/// Runs every check of one dense row: sized, reproducible, on the count
/// path exactly for unipolar inputs up to 14 bits, and bit-exact with the
/// streaming reference.
fn check_dense(case: &Case) {
    let (inputs, outputs) = case.dense.expect("a dense row");
    let spec = case.spec;
    let what = format!("{case:?}");
    let dense = Dense::new(inputs, outputs, spec.seed % 97);
    let layer = spec.dense_layer(&dense).unwrap();
    let unipolar = spec.input_mode == DenseInput::Unipolar;
    assert_eq!(layer.uses_count_table(), unipolar && spec.bits <= MAX_COUNT_BITS, "{what}: path");
    if case.images == 0 {
        return;
    }
    let twin = spec.dense_layer(&dense).unwrap();
    for index in case.indices() {
        let mut input = values(inputs, index);
        if !unipolar {
            // {−1, 0, +1} in equal thirds.
            input.iter_mut().for_each(|v| *v = (*v * 3.0).floor().min(2.0) - 1.0);
        }
        let out = layer.forward(&input).unwrap();
        assert_eq!(out.len(), outputs, "{what}: size");
        assert_same(&twin.forward(&input).unwrap(), &out, &what);
        let streaming = layer.forward_streaming(&input).unwrap();
        assert_same(&out, &streaming, &format!("{what}: count path vs streaming"));
    }
}

/// Runs `check` over the rows `keep` selects, spread over the cores.
fn check_rows(keep: impl Fn(&Case) -> bool, check: fn(&Case)) {
    let _env = shared_env();
    let rows: Vec<Case> = cases().into_iter().filter(keep).collect();
    par_map_range(rows.len(), |i| check(&rows[i]));
}

fn first_layer_of(class: FaultClass) -> impl Fn(&Case) -> bool {
    move |case| case.dense.is_none() && case.class() == class
}

#[test]
fn fault_free_cases_match_the_streaming_reference() {
    check_rows(first_layer_of(FaultClass::FaultFree), check_first_layer);
}

#[test]
fn stuck_at_cases_match_the_streaming_reference() {
    check_rows(first_layer_of(FaultClass::StuckAt), check_first_layer);
}

#[test]
fn bit_error_cases_match_the_streaming_reference() {
    check_rows(first_layer_of(FaultClass::BitError), check_first_layer);
}

#[test]
fn dense_cases_match_the_streaming_reference() {
    check_rows(|case| case.dense.is_some(), check_dense);
}

/// Feature extraction and tail evaluation are byte-identical for every
/// worker-thread count. Fault injection is seeded per `(spec.seed,
/// image_index, pixel)`, never per worker, so this holds for faulted rows
/// too, although thread counts assign images to workers differently.
#[test]
fn thread_count_never_changes_the_bytes() {
    let _env = exclusive_env();
    let dataset = synthetic::generate(10, 11);
    for case in cases().iter().filter(|c| c.threads) {
        let conv = conv(case.spec.seed, case.kernels);
        let mut hybrid = case.spec.hybrid(&conv, light_tail(case.kernels)).unwrap();
        let mut run = |threads| {
            with_threads(threads, || {
                let features = hybrid.extract_features(&dataset).unwrap();
                let eval = hybrid.evaluate(&dataset, 4).unwrap();
                (feature_bits(&features), eval.correct, eval.total, eval.loss.to_bits())
            })
        };
        let reference = run("1");
        for threads in ["2", "4", "8"] {
            assert!(run(threads) == reference, "{case:?}: bytes differ with {threads} threads");
        }
    }
    // The explicit-thread-count primitive is order-preserving too.
    let serial = par_map_range_threads(1, 40, |i| i * i);
    assert_eq!(par_map_range_threads(4, 40, |i| i * i), serial);
}

fn feature_bits(features: &Dataset) -> Vec<u32> {
    (0..features.len()).flat_map(|i| features.item(i).iter().map(|v| v.to_bits())).collect()
}

/// The composed retrain — faulted feature extraction, sharded
/// `train_epoch` over the extracted training features, then the
/// before/after evaluations on the extracted test features — must produce
/// the same report and the same trained tail, bit for bit, for every
/// `SCNN_THREADS` value. Bit errors make the absolute-index fault seeding
/// of the extracted images matter. With metrics on, the head counts one
/// forward per distinct image.
#[test]
fn retrain_identical_for_any_thread_count() {
    use scnn_core::{retrain, RetrainConfig};

    let _env = exclusive_env();
    let tail = lenet5_tail(&LenetConfig::default()).unwrap();
    let conv = Conv2d::new(1, 32, 5, Padding::Same, 29).unwrap();
    let spec = ScenarioSpec { fault: FaultModel::BitError(1e-2), ..ScenarioSpec::this_work(4) };
    let (train, test) = (synthetic::generate(24, 13), synthetic::generate(12, 14));
    let config = RetrainConfig { epochs: 2, batch_size: 8, ..RetrainConfig::default() };

    let run = |threads: &str| {
        let (mut hybrid, report) = with_threads(threads, || {
            let engine = spec.first_layer(&conv).unwrap();
            retrain(engine, tail.clone(), &train, &test, &config).unwrap()
        });
        let mut weights = Vec::new();
        hybrid.tail_mut().visit_all_params(&mut |p, _| {
            weights.extend(p.data().iter().map(|v| v.to_bits()));
        });
        (report, weights)
    };
    scnn_obs::force(true);
    let head_images = scnn_obs::registry().counter("conv/images");
    head_images.reset();
    let (reference, reference_weights) = run("1");
    scnn_obs::force(false);
    let distinct = (train.len() + test.len()) as u64;
    assert_eq!(head_images.get(), distinct, "head forwards in one retrain");
    for threads in ["2", "8"] {
        let (report, weights) = run(threads);
        assert_eq!(report, reference, "report differs with {threads} threads");
        assert!(weights == reference_weights, "tail weights differ with {threads} threads");
    }
}

/// Runs one full extract + evaluate pass under `threads` workers and
/// returns the metrics registry snapshot; the caller holds
/// [`exclusive_env`].
fn pass_snapshot(images: usize, threads: &str) -> BTreeMap<String, f64> {
    let conv = Conv2d::new(1, 32, 5, Padding::Same, 23).unwrap();
    let mut hybrid = ScenarioSpec::this_work(4).hybrid(&conv, light_tail(32)).unwrap();
    let dataset = synthetic::generate(images, 7);

    scnn_obs::registry().reset();
    with_threads(threads, || {
        let _features = hybrid.extract_features(&dataset).unwrap();
        let _eval = hybrid.evaluate(&dataset, 4).unwrap();
    });
    scnn_obs::registry().snapshot().into_iter().collect()
}

/// The scheduling-independent keys: per-item counters and per-item span
/// call counts. (Worker-shaped metrics — `parallel/*`, chunk-granular
/// decode spans — legitimately vary with the partition, which is exactly
/// why work is counted in items.)
const DETERMINISTIC_KEYS: &[&str] = &[
    "conv/images",
    "nn/images_evaluated",
    "data/items_decoded",
    "stage/conv/forward/count",
    "stage/conv/fold/count",
    "stage/core/extract_features/count",
    "stage/nn/evaluate/count",
];

/// Work-item counters and span call counts merged across the parallel
/// workers are identical for every `SCNN_THREADS` value: every item
/// produces the same instrumentation events whichever worker runs it, and
/// the merge is a sum of exact atomics.
#[test]
fn counter_totals_identical_for_1_and_8_threads() {
    let _env = exclusive_env();
    scnn_obs::force(true);

    // Dataset sizes include ones that don't divide evenly across 8 workers.
    for images in [1usize, 5, 12] {
        let baseline = pass_snapshot(images, "1");
        for threads in ["2", "8"] {
            let snap = pass_snapshot(images, threads);
            for &key in DETERMINISTIC_KEYS {
                assert_eq!(
                    snap.get(key),
                    baseline.get(key),
                    "{key} differs between SCNN_THREADS=1 and SCNN_THREADS={threads} \
                     ({images} images)"
                );
            }
        }
        // And the totals are not just equal but correct: each image passes
        // the conv head twice (once materialized in extract_features, once
        // through evaluate's streaming feature source) and the tail
        // evaluates each image once.
        let images_f = images as f64;
        assert_eq!(baseline.get("conv/images"), Some(&(2.0 * images_f)));
        assert_eq!(baseline.get("stage/conv/forward/count"), Some(&(2.0 * images_f)));
        assert_eq!(baseline.get("nn/images_evaluated"), Some(&images_f));
    }

    scnn_obs::force(false);
}

#[test]
fn disabled_metrics_record_nothing() {
    let _env = exclusive_env();
    scnn_obs::force(false);
    let snap = pass_snapshot(3, "2");
    for (key, value) in &snap {
        assert_eq!(*value, 0.0, "{key} recorded with metrics off");
    }
}
