//! Property-based tests for the training framework.

use proptest::prelude::*;
use scnn_nn::data::{parse_idx_images, parse_idx_labels, BatchSource, ChunkLoader, Dataset};
use scnn_nn::layers::{Conv2d, Dense, Dropout, Flatten, Layer, MaxPool2d, Padding, Relu, Sign};
use scnn_nn::optim::Adam;
use scnn_nn::quant::{pixel_level, quantize_bipolar, scale_kernels, soft_threshold, weight_level};
use scnn_nn::{
    matmul_into, softmax_cross_entropy, Error, MatRef, Network, PackedA, Tensor, NN, NT, TN,
};
use std::any::Any;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// A small synthetic classification dataset: `items` 6-float items over 3
/// classes, fully determined by `seed`.
fn tiny_dataset(items: usize, seed: u64) -> Dataset {
    let item_len = 6usize;
    let data: Vec<f32> = (0..items * item_len)
        .map(|i| {
            let x = (i as u64).wrapping_mul(seed * 2 + 1).wrapping_mul(0x9e37_79b9);
            ((x >> 24) & 0xff) as f32 / 255.0
        })
        .collect();
    let labels: Vec<u8> = (0..items).map(|i| ((i as u64 * 7 + seed) % 3) as u8).collect();
    Dataset::new(data, &[item_len], labels).unwrap()
}

/// The training net the determinism properties exercise — deliberately
/// includes [`Dropout`], the only RNG-stateful layer, since its mask
/// stream is what data-parallel sharding could most easily perturb.
fn tiny_net(seed: u64) -> Network {
    let mut net = Network::new();
    net.push(Dense::new(6, 8, seed ^ 0xA1));
    net.push(Relu::new());
    net.push(Dropout::new(0.4, seed ^ 0xD0));
    net.push(Dense::new(8, 3, seed ^ 0xA2));
    net
}

/// Trains `epochs` passes at an explicit worker count; returns the
/// bit-pattern of every weight plus the per-epoch loss bit-patterns.
fn train_fingerprint(
    dataset: &Dataset,
    seed: u64,
    batch_size: usize,
    epochs: usize,
    threads: usize,
) -> (Vec<u32>, Vec<u32>) {
    let mut net = tiny_net(seed);
    let mut opt = Adam::new(1e-3);
    let mut losses = Vec::new();
    for epoch in 0..epochs {
        let loss = net
            .train_epoch_threads(dataset, batch_size, &mut opt, seed ^ epoch as u64, threads)
            .unwrap();
        losses.push(loss.to_bits());
    }
    let mut weights = Vec::new();
    net.visit_all_params(&mut |p, _| weights.extend(p.data().iter().map(|v| v.to_bits())));
    (weights, losses)
}

/// One operand entry drawn from `(seed, index)`: an exact zero with
/// probability `zeros`, else ±1 (the values of conv2's pooled input) or a
/// general value.
fn gemm_entry(seed: u64, index: usize, zeros: f32) -> f32 {
    let h = (index as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ seed.wrapping_mul(0xbf58_476d);
    let h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    if ((h >> 40) as f32) < zeros * (1u64 << 24) as f32 {
        return 0.0;
    }
    match h & 3 {
        0 => 1.0,
        1 => -1.0,
        _ => ((h >> 8) & 0xffff) as f32 / 4096.0 - 8.0,
    }
}

proptest! {
    /// Evaluating over a streaming `ChunkLoader` is byte-identical with
    /// evaluating the materialized `Dataset` it mirrors, for every batch
    /// size and chunk alignment.
    #[test]
    fn streaming_chunks_match_materialized_dataset(
        seed in 0u64..500,
        items in 1usize..40,
        batch_size in 1usize..17,
    ) {
        let item_len = 6usize;
        let data: Vec<f32> = (0..items * item_len)
            .map(|i| {
                let x = (i as u64).wrapping_mul(seed * 2 + 1).wrapping_mul(0x9e37_79b9);
                ((x >> 24) & 0xff) as f32 / 255.0
            })
            .collect();
        let labels: Vec<u8> = (0..items).map(|i| ((i as u64 * 7 + seed) % 3) as u8).collect();
        let dataset = Dataset::new(data.clone(), &[item_len], labels.clone()).unwrap();
        let streamed = ChunkLoader::new(items, &[item_len], move |range| {
            Ok((
                data[range.start * item_len..range.end * item_len].to_vec(),
                labels[range.clone()].to_vec(),
            ))
        });

        let mut net = Network::new();
        net.push(Dense::new(item_len, 3, seed ^ 0xBEEF));
        let from_dataset = net.evaluate(&dataset, batch_size).unwrap();
        let from_stream = net.evaluate(&streamed, batch_size).unwrap();
        prop_assert_eq!(from_dataset.correct, from_stream.correct);
        prop_assert_eq!(from_dataset.total, from_stream.total);
        prop_assert_eq!(from_dataset.accuracy.to_bits(), from_stream.accuracy.to_bits());
        prop_assert_eq!(from_dataset.loss.to_bits(), from_stream.loss.to_bits());
    }

    /// `batch_range` tiles: any partition of the index space concatenates
    /// back to the full batch, for both sources.
    #[test]
    fn batch_ranges_tile_the_source(seed in 0u64..200, split in 1usize..9) {
        let items = 10usize;
        let data: Vec<f32> = (0..items * 2).map(|i| (i as u64 ^ seed) as f32).collect();
        let labels: Vec<u8> = (0..items as u8).collect();
        let ds = Dataset::new(data, &[2], labels).unwrap();
        let split = split.min(items);
        let (full, full_labels) = ds.batch_range(0..items).unwrap();
        let (a, la) = ds.batch_range(0..split).unwrap();
        let (b, lb) = ds.batch_range(split..items).unwrap();
        let mut joined = a.data().to_vec();
        joined.extend_from_slice(b.data());
        prop_assert_eq!(joined, full.data().to_vec());
        let mut joined_labels = la;
        joined_labels.extend(lb);
        prop_assert_eq!(joined_labels, full_labels);
    }

    /// Data-parallel training is byte-identical for every worker-thread
    /// count: final weights and the loss trajectory match bit for bit for
    /// 1/2/3/8 workers, across batch sizes — including batches smaller than
    /// the 8-shard fan-out — and with a stateful [`Dropout`] in the net.
    /// Three workers deal eight shards unevenly (0,3,6 / 1,4,7 / 2,5), so
    /// the reduce's turn passes between more than two workers.
    #[test]
    fn sharded_training_byte_identical_across_thread_counts(
        seed in 0u64..100,
        items in 3usize..24,
        batch_size in 1usize..13,
        epochs in 1usize..3,
    ) {
        let dataset = tiny_dataset(items, seed);
        let reference = train_fingerprint(&dataset, seed, batch_size, epochs, 1);
        for threads in [2usize, 3, 8] {
            let run = train_fingerprint(&dataset, seed, batch_size, epochs, threads);
            prop_assert_eq!(&run.0, &reference.0, "weights diverge at threads={}", threads);
            prop_assert_eq!(&run.1, &reference.1, "losses diverge at threads={}", threads);
        }
    }

    /// Training over a streaming `ChunkLoader` is byte-identical with
    /// training over the materialized `Dataset` it mirrors: the shuffled
    /// `gather` assembles the same shard batches either way.
    #[test]
    fn streamed_training_matches_materialized_dataset(
        seed in 0u64..100,
        items in 3usize..24,
        batch_size in 1usize..13,
    ) {
        let dataset = tiny_dataset(items, seed);
        let mirror = dataset.clone();
        let streamed = ChunkLoader::new(items, &[6], move |range| {
            let (x, labels) = mirror.batch_range(range)?;
            Ok((x.into_vec(), labels))
        });
        let mut from_dataset = tiny_net(seed);
        let mut from_stream = tiny_net(seed);
        let mut opt_a = Adam::new(1e-3);
        let mut opt_b = Adam::new(1e-3);
        let la = from_dataset.train_epoch_threads(&dataset, batch_size, &mut opt_a, seed, 4).unwrap();
        let lb = from_stream.train_epoch_threads(&streamed, batch_size, &mut opt_b, seed, 4).unwrap();
        prop_assert_eq!(la.to_bits(), lb.to_bits());
        let mut wa = Vec::new();
        let mut wb = Vec::new();
        from_dataset.visit_all_params(&mut |p, _| wa.extend_from_slice(p.data()));
        from_stream.visit_all_params(&mut |p, _| wb.extend_from_slice(p.data()));
        prop_assert_eq!(wa, wb);
    }

    /// `matmul_into` and `PackedA::matmul_into` add a naive triple loop to
    /// `out`, bit for bit, in all three layouts. The loop sums each output
    /// in ascending `k` from `+0.0` and skips nothing; only then is the sum
    /// added to what `out` held, a repeating `+0.0`, `-0.0`, non-zero
    /// pattern (at `k` = 0 the sum is `+0.0`, so `-0.0` becomes `+0.0`).
    /// Cases cover row counts on both sides of the register tile's, widths
    /// below one 16-wide panel, up to two panels plus a ragged edge, `k` =
    /// 0 and 1, and dense and sparse left operands.
    #[test]
    fn matmul_into_matches_naive_loop_bit_for_bit(
        m in 1usize..=9,
        k in prop_oneof![Just(0usize), Just(1), 2usize..=40],
        n in 1usize..=40,
        zeros in prop_oneof![Just(0.0f32), Just(0.5), Just(0.8)],
        seed in 0u64..1000,
    ) {
        let a = |i: usize, p: usize| gemm_entry(seed, i * k + p, zeros);
        let b = |p: usize, j: usize| gemm_entry(!seed, p * n + j, 0.1);
        let init: Vec<f32> = (0..m * n)
            .map(|i| match i % 3 {
                0 => 0.0,
                1 => -0.0,
                _ => (i % 11) as f32 / 4.0 - 1.3,
            })
            .collect();
        let mut want = Vec::with_capacity(m * n);
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for p in 0..k {
                    acc += a(i, p) * b(p, j);
                }
                want.push((init[i * n + j] + acc).to_bits());
            }
        }
        let stored = |rows: usize, cols: usize, at: &dyn Fn(usize, usize) -> f32| -> Vec<f32> {
            (0..rows * cols).map(|i| at(i / cols, i % cols)).collect()
        };
        let (a_n, a_t) = (stored(m, k, &a), stored(k, m, &|p, i| a(i, p)));
        let (b_n, b_t) = (stored(k, n, &b), stored(n, k, &|j, p| b(p, j)));
        let mut out = init.clone();
        let bits = |out: &[f32]| out.iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
        matmul_into(NN, MatRef::new(&a_n, m, k), MatRef::new(&b_n, k, n), &mut out);
        prop_assert_eq!(bits(&out), want.clone(), "NN");
        out.copy_from_slice(&init);
        matmul_into(NT, MatRef::new(&a_n, m, k), MatRef::new(&b_t, n, k), &mut out);
        prop_assert_eq!(bits(&out), want.clone(), "NT");
        out.copy_from_slice(&init);
        matmul_into(TN, MatRef::new(&a_t, k, m), MatRef::new(&b_n, k, n), &mut out);
        prop_assert_eq!(bits(&out), want.clone(), "TN");
        // Packed once, each left operand serves two rounds of products,
        // and the untransposed packing serves both NN and NT.
        let a_packed = PackedA::new(NN, MatRef::new(&a_n, m, k));
        let a_t_packed = PackedA::new(TN, MatRef::new(&a_t, k, m));
        for _ in 0..2 {
            out.copy_from_slice(&init);
            a_packed.matmul_into(NN, MatRef::new(&b_n, k, n), &mut out);
            prop_assert_eq!(bits(&out), want.clone(), "packed NN");
            out.copy_from_slice(&init);
            a_packed.matmul_into(NT, MatRef::new(&b_t, n, k), &mut out);
            prop_assert_eq!(bits(&out), want.clone(), "packed NT");
            out.copy_from_slice(&init);
            a_t_packed.matmul_into(TN, MatRef::new(&b_n, k, n), &mut out);
            prop_assert_eq!(bits(&out), want.clone(), "packed TN");
        }
    }

    /// conv2's fused path against the unfused GEMM, bit for bit. An input
    /// of ±0 and ±1 only sends `Conv2d::forward` and `weight_grads`
    /// through fused multiply-adds where the target has FMA;
    /// `matmul_into` over an explicit patch matrix never fuses. Images mix
    /// +0.0 and −0.0 around a zero block (so some patches are all zero),
    /// or are all +1, all −1 or all zero. Weights and output gradients
    /// hold ±inf, whose products with zero are NaN: NaN outputs are
    /// compared with `is_nan`, as their payload is not part of the claim.
    /// Output rows on both sides of the register tile's 4 and 16, and
    /// sparse gradients, cover the packed tile, its zero-padded edge and
    /// the streamed rows.
    #[test]
    fn fused_ternary_conv_matches_unfused_gemm(
        seed in 0u64..1000,
        h in 5usize..=12,
        batch in 1usize..=4,
        same in 0usize..2,
        g_zeros in prop_oneof![Just(0.0f32), Just(0.8)],
    ) {
        let (c, oc, k) = (2usize, 9usize, 3usize);
        let padding = if same == 1 { Padding::Same } else { Padding::Valid };
        let pad = same * (k - 1) / 2;
        let o = h + 2 * pad - k + 1;
        let (fan_in, patch) = (c * k * k, o * o);
        let with_infs = |v: f32, i: usize| match (i as u64 ^ seed) % 41 {
            0 => f32::INFINITY,
            1 => f32::NEG_INFINITY,
            _ => v,
        };
        let mut conv = Conv2d::new(c, oc, k, padding, seed).unwrap();
        for (i, w) in conv.weights_mut().data_mut().iter_mut().enumerate() {
            *w = with_infs(*w, i);
        }
        for (i, b) in conv.bias_mut().data_mut().iter_mut().enumerate() {
            *b = gemm_entry(seed, i, 0.2) / 8.0;
        }
        let x: Vec<f32> = (0..batch * c * h * h)
            .map(|i| {
                let (b, y, xx) = (i / (c * h * h), i / h % h, i % h);
                let hash = (i as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ seed;
                match (b as u64 + seed) % 4 {
                    0 if y < k && xx < k => 0.0,
                    0 => [0.0, -0.0, 1.0, -1.0][(hash >> 61) as usize & 3],
                    1 => 1.0,
                    2 => -1.0,
                    _ => [0.0, -0.0][(hash >> 63) as usize],
                }
            })
            .collect();
        let g: Vec<f32> =
            (0..batch * oc * patch).map(|i| with_infs(gemm_entry(!seed, i, g_zeros), i)).collect();
        let y = conv.forward(&Tensor::from_vec(x.clone(), &[batch, c, h, h]).unwrap(), true);
        let y = y.unwrap();
        conv.weight_grads(&Tensor::from_vec(g.clone(), &[batch, oc, o, o]).unwrap()).unwrap();

        let (w, bias) = (conv.weights().data(), conv.bias().data());
        let padded = |b: usize, ci: usize, py: usize, px: usize| {
            let (iy, ix) = (py.checked_sub(pad), px.checked_sub(pad));
            match (iy, ix) {
                (Some(iy), Some(ix)) if iy < h && ix < h => x[((b * c + ci) * h + iy) * h + ix],
                _ => 0.0,
            }
        };
        let mut y_ref = vec![0.0f32; batch * oc * patch];
        let (mut dw_ref, mut db_ref) = (vec![0.0f32; oc * fan_in], vec![0.0f32; oc]);
        for b in 0..batch {
            let cols: Vec<f32> = (0..fan_in * patch)
                .map(|i| {
                    let (r, s) = (i / patch, i % patch);
                    padded(b, r / (k * k), s / o + r / k % k, s % o + r % k)
                })
                .collect();
            let y_img = &mut y_ref[b * oc * patch..][..oc * patch];
            matmul_into(NN, MatRef::new(w, oc, fan_in), MatRef::new(&cols, fan_in, patch), y_img);
            for (row, &bv) in y_img.chunks_exact_mut(patch).zip(bias) {
                row.iter_mut().for_each(|v| *v += bv);
            }
            let g_img = &g[b * oc * patch..][..oc * patch];
            let (g_mat, cols) = (MatRef::new(g_img, oc, patch), MatRef::new(&cols, fan_in, patch));
            matmul_into(NT, g_mat, cols, &mut dw_ref);
            for (db, g_row) in db_ref.iter_mut().zip(g_img.chunks_exact(patch)) {
                *db += g_row.iter().sum::<f32>();
            }
        }
        let mismatch = |got: &[f32], want: &[f32]| {
            got.iter().zip(want).position(|(a, b)| {
                a.to_bits() != b.to_bits() && !(a.is_nan() && b.is_nan())
            })
        };
        prop_assert_eq!(mismatch(y.data(), &y_ref), None, "forward");
        let mut grads = Vec::new();
        conv.visit_params(&mut |_, g| grads.push(g.data().to_vec()));
        prop_assert_eq!(mismatch(&grads[0], &dw_ref), None, "dw");
        prop_assert_eq!(mismatch(&grads[1], &db_ref), None, "db");
    }

    /// Conv2d is linear: conv(a·x) == a·conv(x) (bias removed).
    #[test]
    fn conv_is_linear(seed in 0u64..1000, alpha in -2.0f32..2.0) {
        let mut conv = Conv2d::new(1, 4, 3, Padding::Same, seed).unwrap();
        conv.bias_mut().fill_zero();
        let x = Tensor::from_vec((0..36).map(|v| (v as f32 - 18.0) / 18.0).collect(), &[1, 1, 6, 6]).unwrap();
        let y1 = conv.forward(&x, false).unwrap();
        let xs = x.map(|v| v * alpha);
        let y2 = conv.forward(&xs, false).unwrap();
        for (a, b) in y1.data().iter().zip(y2.data()) {
            prop_assert!((a * alpha - b).abs() < 1e-3, "{a} * {alpha} != {b}");
        }
    }

    /// MaxPool is idempotent on constant planes and never invents values.
    #[test]
    fn maxpool_bounded_by_input(vals in proptest::collection::vec(-10.0f32..10.0, 16..=16)) {
        let x = Tensor::from_vec(vals.clone(), &[1, 1, 4, 4]).unwrap();
        let mut pool = MaxPool2d::new();
        let y = pool.forward(&x, false).unwrap();
        let max = vals.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let min = vals.iter().cloned().fold(f32::INFINITY, f32::min);
        for &v in y.data() {
            prop_assert!(v <= max && v >= min);
            prop_assert!(vals.contains(&v));
        }
    }

    /// ReLU output is non-negative and fixpoint on its own output.
    #[test]
    fn relu_idempotent(vals in proptest::collection::vec(-5.0f32..5.0, 1..64)) {
        let len = vals.len();
        let x = Tensor::from_vec(vals, &[len]).unwrap();
        let mut relu = Relu::new();
        let y = relu.forward(&x, false).unwrap();
        prop_assert!(y.data().iter().all(|&v| v >= 0.0));
        let y2 = relu.forward(&y, false).unwrap();
        prop_assert_eq!(y.data(), y2.data());
    }

    /// Sign outputs exactly {-1, 0, 1} and is odd: sign(-x) == -sign(x).
    #[test]
    fn sign_is_odd_and_ternary(vals in proptest::collection::vec(-2.0f32..2.0, 1..64), tau in 0.0f32..0.5) {
        let len = vals.len();
        let x = Tensor::from_vec(vals, &[len]).unwrap();
        let mut sign = Sign::new(tau);
        let y = sign.forward(&x, false).unwrap();
        prop_assert!(y.data().iter().all(|&v| v == -1.0 || v == 0.0 || v == 1.0));
        let neg = sign.forward(&x.map(|v| -v), false).unwrap();
        for (a, b) in y.data().iter().zip(neg.data()) {
            prop_assert_eq!(*a, -*b);
        }
    }

    /// Dense forward then Flatten round-trips shapes for any batch size.
    #[test]
    fn dense_shapes(batch in 1usize..8, seed in 0u64..100) {
        let mut layer = Dense::new(6, 3, seed);
        let x = Tensor::zeros(&[batch, 6]);
        let y = layer.forward(&x, false).unwrap();
        prop_assert_eq!(y.shape(), &[batch, 3][..]);
        let mut f = Flatten::new();
        let x4 = Tensor::zeros(&[batch, 2, 3, 1]);
        let flat = f.forward(&x4, false).unwrap();
        prop_assert_eq!(flat.shape(), &[batch, 6][..]);
    }

    /// Cross-entropy loss is non-negative and its gradient rows sum to ~0.
    #[test]
    fn loss_invariants(
        logits in proptest::collection::vec(-5.0f32..5.0, 6..=6),
        label_a in 0u8..3,
        label_b in 0u8..3,
    ) {
        let t = Tensor::from_vec(logits, &[2, 3]).unwrap();
        let (loss, grad) = softmax_cross_entropy(&t, &[label_a, label_b]).unwrap();
        prop_assert!(loss >= 0.0);
        for row in grad.data().chunks(3) {
            let s: f32 = row.iter().sum();
            prop_assert!(s.abs() < 1e-5);
        }
    }

    /// Quantization error is within half a grid step; levels reconstruct.
    #[test]
    fn quantization_bounds(v in -1.0f32..1.0, bits in 1u32..=10) {
        let q = quantize_bipolar(v, bits);
        let step = 1.0 / (1u64 << bits) as f32;
        prop_assert!((q - v).abs() <= step / 2.0 + 1e-6);
        let (level, neg) = weight_level(v, bits);
        prop_assert!(level <= 1 << bits);
        let rec = level as f32 / (1u64 << bits) as f32 * if neg { -1.0 } else { 1.0 };
        prop_assert!((rec.abs() - q.abs()).abs() < 1e-6);
    }

    /// Pixel levels are monotone in the pixel value.
    #[test]
    fn pixel_level_monotone(a in 0.0f32..1.0, b in 0.0f32..1.0, bits in 1u32..=10) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(pixel_level(lo, bits) <= pixel_level(hi, bits));
    }

    /// Kernel scaling preserves signs and ratios, and bounds magnitudes by 1.
    #[test]
    fn kernel_scaling_invariants(mut w in proptest::collection::vec(-3.0f32..3.0, 8..=8)) {
        let orig = w.clone();
        let scales = scale_kernels(&mut w, 4);
        prop_assert_eq!(scales.len(), 2);
        for (chunk, (o_chunk, &s)) in
            w.chunks(4).zip(orig.chunks(4).zip(&scales))
        {
            for (&v, &o) in chunk.iter().zip(o_chunk) {
                prop_assert!(v.abs() <= 1.0 + 1e-6);
                prop_assert!((v * s - o).abs() < 1e-4, "descale mismatch");
            }
        }
    }

    /// Soft threshold only ever zeroes values, never changes them otherwise.
    #[test]
    fn soft_threshold_selective(v in -2.0f32..2.0, tau in 0.0f32..1.0) {
        let out = soft_threshold(v, tau);
        prop_assert!(out == 0.0 || out == v);
        prop_assert_eq!(out == 0.0, v.abs() <= tau);
    }

    /// The IDX parsers never panic on arbitrary bytes: every malformed
    /// input lands in `Err(Error::ParseIdx)`, never an index or overflow
    /// panic.
    #[test]
    fn idx_parsers_never_panic_on_arbitrary_bytes(
        bytes in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let _ = parse_idx_images(&bytes);
        let _ = parse_idx_labels(&bytes);
    }

    /// A valid IDX image file with one mutated byte either still parses or
    /// fails cleanly — and truncating it at any point fails cleanly.
    #[test]
    fn mutated_and_truncated_idx_files_fail_cleanly(
        count in 0usize..4,
        rows in 0usize..5,
        cols in 0usize..5,
        mutate_at in 0usize..96,
        mutate_to in any::<u8>(),
        cut in 0usize..96,
    ) {
        let mut file = Vec::new();
        file.extend_from_slice(&0x0000_0803u32.to_be_bytes());
        file.extend_from_slice(&(count as u32).to_be_bytes());
        file.extend_from_slice(&(rows as u32).to_be_bytes());
        file.extend_from_slice(&(cols as u32).to_be_bytes());
        file.extend((0..count * rows * cols).map(|i| (i % 256) as u8));
        prop_assert!(parse_idx_images(&file).is_ok());

        let mut mutated = file.clone();
        let at = mutate_at % mutated.len();
        mutated[at] = mutate_to;
        if let Ok((pixels, c, r, k)) = parse_idx_images(&mutated) {
            prop_assert_eq!(pixels.len(), c * r * k);
        }
        let _ = parse_idx_images(&file[..cut.min(file.len())]);
    }
}

/// Passes its input through and records each batch it sees; errors or
/// panics on a batch that holds one of the items `trip_on`. The items of
/// [`marked_dataset`] are their own indices, so a batch names its items.
#[derive(Debug, Clone)]
struct Tripwire {
    trip_on: Vec<f32>,
    panic: bool,
    seen: Arc<Mutex<Vec<Vec<f32>>>>,
}

impl Layer for Tripwire {
    fn name(&self) -> &'static str {
        "tripwire"
    }

    fn forward(&mut self, input: &Tensor, _training: bool) -> Result<Tensor, Error> {
        self.seen.lock().unwrap().push(input.data().to_vec());
        match input.data().iter().find(|v| self.trip_on.contains(v)) {
            Some(v) if self.panic => panic!("tripwire on item {v}"),
            Some(v) => Err(Error::InvalidArgument { reason: format!("item {v}") }),
            None => Ok(input.clone()),
        }
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor, Error> {
        Ok(grad_output.clone())
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

/// Sixteen one-float items, each holding its own index: one batch of 16
/// is eight two-item shards.
fn marked_dataset() -> Dataset {
    Dataset::new((0..16).map(|i| i as f32).collect(), &[1], (0..16).map(|i| i % 3).collect())
        .unwrap()
}

/// Trains one epoch of one 16-item batch through a [`Tripwire`] and a
/// dense layer.
fn train_tripwire(trip: Tripwire, threads: usize) -> Result<f32, Error> {
    let mut net = Network::new();
    net.push(trip);
    net.push(Dense::new(1, 3, 5));
    net.train_epoch_threads(&marked_dataset(), 16, &mut Adam::new(1e-3), 9, threads)
}

/// The items of each shard, in shard order: on one thread the shards run
/// in order on the calling thread, so the tripwire sees them that way.
fn shards_in_order() -> Vec<Vec<f32>> {
    let seen = Arc::default();
    let trip = Tripwire { trip_on: Vec::new(), panic: false, seen: Arc::clone(&seen) };
    train_tripwire(trip, 1).unwrap();
    let shards = seen.lock().unwrap().clone();
    assert_eq!(shards.len(), 8);
    shards
}

/// A shard that errors still passes its turn on, and the batch returns
/// the error of the lowest failing shard whichever worker fails first.
/// Shards 3, 4 and 7 fail: two workers run them as (4) and (3, 7), three
/// as (3) and (4, 7), eight each on its own.
#[test]
fn sharded_training_returns_the_lowest_failing_shards_error() {
    let shards = shards_in_order();
    let trip_on = vec![shards[7][0], shards[4][1], shards[3][0]];
    for threads in [1usize, 2, 3, 8] {
        let trip = Tripwire { trip_on: trip_on.clone(), panic: false, seen: Arc::default() };
        let err = train_tripwire(trip, threads).unwrap_err();
        let want = Error::InvalidArgument { reason: format!("item {}", shards[3][0]) };
        assert_eq!(err, want, "threads={threads}");
    }
}

/// A worker that panics before its turn wakes the workers waiting for
/// later turns, so the panic reaches the caller instead of hanging the
/// batch.
#[test]
fn sharded_training_propagates_a_worker_panic_without_hanging() {
    let shards = shards_in_order();
    for (threads, shard) in [(2usize, 0usize), (3, 0), (3, 5), (8, 0), (8, 7)] {
        let trip = Tripwire { trip_on: vec![shards[shard][0]], panic: true, seen: Arc::default() };
        let (done, finished) = mpsc::channel();
        let run = std::thread::spawn(move || done.send(train_tripwire(trip, threads)).unwrap());
        match finished.recv_timeout(Duration::from_secs(60)) {
            Err(RecvTimeoutError::Disconnected) => {}
            Err(RecvTimeoutError::Timeout) => panic!("threads={threads}: the batch hung"),
            Ok(result) => panic!("threads={threads}: returned {result:?} instead of panicking"),
        }
        assert!(run.join().is_err(), "threads={threads}: the panic did not propagate");
    }
}
