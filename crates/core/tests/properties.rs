//! Property-based tests for the hybrid-engine invariants.

use proptest::prelude::*;
use scnn_core::counts::{live_fold_node, LaneTree};
use scnn_core::{and_count, FirstLayer, FloatConvLayer, HybridLenet, ScenarioSpec, StreamArena};
use scnn_nn::data::BatchSource;
use scnn_nn::layers::{Conv2d, Padding};
use scnn_sim::{S0Policy, TffAdderTree};

fn small_conv(seed: u64) -> Conv2d {
    Conv2d::new(1, 4, 5, Padding::Same, seed).expect("valid conv")
}

fn image_from_seed(seed: u64) -> Vec<f32> {
    let mut state = seed | 1;
    (0..784)
        .map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 40) & 0xff) as f32 / 255.0
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Raising the soft threshold can only move features toward zero.
    #[test]
    fn soft_threshold_monotone(seed in 0u64..500, tau in 0.0f32..2.0) {
        let conv = small_conv(seed);
        let image = image_from_seed(seed ^ 7);
        let strict = FloatConvLayer::from_conv(&conv, 0.0).unwrap().forward_image(&image).unwrap();
        let relaxed = FloatConvLayer::from_conv(&conv, tau).unwrap().forward_image(&image).unwrap();
        for (s, r) in strict.iter().zip(&relaxed) {
            // relaxed is either equal or zeroed.
            prop_assert!(*r == *s || *r == 0.0, "s={s} r={r}");
        }
    }

    /// Pixel streams encode the quantized pixel level exactly for the ramp
    /// converter (thermometer code), for every image.
    #[test]
    fn ramp_pixel_streams_exact(seed in 0u64..500, bits in 2u32..=8) {
        let conv = small_conv(3);
        let engine = ScenarioSpec::this_work(bits).stochastic_conv(&conv).unwrap();
        let image = image_from_seed(seed);
        let streams = engine.pixel_streams(&image, 0).unwrap();
        for (p, &v) in image.iter().enumerate().step_by(37) {
            let expected = scnn_nn::quant::pixel_level(v, bits);
            prop_assert_eq!(streams.count(p), expected, "pixel {}", p);
        }
    }

    /// The arena's and_count matches BitStream's on identical content.
    #[test]
    fn arena_and_count_matches_bitstream(len in 1usize..300, seed in any::<u64>()) {
        let mut a = StreamArena::new(2, len).unwrap();
        let mut bits_a = Vec::with_capacity(len);
        let mut bits_b = Vec::with_capacity(len);
        let mut state = seed | 1;
        for i in 0..len {
            state = state.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
            let (ba, bb) = (state >> 62 & 1 == 1, state >> 33 & 1 == 1);
            if ba {
                a.stream_mut(0)[i / 64] |= 1 << (i % 64);
            }
            if bb {
                a.stream_mut(1)[i / 64] |= 1 << (i % 64);
            }
            bits_a.push(ba);
            bits_b.push(bb);
        }
        let sa = scnn_bitstream::BitStream::from_bits(bits_a);
        let sb = scnn_bitstream::BitStream::from_bits(bits_b);
        prop_assert_eq!(and_count(a.stream(0), a.stream(1)), sa.and_count(&sb).unwrap());
    }

    /// Engine feature agreement with the float head never gets *worse* by
    /// more than noise when precision increases 4 → 8 bits (TFF engine).
    #[test]
    fn precision_helps_fidelity(seed in 0u64..200) {
        let conv = small_conv(seed);
        let image = image_from_seed(seed ^ 0xF00D);
        let float = FloatConvLayer::from_conv(&conv, 0.0).unwrap();
        let reference = float.forward_image(&image).unwrap();
        let mismatch = |bits: u32| {
            let engine = ScenarioSpec::this_work(bits).stochastic_conv(&conv).unwrap();
            let got = engine.forward_image(&image).unwrap();
            got.iter().zip(&reference).filter(|(a, b)| (*a - *b).abs() > 0.5).count()
        };
        let m4 = mismatch(4);
        let m8 = mismatch(8);
        // Allow a small noise margin (3% of features).
        prop_assert!(m8 <= m4 + reference.len() / 33, "m4={m4} m8={m8}");
    }

    /// One window of the fast path reproduced from first principles through
    /// `scnn_sim::TffAdderTree`: per-tap AND counts from the actual pixel
    /// and weight streams, folded by the reference tree, biased and
    /// ternarized — must equal `forward_image`'s feature.
    #[test]
    fn lut_forward_matches_sim_reference_tree(
        seed in 0u64..2_000,
        oy in 0usize..28,
        ox in 0usize..28,
        k in 0usize..4,
    ) {
        let conv = small_conv(seed % 31 + 1);
        let engine = ScenarioSpec::this_work(6).stochastic_conv(&conv).unwrap();
        let image = image_from_seed(seed ^ 0x51D3);
        let features = engine.forward_image(&image).unwrap();

        // Reference: taps → AND counts → reference tree fold → bias → sign.
        let pixels = engine.pixel_streams(&image, 0).unwrap();
        let ksq = engine.taps();
        let mut pos = vec![0u64; ksq];
        let mut neg = vec![0u64; ksq];
        let pad = 2usize; // (5 − 1) / 2 for the 5×5 kernel
        for t in 0..ksq {
            let (iy, ix) = (oy as isize + (t / 5) as isize - pad as isize,
                            ox as isize + (t % 5) as isize - pad as isize);
            if (0..28).contains(&iy) && (0..28).contains(&ix) {
                let p = iy as usize * 28 + ix as usize;
                let c = and_count(pixels.stream(p), engine.weight_stream(k, t));
                if engine.weight_is_negative(k, t) {
                    neg[t] = c;
                } else {
                    pos[t] = c;
                }
            }
        }
        let tree = TffAdderTree::new(ksq, engine.spec().s0_policy).unwrap();
        let (pos_root, neg_root) = (tree.fold_counts(&pos), tree.fold_counts(&neg));
        // Reconstruct the comparator offset exactly as KernelBank does.
        let mut weights = conv.weights().data().to_vec();
        let scales = scnn_nn::quant::scale_kernels(&mut weights, ksq);
        let offset = conv.bias().data()[k] / scales[k];
        let diff = (pos_root as f32 - neg_root as f32) * tree.scale() as f32
            / engine.stream_len() as f32;
        let v = diff + offset;
        let expected = if v > 0.0 { 1.0 } else if v < 0.0 { -1.0 } else { 0.0 };
        prop_assert_eq!(features[k * 784 + oy * 28 + ox], expected);
    }

    /// Streaming hybrid evaluation (features computed chunk by chunk,
    /// never materialized) is byte-identical with evaluating the
    /// materialized feature dataset.
    #[test]
    fn streaming_hybrid_evaluation_matches_materialized(
        seed in 0u64..200,
        images in 1usize..10,
        batch_size in 1usize..5,
    ) {
        use scnn_nn::data::synthetic;
        use scnn_nn::lenet::{lenet5_tail, LenetConfig};

        let conv = Conv2d::new(1, 32, 5, Padding::Same, seed % 31 + 1).unwrap();
        let engine =
            ScenarioSpec { seed, ..ScenarioSpec::this_work(4) }.first_layer(&conv).unwrap();
        let mut hybrid = HybridLenet::new(engine, lenet5_tail(&LenetConfig::default()).unwrap());
        let dataset = synthetic::generate(images, seed ^ 0xD1);

        // The streaming view reports the feature geometry without running
        // the engine…
        let view = hybrid.features(&dataset);
        prop_assert_eq!(view.len(), images);
        prop_assert_eq!(view.item_shape(), &[32, 14, 14]);

        // …and the two evaluation routes agree bit for bit.
        let features = hybrid.extract_features(&dataset).unwrap();
        let materialized = hybrid.tail_mut().evaluate(&features, batch_size).unwrap();
        let streamed = hybrid.evaluate(&dataset, batch_size).unwrap();
        prop_assert_eq!(materialized.correct, streamed.correct);
        prop_assert_eq!(materialized.total, streamed.total);
        prop_assert_eq!(materialized.accuracy.to_bits(), streamed.accuracy.to_bits());
        prop_assert_eq!(materialized.loss.to_bits(), streamed.loss.to_bits());
    }

    /// `LaneTree::fold` is bit-exact per lane and sign with
    /// `scnn_sim::TffAdderTree` across precisions 4–8 bit and all S0
    /// policies, and `fold_stuck` with the scalar stuck-at fold on the
    /// positive half (the negative half folds healthy); a stuck site off
    /// the live prefix leaves the reference result unchanged.
    #[test]
    fn lane_tree_folds_match_sim_reference_per_lane(
        taps in 1usize..40,
        lanes in 1usize..12,
        bits in 4u32..=8,
        seed in any::<u64>(),
        node in 0usize..64,
        value_is_n in any::<bool>(),
        policy in prop_oneof![
            Just(S0Policy::AllZero),
            Just(S0Policy::AllOne),
            Just(S0Policy::Alternating)
        ],
    ) {
        let n = 1usize << bits;
        let mut tree = LaneTree::new(taps, lanes, policy, n).unwrap();
        let reference = TffAdderTree::new(taps, policy).unwrap();
        // One split row per tap: `lanes` positive then `lanes` negative
        // counts.
        let mut state = seed | 1;
        let rows: Vec<Vec<u16>> = (0..taps)
            .map(|_| {
                (0..2 * lanes)
                    .map(|_| {
                        state = state
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        ((state >> 33) as usize % (n + 1)) as u16
                    })
                    .collect()
            })
            .collect();
        let leaves: Vec<&[u16]> = rows.iter().map(Vec::as_slice).collect();
        let healthy = tree.fold(&leaves).to_vec();
        let value = if value_is_n { n as u16 } else { 0 };
        let stuck = tree.fold_stuck(&leaves, node, value).to_vec();
        for column in 0..2 * lanes {
            let mut counts: Vec<u64> = rows.iter().map(|row| u64::from(row[column])).collect();
            let want = reference.fold_counts(&counts);
            prop_assert_eq!(u64::from(healthy[column]), want, "taps={} column={}", taps, column);
            let want_stuck = if column < lanes && live_fold_node(taps, node) {
                counts.resize(taps.next_power_of_two(), 0);
                reference.fold_padded(&mut counts, Some((node, u64::from(value))))
            } else {
                want
            };
            prop_assert_eq!(
                u64::from(stuck[column]),
                want_stuck,
                "taps={} column={} node={}",
                taps,
                column,
                node
            );
        }
    }
}
