//! Property-based tests for the stochastic arithmetic invariants the hybrid
//! network's fast path relies on.

use proptest::prelude::*;
use scnn_bitstream::BitStream;
use scnn_sim::{Multiplier, MuxAdder, OrAdder, S0Policy, TffAdder, TffAdderTree, TffHalver};

fn arb_pair(max_len: usize) -> impl Strategy<Value = (BitStream, BitStream)> {
    (1..max_len).prop_flat_map(|len| {
        (
            proptest::collection::vec(any::<bool>(), len..=len),
            proptest::collection::vec(any::<bool>(), len..=len),
        )
            .prop_map(|(a, b)| (BitStream::from_bits(a), BitStream::from_bits(b)))
    })
}

proptest! {
    /// THE key invariant (§III): the TFF adder's output count is exactly
    /// floor/ceil((ones(x)+ones(y))/2), independent of bit order.
    #[test]
    fn tff_adder_counting_invariant((x, y) in arb_pair(300), s0 in any::<bool>()) {
        let adder = TffAdder::new(s0);
        let z = adder.add(&x, &y).unwrap();
        let sum = x.count_ones() + y.count_ones();
        let expected = if s0 { sum.div_ceil(2) } else { sum / 2 };
        prop_assert_eq!(z.count_ones(), expected);
        prop_assert_eq!(z.count_ones(), adder.add_count(x.count_ones(), y.count_ones()));
    }

    /// Where x == y bitwise, the adder output equals the common bit.
    #[test]
    fn tff_adder_propagates_agreement((x, y) in arb_pair(200), s0 in any::<bool>()) {
        let z = TffAdder::new(s0).add(&x, &y).unwrap();
        for i in 0..x.len() {
            let (xb, yb) = (x.get(i).unwrap(), y.get(i).unwrap());
            if xb == yb {
                prop_assert_eq!(z.get(i).unwrap(), xb, "position {}", i);
            }
        }
    }

    /// The adder is symmetric in count: add(x, y) and add(y, x) have the
    /// same number of ones (bit patterns may differ at disagreement slots).
    #[test]
    fn tff_adder_count_symmetry((x, y) in arb_pair(200), s0 in any::<bool>()) {
        let a = TffAdder::new(s0);
        prop_assert_eq!(
            a.add(&x, &y).unwrap().count_ones(),
            a.add(&y, &x).unwrap().count_ones()
        );
    }

    /// Halver output count is exactly floor/ceil of half the input count.
    #[test]
    fn halver_counting_invariant(bits in proptest::collection::vec(any::<bool>(), 1..300), s0 in any::<bool>()) {
        let a = BitStream::from_bits(bits);
        let h = TffHalver::new(s0);
        let c = h.halve(&a);
        prop_assert_eq!(c.count_ones(), h.halve_count(a.count_ones()));
        // And the output never has a 1 where the input had 0.
        let masked = c.checked_and(&a).unwrap();
        prop_assert_eq!(masked, c);
    }

    /// Multiplier count is monotone: adding 1s to an operand never reduces
    /// the product count.
    #[test]
    fn multiplier_monotone((x, y) in arb_pair(200), extra_idx in any::<proptest::sample::Index>()) {
        let base = Multiplier.multiply_count(&x, &y).unwrap();
        let mut x_more = x.clone();
        let idx = extra_idx.index(x.len());
        x_more.set(idx, true).unwrap();
        let more = Multiplier.multiply_count(&x_more, &y).unwrap();
        prop_assert!(more >= base);
    }

    /// MUX adder output bits always come from one of the operands.
    #[test]
    fn mux_adder_output_is_a_selection((x, y) in arb_pair(200), sel_seed in any::<u64>()) {
        let mut state = sel_seed;
        let select = BitStream::from_fn(x.len(), |_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state >> 63 == 1
        });
        let z = MuxAdder.add(&x, &y, &select).unwrap();
        for i in 0..z.len() {
            let expect = if select.get(i).unwrap() { y.get(i).unwrap() } else { x.get(i).unwrap() };
            prop_assert_eq!(z.get(i).unwrap(), expect);
        }
    }

    /// OR-adder over-approximates scaled addition and under-approximates the
    /// true (unscaled) sum.
    #[test]
    fn or_adder_bounds((x, y) in arb_pair(200)) {
        let z = OrAdder.add(&x, &y).unwrap().count_ones();
        let sum = x.count_ones() + y.count_ones();
        prop_assert!(z <= sum);
        prop_assert!(z >= x.count_ones().max(y.count_ones()));
    }

    /// Tree fold == tree stream count, for arbitrary stream sets.
    #[test]
    fn tree_fold_equals_stream_simulation(
        n_inputs in 1usize..12,
        len in 1usize..120,
        seed in any::<u64>(),
        policy in prop_oneof![
            Just(S0Policy::AllZero),
            Just(S0Policy::AllOne),
            Just(S0Policy::Alternating)
        ],
    ) {
        // Deterministic per-case pseudo-random streams.
        let inputs: Vec<BitStream> = (0..n_inputs)
            .map(|k| {
                let mut state = seed ^ (k as u64).wrapping_mul(0x9e3779b97f4a7c15);
                BitStream::from_fn(len, |_| {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    state >> 63 == 1
                })
            })
            .collect();
        let tree = TffAdderTree::new(n_inputs, policy).unwrap();
        let stream_count = tree.add_streams(&inputs).unwrap().count_ones();
        let counts: Vec<u64> = inputs.iter().map(BitStream::count_ones).collect();
        prop_assert_eq!(stream_count, tree.fold_counts(&counts));
    }


    /// Tree result is within depth LSBs of the exact scaled sum.
    #[test]
    fn tree_rounding_bounded(n_inputs in 1usize..16, len in 8usize..100, seed in any::<u64>()) {
        let inputs: Vec<BitStream> = (0..n_inputs)
            .map(|k| {
                let mut state = seed ^ (k as u64).wrapping_mul(0x2545F4914F6CDD1D);
                BitStream::from_fn(len, |_| {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(99);
                    state >> 63 == 1
                })
            })
            .collect();
        let tree = TffAdderTree::new(n_inputs, S0Policy::Alternating).unwrap();
        let got = tree.fold_counts(&inputs.iter().map(BitStream::count_ones).collect::<Vec<_>>()) as f64;
        let exact: u64 = inputs.iter().map(BitStream::count_ones).sum();
        let expected = exact as f64 / tree.scale() as f64;
        prop_assert!((got - expected).abs() <= tree.depth() as f64 + 1e-9);
    }
}
