//! Ablation: why the TFF adder matters for *deep reduction trees* (§III).
//!
//! Sums k random unipolar numbers through a TFF-adder tree vs a MUX-adder
//! tree and reports RMSE against the exact scaled sum as k grows — the
//! compounding-error effect that motivates the paper's adder.
//!
//! Also sweeps the TFF tree's S0 policy (its rounding-bias knob).
//!
//! ```text
//! cargo run -p scnn-bench --release --bin ablation_adder_tree
//! ```

use scnn_bench::report::{sci, Table};
use scnn_bench::setup::Effort;
use scnn_bitstream::{BitStream, Precision};
use scnn_rng::{NumberSource, Sng, Sobol2, VanDerCorput};
use scnn_sim::{MuxAdderTree, S0Policy, TffAdderTree};

fn input_streams(k: usize, precision: Precision, trial: u64) -> Vec<BitStream> {
    // Alternate two low-discrepancy generators across inputs with varied
    // phase so inputs are representative, deterministic and value-exact.
    (0..k)
        .map(|i| {
            let level = (trial * 131 + i as u64 * 37) % (precision.max_level() + 1);
            if i % 2 == 0 {
                let mut sng = Sng::new(VanDerCorput::new(precision.bits()).expect("valid"));
                for _ in 0..(i as u64 * 7 % 16) {
                    sng.source_mut().next_value();
                }
                sng.generate_level(level, precision.stream_len())
            } else {
                let mut sng = Sng::new(Sobol2::new(precision.bits()).expect("valid"));
                for _ in 0..(i as u64 * 11 % 16) {
                    sng.source_mut().next_value();
                }
                sng.generate_level(level, precision.stream_len())
            }
        })
        .collect()
}

fn rmse_tff(k: usize, precision: Precision, policy: S0Policy, trials: u64) -> f64 {
    let tree = TffAdderTree::new(k, policy).expect("k > 0");
    let n = precision.stream_len() as f64;
    let mut total = 0.0;
    for trial in 0..trials {
        let inputs = input_streams(k, precision, trial);
        let got = tree.add_streams(&inputs).expect("matched inputs").count_ones() as f64 / n;
        let exact: u64 = inputs.iter().map(BitStream::count_ones).sum();
        let want = exact as f64 / (n * tree.scale() as f64);
        total += (got - want).powi(2);
    }
    (total / trials as f64).sqrt()
}

fn rmse_mux(k: usize, precision: Precision, trials: u64) -> f64 {
    let n = precision.stream_len() as f64;
    let mut total = 0.0;
    for trial in 0..trials {
        let tree = MuxAdderTree::new(k, precision.bits().max(3), trial ^ 0xab).expect("k > 0");
        let inputs = input_streams(k, precision, trial);
        let got = tree.add_streams(&inputs).expect("matched inputs").count_ones() as f64 / n;
        let exact: u64 = inputs.iter().map(BitStream::count_ones).sum();
        let want = exact as f64 / (n * tree.scale() as f64);
        total += (got - want).powi(2);
    }
    (total / trials as f64).sqrt()
}

fn main() {
    scnn_bench::report::timed_run("ablation_adder_tree", run);
}

fn run() {
    let precision = Precision::new(8).expect("valid");
    let trials = Effort::from_args().trials(200);
    let mut table = Table::new(vec![
        "inputs k".into(),
        "MUX tree".into(),
        "TFF (all-zero S0)".into(),
        "TFF (alternating S0)".into(),
    ]);
    for k in [2usize, 4, 8, 16, 25, 32, 64] {
        table.row(vec![
            k.to_string(),
            sci(rmse_mux(k, precision, trials)),
            sci(rmse_tff(k, precision, S0Policy::AllZero, trials)),
            sci(rmse_tff(k, precision, S0Policy::Alternating, trials)),
        ]);
    }
    println!("\n# Ablation — scaled-sum RMSE vs tree width (8-bit streams)\n");
    println!("{}", table.render());
    println!("(MUX error compounds with depth; TFF error stays at the rounding floor —");
    println!(" the §III motivation for the proposed adder. Alternating S0 cancels bias.)");
}
