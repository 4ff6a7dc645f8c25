//! Ablation for the paper's central architectural decision (§I/§II): run
//! **only the first layer** stochastically instead of the whole network.
//!
//! Prior work (Ardakani et al., Kim et al.) built *fully stochastic* NNs
//! and needed streams of 256–1024 bits; the paper argues errors compound
//! across stochastic layers and that wide stochastic dot products are
//! expensive. This harness trains a small MLP (784 → 48 → 10, sign hidden
//! activation) and evaluates it three ways at each precision:
//!
//! * **binary** — both layers quantized fixed-point (reference),
//! * **hybrid** — layer 1 stochastic, layer 2 float binary (the paper's
//!   architecture, transplanted to the MLP),
//! * **fully stochastic** — both layers stochastic.
//!
//! ```text
//! cargo run -p scnn-bench --release --bin ablation_fully_stochastic
//! ```

use scnn_bench::report::{pct, Table};
use scnn_bench::setup::Effort;
use scnn_core::{DenseInput, ScenarioSpec};
use scnn_nn::data::load_or_synthesize;
use scnn_nn::layers::{Dense, Flatten, Layer, Sign};
use scnn_nn::optim::Adam;
use scnn_nn::quant::quantize_bipolar;
use scnn_nn::{Network, Tensor};
use std::path::Path;

const HIDDEN: usize = 48;

fn train_mlp(train: &scnn_nn::data::Dataset, epochs: usize) -> Network {
    let mut net = Network::new();
    net.push(Flatten::new());
    net.push(Dense::new(784, HIDDEN, 11));
    net.push(Sign::new(0.0));
    net.push(Dense::new(HIDDEN, 10, 12));
    let mut opt = Adam::new(1e-3);
    for epoch in 0..epochs as u64 {
        net.train_epoch(train, 32, &mut opt, epoch).expect("training");
    }
    net
}

fn dense_at(net: &Network, index: usize) -> Dense {
    net.layer(index)
        .expect("layer exists")
        .as_any()
        .downcast_ref::<Dense>()
        .expect("dense layer")
        .clone()
}

/// Binary reference: both layers quantized to `bits`.
fn binary_accuracy(net: &Network, test: &scnn_nn::data::Dataset, bits: u32) -> f64 {
    let quantize = |d: &Dense| {
        let mut q = d.clone();
        for v in q.weights_mut().data_mut() {
            *v = quantize_bipolar(*v, bits);
        }
        q
    };
    let l1 = quantize(&dense_at(net, 1));
    let l2 = quantize(&dense_at(net, 3));
    let hits = scnn_core::parallel::par_chunk_map(test.len(), |range| {
        let (mut l1, mut l2) = (l1.clone(), l2.clone());
        let mut sign = Sign::new(0.0);
        range
            .map(|i| {
                let x = Tensor::from_vec(test.item(i).to_vec(), &[1, 784]).expect("shape");
                let h =
                    sign.forward(&l1.forward(&x, false).expect("forward"), false).expect("forward");
                let logits = l2.forward(&h, false).expect("forward");
                argmax(logits.data()) == usize::from(test.label(i))
            })
            .collect()
    });
    hits.iter().filter(|&&hit| hit).count() as f64 / test.len() as f64
}

/// Hybrid / fully stochastic accuracy: layer 1 stochastic; layer 2 float
/// (`sc_layer2 = false`) or stochastic (`true`).
fn stochastic_accuracy(
    net: &Network,
    test: &scnn_nn::data::Dataset,
    bits: u32,
    sc_layer2: bool,
) -> f64 {
    // Scenario literals: layer 1 consumes unipolar pixels, layer 2 the
    // re-binarized ternary activations.
    let l1 =
        ScenarioSpec { input_mode: DenseInput::Unipolar, seed: 1, ..ScenarioSpec::this_work(bits) }
            .dense_layer(&dense_at(net, 1))
            .expect("engine");
    let l2_float = dense_at(net, 3);
    let l2_sc =
        ScenarioSpec { input_mode: DenseInput::Ternary, seed: 2, ..ScenarioSpec::this_work(bits) }
            .dense_layer(&l2_float)
            .expect("engine");
    let hits = scnn_core::parallel::par_chunk_map(test.len(), |range| {
        let mut l2_float = l2_float.clone();
        range
            .map(|i| {
                let hidden_raw = l1.forward(test.item(i)).expect("layer 1");
                let hidden: Vec<f32> = hidden_raw
                    .iter()
                    .map(|&v| {
                        if v > 0.0 {
                            1.0
                        } else if v < 0.0 {
                            -1.0
                        } else {
                            0.0
                        }
                    })
                    .collect();
                let logits: Vec<f32> = if sc_layer2 {
                    l2_sc.forward(&hidden).expect("layer 2")
                } else {
                    let x = Tensor::from_vec(hidden, &[1, HIDDEN]).expect("shape");
                    l2_float.forward(&x, false).expect("layer 2").into_vec()
                };
                argmax(&logits) == usize::from(test.label(i))
            })
            .collect()
    });
    hits.iter().filter(|&&hit| hit).count() as f64 / test.len() as f64
}

fn argmax(v: &[f32]) -> usize {
    v.iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
        .map(|(i, _)| i)
        .expect("non-empty")
}

fn main() {
    scnn_bench::report::timed_run("ablation_fully_stochastic", run);
}

fn run() {
    let effort = Effort::from_args();
    let (train, test, source) = load_or_synthesize(
        Path::new("data/mnist"),
        effort.mlp_train_size(),
        effort.mlp_test_size(),
        31,
    )
    .expect("data");
    eprintln!(
        "[fully-sc] data source: {source} ({effort:?} effort); training 784→{HIDDEN}→10 MLP…"
    );
    let net = train_mlp(&train, effort.mlp_epochs());
    let mut float_net = net.clone();
    let float_acc = float_net.evaluate(&test, 64).expect("eval").accuracy;
    eprintln!("[fully-sc] float MLP accuracy: {}", pct(float_acc));

    let mut table = Table::new(vec![
        "precision".into(),
        "binary (both layers)".into(),
        "hybrid (paper)".into(),
        "fully stochastic".into(),
    ]);
    for bits in [4u32, 6, 8] {
        table.row(vec![
            format!("{bits}-bit"),
            pct(1.0 - binary_accuracy(&net, &test, bits)),
            pct(1.0 - stochastic_accuracy(&net, &test, bits, false)),
            pct(1.0 - stochastic_accuracy(&net, &test, bits, true)),
        ]);
    }
    println!("\n# Ablation — hybrid vs fully stochastic network (§I/§II)\n");
    println!("MLP 784→{HIDDEN}→10, sign hidden activation; misclassification (no retraining);");
    println!("float reference: {}\n", pct(1.0 - float_acc));
    println!("{}", table.render());
    println!("Two observations, both of which support the paper's design:");
    println!(" 1. the 784-input stochastic dot product is far less accurate than the");
    println!("    25-tap conv window at the same stream length — the tree scale (1024)");
    println!("    swamps N=2^b of resolution, so wide SC fan-in needs long streams,");
    println!("    exactly the 256–1024-bit streams prior fully-stochastic work used;");
    println!(" 2. hybrid ≈ fully-stochastic here because the hidden activations are");
    println!("    re-binarized (counter + comparator) between layers — that conversion");
    println!("    barrier is precisely what stops stream-level error compounding (see");
    println!("    ablation_depth for what happens when streams flow through un-converted).");
}
