//! The full near-sensor pipeline of the paper's Fig. 3: sensor image →
//! ramp-compare analog-to-stochastic conversion → stochastic first conv
//! layer (AND multipliers + TFF adder trees + counters + sign) → binary
//! LeNet-5 remainder → digit.
//!
//! Trains a small base model first (synthetic digits unless real MNIST IDX
//! files sit in `data/mnist/`), then classifies test images through the
//! hybrid stack at 8-bit and 4-bit stream precision.
//!
//! ```text
//! cargo run --release --example near_sensor_pipeline
//! ```

use scnn::bitstream::Precision;
use scnn::core::{retrain, train_base, FirstLayer, RetrainConfig, ScenarioSpec, TrainConfig};
use scnn::nn::data::load_or_synthesize;
use std::path::Path;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (train, test, source) = load_or_synthesize(Path::new("data/mnist"), 800, 200, 99)?;
    println!("data source: {source} ({} train / {} test)", train.len(), test.len());

    println!("\n[1/3] training the float base model (TensorFlow's role, §V-A)…");
    let base = train_base(&train, &test, &TrainConfig { epochs: 3, ..TrainConfig::default() })?;
    println!(
        "      base misclassification: {:.2}%",
        base.evaluation.misclassification_rate() * 100.0
    );

    for bits in [8u32, 4] {
        let precision = Precision::new(bits)?;
        println!(
            "\n[2/3] building the stochastic first layer at {precision} (N = {} cycles)…",
            precision.stream_len()
        );
        let engine = ScenarioSpec::this_work(bits).stochastic_conv(base.conv1())?;
        println!("      engine: {}", engine.label());

        println!("[3/3] retraining the binary tail on frozen stochastic features (§V-B)…");
        let (mut hybrid, report) =
            retrain(Box::new(engine), base.tail_clone(), &train, &test, &RetrainConfig::default())?;
        println!(
            "      misclassification: {:.2}% before retraining → {:.2}% after",
            report.before.misclassification_rate() * 100.0,
            report.after.misclassification_rate() * 100.0
        );

        // Classify a handful of sensor frames end to end.
        print!("      sample classifications:");
        for i in 0..8 {
            let predicted = hybrid.classify_image(test.item(i))?;
            let truth = test.label(i);
            print!(" {predicted}{}", if predicted == usize::from(truth) { "✓" } else { "✗" });
        }
        println!();
    }
    Ok(())
}
