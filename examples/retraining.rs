//! The §V-B retraining experiment in isolation: quantize the first layer
//! hard (2–4 bits), watch accuracy fall, retrain the binary remainder,
//! watch it recover — the paper's key enabler for short bit-streams.
//!
//! ```text
//! cargo run --release --example retraining
//! ```

use scnn::core::{retrain, train_base, RetrainConfig, ScenarioSpec, TrainConfig};
use scnn::nn::data::load_or_synthesize;
use std::path::Path;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (train, test, source) = load_or_synthesize(Path::new("data/mnist"), 1000, 300, 5)?;
    println!("data source: {source}");
    let base = train_base(&train, &test, &TrainConfig { epochs: 3, ..TrainConfig::default() })?;
    println!(
        "float base model: {:.2}% misclassification\n",
        base.evaluation.misclassification_rate() * 100.0
    );
    println!(
        "{:>20} {:>18} {:>18} {:>12}",
        "engine", "no retraining", "after retraining", "recovered"
    );
    for bits in [8u32, 4, 3, 2] {
        for spec in [ScenarioSpec::binary(bits), ScenarioSpec::this_work(bits)] {
            let engine = spec.first_layer(base.conv1())?;
            let label = engine.label();
            let (_, report) = retrain(
                engine,
                base.tail_clone(),
                &train,
                &test,
                &RetrainConfig { epochs: 3, ..RetrainConfig::default() },
            )?;
            println!(
                "{:>20} {:>17.2}% {:>17.2}% {:>+11.2}pp",
                label,
                report.before.misclassification_rate() * 100.0,
                report.after.misclassification_rate() * 100.0,
                report.recovered_points(),
            );
        }
    }
    println!("\n(paper §V-B: quantization/conversion noise costs several points of accuracy");
    println!(" without retraining — up to 6.85% at 4-bit binary — and retraining the binary");
    println!(" tail recovers it; only possible because the rest of the NN stays binary)");
    Ok(())
}
