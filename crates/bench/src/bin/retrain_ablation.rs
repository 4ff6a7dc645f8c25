//! The §V-B retraining claim, isolated: misclassification of the binary
//! first layer *before* vs *after* retraining the tail, per precision.
//! The paper reports up to 6.85 % misclassification at 4 bits without
//! retraining, recovering to below 1 % with it.
//!
//! Doubles as the thread-scaling harness for tail training: one
//! tail-training epoch over materialized features at 1 worker vs the
//! configured pool, recording both epoch times and printing their ratio
//! (trained weights are byte-identical either way — the shard fan-out is
//! fixed, only its execution width changes).
//!
//! ```text
//! cargo run -p scnn-bench --release --bin retrain_ablation [-- --full]
//! ```

use scnn_bench::report::{pct, record_run_ns, Stopwatch, Table};
use scnn_bench::setup::{prepare, Effort, Workbench};
use scnn_core::{RetrainConfig, ScenarioSpec};
use scnn_nn::optim::Adam;

fn main() {
    scnn_bench::report::timed_run("retrain_ablation", run);
}

fn run() {
    let effort = Effort::from_args();
    let bench = prepare(effort);
    let retrain_cfg = RetrainConfig { epochs: effort.retrain_epochs(), ..RetrainConfig::default() };

    let mut table = Table::new(vec![
        "Engine".into(),
        "no retraining".into(),
        "retrained".into(),
        "recovered (pp)".into(),
    ]);
    for bits in (2..=8u32).rev().step_by(2) {
        for spec in [ScenarioSpec::binary(bits), ScenarioSpec::this_work(bits)] {
            let (_, report) = bench.retrain_scenario(&spec, &retrain_cfg);
            table.row(vec![
                spec.label(),
                pct(report.before.misclassification_rate()),
                pct(report.after.misclassification_rate()),
                format!("{:+.2}", report.recovered_points()),
            ]);
        }
    }
    println!("\n# Retraining ablation (§V-B)\n");
    println!(
        "data source: {}; base model: {}\n",
        bench.source,
        pct(bench.base.evaluation.misclassification_rate())
    );
    println!("{}", table.render());
    println!("(paper: binary @4-bit reaches 6.85% without retraining, 0.79% with)");

    thread_scaling(&bench);
}

/// Times one tail-training epoch over materialized stochastic features at
/// 1 worker vs the configured pool, records both times and prints the
/// scaling ratio. Both runs start from the same tail clone and shuffle
/// seed, so they do the same arithmetic — the fixed shard fan-out
/// guarantees identical trained weights regardless of width
/// (property-tested in scnn-nn).
fn thread_scaling(bench: &Workbench) {
    let spec = ScenarioSpec::this_work(4);
    let hybrid = scnn_core::HybridLenet::new(bench.first_layer(&spec), bench.base.tail_clone());
    let features = hybrid.extract_features(&bench.train).expect("feature extraction failed");
    let threads = scnn_nn::parallel::thread_count();
    let cfg = RetrainConfig::default();

    let time_epoch = |width: usize| {
        let mut tail = bench.base.tail_clone();
        let mut opt = Adam::new(cfg.learning_rate);
        let sw = Stopwatch::start();
        tail.train_epoch_threads(&features, cfg.batch_size, &mut opt, cfg.seed, width)
            .expect("epoch training failed");
        sw.elapsed_ns()
    };
    let serial_ns = time_epoch(1);
    let pooled_ns = time_epoch(threads);
    let speedup = serial_ns / pooled_ns;

    println!("\n## Tail-training thread scaling ({threads} workers)\n");
    println!("- 1 worker:   {:.2} ms/epoch", serial_ns / 1e6);
    println!("- {threads} workers: {:.2} ms/epoch ({speedup:.2}×)", pooled_ns / 1e6);
    record_run_ns("train_epoch/epoch_1thread_ns", serial_ns);
    record_run_ns("train_epoch/epoch_nthreads_ns", pooled_ns);
}
