//! The workloads, their set-up, and the measured work: batched chunks,
//! closed-loop serial frames and `retrain` calls, interleaved.

use crate::host;
use crate::stats::{median, mix, quantile};
use crate::trace;
use crate::wrap::{self, TracedHead, TracedSource};
use scnn_core::{
    retrain, train_base, BaseModel, FaultModel, FaultSite, FirstLayer, HybridLenet, RetrainConfig,
    RetrainReport, ScenarioSpec, StochasticConvLayer, TrainConfig,
};
use scnn_hw::activity::{measure_sc_activity, BinaryActivity};
use scnn_hw::table3::design_points;
use scnn_hw::CellLibrary;
use scnn_nn::data::synthetic;
use scnn_nn::layers::{Layer, MaxPool2d};
use scnn_nn::{Network, Tensor};
use std::sync::Arc;
use std::time::Instant;

pub type Result<T> = std::result::Result<T, Box<dyn std::error::Error>>;

/// Seed of the base model's training and test images. The trained model is
/// the system under test, so it is the same in every run; every frame the
/// measured work sees comes from the run's `--seed`.
const BASE_SEED: u64 = 0x5eed_ba5e;
const BASE_TRAIN: usize = 300;
const BASE_TEST: usize = 100;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Frames and sampled windows per frame behind the activity factors.
const ACTIVITY_FRAMES: usize = 64;
const ACTIVITY_WINDOWS: usize = 64;
/// Largest share of the traced frames' wall time that may fall outside
/// the stage spans (head, pool1, tail layers).
pub const STAGE_TOLERANCE: f64 = 0.05;

/// Input streams: each kind of work draws its images from its own seeds.
mod stream {
    pub const ACTIVITY: u64 = 1;
    pub const WARMUP: u64 = 2;
    pub const BATCHED: u64 = 3;
    pub const SERIAL: u64 = 4;
    pub const RETRAIN_TRAIN: u64 = 5;
    pub const RETRAIN_TEST: u64 = 6;
    pub const CHECK: u64 = 7;
}

/// Names of the spans the benchmark opens itself, around the work the
/// wrappers do not cover.
pub const CHUNK: &str = "pass.batched.chunk";
pub const FRAME: &str = "pass.serial.frame";
pub const POOL1: &str = "nn.pool1.forward";
pub const RETRAIN: &str = "core.retrain";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    LutFrames,
    MuxFrames,
    FaultedFrames,
    Retrain,
}

impl Workload {
    pub const ALL: [Workload; 4] =
        [Workload::LutFrames, Workload::MuxFrames, Workload::FaultedFrames, Workload::Retrain];

    pub fn name(self) -> &'static str {
        match self {
            Workload::LutFrames => "lut_frames",
            Workload::MuxFrames => "mux_frames",
            Workload::FaultedFrames => "faulted_frames",
            Workload::Retrain => "retrain",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// What each workload runs, and how much of it.
    pub fn plan(self) -> Plan {
        let frames = Plan {
            spec: ScenarioSpec::this_work(8),
            chunk: 32,
            batch: 8,
            min_chunks: 48,
            serial_block: 32,
            serial_min: 320,
            agree_frames: 32,
            check_frames: 8,
            retrain: RetrainPlan {
                train: 64,
                test: 32,
                epochs: 2,
                calls: 3,
                checks_accuracy: false,
            },
            shares: [0.35, 0.35, 0.3],
        };
        match self {
            Workload::LutFrames => frames,
            Workload::MuxFrames => Plan {
                spec: ScenarioSpec::old_sc(8),
                chunk: 8,
                batch: 4,
                min_chunks: 16,
                serial_block: 8,
                serial_min: 200,
                agree_frames: 8,
                check_frames: 2,
                retrain: RetrainPlan {
                    train: 8,
                    test: 8,
                    epochs: 2,
                    calls: 3,
                    checks_accuracy: false,
                },
                shares: [0.3, 0.45, 0.25],
            },
            Workload::FaultedFrames => Plan {
                spec: ScenarioSpec::this_work(6)
                    .customize()
                    .fault(FaultModel::Compound {
                        ber: 1e-2,
                        site: FaultSite::AdderNode { node: 3 },
                        value: false,
                    })
                    .build(),
                ..frames
            },
            Workload::Retrain => Plan {
                spec: ScenarioSpec::this_work(4),
                retrain: RetrainPlan {
                    train: 240,
                    test: 120,
                    epochs: 2,
                    calls: 3,
                    checks_accuracy: true,
                },
                shares: [0.15, 0.15, 0.7],
                ..frames
            },
        }
    }
}

/// How one workload exercises the network.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub spec: ScenarioSpec,
    /// Frames per batched `HybridLenet::evaluate` call.
    pub chunk: usize,
    /// Evaluation batch size inside that call.
    pub batch: usize,
    /// Batched chunks that always run; their frames are scored for
    /// `misclassification_pct`.
    pub min_chunks: usize,
    /// Serial frames per unit of work.
    pub serial_block: usize,
    /// Serial frames that always run (a multiple of `serial_block`);
    /// they are scored too. At least 200, so that p95 has ten samples
    /// beyond it.
    pub serial_min: usize,
    /// Leading serial frames re-run batched to check that both passes
    /// classify them alike (at most `serial_block`).
    pub agree_frames: usize,
    /// Frames sampled by the engine output checks.
    pub check_frames: usize,
    pub retrain: RetrainPlan,
    /// Shares of the measured time for batched chunks, serial blocks and
    /// `retrain` calls.
    pub shares: [f64; 3],
}

impl Plan {
    fn faulted(&self) -> bool {
        !self.spec.fault.is_none()
    }

    /// Frames behind `misclassification_pct`.
    pub fn scored_frames(&self) -> usize {
        self.min_chunks * self.chunk + self.serial_min
    }
}

/// The `retrain` calls of a run: at least `calls`, each on fresh images.
#[derive(Debug, Clone, Copy)]
pub struct RetrainPlan {
    pub train: usize,
    pub test: usize,
    pub epochs: usize,
    pub calls: usize,
    /// Whether each call must keep or raise test accuracy.
    pub checks_accuracy: bool,
}

/// Counts calls attempted and calls that failed an output check.
#[derive(Debug, Default)]
pub struct Ledger {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Ledger {
    fn calls(&mut self, n: usize) {
        self.attempted += n as u64;
    }

    pub fn check(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what.to_string());
        }
    }
}

/// Host-speed-adjusted times of one set-up's steps (see [`host`]).
#[derive(Debug, Clone, Copy)]
pub struct SetupTimes {
    pub generate_ms: f64,
    pub train_base_s: f64,
    pub compile_ms: f64,
    pub activity_ms: f64,
    pub total_s: f64,
}

/// What set-up produces: the trained base model, the compiled engine and
/// its modeled frame energy.
pub struct Prepared {
    pub base: BaseModel,
    pub engine: Arc<StochasticConvLayer>,
    pub energy_nj: f64,
}

/// Synthesizes the data, trains the base model, compiles the workload's
/// engine and measures its switching activity on the workload's frames.
pub fn set_up(plan: &Plan, seed: u64, threads: usize) -> Result<(Prepared, SetupTimes)> {
    let (steps, factor) = host::bracketed(threads, || -> Result<_> {
        let start = Instant::now();
        let train = synthetic::generate(BASE_TRAIN, BASE_SEED);
        let test = synthetic::generate(BASE_TEST, BASE_SEED ^ 1);
        let frames = synthetic::generate(ACTIVITY_FRAMES, mix(seed, stream::ACTIVITY, 0));
        let generated = Instant::now();
        let config = TrainConfig {
            epochs: 1,
            batch_size: 16,
            learning_rate: 2e-3,
            ..TrainConfig::default()
        };
        let base = train_base(&train, &test, &config)?;
        let trained = Instant::now();
        let engine = Arc::new(plan.spec.stochastic_conv(base.conv1())?);
        let compiled = Instant::now();
        let activity = measure_sc_activity(&engine, &frames, ACTIVITY_FRAMES, ACTIVITY_WINDOWS)?;
        let (_, this_work) = design_points(
            plan.spec.precision()?,
            &activity,
            &BinaryActivity::default(),
            &CellLibrary::default(),
        );
        let done = Instant::now();
        let prepared = Prepared { base, engine, energy_nj: this_work.energy_nj };
        Ok((prepared, [start, generated, trained, compiled, done]))
    });
    let (prepared, [start, generated, trained, compiled, done]) = steps?;
    let s = |from: Instant, to: Instant| (to - from).as_secs_f64() * factor;
    let times = SetupTimes {
        generate_ms: s(start, generated) * 1e3,
        train_base_s: s(generated, trained),
        compile_ms: s(trained, compiled) * 1e3,
        activity_ms: s(compiled, done) * 1e3,
        total_s: s(start, done),
    };
    Ok((prepared, times))
}

/// Every parameter of `net`, bit for bit.
pub fn weight_bits(net: &Network) -> Vec<u32> {
    let mut net = net.clone();
    let mut bits = Vec::new();
    net.visit_all_params(&mut |p, _| bits.extend(p.data().iter().map(|v| v.to_bits())));
    bits
}

/// Sets up `SETUP_REPS` times and checks that every set-up produced the
/// same model and engine energy.
pub fn set_up_repeatedly(
    plan: &Plan,
    seed: u64,
    threads: usize,
    ledger: &mut Ledger,
) -> Result<(Prepared, Vec<SetupTimes>)> {
    let (first, t) = set_up(plan, seed, threads)?;
    let mut times = vec![t];
    let tail_bits = weight_bits(&first.base.tail);
    for _ in 1..SETUP_REPS {
        let (again, t) = set_up(plan, seed, threads)?;
        times.push(t);
        ledger.check(
            "set-up is deterministic",
            weight_bits(&again.base.tail) == tail_bits && again.energy_nj == first.energy_nj,
        );
    }
    Ok((first, times))
}

/// Median set-up step times over the repetitions.
pub fn median_setup(times: &[SetupTimes]) -> SetupTimes {
    let m = |f: fn(&SetupTimes) -> f64| median(&times.iter().map(f).collect::<Vec<_>>());
    SetupTimes {
        generate_ms: m(|t| t.generate_ms),
        train_base_s: m(|t| t.train_base_s),
        compile_ms: m(|t| t.compile_ms),
        activity_ms: m(|t| t.activity_ms),
        total_s: m(|t| t.total_s),
    }
}

/// The three kinds of measured work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Chunk,
    SerialBlock,
    Retrain,
}

/// Everything one measurement records. Times are host-speed-adjusted
/// (see [`host`]); `raw` keeps the wall times beside them.
#[derive(Debug, Default)]
pub struct Passes {
    /// Frames per second of each batched chunk, adjusted and raw.
    pub chunk_fps: Vec<f64>,
    pub raw_chunk_fps: Vec<f64>,
    /// Latency of each serial frame, adjusted and raw.
    pub latencies_ms: Vec<f64>,
    pub raw_latencies_ms: Vec<f64>,
    /// Time of each `retrain` call, adjusted and raw.
    pub retrain_s: Vec<f64>,
    pub raw_retrain_s: Vec<f64>,
    pub reports: Vec<RetrainReport>,
    /// Distinct images the `retrain` calls saw (train + test).
    pub retrain_images: usize,
    /// Misclassified frames among the scored ones: the frames of the
    /// minimum batched chunks and serial blocks.
    pub scored_errors: usize,
    /// Correct serial predictions among the first `agree_frames` frames.
    pub agree_correct: usize,
    /// Adjusted time of the minimum work of every kind.
    pub fixed_s: f64,
    /// Spans recorded while the work ran, when traced.
    pub spans: Vec<trace::Span>,
}

impl Passes {
    /// Percent of the scored frames misclassified.
    pub fn misclassification_pct(&self, plan: &Plan) -> f64 {
        100.0 * self.scored_errors as f64 / plan.scored_frames() as f64
    }
}

/// The network under test and the pieces the serial frames drive directly.
pub struct Subject<'a> {
    plan: Plan,
    seed: u64,
    threads: usize,
    prepared: &'a Prepared,
    head: TracedHead,
    pool: MaxPool2d,
    hybrid: HybridLenet,
}

impl<'a> Subject<'a> {
    pub fn new(plan: Plan, seed: u64, threads: usize, prepared: &'a Prepared) -> Self {
        let head: Arc<dyn FirstLayer> = prepared.engine.clone();
        let hybrid = HybridLenet::new(
            Box::new(TracedHead(head.clone())),
            wrap::traced_tail(prepared.base.tail_clone()),
        );
        let head = TracedHead(head);
        Self { plan, seed, threads, prepared, head, pool: MaxPool2d::new(), hybrid }
    }

    /// Runs a batched chunk and a few serial frames whose timings are
    /// thrown away.
    fn warm_up(&mut self) -> Result<()> {
        let warm = synthetic::generate(self.plan.chunk.max(8), mix(self.seed, stream::WARMUP, 0));
        self.hybrid.evaluate(&warm, self.plan.batch)?;
        for i in 0..8 {
            self.classify(warm.item(i), i as u64)?;
        }
        Ok(())
    }

    /// Batched chunk `c`: one `HybridLenet::evaluate` call over fresh
    /// frames, run by the worker pool. Returns its adjusted time.
    fn chunk(&mut self, c: usize, scored: bool, out: &mut Passes) -> Result<f64> {
        let plan = self.plan;
        let frames = synthetic::generate(plan.chunk, mix(self.seed, stream::BATCHED, c as u64));
        let (timed, factor) = host::bracketed(self.threads, || {
            let t = Instant::now();
            let _chunk = trace::root(CHUNK);
            let eval = self.hybrid.evaluate(&TracedSource(&frames), plan.batch);
            (eval, t.elapsed().as_secs_f64())
        });
        let (eval, wall) = (timed.0?, timed.1);
        out.raw_chunk_fps.push(plan.chunk as f64 / wall);
        out.chunk_fps.push(plan.chunk as f64 / (wall * factor));
        if scored {
            out.scored_errors += eval.total - eval.correct;
        }
        Ok(wall * factor)
    }

    /// Serial block `b`: one caller classifies one fresh frame at a time
    /// (head, pool, tail, argmax). Frame `i` of the serial frames is image
    /// `i` of them, so fault injection is seeded exactly as in a batched
    /// pass over the same frames. Returns the adjusted summed latency.
    fn serial_block(&mut self, b: usize, scored: bool, out: &mut Passes) -> Result<f64> {
        let block = self.plan.serial_block;
        let frames = synthetic::generate(block, mix(self.seed, stream::SERIAL, b as u64));
        let (timed, factor) = host::bracketed(1, || -> Result<_> {
            let mut latencies = Vec::with_capacity(block);
            let mut predictions = Vec::with_capacity(block);
            for i in 0..frames.len() {
                let t = Instant::now();
                predictions.push(self.classify(frames.item(i), (b * block + i) as u64)?);
                latencies.push(t.elapsed().as_secs_f64() * 1e3);
            }
            Ok((latencies, predictions))
        });
        let (latencies, predictions) = timed?;
        for (i, &predicted) in predictions.iter().enumerate() {
            let correct = predicted == usize::from(frames.label(i));
            if scored && !correct {
                out.scored_errors += 1;
            }
            if b * block + i < self.plan.agree_frames && correct {
                out.agree_correct += 1;
            }
        }
        out.latencies_ms.extend(latencies.iter().map(|ms| ms * factor));
        out.raw_latencies_ms.extend(&latencies);
        Ok(latencies.iter().sum::<f64>() * factor / 1e3)
    }

    /// Classifies one frame: head, first pooling, tail, argmax.
    fn classify(&mut self, image: &[f32], index: u64) -> Result<usize> {
        let _frame = trace::span(FRAME);
        let features = self.head.forward_image_indexed(image, index)?;
        let x = Tensor::from_vec(features, &[1, self.head.kernels(), 28, 28])?;
        let pooled = {
            let _pool = trace::span(POOL1);
            self.pool.forward(&x, false)?
        };
        Ok(self.hybrid.tail_mut().predict(&pooled)?[0])
    }

    /// `retrain` call `k`: the §V-B pipeline on fresh train and test
    /// images. Returns its adjusted time.
    fn retrain_call(&self, k: usize, out: &mut Passes, ledger: &mut Ledger) -> Result<f64> {
        let plan = self.plan.retrain;
        let config = RetrainConfig { epochs: plan.epochs, ..RetrainConfig::default() };
        let train =
            synthetic::generate(plan.train, mix(self.seed, stream::RETRAIN_TRAIN, k as u64));
        let test = synthetic::generate(plan.test, mix(self.seed, stream::RETRAIN_TEST, k as u64));
        let engine = Box::new(TracedHead(self.head.0.clone()));
        let tail = wrap::traced_tail(self.prepared.base.tail_clone());
        let (timed, factor) = host::bracketed(self.threads, || {
            let t = Instant::now();
            let _call = trace::root(RETRAIN);
            let result = retrain(engine, tail, &train, &test, &config);
            (result, t.elapsed().as_secs_f64())
        });
        let ((_, report), wall) = (timed.0?, timed.1);
        // Only the retraining workload's calls are large enough for the
        // accuracy to be expected not to drop.
        if self.plan.retrain.checks_accuracy {
            ledger.check(
                "retraining keeps test accuracy",
                report.after.accuracy >= report.before.accuracy,
            );
        }
        out.raw_retrain_s.push(wall);
        out.retrain_s.push(wall * factor);
        out.reports.push(report);
        out.retrain_images += train.len() + test.len();
        Ok(wall * factor)
    }

    /// The serial frames' first frames, classified by one batched pass.
    pub fn batched_agreement(&mut self) -> Result<usize> {
        let frames = synthetic::generate(self.plan.serial_block, mix(self.seed, stream::SERIAL, 0))
            .take(self.plan.agree_frames);
        Ok(self.hybrid.evaluate(&frames, self.plan.batch)?.correct)
    }

    /// Output checks on a sample of fresh frames. Fault-free engines must
    /// equal the streaming bit-level simulation bit for bit; the faulted
    /// engine must repeat exactly for the same frame index and differ from
    /// the fault-free engine.
    pub fn check_engine(&self, ledger: &mut Ledger) -> Result<()> {
        let frames = synthetic::generate(self.plan.check_frames, mix(self.seed, stream::CHECK, 0));
        let engine = &self.prepared.engine;
        if self.plan.faulted() {
            let healthy = ScenarioSpec { fault: FaultModel::None, ..self.plan.spec }
                .stochastic_conv(self.prepared.base.conv1())?;
            for i in 0..frames.len() {
                let image = frames.item(i);
                let first = engine.forward_image_indexed(image, i as u64)?;
                let again = engine.forward_image_indexed(image, i as u64)?;
                ledger.check("faulted engine repeats for the same frame index", first == again);
                let clean = healthy.forward_image_indexed(image, i as u64)?;
                ledger.check("faulted engine differs from the fault-free engine", first != clean);
            }
        } else {
            for i in 0..frames.len() {
                let image = frames.item(i);
                let fast = engine.forward_image_indexed(image, i as u64)?;
                let oracle = engine.forward_image_streaming(image)?;
                ledger.check("engine equals forward_image_streaming", fast == oracle);
            }
        }
        Ok(())
    }
}

/// Measures for `budget_s` seconds, interleaving batched chunks, serial
/// blocks and `retrain` calls so that each kind samples the whole run
/// rather than one stretch of it. Each next unit is the kind furthest
/// below its share of the time spent so far. The minimum work of every
/// kind always runs; with `budget_s` = 0 only that.
pub fn measure(subject: &mut Subject<'_>, budget_s: f64, ledger: &mut Ledger) -> Result<Passes> {
    let plan = subject.plan;
    subject.warm_up()?;
    let kinds = [Kind::Chunk, Kind::SerialBlock, Kind::Retrain];
    let minimum = [plan.min_chunks, plan.serial_min / plan.serial_block, plan.retrain.calls];
    let mut done = [0usize; 3];
    let mut spent = [0.0f64; 3];
    let mut out = Passes::default();
    let start = Instant::now();
    loop {
        let next = if start.elapsed().as_secs_f64() < budget_s {
            (0..3).min_by(|&a, &b| {
                (spent[a] / plan.shares[a]).total_cmp(&(spent[b] / plan.shares[b]))
            })
        } else {
            (0..3).find(|&k| done[k] < minimum[k])
        };
        let Some(k) = next else { break };
        let scored = done[k] < minimum[k];
        let adjusted = match kinds[k] {
            Kind::Chunk => {
                ledger.calls(1);
                subject.chunk(done[k], scored, &mut out)?
            }
            Kind::SerialBlock => {
                ledger.calls(plan.serial_block);
                subject.serial_block(done[k], scored, &mut out)?
            }
            Kind::Retrain => subject.retrain_call(done[k], &mut out, ledger)?,
        };
        spent[k] += adjusted;
        done[k] += 1;
        if scored {
            out.fixed_s += adjusted;
        }
    }
    out.spans = trace::drain();
    Ok(out)
}

/// The `p`-quantile of `values`, or an error naming what had no samples.
pub fn quantile_of(values: &[f64], p: f64, what: &str) -> Result<f64> {
    if values.is_empty() {
        return Err(format!("no {what} samples").into());
    }
    Ok(quantile(values, p))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn plans_keep_their_invariants() {
        for w in Workload::ALL {
            let plan = w.plan();
            assert!(plan.serial_min >= 200, "{w:?}: p95 needs ten samples beyond it");
            assert_eq!(plan.serial_min % plan.serial_block, 0, "{w:?}");
            assert!(plan.agree_frames <= plan.serial_block, "{w:?}");
            assert!(plan.retrain.epochs >= 2, "{w:?}");
        }
    }

    #[test]
    fn traced_tail_keeps_the_program() {
        let images = |n, s| synthetic::generate(n, mix(s, stream::CHECK, 1));
        let config = TrainConfig {
            epochs: 1,
            batch_size: 16,
            learning_rate: 2e-3,
            ..TrainConfig::default()
        };
        let base = train_base(&images(40, 1), &images(20, 2), &config).unwrap();
        let traced = wrap::traced_tail(base.tail_clone());
        assert_eq!(traced.summary(), base.tail.summary());
        assert_eq!(weight_bits(&traced), weight_bits(&base.tail));
        let x = Tensor::from_vec(vec![0.5; 32 * 14 * 14], &[1, 32, 14, 14]).unwrap();
        let mut a = traced.clone();
        let mut b = base.tail_clone();
        a.reseed_dropout(9);
        b.reseed_dropout(9);
        assert_eq!(a.forward(&x, true).unwrap().data(), b.forward(&x, true).unwrap().data());
    }
}
