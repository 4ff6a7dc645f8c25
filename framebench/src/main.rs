//! Frame benchmark of the hybrid stochastic-binary LeNet.
//!
//! ```sh
//! cargo run --release --manifest-path framebench/Cargo.toml -- \
//!     --workload lut_frames --seed 1 --seconds 10 --trace 0
//! ```
//!
//! One run sets the network up three times (data synthesis, base-model
//! training, engine compilation, activity measurement), then measures for
//! `--seconds`, interleaving three kinds of work on fresh frames made from
//! `--seed`: batched chunks through `HybridLenet::evaluate`, closed-loop
//! single-frame classification, and §V-B `retrain` calls. It checks the
//! outputs and prints every metric with its unit; the last line of
//! standard output is one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`. `failed / attempted` is the
//! failure ratio, printed as `failed_ratio`.
//!
//! Host times in the result line are host-speed-adjusted (see [`host`]):
//! each unit of work is bracketed by a fixed reference kernel, and its
//! time is scaled by how much slower than nominal that kernel ran. The raw
//! figures are printed beside them.
//!
//! `--trace 0` reports the end-to-end metrics. `--trace 1` repeats the
//! minimum work with spans recorded at the library's public trait
//! boundaries, reports per-layer metrics (raw span times), and writes the
//! spans to `$CARGO_TARGET_DIR/framebench/` (default `target/framebench/`).
//! `BENCHMARK.json` at the repository root lists the workloads and metrics.

mod host;
mod metrics;
mod stats;
mod trace;
mod workload;
mod wrap;

use metrics::Metric;
use workload::{Ledger, Subject, Workload};

/// Environment switches that put caches or instrumentation into the
/// measured path; the benchmark refuses to run under any of them.
const REFUSED_ENV: [&str; 4] =
    ["SCNN_WINDOW_CACHE", "SCNN_FEATURE_CACHE", "SCNN_METRICS", "SCNN_TRACE"];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value:?}; expected one of {names:?}")
                })?);
            }
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                seconds = value.parse().map_err(|e| bad(&e))?;
                if !(0.0..=120.0).contains(&seconds) {
                    return Err(bad(&"expected 0 to 120"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, seed, seconds, trace })
}

/// Pins the worker-thread count to at most the number of processors and
/// refuses switches that would change what is measured. Returns
/// `(nproc, threads)`.
fn pin_environment() -> Result<(usize, usize), String> {
    if let Some(var) = REFUSED_ENV.iter().find(|v| std::env::var_os(v).is_some()) {
        return Err(format!("{var} is set; unset it to benchmark the default engine"));
    }
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let requested = std::env::var("SCNN_THREADS").ok().and_then(|v| v.trim().parse().ok());
    let threads = requested.filter(|&t: &usize| t >= 1).map_or(nproc, |t| t.min(nproc));
    std::env::set_var("SCNN_THREADS", threads.to_string());
    Ok((nproc, threads))
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("framebench: {e}");
            std::process::exit(2);
        }
    };
    let (nproc, threads) = match pin_environment() {
        Ok(pinned) => pinned,
        Err(e) => {
            eprintln!("framebench: {e}");
            std::process::exit(2);
        }
    };
    match run(&args, threads) {
        Ok((ledger, metrics)) => {
            println!(
                "# framebench workload={} seed={} seconds={} trace={} nproc={nproc} threads={threads} rustc=\"{}\"",
                args.workload.name(),
                args.seed,
                args.seconds,
                u8::from(args.trace),
                env!("FRAMEBENCH_RUSTC"),
            );
            for m in &metrics {
                println!("{:<44} {:>16.6} {}", m.name, m.value, m.unit);
            }
            println!(
                "{:<44} {:>16.6} ratio ({} of {} calls)",
                "failed_ratio",
                ledger.failed as f64 / ledger.attempted.max(1) as f64,
                ledger.failed,
                ledger.attempted
            );
            for failure in &ledger.failures {
                println!("# failed check: {failure}");
            }
            println!("{}", metrics::result_json(&ledger, &metrics));
        }
        Err(e) => {
            eprintln!("framebench: {e}");
            std::process::exit(1);
        }
    }
}

fn run(args: &Args, threads: usize) -> workload::Result<(Ledger, Vec<Metric>)> {
    let plan = args.workload.plan();
    let mut ledger = Ledger::default();
    let (prepared, setups) = workload::set_up_repeatedly(&plan, args.seed, threads, &mut ledger)?;
    let mut subject = Subject::new(plan, args.seed, threads, &prepared);
    subject.check_engine(&mut ledger)?;
    let untraced = workload::measure(&mut subject, args.seconds, &mut ledger)?;
    let agree = subject.batched_agreement()?;
    ledger.check("serial and batched passes agree", agree == untraced.agree_correct);
    if !args.trace {
        let metrics = metrics::end_to_end(&plan, &untraced, &prepared, &setups)?;
        return Ok((ledger, metrics));
    }
    trace::set_enabled(true);
    let traced = workload::measure(&mut subject, 0.0, &mut ledger)?;
    trace::set_enabled(false);
    ledger.check(
        "traced run classifies like the untraced run",
        traced.misclassification_pct(&plan) == untraced.misclassification_pct(&plan),
    );
    ledger.check(
        "traced run retrains like the untraced run",
        untraced.reports.starts_with(&traced.reports),
    );
    let layers = metrics::per_layer(&prepared, &setups, &untraced, &traced, threads)?;
    ledger.check(
        "stage self times add up to the serial wall time",
        layers.unattributed_share.abs() <= workload::STAGE_TOLERANCE,
    );
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    let path = std::path::Path::new(&target).join("framebench").join(format!(
        "trace-{}-seed{}.tsv",
        args.workload.name(),
        args.seed
    ));
    trace::write_tsv(&path, &traced.spans)?;
    eprintln!("framebench: wrote {} spans to {}", traced.spans.len(), path.display());
    Ok((ledger, layers.metrics))
}
