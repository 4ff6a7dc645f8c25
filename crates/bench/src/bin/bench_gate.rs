//! The CI perf gate: compares the current `BENCH.json` against the
//! previous main-branch baseline artifact and fails on >`factor`×
//! regression of any recorded timing.
//!
//! ```text
//! bench_gate <baseline.json> <current.json> [--factor 2.0]
//! ```
//!
//! A missing, empty, or unparseable baseline (first run on a branch,
//! expired or truncated artifact) is
//! tolerated: the gate reports it and exits successfully, so the perf
//! trajectory becomes a gate only once a baseline exists. A missing or
//! empty *current* record is a hard failure — it means the recording path
//! is broken, and silently passing would disable the gate forever.
//! `BENCH.json` holds nanosecond timings only, so every entry both records
//! share is gated by its value, with no rule on names. Benchmarks present
//! in only one record are skipped, which also covers the ratio, `obs/`
//! and `resilience/` keys of baselines written before the record held
//! timings alone — see [`scnn_bench::report::regressions`].

use scnn_bench::report::{regressions, BenchJson};
use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let mut factor = 2.0f64;
    let mut paths = Vec::new();
    let mut it = args.iter().skip(1);
    while let Some(arg) = it.next() {
        if arg == "--factor" {
            factor =
                it.next().and_then(|v| v.parse().ok()).expect("--factor needs a numeric argument");
        } else {
            paths.push(arg.clone());
        }
    }
    let [baseline_path, current_path] = paths.as_slice() else {
        eprintln!("usage: bench_gate <baseline.json> <current.json> [--factor 2.0]");
        return ExitCode::FAILURE;
    };

    // A missing or empty *current* record means the recording path itself
    // is broken — fail loudly (and before the baseline check, so the
    // breakage surfaces even on runs with no baseline to gate against).
    let current = BenchJson::load(Path::new(current_path));
    if current.is_empty() {
        eprintln!(
            "[bench_gate] no current timings at {current_path} — the recording path is broken"
        );
        return ExitCode::FAILURE;
    }
    // A missing baseline, by contrast, is expected (first run on a
    // branch, expired artifact) and skips the gate.
    if !Path::new(baseline_path).exists() {
        println!("[bench_gate] no baseline at {baseline_path} — skipping the perf gate");
        return ExitCode::SUCCESS;
    }
    // An existing-but-empty (or unparseable) baseline must skip with the
    // same visible message, not report "no timing regressed": a truncated
    // artifact or a format drift would otherwise disable the gate silently.
    let baseline = BenchJson::load(Path::new(baseline_path));
    if baseline.is_empty() {
        println!(
            "[bench_gate] baseline at {baseline_path} is empty or unparseable — skipping the perf gate"
        );
        return ExitCode::SUCCESS;
    }
    let found = regressions(&baseline, &current, factor);
    if found.is_empty() {
        println!("[bench_gate] no timing regressed more than {factor}× against {baseline_path}");
        return ExitCode::SUCCESS;
    }
    eprintln!("[bench_gate] {} timing(s) regressed more than {factor}×:", found.len());
    for r in &found {
        eprintln!(
            "[bench_gate]   {}: {:.3e} ns → {:.3e} ns ({:.2}×)",
            r.name,
            r.baseline,
            r.current,
            r.ratio()
        );
    }
    ExitCode::FAILURE
}
