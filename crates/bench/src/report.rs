//! Minimal markdown table rendering for harness output, plus the
//! machine-readable `BENCH.json` timing record the perf trajectory is
//! tracked with.

use std::path::{Path, PathBuf};
use std::time::Instant;

/// The one documented home of the `BENCH.json` key-naming conventions.
///
/// Every bin and bench builds its record names through these helpers, so
/// the conventions — the `bin/<name>` prefix, per-precision `/<bits>`
/// suffixes, and the `obs/` observability namespace — live in one place
/// instead of being re-`format!`ed per harness.
pub mod key {
    /// A harness binary's whole-run wall clock: `bin/<name>`.
    ///
    /// ```
    /// use scnn_bench::report::key;
    ///
    /// assert_eq!(key::bin("retrain_ablation"), "bin/retrain_ablation");
    /// ```
    pub fn bin(name: &str) -> String {
        format!("bin/{name}")
    }

    /// Per-precision measurement: `<group>/<metric>/<bits>`, e.g.
    /// `forward_image/tff_lut/8`.
    ///
    /// ```
    /// use scnn_bench::report::key;
    ///
    /// assert_eq!(key::per_bits("forward_image", "tff_lut", 8), "forward_image/tff_lut/8");
    /// ```
    pub fn per_bits(group: &str, metric: &str, bits: u32) -> String {
        format!("{group}/{metric}/{bits}")
    }

    /// Per-batch-size measurement: `<group>/<metric>/b<batch>`, e.g.
    /// `tail/conv2_forward/b8`.
    ///
    /// ```
    /// use scnn_bench::report::key;
    ///
    /// assert_eq!(key::per_batch("tail", "conv2_forward", 8), "tail/conv2_forward/b8");
    /// ```
    pub fn per_batch(group: &str, metric: &str, batch: usize) -> String {
        format!("{group}/{metric}/b{batch}")
    }

    /// An observability export: `obs/<metric>`, where `<metric>` is a
    /// [`scnn_obs::MetricsRegistry::snapshot`] key (so counters come out as
    /// `obs/nn/images_evaluated` and stage latencies as
    /// `obs/stage/conv/forward/p50`). The perf gate skips everything under
    /// `obs/` (see [`is_non_timing`](super::is_non_timing)).
    ///
    /// ```
    /// use scnn_bench::report::key;
    ///
    /// assert_eq!(key::obs("stage/conv/forward/p50"), "obs/stage/conv/forward/p50");
    /// ```
    pub fn obs(metric: &str) -> String {
        format!("obs/{metric}")
    }

    /// A per-precision observability export: `obs/<metric>/<bits>` — the
    /// `forward_image`/`dense_forward` benches record stage percentiles per
    /// precision this way.
    ///
    /// ```
    /// use scnn_bench::report::key;
    ///
    /// assert_eq!(key::obs_bits("stage/conv/fold/p99", 6), "obs/stage/conv/fold/p99/6");
    /// ```
    pub fn obs_bits(metric: &str, bits: u32) -> String {
        format!("obs/{metric}/{bits}")
    }

    /// A fault-resilience measurement: `resilience/<metric>` — accuracy
    /// points of the degradation campaign
    /// (`resilience/accuracy/<design>/<bits>/<fault>`), derived speedups,
    /// and curve health flags. The whole namespace is non-timing: the perf
    /// gate skips every `resilience/` entry (accuracies move with model
    /// quality, not runtime), while the campaign's wall clock still gates
    /// under `bin/fault_campaign`.
    ///
    /// ```
    /// use scnn_bench::report::key;
    ///
    /// assert_eq!(
    ///     key::resilience("accuracy/this-work/6/ber-0.01"),
    ///     "resilience/accuracy/this-work/6/ber-0.01"
    /// );
    /// ```
    pub fn resilience(metric: &str) -> String {
        format!("resilience/{metric}")
    }
}

/// A flat, machine-readable record of benchmark measurements, written as a
/// single JSON object mapping benchmark names to numbers (nanoseconds for
/// timings; plain ratios for derived entries like speedups and overheads —
/// see [`NON_TIMING_MARKERS`] for how the perf gate tells them apart).
///
/// Every bench bin loads the existing file, overwrites its own entries, and
/// rewrites the whole file, so one CI run accumulates all harness timings
/// into one artifact that later PRs can diff.
///
/// # Example
///
/// ```
/// use scnn_bench::report::BenchJson;
///
/// let mut j = BenchJson::new();
/// j.record("forward_image/tff_lut/8", 1.5e6);
/// assert_eq!(j.get("forward_image/tff_lut/8"), Some(1.5e6));
/// let text = j.render();
/// assert_eq!(BenchJson::parse(&text).get("forward_image/tff_lut/8"), Some(1.5e6));
/// ```
#[derive(Debug, Clone, Default)]
pub struct BenchJson {
    entries: Vec<(String, f64)>,
}

impl BenchJson {
    /// An empty record.
    pub fn new() -> Self {
        Self::default()
    }

    /// Where the record lives: `$SCNN_BENCH_JSON` if set, else
    /// `BENCH.json` in the current directory.
    pub fn default_path() -> PathBuf {
        std::env::var_os("SCNN_BENCH_JSON").map_or_else(|| PathBuf::from("BENCH.json"), Into::into)
    }

    /// Loads the record at `path`; a missing or unreadable file yields an
    /// empty record (bins merge into whatever already exists).
    pub fn load(path: &Path) -> Self {
        std::fs::read_to_string(path).map(|text| Self::parse(&text)).unwrap_or_default()
    }

    /// Parses the exact format [`render`](Self::render) writes (one
    /// `"name": value` pair per line); unparseable lines are skipped.
    pub fn parse(text: &str) -> Self {
        let mut entries = Vec::new();
        for line in text.lines() {
            let Some((name_part, value_part)) = line.rsplit_once(':') else { continue };
            let name: String = name_part.trim().trim_matches('"').to_string();
            if name.is_empty() || name == "{" {
                continue;
            }
            if let Ok(value) = value_part.trim().trim_end_matches(',').parse::<f64>() {
                entries.push((name, value));
            }
        }
        Self { entries }
    }

    /// Inserts or overwrites one measurement.
    pub fn record(&mut self, name: &str, value: f64) {
        if let Some(entry) = self.entries.iter_mut().find(|(n, _)| n == name) {
            entry.1 = value;
        } else {
            self.entries.push((name.to_string(), value));
        }
    }

    /// Looks up a measurement by exact name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.entries.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Iterates the recorded `(name, value)` pairs in insertion order.
    pub fn entries(&self) -> impl Iterator<Item = (&str, f64)> {
        self.entries.iter().map(|(n, v)| (n.as_str(), *v))
    }

    /// Number of recorded measurements.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the record holds no measurements.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Renders the record as a JSON object, names sorted for stable diffs.
    pub fn render(&self) -> String {
        let mut sorted: Vec<&(String, f64)> = self.entries.iter().collect();
        sorted.sort_by(|a, b| a.0.cmp(&b.0));
        let mut out = String::from("{\n");
        for (i, (name, value)) in sorted.iter().enumerate() {
            let comma = if i + 1 < sorted.len() { "," } else { "" };
            out.push_str(&format!("  \"{name}\": {value}{comma}\n"));
        }
        out.push_str("}\n");
        out
    }

    /// Writes the record to `path`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, self.render())
    }
}

/// Wall-clock stopwatch for whole-harness timings.
///
/// # Example
///
/// ```
/// use scnn_bench::report::Stopwatch;
///
/// let sw = Stopwatch::start();
/// let ns = sw.elapsed_ns();
/// assert!(ns >= 0.0);
/// ```
#[derive(Debug)]
pub struct Stopwatch(Instant);

impl Stopwatch {
    /// Starts timing now.
    pub fn start() -> Self {
        Self(Instant::now())
    }

    /// Nanoseconds elapsed since [`start`](Self::start).
    pub fn elapsed_ns(&self) -> f64 {
        self.0.elapsed().as_nanos() as f64
    }
}

/// Records one whole-run timing into the default `BENCH.json` (merging with
/// existing entries). Errors are reported, not fatal — timings must never
/// fail a harness.
pub fn record_run_ns(name: &str, ns: f64) {
    let path = BenchJson::default_path();
    let mut json = BenchJson::load(&path);
    json.record(name, ns);
    if let Err(e) = json.write(&path) {
        eprintln!("[report] note: could not write {}: {e}", path.display());
    }
}

/// Environment variable naming a file the rendered metrics snapshot
/// ([`scnn_obs::MetricsRegistry::render_text`]) is written to after a
/// [`timed_run`] — how CI captures the bench-smoke metrics artifact.
pub const METRICS_OUT_ENV: &str = "SCNN_METRICS_OUT";

/// Runs a whole harness under a stopwatch and records its wall-clock time
/// as [`key::bin`]`(name)` in `BENCH.json` — the one-line `main` wrapper
/// every table/ablation binary uses.
///
/// Observability hooks:
///
/// - the `SCNN_METRICS`/`SCNN_TRACE` toggles are validated up front (a
///   typo fails the harness at startup, not mid-run);
/// - a `--metrics` CLI argument forces metrics on for this run and dumps
///   the Prometheus-style rendering to stdout at the end;
/// - when metrics end up enabled, the registry snapshot is merged into
///   `BENCH.json` under the [`key::obs`] namespace, and
///   [`METRICS_OUT_ENV`] names an optional file for the rendered text.
///
/// # Panics
///
/// Panics on an unparseable `SCNN_METRICS`/`SCNN_TRACE` value (see
/// [`crate::setup::obs_env_init`]).
pub fn timed_run(name: &str, run: impl FnOnce()) {
    crate::setup::obs_env_init();
    let dump_stdout = std::env::args().any(|arg| arg == "--metrics");
    if dump_stdout {
        scnn_obs::force(true, scnn_obs::trace_enabled());
    }
    let stopwatch = Stopwatch::start();
    run();
    record_run_ns(&key::bin(name), stopwatch.elapsed_ns());
    export_metrics(dump_stdout);
}

/// Post-run metrics export behind [`timed_run`]: flushes this thread's
/// spans, merges the registry snapshot into `BENCH.json` under `obs/`,
/// honors [`METRICS_OUT_ENV`], and optionally prints the rendered text.
/// A no-op when metrics are disabled.
fn export_metrics(dump_stdout: bool) {
    if !scnn_obs::metrics_enabled() {
        return;
    }
    scnn_obs::flush_thread_spans();
    let registry = scnn_obs::registry();
    let path = BenchJson::default_path();
    let mut json = BenchJson::load(&path);
    for (metric, value) in registry.snapshot() {
        json.record(&key::obs(&metric), value);
    }
    if let Err(e) = json.write(&path) {
        eprintln!("[report] note: could not write {}: {e}", path.display());
    }
    if let Some(out) = std::env::var_os(METRICS_OUT_ENV).filter(|v| !v.is_empty()) {
        let rendered = registry.render_text();
        if let Err(e) = std::fs::write(&out, rendered) {
            eprintln!("[report] note: could not write metrics snapshot to {out:?}: {e}");
        }
    }
    if dump_stdout {
        println!("{}", registry.render_text());
    }
}

/// One perf-gate violation: a recorded timing that grew by more than the
/// allowed factor relative to the baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    /// Benchmark name.
    pub name: String,
    /// Baseline value (nanoseconds).
    pub baseline: f64,
    /// Current value (nanoseconds).
    pub current: f64,
}

impl Regression {
    /// `current / baseline`.
    pub fn ratio(&self) -> f64 {
        self.current / self.baseline
    }
}

/// Name markers of `BENCH.json` entries that are *not* timings: derived
/// ratios where higher is better (`speedup`) and overhead ratios
/// (`overhead`, pinned near 1.0 by their own acceptance checks rather
/// than the growth gate). The perf gate skips any entry whose name
/// contains one of these — growing a speedup is progress, not a
/// regression. The `obs/` and `resilience/` namespaces are skipped whole.
pub const NON_TIMING_MARKERS: [&str; 2] = ["speedup", "overhead"];

/// Whether a recorded name denotes a non-timing entry that the perf gate
/// must skip.
///
/// Two namespaces are non-timing wholesale. `obs/` entries are registry
/// exports: counters, gauges and span tallies that scale with workload,
/// and stage-latency percentiles read off log2-bucket histograms, whose 2×
/// resolution makes a 1% shift across a bucket boundary read as a 2×
/// regression. `resilience/` entries are accuracy points, derived ratios
/// and curve flags from the fault campaign (the campaign's wall clock
/// gates separately under `bin/fault_campaign`). Everything else falls
/// back to the [`NON_TIMING_MARKERS`] substring rule.
///
/// ```
/// use scnn_bench::report::is_non_timing;
///
/// // obs counters, tallies and log2-bucket percentiles: skipped.
/// assert!(is_non_timing("obs/nn/images_evaluated"));
/// assert!(is_non_timing("obs/stage/conv/forward/count"));
/// assert!(is_non_timing("obs/stage/conv/forward/p50"));
/// // resilience accuracies and ratios: skipped wholesale.
/// assert!(is_non_timing("resilience/accuracy/this-work/6/ber-0.01"));
/// // overhead ratios: skipped.
/// assert!(is_non_timing("forward_image/metrics_off_overhead_x"));
/// // ordinary timings: gated.
/// assert!(!is_non_timing("bin/table3_accuracy"));
/// ```
pub fn is_non_timing(name: &str) -> bool {
    matches!(name.split('/').next(), Some("obs" | "resilience"))
        || NON_TIMING_MARKERS.iter().any(|marker| name.contains(marker))
}

/// Compares two timing records and returns every entry whose current value
/// exceeds `factor ×` its baseline — the CI perf gate's core.
///
/// Only timings are gated: every name [`is_non_timing`] accepts (ratio
/// entries, `obs/` exports, `resilience/` accuracies) and entries missing
/// from either record are skipped, so adding or removing benchmarks never
/// fails the gate. Non-positive baselines are skipped too (a zero timing
/// carries no signal).
///
/// # Example
///
/// ```
/// use scnn_bench::report::{regressions, BenchJson};
///
/// let mut baseline = BenchJson::new();
/// baseline.record("bin/table1", 1e9);
/// baseline.record("forward_image/speedup_tff_lut_x/8", 12.0);
/// baseline.record("obs/nn/images_evaluated", 80.0);
/// let mut current = BenchJson::new();
/// current.record("bin/table1", 2.5e9);
/// current.record("forward_image/speedup_tff_lut_x/8", 30.0);
/// current.record("obs/nn/images_evaluated", 800.0);
/// let found = regressions(&baseline, &current, 2.0);
/// assert_eq!(found.len(), 1); // ratios and counters are not timings
/// assert_eq!(found[0].name, "bin/table1");
/// assert!((found[0].ratio() - 2.5).abs() < 1e-9);
/// ```
pub fn regressions(baseline: &BenchJson, current: &BenchJson, factor: f64) -> Vec<Regression> {
    let mut out = Vec::new();
    for (name, base_value) in &baseline.entries {
        if is_non_timing(name) || *base_value <= 0.0 {
            continue;
        }
        let Some(current_value) = current.get(name) else { continue };
        if current_value > base_value * factor {
            out.push(Regression {
                name: name.clone(),
                baseline: *base_value,
                current: current_value,
            });
        }
    }
    out
}

/// A markdown table builder.
///
/// # Example
///
/// ```
/// use scnn_bench::report::Table;
///
/// let mut t = Table::new(vec!["scheme".into(), "mse".into()]);
/// t.row(vec!["two LFSRs".into(), format!("{:.2e}", 2.57e-4)]);
/// let rendered = t.render();
/// assert!(rendered.contains("| scheme"));
/// assert!(rendered.contains("2.57e-4"));
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(headers: Vec<String>) -> Self {
        Self { headers, rows: Vec::new() }
    }

    /// Appends one row.
    ///
    /// # Panics
    ///
    /// Panics if the cell count differs from the header count.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Renders the table as aligned markdown.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let fmt_row = |cells: &[String]| {
            let padded: Vec<String> =
                cells.iter().zip(&widths).map(|(c, w)| format!("{c:<w$}", w = w)).collect();
            format!("| {} |", padded.join(" | "))
        };
        let mut out = String::new();
        out.push_str(&fmt_row(&self.headers));
        out.push('\n');
        let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        out.push_str(&format!("| {} |", sep.join(" | ")));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }
}

/// Formats an MSE in the paper's `a.bc×10^-d` style (as `a.bce-d`).
pub fn sci(v: f64) -> String {
    format!("{v:.2e}")
}

/// Formats a fraction as a percentage with two decimals.
pub fn pct(v: f64) -> String {
    format!("{:.2}%", v * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_markdown() {
        let mut t = Table::new(vec!["a".into(), "bee".into()]);
        t.row(vec!["xxxx".into(), "1".into()]);
        let r = t.render();
        let lines: Vec<&str> = r.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("| a "));
        assert!(lines[1].contains("----"));
        assert_eq!(lines[0].len(), lines[2].len());
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn rejects_ragged_rows() {
        let mut t = Table::new(vec!["a".into()]);
        t.row(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(sci(1.91e-6), "1.91e-6");
        assert_eq!(pct(0.0123), "1.23%");
    }

    #[test]
    fn bench_json_round_trips_and_merges() {
        let mut j = BenchJson::new();
        j.record("b/two", 2.5);
        j.record("a/one", 1e9);
        j.record("b/two", 3.5); // overwrite
        let text = j.render();
        // Valid, sorted, newline-terminated JSON object.
        assert!(text.starts_with("{\n  \"a/one\": 1000000000"));
        assert!(text.ends_with("}\n"));
        let parsed = BenchJson::parse(&text);
        assert_eq!(parsed.get("a/one"), Some(1e9));
        assert_eq!(parsed.get("b/two"), Some(3.5));
        assert_eq!(parsed.get("missing"), None);
    }

    #[test]
    fn bench_json_parse_tolerates_garbage() {
        let j = BenchJson::parse("{\nnot json\n  \"ok\": 7\n}\n");
        assert_eq!(j.get("ok"), Some(7.0));
        assert_eq!(BenchJson::parse("").entries.len(), 0);
    }

    #[test]
    fn bench_json_load_missing_file_is_empty() {
        let j = BenchJson::load(std::path::Path::new("/nonexistent/BENCH.json"));
        assert_eq!(j.get("anything"), None);
    }

    #[test]
    fn regressions_gate_only_real_timing_growth() {
        let mut baseline = BenchJson::new();
        baseline.record("bin/a", 100.0);
        baseline.record("bin/b", 100.0);
        baseline.record("bin/gone", 100.0);
        baseline.record("x/speedup_y/8", 10.0);
        baseline.record("train_epoch/speedup_threads_x", 1.5);
        baseline.record("x/hits_pass_ns", 100.0);
        baseline.record("bin/zero", 0.0);
        let mut current = BenchJson::new();
        current.record("bin/a", 199.0); // < 2× — fine
        current.record("bin/b", 201.0); // > 2× — regression
        current.record("bin/new", 1e12); // no baseline — skipped
        current.record("x/speedup_y/8", 100.0); // ratio entry — skipped
        current.record("train_epoch/speedup_threads_x", 0.5); // ratio — skipped
        current.record("x/hits_pass_ns", 250.0); // a timing named "hits" — gated
        current.record("bin/zero", 50.0); // zero baseline — skipped
        let found = regressions(&baseline, &current, 2.0);
        let names: Vec<&str> = found.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, ["bin/b", "x/hits_pass_ns"]);
        assert_eq!(found[0].baseline, 100.0);
        assert_eq!(found[0].current, 201.0);
        assert!(regressions(&baseline, &current, 3.0).is_empty());
        // The thread-scaling epoch timings gate; their derived ratio does not.
        assert!(!is_non_timing("train_epoch/epoch_1thread_ns"));
        assert!(!is_non_timing("train_epoch/epoch_nthreads_ns"));
    }

    #[test]
    fn key_helpers_build_the_documented_conventions() {
        assert_eq!(key::bin("table1_mse"), "bin/table1_mse");
        assert_eq!(key::per_bits("forward_image", "tff_lut", 23), "forward_image/tff_lut/23");
        assert_eq!(key::obs("nn/images_evaluated"), "obs/nn/images_evaluated");
        assert_eq!(key::obs_bits("stage/dense/fold/p50", 8), "obs/stage/dense/fold/p50/8");
    }

    #[test]
    fn obs_counters_and_gauges_are_skipped_by_the_gate() {
        // One assertion per non-timing class under obs/.
        assert!(is_non_timing("obs/nn/images_evaluated")); // counter
        assert!(is_non_timing("obs/parallel/threads")); // gauge
        assert!(is_non_timing("obs/stage/conv/forward/count")); // span tally
        assert!(is_non_timing("obs/stage/conv/forward/total_ns")); // span total
        assert!(is_non_timing("obs/conv/images")); // item counter
    }

    #[test]
    fn resilience_entries_are_skipped_wholesale_by_the_gate() {
        // Accuracy points, derived ratios, and curve flags alike.
        assert!(is_non_timing("resilience/accuracy/this-work/6/ber-0.01"));
        assert!(is_non_timing("resilience/accuracy/old-sc/4/stuck1-node30"));
        assert!(is_non_timing("resilience/speedup_fault_lut_x"));
        assert!(is_non_timing("resilience/monotone/this-work/6"));
        // The prefix rule is a whole segment, like the obs/ rule: a name
        // merely containing "resilience" elsewhere is not covered…
        assert!(!is_non_timing("bin/resilience_tooling"));
        // …and the campaign's own wall clock still gates as a timing.
        assert!(!is_non_timing("bin/fault_campaign"));
    }

    #[test]
    fn regressions_skip_resilience_entries() {
        let mut baseline = BenchJson::new();
        baseline.record("resilience/accuracy/this-work/6/ber-0.01", 0.2);
        baseline.record("bin/fault_campaign", 100.0);
        let mut current = BenchJson::new();
        current.record("resilience/accuracy/this-work/6/ber-0.01", 0.9);
        current.record("bin/fault_campaign", 500.0);
        let found = regressions(&baseline, &current, 2.0);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].name, "bin/fault_campaign");
    }

    #[test]
    fn overhead_ratios_are_skipped_by_the_gate() {
        assert!(is_non_timing("forward_image/metrics_off_overhead_x"));
        assert!(is_non_timing("forward_image/metrics_on_overhead_x/8"));
    }

    #[test]
    fn regressions_skip_every_obs_entry() {
        let mut baseline = BenchJson::new();
        baseline.record("obs/nn/images_evaluated", 10.0);
        baseline.record("obs/stage/dense/forward/p50/8", 32767.0);
        baseline.record("bin/table3_accuracy", 100.0);
        let mut current = BenchJson::new();
        current.record("obs/nn/images_evaluated", 1e6); // counter growth: skipped
                                                        // One log2 bucket up: a 2× reading from a tiny shift, skipped.
        current.record("obs/stage/dense/forward/p50/8", 65535.0);
        current.record("bin/table3_accuracy", 500.0); // a real timing: gated
        let found = regressions(&baseline, &current, 2.0);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].name, "bin/table3_accuracy");
        // Only a whole `obs` first segment opts out of the gate.
        assert!(!is_non_timing("bin/obs_export"));
    }

    #[test]
    fn stopwatch_advances() {
        let sw = Stopwatch::start();
        std::thread::sleep(std::time::Duration::from_millis(2));
        assert!(sw.elapsed_ns() >= 1e6);
    }
}
