//! End-to-end metrics from the untraced run, per-layer metrics from the
//! traced one, and the result line.

use crate::stats::{median, peak_rss_mb};
use crate::trace::{self, Span};
use crate::workload::{self, quantile_of, Ledger, Passes, Plan, Prepared, SetupTimes};
use crate::wrap;
use std::collections::HashSet;

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Printed for the reader but left out of the result line.
    pub printed_only: bool,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric { name: name.into(), value, unit, printed_only: false }
}

fn printed(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric { printed_only: true, ..metric(name, value, unit) }
}

/// The end-to-end metrics of an untraced run. Host times are
/// host-speed-adjusted (see [`crate::host`]); the raw figures are printed
/// beside them.
pub fn end_to_end(
    plan: &Plan,
    passes: &Passes,
    prepared: &Prepared,
    setups: &[SetupTimes],
) -> workload::Result<Vec<Metric>> {
    let p = |values: &[f64], q: f64, what: &str| quantile_of(values, q, what);
    let (lat, raw_lat) = (&passes.latencies_ms, &passes.raw_latencies_ms);
    let setup: Vec<f64> = setups.iter().map(|t| t.total_s).collect();
    let rss = peak_rss_mb().ok_or("the platform reports no peak resident memory")?;
    Ok(vec![
        metric("frames_per_s", p(&passes.chunk_fps, 0.5, "batched chunk")?, "frames/s"),
        printed("raw_frames_per_s", p(&passes.raw_chunk_fps, 0.5, "batched chunk")?, "frames/s"),
        printed("chunks", passes.chunk_fps.len() as f64, "count"),
        metric("frame_ms_p50", p(lat, 0.50, "serial frame")?, "ms"),
        metric("frame_ms_p95", p(lat, 0.95, "serial frame")?, "ms"),
        printed("raw_frame_ms_p50", p(raw_lat, 0.50, "serial frame")?, "ms"),
        printed("raw_frame_ms_p95", p(raw_lat, 0.95, "serial frame")?, "ms"),
        printed("frames", lat.len() as f64, "count"),
        metric("retrain_s", p(&passes.retrain_s, 0.5, "retrain call")?, "s"),
        printed("raw_retrain_s", p(&passes.raw_retrain_s, 0.5, "retrain call")?, "s"),
        printed("retrain_calls", passes.retrain_s.len() as f64, "count"),
        metric("misclassification_pct", passes.misclassification_pct(plan), "%"),
        metric("modeled_energy_nj_per_frame", prepared.energy_nj, "nJ"),
        metric("setup_s", median(&setup), "s"),
        metric("peak_rss_mb", rss, "MB"),
    ])
}

/// Per-layer metrics, plus the share of the traced frames' wall time no
/// stage span covers.
pub struct Layers {
    pub metrics: Vec<Metric>,
    pub unattributed_share: f64,
}

/// The spans opened directly under a span named `root`: everything a
/// batched chunk, serial frame or `retrain` call caused, on any thread.
fn under<'a>(spans: &'a [Span], root: &str) -> Vec<&'a Span> {
    let roots: HashSet<u64> = spans.iter().filter(|s| s.name == root).map(|s| s.id).collect();
    spans.iter().filter(|s| roots.contains(&s.parent)).collect()
}

fn named<'a>(spans: &'a [&'a Span], name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
    spans.iter().copied().filter(move |s| s.name == name)
}

fn durations_us<'a>(spans: impl Iterator<Item = &'a Span>) -> Vec<f64> {
    spans.map(|s| s.duration() as f64 / 1e3).collect()
}

fn sum_s<'a>(spans: impl Iterator<Item = &'a Span>) -> f64 {
    spans.map(|s| s.duration() as f64 / 1e9).sum()
}

fn wall_ns(spans: &[Span], root: &str) -> u64 {
    spans.iter().filter(|s| s.name == root).map(Span::duration).sum()
}

/// Busy time of the spans under `root`, divided by the roots' summed wall
/// time and the worker-thread count.
fn utilization(spans: &[Span], root: &str, threads: usize) -> f64 {
    trace::busy_ns(&under(spans, root)) as f64 / (wall_ns(spans, root) as f64 * threads as f64)
}

/// The per-layer metrics of a traced run. Span times are raw host time.
pub fn per_layer(
    prepared: &Prepared,
    setups: &[SetupTimes],
    untraced: &Passes,
    traced: &Passes,
    threads: usize,
) -> workload::Result<Layers> {
    let spans = &traced.spans;
    let all: Vec<&Span> = spans.iter().collect();
    let frame = under(spans, workload::FRAME);
    let retrain = under(spans, workload::RETRAIN);
    let setup = workload::median_setup(setups);
    let p50 = |name: &str| quantile_of(&durations_us(named(&frame, name)), 0.5, name);
    let head = durations_us(named(&frame, wrap::HEAD_FORWARD));
    let mut out = vec![
        metric("nn.data.generate_ms", setup.generate_ms, "ms"),
        metric("core.retrain.train_base_s", setup.train_base_s, "s"),
        metric("core.scenario.compile_ms", setup.compile_ms, "ms"),
        metric("hw.activity_ms", setup.activity_ms, "ms"),
        metric("core.stochastic.forward_us_p50", quantile_of(&head, 0.50, "head")?, "us"),
        metric("core.stochastic.forward_us_p95", quantile_of(&head, 0.95, "head")?, "us"),
        metric("core.stochastic.calls", named(&all, wrap::HEAD_FORWARD).count() as f64, "count"),
        metric("core.stochastic.busy_s", sum_s(named(&all, wrap::HEAD_FORWARD)), "s"),
        metric("nn.pool1.forward_us_p50", p50(workload::POOL1)?, "us"),
    ];

    let tail = &prepared.base.tail;
    let stages: Vec<String> = (0..tail.len())
        .map(|i| wrap::tail_stage(i, tail.layer(i).expect("index below len").name()))
        .collect();
    for stage in &stages {
        out.push(metric(
            format!("{stage}.forward_us_p50"),
            p50(&format!("{stage}.forward"))?,
            "us",
        ));
    }
    for stage in &stages {
        for pass in ["forward", "backward"] {
            let busy = sum_s(named(&retrain, &format!("{stage}.{pass}")));
            out.push(metric(format!("{stage}.{pass}_busy_s"), busy, "s"));
        }
    }

    out.push(metric("nn.data.busy_ms", sum_s(named(&all, wrap::DATA_READ)) * 1e3, "ms"));
    let head_calls = named(&retrain, wrap::HEAD_FORWARD).count();
    out.push(metric(
        "core.stochastic.calls_per_image",
        head_calls as f64 / traced.retrain_images as f64,
        "ratio",
    ));
    let retrain_self: Vec<f64> = spans
        .iter()
        .zip(trace::self_times(spans))
        .filter(|(s, _)| s.name == workload::RETRAIN)
        .map(|(_, ns)| ns as f64 / 1e9)
        .collect();
    out.push(metric("core.retrain.self_s", quantile_of(&retrain_self, 0.5, "retrain")?, "s"));
    out.push(metric("parallel.utilization", utilization(spans, workload::CHUNK, threads), "ratio"));
    out.push(metric(
        "parallel.retrain_utilization",
        utilization(spans, workload::RETRAIN, threads),
        "ratio",
    ));
    out.push(metric("trace.overhead_x", traced.fixed_s / untraced.fixed_s, "ratio"));

    // The stage spans (head, pool1, tail layers) are the children of each
    // frame span; what they leave uncovered is glue outside every stage.
    let stage_ns: u64 = frame.iter().map(|s| s.duration()).sum();
    let unattributed_share = 1.0 - stage_ns as f64 / wall_ns(spans, workload::FRAME) as f64;
    out.push(metric("trace.unattributed_pct", 100.0 * unattributed_share, "%"));
    Ok(Layers { metrics: out, unattributed_share })
}

/// The result line: `correct`, `attempted`, `failed` and every metric with
/// its unit.
pub fn result_json(ledger: &Ledger, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .filter(|m| !m.printed_only)
        .map(|m| {
            let value = if m.value.is_finite() { format!("{}", m.value) } else { "null".into() };
            format!("\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}", m.name, m.unit)
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        ledger.failed == 0,
        ledger.attempted,
        ledger.failed,
        body.join(", ")
    )
}
