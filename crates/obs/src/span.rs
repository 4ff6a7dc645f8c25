//! RAII span tracing over a thread-local stack.
//!
//! [`span`] returns a guard that measures the enclosed scope. Durations and
//! call counts aggregate into a thread-local table (no atomics while spans
//! are running) and flush into the global registry as `stage/<stage>`
//! histograms whenever the thread's outermost span ends — so worker threads
//! merge their aggregates exactly once per pass, and merged call counts are
//! exact for any `SCNN_THREADS`.

use crate::metrics::{bucket_index, registry, HISTOGRAM_BUCKETS};
use crate::metrics_enabled;
use std::cell::RefCell;
use std::collections::HashMap;
use std::time::Instant;

/// Thread-local aggregate for one span stage.
struct LocalAgg {
    calls: u64,
    total_ns: u64,
    max_ns: u64,
    buckets: [u64; HISTOGRAM_BUCKETS],
}

impl Default for LocalAgg {
    fn default() -> Self {
        Self { calls: 0, total_ns: 0, max_ns: 0, buckets: [0; HISTOGRAM_BUCKETS] }
    }
}

#[derive(Default)]
struct SpanState {
    /// Active span stages, innermost last.
    stack: Vec<&'static str>,
    aggs: HashMap<&'static str, LocalAgg>,
}

impl SpanState {
    fn record(&mut self, key: &'static str, duration_ns: u64) {
        let agg = self.aggs.entry(key).or_default();
        agg.calls += 1;
        agg.total_ns += duration_ns;
        agg.max_ns = agg.max_ns.max(duration_ns);
        agg.buckets[bucket_index(duration_ns)] += 1;
    }

    fn flush(&mut self) {
        let reg = registry();
        for (key, agg) in self.aggs.drain() {
            reg.histogram(&format!("stage/{key}")).merge(
                &agg.buckets,
                agg.calls,
                agg.total_ns,
                agg.max_ns,
            );
        }
    }
}

thread_local! {
    static SPAN_STATE: RefCell<SpanState> = RefCell::new(SpanState::default());
}

struct ActiveSpan {
    /// Stack depth right after this span was pushed (1 = outermost).
    depth: usize,
    start: Instant,
}

/// RAII guard returned by [`span`]; the enclosed scope's wall time is
/// recorded when the guard drops.
///
/// Guards are expected to drop in LIFO order (bind them to a scope). If an
/// inner guard leaks past its outer one, the stale inner entries are
/// discarded when the outer guard drops — aggregates never misattribute to
/// the wrong stage.
#[must_use = "a span measures the scope that holds the guard"]
pub struct Span(Option<ActiveSpan>);

/// Opens a span for `stage`, returning its RAII guard.
///
/// When metrics are disabled this is a single relaxed atomic load and the
/// guard is inert. Otherwise the span aggregates under `stage` itself,
/// whatever spans enclose it, and surfaces in the registry as a
/// `stage/<stage>` histogram of nanosecond durations.
///
/// ```
/// scnn_obs::force(true);
/// {
///     let _outer = scnn_obs::span("doc/outer");
///     let _inner = scnn_obs::span("doc/inner");
/// }
/// let h = scnn_obs::registry().histogram("stage/doc/inner");
/// assert!(h.count() >= 1);
/// ```
pub fn span(stage: &'static str) -> Span {
    if !metrics_enabled() {
        return Span(None);
    }
    let depth = SPAN_STATE.with(|state| {
        let mut state = state.borrow_mut();
        state.stack.push(stage);
        state.stack.len()
    });
    Span(Some(ActiveSpan { depth, start: Instant::now() }))
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(active) = self.0.take() else { return };
        let duration_ns = u64::try_from(active.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        SPAN_STATE.with(|state| {
            let mut state = state.borrow_mut();
            if state.stack.len() >= active.depth {
                // Drop any leaked inner entries, then pop our own stage.
                state.stack.truncate(active.depth);
                if let Some(key) = state.stack.pop() {
                    state.record(key, duration_ns);
                }
            }
            if state.stack.is_empty() {
                state.flush();
            }
        });
    }
}

/// Flushes this thread's span aggregates into the global registry now.
///
/// Normally unnecessary — aggregates flush automatically when the outermost
/// span on the thread ends — but exporters running on a thread that still
/// holds long-lived spans can call this to publish partial aggregates.
pub fn flush_thread_spans() {
    SPAN_STATE.with(|state| state.borrow_mut().flush());
}
