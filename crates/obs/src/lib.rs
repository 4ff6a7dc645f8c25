//! # scnn-obs — zero-dependency metrics and span tracing
//!
//! A hand-rolled observability layer (no crates.io, like `vendor/rand`) used
//! across the `scnn` workspace: a global [`MetricsRegistry`] holding atomic
//! [`Counter`]s, [`Gauge`]s, and fixed-bucket log2 [`Histogram`]s with
//! rank-exact p50/p90/p99 extraction and an exact maximum, plus lightweight
//! span tracing ([`span`] returns an RAII [`Span`] guard over a thread-local
//! stack) that aggregates per-stage durations and call counts and merges them
//! deterministically into the registry when each thread's outermost span ends.
//!
//! ## Runtime toggle
//!
//! One environment toggle, [`METRICS_ENV`] (`SCNN_METRICS`), switches
//! counters, gauges and span histograms on, so the library can stay wired
//! through hot paths permanently. Accepted values: `on`/`1`/`true`/`yes` and
//! `off`/`0`/`false`/`no` (unset or empty means off). Anything else is
//! reported with the offending value and this grammar — see [`parse_toggle`].
//!
//! The **off-path is a single relaxed atomic load**: [`metrics_enabled`]
//! reads one `AtomicU8` and instrumented call sites do no other work when it
//! returns `false`.
//!
//! ## Exporters
//!
//! * [`MetricsRegistry::snapshot`] — a sorted `(key, f64)` list for
//!   programs that read values back, such as the benches that print stage
//!   percentiles.
//! * [`MetricsRegistry::render_text`] — Prometheus-style text exposition,
//!   which the harness binaries write to stdout or to a file and which a
//!   future serving layer could scrape.
//!
//! Neither feeds `BENCH.json`, which holds timings only.
//!
//! ```
//! use scnn_obs::{force, registry, span};
//!
//! force(true); // or SCNN_METRICS=on in the environment
//! registry().counter("demo/images").add(2);
//! {
//!     let _guard = span("demo/forward");
//!     // ... work measured here ...
//! }
//! let snap = registry().snapshot();
//! assert!(snap.iter().any(|(k, v)| k == "demo/images" && *v == 2.0));
//! assert!(snap.iter().any(|(k, _)| k == "stage/demo/forward/count"));
//! ```

mod metrics;
mod span;

pub use metrics::{registry, Counter, Gauge, Histogram, MetricsRegistry, HISTOGRAM_BUCKETS};
pub use span::{flush_thread_spans, span, Span};

use std::sync::atomic::{AtomicU8, Ordering};

/// Environment variable enabling the metrics registry (`SCNN_METRICS`).
pub const METRICS_ENV: &str = "SCNN_METRICS";

const STATE_UNINIT: u8 = 0;
const STATE_OFF: u8 = 1;
const STATE_ON: u8 = 2;

/// Toggle state: not yet read from the environment, off, or on.
static STATE: AtomicU8 = AtomicU8::new(STATE_UNINIT);

/// Returns `true` when metric recording is enabled.
///
/// This is the hot-path gate: once initialised it is a single relaxed atomic
/// load. The first call lazily initialises from [`METRICS_ENV`] and
/// **panics** with the offending value and the accepted grammar if the
/// variable fails to parse (call [`init_from_env`] at program start to
/// surface that error as a `Result` instead).
#[inline]
pub fn metrics_enabled() -> bool {
    match STATE.load(Ordering::Relaxed) {
        STATE_UNINIT => init_slow(),
        state => state == STATE_ON,
    }
}

#[cold]
fn init_slow() -> bool {
    match init_from_env() {
        Ok(()) => STATE.load(Ordering::Relaxed) == STATE_ON,
        Err(message) => panic!("{message}"),
    }
}

/// Initialises the toggle from the environment, reporting parse errors.
///
/// Harness binaries call this once at startup so a typo in `SCNN_METRICS`
/// fails fast with a clean message instead of panicking inside the first
/// instrumented forward pass. Calling it again re-reads the environment
/// (later [`force`] calls still win).
///
/// # Errors
///
/// Returns the human-readable message from [`parse_toggle`] when the
/// variable holds an unrecognised value.
///
/// ```
/// scnn_obs::init_from_env().expect("SCNN_METRICS should parse");
/// ```
pub fn init_from_env() -> Result<(), String> {
    let on = match std::env::var(METRICS_ENV) {
        Ok(value) => parse_toggle(METRICS_ENV, &value)?,
        Err(_) => false,
    };
    force(on);
    Ok(())
}

/// Parses one `on`/`off` environment toggle value.
///
/// Accepted grammar (ASCII case-insensitive): `on`, `1`, `true`, `yes` for
/// enabled; `off`, `0`, `false`, `no`, or the empty string for disabled.
///
/// # Errors
///
/// Anything else returns a message naming the variable, echoing the offending
/// value, and restating the grammar:
///
/// ```
/// let err = scnn_obs::parse_toggle("SCNN_METRICS", "yolo").unwrap_err();
/// assert!(err.contains("SCNN_METRICS"));
/// assert!(err.contains("\"yolo\""));
/// assert!(err.contains("on/1/true/yes"));
/// ```
pub fn parse_toggle(name: &str, value: &str) -> Result<bool, String> {
    match value.trim().to_ascii_lowercase().as_str() {
        "on" | "1" | "true" | "yes" => Ok(true),
        "off" | "0" | "false" | "no" | "" => Ok(false),
        _ => Err(format!(
            "{name}={value:?} is not a recognised toggle: expected on/1/true/yes or \
             off/0/false/no (unset or empty means off)"
        )),
    }
}

/// Programmatically overrides the toggle, bypassing the environment.
///
/// Intended for benches and tests that need metrics on without mutating the
/// process environment.
///
/// ```
/// scnn_obs::force(true);
/// assert!(scnn_obs::metrics_enabled());
/// scnn_obs::force(false);
/// assert!(!scnn_obs::metrics_enabled());
/// ```
pub fn force(on: bool) {
    STATE.store(if on { STATE_ON } else { STATE_OFF }, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::parse_toggle;

    #[test]
    fn toggle_grammar_accepts_on_and_off_spellings() {
        for on in ["on", "1", "true", "yes", "ON", "True", " yes "] {
            assert_eq!(parse_toggle("X", on), Ok(true), "{on:?}");
        }
        for off in ["off", "0", "false", "no", "", "OFF", " 0 "] {
            assert_eq!(parse_toggle("X", off), Ok(false), "{off:?}");
        }
    }

    #[test]
    fn toggle_error_reports_value_and_grammar() {
        let err = parse_toggle("SCNN_METRICS", "maybe").unwrap_err();
        assert!(err.contains("SCNN_METRICS"), "{err}");
        assert!(err.contains("\"maybe\""), "{err}");
        assert!(err.contains("on/1/true/yes"), "{err}");
        assert!(err.contains("off/0/false/no"), "{err}");
    }
}
