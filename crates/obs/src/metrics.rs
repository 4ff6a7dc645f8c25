//! The global metrics registry: sharded counters, gauges, log2 histograms,
//! and the two exporters (sorted snapshot + Prometheus text exposition).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Number of shards in a [`Counter`]. Threads are round-robined onto shards,
/// so up to eight writers increment without sharing a cache line.
const COUNTER_SHARDS: usize = 8;

/// Number of buckets in a [`Histogram`]: bucket 0 holds the value `0`,
/// bucket `i >= 1` holds values in `[2^(i-1), 2^i - 1]`, and the last bucket
/// (`i = 64`) absorbs everything from `2^63` up to `u64::MAX`.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// One cache line of counter storage, padded so sharded writers never false
/// share.
#[repr(align(64))]
#[derive(Default)]
struct PaddedU64(AtomicU64);

/// Monotonic counter with per-thread sharded storage.
///
/// `add` touches a single shard chosen per thread (round-robin assignment on
/// first use), so concurrent increments from the `SCNN_THREADS` workers do
/// not contend. `get` sums all shards; because every update is an atomic
/// add, the merged total is exact for any thread count.
///
/// ```
/// let registry = scnn_obs::registry();
/// let c = registry.counter("doc/counter_demo");
/// c.add(3);
/// c.add(4);
/// assert_eq!(c.get(), 7);
/// ```
#[derive(Default)]
pub struct Counter {
    shards: [PaddedU64; COUNTER_SHARDS],
}

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Counter").field("total", &self.get()).finish()
    }
}

/// Round-robin shard assignment: each thread picks a shard once and caches
/// it in a thread-local.
fn shard_index() -> usize {
    static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static SHARD: std::cell::Cell<usize> = const { std::cell::Cell::new(usize::MAX) };
    }
    SHARD.with(|cell| {
        let cached = cell.get();
        if cached != usize::MAX {
            return cached;
        }
        let assigned = NEXT_SHARD.fetch_add(1, Ordering::Relaxed) % COUNTER_SHARDS;
        cell.set(assigned);
        assigned
    })
}

impl Counter {
    /// Adds `n` to the counter (relaxed; never blocks).
    #[inline]
    pub fn add(&self, n: u64) {
        self.shards[shard_index()].0.fetch_add(n, Ordering::Relaxed);
    }

    /// Returns the merged total across all shards.
    pub fn get(&self) -> u64 {
        self.shards.iter().map(|shard| shard.0.load(Ordering::Relaxed)).sum()
    }

    /// Zeroes the counter. Concurrent `add`s are not torn, just attributed
    /// to one side of the reset.
    pub fn reset(&self) {
        for shard in &self.shards {
            shard.0.store(0, Ordering::Relaxed);
        }
    }
}

/// Last-write-wins signed gauge (thread counts, cache budgets, queue depths).
///
/// ```
/// let g = scnn_obs::registry().gauge("doc/gauge_demo");
/// g.set(8);
/// g.add(-3);
/// assert_eq!(g.get(), 5);
/// ```
#[derive(Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl std::fmt::Debug for Gauge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Gauge").field("value", &self.get()).finish()
    }
}

impl Gauge {
    /// Sets the gauge to `v`.
    #[inline]
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Adds `delta` (may be negative) to the gauge.
    #[inline]
    pub fn add(&self, delta: i64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// Returns the current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// Fixed-bucket log2 histogram over `u64` samples (span durations record
/// nanoseconds).
///
/// Buckets quantise samples to powers of two ([`HISTOGRAM_BUCKETS`] of them,
/// so the full `u64` range is covered and the top bucket saturates rather
/// than drops). Percentile extraction is **rank-exact** over that bucketed
/// distribution: [`Histogram::percentile`] walks the cumulative counts to
/// the nearest-rank bucket and reports its upper bound, clamped to the
/// exactly-tracked maximum — so `p100 == max` and resolution is a factor of
/// two everywhere else.
///
/// ```
/// let h = scnn_obs::registry().histogram("doc/histogram_demo");
/// for v in [1u64, 2, 3, 4] {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 4);
/// assert_eq!(h.max(), 4);
/// assert_eq!(h.percentile(1.0), Some(4));
/// ```
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            buckets: [(); HISTOGRAM_BUCKETS].map(|()| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

/// Bucket index for a sample: 0 for 0, otherwise `floor(log2(v)) + 1`.
fn bucket_index(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

/// Inclusive upper bound of a bucket (saturating for the top bucket).
fn bucket_upper_bound(index: usize) -> u64 {
    if index == 0 {
        0
    } else if index >= 64 {
        u64::MAX
    } else {
        (1u64 << index) - 1
    }
}

impl Histogram {
    /// Records one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Merges a pre-aggregated bucket table (a thread-local span aggregate)
    /// in one pass. `buckets` must be [`HISTOGRAM_BUCKETS`] long.
    pub(crate) fn merge(&self, buckets: &[u64; HISTOGRAM_BUCKETS], count: u64, sum: u64, max: u64) {
        for (slot, &n) in self.buckets.iter().zip(buckets) {
            if n > 0 {
                slot.fetch_add(n, Ordering::Relaxed);
            }
        }
        self.count.fetch_add(count, Ordering::Relaxed);
        self.sum.fetch_add(sum, Ordering::Relaxed);
        self.max.fetch_max(max, Ordering::Relaxed);
    }

    /// Total number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all recorded samples (wrapping on overflow).
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Exact maximum recorded sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Nearest-rank percentile for `q` in `[0, 1]`, or `None` when empty.
    ///
    /// The returned value is the upper bound of the bucket holding the
    /// rank-`ceil(q * count)` sample, clamped to the exact [`Histogram::max`]
    /// — factor-of-two resolution with an exact tail.
    pub fn percentile(&self, q: f64) -> Option<u64> {
        let count = self.count();
        if count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        // Nearest-rank: the k-th smallest sample with k in [1, count].
        #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
        let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut cumulative = 0u64;
        for (index, bucket) in self.buckets.iter().enumerate() {
            cumulative += bucket.load(Ordering::Relaxed);
            if cumulative >= rank {
                return Some(bucket_upper_bound(index).min(self.max()));
            }
        }
        // Racing writers may have bumped `count` after the buckets were read;
        // fall back to the exact maximum.
        Some(self.max())
    }

    fn reset(&self) {
        for bucket in &self.buckets {
            bucket.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }
}

/// The process-global metric store; obtain it with [`registry`].
///
/// Metrics are interned by name on first use and live for the process
/// lifetime (handles are `&'static`, so hot paths can cache them). All three
/// exporters iterate name-sorted maps, which makes the rendered output
/// byte-deterministic whenever the underlying totals are deterministic —
/// counter merges are atomic adds, so totals are exact for any
/// `SCNN_THREADS`.
#[derive(Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<String, &'static Counter>>,
    gauges: Mutex<BTreeMap<String, &'static Gauge>>,
    histograms: Mutex<BTreeMap<String, &'static Histogram>>,
}

/// Returns the process-global [`MetricsRegistry`].
pub fn registry() -> &'static MetricsRegistry {
    static REGISTRY: OnceLock<MetricsRegistry> = OnceLock::new();
    REGISTRY.get_or_init(MetricsRegistry::default)
}

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    // Metric maps hold no user code while locked, so poisoning can only come
    // from a panic inside this module; recover rather than cascade.
    mutex.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn intern<M: Default + 'static>(
    map: &Mutex<BTreeMap<String, &'static M>>,
    name: &str,
) -> &'static M {
    let mut guard = lock(map);
    if let Some(existing) = guard.get(name) {
        return existing;
    }
    // One leak per distinct metric name: the set of names is small and fixed
    // by the instrumentation, and 'static handles keep the hot path free of
    // reference counting.
    let metric: &'static M = Box::leak(Box::new(M::default()));
    guard.insert(name.to_owned(), metric);
    metric
}

impl MetricsRegistry {
    /// Returns (interning on first use) the counter named `name`.
    pub fn counter(&self, name: &str) -> &'static Counter {
        intern(&self.counters, name)
    }

    /// Returns (interning on first use) the gauge named `name`.
    pub fn gauge(&self, name: &str) -> &'static Gauge {
        intern(&self.gauges, name)
    }

    /// Returns (interning on first use) the histogram named `name`.
    ///
    /// Span aggregates land in histograms named `stage/<span path>`.
    pub fn histogram(&self, name: &str) -> &'static Histogram {
        intern(&self.histograms, name)
    }

    /// Zeroes every registered metric (names stay interned).
    ///
    /// Intended for benches and tests that measure one section at a time;
    /// concurrent writers during a reset are not torn, just attributed to
    /// whichever side of the reset their atomic op lands on.
    pub fn reset(&self) {
        for counter in lock(&self.counters).values() {
            counter.reset();
        }
        for gauge in lock(&self.gauges).values() {
            gauge.reset();
        }
        for histogram in lock(&self.histograms).values() {
            histogram.reset();
        }
    }

    /// Exports every metric as a name-sorted `(key, value)` list.
    ///
    /// Key shapes (the `BENCH.json` merge prefixes each with `obs/`):
    ///
    /// * counters — `<name>` (e.g. `nn/images_evaluated`),
    /// * gauges — `<name>`,
    /// * histograms — `<name>/count`, `<name>/total_ns`, and, when
    ///   non-empty, `<name>/p50`, `<name>/p90`, `<name>/p99`, `<name>/max`.
    ///
    /// Span-derived histograms are named `stage/<span path>`, so stage
    /// latencies come out as `stage/conv/forward/p50` etc. The list is
    /// sorted, so equal totals render byte-identically for any thread count.
    #[allow(clippy::cast_precision_loss)]
    pub fn snapshot(&self) -> Vec<(String, f64)> {
        let mut out = Vec::new();
        for (name, counter) in lock(&self.counters).iter() {
            out.push((name.clone(), counter.get() as f64));
        }
        for (name, gauge) in lock(&self.gauges).iter() {
            out.push((name.clone(), gauge.get() as f64));
        }
        for (name, histogram) in lock(&self.histograms).iter() {
            out.push((format!("{name}/count"), histogram.count() as f64));
            out.push((format!("{name}/total_ns"), histogram.sum() as f64));
            if histogram.count() > 0 {
                for (suffix, q) in [("p50", 0.50), ("p90", 0.90), ("p99", 0.99)] {
                    if let Some(v) = histogram.percentile(q) {
                        out.push((format!("{name}/{suffix}"), v as f64));
                    }
                }
                out.push((format!("{name}/max"), histogram.max() as f64));
            }
        }
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Renders a Prometheus-style text exposition of every metric.
    ///
    /// Counters render as `scnn_<name>_total`, gauges as `scnn_<name>`, and
    /// histograms as summaries (`quantile` labels plus `_sum`/`_count`/
    /// `_max`). Metric names are sanitised to `[a-zA-Z0-9_]` and the output
    /// is name-sorted, hence byte-deterministic for deterministic totals.
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (name, counter) in lock(&self.counters).iter() {
            let prom = prom_name(name);
            let _ = writeln!(out, "# TYPE scnn_{prom}_total counter");
            let _ = writeln!(out, "scnn_{prom}_total {}", counter.get());
        }
        for (name, gauge) in lock(&self.gauges).iter() {
            let prom = prom_name(name);
            let _ = writeln!(out, "# TYPE scnn_{prom} gauge");
            let _ = writeln!(out, "scnn_{prom} {}", gauge.get());
        }
        for (name, histogram) in lock(&self.histograms).iter() {
            let prom = prom_name(name);
            let _ = writeln!(out, "# TYPE scnn_{prom} summary");
            for (label, q) in [("0.5", 0.50), ("0.9", 0.90), ("0.99", 0.99)] {
                let value = histogram.percentile(q).unwrap_or(0);
                let _ = writeln!(out, "scnn_{prom}{{quantile=\"{label}\"}} {value}");
            }
            let _ = writeln!(out, "scnn_{prom}_sum {}", histogram.sum());
            let _ = writeln!(out, "scnn_{prom}_count {}", histogram.count());
            let _ = writeln!(out, "scnn_{prom}_max {}", histogram.max());
        }
        out
    }
}

/// Sanitises a registry name into a Prometheus metric name fragment.
fn prom_name(name: &str) -> String {
    name.chars().map(|c| if c.is_ascii_alphanumeric() || c == '_' { c } else { '_' }).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_merges_shards_exactly() {
        let c = Counter::default();
        for _ in 0..100 {
            c.add(3);
        }
        assert_eq!(c.get(), 300);
        c.reset();
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn gauge_set_and_add() {
        let g = Gauge::default();
        g.set(10);
        g.add(-4);
        assert_eq!(g.get(), 6);
    }

    #[test]
    fn histogram_bucket_boundaries() {
        // Power-of-two boundaries land in the bucket whose upper bound is
        // 2^(i+1) - 1, and exact values below resolution clamp to max.
        let h = Histogram::default();
        h.record(0);
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_upper_bound(0), 0);
        assert_eq!(bucket_upper_bound(1), 1);
        assert_eq!(bucket_upper_bound(2), 3);
        assert_eq!(bucket_upper_bound(3), 7);
        assert_eq!(h.percentile(0.5), Some(0));
        h.record(1);
        h.record(2);
        h.record(3);
        // Samples: 0, 1, 2, 3 → p50 is rank 2 (value 1, its own bucket).
        assert_eq!(h.percentile(0.5), Some(1));
        // p99 is rank 4, bucket [2, 3], upper bound 3 == exact max.
        assert_eq!(h.percentile(0.99), Some(3));
        assert_eq!(h.max(), 3);
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 6);
    }

    #[test]
    fn histogram_percentile_clamps_to_exact_max() {
        let h = Histogram::default();
        h.record(1000); // bucket [512, 1023], upper bound 1023
        assert_eq!(h.percentile(0.5), Some(1000));
        assert_eq!(h.percentile(1.0), Some(1000));
    }

    #[test]
    fn histogram_saturates_at_max_bucket() {
        let h = Histogram::default();
        h.record(u64::MAX);
        h.record(1u64 << 63);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_index(1u64 << 63), 64);
        assert_eq!(h.count(), 2);
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.percentile(0.5), Some(u64::MAX));
    }

    #[test]
    fn histogram_empty_has_no_percentiles() {
        let h = Histogram::default();
        assert_eq!(h.percentile(0.5), None);
        assert_eq!(h.percentile(0.99), None);
        assert_eq!(h.max(), 0);
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn histogram_merge_matches_individual_records() {
        let direct = Histogram::default();
        let merged = Histogram::default();
        let mut buckets = [0u64; HISTOGRAM_BUCKETS];
        let (mut count, mut sum, mut max) = (0u64, 0u64, 0u64);
        for v in [0u64, 1, 5, 5, 1000, 70000] {
            direct.record(v);
            buckets[bucket_index(v)] += 1;
            count += 1;
            sum += v;
            max = max.max(v);
        }
        merged.merge(&buckets, count, sum, max);
        assert_eq!(direct.count(), merged.count());
        assert_eq!(direct.sum(), merged.sum());
        assert_eq!(direct.max(), merged.max());
        for q in [0.5, 0.9, 0.99, 1.0] {
            assert_eq!(direct.percentile(q), merged.percentile(q));
        }
    }

    #[test]
    fn snapshot_is_sorted_and_typed() {
        let reg = MetricsRegistry::default();
        reg.counter("z/counter").add(2);
        reg.gauge("a/gauge").set(-5);
        reg.histogram("m/stage").record(7);
        let snap = reg.snapshot();
        let keys: Vec<&str> = snap.iter().map(|(k, _)| k.as_str()).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted, "snapshot must be name-sorted");
        assert!(snap.contains(&("z/counter".to_owned(), 2.0)));
        assert!(snap.contains(&("a/gauge".to_owned(), -5.0)));
        assert!(snap.contains(&("m/stage/count".to_owned(), 1.0)));
        assert!(snap.contains(&("m/stage/p50".to_owned(), 7.0)));
        assert!(snap.contains(&("m/stage/max".to_owned(), 7.0)));
    }

    #[test]
    fn empty_histogram_snapshot_omits_percentiles() {
        let reg = MetricsRegistry::default();
        let _ = reg.histogram("empty/stage");
        let snap = reg.snapshot();
        assert!(snap.contains(&("empty/stage/count".to_owned(), 0.0)));
        assert!(!snap.iter().any(|(k, _)| k == "empty/stage/p50"));
    }

    #[test]
    fn render_text_is_prometheus_shaped() {
        let reg = MetricsRegistry::default();
        reg.counter("cache/hits").add(3);
        reg.gauge("parallel/threads").set(8);
        reg.histogram("stage/conv/forward").record(1024);
        let text = reg.render_text();
        assert!(text.contains("# TYPE scnn_cache_hits_total counter"), "{text}");
        assert!(text.contains("scnn_cache_hits_total 3"), "{text}");
        assert!(text.contains("scnn_parallel_threads 8"), "{text}");
        assert!(text.contains("scnn_stage_conv_forward{quantile=\"0.5\"} 1024"), "{text}");
        assert!(text.contains("scnn_stage_conv_forward_count 1"), "{text}");
    }

    #[test]
    fn reset_zeroes_but_keeps_names() {
        let reg = MetricsRegistry::default();
        reg.counter("r/c").add(9);
        reg.histogram("r/h").record(9);
        reg.reset();
        assert_eq!(reg.counter("r/c").get(), 0);
        assert_eq!(reg.histogram("r/h").count(), 0);
        let snap = reg.snapshot();
        assert!(snap.contains(&("r/c".to_owned(), 0.0)));
        assert!(snap.contains(&("r/h/count".to_owned(), 0.0)));
    }
}
