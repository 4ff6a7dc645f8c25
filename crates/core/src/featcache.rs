//! Shared feature cache for many-scenario retraining sweeps.
//!
//! Retraining (§V-B) freezes the first-layer engine and trains the binary
//! tail on its extracted feature maps. A sweep — `retrain_ablation`'s
//! precision ladder, `fault_campaign`'s per-(design, bits) cells, epoch or
//! learning-rate ablations over one engine — re-extracts those features
//! for every scenario, even when many scenarios compile to the same
//! engine-side features. [`FeatureCache`] closes that: a small bounded LRU
//! mapping the **feature-determining** [`ScenarioSpec`] fields plus a
//! dataset fingerprint to the `Arc`'d extracted feature [`Dataset`], so
//! one extraction serves every scenario that shares an engine.
//!
//! The cache holds a handful of multi-megabyte feature sets, so a single
//! mutex over an entry list is the right shape: the lock is touched twice
//! per retraining run and never during extraction.

use crate::dense::DenseInput;
use crate::scenario::ScenarioSpec;
use crate::Error;
use scnn_nn::data::Dataset;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Environment variable selecting the feature-cache mode for the bench
/// harnesses (parsed by `scnn_bench::setup::feature_cache_env_mode`:
/// `off`/`0`, `on`/`1`, or an entry budget).
pub const FEATURE_CACHE_ENV: &str = "SCNN_FEATURE_CACHE";

/// Default entry budget: one entry is a full extracted feature set
/// (`items × 32·14·14` floats — ~30 MB at the quick effort's 1200-image
/// training split), so the budget counts entries, not bytes, and stays
/// small. Eight covers a train/test pair for four concurrently-live
/// engines.
pub const DEFAULT_FEATURE_CACHE_ENTRIES: usize = 8;

/// Requested feature-cache behavior (the `SCNN_FEATURE_CACHE` knob).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FeatureCacheMode {
    /// No caching: every retraining run extracts its own features.
    #[default]
    Off,
    /// Cache up to this many extracted feature sets.
    Entries(usize),
}

impl FeatureCacheMode {
    /// The default-budget enabled mode
    /// ([`DEFAULT_FEATURE_CACHE_ENTRIES`]).
    pub fn on() -> Self {
        FeatureCacheMode::Entries(DEFAULT_FEATURE_CACHE_ENTRIES)
    }

    /// Whether caching is enabled.
    pub fn is_on(self) -> bool {
        matches!(self, FeatureCacheMode::Entries(_))
    }

    /// Parses the [`FEATURE_CACHE_ENV`] grammar: `off`/`0` disable,
    /// `on`/`1` enable at the default budget, a positive integer sets the
    /// entry budget.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`](crate::Error) for anything else.
    pub fn from_env_value(value: &str) -> Result<Self, Error> {
        match value.trim() {
            "off" | "0" => Ok(FeatureCacheMode::Off),
            "on" | "1" => Ok(FeatureCacheMode::on()),
            other => match other.parse::<usize>() {
                Ok(n) if n > 0 => Ok(FeatureCacheMode::Entries(n)),
                _ => Err(Error::config(format!(
                    "{FEATURE_CACHE_ENV} must be off/0, on/1 or a positive entry budget, \
                     got {value:?}"
                ))),
            },
        }
    }
}

/// Cache key: the spec fields that determine the extracted feature values,
/// plus a fingerprint of the dataset they are extracted over.
///
/// Every [`ScenarioSpec`] field determines the features except
/// `input_mode`, which only affects dense-layer compilation, not the conv
/// head the retraining features come from; scenarios differing only in
/// it share one extraction.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FeatureKey(String);

impl FeatureKey {
    /// The key for extracting `spec`'s first-layer features over `source`.
    ///
    /// The spec enters through its derived `Debug` rendering with
    /// `input_mode` pinned, so a new spec field joins the key without
    /// being listed here. The rendering is injective: every variant and
    /// payload prints distinctly, and `Debug` of `f32`/`f64` round-trips.
    pub fn new(spec: &ScenarioSpec, source: &Dataset) -> Self {
        let semantic = ScenarioSpec { input_mode: DenseInput::Unipolar, ..*spec };
        FeatureKey(format!("{semantic:?}|ds:{:016x}", dataset_fingerprint(source)))
    }
}

/// FNV-1a over the dataset's shape, labels, and exact item bit patterns —
/// distinguishes the train and test splits (and any subset/shuffle) that
/// share one spec.
fn dataset_fingerprint(source: &Dataset) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = FNV_OFFSET;
    let mut mix = |word: u64| {
        hash = (hash ^ word).wrapping_mul(FNV_PRIME);
    };
    mix(source.len() as u64);
    for &dim in source.item_shape() {
        mix(dim as u64);
    }
    for &label in source.labels() {
        mix(u64::from(label));
    }
    for i in 0..source.len() {
        for &v in source.item(i) {
            mix(u64::from(v.to_bits()));
        }
    }
    hash
}

/// Hit/miss/eviction totals since the cache was created.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FeatureCacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that ran the extraction.
    pub misses: u64,
    /// Entries displaced by the LRU budget.
    pub evictions: u64,
}

/// One cached extraction with its last-touched stamp.
struct CacheEntry {
    key: FeatureKey,
    features: Arc<Dataset>,
    stamp: u64,
}

/// LRU state behind the mutex: the entry list plus the logical clock.
#[derive(Default)]
struct CacheState {
    entries: Vec<CacheEntry>,
    clock: u64,
}

/// A bounded, thread-safe LRU cache of extracted feature sets, keyed by
/// [`FeatureKey`]. See the [module docs](self) for when and why.
///
/// # Example
///
/// ```
/// use scnn_core::{FeatureCache, FeatureKey, ScenarioSpec};
/// use scnn_nn::data::synthetic;
///
/// # fn main() -> Result<(), scnn_core::Error> {
/// let cache = FeatureCache::with_capacity(2);
/// let images = synthetic::generate(4, 1);
/// let key = FeatureKey::new(&ScenarioSpec::this_work(4), &images);
/// let first = cache.get_or_extract(&key, || Ok(images.clone()))?;
/// // The second lookup is a hit: no extraction, same Arc.
/// let second = cache.get_or_extract(&key, || unreachable!())?;
/// assert!(std::sync::Arc::ptr_eq(&first, &second));
/// assert_eq!(cache.stats().hits, 1);
/// assert_eq!(cache.stats().misses, 1);
/// # Ok(())
/// # }
/// ```
pub struct FeatureCache {
    state: Mutex<CacheState>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl std::fmt::Debug for FeatureCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FeatureCache")
            .field("capacity", &self.capacity)
            .field("stats", &self.stats())
            .finish()
    }
}

impl FeatureCache {
    /// A cache holding at most `capacity` feature sets (at least one).
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            state: Mutex::new(CacheState::default()),
            capacity: capacity.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// A cache for `mode`, or `None` when the mode is off.
    pub fn from_mode(mode: FeatureCacheMode) -> Option<Self> {
        match mode {
            FeatureCacheMode::Off => None,
            FeatureCacheMode::Entries(n) => Some(Self::with_capacity(n)),
        }
    }

    /// The entry budget.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of cached feature sets.
    pub fn len(&self) -> usize {
        self.state.lock().expect("feature cache poisoned").entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Totals since creation.
    pub fn stats(&self) -> FeatureCacheStats {
        FeatureCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }

    /// Returns the cached features for `key`, running `extract` on a miss.
    ///
    /// The lock is **not** held during extraction (it can be seconds of
    /// engine work); if two threads race the same missing key, both
    /// extract and the later insert reuses the earlier entry — harmless,
    /// because a value is a pure function of its key. Hits, misses, and
    /// evictions land on the always-on [`stats`](Self::stats) counters and
    /// (when `SCNN_METRICS` is on) the `scnn_obs` registry as
    /// `feature_cache/hits`, `feature_cache/misses`,
    /// `feature_cache/evictions`.
    ///
    /// # Errors
    ///
    /// Propagates the extraction error; nothing is cached on failure.
    pub fn get_or_extract(
        &self,
        key: &FeatureKey,
        extract: impl FnOnce() -> Result<Dataset, Error>,
    ) -> Result<Arc<Dataset>, Error> {
        if let Some(found) = self.lookup(key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            if scnn_obs::metrics_enabled() {
                scnn_obs::registry().counter("feature_cache/hits").add(1);
            }
            return Ok(found);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        if scnn_obs::metrics_enabled() {
            scnn_obs::registry().counter("feature_cache/misses").add(1);
        }
        let features = Arc::new(extract()?);
        Ok(self.insert(key, features))
    }

    /// Bumps and returns the entry for `key`, if present.
    fn lookup(&self, key: &FeatureKey) -> Option<Arc<Dataset>> {
        let mut state = self.state.lock().expect("feature cache poisoned");
        state.clock += 1;
        let stamp = state.clock;
        let entry = state.entries.iter_mut().find(|e| &e.key == key)?;
        entry.stamp = stamp;
        Some(Arc::clone(&entry.features))
    }

    /// Inserts (or, under a racing insert, adopts) the entry for `key`,
    /// evicting the least-recently-used entry past the budget.
    fn insert(&self, key: &FeatureKey, features: Arc<Dataset>) -> Arc<Dataset> {
        let mut state = self.state.lock().expect("feature cache poisoned");
        state.clock += 1;
        let stamp = state.clock;
        if let Some(existing) = state.entries.iter_mut().find(|e| &e.key == key) {
            existing.stamp = stamp;
            return Arc::clone(&existing.features);
        }
        state.entries.push(CacheEntry { key: key.clone(), features: Arc::clone(&features), stamp });
        while state.entries.len() > self.capacity {
            let oldest = state
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.stamp)
                .map(|(i, _)| i)
                .expect("non-empty over-budget cache");
            state.entries.swap_remove(oldest);
            self.evictions.fetch_add(1, Ordering::Relaxed);
            if scnn_obs::metrics_enabled() {
                scnn_obs::registry().counter("feature_cache/evictions").add(1);
            }
        }
        features
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ScenarioSpec;
    use scnn_nn::data::synthetic;

    #[test]
    fn mode_parses_the_env_grammar() {
        assert_eq!(FeatureCacheMode::from_env_value("off").unwrap(), FeatureCacheMode::Off);
        assert_eq!(FeatureCacheMode::from_env_value("0").unwrap(), FeatureCacheMode::Off);
        assert_eq!(FeatureCacheMode::from_env_value("on").unwrap(), FeatureCacheMode::on());
        assert_eq!(
            FeatureCacheMode::from_env_value("1").unwrap(),
            FeatureCacheMode::Entries(DEFAULT_FEATURE_CACHE_ENTRIES)
        );
        assert_eq!(FeatureCacheMode::from_env_value("12").unwrap(), FeatureCacheMode::Entries(12));
        assert!(FeatureCacheMode::on().is_on());
        assert!(!FeatureCacheMode::Off.is_on());
        for bad in ["bananas", "-1", "1.5", ""] {
            assert!(FeatureCacheMode::from_env_value(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn key_ignores_only_input_mode_and_splits_datasets() {
        let images = synthetic::generate(4, 1);
        let base = ScenarioSpec::this_work(6);
        let key = FeatureKey::new(&base, &images);
        // The dense input mode doesn't reach the conv head, so it must not
        // split the cache.
        let ternary = base.customize().input_mode(DenseInput::Ternary).build();
        assert_eq!(FeatureKey::new(&ternary, &images), key);
        // Every other field does split it…
        for spec in [
            base.customize().head(crate::HeadKind::Binary).build(),
            base.customize().bits(4).build(),
            base.customize().adder(crate::AdderKind::Mux).build(),
            base.customize().pixel_source(crate::SourceKind::Lfsr).build(),
            base.customize().weight_source(crate::SourceKind::Lfsr).build(),
            base.customize().s0_policy(scnn_sim::S0Policy::AllZero).build(),
            base.customize().soft_threshold(0.25).build(),
            base.customize().bit_error_rate(0.01).build(),
            base.customize().seed(99).build(),
        ] {
            assert_ne!(FeatureKey::new(&spec, &images), key, "{spec:?}");
        }
        // …and so does the dataset.
        let other = synthetic::generate(4, 2);
        assert_ne!(FeatureKey::new(&base, &other), key);
    }

    #[test]
    fn lru_evicts_the_least_recently_used_entry() {
        let cache = FeatureCache::with_capacity(2);
        let spec = ScenarioSpec::this_work(4);
        let sets: Vec<Dataset> = (0..3).map(|s| synthetic::generate(3, s)).collect();
        let keys: Vec<FeatureKey> = sets.iter().map(|d| FeatureKey::new(&spec, d)).collect();
        cache.get_or_extract(&keys[0], || Ok(sets[0].clone())).unwrap();
        cache.get_or_extract(&keys[1], || Ok(sets[1].clone())).unwrap();
        // Touch key 0 so key 1 is the LRU victim.
        cache.get_or_extract(&keys[0], || unreachable!()).unwrap();
        cache.get_or_extract(&keys[2], || Ok(sets[2].clone())).unwrap();
        assert_eq!(cache.len(), 2);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.evictions), (1, 3, 1));
        // Key 0 survived, key 1 was evicted.
        cache.get_or_extract(&keys[0], || unreachable!()).unwrap();
        let mut re_extracted = false;
        cache
            .get_or_extract(&keys[1], || {
                re_extracted = true;
                Ok(sets[1].clone())
            })
            .unwrap();
        assert!(re_extracted);
    }

    #[test]
    fn extraction_errors_cache_nothing() {
        let cache = FeatureCache::with_capacity(2);
        let spec = ScenarioSpec::this_work(4);
        let images = synthetic::generate(3, 7);
        let key = FeatureKey::new(&spec, &images);
        assert!(cache.get_or_extract(&key, || Err(Error::config("boom"))).is_err());
        assert!(cache.is_empty());
        // The next attempt extracts again and succeeds.
        let out = cache.get_or_extract(&key, || Ok(images.clone())).unwrap();
        assert_eq!(out.len(), 3);
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn concurrent_lookups_share_one_entry() {
        let cache = FeatureCache::with_capacity(4);
        let spec = ScenarioSpec::this_work(4);
        let images = synthetic::generate(4, 3);
        let key = FeatureKey::new(&spec, &images);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    let got = cache.get_or_extract(&key, || Ok(images.clone())).unwrap();
                    assert_eq!(got.len(), 4);
                });
            }
        });
        // Racing extractions may each run, but exactly one entry survives.
        assert_eq!(cache.len(), 1);
        let stats = cache.stats();
        assert_eq!(stats.hits + stats.misses, 4);
        assert_eq!(stats.evictions, 0);
    }
}
