//! Dataset and base-model preparation shared by the table harnesses.

use scnn_core::{
    retrain_with_cache, train_base, BaseModel, FeatureCache, FeatureCacheMode, FirstLayer,
    HybridLenet, RetrainConfig, RetrainReport, ScenarioSpec, TrainConfig, FEATURE_CACHE_ENV,
};
use scnn_nn::data::{load_or_synthesize, DataSource, Dataset};
use std::path::Path;

/// Pure parsing core behind [`feature_cache_env_mode`]: `None` (variable
/// unset) means off; any set value goes through
/// [`FeatureCacheMode::from_env_value`]. The error message always names
/// the variable, echoes the offending value, and spells out the accepted
/// grammar, so a typo'd override tells the operator exactly what to fix.
///
/// # Errors
///
/// Returns the harness-facing message for an unparseable value.
///
/// ```
/// use scnn_bench::setup::parse_feature_cache_env;
///
/// assert!(parse_feature_cache_env(Some("on")).unwrap().is_on());
/// let msg = parse_feature_cache_env(Some("bananas")).unwrap_err();
/// assert!(msg.contains("SCNN_FEATURE_CACHE"));
/// assert!(msg.contains("\"bananas\""));
/// assert!(msg.contains("off/0"));
/// ```
pub fn parse_feature_cache_env(value: Option<&str>) -> Result<FeatureCacheMode, String> {
    let Some(value) = value else { return Ok(FeatureCacheMode::Off) };
    FeatureCacheMode::from_env_value(value).map_err(|_| {
        format!(
            "invalid {FEATURE_CACHE_ENV}={value:?}: accepted values are off/0 (disable), \
             on/1 (enable at the default budget), or a positive integer entry budget"
        )
    })
}

/// The scenario-feature-cache mode requested through the
/// `SCNN_FEATURE_CACHE` environment variable ([`FEATURE_CACHE_ENV`]), for
/// harness binaries: `off`/`0`/unset disable it, `on`/`1` select the
/// default entry budget, a positive integer sets the budget.
///
/// # Panics
///
/// Panics on an unparseable value — harnesses are top-level binaries and
/// a typo'd override must fail loudly, not silently run uncached.
pub fn feature_cache_env_mode() -> FeatureCacheMode {
    let value = std::env::var(FEATURE_CACHE_ENV).ok();
    parse_feature_cache_env(value.as_deref()).unwrap_or_else(|msg| panic!("{msg}"))
}

/// Validates the `SCNN_METRICS`/`SCNN_TRACE` observability toggles once,
/// up front, so a typo'd value fails the harness at startup with the
/// parser's message (variable name, offending value, accepted grammar)
/// instead of deep inside the first instrumented hot path.
///
/// # Panics
///
/// Panics with [`scnn_obs::init_from_env`]'s message on an unparseable
/// toggle value.
pub fn obs_env_init() {
    if let Err(msg) = scnn_obs::init_from_env() {
        panic!("{msg}");
    }
}

/// Harness effort level, selected with `--full` / `--smoke` on the command
/// line or `SCNN_EFFORT={smoke,quick,full}` in the environment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Effort {
    /// Tiny subsets and single epochs — seconds; the CI bench-smoke gate
    /// runs every table/ablation binary at this level so the
    /// paper-reproduction entry points cannot silently rot.
    Smoke,
    /// Small subsets and few epochs — minutes, suitable for local runs.
    Quick,
    /// Larger subsets — closer to the paper's full 60k/10k protocol.
    Full,
}

impl Effort {
    /// Parses the effort level from process arguments (`--full`, `--smoke`)
    /// or the `SCNN_EFFORT` environment variable; arguments win.
    pub fn from_args() -> Self {
        Self::from_parts(std::env::args(), std::env::var("SCNN_EFFORT").ok().as_deref())
    }

    /// Pure parsing core behind [`Effort::from_args`], testable without
    /// touching the real process environment.
    pub fn from_parts(args: impl Iterator<Item = String>, env: Option<&str>) -> Self {
        let args: Vec<String> = args.collect();
        if args.iter().any(|a| a == "--full") {
            return Effort::Full;
        }
        if args.iter().any(|a| a == "--smoke") {
            return Effort::Smoke;
        }
        match env {
            Some("smoke") => Effort::Smoke,
            Some("full") => Effort::Full,
            _ => Effort::Quick,
        }
    }

    /// Training-set size.
    pub fn train_size(self) -> usize {
        match self {
            Effort::Smoke => 200,
            Effort::Quick => 1200,
            Effort::Full => 8000,
        }
    }

    /// Test-set size.
    pub fn test_size(self) -> usize {
        match self {
            Effort::Smoke => 80,
            Effort::Quick => 400,
            Effort::Full => 2000,
        }
    }

    /// Base-model training epochs.
    pub fn base_epochs(self) -> usize {
        match self {
            Effort::Smoke => 1,
            Effort::Quick => 3,
            Effort::Full => 6,
        }
    }

    /// Tail-retraining epochs.
    pub fn retrain_epochs(self) -> usize {
        match self {
            Effort::Smoke => 1,
            Effort::Quick => 2,
            Effort::Full => 4,
        }
    }

    /// Training-set size for the `ablation_fully_stochastic` MLP (that
    /// harness trains its own small model, not the LeNet base).
    pub fn mlp_train_size(self) -> usize {
        match self {
            Effort::Smoke => 200,
            Effort::Quick => 1000,
            Effort::Full => 4000,
        }
    }

    /// Test-set size for the `ablation_fully_stochastic` MLP.
    pub fn mlp_test_size(self) -> usize {
        match self {
            Effort::Smoke => 80,
            Effort::Quick => 300,
            Effort::Full => 1000,
        }
    }

    /// MLP training epochs for `ablation_fully_stochastic`.
    pub fn mlp_epochs(self) -> usize {
        match self {
            Effort::Smoke => 1,
            Effort::Quick => 4,
            Effort::Full => 6,
        }
    }

    /// `(train, test)` dataset sizes for the `table3_hw` activity-factor
    /// traces.
    pub fn activity_dataset_sizes(self) -> (usize, usize) {
        match self {
            Effort::Smoke => (8, 4),
            Effort::Quick => (16, 8),
            Effort::Full => (64, 32),
        }
    }

    /// `(images, windows per image)` sampled by the stochastic activity
    /// measurement in `table3_hw`.
    pub fn sc_activity_samples(self) -> (usize, usize) {
        match self {
            Effort::Smoke => (4, 12),
            Effort::Quick => (8, 24),
            Effort::Full => (16, 48),
        }
    }

    /// Images sampled by the binary activity measurement in `table3_hw`.
    pub fn binary_activity_images(self) -> usize {
        match self {
            Effort::Smoke => 8,
            Effort::Quick => 16,
            Effort::Full => 32,
        }
    }

    /// Scales a Monte-Carlo trial count for the stream-level ablations:
    /// `quick` keeps the harness's recorded baseline, `smoke` divides by 8
    /// (CI gate speed), `full` doubles.
    pub fn trials(self, quick: u64) -> u64 {
        match self {
            Effort::Smoke => (quick / 8).max(8),
            Effort::Quick => quick,
            Effort::Full => quick * 2,
        }
    }
}

/// Everything a Table 3 style experiment needs.
pub struct Workbench {
    /// Training split.
    pub train: Dataset,
    /// Test split.
    pub test: Dataset,
    /// Where the data came from (reported in every table).
    pub source: DataSource,
    /// The trained float base model.
    pub base: BaseModel,
    /// The effort level used.
    pub effort: Effort,
    /// Scenario-feature cache shared across this workbench's retraining
    /// runs, enabled through `SCNN_FEATURE_CACHE` (`None` when off).
    feature_cache: Option<FeatureCache>,
}

impl Workbench {
    /// Compiles a [`ScenarioSpec`] into a first-layer engine over the
    /// trained base convolution.
    ///
    /// # Panics
    ///
    /// Panics on construction errors — harnesses are top-level binaries.
    pub fn first_layer(&self, spec: &ScenarioSpec) -> Box<dyn FirstLayer> {
        spec.first_layer(self.base.conv1()).expect("scenario engine construction failed")
    }

    /// Runs the §V-B retraining pipeline for one scenario: compile the
    /// engine, freeze it, retrain the base tail on its features, and
    /// report before/after accuracy.
    ///
    /// With `SCNN_FEATURE_CACHE` on, the extracted feature sets are served
    /// from the workbench-wide [`FeatureCache`] keyed by the
    /// feature-determining spec fields — repeated retraining of the same
    /// scenario (epoch sweeps, fault-free reruns) skips the first-layer
    /// simulation entirely. Off (the default), retraining streams features
    /// batch-by-batch and never materializes the feature tensor.
    ///
    /// # Panics
    ///
    /// Panics on engine or training errors.
    pub fn retrain_scenario(
        &self,
        spec: &ScenarioSpec,
        config: &RetrainConfig,
    ) -> (HybridLenet, RetrainReport) {
        retrain_with_cache(
            self.first_layer(spec),
            self.base.tail_clone(),
            &self.train,
            &self.test,
            config,
            self.feature_cache.as_ref().map(|cache| (cache, spec)),
        )
        .expect("scenario retraining failed")
    }

    /// The shared scenario-feature cache, when `SCNN_FEATURE_CACHE`
    /// enabled one (for harnesses that report its hit/miss counters).
    pub fn feature_cache(&self) -> Option<&FeatureCache> {
        self.feature_cache.as_ref()
    }
}

/// Loads data (real MNIST from `data/mnist` if present, synthetic digits
/// otherwise) and trains — or loads from the `target/scnn-cache`
/// parameter cache — the base model. Delete the cache file to force
/// retraining.
///
/// # Panics
///
/// Panics on training errors — harnesses are top-level binaries.
pub fn prepare(effort: Effort) -> Workbench {
    let (train, test, source) = load_or_synthesize(
        Path::new("data/mnist"),
        effort.train_size(),
        effort.test_size(),
        20170327, // DATE 2017 conference date
    )
    .expect("dataset preparation failed");
    eprintln!("[setup] data source: {source}, {} train / {} test images", train.len(), test.len());
    eprintln!(
        "[setup] worker threads: {} (override with {}=N)",
        scnn_core::parallel::thread_count(),
        scnn_core::parallel::THREADS_ENV,
    );
    let feature_cache = FeatureCache::from_mode(feature_cache_env_mode());
    if let Some(fc) = &feature_cache {
        eprintln!(
            "[setup] scenario feature cache: on ({} entries; override with {}=off/N)",
            fc.capacity(),
            FEATURE_CACHE_ENV,
        );
    }
    let config = TrainConfig { epochs: effort.base_epochs(), ..TrainConfig::default() };
    let cache = Path::new("target/scnn-cache").join(format!("base-{source}-{effort:?}.bin"));
    if let Ok(Some(base)) = BaseModel::load(&cache, &config) {
        eprintln!(
            "[setup] loaded cached base model from {} ({:.2}% misclassification)",
            cache.display(),
            base.evaluation.misclassification_rate() * 100.0
        );
        return Workbench { train, test, source, base, effort, feature_cache };
    }
    eprintln!("[setup] training float base model ({} epochs)…", config.epochs);
    let mut base = train_base(&train, &test, &config).expect("base training failed");
    eprintln!(
        "[setup] base model misclassification: {:.2}%",
        base.evaluation.misclassification_rate() * 100.0
    );
    if let Err(e) = base.save(&cache) {
        eprintln!("[setup] note: could not cache base model: {e}");
    }
    Workbench { train, test, source, base, effort, feature_cache }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effort_sizes_ordered() {
        assert!(Effort::Quick.train_size() < Effort::Full.train_size());
        assert!(Effort::Quick.test_size() < Effort::Full.test_size());
        assert!(Effort::Quick.base_epochs() <= Effort::Full.base_epochs());
        assert!(Effort::Smoke.mlp_train_size() < Effort::Quick.mlp_train_size());
        assert!(Effort::Quick.mlp_train_size() < Effort::Full.mlp_train_size());
        assert!(Effort::Smoke.mlp_test_size() < Effort::Full.mlp_test_size());
        assert!(Effort::Smoke.activity_dataset_sizes().0 < Effort::Full.activity_dataset_sizes().0);
        assert!(Effort::Smoke.sc_activity_samples().0 < Effort::Full.sc_activity_samples().0);
        assert!(Effort::Smoke.binary_activity_images() < Effort::Full.binary_activity_images());
    }

    #[test]
    fn quick_effort_keeps_recorded_baselines() {
        // The recorded EXPERIMENTS/README tables were produced at Quick;
        // these values are load-bearing for "unchanged output at quick".
        assert_eq!(Effort::Quick.mlp_train_size(), 1000);
        assert_eq!(Effort::Quick.mlp_test_size(), 300);
        assert_eq!(Effort::Quick.mlp_epochs(), 4);
        assert_eq!(Effort::Quick.activity_dataset_sizes(), (16, 8));
        assert_eq!(Effort::Quick.sc_activity_samples(), (8, 24));
        assert_eq!(Effort::Quick.binary_activity_images(), 16);
        assert_eq!(Effort::Quick.trials(400), 400);
        assert_eq!(Effort::Smoke.trials(400), 50);
        assert_eq!(Effort::Smoke.trials(16), 8);
        assert_eq!(Effort::Full.trials(200), 400);
    }

    #[test]
    fn feature_cache_env_parse_reports_value_and_grammar() {
        assert_eq!(parse_feature_cache_env(None).unwrap(), FeatureCacheMode::Off);
        assert_eq!(parse_feature_cache_env(Some("off")).unwrap(), FeatureCacheMode::Off);
        assert_eq!(parse_feature_cache_env(Some("on")).unwrap(), FeatureCacheMode::on());
        assert_eq!(parse_feature_cache_env(Some("16")).unwrap(), FeatureCacheMode::Entries(16));
        for bad in ["bananas", "-3", "1.5"] {
            let msg = parse_feature_cache_env(Some(bad)).unwrap_err();
            assert!(msg.contains(FEATURE_CACHE_ENV), "message must name the variable: {msg}");
            assert!(msg.contains(&format!("{bad:?}")), "message must echo the value: {msg}");
            assert!(
                msg.contains("off/0") && msg.contains("on/1") && msg.contains("entry budget"),
                "message must spell out the grammar: {msg}"
            );
        }
    }

    #[test]
    fn from_parts_parses_flags_and_env() {
        let args = |list: &[&str]| list.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(Effort::from_parts(args(&["bin"]).into_iter(), None), Effort::Quick);
        assert_eq!(Effort::from_parts(args(&["bin", "--smoke"]).into_iter(), None), Effort::Smoke);
        assert_eq!(Effort::from_parts(args(&["bin", "--full"]).into_iter(), None), Effort::Full);
        // Arguments beat the environment; unknown env values fall back.
        assert_eq!(
            Effort::from_parts(args(&["bin", "--full"]).into_iter(), Some("smoke")),
            Effort::Full
        );
        assert_eq!(Effort::from_parts(args(&["bin"]).into_iter(), Some("smoke")), Effort::Smoke);
        assert_eq!(Effort::from_parts(args(&["bin"]).into_iter(), Some("banana")), Effort::Quick);
    }
}
