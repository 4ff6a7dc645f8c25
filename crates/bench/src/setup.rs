//! Dataset and base-model preparation shared by the table harnesses.

use scnn_core::{
    retrain, train_base, BaseModel, FirstLayer, HybridLenet, RetrainConfig, RetrainReport,
    ScenarioSpec, TrainConfig,
};
use scnn_nn::data::{load_or_synthesize, DataSource, Dataset};
use std::path::Path;

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
    /// report before/after accuracy. Features stream batch by batch and
    /// the feature tensor is never materialized.
    ///
    /// # Panics
    ///
    /// Panics on engine or training errors.
    pub fn retrain_scenario(
        &self,
        spec: &ScenarioSpec,
        config: &RetrainConfig,
    ) -> (HybridLenet, RetrainReport) {
        retrain(self.first_layer(spec), self.base.tail_clone(), &self.train, &self.test, config)
            .expect("scenario retraining failed")
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
    let config = TrainConfig { epochs: effort.base_epochs(), ..TrainConfig::default() };
    let cache = Path::new("target/scnn-cache").join(format!("base-{source}-{effort:?}.bin"));
    if let Ok(Some(base)) = BaseModel::load(&cache, &config) {
        eprintln!(
            "[setup] loaded cached base model from {} ({:.2}% misclassification)",
            cache.display(),
            base.evaluation.misclassification_rate() * 100.0
        );
        return Workbench { train, test, source, base, effort };
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
    Workbench { train, test, source, base, effort }
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
