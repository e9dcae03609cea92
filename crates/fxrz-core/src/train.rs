//! The FXRZ training engine (paper Fig 1, stages 1–8).
//!
//! For every training field the trainer
//!
//! 1. extracts the (sampled) feature vector,
//! 2. runs the target compressor at ~25 stationary configurations and
//!    builds the interpolated [`RateCurve`],
//! 3. mints augmented `(CR → config coordinate)` samples from the curve,
//! 4. applies Compressibility Adjustment to the CR column, and
//! 5. fits the selected regression model on
//!    `[features…, ACR] → coordinate`.
//!
//! The resulting [`TrainedModel`] is serializable, so one user's training
//! run can serve every other user of the same application package — the
//! deployment story the paper motivates in §III-A.

use crate::augment::RateCurve;
use crate::ca::CompressibilityAdjuster;
use crate::error::FxrzError;
use crate::features::{self, FeatureSet, FeatureVector};
use crate::sampling::StridedSampler;
use fxrz_compressors::{Compressor, ConfigSpace};
use fxrz_datagen::Field;
use fxrz_ml::adaboost::{AdaBoostParams, AdaBoostR2};
use fxrz_ml::forest::{ForestParams, RandomForest};
use fxrz_ml::svr::{Svr, SvrParams};
use fxrz_ml::{Dataset, ModelKind, Regressor};
use fxrz_telemetry::{span, spanned};
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// Trainer configuration. Defaults mirror the paper's choices.
#[derive(Clone, Copy, Debug)]
pub struct TrainerConfig {
    /// Regression model family (Table III; default RFR).
    pub model: ModelKind,
    /// Stationary error configurations run per training field (paper: ~25).
    pub stationary_points: usize,
    /// Augmented samples minted per training field.
    pub augment_per_field: usize,
    /// Feature subset (default: the adopted five).
    pub feature_set: FeatureSet,
    /// Feature-extraction sampler (default: stride 4 ≈ 1.5 % in 3-D).
    pub sampler: StridedSampler,
    /// Compressibility adjustment; `None` disables CA (the paper's
    /// "without opt" baseline in Fig 7 / §V-E).
    pub ca: Option<CompressibilityAdjuster>,
    /// Regress the range-relative coordinate `ln(eb / value_range)`
    /// instead of `ln(eb)` for absolute-bound compressors (ignored for
    /// precision-controlled spaces). Amplitude-invariant targets transfer
    /// better across simulation configurations.
    pub relative_coordinate: bool,
}

impl Default for TrainerConfig {
    fn default() -> Self {
        Self {
            model: ModelKind::Rfr,
            stationary_points: 25,
            augment_per_field: 60,
            feature_set: FeatureSet::Adopted,
            sampler: StridedSampler::default(),
            ca: Some(CompressibilityAdjuster::default()),
            relative_coordinate: false,
        }
    }
}

/// Wall-clock breakdown of one training run (Table VI's components:
/// stationary-point generation, interpolation/augmentation, model fit).
#[derive(Clone, Copy, Debug, Default)]
pub struct TrainTimings {
    /// Time spent running the compressor at stationary points.
    pub stationary: Duration,
    /// Time spent on feature extraction, CA and curve interpolation.
    pub augment: Duration,
    /// Time spent fitting the regression model.
    pub fit: Duration,
}

impl TrainTimings {
    /// Total training time.
    pub fn total(&self) -> Duration {
        self.stationary + self.augment + self.fit
    }
}

/// A fitted regressor, serializable by model family.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub enum TrainedRegressor {
    /// Random forest (the adopted model).
    Rfr(RandomForest),
    /// AdaBoost.R2.
    AdaBoost(AdaBoostR2),
    /// ε-SVR.
    Svr(Svr),
}

impl TrainedRegressor {
    fn predict(&self, x: &[f64]) -> f64 {
        match self {
            TrainedRegressor::Rfr(m) => m.predict(x),
            TrainedRegressor::AdaBoost(m) => m.predict(x),
            TrainedRegressor::Svr(m) => Regressor::predict(m, x),
        }
    }
}

/// Newest serialized-model format version this build writes and reads.
///
/// Version history:
/// - `0` — implicit: files written before the field existed carry no
///   `format_version` key and deserialize as 0 via `#[serde(default)]`.
/// - `1` — the explicit field was introduced; layout is otherwise
///   identical to 0, so both load through the same path.
pub const MODEL_FORMAT_VERSION: u32 = 1;

/// A trained FXRZ model for one (application, compressor) pair.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TrainedModel {
    /// Serialized-format version (see [`MODEL_FORMAT_VERSION`]). Absent in
    /// legacy files, which decode as version 0.
    #[serde(default)]
    pub format_version: u32,
    regressor: TrainedRegressor,
    /// Name of the compressor the model was trained against.
    pub compressor: String,
    /// The compressor's config space (for coordinate → config conversion).
    pub config_space: ConfigSpace,
    /// Feature subset baked into the model.
    pub feature_set: FeatureSet,
    /// Sampling stride used at training time (reused at inference).
    pub stride: usize,
    /// CA settings baked into the model (`None` = CA disabled).
    pub ca: Option<CompressibilityAdjuster>,
    /// When true (absolute-error-bound compressors), the regression target
    /// is the *range-relative* coordinate `ln(eb / value_range)` instead of
    /// `ln(eb)`. Normalizing by the sampled value range makes the model
    /// transfer across fields of different amplitude — essential for the
    /// paper's Capability Level 2 (cross-configuration) setting.
    pub relative_coordinate: bool,
    /// Training-set size actually fitted (augmented rows).
    pub n_rows: usize,
    /// Compression-ratio range covered by the training rate curves
    /// (paper Fig 11's "valid range"): targets outside it are not
    /// reachable by the compressor and no estimator can hit them.
    pub valid_ratio_range: (f64, f64),
    /// Timing breakdown (not serialized).
    #[serde(skip)]
    pub timings: TrainTimings,
}

impl TrainedModel {
    /// Checks that this model's serialized format is one this build can
    /// interpret, and that its sampling stride and CA block width are
    /// positive. [`FixedRatioCompressor::new`](crate::FixedRatioCompressor::new)
    /// calls it, so every deserialized model is checked before it binds.
    ///
    /// # Errors
    /// Fails when the file declares a format newer than
    /// [`MODEL_FORMAT_VERSION`], or a zero stride or CA block width.
    pub fn check_format(&self) -> Result<(), FxrzError> {
        if self.format_version > MODEL_FORMAT_VERSION {
            return Err(FxrzError::UnsupportedModelFormat {
                found: self.format_version,
                supported: MODEL_FORMAT_VERSION,
            });
        }
        if self.stride == 0 {
            return Err(FxrzError::InvalidModel("sampling stride is 0"));
        }
        if self.ca.is_some_and(|ca| ca.block == 0) {
            return Err(FxrzError::InvalidModel("CA block width is 0"));
        }
        Ok(())
    }

    /// One-line human description of the fitted regressor (family + size),
    /// for registry listings and `Stats` replies.
    pub fn regressor_summary(&self) -> String {
        match &self.regressor {
            TrainedRegressor::Rfr(m) => {
                format!("rfr({} trees, {} nodes)", m.n_trees(), m.n_nodes())
            }
            TrainedRegressor::AdaBoost(m) => format!("adaboost({} estimators)", m.n_estimators()),
            TrainedRegressor::Svr(m) => format!("svr({} support vectors)", m.n_support()),
        }
    }

    /// Predicts the config coordinate for a feature vector and an
    /// (already CA-adjusted) target compression ratio.
    pub fn predict_coordinate(&self, fv: &FeatureVector, acr: f64) -> f64 {
        let mut row = self.feature_set.project(fv);
        row.push(acr);
        let raw = self.regressor.predict(&row);
        if self.relative_coordinate {
            raw + fv.value_range.max(f64::MIN_POSITIVE).ln()
        } else {
            raw
        }
    }
}

/// The training engine.
#[derive(Clone, Copy, Debug, Default)]
pub struct Trainer {
    /// Configuration (see [`TrainerConfig`]).
    pub config: TrainerConfig,
}

impl Trainer {
    /// A trainer with default (paper) settings.
    pub fn new() -> Self {
        Self::default()
    }

    /// A trainer using the given model family.
    pub fn with_model(model: ModelKind) -> Self {
        Self {
            config: TrainerConfig {
                model,
                ..TrainerConfig::default()
            },
        }
    }

    /// Trains a model for `compressor` on the given fields.
    ///
    /// # Errors
    /// Fails when the corpus is empty or a compressor invocation fails.
    pub fn train(
        &self,
        compressor: &dyn Compressor,
        fields: &[Field],
    ) -> Result<TrainedModel, FxrzError> {
        if fields.is_empty() {
            return Err(FxrzError::EmptyCorpus);
        }
        let _train_span = span!(crate::names::SPAN_TRAIN);
        let cfg = &self.config;
        let n_features = cfg.feature_set.len() + 1; // + target-ratio column
        let mut data = Dataset::new(n_features);
        let mut timings = TrainTimings::default();
        let mut range_lo = f64::INFINITY;
        let mut range_hi = 0.0f64;
        // Normalize ln(eb) by the field's value range for Abs spaces so
        // the target is amplitude-invariant (see `relative_coordinate`).
        let relative_coordinate = cfg.relative_coordinate
            && matches!(compressor.config_space(), ConfigSpace::AbsRelRange { .. });

        for field in fields {
            // stationary points (the only compressor runs in training)
            let (curve, t_stationary) = spanned(crate::names::SPAN_STATIONARY, || {
                RateCurve::build(compressor, field, cfg.stationary_points)
            });
            let curve = curve?;
            timings.stationary += t_stationary;
            let (lo, hi) = curve.valid_range();
            range_lo = range_lo.min(lo);
            range_hi = range_hi.max(hi);

            // features + CA + augmentation
            let ((), t_augment) = spanned(crate::names::SPAN_AUGMENT, || {
                let fv = features::extract(field, cfg.sampler);
                let r = cfg.ca.map(|ca| ca.non_constant_ratio(field)).unwrap_or(1.0);
                let base_row = cfg.feature_set.project(&fv);
                let coord_offset = if relative_coordinate {
                    fv.value_range.max(f64::MIN_POSITIVE).ln()
                } else {
                    0.0
                };
                for (cr, coord) in curve.augment(cfg.augment_per_field) {
                    let acr = (cr * r).max(1.0);
                    let mut row = base_row.clone();
                    row.push(acr);
                    data.push(&row, coord - coord_offset);
                }
            });
            timings.augment += t_augment;
        }

        let (regressor, t_fit) = spanned(crate::names::SPAN_FIT, || match cfg.model {
            ModelKind::Rfr => TrainedRegressor::Rfr(RandomForest::fit(
                &data,
                ForestParams {
                    n_trees: 100,
                    ..ForestParams::default()
                },
            )),
            ModelKind::AdaBoost => {
                TrainedRegressor::AdaBoost(AdaBoostR2::fit(&data, AdaBoostParams::default()))
            }
            ModelKind::Svr => TrainedRegressor::Svr(Svr::fit(&data, SvrParams::default())),
        });
        timings.fit += t_fit;
        fxrz_telemetry::global().add(crate::names::TRAIN_ROWS, data.len() as u64);

        Ok(TrainedModel {
            format_version: MODEL_FORMAT_VERSION,
            regressor,
            compressor: compressor.name().to_owned(),
            config_space: compressor.config_space(),
            feature_set: cfg.feature_set,
            stride: cfg.sampler.stride,
            ca: cfg.ca,
            relative_coordinate,
            n_rows: data.len(),
            valid_ratio_range: (range_lo, range_hi),
            timings,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fxrz_compressors::sz::Sz;
    use fxrz_datagen::grf::{gaussian_random_field, GrfConfig};
    use fxrz_datagen::Dims;

    fn corpus() -> Vec<Field> {
        (0..3)
            .map(|i| {
                gaussian_random_field(Dims::d3(16, 16, 16), GrfConfig::default().with_seed(40 + i))
            })
            .collect()
    }

    fn tiny_trainer() -> Trainer {
        Trainer {
            config: TrainerConfig {
                stationary_points: 8,
                augment_per_field: 16,
                sampler: StridedSampler::new(2),
                ..TrainerConfig::default()
            },
        }
    }

    #[test]
    fn trains_and_exposes_metadata() {
        let sz = Sz;
        let model = tiny_trainer().train(&sz, &corpus()).expect("train");
        assert_eq!(model.compressor, "sz");
        assert_eq!(model.n_rows, 3 * 16);
        assert!(model.timings.total() > Duration::ZERO);
    }

    #[test]
    fn empty_corpus_is_an_error() {
        let sz = Sz;
        assert!(matches!(
            tiny_trainer().train(&sz, &[]),
            Err(FxrzError::EmptyCorpus)
        ));
    }

    #[test]
    fn predicted_coordinate_moves_with_target_ratio() {
        let sz = Sz;
        let fields = corpus();
        let model = tiny_trainer().train(&sz, &fields).expect("train");
        let fv = features::extract(&fields[0], StridedSampler::new(2));
        // bigger target ratio -> looser bound -> larger ln(eb)
        let lo = model.predict_coordinate(&fv, 5.0);
        let hi = model.predict_coordinate(&fv, 200.0);
        assert!(hi > lo, "coordinate should rise with TCR: {lo} vs {hi}");
    }

    #[test]
    fn all_three_model_kinds_train() {
        let sz = Sz;
        let fields = corpus();
        for kind in ModelKind::ALL {
            let mut t = tiny_trainer();
            t.config.model = kind;
            let m = t.train(&sz, &fields).expect("train");
            let fv = features::extract(&fields[0], StridedSampler::new(2));
            assert!(
                m.predict_coordinate(&fv, 50.0).is_finite(),
                "{}",
                kind.name()
            );
        }
    }

    #[test]
    fn serde_roundtrip_preserves_predictions() {
        let sz = Sz;
        let fields = corpus();
        let model = tiny_trainer().train(&sz, &fields).expect("train");
        let json = serde_json::to_string(&model).expect("serialize");
        let back: TrainedModel = serde_json::from_str(&json).expect("deserialize");
        let fv = features::extract(&fields[1], StridedSampler::new(2));
        let a = model.predict_coordinate(&fv, 42.0);
        let b = back.predict_coordinate(&fv, 42.0);
        assert!((a - b).abs() < 1e-9);
    }

    #[test]
    fn new_models_carry_current_format_version() {
        let sz = Sz;
        let model = tiny_trainer().train(&sz, &corpus()).expect("train");
        assert_eq!(model.format_version, MODEL_FORMAT_VERSION);
        model.check_format().expect("current format is supported");
        let json = serde_json::to_string(&model).expect("serialize");
        assert!(json.contains("\"format_version\""));
        assert!(!model.regressor_summary().is_empty());
    }

    #[test]
    fn future_format_version_is_rejected() {
        let sz = Sz;
        let mut model = tiny_trainer().train(&sz, &corpus()).expect("train");
        model.format_version = MODEL_FORMAT_VERSION + 1;
        assert!(matches!(
            model.check_format(),
            Err(FxrzError::UnsupportedModelFormat { .. })
        ));
    }

    #[test]
    fn ca_disabled_changes_training() {
        // On a field with constant regions, CA rescales the ratio column.
        let mut f = Field::zeros("half", Dims::d3(16, 16, 16));
        for (i, v) in f.data_mut().iter_mut().enumerate() {
            if i % 2 == 0 && i < 600 {
                *v = (i as f32 * 0.37).sin() * 10.0;
            }
        }
        let sz = Sz;
        let with_ca = tiny_trainer().train(&sz, &[f.clone()]).expect("train");
        let mut no_ca_trainer = tiny_trainer();
        no_ca_trainer.config.ca = None;
        let without_ca = no_ca_trainer.train(&sz, &[f.clone()]).expect("train");
        let fv = features::extract(&f, StridedSampler::new(2));
        let a = with_ca.predict_coordinate(&fv, 50.0);
        let b = without_ca.predict_coordinate(&fv, 50.0);
        assert!(a.is_finite() && b.is_finite());
        // models were fitted on different ratio columns; they should differ
        assert_ne!(a, b);
    }
}
