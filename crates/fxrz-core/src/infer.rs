//! The FXRZ inference engine (paper Fig 1, stages 9–10): the user-facing
//! fixed-ratio compression API.
//!
//! Given a field and a target compression ratio, the engine extracts the
//! sampled features, computes the Compressibility Adjustment, asks the
//! trained model for a config coordinate, converts it to a concrete
//! [`ErrorConfig`] — **without ever running the compressor** — and then
//! performs the single actual compression.

use crate::ca::CompressibilityAdjuster;
use crate::error::FxrzError;
use crate::features::{self, FeatureVector};
use crate::sampling::StridedSampler;
use crate::train::TrainedModel;
use fxrz_compressors::{Compressor, ErrorConfig};
use fxrz_datagen::Field;
use fxrz_telemetry::{span, spanned, Counter, Name, Resolved};
use std::sync::Arc;
use std::time::Duration;

/// Bytes into [`FixedRatioCompressor::compress`], resolved once.
static BYTES_IN: Resolved<Name, Arc<Counter>> = Resolved::counter(crate::names::COMPRESS_BYTES_IN);
/// Bytes out of [`FixedRatioCompressor::compress`], resolved once.
static BYTES_OUT: Resolved<Name, Arc<Counter>> =
    Resolved::counter(crate::names::COMPRESS_BYTES_OUT);

/// One fixed-ratio estimation (no compression performed yet).
#[derive(Clone, Debug)]
pub struct Estimate {
    /// The error configuration the model recommends.
    pub config: ErrorConfig,
    /// The CA-adjusted ratio that was fed to the model.
    pub acr: f64,
    /// Fraction of non-constant blocks (1.0 when CA is disabled).
    pub non_constant_ratio: f64,
    /// The extracted feature vector.
    pub features: FeatureVector,
    /// Pure analysis time: features + CA + model prediction.
    pub analysis_time: Duration,
}

/// Outcome of a full fixed-ratio compression.
#[derive(Clone, Debug)]
pub struct FixedRatioOutcome {
    /// The compressed stream.
    pub bytes: Vec<u8>,
    /// The estimate that produced it.
    pub estimate: Estimate,
    /// The measured compression ratio (MCR).
    pub measured_ratio: f64,
    /// Time spent inside the compressor.
    pub compression_time: Duration,
}

impl FixedRatioOutcome {
    /// The paper's estimation error (Formula 5) against a target ratio.
    pub fn estimation_error(&self, tcr: f64) -> f64 {
        (tcr - self.measured_ratio).abs() / tcr
    }
}

/// The user-facing fixed-ratio compressor: a trained model bound to its
/// compressor.
pub struct FixedRatioCompressor {
    model: TrainedModel,
    compressor: Box<dyn Compressor>,
}

impl FixedRatioCompressor {
    /// Binds `model` to `compressor`.
    ///
    /// # Errors
    /// Fails when [`TrainedModel::check_format`] refuses the model, or
    /// when it was trained for a different compressor.
    pub fn new(model: TrainedModel, compressor: Box<dyn Compressor>) -> Result<Self, FxrzError> {
        model.check_format()?;
        if model.compressor != compressor.name() {
            return Err(FxrzError::ModelMismatch {
                trained_for: model.compressor.clone(),
                applied_to: compressor.name().to_owned(),
            });
        }
        Ok(Self { model, compressor })
    }

    /// The bound compressor.
    pub fn compressor(&self) -> &dyn Compressor {
        self.compressor.as_ref()
    }

    /// The trained model.
    pub fn model(&self) -> &TrainedModel {
        &self.model
    }

    /// Estimates the error configuration for a target compression ratio —
    /// the compression-free analysis step.
    ///
    /// # Errors
    /// Fails when `tcr` is not a finite ratio above 1.
    pub fn estimate(&self, field: &Field, tcr: f64) -> Result<Estimate, FxrzError> {
        if !(tcr.is_finite() && tcr > 1.0) {
            return Err(FxrzError::BadTarget(format!(
                "target compression ratio must be finite and > 1, got {tcr}"
            )));
        }
        let (fv, t_features) = spanned(crate::names::SPAN_FEATURES, || {
            let sampler = StridedSampler::new(self.model.stride);
            features::extract(field, sampler)
        });
        let (r, t_ca) = spanned(crate::names::SPAN_CA, || {
            self.model
                .ca
                .map(|ca: CompressibilityAdjuster| ca.non_constant_ratio(field))
                .unwrap_or(1.0)
        });
        let acr = (tcr * r).max(1.0);
        let (config, t_predict) = spanned(crate::names::SPAN_PREDICT, || {
            let coord = self.model.predict_coordinate(&fv, acr);
            self.model
                .config_space
                .from_coordinate(coord, fv.value_range)
        });
        // Analysis time is exactly what the span tree records: the three
        // compression-free stages, excluding any caller overhead.
        let analysis_time = t_features + t_ca + t_predict;
        Ok(Estimate {
            config,
            acr,
            non_constant_ratio: r,
            features: fv,
            analysis_time,
        })
    }

    /// Full fixed-ratio compression: estimate, then compress once.
    ///
    /// # Errors
    /// Propagates estimation and compression failures.
    pub fn compress(&self, field: &Field, tcr: f64) -> Result<FixedRatioOutcome, FxrzError> {
        let _compress_span = span!(crate::names::SPAN_COMPRESS);
        let estimate = self.estimate(field, tcr)?;
        let (bytes, compression_time) = spanned(crate::names::SPAN_CODEC, || {
            self.compressor.compress(field, &estimate.config)
        });
        let bytes = bytes?;
        BYTES_IN.get().add(field.nbytes() as u64);
        BYTES_OUT.get().add(bytes.len() as u64);
        let measured_ratio = field.nbytes() as f64 / bytes.len() as f64;
        Ok(FixedRatioOutcome {
            bytes,
            estimate,
            measured_ratio,
            compression_time,
        })
    }

    /// Decompresses a stream produced by [`Self::compress`].
    ///
    /// # Errors
    /// Propagates decoder failures.
    pub fn decompress(&self, bytes: &[u8]) -> Result<Field, FxrzError> {
        Ok(self.compressor.decompress(bytes)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::train::{Trainer, TrainerConfig};
    use fxrz_compressors::sz::Sz;
    use fxrz_compressors::zfp::Zfp;
    use fxrz_datagen::grf::{gaussian_random_field, GrfConfig};
    use fxrz_datagen::Dims;

    /// Trains one codec row — the per-compressor feature→eb regression —
    /// and binds it. Every registered compressor trains through the same
    /// path; a new entropy backend is just a new row.
    fn train_row(compressor: Box<dyn Compressor>) -> FixedRatioCompressor {
        let fields: Vec<Field> = (0..4)
            .map(|i| {
                gaussian_random_field(Dims::d3(16, 16, 16), GrfConfig::default().with_seed(70 + i))
            })
            .collect();
        let trainer = Trainer {
            config: TrainerConfig {
                stationary_points: 10,
                augment_per_field: 30,
                sampler: StridedSampler::new(2),
                ..TrainerConfig::default()
            },
        };
        let model = trainer.train(compressor.as_ref(), &fields).expect("train");
        FixedRatioCompressor::new(model, compressor).expect("bind")
    }

    fn train_sz() -> FixedRatioCompressor {
        train_row(Box::new(Sz))
    }

    #[test]
    fn estimates_without_running_compressor() {
        let frc = train_sz();
        let field = gaussian_random_field(Dims::d3(16, 16, 16), GrfConfig::default().with_seed(99));
        let est = frc.estimate(&field, 50.0).expect("estimate");
        assert!(matches!(est.config, ErrorConfig::Abs(eb) if eb > 0.0));
        assert!(est.acr <= 50.0 && est.acr >= 1.0);
        assert!(est.analysis_time > Duration::ZERO);
    }

    #[test]
    fn fixed_ratio_compression_lands_near_target() {
        let frc = train_sz();
        // test field statistically similar to training (capability level 1)
        let field = gaussian_random_field(Dims::d3(16, 16, 16), GrfConfig::default().with_seed(74));
        // pick a target inside the trained valid range (cf. paper Fig 11)
        let (lo, hi) = frc.model().valid_ratio_range;
        let tcr = (lo * hi).sqrt().clamp(lo * 1.2, hi * 0.8);
        let out = frc.compress(&field, tcr).expect("compress");
        let err = out.estimation_error(tcr);
        assert!(
            err < 0.35,
            "estimation error {err}, tcr {tcr}, mcr {}",
            out.measured_ratio
        );
        // decompression must work
        let back = frc.decompress(&out.bytes).expect("decompress");
        assert_eq!(back.dims(), field.dims());
    }

    #[test]
    fn higher_targets_produce_smaller_streams() {
        let frc = train_sz();
        let field = gaussian_random_field(Dims::d3(16, 16, 16), GrfConfig::default().with_seed(75));
        let lo = frc.compress(&field, 8.0).expect("compress");
        let hi = frc.compress(&field, 120.0).expect("compress");
        assert!(
            hi.bytes.len() < lo.bytes.len(),
            "{} !< {}",
            hi.bytes.len(),
            lo.bytes.len()
        );
    }

    #[test]
    fn rejects_bad_targets() {
        let frc = train_sz();
        let field = gaussian_random_field(Dims::d2(16, 16), GrfConfig::default().with_seed(1));
        assert!(frc.estimate(&field, 0.5).is_err());
        assert!(frc.estimate(&field, f64::NAN).is_err());
        assert!(frc.estimate(&field, -3.0).is_err());
    }

    /// The paper's extensibility claim: a new entropy backend is a new
    /// codec row in the feature→error-bound regression — trained, bound
    /// and served exactly like the original compressors. The FSE-forced
    /// SZ variant trains its own row, lands near target, and its archives
    /// stay readable by the baseline `sz` decoder (shared container).
    #[test]
    fn fse_backend_trains_as_its_own_codec_row() {
        use fxrz_compressors::sz::SzFse;
        let frc = train_row(Box::new(SzFse));
        assert_eq!(frc.model().compressor, "sz-fse");
        let field = gaussian_random_field(Dims::d3(16, 16, 16), GrfConfig::default().with_seed(74));
        let (lo, hi) = frc.model().valid_ratio_range;
        let tcr = (lo * hi).sqrt().clamp(lo * 1.2, hi * 0.8);
        let out = frc.compress(&field, tcr).expect("compress");
        let err = out.estimation_error(tcr);
        assert!(
            err < 0.35,
            "estimation error {err}, tcr {tcr}, mcr {}",
            out.measured_ratio
        );
        let back = frc.decompress(&out.bytes).expect("decompress");
        assert_eq!(back.dims(), field.dims());
        // Cross-decoder: the container is self-describing, so the plain
        // sz row's decoder reads sz-fse archives bit-for-bit.
        let direct = Sz.decompress(&out.bytes).expect("cross decode");
        assert_eq!(direct.data(), back.data());
        // Rows do not interchange at bind time: the model remembers which
        // backend produced its rate curves.
        assert!(matches!(
            FixedRatioCompressor::new(frc.model().clone(), Box::new(Sz)),
            Err(FxrzError::ModelMismatch { .. })
        ));
    }

    #[test]
    fn model_compressor_mismatch_detected() {
        let frc = train_sz();
        let model = frc.model().clone();
        assert!(matches!(
            FixedRatioCompressor::new(model, Box::new(Zfp::default())),
            Err(FxrzError::ModelMismatch { .. })
        ));
    }
}
