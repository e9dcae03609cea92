//! Telemetry metric and span name inventory for the core pipeline; see
//! `crates/codec/src/names.rs` for the convention.

use fxrz_telemetry::Name;

/// Feature-extraction invocations.
pub const FEATURES_EXTRACTIONS: Name = Name::new("fxrz.features.extractions");
/// Points visited by the feature sampler.
pub const FEATURES_SAMPLED_POINTS: Name = Name::new("fxrz.features.sampled_points");
/// Blocks examined by the constant-area detector.
pub const CA_BLOCKS: Name = Name::new("fxrz.ca.blocks");
/// Blocks the constant-area detector classified as non-constant.
pub const CA_NON_CONSTANT_BLOCKS: Name = Name::new("fxrz.ca.non_constant_blocks");
/// Training rows assembled for the regressor.
pub const TRAIN_ROWS: Name = Name::new("fxrz.train.rows");
/// Rate-distortion curves traced during augmentation.
pub const AUGMENT_CURVES: Name = Name::new("fxrz.augment.curves");
/// Stationary-probe evaluations during augmentation.
pub const AUGMENT_STATIONARY_PROBES: Name = Name::new("fxrz.augment.stationary_probes");
/// Augmented training rows emitted.
pub const AUGMENT_ROWS: Name = Name::new("fxrz.augment.rows");
/// Uncompressed bytes entering the fixed-ratio pipeline.
pub const COMPRESS_BYTES_IN: Name = Name::new("fxrz.compress.bytes_in");
/// Compressed bytes leaving the fixed-ratio pipeline.
pub const COMPRESS_BYTES_OUT: Name = Name::new("fxrz.compress.bytes_out");
/// Points drawn by the sampling strategy.
pub const SAMPLING_POINTS: Name = Name::new("fxrz.sampling.points");

/// Span around model training.
pub const SPAN_TRAIN: Name = Name::new("train");
/// Span around the stationary-curve probe (nested under train).
pub const SPAN_STATIONARY: Name = Name::new("stationary");
/// Span around training-set augmentation (nested under train).
pub const SPAN_AUGMENT: Name = Name::new("augment");
/// Span around regressor fitting (nested under train).
pub const SPAN_FIT: Name = Name::new("fit");
/// Span around one fixed-ratio compression call.
pub const SPAN_COMPRESS: Name = Name::new("compress");
/// Span around feature extraction (nested under compress).
pub const SPAN_FEATURES: Name = Name::new("features");
/// Span around constant-area analysis (nested under compress).
pub const SPAN_CA: Name = Name::new("ca");
/// Span around the ratio→config prediction (nested under compress).
pub const SPAN_PREDICT: Name = Name::new("predict");
/// Span around the backend codec run (nested under compress).
pub const SPAN_CODEC: Name = Name::new("codec");
