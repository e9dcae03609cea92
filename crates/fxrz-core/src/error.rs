//! Error type for the FXRZ framework.

use fxrz_compressors::CompressError;

/// Errors surfaced by training or inference.
#[derive(Debug)]
pub enum FxrzError {
    /// A compressor invocation failed.
    Compress(CompressError),
    /// The training corpus is empty.
    EmptyCorpus,
    /// The requested target compression ratio is not usable.
    BadTarget(String),
    /// A trained model was applied to an incompatible compressor.
    ModelMismatch {
        /// Compressor the model was trained for.
        trained_for: String,
        /// Compressor it was applied to.
        applied_to: String,
    },
    /// A serialized model declares a format newer than this build supports.
    UnsupportedModelFormat {
        /// Format version recorded in the model file.
        found: u32,
        /// Newest format version this build can read.
        supported: u32,
    },
    /// A serialized model carries a value no estimate can run with.
    InvalidModel(&'static str),
}

impl std::fmt::Display for FxrzError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FxrzError::Compress(e) => write!(f, "compressor failure: {e}"),
            FxrzError::EmptyCorpus => write!(f, "training corpus is empty"),
            FxrzError::BadTarget(m) => write!(f, "bad target compression ratio: {m}"),
            FxrzError::ModelMismatch {
                trained_for,
                applied_to,
            } => write!(
                f,
                "model trained for `{trained_for}` applied to `{applied_to}`"
            ),
            FxrzError::UnsupportedModelFormat { found, supported } => write!(
                f,
                "model format version {found} is newer than supported ({supported})"
            ),
            FxrzError::InvalidModel(m) => write!(f, "invalid model: {m}"),
        }
    }
}

impl std::error::Error for FxrzError {}

impl From<CompressError> for FxrzError {
    fn from(e: CompressError) -> Self {
        FxrzError::Compress(e)
    }
}
