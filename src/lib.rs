//! # FXRZ — feature-driven fixed-ratio lossy compression
//!
//! This facade crate re-exports the whole workspace so downstream users can
//! depend on a single crate:
//!
//! ```
//! use fxrz::prelude::*;
//!
//! let field = nyx::baryon_density(Dims::d3(16, 16, 16), NyxConfig::default().with_seed(7));
//! let sz = Sz::default();
//! // Train a fixed-ratio model from a handful of training fields ...
//! ```
//!
//! See [`core`] for the framework itself, [`compressors`] for the four
//! error-bounded lossy compressors, [`datagen`] for the synthetic scientific
//! datasets, [`ml`] for the regression models, [`fraz`] for the baseline
//! search framework and [`parallel_io`] for the parallel-dump simulator.

#![forbid(unsafe_code)]

pub use fxrz_archive as archive;
pub use fxrz_codec as codec;
pub use fxrz_compressors as compressors;
pub use fxrz_core as core;
pub use fxrz_datagen as datagen;
pub use fxrz_fraz as fraz;
pub use fxrz_ml as ml;
pub use fxrz_parallel as parallel;
pub use fxrz_parallel_io as parallel_io;
pub use fxrz_serve as serve;
pub use fxrz_stream as stream;
pub use fxrz_telemetry as telemetry;

/// Convenient glob-import surface covering the common API.
pub mod prelude {
    pub use fxrz_archive::{Archive, ArchiveWriter};
    pub use fxrz_compressors::{
        fpzip::Fpzip, mgard::Mgard, sz::Sz, zfp::Zfp, Compressor, ConfigSpace, ErrorConfig,
    };
    pub use fxrz_core::{
        augment::RateCurve,
        ca::CompressibilityAdjuster,
        features::{FeatureSet, FeatureVector},
        infer::FixedRatioCompressor,
        sampling::StridedSampler,
        train::{TrainedModel, Trainer, TrainerConfig},
    };
    pub use fxrz_datagen::hurricane::HurricaneConfig;
    pub use fxrz_datagen::nyx::NyxConfig;
    pub use fxrz_datagen::qmcpack::QmcPackConfig;
    pub use fxrz_datagen::rtm::RtmConfig;
    pub use fxrz_datagen::{hurricane, nyx, qmcpack, rtm, Dims, Field};
    pub use fxrz_fraz::FrazSearcher;
    pub use fxrz_ml::{adaboost::AdaBoostR2, forest::RandomForest, svr::Svr, tree::RegressionTree};
    pub use fxrz_parallel_io::{Cluster, DumpReport};
    pub use fxrz_serve::{Client, ModelRegistry, Server, ServerConfig};
    pub use fxrz_telemetry::{MetricsRegistry, MetricsSnapshot};
}
