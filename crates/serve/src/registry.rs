//! The model registry: trained forests loaded once, addressed by
//! `id@version`, hot-swappable while requests are in flight.
//!
//! Every model lives behind an [`Arc`]: a `LoadModel` request replaces the
//! registry slot atomically (under a short write lock), while requests
//! that already resolved the previous version keep their `Arc` clone and
//! finish on the old model — the swap never stalls or corrupts in-flight
//! work.

use crate::lock::RwLock;
use fxrz_core::infer::FixedRatioCompressor;
use fxrz_core::train::TrainedModel;
use fxrz_telemetry::{Counter, MetricsRegistry};
use serde::Serialize;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// Registry failures, mapped onto wire error codes by the server.
#[derive(Debug)]
pub enum RegistryError {
    /// No model matches the reference.
    NoSuchModel(String),
    /// The model JSON did not parse.
    Parse(String),
    /// The model parsed but was rejected (format version, unknown
    /// compressor, compressor mismatch, or a version conflict).
    Rejected(String),
}

impl std::fmt::Display for RegistryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegistryError::NoSuchModel(r) => write!(f, "no model matching `{r}`"),
            RegistryError::Parse(m) => write!(f, "model json did not parse: {m}"),
            RegistryError::Rejected(m) => write!(f, "model rejected: {m}"),
        }
    }
}

impl std::error::Error for RegistryError {}

/// One loaded model: the inference engine bound to its identity.
pub struct ServedModel {
    /// Registry id.
    pub id: String,
    /// Registry version.
    pub version: u32,
    /// The ready-to-run fixed-ratio engine.
    pub engine: FixedRatioCompressor,
}

impl ServedModel {
    /// `id@version` as printed in listings and reply info blobs.
    pub fn reference(&self) -> String {
        format!("{}@{}", self.id, self.version)
    }
}

/// Listing entry returned by [`ModelRegistry::list`] (the `Stats` reply).
#[derive(Clone, Debug, Serialize)]
pub struct ModelInfo {
    /// Registry id.
    pub id: String,
    /// Registry version.
    pub version: u32,
    /// Compressor the model drives.
    pub compressor: String,
    /// Serialized-format version of the model file.
    pub format_version: u32,
    /// Training rows the model was fitted on.
    pub n_rows: usize,
    /// Compression-ratio range the training curves covered.
    pub valid_ratio_range: (f64, f64),
    /// Regressor family and size.
    pub regressor: String,
}

/// Thread-safe registry of [`ServedModel`]s, versioned per id.
#[derive(Default)]
pub struct ModelRegistry {
    models: RwLock<HashMap<String, BTreeMap<u32, Arc<ServedModel>>>>,
    loads: Arc<Counter>,
}

impl ModelRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty registry counting its loads in `metrics` (the owning
    /// server's registry).
    pub(crate) fn counting_into(metrics: &MetricsRegistry) -> Self {
        Self {
            models: RwLock::default(),
            loads: metrics.counter(crate::names::REGISTRY_LOADS),
        }
    }

    /// Validates and binds a deserialized model, without inserting it.
    fn bind(model: TrainedModel) -> Result<FixedRatioCompressor, RegistryError> {
        model
            .check_format()
            .map_err(|e| RegistryError::Rejected(e.to_string()))?;
        let comp = fxrz_compressors::by_name(&model.compressor).ok_or_else(|| {
            RegistryError::Rejected(format!(
                "model names unknown compressor `{}`",
                model.compressor
            ))
        })?;
        FixedRatioCompressor::new(model, comp).map_err(|e| RegistryError::Rejected(e.to_string()))
    }

    /// Inserts an already-deserialized model under `id`. `version == 0`
    /// auto-assigns `latest + 1`; an explicit version replaces any model
    /// already filed there (hot reload). Returns the assigned version.
    ///
    /// # Errors
    /// Fails when the model's format is unsupported or its compressor
    /// cannot be bound.
    pub fn insert(
        &self,
        id: &str,
        version: u32,
        model: TrainedModel,
    ) -> Result<u32, RegistryError> {
        let engine = Self::bind(model)?;
        let mut models = self.models.write();
        let slot = models.entry(id.to_owned()).or_default();
        let version = if version == 0 {
            slot.keys().next_back().copied().unwrap_or(0) + 1
        } else {
            version
        };
        let served = Arc::new(ServedModel {
            id: id.to_owned(),
            version,
            engine,
        });
        // An existing Arc at this version stays alive inside any in-flight
        // request that resolved it; only the registry's reference moves.
        slot.insert(version, served);
        self.loads.incr();
        Ok(version)
    }

    /// Parses `fxrz train` model JSON and inserts it (the `LoadModel` op).
    ///
    /// # Errors
    /// Fails on parse errors and on everything [`Self::insert`] rejects.
    pub fn load_json(&self, id: &str, version: u32, json: &str) -> Result<u32, RegistryError> {
        let model: TrainedModel =
            serde_json::from_str(json).map_err(|e| RegistryError::Parse(e.to_string()))?;
        self.insert(id, version, model)
    }

    /// Reads a model file from disk and inserts it (server startup).
    ///
    /// # Errors
    /// Fails on I/O errors and on everything [`Self::load_json`] rejects.
    pub fn load_file(
        &self,
        id: &str,
        version: u32,
        path: &std::path::Path,
    ) -> Result<u32, RegistryError> {
        let json = std::fs::read_to_string(path)
            .map_err(|e| RegistryError::Parse(format!("{}: {e}", path.display())))?;
        self.load_json(id, version, &json)
    }

    /// Resolves a wire reference: `id` picks the latest version,
    /// `id@N` an exact one. The returned `Arc` stays valid across hot
    /// swaps for as long as the caller holds it.
    ///
    /// # Errors
    /// Fails when nothing matches.
    pub fn resolve(&self, model_ref: &str) -> Result<Arc<ServedModel>, RegistryError> {
        let (id, version) = match model_ref.split_once('@') {
            Some((id, v)) => {
                let v: u32 = v
                    .parse()
                    .map_err(|_| RegistryError::NoSuchModel(model_ref.to_owned()))?;
                (id, Some(v))
            }
            None => (model_ref, None),
        };
        let models = self.models.read();
        let slot = models
            .get(id)
            .ok_or_else(|| RegistryError::NoSuchModel(model_ref.to_owned()))?;
        let found = match version {
            Some(v) => slot.get(&v),
            None => slot.values().next_back(),
        };
        found
            .cloned()
            .ok_or_else(|| RegistryError::NoSuchModel(model_ref.to_owned()))
    }

    /// All loaded models, sorted by `(id, version)`.
    pub fn list(&self) -> Vec<ModelInfo> {
        let models = self.models.read();
        let mut ids: Vec<&String> = models.keys().collect();
        ids.sort();
        ids.iter()
            .flat_map(|id| models[*id].values())
            .map(|m| {
                let model = m.engine.model();
                ModelInfo {
                    id: m.id.clone(),
                    version: m.version,
                    compressor: model.compressor.clone(),
                    format_version: model.format_version,
                    n_rows: model.n_rows,
                    valid_ratio_range: model.valid_ratio_range,
                    regressor: model.regressor_summary(),
                }
            })
            .collect()
    }

    /// Number of loaded `(id, version)` pairs.
    pub fn len(&self) -> usize {
        self.models.read().values().map(BTreeMap::len).sum()
    }

    /// True when no model is loaded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fxrz_compressors::sz::Sz;
    use fxrz_core::sampling::StridedSampler;
    use fxrz_core::train::{Trainer, TrainerConfig, MODEL_FORMAT_VERSION};
    use fxrz_datagen::grf::{gaussian_random_field, GrfConfig};
    use fxrz_datagen::{Dims, Field};
    use fxrz_ml::ModelKind;

    fn tiny_model(seed: u64) -> TrainedModel {
        let fields: Vec<Field> = (0..2)
            .map(|i| {
                gaussian_random_field(Dims::d3(8, 8, 8), GrfConfig::default().with_seed(seed + i))
            })
            .collect();
        let trainer = Trainer {
            config: TrainerConfig {
                model: ModelKind::Svr,
                stationary_points: 6,
                augment_per_field: 10,
                sampler: StridedSampler::new(2),
                ..TrainerConfig::default()
            },
        };
        trainer.train(&Sz, &fields).expect("train")
    }

    #[test]
    fn versions_auto_assign_and_resolve() {
        let reg = ModelRegistry::new();
        assert_eq!(reg.insert("nyx", 0, tiny_model(1)).expect("v1"), 1);
        assert_eq!(reg.insert("nyx", 0, tiny_model(2)).expect("v2"), 2);
        assert_eq!(reg.insert("nyx", 7, tiny_model(3)).expect("v7"), 7);
        assert_eq!(reg.len(), 3);
        assert_eq!(reg.resolve("nyx").expect("latest").version, 7);
        assert_eq!(reg.resolve("nyx@2").expect("exact").version, 2);
        assert!(matches!(
            reg.resolve("nyx@99"),
            Err(RegistryError::NoSuchModel(_))
        ));
        assert!(matches!(
            reg.resolve("other"),
            Err(RegistryError::NoSuchModel(_))
        ));
    }

    #[test]
    fn hot_swap_keeps_inflight_arc_alive() {
        let reg = ModelRegistry::new();
        reg.insert("m", 1, tiny_model(10)).expect("v1");
        let held = reg.resolve("m").expect("resolve");
        // hot reload replaces version 1 while `held` is still in use
        reg.insert("m", 1, tiny_model(11)).expect("reload");
        let fresh = reg.resolve("m").expect("resolve");
        assert!(!Arc::ptr_eq(&held, &fresh), "slot must hold the new model");
        // the old engine still answers
        let field = gaussian_random_field(Dims::d3(8, 8, 8), GrfConfig::default().with_seed(99));
        assert!(held.engine.estimate(&field, 20.0).is_ok());
    }

    #[test]
    fn bad_json_and_future_format_rejected() {
        let reg = ModelRegistry::new();
        assert!(matches!(
            reg.load_json("x", 0, "{not json"),
            Err(RegistryError::Parse(_))
        ));
        let mut model = tiny_model(20);
        model.format_version = MODEL_FORMAT_VERSION + 1;
        assert!(matches!(
            reg.insert("x", 0, model),
            Err(RegistryError::Rejected(_))
        ));
        assert!(reg.is_empty());
    }

    #[test]
    fn listing_reports_identity_and_size() {
        let reg = ModelRegistry::new();
        reg.insert("hurricane", 3, tiny_model(30)).expect("insert");
        let list = reg.list();
        assert_eq!(list.len(), 1);
        assert_eq!(list[0].id, "hurricane");
        assert_eq!(list[0].version, 3);
        assert_eq!(list[0].compressor, "sz");
        assert!(list[0].regressor.starts_with("svr("));
        assert_eq!(
            reg.resolve("hurricane").expect("r").reference(),
            "hurricane@3"
        );
    }
}
