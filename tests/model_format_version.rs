//! Integration: serialized-model format versioning and validation.
//!
//! `fxrz train` stamps `format_version` into every model JSON. Files that
//! predate the field (the committed `model_legacy_v0.json` fixture) must
//! still load — they decode as version 0 — while files from a future,
//! newer format must be refused instead of misread. So must a model whose
//! sampling stride or CA block width is 0, wherever a model is loaded.

use fxrz::prelude::*;
use fxrz::stream::{StreamConfig, StreamEncoder};
use fxrz_core::ca::CompressibilityAdjuster;
use fxrz_core::sampling::StridedSampler;
use fxrz_core::train::{TrainedModel, TrainerConfig, MODEL_FORMAT_VERSION};
use fxrz_datagen::grf::{gaussian_random_field, GrfConfig};

const LEGACY_FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/model_legacy_v0.json"
);

fn train_tiny() -> TrainedModel {
    let fields: Vec<Field> = (0..2)
        .map(|i| {
            gaussian_random_field(
                Dims::d3(16, 16, 16),
                GrfConfig::default().with_seed(2600 + i),
            )
        })
        .collect();
    let trainer = Trainer {
        config: TrainerConfig {
            model: fxrz_ml::ModelKind::Svr,
            stationary_points: 8,
            augment_per_field: 12,
            sampler: StridedSampler::new(2),
            ..TrainerConfig::default()
        },
    };
    trainer.train(&Sz, &fields).expect("train")
}

#[test]
fn legacy_versionless_model_still_loads_and_runs() {
    let json = std::fs::read_to_string(LEGACY_FIXTURE).expect("read legacy fixture");
    assert!(
        !json.contains("format_version"),
        "fixture is supposed to predate the format_version field"
    );
    let model: TrainedModel = serde_json::from_str(&json).expect("legacy model must deserialize");
    assert_eq!(model.format_version, 0, "absent field must decode as 0");
    model.check_format().expect("version 0 is supported");

    // The legacy model must not just parse — it must still drive the
    // full fixed-ratio pipeline.
    let frc = FixedRatioCompressor::new(model, Box::new(Sz)).expect("bind");
    let field = gaussian_random_field(Dims::d3(16, 16, 16), GrfConfig::default().with_seed(9));
    let out = frc.compress(&field, 8.0).expect("compress");
    assert!(out.measured_ratio > 1.0);
    let back = frc.decompress(&out.bytes).expect("decompress");
    assert_eq!(back.dims(), field.dims());
}

#[test]
fn current_models_roundtrip_with_explicit_version() {
    let model = train_tiny();
    assert_eq!(model.format_version, MODEL_FORMAT_VERSION);
    let json = serde_json::to_string(&model).expect("serialize");
    assert!(
        json.contains("\"format_version\""),
        "field missing from JSON"
    );
    let reloaded: TrainedModel = serde_json::from_str(&json).expect("deserialize");
    assert_eq!(reloaded.format_version, MODEL_FORMAT_VERSION);
    reloaded
        .check_format()
        .expect("current version is supported");
}

#[test]
fn future_versions_are_refused_by_registry_and_check() {
    let mut model = train_tiny();
    model.format_version = MODEL_FORMAT_VERSION + 1;
    assert!(model.check_format().is_err());
    let json = serde_json::to_string(&model).expect("serialize");
    let reg = ModelRegistry::new();
    assert!(
        reg.load_json("future", 0, &json).is_err(),
        "registry accepted a model from the future"
    );
}

/// A trained model edited three ways, each a model no estimate can run.
fn bad_models() -> Vec<(&'static str, TrainedModel)> {
    let good = train_tiny();
    let mut future = good.clone();
    future.format_version = 99;
    let mut no_stride = good.clone();
    no_stride.stride = 0;
    let mut no_block = good;
    no_block.ca = Some(CompressibilityAdjuster {
        block: 0,
        ..CompressibilityAdjuster::default()
    });
    vec![
        ("format 99", future),
        ("stride 0", no_stride),
        ("CA block 0", no_block),
    ]
}

#[test]
fn every_load_path_refuses_a_bad_model() {
    for (what, model) in bad_models() {
        assert!(model.check_format().is_err(), "{what}: check_format");
        assert!(
            FixedRatioCompressor::new(model.clone(), Box::new(Sz)).is_err(),
            "{what}: bind"
        );
        let json = serde_json::to_string(&model).expect("serialize");
        assert!(
            ModelRegistry::new().load_json("bad", 0, &json).is_err(),
            "{what}: registry"
        );
        assert!(
            StreamEncoder::with_models(StreamConfig::new(8.0), vec![model]).is_err(),
            "{what}: stream encoder"
        );
    }
}

#[test]
fn a_served_bad_model_is_refused_without_a_panic() {
    let server = Server::new(ServerConfig::default());
    let handle = server.serve_tcp("127.0.0.1:0").expect("bind tcp");
    let mut client =
        Client::connect_tcp(&handle.local_addr().expect("addr").to_string()).expect("connect");
    let field = gaussian_random_field(Dims::d3(16, 16, 16), GrfConfig::default().with_seed(9));
    for (what, model) in bad_models() {
        let json = serde_json::to_string(&model).expect("serialize");
        assert!(client.load_model("bad", 0, &json).is_err(), "{what}: load");
        assert!(
            client.predict("bad", 8.0, &field).is_err(),
            "{what}: predict"
        );
    }
    let panics = server.metrics().counter(fxrz::serve::names::SCHED_PANICS);
    assert_eq!(panics.get(), 0, "the daemon panicked on a request");
    assert!(handle.shutdown().drained);
}

/// Regenerates `tests/fixtures/model_legacy_v0.json`: a tiny SVR model
/// with its `format_version` key stripped, exactly what a pre-versioning
/// `fxrz train` would have written. Run manually when the (frozen) legacy
/// layout must be re-emitted:
///
/// ```text
/// cargo test --test model_format_version -- --ignored regenerate
/// ```
#[test]
#[ignore = "fixture generator, run manually"]
fn regenerate_legacy_fixture() {
    let model = train_tiny();
    let json = serde_json::to_string(&model).expect("serialize");
    let marker = format!("\"format_version\":{MODEL_FORMAT_VERSION},");
    assert!(json.contains(&marker), "expected `{marker}` in: {json}");
    let legacy = json.replacen(&marker, "", 1);
    assert!(!legacy.contains("format_version"));
    // Must still parse after surgery (as version 0).
    let _: TrainedModel = serde_json::from_str(&legacy).expect("stripped model parses");
    std::fs::write(LEGACY_FIXTURE, legacy).expect("write fixture");
}
