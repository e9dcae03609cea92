//! Seeded inputs and trained models shared by the `snapshot` and `serve`
//! workloads: per-application training fields, Medium-scale test fields
//! and Small-scale request fields, plus one FXRZ model per
//! (application, codec) row, as the paper trains them.

use crate::util::{Recorder, Rng};
use fxrz_compressors::by_name;
use fxrz_core::sampling::StridedSampler;
use fxrz_core::train::{TrainedModel, Trainer, TrainerConfig};
use fxrz_core::FixedRatioCompressor;
use fxrz_datagen::hurricane::{self, HurricaneConfig};
use fxrz_datagen::nyx::{self, NyxConfig};
use fxrz_datagen::qmcpack::{self, QmcPackConfig};
use fxrz_datagen::rtm::{self, RtmConfig};
use fxrz_datagen::suite::App;
use fxrz_datagen::{Dims, Field};

/// Every registry compressor row, in report order.
pub const CODECS: [&str; 7] = ["sz", "sz2", "szi", "sz-fse", "zfp", "fpzip", "mgard"];

/// Telemetry-safe label of a codec row (`sz-fse` → `sz_fse`).
pub fn label(codec: &str) -> String {
    codec.replace('-', "_")
}

/// Short lowercase application tag used in entry and model names.
pub fn tag(app: App) -> &'static str {
    match app {
        App::Nyx => "nyx",
        App::Hurricane => "hurricane",
        App::Rtm => "rtm",
        App::QmcPack => "qmcpack",
    }
}

/// One application's fields.
pub struct AppFields {
    pub app: App,
    /// Small-scale training fields (two per application).
    pub train: Vec<Field>,
    /// One Medium-scale test field, 1–5 MiB.
    pub medium: Field,
    /// One Small-scale test field, the payload of serve requests.
    pub small: Field,
}

fn first(mut fields: Vec<Field>) -> Field {
    fields.swap_remove(0)
}

/// Seed of the training fields. Models are trained once per application
/// on fixed fields — the paper's deployment story, where one training run
/// serves every later snapshot — while `--seed` drives the fields being
/// compressed. Seeding the training too would let each run's model
/// quality, and with it the error bounds and the codec work, swing with
/// the seed.
const TRAIN_SEED: u64 = 0x7EA1;

/// Generates every application's fields: training fields from
/// [`TRAIN_SEED`], test fields from `seed`. The Nyx test field is
/// `baryon_density` 64³ with `NyxConfig::default().with_seed(seed)`, so
/// `--seed 777` feeds the codec replay the exact input of the
/// `codec_throughput` bench.
pub fn fields(seed: u64) -> Vec<AppFields> {
    let nyx_train = |t| {
        nyx::baryon_density(
            Dims::d3(32, 32, 32),
            NyxConfig::default()
                .with_sim_config(0)
                .with_timestep(t)
                .with_seed(TRAIN_SEED),
        )
    };
    let hur = |dims, t, seed| {
        hurricane::tc(
            dims,
            HurricaneConfig::default().with_timestep(t).with_seed(seed),
        )
    };
    let rtm_cfg = |seed| RtmConfig::default().with_seed(seed);
    let qmc = |scale, odiv, sdiv, seed| {
        qmcpack::orbitals(
            qmcpack::scale_dims(scale, odiv, sdiv),
            QmcPackConfig::default().with_scale(scale).with_seed(seed),
        )
    };
    let small = Dims::d3(13, 64, 64);
    vec![
        AppFields {
            app: App::Nyx,
            train: vec![nyx_train(0), nyx_train(1)],
            medium: nyx::baryon_density(Dims::d3(64, 64, 64), NyxConfig::default().with_seed(seed)),
            small: nyx::baryon_density(
                Dims::d3(32, 32, 32),
                NyxConfig::default()
                    .with_sim_config(1)
                    .with_timestep(3)
                    .with_seed(seed),
            ),
        },
        AppFields {
            app: App::Hurricane,
            train: vec![hur(small, 5, TRAIN_SEED), hur(small, 20, TRAIN_SEED)],
            medium: hur(Dims::d3(25, 128, 128), 48, seed),
            small: hur(small, 48, seed),
        },
        AppFields {
            app: App::Rtm,
            train: rtm::snapshots(Dims::d3(45, 45, 24), rtm_cfg(TRAIN_SEED), &[45, 60]),
            medium: first(rtm::snapshots(Dims::d3(170, 170, 47), rtm_cfg(seed), &[90])),
            small: first(rtm::snapshots(Dims::d3(85, 85, 24), rtm_cfg(seed), &[45])),
        },
        AppFields {
            app: App::QmcPack,
            train: vec![qmc(0, 48, 5, TRAIN_SEED), qmc(1, 48, 5, TRAIN_SEED)],
            medium: qmc(2, 24, 3, seed),
            small: qmc(2, 48, 5, seed),
        },
    ]
}

/// The reduced trainer the benchmark uses: ten stationary points per
/// field keep one (application, codec) row well under a second.
pub fn trainer() -> Trainer {
    Trainer {
        config: TrainerConfig {
            stationary_points: 10,
            augment_per_field: 30,
            sampler: StridedSampler::new(4),
            ..TrainerConfig::default()
        },
    }
}

/// Trains one model for `codec` on `fields`, inside a `core.train` span.
pub fn train(rec: &Recorder, codec: &str, fields: &[Field]) -> Result<TrainedModel, String> {
    let comp = by_name(codec).ok_or_else(|| format!("unknown codec {codec}"))?;
    let (model, _) = rec.span("core.train", 0, 0, || {
        trainer().train(comp.as_ref(), fields)
    });
    model.map_err(|e| format!("train {codec}: {e}"))
}

/// Binds a trained model to a fresh instance of its compressor.
pub fn bind(model: &TrainedModel) -> Result<FixedRatioCompressor, String> {
    let comp = by_name(&model.compressor).ok_or("model names an unknown codec")?;
    FixedRatioCompressor::new(model.clone(), comp).map_err(|e| e.to_string())
}

/// Target ratios cycle through this ladder so every seed asks for the
/// same mix of light and heavy compression.
const LADDER: [f64; 4] = [6.0, 9.0, 13.5, 20.0];

/// Target ratio for `rung` of the ladder, with a ±5% seeded jitter,
/// clamped inside the model's valid range.
pub fn target(rng: &mut Rng, model: &TrainedModel, rung: usize) -> f64 {
    let (lo, hi) = model.valid_ratio_range;
    let t = LADDER[rung % LADDER.len()] * (0.95 + 0.1 * rng.unit());
    t.clamp(lo * 1.25, (hi / 1.25).max(lo * 1.25))
}
