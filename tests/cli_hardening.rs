//! CLI hardening: `fxrz info`, `ls` and `stats` pointed at truncated or
//! non-archive files, and `fxrz gen` asked for dims its generator cannot
//! build, must exit with a clean error message — never a panic — and
//! `--metrics` must keep working alongside a failing subcommand.
//! `fxrz compress` writes the same stream whatever directory its input
//! sits in, and every command that loads a model refuses a bad one
//! cleanly.

use std::path::PathBuf;
use std::process::{Command, Output};

use fxrz::prelude::*;
use fxrz_core::ca::CompressibilityAdjuster;
use fxrz_core::sampling::StridedSampler;
use fxrz_core::train::{TrainedModel, TrainerConfig};
use fxrz_datagen::grf::{gaussian_random_field, GrfConfig};

fn fxrz(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_fxrz"))
        .args(args)
        .output()
        .expect("spawn fxrz")
}

fn scratch(name: &str, bytes: &[u8]) -> PathBuf {
    let path = std::env::temp_dir().join(format!("fxrz-cli-hardening-{name}"));
    std::fs::write(&path, bytes).expect("write scratch file");
    path
}

fn assert_clean_failure(out: &Output, ctx: &str) {
    assert!(!out.status.success(), "{ctx}: expected failure exit");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("error:"),
        "{ctx}: stderr lacks an error line: {stderr}"
    );
    assert!(
        !stderr.contains("panicked"),
        "{ctx}: the process panicked: {stderr}"
    );
}

#[test]
fn info_on_non_archive_is_a_clean_error() {
    let path = scratch("garbage.bin", b"this is not a compressed stream");
    let out = fxrz(&["info", "--input", path.to_str().unwrap()]);
    assert_clean_failure(&out, "info on garbage");
}

#[test]
fn ls_and_stats_on_corrupt_header_are_clean_errors() {
    // Valid archive magic followed by a varint that never terminates: the
    // index parser must bail out instead of reading past the buffer.
    let mut corrupt = b"FXRZA1".to_vec();
    corrupt.extend_from_slice(&[0xFF; 12]);
    let path = scratch("corrupt-header.fxrza", &corrupt);
    for cmd in ["ls", "stats"] {
        let out = fxrz(&[cmd, "--input", path.to_str().unwrap()]);
        assert_clean_failure(&out, &format!("{cmd} on corrupt header"));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("corrupt archive"),
            "{cmd}: expected a corrupt-archive message, got: {stderr}"
        );
    }
}

#[test]
fn ls_on_truncated_index_is_a_clean_error() {
    // Magic + "3 entries" but the buffer ends mid-index.
    let truncated = b"FXRZA1\x03\x05ab".to_vec();
    let path = scratch("truncated.fxrza", &truncated);
    let out = fxrz(&["ls", "--input", path.to_str().unwrap()]);
    assert_clean_failure(&out, "ls on truncated index");
}

#[test]
fn stats_on_empty_file_is_a_clean_error() {
    let path = scratch("empty.fxrza", b"");
    let out = fxrz(&["stats", "--input", path.to_str().unwrap()]);
    assert_clean_failure(&out, "stats on empty file");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("not an fxrz archive"), "stderr: {stderr}");
}

#[test]
fn metrics_flag_survives_a_failing_subcommand() {
    let path = scratch("garbage2.bin", b"junk");
    let metrics_out = std::env::temp_dir().join("fxrz-cli-hardening-metrics.json");
    let _ = std::fs::remove_file(&metrics_out);
    let out = fxrz(&[
        "info",
        "--input",
        path.to_str().unwrap(),
        "--metrics",
        "json",
        "--metrics-out",
        metrics_out.to_str().unwrap(),
    ]);
    assert_clean_failure(&out, "info with --metrics");
    let json = std::fs::read_to_string(&metrics_out).expect("metrics file written");
    assert!(json.starts_with('{'), "metrics output is JSON: {json}");
}

#[test]
fn bad_metrics_format_is_rejected() {
    let out = fxrz(&[
        "gen",
        "--app",
        "nyx",
        "--dims",
        "4x4x4",
        "--out",
        "/dev/null",
        "--metrics",
        "yaml",
    ]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("bad --metrics"), "stderr: {stderr}");
}

#[test]
fn gen_on_dims_its_generator_cannot_build_is_a_clean_error() {
    let out_path = std::env::temp_dir().join("fxrz-cli-hardening-gen.f32");
    let out_arg = out_path.to_str().unwrap();
    for (app, dims) in [
        ("nyx", "48x48x48"),
        ("hurricane", "13x48x48"),
        ("rtm", "16x16"),
        ("qmcpack", "8x8x8"),
        ("hurricane", "16x16"),
    ] {
        let out = fxrz(&["gen", "--app", app, "--dims", dims, "--out", out_arg]);
        let ctx = format!("gen --app {app} --dims {dims}");
        assert_clean_failure(&out, &ctx);
        assert_eq!(out.status.code(), Some(1), "{ctx}: exit code");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage:"), "{ctx}: no usage: {stderr}");
    }
}

/// Two 16³ training fields and a tiny SVR model trained on them.
fn tiny_model() -> (Vec<Field>, TrainedModel) {
    let fields: Vec<Field> = (0..2)
        .map(|i| {
            gaussian_random_field(Dims::d3(16, 16, 16), GrfConfig::default().with_seed(40 + i))
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
    let model = trainer.train(&Sz, &fields).expect("train");
    (fields, model)
}

#[test]
fn commands_that_load_a_model_refuse_a_bad_one() {
    let (fields, good) = tiny_model();
    let raw: Vec<u8> = fields[0]
        .data()
        .iter()
        .flat_map(|v| v.to_le_bytes())
        .collect();
    let input = scratch("bad-model-input.f32", &raw);
    let input = input.to_str().unwrap();
    let output = std::env::temp_dir().join("fxrz-cli-hardening-bad-model.out");
    let output = output.to_str().unwrap();
    let mut future = good.clone();
    future.format_version = 99;
    let mut no_stride = good.clone();
    no_stride.stride = 0;
    let mut no_block = good;
    no_block.ca = Some(CompressibilityAdjuster {
        block: 0,
        ..CompressibilityAdjuster::default()
    });
    for (what, model) in [
        ("format 99", future),
        ("stride 0", no_stride),
        ("CA block 0", no_block),
    ] {
        let json = serde_json::to_string(&model).expect("json");
        let path = scratch(
            &format!("bad-model-{}.json", what.replace(' ', "-")),
            json.as_bytes(),
        );
        let model = path.to_str().unwrap();
        let (dims, ratio) = ("16x16x16", "10");
        for args in [
            [
                "compress", "--model", model, "--dims", dims, "--ratio", ratio, "--input", input,
                "--output", output,
            ]
            .as_slice(),
            &[
                "pack", "--model", model, "--dims", dims, "--ratio", ratio, "--output", output,
                input,
            ],
            &[
                "stream", "compress", "--models", model, "--ratio", ratio, "--input", input,
                "--output", output,
            ],
        ] {
            let ctx = format!("`fxrz {}` with a model of {what}", args[0]);
            assert_clean_failure(&fxrz(args), &ctx);
        }
    }
}

#[test]
fn compress_names_the_field_by_its_file_name() {
    let (fields, model) = tiny_model();
    let root = std::env::temp_dir().join("fxrz-cli-hardening-names");
    std::fs::create_dir_all(&root).expect("scratch dir");
    let model_path = root.join("model.json");
    std::fs::write(&model_path, serde_json::to_string(&model).expect("json")).expect("model");
    let raw: Vec<u8> = fields[0]
        .data()
        .iter()
        .flat_map(|v| v.to_le_bytes())
        .collect();
    let mut streams = Vec::new();
    for dir in ["dir", "other"] {
        std::fs::create_dir_all(root.join(dir)).expect("scratch dir");
        let input = root.join(dir).join("x.f32");
        std::fs::write(&input, &raw).expect("input");
        let output = root.join(dir).join("x.fxrz");
        let out = fxrz(&[
            "compress",
            "--model",
            model_path.to_str().unwrap(),
            "--ratio",
            "10",
            "--dims",
            "16x16x16",
            "--input",
            input.to_str().unwrap(),
            "--output",
            output.to_str().unwrap(),
        ]);
        assert!(out.status.success(), "compress from {dir}: {out:?}");
        streams.push(std::fs::read(&output).expect("stream"));
    }
    assert_eq!(
        streams[0], streams[1],
        "the input's directory reached the stream"
    );
    let name = Sz
        .decompress(&streams[0])
        .expect("decode")
        .name()
        .to_owned();
    assert_eq!(name, "x.f32");
}
