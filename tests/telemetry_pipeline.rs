//! Telemetry integration: the whole pipeline must leave a coherent trace
//! in the global registry — nested span paths, codec byte counters, a
//! serializable snapshot — at a fixed count of name-map lookups per
//! compress.
//!
//! The registry is process-global and tests run concurrently, so every
//! assertion on its contents is monotone (presence / ≥) rather than
//! exact; the lookup count is per thread, and exact.

use fxrz::prelude::*;

fn training_fields(n: usize) -> Vec<Field> {
    (0..n)
        .map(|i| {
            nyx::baryon_density(
                Dims::d3(16, 16, 16),
                NyxConfig::default().with_seed(7 + i as u64),
            )
        })
        .collect()
}

fn trained_sz() -> FixedRatioCompressor {
    let model = Trainer::new()
        .train(&Sz, &training_fields(3))
        .expect("train");
    FixedRatioCompressor::new(model, Box::new(Sz)).expect("bind")
}

#[test]
fn compress_records_nested_span_tree() {
    let frc = trained_sz();
    let field = nyx::baryon_density(Dims::d3(16, 16, 16), NyxConfig::default().with_seed(99));
    frc.compress(&field, 15.0).expect("compress");

    let snap = fxrz::telemetry::global().snapshot();
    // The estimate stages nest under the compress root; the codec stage
    // further nests the concrete compressor name.
    for path in [
        "compress",
        "compress/features",
        "compress/ca",
        "compress/predict",
        "compress/codec",
        "compress/codec/sz",
    ] {
        let span = snap
            .span(path)
            .unwrap_or_else(|| panic!("span `{path}` missing from snapshot"));
        assert!(span.count >= 1, "span `{path}` never completed");
        assert!(span.total_ns > 0, "span `{path}` has zero duration");
    }
    // Children cannot exceed their parent (monotone even with other tests
    // running: both sides grow together under the same nesting).
    let root = snap.span("compress").expect("root").total_ns;
    let codec = snap.span("compress/codec").expect("codec").total_ns;
    assert!(codec <= root, "codec {codec} ns exceeds compress {root} ns");

    // Codec layers below the compressor leave byte counters behind.
    assert!(snap.counter("compressor.sz.compress.calls").unwrap_or(0) >= 1);
    assert!(snap.counter("compressor.sz.compress.bytes_in").unwrap_or(0) >= field.nbytes() as u64);
    assert!(snap.counter("fxrz.compress.bytes_out").unwrap_or(0) >= 1);
}

#[test]
fn snapshot_json_matches_schema() {
    let frc = trained_sz();
    let field = nyx::baryon_density(Dims::d3(16, 16, 16), NyxConfig::default().with_seed(123));
    frc.compress(&field, 12.0).expect("compress");

    let json = fxrz::telemetry::global().snapshot().to_json();
    let value = serde_json::parse_value(&json).expect("snapshot is valid JSON");
    let obj = match &value {
        serde_json::Value::Object(entries) => entries,
        other => panic!("snapshot root must be an object, got {other:?}"),
    };
    let section = |key: &str| -> &Vec<serde_json::Value> {
        match obj.iter().find(|(k, _)| k == key) {
            Some((_, serde_json::Value::Array(items))) => items,
            other => panic!("section `{key}` missing or not an array: {other:?}"),
        }
    };
    let field_names = |v: &serde_json::Value| -> Vec<String> {
        match v {
            serde_json::Value::Object(entries) => entries.iter().map(|(k, _)| k.clone()).collect(),
            other => panic!("entry must be an object, got {other:?}"),
        }
    };
    for c in section("counters") {
        assert_eq!(field_names(c), ["name", "value"]);
    }
    for g in section("gauges") {
        assert_eq!(field_names(g), ["name", "value"]);
    }
    for h in section("histograms") {
        assert_eq!(
            field_names(h),
            ["name", "count", "sum", "min", "max", "mean", "p50", "p90", "p99", "p999"]
        );
    }
    let spans = section("spans");
    assert!(!spans.is_empty(), "a compress run must record spans");
    for s in spans {
        assert_eq!(
            field_names(s),
            ["path", "count", "total_ns", "mean_ns", "p50_ns", "p99_ns"]
        );
    }
}

/// Name-map lookups one warm compress of the 32³ Nyx field makes: each
/// emit by name, handle resolve and span record is one.
const LOOKUPS_PER_COMPRESS: u64 = 23;

#[test]
fn telemetry_costs_a_fixed_count_of_lookups_per_compress() {
    // Telemetry's cost is counted, not timed: its wall-clock overhead is
    // below the run-to-run spread of one compress. On one thread the
    // per-thread count covers the whole call and no other test's.
    let frc = trained_sz();
    let field = nyx::baryon_density(Dims::d3(32, 32, 32), NyxConfig::default().with_seed(5));
    let lookups = || {
        fxrz::parallel::with_threads(1, || {
            let before = MetricsRegistry::thread_lookups();
            frc.compress(&field, 15.0).expect("compress");
            MetricsRegistry::thread_lookups() - before
        })
    };
    lookups(); // resolves the per-codec handles, which then cost none
    let (first, second) = (lookups(), lookups());
    assert_eq!(first, second, "two warm compresses made different lookups");
    assert_eq!(first, LOOKUPS_PER_COMPRESS);
}

#[test]
fn rate_curve_probing_reuses_codec_scratch() {
    // Acceptance check for the codec scratch-buffer reuse: a 25-point
    // rate-curve probe invokes the SZ pipeline dozens of times on the same
    // worker threads, so warm CodecScratch hits must show up in telemetry.
    let before = fxrz::telemetry::global()
        .snapshot()
        .counter("codec.scratch.reuse")
        .unwrap_or(0);
    let field = nyx::baryon_density(Dims::d3(16, 16, 16), NyxConfig::default().with_seed(31));
    RateCurve::build(&Sz, &field, 25).expect("curve");
    let after = fxrz::telemetry::global()
        .snapshot()
        .counter("codec.scratch.reuse")
        .unwrap_or(0);
    assert!(
        after > before,
        "25-point rate curve produced no scratch reuse ({before} -> {after})"
    );
}

#[test]
fn every_series_name_is_lowercase_dotted() {
    // Compress and decompress through every codec row, so every
    // per-codec series exists, then check every name the registry holds.
    let field = nyx::baryon_density(Dims::d3(8, 8, 8), NyxConfig::default().with_seed(3));
    for codec in fxrz::compressors::CODECS {
        let comp = (codec.make)();
        let cfg = comp.config_space().at(0.5, 1.0);
        let bytes = comp.compress(&field, &cfg).expect("compress");
        comp.decompress(&bytes).expect("decompress");
    }
    let snap = fxrz::telemetry::global().snapshot();
    let names = snap
        .counters
        .iter()
        .map(|c| &c.name)
        .chain(snap.gauges.iter().map(|g| &g.name))
        .chain(snap.histograms.iter().map(|h| &h.name));
    let bad: Vec<&String> = names
        .filter(|n| {
            !n.bytes()
                .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_' || b == b'.')
        })
        .collect();
    assert!(bad.is_empty(), "series names outside [a-z0-9_.]+: {bad:?}");
}
