//! Telemetry integration: the whole pipeline must leave a coherent trace
//! in the global registry — nested span paths, codec byte counters, a
//! serializable snapshot — and the instrumentation must stay far below
//! the acceptance budget of 2% of compression wall time.
//!
//! The registry is process-global and tests run concurrently, so every
//! assertion here is monotone (presence / ≥) rather than exact.

use fxrz::prelude::*;
use std::time::{Duration, Instant};

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

#[test]
fn telemetry_overhead_is_under_two_percent_without_sink() {
    let frc = trained_sz();
    // Bigger field: the overhead bound should hold against a realistic
    // (not artificially tiny) compression granule.
    let field = nyx::baryon_density(Dims::d3(32, 32, 32), NyxConfig::default().with_seed(5));
    frc.compress(&field, 15.0).expect("warmup");

    let reps = 5u32;
    let t0 = Instant::now();
    for _ in 0..reps {
        frc.compress(&field, 15.0).expect("compress");
    }
    let per_compress = t0.elapsed() / reps;

    // Cost of the primitives a pipeline stage uses: the three registry
    // calls plus the flight-recorder write every `span!` guard performs
    // on drop, so the tracing path is priced in, not just the metrics.
    let registry = fxrz::telemetry::global();
    let recorder = fxrz::telemetry::flight_recorder();
    let probes = 10_000u32;
    let t1 = Instant::now();
    for i in 0..probes {
        // fxrz-lint: allow(telemetry_names): synthetic probe series for overhead measurement
        registry.add("overhead.probe.counter", 1);
        // fxrz-lint: allow(telemetry_names): synthetic probe series for overhead measurement
        registry.observe("overhead.probe.hist", u64::from(i));
        registry.record_span("overhead.probe/span", Duration::from_nanos(50));
        recorder.record(
            fxrz::telemetry::RecordKind::Span,
            None,
            u64::from(i),
            50,
            "overhead.probe/span",
        );
    }
    let per_triplet = t1.elapsed() / probes;

    // One compress touches well under 40 counter/histogram/span sites
    // (compressor wrapper + codec stages + pipeline spans). Even at that
    // generous bound the instrumentation must stay below 2%.
    let overhead = per_triplet * 40;
    let budget = per_compress.as_secs_f64() * 0.02;
    assert!(
        overhead.as_secs_f64() < budget,
        "estimated telemetry overhead {overhead:?} exceeds 2% of compress time {per_compress:?}"
    );
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
