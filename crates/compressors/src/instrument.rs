//! Per-codec telemetry wrappers.
//!
//! Every [`Compressor`](crate::Compressor) implementation routes its
//! `compress`/`decompress` body through these helpers, which open a span
//! named after the codec (so a pipeline-level `codec` span nests to
//! `compress/codec/sz`) and record byte counters, wall-clock histograms
//! and throughput under `compressor.<label>.<direction>.*`, where
//! [`label`] is the codec name as a metric-name segment.

#![expect(
    clippy::disallowed_types,
    reason = "this module exists to measure wall time for telemetry; \
              timings never influence compressed output bytes"
)]

use crate::CompressError;
use std::borrow::Cow;
use std::time::Instant;

/// A codec name (a [`crate::CODECS`] row's, or `zfp-rate`) as one
/// segment of a metric name, which allows only `[a-z0-9_.]`: `-` becomes
/// `_` (`sz-fse` → `sz_fse`).
pub fn label(name: &str) -> Cow<'_, str> {
    if name.contains('-') {
        Cow::Owned(name.replace('-', "_"))
    } else {
        Cow::Borrowed(name)
    }
}

fn record(
    name: &str,
    direction: &str,
    bytes_in: usize,
    bytes_out: Option<usize>,
    elapsed: std::time::Duration,
) {
    let name = label(name);
    let registry = fxrz_telemetry::global();
    match bytes_out {
        Some(out) => {
            registry.add(
                &format!("compressor.{name}.{direction}.bytes_in"),
                bytes_in as u64,
            );
            registry.add(
                &format!("compressor.{name}.{direction}.bytes_out"),
                out as u64,
            );
            registry.incr(&format!("compressor.{name}.{direction}.calls"));
            registry.observe_duration(&format!("compressor.{name}.{direction}.ns"), elapsed);
            let secs = elapsed.as_secs_f64();
            if secs > 0.0 {
                registry.observe(
                    &format!("compressor.{name}.{direction}.throughput_bps"),
                    (bytes_in as f64 / secs) as u64,
                );
            }
        }
        None => registry.incr(&format!("compressor.{name}.{direction}.errors")),
    }
}

/// Times and counts one compression call.
pub fn compress<F>(name: &str, bytes_in: usize, f: F) -> Result<Vec<u8>, CompressError>
where
    F: FnOnce() -> Result<Vec<u8>, CompressError>,
{
    let span = fxrz_telemetry::span::enter(name);
    let t0 = Instant::now();
    let out = f();
    let elapsed = t0.elapsed();
    drop(span);
    record(
        name,
        "compress",
        bytes_in,
        out.as_ref().ok().map(Vec::len),
        elapsed,
    );
    out
}

/// Times and counts one decompression call, whose output `nbytes` sizes.
pub fn decompress<T, F>(
    name: &str,
    bytes_in: usize,
    nbytes: fn(&T) -> usize,
    f: F,
) -> Result<T, CompressError>
where
    F: FnOnce() -> Result<T, CompressError>,
{
    let span = fxrz_telemetry::span::enter(name);
    let t0 = Instant::now();
    let out = f();
    let elapsed = t0.elapsed();
    drop(span);
    record(
        name,
        "decompress",
        bytes_in,
        out.as_ref().ok().map(nbytes),
        elapsed,
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn success_records_bytes_and_error_records_errors() {
        let _ = compress("test_inst", 100, || Ok(vec![0u8; 25]));
        let _ = compress("test_inst", 100, || Err(CompressError::Header("boom")));
        let snap = fxrz_telemetry::global().snapshot();
        assert_eq!(
            snap.counter("compressor.test_inst.compress.bytes_in"),
            Some(100)
        );
        assert_eq!(
            snap.counter("compressor.test_inst.compress.bytes_out"),
            Some(25)
        );
        assert_eq!(
            snap.counter("compressor.test_inst.compress.errors"),
            Some(1)
        );
        assert!(snap.span("test_inst").is_some());
    }

    #[test]
    fn labels_are_metric_segments() {
        assert_eq!(label("sz-fse"), "sz_fse");
        assert_eq!(label("zfp-rate"), "zfp_rate");
        assert!(matches!(label("sz2"), Cow::Borrowed("sz2")));
    }
}
