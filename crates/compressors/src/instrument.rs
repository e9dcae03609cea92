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

use crate::{names, CompressError, CODECS};
use fxrz_telemetry::{Counter, HdrHistogram, Name, Resolved, Template};
use std::borrow::Cow;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

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

/// One codec direction's series. Each is resolved on its first record,
/// so a snapshot lists only the series a codec has recorded into.
struct Series {
    bytes_in: Resolved<Name, Arc<Counter>>,
    bytes_out: Resolved<Name, Arc<Counter>>,
    calls: Resolved<Name, Arc<Counter>>,
    ns: Resolved<Name, Arc<HdrHistogram>>,
    throughput_bps: Resolved<Name, Arc<HdrHistogram>>,
    errors: Resolved<Name, Arc<Counter>>,
}

impl Series {
    fn new(codec: &str, direction: &str) -> Self {
        let label = label(codec);
        let name = |template: Template| template.fill(&[&label, direction]);
        Self {
            bytes_in: Resolved::counter(name(names::PER_CODEC_BYTES_IN)),
            bytes_out: Resolved::counter(name(names::PER_CODEC_BYTES_OUT)),
            calls: Resolved::counter(name(names::PER_CODEC_CALLS)),
            ns: Resolved::histogram(name(names::PER_CODEC_NS)),
            throughput_bps: Resolved::histogram(name(names::PER_CODEC_THROUGHPUT_BPS)),
            errors: Resolved::counter(name(names::PER_CODEC_ERRORS)),
        }
    }

    fn record(&self, bytes_in: usize, bytes_out: Option<usize>, elapsed: Duration) {
        let Some(out) = bytes_out else {
            self.errors.get().incr();
            return;
        };
        self.bytes_in.get().add(bytes_in as u64);
        self.bytes_out.get().add(out as u64);
        self.calls.get().incr();
        self.ns.get().record_duration(elapsed);
        let secs = elapsed.as_secs_f64();
        if secs > 0.0 {
            self.throughput_bps
                .get()
                .record((bytes_in as f64 / secs) as u64);
        }
    }
}

const COMPRESS: usize = 0;
const DECOMPRESS: usize = 1;

/// One codec's `[compress, decompress]` series.
fn row(codec: &str) -> [Series; 2] {
    [
        Series::new(codec, "compress"),
        Series::new(codec, "decompress"),
    ]
}

fn record(
    name: &str,
    direction: usize,
    bytes_in: usize,
    bytes_out: Option<usize>,
    elapsed: Duration,
) {
    static ROWS: OnceLock<Vec<(&str, [Series; 2])>> = OnceLock::new();
    let rows = ROWS.get_or_init(|| {
        let codecs = CODECS.iter().map(|c| c.name).chain(["zfp-rate"]);
        codecs.map(|codec| (codec, row(codec))).collect()
    });
    match rows.iter().find(|(codec, _)| *codec == name) {
        Some((_, series)) => series[direction].record(bytes_in, bytes_out, elapsed),
        // A codec outside the table (tests wrap their own) fills its
        // names on every call.
        None => row(name)[direction].record(bytes_in, bytes_out, elapsed),
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
        COMPRESS,
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
        DECOMPRESS,
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
