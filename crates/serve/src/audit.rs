//! Per-request accuracy auditing: one JSONL record per data-plane
//! request, plus in-memory per-model accuracy aggregates for the live
//! `Stats` plane.
//!
//! The fixed-ratio contract is the whole point of FXRZ — a served model
//! that silently drifts away from its target ratio is worse than one
//! that fails loudly. Every `Compress` therefore emits an [`AuditRecord`]
//! tying the request's trace id to the model used, the features the
//! prediction saw, the predicted error bound, and the *achieved*
//! compression ratio, with an explicit in-tolerance verdict. Records go
//! to an append-only JSONL sink (one `serde_json` object per line, so
//! offline tooling can replay them) and fold into [`AccuracyStats`] for
//! `fxrz top`.

use crate::lock::{Mutex, RwLock};
use fxrz_core::features::FeatureVector;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::io::{self, LineWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One audited request, serialized as a single JSON line.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct AuditRecord {
    /// Trace id assigned at dispatch; matches the `trace_id` in the
    /// compress reply's info JSON, so clients can join their responses
    /// against the audit log.
    pub trace_id: u64,
    /// Client-chosen request id from the frame header.
    pub req_id: u64,
    /// Op name (`compress`, ...).
    pub op: String,
    /// Model reference (`id@version`) that served the request.
    pub model: String,
    /// Ratio the client asked for.
    pub target_cr: f64,
    /// Scalar coordinate of the predicted error configuration
    /// (`ln(eb)` for absolute bounds — see `ErrorConfig::coordinate`).
    pub predicted_eb: f64,
    /// Human-readable predicted error configuration.
    pub config: String,
    /// Measured compression ratio of the produced stream.
    pub achieved_cr: f64,
    /// `|achieved - target| / target`.
    pub rel_err: f64,
    /// True when `rel_err` is within the server's tolerance.
    pub in_tolerance: bool,
    /// Nanoseconds spent queued before execution.
    pub queue_ns: u64,
    /// Nanoseconds spent executing (analysis + compression).
    pub exec_ns: u64,
    /// Input payload size in bytes.
    pub uncompressed_bytes: u64,
    /// Output stream size in bytes.
    pub compressed_bytes: u64,
    /// Features the prediction saw.
    pub features: FeatureVector,
}

/// Append-only JSONL sink. Writes are line-buffered and flushed per
/// record so a crashed daemon loses at most the record being written.
pub struct AuditSink {
    out: Mutex<Box<dyn Write + Send>>,
}

impl AuditSink {
    /// Opens (creating or appending to) the JSONL file at `path`.
    ///
    /// # Errors
    /// Propagates file-open errors.
    pub fn open(path: &Path) -> io::Result<Self> {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        Ok(Self::from_writer(Box::new(LineWriter::new(file))))
    }

    /// Wraps an arbitrary writer (tests use a `Vec<u8>`).
    pub fn from_writer(out: Box<dyn Write + Send>) -> Self {
        Self {
            out: Mutex::new(out),
        }
    }

    /// Appends one record as a JSON line. The server counts the outcome
    /// (`serve.audit.records` / `serve.audit.write_errors`) and drops a
    /// failed record, never retrying — the audit log must not be able to
    /// stall the data plane.
    ///
    /// # Errors
    /// Serialization and write failures.
    pub fn append(&self, record: &AuditRecord) -> io::Result<()> {
        crate::lock::blocking("an audit append");
        let line = serde_json::to_string(record)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        // This lock exists to serialize the sink's writes.
        let mut out = self.out.lock();
        writeln!(out, "{line}").and_then(|()| out.flush())
    }
}

/// Fixed-point scale for accumulating relative errors in an atomic
/// (1e-9 resolution — far finer than the tolerances being tracked).
const REL_ERR_SCALE: f64 = 1e9;

/// Lock-free per-model accumulator.
#[derive(Debug, Default)]
struct ModelAccuracy {
    requests: AtomicU64,
    in_tolerance: AtomicU64,
    rel_err_fp: AtomicU64,
    exec_ns: AtomicU64,
}

/// Per-model accuracy aggregates, keyed by model reference
/// (`id@version`). Feeds the `accuracy` array in the `Stats` reply.
#[derive(Debug, Default)]
pub struct AccuracyStats {
    inner: RwLock<BTreeMap<String, Arc<ModelAccuracy>>>,
}

impl AccuracyStats {
    /// Folds one audited request into the model's aggregate.
    pub fn record(&self, model: &str, rel_err: f64, in_tolerance: bool, exec_ns: u64) {
        let entry = {
            let map = self.inner.read();
            map.get(model).cloned()
        };
        let entry = entry.unwrap_or_else(|| {
            let mut map = self.inner.write();
            Arc::clone(map.entry(model.to_string()).or_default())
        });
        entry.requests.fetch_add(1, Ordering::Relaxed);
        if in_tolerance {
            entry.in_tolerance.fetch_add(1, Ordering::Relaxed);
        }
        let fp = (rel_err.clamp(0.0, 1e3) * REL_ERR_SCALE) as u64;
        entry.rel_err_fp.fetch_add(fp, Ordering::Relaxed);
        entry.exec_ns.fetch_add(exec_ns, Ordering::Relaxed);
    }

    /// JSON array of per-model summaries, one object per model:
    /// `{"model","requests","in_tolerance","mean_rel_err","mean_exec_ns"}`.
    pub fn to_json(&self) -> String {
        let map = self.inner.read();
        let entries: Vec<String> = map
            .iter()
            .map(|(model, acc)| {
                let n = acc.requests.load(Ordering::Relaxed);
                let denom = n.max(1) as f64;
                format!(
                    "{{\"model\":{},\"requests\":{n},\"in_tolerance\":{},\"mean_rel_err\":{},\"mean_exec_ns\":{}}}",
                    serde_json::to_string(model).unwrap_or_else(|_| "\"?\"".to_owned()),
                    acc.in_tolerance.load(Ordering::Relaxed),
                    acc.rel_err_fp.load(Ordering::Relaxed) as f64 / REL_ERR_SCALE / denom,
                    acc.exec_ns.load(Ordering::Relaxed) as f64 / denom,
                )
            })
            .collect();
        format!("[{}]", entries.join(","))
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::sync::Mutex;

    pub(crate) fn sample_record() -> AuditRecord {
        AuditRecord {
            trace_id: 0xABCD,
            req_id: 7,
            op: "compress".to_owned(),
            model: "m@1".to_owned(),
            target_cr: 16.0,
            predicted_eb: -4.2,
            config: "abs(1e-3)".to_owned(),
            achieved_cr: 15.4,
            rel_err: 0.0375,
            in_tolerance: true,
            queue_ns: 1_200,
            exec_ns: 450_000,
            uncompressed_bytes: 16384,
            compressed_bytes: 1064,
            features: FeatureVector {
                value_range: 2.0,
                mean_value: 0.5,
                mnd: 0.1,
                mld: 0.2,
                msd: 0.3,
                mean_gradient: 0.05,
                min_gradient: 0.0,
                max_gradient: 0.9,
            },
        }
    }

    /// `Write` adapter that shares its buffer, so the test can read back
    /// what the boxed sink wrote.
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn sink_writes_one_parseable_line_per_record() {
        let buf = Arc::new(Mutex::new(Vec::new()));
        let sink = AuditSink::from_writer(Box::new(SharedBuf(Arc::clone(&buf))));
        sink.append(&sample_record()).expect("append");
        sink.append(&sample_record()).expect("append");
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in lines {
            let back: AuditRecord = serde_json::from_str(line).unwrap();
            assert_eq!(back.trace_id, 0xABCD);
            assert_eq!(back.model, "m@1");
            assert!(back.in_tolerance);
        }
    }

    #[test]
    fn accuracy_stats_aggregate_per_model() {
        let stats = AccuracyStats::default();
        stats.record("m@1", 0.05, true, 1000);
        stats.record("m@1", 0.15, false, 3000);
        stats.record("n@2", 0.0, true, 500);
        let json = stats.to_json();
        let value = serde_json::parse_value(&json).unwrap();
        let arr = value.as_array().unwrap();
        assert_eq!(arr.len(), 2);
        let m1 = arr[0].as_object().unwrap();
        let get = |k: &str| m1.iter().find(|(n, _)| n == k).map(|(_, v)| v).unwrap();
        assert_eq!(get("model").as_str(), Some("m@1"));
        assert_eq!(get("requests").as_f64(), Some(2.0));
        assert_eq!(get("in_tolerance").as_f64(), Some(1.0));
        let mean = get("mean_rel_err").as_f64().unwrap();
        assert!((mean - 0.10).abs() < 1e-6, "mean_rel_err {mean}");
    }
}
