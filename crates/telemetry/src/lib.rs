//! fxrz-telemetry: a lightweight tracing + metrics layer for the FXRZ
//! pipeline.
//!
//! Four pieces, all reachable from one global [`MetricsRegistry`]:
//!
//! * **Metrics** ([`metrics`]) — named [`Counter`]s, [`Gauge`]s and
//!   fixed-precision [`HdrHistogram`]s (`< 0.8%` relative quantile
//!   error, see [`hdr`]) backed by atomics; cheap enough for per-call
//!   instrumentation of codec and compressor hot paths. Span durations
//!   record into the same histogram type.
//! * **Spans** ([`span`]) — RAII guards recording nested wall-clock
//!   timings. Nesting is tracked per thread, so
//!   `span!("compress")` containing `span!("features")` records under the
//!   path `compress/features`.
//! * **Events** ([`event`]) — leveled log records with a pluggable sink
//!   (stderr text or JSON lines). When no sink is attached the whole layer
//!   reduces to one relaxed atomic load per call site.
//! * **Snapshots** ([`metrics::MetricsSnapshot`]) — a serializable view of
//!   everything recorded, with a human-readable `Display` report and a
//!   JSON form used by `fxrz --metrics json`.
//!
//! Layered on top of those, two request-scoped facilities added for the
//! serving plane:
//!
//! * **Traces** ([`trace`]) — a thread-local [`TraceContext`] (trace id +
//!   span id) attached per request and propagated across pool threads via
//!   [`TaskScope`], so every span and audit record can be tied back to the
//!   client request that caused it.
//! * **Flight recorder** ([`recorder`]) — a fixed-capacity lock-free ring
//!   of recent span/event records, dumped on drain or panic. Memory is
//!   bounded by capacity, never by request count.
//!
//! ```
//! use fxrz_telemetry as telemetry;
//!
//! let _guard = telemetry::span!("compress");
//! telemetry::global().add("codec.bytes_in", 4096);
//! drop(_guard);
//! let snapshot = telemetry::global().snapshot();
//! assert!(snapshot.spans.iter().any(|s| s.path == "compress"));
//! # telemetry::global().reset();
//! ```

#![forbid(unsafe_code)]

pub mod event;
pub mod hdr;
pub mod metrics;
pub mod recorder;
pub mod report;
pub mod span;
pub mod trace;

pub use event::{
    clear_sink, enabled, set_max_level, set_sink, JsonLinesSink, Level, Record, Sink,
    StderrTextSink,
};
pub use hdr::{HdrHistogram, HdrSnapshot};
pub use metrics::{
    Counter, CounterSnapshot, Gauge, GaugeSnapshot, MetricsRegistry, MetricsSnapshot, SpanSnapshot,
};
pub use recorder::{
    configure_recorder, flight_recorder, now_ns, render_records, FlightRecord, FlightRecorder,
    RecordKind,
};
pub use span::{spanned, SpanGuard, TaskScope, TaskScopeGuard};
pub use trace::{TraceContext, TraceIdGen};

use std::sync::OnceLock;

static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();

/// The process-wide registry every instrumentation site records into.
pub fn global() -> &'static MetricsRegistry {
    GLOBAL.get_or_init(MetricsRegistry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn doc_flow_end_to_end() {
        let reg = MetricsRegistry::new();
        reg.add("x.bytes", 10);
        reg.add("x.bytes", 32);
        reg.observe("x.latency_ns", 1500);
        reg.set_gauge("x.depth", 3);
        let snap = reg.snapshot();
        assert_eq!(snap.counters[0].value, 42);
        assert_eq!(snap.gauges[0].value, 3);
        assert_eq!(snap.histograms[0].count, 1);
    }
}
