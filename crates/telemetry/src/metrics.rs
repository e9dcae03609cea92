//! Atomic counters, gauges and fixed-precision [`HdrHistogram`]s,
//! collected in a thread-safe [`MetricsRegistry`] and exported as a
//! serializable [`MetricsSnapshot`].

use crate::hdr::{HdrHistogram, HdrSnapshot};
use parking_lot::RwLock;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Monotonically increasing `u64` metric.
#[derive(Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Adds `delta` to the counter.
    pub fn add(&self, delta: u64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// Adds one.
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Point-in-time signed metric (queue depths, worker counts, …).
#[derive(Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// Overwrites the gauge.
    pub fn set(&self, value: i64) {
        self.value.store(value, Ordering::Relaxed);
    }

    /// Adds `delta` (may be negative).
    pub fn add(&self, delta: i64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Thread-safe home for all named metrics.
///
/// Lookup is get-or-create: a read-lock fast path, falling back to a write
/// lock on first use of a name. Handles are `Arc`s, so hot call sites can
/// cache them and skip the map entirely.
#[derive(Default)]
pub struct MetricsRegistry {
    counters: RwLock<BTreeMap<String, Arc<Counter>>>,
    gauges: RwLock<BTreeMap<String, Arc<Gauge>>>,
    histograms: RwLock<BTreeMap<String, Arc<HdrHistogram>>>,
    spans: RwLock<BTreeMap<String, Arc<HdrHistogram>>>,
    generation: AtomicU64,
}

fn get_or_create<T: Default>(map: &RwLock<BTreeMap<String, Arc<T>>>, name: &str) -> Arc<T> {
    if let Some(existing) = map.read().get(name) {
        return Arc::clone(existing);
    }
    Arc::clone(
        map.write()
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(T::default())),
    )
}

impl MetricsRegistry {
    /// An empty registry (prefer [`crate::global`] outside tests).
    pub fn new() -> Self {
        Self::default()
    }

    /// Handle to the named counter, creating it on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        get_or_create(&self.counters, name)
    }

    /// Handle to the named gauge, creating it on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        get_or_create(&self.gauges, name)
    }

    /// Handle to the named histogram, creating it on first use.
    pub fn histogram(&self, name: &str) -> Arc<HdrHistogram> {
        get_or_create(&self.histograms, name)
    }

    /// Adds `delta` to the named counter.
    pub fn add(&self, name: &str, delta: u64) {
        self.counter(name).add(delta);
    }

    /// Adds one to the named counter.
    pub fn incr(&self, name: &str) {
        self.add(name, 1);
    }

    /// Sets the named gauge.
    pub fn set_gauge(&self, name: &str, value: i64) {
        self.gauge(name).set(value);
    }

    /// Records one observation into the named histogram.
    pub fn observe(&self, name: &str, value: u64) {
        self.histogram(name).record(value);
    }

    /// Records a duration (as nanoseconds) into the named histogram.
    pub fn observe_duration(&self, name: &str, d: Duration) {
        self.histogram(name).record_duration(d);
    }

    /// Records a completed span occurrence (used by [`crate::span`]).
    pub fn record_span(&self, path: &str, d: Duration) {
        get_or_create(&self.spans, path).record_duration(d);
    }

    /// Point-in-time copy of every metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counters = self
            .counters
            .read()
            .iter()
            .map(|(name, c)| CounterSnapshot {
                name: name.clone(),
                value: c.get(),
            })
            .collect();
        let gauges = self
            .gauges
            .read()
            .iter()
            .map(|(name, g)| GaugeSnapshot {
                name: name.clone(),
                value: g.get(),
            })
            .collect();
        let histograms = self
            .histograms
            .read()
            .iter()
            .map(|(name, h)| h.snapshot(name))
            .collect();
        let spans = self
            .spans
            .read()
            .iter()
            .map(|(path, h)| {
                let count = h.count();
                SpanSnapshot {
                    path: path.clone(),
                    count,
                    total_ns: h.sum(),
                    mean_ns: if count == 0 {
                        0.0
                    } else {
                        h.sum() as f64 / count as f64
                    },
                    p50_ns: h.quantile(0.50) as f64,
                    p99_ns: h.quantile(0.99) as f64,
                }
            })
            .collect();
        MetricsSnapshot {
            counters,
            gauges,
            histograms,
            spans,
        }
    }

    /// Drops every metric (test isolation; CLI uses one registry per run)
    /// and advances the registry generation so cached handles re-resolve.
    pub fn reset(&self) {
        self.counters.write().clear();
        self.gauges.write().clear();
        self.histograms.write().clear();
        self.spans.write().clear();
        self.generation.fetch_add(1, Ordering::Release);
    }

    /// Monotonic generation, bumped by every [`Self::reset`]. Hot call
    /// sites that cache metric handles compare this against the generation
    /// they resolved under: on mismatch the cached `Arc`s are orphans
    /// (detached from the registry) and must be re-fetched, otherwise
    /// post-reset snapshots would silently miss those metrics.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }
}

/// Exported state of one counter.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CounterSnapshot {
    /// Metric name.
    pub name: String,
    /// Value at snapshot time.
    pub value: u64,
}

/// Exported state of one gauge.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct GaugeSnapshot {
    /// Metric name.
    pub name: String,
    /// Value at snapshot time.
    pub value: i64,
}

/// Exported timing of one span path (e.g. `compress/features`).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SpanSnapshot {
    /// Slash-joined nesting path.
    pub path: String,
    /// Completed occurrences.
    pub count: u64,
    /// Total wall-clock nanoseconds across occurrences.
    pub total_ns: u64,
    /// Mean nanoseconds per occurrence.
    pub mean_ns: f64,
    /// Estimated median nanoseconds.
    pub p50_ns: f64,
    /// Estimated 99th-percentile nanoseconds.
    pub p99_ns: f64,
}

/// Everything the registry knew at one instant; serializable to JSON and
/// printable as a human report (see [`crate::report`]).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// All counters, sorted by name.
    pub counters: Vec<CounterSnapshot>,
    /// All gauges, sorted by name.
    pub gauges: Vec<GaugeSnapshot>,
    /// All histograms, sorted by name.
    pub histograms: Vec<HdrSnapshot>,
    /// All span paths, sorted by path.
    pub spans: Vec<SpanSnapshot>,
}

impl MetricsSnapshot {
    /// Compact JSON form (the `--metrics json` output).
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("snapshot serialization is infallible")
    }

    /// Looks up a counter value by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
    }

    /// Looks up a gauge value by name.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|g| g.name == name).map(|g| g.value)
    }

    /// Looks up a histogram by name.
    pub fn hdr(&self, name: &str) -> Option<&HdrSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// Looks up a span by path.
    pub fn span(&self, path: &str) -> Option<&SpanSnapshot> {
        self.spans.iter().find(|s| s.path == path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_handles_are_shared() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("shared");
        let b = reg.counter("shared");
        a.add(2);
        b.add(3);
        assert_eq!(reg.counter("shared").get(), 5);
    }

    #[test]
    fn reset_bumps_generation() {
        let reg = MetricsRegistry::new();
        let g0 = reg.generation();
        let stale = reg.counter("cached.elsewhere");
        reg.reset();
        assert_eq!(reg.generation(), g0 + 1);
        // The pre-reset handle is orphaned: it still counts, but a fresh
        // resolve reaches a different cell — this is exactly why cachers
        // must re-resolve when the generation moves.
        stale.incr();
        assert_eq!(reg.counter("cached.elsewhere").get(), 0);
        reg.reset();
        assert_eq!(reg.generation(), g0 + 2);
    }

    #[test]
    fn snapshot_is_sorted_by_name() {
        let reg = MetricsRegistry::new();
        reg.incr("zebra");
        reg.incr("alpha");
        let snap = reg.snapshot();
        let names: Vec<&str> = snap.counters.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["alpha", "zebra"]);
    }

    #[test]
    fn concurrent_increments_do_not_lose_updates() {
        let reg = std::sync::Arc::new(MetricsRegistry::new());
        let threads = 8;
        let per_thread = 10_000u64;
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let reg = std::sync::Arc::clone(&reg);
                std::thread::spawn(move || {
                    for i in 0..per_thread {
                        reg.incr("contended");
                        reg.observe("contended.hist", i);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("thread");
        }
        assert_eq!(reg.counter("contended").get(), threads * per_thread);
        assert_eq!(
            reg.histogram("contended.hist").count(),
            threads * per_thread
        );
    }

    #[test]
    fn snapshot_json_roundtrip() {
        let reg = MetricsRegistry::new();
        reg.add("bytes", 42);
        reg.set_gauge("workers", -3);
        for v in [1u64, 100, 10_000] {
            reg.observe("latency", v);
        }
        reg.record_span("compress/features", Duration::from_micros(250));
        let snap = reg.snapshot();
        let json = snap.to_json();
        let back: MetricsSnapshot = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back.counter("bytes"), Some(42));
        assert_eq!(back.gauges[0].value, -3);
        assert_eq!(back.histograms[0].count, 3);
        assert_eq!(back.histograms[0].sum, 10_101);
        let span = back.span("compress/features").expect("span present");
        assert_eq!(span.count, 1);
        assert_eq!(
            span.total_ns,
            snap.span("compress/features").unwrap().total_ns
        );
        // a second serialization of the decoded form is identical
        assert_eq!(back.to_json(), json);
    }
}
