//! Atomic counters, gauges and fixed-precision [`HdrHistogram`]s,
//! collected in a thread-safe [`MetricsRegistry`] and exported as a
//! serializable [`MetricsSnapshot`].

use crate::hdr::{HdrHistogram, HdrSnapshot};
use crate::Name;
use parking_lot::RwLock;
use serde::{Deserialize, Serialize};
use std::cell::Cell;
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
/// keep them in a [`Resolved`] and skip the map entirely.
#[derive(Default)]
pub struct MetricsRegistry {
    counters: RwLock<BTreeMap<String, Arc<Counter>>>,
    gauges: RwLock<BTreeMap<String, Arc<Gauge>>>,
    histograms: RwLock<BTreeMap<String, Arc<HdrHistogram>>>,
    spans: RwLock<BTreeMap<String, Arc<HdrHistogram>>>,
    generation: AtomicU64,
}

thread_local! {
    /// Name-map lookups this thread made, in any registry.
    static LOOKUPS: Cell<u64> = const { Cell::new(0) };
}

fn get_or_create<T: Default>(map: &RwLock<BTreeMap<String, Arc<T>>>, name: &str) -> Arc<T> {
    LOOKUPS.with(|n| n.set(n.get() + 1));
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
    pub fn counter(&self, name: Name) -> Arc<Counter> {
        get_or_create(&self.counters, name.as_str())
    }

    /// Handle to the named gauge, creating it on first use.
    pub fn gauge(&self, name: Name) -> Arc<Gauge> {
        get_or_create(&self.gauges, name.as_str())
    }

    /// Handle to the named histogram, creating it on first use.
    pub fn histogram(&self, name: Name) -> Arc<HdrHistogram> {
        get_or_create(&self.histograms, name.as_str())
    }

    /// Adds `delta` to the named counter.
    pub fn add(&self, name: Name, delta: u64) {
        self.counter(name).add(delta);
    }

    /// Adds one to the named counter.
    pub fn incr(&self, name: Name) {
        self.add(name, 1);
    }

    /// Sets the named gauge.
    pub fn set_gauge(&self, name: Name, value: i64) {
        self.gauge(name).set(value);
    }

    /// Records one observation into the named histogram.
    pub fn observe(&self, name: Name, value: u64) {
        self.histogram(name).record(value);
    }

    /// Records a duration (as nanoseconds) into the named histogram.
    pub fn observe_duration(&self, name: Name, d: Duration) {
        self.histogram(name).record_duration(d);
    }

    /// Records a completed span occurrence (used by [`mod@crate::span`]).
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

    /// Monotonic generation, bumped by every [`Self::reset`]; see
    /// [`Resolved`].
    fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Name-map lookups the calling thread has made so far, in any
    /// registry: every handle resolve, emit by name and span record is
    /// one. A count per thread stays exact while other threads record.
    pub fn thread_lookups() -> u64 {
        LOOKUPS.with(Cell::get)
    }
}

/// Handles resolved from the [global](crate::global) registry on first
/// use, and again after each [`MetricsRegistry::reset`]. A reset orphans
/// every handle taken before it, so handles kept past one would drop
/// their series from every later snapshot; [`Self::get`] compares the
/// registry's generation with the one the handles were resolved under,
/// and takes the name map only when they differ.
pub struct Resolved<K, T> {
    key: K,
    resolve: fn(&MetricsRegistry, &K) -> T,
    cached: RwLock<Option<(u64, T)>>,
}

impl<K, T: Clone> Resolved<K, T> {
    /// The handles `resolve` takes for `key`, resolved on first use.
    pub const fn new(key: K, resolve: fn(&MetricsRegistry, &K) -> T) -> Self {
        Self {
            key,
            resolve,
            cached: RwLock::new(None),
        }
    }

    /// The handles, resolved again first if the registry was reset since.
    pub fn get(&self) -> T {
        let registry = crate::global();
        let generation = registry.generation();
        if let Some((at, handles)) = &*self.cached.read() {
            if *at == generation {
                return handles.clone();
            }
        }
        let handles = (self.resolve)(registry, &self.key);
        *self.cached.write() = Some((generation, handles.clone()));
        handles
    }
}

impl Resolved<Name, Arc<Counter>> {
    /// The named counter's handle, resolved on first use.
    pub const fn counter(name: Name) -> Self {
        Self::new(name, |registry, &name| registry.counter(name))
    }
}

impl Resolved<Name, Arc<HdrHistogram>> {
    /// The named histogram's handle, resolved on first use.
    pub const fn histogram(name: Name) -> Self {
        Self::new(name, |registry, &name| registry.histogram(name))
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
        let a = reg.counter(Name::new("shared"));
        let b = reg.counter(Name::new("shared"));
        a.add(2);
        b.add(3);
        assert_eq!(reg.counter(Name::new("shared")).get(), 5);
    }

    #[test]
    fn reset_bumps_generation() {
        let reg = MetricsRegistry::new();
        let g0 = reg.generation();
        let stale = reg.counter(Name::new("cached.elsewhere"));
        reg.reset();
        assert_eq!(reg.generation(), g0 + 1);
        // The pre-reset handle is orphaned: it still counts, but a fresh
        // resolve reaches a different cell — this is exactly why cachers
        // must re-resolve when the generation moves.
        stale.incr();
        assert_eq!(reg.counter(Name::new("cached.elsewhere")).get(), 0);
        reg.reset();
        assert_eq!(reg.generation(), g0 + 2);
    }

    #[test]
    fn resolved_handles_take_the_name_map_once() {
        // Resets of the global registry are left to the tests that own
        // their process (`slab_telemetry`); this one only counts.
        let calls = Resolved::counter(Name::new("test.resolved.calls"));
        let before = MetricsRegistry::thread_lookups();
        calls.get().incr();
        calls.get().incr();
        assert_eq!(MetricsRegistry::thread_lookups() - before, 1);
        assert_eq!(calls.get().get(), 2);
    }

    #[test]
    fn snapshot_is_sorted_by_name() {
        let reg = MetricsRegistry::new();
        reg.incr(Name::new("zebra"));
        reg.incr(Name::new("alpha"));
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
                        reg.incr(Name::new("contended"));
                        reg.observe(Name::new("contended.hist"), i);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("thread");
        }
        let total = threads * per_thread;
        assert_eq!(reg.counter(Name::new("contended")).get(), total);
        assert_eq!(reg.histogram(Name::new("contended.hist")).count(), total);
    }

    #[test]
    fn snapshot_json_roundtrip() {
        let reg = MetricsRegistry::new();
        reg.add(Name::new("bytes"), 42);
        reg.set_gauge(Name::new("workers"), -3);
        for v in [1u64, 100, 10_000] {
            reg.observe(Name::new("latency"), v);
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
