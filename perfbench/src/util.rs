//! Shared plumbing: a seeded RNG, order statistics, the metric record
//! every workload reports, and the in-memory span recorder of the traced
//! run.

use std::sync::Mutex;
use std::time::{Duration, Instant};

/// SplitMix64: the benchmark's only source of randomness, so one seed
/// fixes every input.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// An independent stream for one purpose, so adding draws to one
    /// input never shifts another.
    pub fn fork(seed: u64, stream: u64) -> Self {
        let mut r = Self(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// The `q`-quantile (0..=1) of `values` by linear interpolation.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

pub const MIB: f64 = 1024.0 * 1024.0;

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// One reported number with its unit and the sample count behind it.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
    /// How the value was formed (statistic, percentile, base).
    pub note: String,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str, samples: usize) -> Self {
        Self {
            name: name.into(),
            value,
            unit,
            samples,
            note: String::new(),
        }
    }

    pub fn note(mut self, note: impl Into<String>) -> Self {
        self.note = note.into();
        self
    }
}

/// Tallies operations attempted and failed, keeping the first few
/// failure messages for the report.
#[derive(Debug, Default)]
pub struct Gate {
    pub attempted: u64,
    pub failed: u64,
    pub messages: Vec<String>,
}

impl Gate {
    /// Counts one operation; `Err` makes it a failure.
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(msg) = outcome {
            self.fail(msg);
        }
    }

    /// Marks an already-counted operation (or a whole-run check) failed.
    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.messages.len() < 8 {
            self.messages.push(msg);
        }
    }

    pub fn merge(&mut self, other: Gate) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for m in other.messages {
            if self.messages.len() < 8 {
                self.messages.push(m);
            }
        }
    }
}

/// One closed span: a layer call made from the benchmark.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    /// Groups the spans of one operation (a pass, a frame, a request).
    pub op: u64,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span store. Disabled, it only times; enabled, it also keeps
/// every span until the run writes them out.
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    next_id: std::sync::atomic::AtomicU64,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            next_id: std::sync::atomic::AtomicU64::new(1),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// A fresh id for an operation or a parent span opened by hand.
    pub fn id(&self) -> u64 {
        self.next_id
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    }

    /// Runs `f` as span `name` under `parent` within operation `op` and
    /// returns its result with the wall time it took.
    pub fn span<R>(
        &self,
        name: &str,
        parent: u64,
        op: u64,
        f: impl FnOnce() -> R,
    ) -> (R, Duration) {
        self.span_with_id(self.id(), name, parent, op, f)
    }

    /// As [`Self::span`], under an id the caller reserved so child spans
    /// can name it as their parent.
    pub fn span_with_id<R>(
        &self,
        id: u64,
        name: &str,
        parent: u64,
        op: u64,
        f: impl FnOnce() -> R,
    ) -> (R, Duration) {
        let t0 = Instant::now();
        let out = f();
        let t1 = Instant::now();
        if self.enabled {
            let span = Span {
                id,
                parent,
                op,
                name: name.to_owned(),
                start_ns: (t0 - self.epoch).as_nanos() as u64,
                end_ns: (t1 - self.epoch).as_nanos() as u64,
            };
            self.spans.lock().expect("span store poisoned").push(span);
        }
        (out, t1 - t0)
    }

    /// Total nanoseconds and count of every span called `name`.
    pub fn total(&self, name: &str) -> (u64, usize) {
        let spans = self.spans.lock().expect("span store poisoned");
        spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0), |(ns, n), s| (ns + s.dur_ns(), n + 1))
    }

    /// Every span as one JSON object per line.
    pub fn to_jsonl(&self) -> String {
        let spans = self.spans.lock().expect("span store poisoned");
        let mut out = String::with_capacity(spans.len() * 96);
        for s in spans.iter() {
            out.push_str(&format!(
                "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}\n",
                s.id, s.parent, s.op, s.name, s.start_ns, s.end_ns
            ));
        }
        out
    }
}

/// Mean of the ns-total over its count, in the given scale.
pub fn per_call(total_ns: u64, count: usize, scale: f64) -> f64 {
    if count == 0 {
        return f64::NAN;
    }
    total_ns as f64 / count as f64 * scale
}

/// PSNR of `decoded` against `original` over the original's value range.
pub fn psnr(original: &[f32], decoded: &[f32]) -> f64 {
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    let mut se = 0.0f64;
    for (&a, &b) in original.iter().zip(decoded) {
        let a = f64::from(a);
        lo = lo.min(a);
        hi = hi.max(a);
        let d = a - f64::from(b);
        se += d * d;
    }
    let range = (hi - lo).max(f64::MIN_POSITIVE);
    // A lossless decode is capped at the f32 rounding floor, not infinity.
    let floor = (range * f64::from(f32::EPSILON)).powi(2);
    let mse = (se / original.len().max(1) as f64).max(floor);
    20.0 * range.log10() - 10.0 * mse.log10()
}
