//! Fixed-precision "HDR-style" histogram: the one histogram type behind
//! every `observe`, span duration and cached histogram handle.
//!
//! Every power of two is subdivided into `2^SUB_BITS` linear
//! sub-buckets, bounding the relative quantile error at
//! `2^-(SUB_BITS+1)` (< 0.8% with `SUB_BITS = 6`) over the full `u64`
//! range — the standard HdrHistogram bucketing, sized for nanosecond
//! latencies. Recording is wait-free (a handful of relaxed atomics);
//! memory is a fixed ~30 KiB per histogram.

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Sub-bucket resolution: each power of two splits into `2^SUB_BITS`
/// linear buckets.
const SUB_BITS: u32 = 6;
const SUB_COUNT: usize = 1 << SUB_BITS;
/// Values below `SUB_COUNT` get exact unit buckets; above, one segment
/// of `SUB_COUNT` buckets per exponent `SUB_BITS..=63`.
const BUCKETS: usize = SUB_COUNT + (64 - SUB_BITS as usize) * SUB_COUNT;

/// Bucket index of `v` (exact below `SUB_COUNT`, logarithmic-linear above).
fn index_of(v: u64) -> usize {
    if v < SUB_COUNT as u64 {
        v as usize
    } else {
        let exp = 63 - v.leading_zeros() as usize;
        let sub = ((v >> (exp - SUB_BITS as usize)) as usize) - SUB_COUNT;
        SUB_COUNT + (exp - SUB_BITS as usize) * SUB_COUNT + sub
    }
}

/// Midpoint of the bucket's value range, used as its representative.
fn representative(index: usize) -> u64 {
    if index < SUB_COUNT {
        index as u64
    } else {
        let seg = (index - SUB_COUNT) / SUB_COUNT;
        let sub = (index - SUB_COUNT) % SUB_COUNT;
        let width = 1u64 << seg;
        ((SUB_COUNT + sub) as u64)
            .wrapping_shl(seg as u32)
            .wrapping_add(width / 2)
    }
}

/// Wait-free fixed-precision histogram over `u64` observations.
pub struct HdrHistogram {
    counts: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for HdrHistogram {
    fn default() -> Self {
        Self {
            counts: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

impl HdrHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one observation.
    pub fn record(&self, value: u64) {
        self.counts[index_of(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Records a duration in nanoseconds (saturating above ~584 years).
    pub fn record_duration(&self, d: Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of observations.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Smallest observation (0 when empty).
    pub fn min(&self) -> u64 {
        let v = self.min.load(Ordering::Relaxed);
        if v == u64::MAX {
            0
        } else {
            v
        }
    }

    /// Largest observation (0 when empty).
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// The `q`-quantile (`q` in `[0, 1]`) with relative error bounded by
    /// `2^-(SUB_BITS+1)`, clamped to the observed min/max. 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * count as f64).ceil() as u64).max(1);
        let mut cumulative = 0u64;
        for (i, bucket) in self.counts.iter().enumerate() {
            cumulative += bucket.load(Ordering::Relaxed);
            if cumulative >= rank {
                return representative(i).clamp(self.min(), self.max());
            }
        }
        self.max()
    }

    /// Serializable point-in-time view.
    pub fn snapshot(&self, name: &str) -> HdrSnapshot {
        let count = self.count();
        HdrSnapshot {
            name: name.to_string(),
            count,
            sum: self.sum(),
            min: self.min(),
            max: self.max(),
            mean: if count == 0 {
                0.0
            } else {
                self.sum() as f64 / count as f64
            },
            p50: self.quantile(0.50),
            p90: self.quantile(0.90),
            p99: self.quantile(0.99),
            p999: self.quantile(0.999),
        }
    }
}

/// Exported state of one [`HdrHistogram`].
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct HdrSnapshot {
    /// Metric name.
    pub name: String,
    /// Number of observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: u64,
    /// Smallest observation (0 when empty).
    pub min: u64,
    /// Largest observation (0 when empty).
    pub max: u64,
    /// Mean observation.
    pub mean: f64,
    /// Median (≤ 0.8% relative error).
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
    /// 99.9th percentile.
    pub p999: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_and_representative_are_consistent() {
        for v in [0u64, 1, 63, 64, 65, 127, 128, 1000, 1 << 20, u64::MAX] {
            let i = index_of(v);
            assert!(i < BUCKETS, "index {i} out of range for {v}");
            let rep = representative(i);
            if v >= SUB_COUNT as u64 {
                let err = rep.abs_diff(v) as f64 / v as f64;
                assert!(err <= 1.0 / SUB_COUNT as f64, "v={v} rep={rep} err={err}");
            } else {
                assert_eq!(rep, v);
            }
        }
    }

    #[test]
    fn indexes_are_monotonic_across_boundaries() {
        let mut last = index_of(0);
        for v in 1..100_000u64 {
            let i = index_of(v);
            assert!(i >= last, "index regressed at {v}");
            last = i;
        }
    }

    #[test]
    fn small_values_are_exact() {
        let h = HdrHistogram::new();
        for v in [3u64, 3, 3, 7] {
            h.record(v);
        }
        assert_eq!(h.quantile(0.5), 3);
        assert_eq!(h.quantile(1.0), 7);
    }

    #[test]
    fn empty_histogram_is_quiet() {
        let h = HdrHistogram::new();
        assert_eq!(h.quantile(0.99), 0);
        let s = h.snapshot("empty");
        assert_eq!((s.count, s.min, s.max, s.p99), (0, 0, 0, 0));
    }

    #[test]
    fn snapshot_roundtrips_through_json() {
        let h = HdrHistogram::new();
        for v in 1..=1000u64 {
            h.record(v * 1000);
        }
        let snap = h.snapshot("lat");
        let json = serde_json::to_string(&snap).unwrap();
        let back: HdrSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back.count, 1000);
        assert_eq!(back.p50, snap.p50);
        assert_eq!(back.p999, snap.p999);
    }
}
