//! # fxrz-parallel-io — simulated parallel data dumping
//!
//! The paper's system experiment: on 4,096 Bebop cores, every rank
//! analyzes its local snapshot (FXRZ feature pass vs FRaZ iterative
//! search), compresses it, and writes to a shared GPFS filesystem with
//! ~2 GB/s aggregate bandwidth. FXRZ's cheap analysis yields a
//! 1.18–8.71× end-to-end gain.
//!
//! We reproduce the experiment's structure without a supercomputer:
//!
//! 1. **Measurement** — per-rank analysis/compress work is executed for
//!    real, concurrently on the shared [`fxrz_parallel`] worker pool.
//! 2. **Scale-out** — measured [`RankWork`] records are tiled round-robin
//!    over any rank count (weak scaling, as in the paper).
//! 3. **I/O model** — a fluid-flow shared-bandwidth server drains each
//!    rank's compressed bytes once that rank finishes compressing.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use fxrz_archive::ArchiveWriter;
use fxrz_compressors::{Compressor, ErrorConfig};
use fxrz_core::infer::FixedRatioCompressor;
use fxrz_core::FxrzError;
use fxrz_datagen::Field;
use fxrz_fraz::FrazSearcher;
use std::time::{Duration, Instant};

/// Telemetry metric and span name inventory.
pub mod names {
    use fxrz_telemetry::Name;

    /// Ranks simulated in the dump.
    pub const RANKS: Name = Name::new("parallel_io.ranks");
    /// Per-rank wall time, nanoseconds.
    pub const RANK_NS: Name = Name::new("parallel_io.rank_ns");
    /// Worker threads driving the dump.
    pub const WORKERS: Name = Name::new("parallel_io.workers");
    /// Fields queued for compression.
    pub const FIELDS_QUEUED: Name = Name::new("parallel_io.fields_queued");
    /// Span around one simulated rank.
    pub const SPAN_RANK: Name = Name::new("rank");
}

/// A cluster description for the dump simulation.
#[derive(Clone, Copy, Debug)]
pub struct Cluster {
    /// Number of ranks participating in the dump.
    pub ranks: usize,
    /// Aggregate shared-filesystem bandwidth in bytes/second
    /// (Bebop GPFS: ~2 GB/s).
    pub io_bandwidth: f64,
}

impl Default for Cluster {
    fn default() -> Self {
        Self {
            ranks: 64,
            io_bandwidth: 2.0e9,
        }
    }
}

/// Measured per-rank pipeline work.
#[derive(Clone, Copy, Debug)]
pub struct RankWork {
    /// Time deciding the error configuration (FXRZ analysis or FRaZ search).
    pub analysis: Duration,
    /// Time of the single real compression.
    pub compress: Duration,
    /// Compressed bytes to write.
    pub bytes: u64,
    /// Uncompressed bytes (for reporting the achieved ratio).
    pub raw_bytes: u64,
}

/// Aggregated result of one simulated dump.
#[derive(Clone, Debug)]
pub struct DumpReport {
    /// Strategy label ("fxrz", "fraz-15", …).
    pub strategy: String,
    /// Ranks simulated.
    pub ranks: usize,
    /// Slowest rank's analysis time.
    pub max_analysis: Duration,
    /// Slowest rank's compression time.
    pub max_compress: Duration,
    /// Pure I/O time: total bytes over aggregate bandwidth.
    pub io_time: Duration,
    /// End-to-end makespan (analysis ∥ compression ∥ shared writes).
    pub end_to_end: Duration,
    /// Total compressed bytes written.
    pub total_bytes: u64,
    /// Mean of the per-rank achieved compression ratios (every rank
    /// weighted equally, regardless of its size).
    pub mean_ratio: f64,
    /// Bytes-weighted aggregate ratio: total raw bytes over total
    /// compressed bytes (what the filesystem sees).
    pub aggregate_ratio: f64,
}

/// A fixed-ratio planning strategy: decides an error configuration and
/// reports how long the decision took.
pub trait DumpStrategy: Sync {
    /// Strategy label for reports.
    fn name(&self) -> String;

    /// Plans the error configuration for one rank's field.
    ///
    /// # Errors
    /// Propagates planner failures as a string (strategy-specific errors
    /// are heterogeneous).
    fn plan(&self, field: &Field, tcr: f64) -> Result<(ErrorConfig, Duration), String>;

    /// The compressor this strategy drives.
    fn compressor(&self) -> &dyn Compressor;
}

/// FXRZ planning: one feature pass + model prediction.
pub struct FxrzStrategy {
    frc: FixedRatioCompressor,
}

impl FxrzStrategy {
    /// Wraps a trained fixed-ratio compressor.
    pub fn new(frc: FixedRatioCompressor) -> Self {
        Self { frc }
    }
}

impl DumpStrategy for FxrzStrategy {
    fn name(&self) -> String {
        "fxrz".to_owned()
    }

    fn plan(&self, field: &Field, tcr: f64) -> Result<(ErrorConfig, Duration), String> {
        let est = self
            .frc
            .estimate(field, tcr)
            .map_err(|e: FxrzError| e.to_string())?;
        Ok((est.config, est.analysis_time))
    }

    fn compressor(&self) -> &dyn Compressor {
        self.frc.compressor()
    }
}

/// FRaZ planning: binned iterative search running the compressor.
pub struct FrazStrategy {
    searcher: FrazSearcher,
    compressor: Box<dyn Compressor>,
}

impl FrazStrategy {
    /// Wraps a searcher and the compressor it probes.
    pub fn new(searcher: FrazSearcher, compressor: Box<dyn Compressor>) -> Self {
        Self {
            searcher,
            compressor,
        }
    }
}

impl DumpStrategy for FrazStrategy {
    fn name(&self) -> String {
        format!("fraz-{}", self.searcher.budget())
    }

    fn plan(&self, field: &Field, tcr: f64) -> Result<(ErrorConfig, Duration), String> {
        let res = self
            .searcher
            .search(self.compressor.as_ref(), field, tcr)
            .map_err(|e| e.to_string())?;
        Ok((res.config, res.search_time))
    }

    fn compressor(&self) -> &dyn Compressor {
        self.compressor.as_ref()
    }
}

/// Measures one rank's full pipeline: plan, then compress once.
///
/// # Errors
/// Propagates planner/compressor failures as strings.
pub fn measure_rank(
    strategy: &dyn DumpStrategy,
    field: &Field,
    tcr: f64,
) -> Result<RankWork, String> {
    let _rank_span = fxrz_telemetry::span!(names::SPAN_RANK);
    let rank_start = Instant::now();
    let (config, analysis) = strategy.plan(field, tcr)?;
    let t0 = Instant::now();
    let bytes = strategy
        .compressor()
        .compress(field, &config)
        .map_err(|e| e.to_string())?;
    let compress = t0.elapsed();
    let registry = fxrz_telemetry::global();
    registry.incr(names::RANKS);
    registry.observe_duration(names::RANK_NS, rank_start.elapsed());
    Ok(RankWork {
        analysis,
        compress,
        bytes: bytes.len() as u64,
        raw_bytes: field.nbytes() as u64,
    })
}

/// Measures several ranks concurrently on the shared worker pool,
/// mirroring per-node concurrency on the cluster.
///
/// Ranks are pulled from one shared work queue: a worker takes the next
/// rank the moment it finishes its current one, so a single slow rank no
/// longer idles every other worker the way the old chunk-spawn-join
/// barrier did (which waited for the slowest rank of each chunk before
/// starting the next).
///
/// # Errors
/// Returns the lowest-indexed rank failure.
pub fn measure_ranks_parallel(
    strategy: &dyn DumpStrategy,
    fields: &[Field],
    tcr: f64,
) -> Result<Vec<RankWork>, String> {
    let registry = fxrz_telemetry::global();
    registry.set_gauge(names::WORKERS, fxrz_parallel::current_threads() as i64);
    registry.add(names::FIELDS_QUEUED, fields.len() as u64);
    fxrz_parallel::par_map(fields.len(), 1, |r| {
        measure_rank(strategy, &fields[r.start], tcr)
    })
    .into_iter()
    .collect()
}

/// Compresses every rank's field concurrently and packs the streams
/// into one v2 archive — one entry per rank, named `rank_<i>/<field>`.
/// Fields over the slab threshold emit slabbed streams (see
/// `fxrz_compressors::slab`), so decoding a dump is embarrassingly
/// parallel at both the rank and the slab level, and any rank's slab
/// is locatable straight from the archive's trailing index.
///
/// Returns the archive bytes alongside the per-rank measurements (the
/// same records [`measure_ranks_parallel`] produces).
///
/// # Errors
/// Returns the lowest-indexed rank failure.
pub fn dump_archive(
    strategy: &dyn DumpStrategy,
    fields: &[Field],
    tcr: f64,
) -> Result<(Vec<u8>, Vec<RankWork>), String> {
    let registry = fxrz_telemetry::global();
    registry.set_gauge(names::WORKERS, fxrz_parallel::current_threads() as i64);
    registry.add(names::FIELDS_QUEUED, fields.len() as u64);
    let results: Vec<Result<(Vec<u8>, RankWork), String>> =
        fxrz_parallel::par_map(fields.len(), 1, |r| {
            let field = &fields[r.start];
            let _rank_span = fxrz_telemetry::span!(names::SPAN_RANK);
            let rank_start = Instant::now();
            let (config, analysis) = strategy.plan(field, tcr)?;
            let t0 = Instant::now();
            let blob = strategy
                .compressor()
                .compress(field, &config)
                .map_err(|e| e.to_string())?;
            let compress = t0.elapsed();
            registry.incr(names::RANKS);
            registry.observe_duration(names::RANK_NS, rank_start.elapsed());
            let work = RankWork {
                analysis,
                compress,
                bytes: blob.len() as u64,
                raw_bytes: field.nbytes() as u64,
            };
            Ok((blob, work))
        });

    let mut writer = ArchiveWriter::new();
    let mut works = Vec::with_capacity(fields.len());
    for (i, res) in results.into_iter().enumerate() {
        let (blob, work) = res?;
        let field_name = fields.get(i).map(|f| f.name()).unwrap_or("");
        writer
            .add_raw(&format!("rank_{i}/{field_name}"), blob)
            .map_err(|e| e.to_string())?;
        works.push(work);
    }
    Ok((writer.finish(), works))
}

impl Cluster {
    /// Simulates a weak-scaling dump: the measured `works` are tiled
    /// round-robin over `self.ranks` ranks; writes share the aggregate
    /// bandwidth under a fluid-flow model.
    ///
    /// # Panics
    /// Panics when `works` is empty or bandwidth is non-positive.
    pub fn simulate(&self, strategy: &str, works: &[RankWork]) -> DumpReport {
        assert!(!works.is_empty(), "need at least one measured rank");
        assert!(self.io_bandwidth > 0.0, "bandwidth must be positive");

        // Tile measurements across ranks and build (ready_time, bytes).
        let mut events: Vec<(f64, u64)> = (0..self.ranks)
            .map(|r| {
                let w = &works[r % works.len()];
                (w.analysis.as_secs_f64() + w.compress.as_secs_f64(), w.bytes)
            })
            .collect();
        events.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));

        // Fluid-flow shared server.
        let mut t = 0.0f64;
        let mut backlog = 0.0f64;
        for &(ready, bytes) in &events {
            let dt = ready - t;
            backlog = (backlog - dt * self.io_bandwidth).max(0.0);
            backlog += bytes as f64;
            t = ready;
        }
        let end_to_end = t + backlog / self.io_bandwidth;

        let total_bytes: u64 = events.iter().map(|&(_, b)| b).sum();
        let max_analysis = (0..self.ranks)
            .map(|r| works[r % works.len()].analysis)
            .max()
            .unwrap_or_default();
        let max_compress = (0..self.ranks)
            .map(|r| works[r % works.len()].compress)
            .max()
            .unwrap_or_default();
        // `mean_ratio` averages per-rank ratios so small ranks count as
        // much as large ones; `aggregate_ratio` is the bytes-weighted
        // total the filesystem sees. They differ whenever rank sizes do.
        let mean_ratio = (0..self.ranks)
            .map(|r| {
                let w = &works[r % works.len()];
                w.raw_bytes as f64 / w.bytes.max(1) as f64
            })
            .sum::<f64>()
            / self.ranks as f64;
        let aggregate_ratio = {
            let raw: u64 = (0..self.ranks)
                .map(|r| works[r % works.len()].raw_bytes)
                .sum();
            raw as f64 / total_bytes.max(1) as f64
        };

        DumpReport {
            strategy: strategy.to_owned(),
            ranks: self.ranks,
            max_analysis,
            max_compress,
            io_time: Duration::from_secs_f64(total_bytes as f64 / self.io_bandwidth),
            end_to_end: Duration::from_secs_f64(end_to_end),
            total_bytes,
            mean_ratio,
            aggregate_ratio,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn work(analysis_ms: u64, compress_ms: u64, bytes: u64) -> RankWork {
        RankWork {
            analysis: Duration::from_millis(analysis_ms),
            compress: Duration::from_millis(compress_ms),
            bytes,
            raw_bytes: bytes * 10,
        }
    }

    #[test]
    fn io_bound_dump_is_bandwidth_limited() {
        let cluster = Cluster {
            ranks: 10,
            io_bandwidth: 1000.0, // 1 kB/s
        };
        let report = cluster.simulate("x", &[work(0, 0, 1000)]);
        // 10 ranks x 1 kB at 1 kB/s = 10 s
        assert!((report.end_to_end.as_secs_f64() - 10.0).abs() < 1e-6);
        assert_eq!(report.total_bytes, 10_000);
    }

    #[test]
    fn compute_bound_dump_is_makespan_limited() {
        let cluster = Cluster {
            ranks: 4,
            io_bandwidth: 1e12, // effectively infinite
        };
        let report = cluster.simulate("x", &[work(500, 500, 10)]);
        assert!((report.end_to_end.as_secs_f64() - 1.0).abs() < 1e-3);
    }

    #[test]
    fn slower_analysis_strictly_slower_end_to_end() {
        let cluster = Cluster {
            ranks: 8,
            io_bandwidth: 1e9,
        };
        let fast = cluster.simulate("fxrz", &[work(1, 100, 1_000_000)]);
        let slow = cluster.simulate("fraz", &[work(1500, 100, 1_000_000)]);
        assert!(slow.end_to_end > fast.end_to_end);
        let gain = slow.end_to_end.as_secs_f64() / fast.end_to_end.as_secs_f64();
        assert!(gain > 1.1, "gain {gain}");
    }

    #[test]
    fn weak_scaling_tiles_measurements() {
        let cluster = Cluster {
            ranks: 100,
            io_bandwidth: 1e9,
        };
        let works = [work(10, 20, 1000), work(30, 40, 3000)];
        let report = cluster.simulate("x", &works);
        assert_eq!(report.ranks, 100);
        assert_eq!(report.total_bytes, 50 * 1000 + 50 * 3000);
        assert_eq!(report.max_analysis, Duration::from_millis(30));
    }

    #[test]
    fn mean_ratio_reported() {
        let cluster = Cluster {
            ranks: 2,
            io_bandwidth: 1e9,
        };
        let report = cluster.simulate("x", &[work(0, 0, 100)]);
        assert!((report.mean_ratio - 10.0).abs() < 1e-9);
        assert!((report.aggregate_ratio - 10.0).abs() < 1e-9);
    }

    #[test]
    fn mean_ratio_weights_ranks_equally() {
        let cluster = Cluster {
            ranks: 2,
            io_bandwidth: 1e9,
        };
        // Rank a: 1000 raw / 100 compressed = 10x.
        // Rank b: 30000 raw / 1000 compressed = 30x.
        let a = RankWork {
            analysis: Duration::ZERO,
            compress: Duration::ZERO,
            bytes: 100,
            raw_bytes: 1000,
        };
        let b = RankWork {
            analysis: Duration::ZERO,
            compress: Duration::ZERO,
            bytes: 1000,
            raw_bytes: 30_000,
        };
        let report = cluster.simulate("x", &[a, b]);
        // Mean of per-rank ratios: (10 + 30) / 2 = 20. The bytes-weighted
        // aggregate is 31000/1100 ~ 28.18 — the big rank dominates it.
        assert!(
            (report.mean_ratio - 20.0).abs() < 1e-9,
            "{}",
            report.mean_ratio
        );
        assert!(
            (report.aggregate_ratio - 31_000.0 / 1_100.0).abs() < 1e-9,
            "{}",
            report.aggregate_ratio
        );
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn empty_works_rejected() {
        Cluster::default().simulate("x", &[]);
    }

    /// Fixed-bound strategy so dump tests need no trained model.
    struct FixedEb(fxrz_compressors::sz::Sz);

    impl DumpStrategy for FixedEb {
        fn name(&self) -> String {
            "fixed".to_owned()
        }

        fn plan(&self, _field: &Field, _tcr: f64) -> Result<(ErrorConfig, Duration), String> {
            Ok((ErrorConfig::Abs(1e-2), Duration::ZERO))
        }

        fn compressor(&self) -> &dyn Compressor {
            &self.0
        }
    }

    #[test]
    fn dump_archive_writes_one_entry_per_rank() {
        use fxrz_datagen::Dims;
        let fields: Vec<Field> = (0..3)
            .map(|i| {
                Field::from_fn("density", Dims::d3(8, 8, 8), move |c| {
                    ((c[0] + c[1] * 8 + c[2] + i) as f32 * 0.05).sin()
                })
            })
            .collect();
        let (bytes, works) =
            dump_archive(&FixedEb(fxrz_compressors::sz::Sz), &fields, 10.0).expect("dump");
        assert_eq!(works.len(), 3);
        let a = fxrz_archive::Archive::open(&bytes).expect("open");
        assert_eq!(a.len(), 3);
        for (i, f) in fields.iter().enumerate() {
            let back = a.get(&format!("rank_{i}/density")).expect("get");
            assert_eq!(back.dims(), f.dims());
            assert!(f.max_abs_diff(&back) <= 1e-2);
        }
    }

    #[test]
    fn dump_archive_slabs_large_ranks() {
        use fxrz_datagen::Dims;
        // 8 × 256 × 256 = 2 × BLOCK_SYMBOLS elements → a two-slab stream.
        let f = Field::from_fn("big", Dims::d3(8, 256, 256), |c| {
            ((c[0] * 3 + c[1] + c[2]) as f32 * 0.01).sin()
        });
        let (bytes, _) =
            dump_archive(&FixedEb(fxrz_compressors::sz::Sz), &[f], 10.0).expect("dump");
        let a = fxrz_archive::Archive::open(&bytes).expect("open");
        let e = a.entry("rank_0/big").expect("entry");
        assert_eq!(e.slabs.len(), 2, "rank stream should be slabbed");
    }
}
