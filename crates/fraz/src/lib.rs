//! # fxrz-fraz — the FRaZ baseline (Underwood et al., IPDPS 2020)
//!
//! FRaZ is the only prior compressor-agnostic fixed-ratio framework and
//! the paper's comparison baseline. It finds the error configuration for a
//! target compression ratio by **trial and error**: it divides the global
//! configuration range into `k` bins and searches each bin iteratively,
//! *running the real compressor* at every probe. Accuracy therefore costs
//! compressor executions — the paper evaluates 6 and 15 iterations and
//! measures one-to-two orders of magnitude more analysis time than FXRZ
//! (Table VIII, the headline 108× gap).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use fxrz_compressors::{CompressError, Compressor, ErrorConfig};
use fxrz_datagen::Field;
#[expect(
    clippy::disallowed_types,
    reason = "Instant is telemetry-only in this crate"
)]
use std::time::{Duration, Instant};

/// Telemetry metric and span name inventory.
pub mod names {
    use fxrz_telemetry::Name;

    /// Wall time of one search round, nanoseconds.
    pub const ROUND_NS: Name = Name::new("fraz.round_ns");
    /// Completed searches.
    pub const SEARCHES: Name = Name::new("fraz.searches");
    /// Compressor invocations across all rounds.
    pub const COMPRESSOR_RUNS: Name = Name::new("fraz.compressor_runs");
    /// Span around one fixed-ratio search.
    pub const SPAN_SEARCH: Name = Name::new("fraz_search");
}

/// The FRaZ iterative searcher.
#[derive(Clone, Copy, Debug)]
pub struct FrazSearcher {
    /// Number of bins the global config range is divided into (paper: 3,
    /// "a good balance between search coverage and max-iterations").
    pub bins: usize,
    /// Iterations per bin; `bins × max_iters_per_bin` compressor runs in
    /// total. The paper evaluates totals of 6 and 15.
    pub max_iters_per_bin: usize,
}

impl FrazSearcher {
    /// A searcher whose *total* iteration budget across all bins is
    /// `total_iters` (matching how the paper reports "6 iterations" and
    /// "15 iterations" with 3 bins).
    pub fn with_total_iters(total_iters: usize) -> Self {
        let bins = 3usize;
        Self {
            bins,
            max_iters_per_bin: total_iters.div_ceil(bins).max(1),
        }
    }

    /// Total compressor runs this configuration may spend.
    pub fn budget(&self) -> usize {
        self.bins * self.max_iters_per_bin
    }
}

impl Default for FrazSearcher {
    fn default() -> Self {
        Self::with_total_iters(15)
    }
}

/// Result of one FRaZ search.
#[derive(Clone, Debug)]
pub struct FrazResult {
    /// Best configuration found.
    pub config: ErrorConfig,
    /// Compression ratio measured at that configuration.
    pub measured_ratio: f64,
    /// Compressor invocations spent (the dominant cost).
    pub compressor_runs: usize,
    /// Wall-clock search time (includes all compressor runs).
    pub search_time: Duration,
}

impl FrazResult {
    /// The paper's estimation error (Formula 5).
    pub fn estimation_error(&self, tcr: f64) -> f64 {
        (tcr - self.measured_ratio).abs() / tcr
    }
}

impl FrazSearcher {
    /// Searches for the configuration whose measured ratio is closest to
    /// `tcr`, running `compressor` at every probe.
    ///
    /// # Errors
    /// Propagates compressor failures; rejects non-finite / ≤ 1 targets.
    pub fn search(
        &self,
        compressor: &dyn Compressor,
        field: &Field,
        tcr: f64,
    ) -> Result<FrazResult, CompressError> {
        if !(tcr.is_finite() && tcr > 1.0) {
            return Err(CompressError::BadConfig(format!(
                "target ratio must be finite and > 1, got {tcr}"
            )));
        }
        let _search_span = fxrz_telemetry::span!(names::SPAN_SEARCH);
        #[expect(clippy::disallowed_types, reason = "feeds the search_time report only")]
        let t0 = Instant::now();
        let space = compressor.config_space();
        let range = field.stats().range;
        let mut runs = 0usize;
        let mut best: Option<(f64, ErrorConfig, f64)> = None; // (|err|, cfg, cr)

        let mut probe = |t: f64, runs: &mut usize| -> Result<f64, CompressError> {
            let cfg = space.at(t, range);
            #[expect(clippy::disallowed_types, reason = "timing feeds fraz.round_ns only")]
            let round_start = Instant::now();
            let cr = compressor.ratio(field, &cfg)?;
            fxrz_telemetry::global().observe_duration(names::ROUND_NS, round_start.elapsed());
            *runs += 1;
            let err = (cr - tcr).abs();
            if best.as_ref().is_none_or(|(e, _, _)| err < *e) {
                best = Some((err, cfg, cr));
            }
            Ok(cr)
        };

        'search: for b in 0..self.bins {
            let mut lo = b as f64 / self.bins as f64;
            let mut hi = (b + 1) as f64 / self.bins as f64;
            // Iterative bisection on the (monotone-in-t) ratio curve. The
            // compressor runs at every probe — exactly FRaZ's cost model.
            for _ in 0..self.max_iters_per_bin {
                let mid = 0.5 * (lo + hi);
                let cr = probe(mid, &mut runs)?;
                if (cr - tcr).abs() / tcr < 1e-3 {
                    // Converged: the whole search is done, not just this
                    // bin — probing the remaining bins would only spend
                    // compressor runs on configurations that cannot beat
                    // a result already within 0.1% of the target.
                    break 'search;
                }
                if cr < tcr {
                    // need more compression -> looser quality -> larger t
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
        }

        let registry = fxrz_telemetry::global();
        registry.incr(names::SEARCHES);
        registry.add(names::COMPRESSOR_RUNS, runs as u64);
        let (_, config, measured_ratio) = best.expect("at least one probe ran");
        Ok(FrazResult {
            config,
            measured_ratio,
            compressor_runs: runs,
            search_time: t0.elapsed(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fxrz_compressors::sz::Sz;
    use fxrz_compressors::zfp::Zfp;
    use fxrz_datagen::grf::{gaussian_random_field, GrfConfig};
    use fxrz_datagen::Dims;

    fn field() -> Field {
        gaussian_random_field(Dims::d3(16, 16, 16), GrfConfig::default().with_seed(31))
    }

    #[test]
    fn budget_accounting() {
        assert_eq!(FrazSearcher::with_total_iters(6).max_iters_per_bin, 2);
        assert_eq!(FrazSearcher::with_total_iters(15).max_iters_per_bin, 5);
        assert_eq!(FrazSearcher::with_total_iters(15).budget(), 15);
    }

    #[test]
    fn finds_target_ratio_with_sz() {
        let f = field();
        let fraz = FrazSearcher::with_total_iters(15);
        let res = fraz.search(&Sz, &f, 30.0).expect("search");
        assert!(res.compressor_runs <= fraz.budget());
        assert!(res.compressor_runs >= 1);
        let err = res.estimation_error(30.0);
        assert!(err < 0.5, "error {err}, mcr {}", res.measured_ratio);
    }

    #[test]
    fn more_iterations_do_not_hurt() {
        let f = field();
        let coarse = FrazSearcher::with_total_iters(6)
            .search(&Sz, &f, 40.0)
            .expect("search");
        let fine = FrazSearcher::with_total_iters(24)
            .search(&Sz, &f, 40.0)
            .expect("search");
        assert!(fine.estimation_error(40.0) <= coarse.estimation_error(40.0) + 1e-9);
    }

    #[test]
    fn works_with_stairwise_zfp() {
        let f = field();
        let res = FrazSearcher::with_total_iters(15)
            .search(&Zfp::default(), &f, 10.0)
            .expect("search");
        // ZFP's staircase means exact targets may be unreachable; the
        // search must still return the nearest achievable ratio.
        assert!(res.measured_ratio > 1.0);
        assert!(res.estimation_error(10.0) < 1.0);
    }

    #[test]
    fn rejects_bad_targets() {
        let f = field();
        let fraz = FrazSearcher::default();
        assert!(fraz.search(&Sz, &f, 0.5).is_err());
        assert!(fraz.search(&Sz, &f, f64::NAN).is_err());
    }

    /// Always compresses a 16³ f32 field (16384 bytes) to 512 bytes, so
    /// every probe measures exactly ratio 32 regardless of configuration.
    struct FlatRatio;

    impl Compressor for FlatRatio {
        fn name(&self) -> &'static str {
            "flat"
        }

        fn compress(&self, field: &Field, _cfg: &ErrorConfig) -> Result<Vec<u8>, CompressError> {
            Ok(vec![0u8; field.nbytes() / 32])
        }

        fn decompress(&self, _bytes: &[u8]) -> Result<Field, CompressError> {
            Err(CompressError::Header("flat mock cannot decompress"))
        }

        fn decompress_range(
            &self,
            _bytes: &[u8],
            _range: std::ops::Range<usize>,
        ) -> Result<Vec<f32>, CompressError> {
            Err(CompressError::Header("flat mock cannot decompress"))
        }

        fn config_space(&self) -> fxrz_compressors::ConfigSpace {
            fxrz_compressors::ConfigSpace::AbsRelRange {
                min_rel: 1e-6,
                max_rel: 1e-1,
            }
        }
    }

    #[test]
    fn convergence_stops_the_whole_search() {
        // The very first probe lands exactly on the target, so the search
        // must stop after one compressor run. Before the labelled break,
        // the convergence `break` only exited the current bin and the
        // search still burned one probe per remaining bin (3 runs total).
        let f = field();
        let fraz = FrazSearcher::with_total_iters(15);
        let res = fraz.search(&FlatRatio, &f, 32.0).expect("search");
        assert_eq!(res.compressor_runs, 1, "converged search must stop");
        assert!((res.measured_ratio - 32.0).abs() < 1e-9);
    }

    #[test]
    fn counts_compressor_runs() {
        let f = field();
        let fraz = FrazSearcher {
            bins: 2,
            max_iters_per_bin: 4,
        };
        let res = fraz.search(&Sz, &f, 25.0).expect("search");
        assert!(res.compressor_runs <= 8);
        assert!(res.search_time > Duration::ZERO);
    }
}
