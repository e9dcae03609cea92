//! Compressibility Adjustment (CA) — the paper's accuracy optimization
//! (§IV-E2, Fig 6–7, Table IV).
//!
//! Smooth ("constant") regions compress at extreme ratios and make a
//! dataset look more compressible than its information-bearing part is.
//! CA splits the field into small blocks (4×4×4 for 3-D data), classifies
//! each block as *constant* when its value range falls below
//! `λ · |mean(block)|` — the threshold is **per block**, so fields with
//! large-scale trends are judged against their local amplitude, not the
//! global mean (λ = 0.15 is the paper's tuned optimum) — and adjusts
//! the user's target ratio before it reaches the model:
//!
//! ```text
//! ACR = TCR × R,   R = fraction of non-constant blocks   (Formula 4)
//! ```

use fxrz_datagen::Field;
use fxrz_telemetry::{Counter, Name, Resolved};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Most blocks side by side in one line: a longer row splits into lines
/// of this many, so a line's statistics stay in cache. Also the blocks in
/// one parallel chunk, rounded to whole lines: fixed, independent of the
/// thread count.
const LINE_BLOCKS: usize = 256;

/// Blocks examined, resolved once.
static BLOCKS: Resolved<Name, Arc<Counter>> = Resolved::counter(crate::names::CA_BLOCKS);
/// Blocks classified non-constant, resolved once.
static NON_CONSTANT_BLOCKS: Resolved<Name, Arc<Counter>> =
    Resolved::counter(crate::names::CA_NON_CONSTANT_BLOCKS);

/// CA parameters.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct CompressibilityAdjuster {
    /// Block edge length (paper: 4).
    pub block: usize,
    /// Threshold coefficient λ on |mean value| (paper: 0.15).
    pub lambda: f64,
}

impl Default for CompressibilityAdjuster {
    fn default() -> Self {
        Self {
            block: 4,
            lambda: 0.15,
        }
    }
}

impl CompressibilityAdjuster {
    /// A CA with the given λ and the default 4-wide blocks.
    pub fn with_lambda(lambda: f64) -> Self {
        Self {
            lambda,
            ..Self::default()
        }
    }

    /// Fraction `R` of non-constant blocks in `field` (Formula 4's `R`).
    ///
    /// A block is constant when `range(block) < λ · |mean(block)|` —
    /// the paper's per-block rule. A strictly flat block is always
    /// constant (covers zero-mean blocks, whose threshold is zero), and
    /// non-finite values are ignored; an all-non-finite block counts as
    /// constant.
    ///
    /// One row-wise pass: each line of up to 256 blocks along the fastest
    /// axis reads its rows once, and each block takes its values in its
    /// own raster order, so its f64 sum is a block-by-block scan's. Lines
    /// are counted on the worker pool in fixed chunks; the integer count
    /// makes `R` identical at any thread count.
    ///
    /// # Panics
    /// Panics when `block == 0` ([`crate::TrainedModel::check_format`]
    /// refuses such a model).
    pub fn non_constant_ratio(&self, field: &Field) -> f64 {
        let b = self.block;
        // The grid as four axes, unit axes in front: axis 3 holds the rows.
        let mut shape = [1usize; 4];
        shape[4 - field.dims().ndim()..].copy_from_slice(field.dims().shape());
        let per_row = shape[3].div_ceil(b);
        let per_line = per_row.min(LINE_BLOCKS);
        let outer: usize = shape[..3].iter().map(|n| n.div_ceil(b)).product();
        let lines = outer * per_row.div_ceil(per_line);

        let non_constant = fxrz_parallel::par_reduce(
            lines,
            LINE_BLOCKS / per_line,
            |chunk| {
                let mut acc = vec![BlockStats::EMPTY; per_line];
                chunk
                    .map(|line| self.count_line(line, field.data(), shape, &mut acc))
                    .sum::<usize>()
            },
            0usize,
            |acc, c| acc + c,
        );

        let total_blocks = outer * per_row;
        BLOCKS.get().add(total_blocks as u64);
        NON_CONSTANT_BLOCKS.get().add(non_constant as u64);
        non_constant as f64 / total_blocks as f64
    }

    /// Counts the non-constant blocks of line `line`: row-major over the
    /// block counts of the three slower axes, then over the lines a row
    /// splits into. `acc` holds one entry per block of a full line.
    fn count_line(
        &self,
        line: usize,
        data: &[f32],
        shape: [usize; 4],
        acc: &mut [BlockStats],
    ) -> usize {
        let b = self.block;
        let width = acc.len() * b;
        let row_lines = shape[3].div_ceil(width);
        let (c1, c2) = (shape[1].div_ceil(b), shape[2].div_ceil(b));
        let (outer, part) = (line / row_lines, line % row_lines);
        let start = [outer / (c1 * c2) * b, outer / c2 % c1 * b, outer % c2 * b];
        let end = |a: usize| (start[a] + b).min(shape[a]);
        let cols = part * width..(part * width + width).min(shape[3]);
        let acc = &mut acc[..cols.len().div_ceil(b)];
        acc.fill(BlockStats::EMPTY);
        for i0 in start[0]..end(0) {
            for i1 in start[1]..end(1) {
                for i2 in start[2]..end(2) {
                    let row = ((i0 * shape[1] + i1) * shape[2] + i2) * shape[3];
                    let values = &data[row + cols.start..row + cols.end];
                    for (s, seg) in acc.iter_mut().zip(values.chunks(b)) {
                        s.push(seg);
                    }
                }
            }
        }
        acc.iter()
            .filter(|s| s.is_non_constant(self.lambda))
            .count()
    }

    /// Formula 4: the adjusted compression ratio fed to the model.
    pub fn adjust(&self, tcr: f64, field: &Field) -> f64 {
        (tcr * self.non_constant_ratio(field)).max(1.0)
    }
}

/// The finite values of one block seen so far: f32 extremes, f64 sum.
/// `min` and `max` are kept apart: stored side by side, LLVM fuses their
/// updates into one vector select that costs more than `minss` + `maxss`.
#[derive(Clone, Copy)]
#[repr(C)]
struct BlockStats {
    min: f32,
    sum: f64,
    max: f32,
    n: usize,
}

impl BlockStats {
    const EMPTY: Self = Self {
        min: f32::INFINITY,
        max: f32::NEG_INFINITY,
        sum: 0.0,
        n: 0,
    };

    /// Takes the next values of the block, in its raster order, in
    /// registers: through `self` each value would cost four stores. The
    /// values compared are finite, so plain compares do the work of
    /// `f32::min`/`max` without their NaN handling.
    fn push(&mut self, values: &[f32]) {
        let (mut min, mut max, mut sum, mut n) = (self.min, self.max, self.sum, self.n);
        for &v in values {
            if v.is_finite() {
                min = if v < min { v } else { min };
                max = if v > max { v } else { max };
                sum += v as f64;
                n += 1;
            }
        }
        *self = Self { min, max, sum, n };
    }

    /// The per-block rule: empty or strictly flat blocks are constant.
    fn is_non_constant(&self, lambda: f64) -> bool {
        if self.n == 0 || self.max <= self.min {
            return false;
        }
        let threshold = lambda * (self.sum / self.n as f64).abs();
        (self.max - self.min) as f64 >= threshold
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fxrz_datagen::Dims;

    #[test]
    fn all_constant_blocks_give_zero_ratio() {
        let f = Field::new("c", Dims::d3(8, 8, 8), vec![5.0; 512]);
        let ca = CompressibilityAdjuster::default();
        assert_eq!(ca.non_constant_ratio(&f), 0.0);
    }

    #[test]
    fn fully_varying_field_gives_one() {
        let f = Field::from_fn("v", Dims::d3(8, 8, 8), |c| {
            ((c[0] * 64 + c[1] * 8 + c[2]) as f32 * 1.7).sin() * 100.0
        });
        let ca = CompressibilityAdjuster::default();
        assert_eq!(ca.non_constant_ratio(&f), 1.0);
    }

    #[test]
    fn half_constant_field_gives_half() {
        // left half constant 10.0, right half strongly varying around 10
        let f = Field::from_fn("h", Dims::d2(8, 16), |c| {
            if c[1] < 8 {
                10.0
            } else {
                10.0 + ((c[0] * 16 + c[1]) as f32).sin() * 20.0
            }
        });
        let ca = CompressibilityAdjuster::default();
        let r = ca.non_constant_ratio(&f);
        assert!((r - 0.5).abs() < 0.26, "r = {r}");
    }

    #[test]
    fn lambda_controls_strictness() {
        // mild variation: range within blocks ~0.5, field mean ~10
        let f = Field::from_fn("m", Dims::d2(16, 16), |c| {
            10.0 + ((c[0] + c[1]) as f32 * 0.4).sin() * 0.3
        });
        let strict = CompressibilityAdjuster::with_lambda(0.005); // thr 0.05
        let loose = CompressibilityAdjuster::with_lambda(0.5); // thr 5.0
        assert!(strict.non_constant_ratio(&f) > loose.non_constant_ratio(&f));
    }

    #[test]
    fn zero_mean_field_counts_only_strictly_constant() {
        let f = Field::from_fn("z", Dims::d2(8, 8), |c| {
            if c[0] < 4 {
                0.0
            } else {
                ((c[0] + c[1]) as f32).sin() - 0.47
            }
        });
        // construct exactly zero mean is hard; force it:
        let mut f = f;
        let mean = f.stats().mean as f32;
        for v in f.data_mut() {
            *v -= mean;
        }
        // cannot be NaN / panic; R in (0,1]
        let r = CompressibilityAdjuster::default().non_constant_ratio(&f);
        assert!(r > 0.0 && r <= 1.0);
    }

    #[test]
    fn adjust_applies_formula4_with_floor() {
        let f = Field::new("c", Dims::d3(8, 8, 8), vec![5.0; 512]);
        let ca = CompressibilityAdjuster::default();
        // R = 0 -> ACR floored at 1 (a CR below 1 is meaningless)
        assert_eq!(ca.adjust(100.0, &f), 1.0);

        let v = Field::from_fn("v", Dims::d3(8, 8, 8), |c| {
            ((c[0] * 64 + c[1] * 8 + c[2]) as f32 * 1.7).sin() * 100.0
        });
        assert_eq!(ca.adjust(100.0, &v), 100.0);
    }

    #[test]
    fn per_block_threshold_handles_trended_fields() {
        // Linear trend along axis 0: within a 4-wide block the local range
        // is slope·3 ≈ 94 everywhere. Under the old *global*-mean rule the
        // threshold was 0.15·mean(field) ≈ 148 everywhere, so every block
        // looked constant (R = 0). The paper's per-block rule judges each
        // block against its own amplitude: low-valued blocks stay
        // non-constant, high-valued ones become constant, and R lands
        // strictly inside (0, 1).
        let f = Field::from_fn("trend", Dims::d2(64, 64), |c| c[0] as f32 * 31.25);
        let r = CompressibilityAdjuster::default().non_constant_ratio(&f);
        assert!(r > 0.1 && r < 0.9, "r = {r}");
    }

    #[test]
    fn non_finite_values_are_ignored() {
        let mut f = Field::from_fn("n", Dims::d2(8, 8), |c| ((c[0] * 8 + c[1]) as f32).sin());
        f.data_mut()[3] = f32::NAN;
        f.data_mut()[9] = f32::INFINITY;
        f.data_mut()[17] = f32::NEG_INFINITY;
        let r = CompressibilityAdjuster::default().non_constant_ratio(&f);
        assert!(r.is_finite() && r > 0.0 && r <= 1.0, "r = {r}");
    }

    #[test]
    fn all_nan_field_is_fully_constant() {
        let f = Field::new("nan", Dims::d2(8, 8), vec![f32::NAN; 64]);
        let r = CompressibilityAdjuster::default().non_constant_ratio(&f);
        assert_eq!(r, 0.0);
    }

    #[test]
    fn partial_blocks_at_edges_are_handled() {
        // 9 is not a multiple of 4: edge blocks are 1 wide
        let f = Field::from_fn("e", Dims::d2(9, 9), |c| (c[0] * 9 + c[1]) as f32);
        let r = CompressibilityAdjuster::default().non_constant_ratio(&f);
        assert!(r > 0.0 && r <= 1.0);
    }
}
