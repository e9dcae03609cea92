//! The eight candidate data features of the FXRZ paper (§IV-C) and the
//! five-feature subset it adopts.
//!
//! | Feature | What it senses | Adopted? |
//! |---|---|---|
//! | Value Range | amplitude of the data | ✔ |
//! | Mean Value | spread relative to amplitude | ✔ |
//! | Mean Neighbor Difference (MND) | local smoothness | ✔ |
//! | Mean Lorenzo Difference (MLD) | regional smoothness (Eq. 1–2) | ✔ |
//! | Mean Spline Difference (MSD) | wave textures (Eq. 3) | ✔ |
//! | Mean / Min / Max Gradient | raw slope statistics | ✘ (Table II) |
//!
//! Features are computed only at [`StridedSampler`] points, but each
//! sampled point reads its true neighbours from the full grid, so the
//! stencil features stay faithful under sampling.

use crate::sampling::StridedSampler;
use fxrz_datagen::{Dims, Field};
use fxrz_telemetry::{Counter, Name, Resolved};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Extractions run, resolved once.
static EXTRACTIONS: Resolved<Name, Arc<Counter>> =
    Resolved::counter(crate::names::FEATURES_EXTRACTIONS);
/// Points sampled for features, resolved once.
static SAMPLED_POINTS: Resolved<Name, Arc<Counter>> =
    Resolved::counter(crate::names::FEATURES_SAMPLED_POINTS);

/// All eight candidate features of one field.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct FeatureVector {
    /// `max − min` over the sampled points.
    pub value_range: f64,
    /// Arithmetic mean over the sampled points.
    pub mean_value: f64,
    /// Mean |value − mean(axis neighbours)|.
    pub mnd: f64,
    /// Mean |value − Lorenzo prediction| (Eq. 1–2).
    pub mld: f64,
    /// Mean |value − cubic-spline fit| (Eq. 3).
    pub msd: f64,
    /// Mean |backward difference| across axes.
    pub mean_gradient: f64,
    /// Min |backward difference|.
    pub min_gradient: f64,
    /// Max |backward difference|.
    pub max_gradient: f64,
}

/// Which features feed the regression model.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum FeatureSet {
    /// The paper's adopted five: Value Range, Mean Value, MND, MLD, MSD.
    Adopted,
    /// All eight candidates (for the Table II correlation study and the
    /// feature ablation bench).
    All,
    /// The adopted five minus one (ablation): index into
    /// `[value_range, mean_value, mnd, mld, msd]`.
    AdoptedMinus(u8),
}

impl FeatureSet {
    /// Number of features this set materializes.
    pub fn len(&self) -> usize {
        match self {
            FeatureSet::Adopted => 5,
            FeatureSet::All => 8,
            FeatureSet::AdoptedMinus(_) => 4,
        }
    }

    /// True when the set is empty (never, but for API completeness).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Materializes the selected features as a row vector.
    pub fn project(&self, f: &FeatureVector) -> Vec<f64> {
        let adopted = [f.value_range, f.mean_value, f.mnd, f.mld, f.msd];
        match self {
            FeatureSet::Adopted => adopted.to_vec(),
            FeatureSet::All => vec![
                f.value_range,
                f.mean_value,
                f.mnd,
                f.mld,
                f.msd,
                f.mean_gradient,
                f.min_gradient,
                f.max_gradient,
            ],
            FeatureSet::AdoptedMinus(skip) => adopted
                .iter()
                .enumerate()
                .filter(|&(i, _)| i != *skip as usize)
                .map(|(_, &v)| v)
                .collect(),
        }
    }

    /// Names matching [`Self::project`]'s order.
    pub fn names(&self) -> Vec<&'static str> {
        let adopted = ["value_range", "mean_value", "mnd", "mld", "msd"];
        match self {
            FeatureSet::Adopted => adopted.to_vec(),
            FeatureSet::All => vec![
                "value_range",
                "mean_value",
                "mnd",
                "mld",
                "msd",
                "mean_gradient",
                "min_gradient",
                "max_gradient",
            ],
            FeatureSet::AdoptedMinus(skip) => adopted
                .iter()
                .enumerate()
                .filter(|&(i, _)| i != *skip as usize)
                .map(|(_, &n)| n)
                .collect(),
        }
    }
}

/// Lorenzo prediction from the *original* data (Eq. 1–2), generalized to
/// 1-D..4-D; out-of-grid neighbours contribute 0.
fn lorenzo(data: &[f32], dims: Dims, coords: &[usize]) -> f64 {
    let ndim = dims.ndim();
    let strides = dims.strides();
    let idx = dims.linear(coords);
    let mut pred = 0.0f64;
    for mask in 1u32..(1 << ndim) {
        let mut off = 0usize;
        let mut ok = true;
        for a in 0..ndim {
            if mask & (1 << a) != 0 {
                if coords[a] == 0 {
                    ok = false;
                    break;
                }
                off += strides[a];
            }
        }
        if !ok {
            continue;
        }
        if mask.count_ones() % 2 == 1 {
            pred += data[idx - off] as f64;
        } else {
            pred -= data[idx - off] as f64;
        }
    }
    pred
}

/// Sampled points per parallel chunk. Fixed (never derived from the
/// thread count) so chunk boundaries — and therefore the chunk-ordered
/// floating-point reduction — are identical for any pool size.
const POINTS_PER_CHUNK: usize = 8192;

/// Partial feature statistics over one chunk of sampled points.
#[derive(Clone, Copy, Debug)]
struct Accum {
    min: f64,
    max: f64,
    sum: f64,
    n_val: usize,
    mnd_sum: f64,
    mnd_n: usize,
    mld_sum: f64,
    mld_n: usize,
    msd_sum: f64,
    msd_n: usize,
    grad_sum: f64,
    grad_n: usize,
    grad_min: f64,
    grad_max: f64,
}

impl Default for Accum {
    fn default() -> Self {
        Self {
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            sum: 0.0,
            n_val: 0,
            mnd_sum: 0.0,
            mnd_n: 0,
            mld_sum: 0.0,
            mld_n: 0,
            msd_sum: 0.0,
            msd_n: 0,
            grad_sum: 0.0,
            grad_n: 0,
            grad_min: f64::INFINITY,
            grad_max: f64::NEG_INFINITY,
        }
    }
}

impl Accum {
    /// Folds `next` (the following chunk) into `self`. Always called in
    /// chunk order, which fixes the floating-point addition order.
    fn merge(mut self, next: Self) -> Self {
        self.min = self.min.min(next.min);
        self.max = self.max.max(next.max);
        self.sum += next.sum;
        self.n_val += next.n_val;
        self.mnd_sum += next.mnd_sum;
        self.mnd_n += next.mnd_n;
        self.mld_sum += next.mld_sum;
        self.mld_n += next.mld_n;
        self.msd_sum += next.msd_sum;
        self.msd_n += next.msd_n;
        self.grad_sum += next.grad_sum;
        self.grad_n += next.grad_n;
        self.grad_min = self.grad_min.min(next.grad_min);
        self.grad_max = self.grad_max.max(next.grad_max);
        self
    }

    /// Accumulates one sampled point; non-finite values and stencil
    /// contributions are skipped, matching the sequential semantics.
    fn point(&mut self, data: &[f32], dims: Dims, strides: &[usize; 4], coords: &[usize]) {
        let ndim = dims.ndim();
        let idx = dims.linear(coords);
        let v = data[idx] as f64;
        if !v.is_finite() {
            return;
        }
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.sum += v;
        self.n_val += 1;

        // MND: average of in-grid axis neighbours
        let mut nb_sum = 0.0f64;
        let mut nb_n = 0usize;
        for a in 0..ndim {
            if coords[a] > 0 {
                nb_sum += data[idx - strides[a]] as f64;
                nb_n += 1;
            }
            if coords[a] + 1 < dims.axis(a) {
                nb_sum += data[idx + strides[a]] as f64;
                nb_n += 1;
            }
        }
        if nb_n > 0 && nb_sum.is_finite() {
            self.mnd_sum += (v - nb_sum / nb_n as f64).abs();
            self.mnd_n += 1;
        }

        // MLD: Lorenzo residual (skip the origin-corner where pred = 0)
        if coords.iter().any(|&x| x > 0) {
            let p = lorenzo(data, dims, coords);
            if p.is_finite() {
                self.mld_sum += (v - p).abs();
                self.mld_n += 1;
            }
        }

        // MSD: Eq. 3 per axis, averaged across axes with full stencils
        let mut spline_sum = 0.0f64;
        let mut spline_axes = 0usize;
        for a in 0..ndim {
            let x = coords[a];
            let len = dims.axis(a);
            if x >= 3 && x + 3 < len {
                let s = strides[a];
                let d_m3 = data[idx - 3 * s] as f64;
                let d_m1 = data[idx - s] as f64;
                let d_p1 = data[idx + s] as f64;
                let d_p3 = data[idx + 3 * s] as f64;
                spline_sum += -d_m3 / 16.0 + 9.0 * d_m1 / 16.0 + 9.0 * d_p1 / 16.0 - d_p3 / 16.0;
                spline_axes += 1;
            }
        }
        if spline_axes > 0 && spline_sum.is_finite() {
            self.msd_sum += (v - spline_sum / spline_axes as f64).abs();
            self.msd_n += 1;
        }

        // Gradients: backward differences per axis
        for a in 0..ndim {
            if coords[a] > 0 {
                let g = (v - data[idx - strides[a]] as f64).abs();
                if g.is_finite() {
                    self.grad_sum += g;
                    self.grad_n += 1;
                    self.grad_min = self.grad_min.min(g);
                    self.grad_max = self.grad_max.max(g);
                }
            }
        }
    }
}

/// Extracts all eight features of `field` at the sampler's points.
///
/// Chunks of sampled points are processed on the shared worker pool and
/// their partial statistics folded in chunk order, so the result is
/// bit-identical whether the pool runs one thread or many.
pub fn extract(field: &Field, sampler: StridedSampler) -> FeatureVector {
    let dims = field.dims();
    let ndim = dims.ndim();
    let strides = dims.strides();
    let data = field.data();

    let sample_coords = sampler.coords(field);
    EXTRACTIONS.get().incr();
    SAMPLED_POINTS.get().add(sample_coords.len() as u64);
    let acc = fxrz_parallel::par_reduce(
        sample_coords.len(),
        POINTS_PER_CHUNK,
        |chunk| {
            let mut a = Accum::default();
            for c in &sample_coords[chunk] {
                a.point(data, dims, &strides, &c[..ndim]);
            }
            a
        },
        Accum::default(),
        Accum::merge,
    );

    let safe_div = |s: f64, n: usize| if n > 0 { s / n as f64 } else { 0.0 };
    FeatureVector {
        value_range: if acc.n_val > 0 {
            acc.max - acc.min
        } else {
            0.0
        },
        mean_value: safe_div(acc.sum, acc.n_val),
        mnd: safe_div(acc.mnd_sum, acc.mnd_n),
        mld: safe_div(acc.mld_sum, acc.mld_n),
        msd: safe_div(acc.msd_sum, acc.msd_n),
        mean_gradient: safe_div(acc.grad_sum, acc.grad_n),
        min_gradient: if acc.grad_n > 0 { acc.grad_min } else { 0.0 },
        max_gradient: if acc.grad_n > 0 { acc.grad_max } else { 0.0 },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fxrz_datagen::grf::{gaussian_random_field, GrfConfig};

    fn full() -> StridedSampler {
        StridedSampler::full()
    }

    #[test]
    fn constant_field_features() {
        let f = Field::new("c", Dims::d2(8, 8), vec![5.0; 64]);
        let fv = extract(&f, full());
        assert_eq!(fv.value_range, 0.0);
        assert_eq!(fv.mean_value, 5.0);
        assert_eq!(fv.mnd, 0.0);
        assert_eq!(fv.msd, 0.0);
        assert_eq!(fv.max_gradient, 0.0);
        // Lorenzo of a constant field is exact everywhere (borders reduce
        // to a single valid neighbour that already equals c); only the
        // origin corner has no prediction and it is skipped.
        assert_eq!(fv.mld, 0.0);
    }

    #[test]
    fn linear_ramp_has_zero_mld_interior() {
        // On a linear function, Lorenzo prediction is exact (interior).
        let f = Field::from_fn("ramp", Dims::d2(16, 16), |c| (c[0] + c[1]) as f32);
        let interior_only = {
            // restrict to interior by extracting on the full grid and
            // checking the value is small relative to the field amplitude
            let fv = extract(&f, full());
            fv.mld
        };
        // border terms contribute, but the bulk is exact
        assert!(interior_only < 1.0, "mld {interior_only}");
    }

    #[test]
    fn msd_zero_on_cubic_polynomial() {
        // Eq. 3 reproduces cubics exactly: -1/16 + 9/16 + 9/16 - 1/16 = 1
        // with third-order accuracy.
        let f = Field::from_fn("cubic", Dims::d1(64), |c| {
            let x = c[0] as f64 / 10.0;
            (0.5 * x * x * x - x * x + 2.0 * x + 3.0) as f32
        });
        let fv = extract(&f, full());
        assert!(fv.msd < 2e-2, "msd {}", fv.msd);
    }

    #[test]
    fn msd_detects_high_frequency_waves() {
        let smooth = Field::from_fn("lowfreq", Dims::d1(256), |c| ((c[0] as f32) * 0.02).sin());
        let wavy = Field::from_fn("highfreq", Dims::d1(256), |c| ((c[0] as f32) * 1.5).sin());
        let s = extract(&smooth, full());
        let w = extract(&wavy, full());
        assert!(w.msd > s.msd * 10.0, "{} vs {}", w.msd, s.msd);
    }

    #[test]
    fn smoother_fields_have_smaller_mnd_mld() {
        let smooth = gaussian_random_field(
            Dims::d2(64, 64),
            GrfConfig::default().with_seed(3).with_alpha(4.0),
        );
        let rough = gaussian_random_field(
            Dims::d2(64, 64),
            GrfConfig::default().with_seed(3).with_alpha(0.5),
        );
        let s = extract(&smooth, full());
        let r = extract(&rough, full());
        assert!(s.mnd < r.mnd);
        assert!(s.mld < r.mld);
        assert!(s.msd < r.msd);
    }

    #[test]
    fn sampled_features_approximate_full_features() {
        let f = gaussian_random_field(Dims::d3(32, 32, 32), GrfConfig::default().with_seed(8));
        let full_fv = extract(&f, full());
        let samp_fv = extract(&f, StridedSampler::new(4));
        let close = |a: f64, b: f64| (a - b).abs() <= 0.25 * a.abs().max(b.abs()).max(1e-9);
        assert!(
            close(full_fv.mnd, samp_fv.mnd),
            "{full_fv:?} vs {samp_fv:?}"
        );
        assert!(
            close(full_fv.mld, samp_fv.mld),
            "{full_fv:?} vs {samp_fv:?}"
        );
        assert!(
            close(full_fv.msd, samp_fv.msd),
            "{full_fv:?} vs {samp_fv:?}"
        );
        // a unit-variance GRF has mean ≈ 0: compare on the std scale
        assert!((full_fv.mean_value - samp_fv.mean_value).abs() < 0.1);
    }

    #[test]
    fn feature_set_projection_sizes() {
        let fv = FeatureVector {
            value_range: 1.0,
            mean_value: 2.0,
            mnd: 3.0,
            mld: 4.0,
            msd: 5.0,
            mean_gradient: 6.0,
            min_gradient: 7.0,
            max_gradient: 8.0,
        };
        assert_eq!(
            FeatureSet::Adopted.project(&fv),
            vec![1.0, 2.0, 3.0, 4.0, 5.0]
        );
        assert_eq!(FeatureSet::All.project(&fv).len(), 8);
        assert_eq!(
            FeatureSet::AdoptedMinus(2).project(&fv),
            vec![1.0, 2.0, 4.0, 5.0]
        );
        for set in [
            FeatureSet::Adopted,
            FeatureSet::All,
            FeatureSet::AdoptedMinus(0),
        ] {
            assert_eq!(set.names().len(), set.len());
            assert_eq!(set.project(&fv).len(), set.len());
        }
    }

    #[test]
    fn lorenzo_2d_formula() {
        // lorenzo(i,j) = d[i-1,j] + d[i,j-1] - d[i-1,j-1]
        let f = Field::new("x", Dims::d2(2, 2), vec![1.0, 2.0, 3.0, 99.0]);
        let p = lorenzo(f.data(), f.dims(), &[1, 1]);
        assert_eq!(p, 3.0 + 2.0 - 1.0);
    }

    #[test]
    fn nan_values_are_skipped() {
        let mut f = Field::from_fn("n", Dims::d1(32), |c| c[0] as f32);
        f.data_mut()[5] = f32::NAN;
        let fv = extract(&f, full());
        assert!(fv.mean_value.is_finite());
        assert!(fv.value_range.is_finite());
    }

    #[test]
    fn infinities_do_not_poison_any_feature() {
        let mut f = Field::from_fn("inf", Dims::d2(16, 16), |c| (c[0] * c[1]) as f32);
        f.data_mut()[17] = f32::INFINITY;
        f.data_mut()[40] = f32::NEG_INFINITY;
        f.data_mut()[90] = f32::NAN;
        let fv = extract(&f, full());
        for (name, v) in FeatureSet::All
            .names()
            .iter()
            .zip(FeatureSet::All.project(&fv))
        {
            assert!(v.is_finite(), "{name} = {v}");
        }
    }

    #[test]
    fn all_nan_field_yields_zero_features() {
        let f = Field::new("nan", Dims::d2(8, 8), vec![f32::NAN; 64]);
        let fv = extract(&f, full());
        assert_eq!(fv.value_range, 0.0);
        assert_eq!(fv.mean_value, 0.0);
        assert_eq!(fv.mnd, 0.0);
        assert_eq!(fv.mld, 0.0);
        assert_eq!(fv.msd, 0.0);
        assert_eq!(fv.mean_gradient, 0.0);
        assert_eq!(fv.min_gradient, 0.0);
        assert_eq!(fv.max_gradient, 0.0);
    }
}
