//! Row plans: the Lorenzo kernel shared by `sz`, `sz-fse`, `sz2` and
//! `fpzip`, and the strided-row iterator every plan walks with.
//!
//! The Lorenzo corner stencil predicts a point from the `2^d − 1`
//! already-visited corners of its unit cube (inclusion–exclusion over the
//! non-empty subsets, or *masks*, of the axes; a corner off the grid
//! contributes nothing). Which corners exist depends only on which of
//! the point's coordinates are zero, and along a row of the fastest axis
//! that changes once: at the row's first point. So [`stencils`] builds
//! the stencil's `(offset, sign)` terms once per field for each of the
//! `2^d` nonzero-coordinate masks, and [`row_stencils`] picks two per row
//! — for the first point and for the rest — instead of deriving
//! coordinates and testing masks at every point.
//!
//! The terms keep ascending mask order, so the `f64` summation order of
//! [`Stencil::predict`] is exactly that of the test-only per-point
//! reference `sz::lorenzo_predict`, and both give the same bits, up to a
//! NaN's sign and payload, which LLVM leaves unspecified.
//!
//! [`rows`] is the one odometer of the row plans (`mgard`'s levels,
//! `sz2`'s blocks, `szi`'s sweeps and [`walk`]): it hands out the rows
//! of a strided sub-grid, and each plan derives whatever depends only on
//! the slower axes once per row.

use fxrz_datagen::dims::MAX_NDIM;
use fxrz_datagen::Dims;

/// Most stencil terms a point can have: `2^MAX_NDIM − 1` corners.
const MAX_TERMS: usize = (1 << MAX_NDIM) - 1;

/// The Lorenzo terms of one point: the neighbour at `idx − offset` enters
/// the prediction with `sign` (±1), in ascending mask order.
pub(crate) struct Stencil {
    terms: [(usize, i64); MAX_TERMS],
    len: usize,
}

impl Stencil {
    /// The terms of a point whose coordinate along axis `a` is nonzero
    /// exactly when bit `a` of `nonzero` is set.
    pub(crate) fn new(strides: &[usize], nonzero: u32) -> Self {
        let mut stencil = Self {
            terms: [(0, 0); MAX_TERMS],
            len: 0,
        };
        for mask in 1u32..(1 << strides.len()) {
            if mask & !nonzero != 0 {
                continue; // a corner off the grid contributes 0
            }
            let offset = (0..strides.len())
                .filter(|&a| mask >> a & 1 == 1)
                .map(|a| strides[a])
                .sum();
            let sign = if mask.count_ones() % 2 == 1 { 1 } else { -1 };
            stencil.terms[stencil.len] = (offset, sign);
            stencil.len += 1;
        }
        stencil
    }

    /// The `(offset, sign)` terms in ascending mask order.
    #[inline]
    fn terms(&self) -> &[(usize, i64)] {
        &self.terms[..self.len]
    }

    /// The `f64` prediction of point `idx` from `recon`; the same bits as
    /// the per-point reference `sz::lorenzo_predict`, NaN bits aside.
    #[inline]
    pub(crate) fn predict(&self, recon: &[f32], idx: usize) -> f64 {
        let mut pred = 0.0f64;
        for &(offset, sign) in self.terms() {
            pred += sign as f64 * recon[idx - offset] as f64;
        }
        pred
    }

    /// The integer prediction of point `idx` from `vals`. Wrapping: a
    /// corrupt stream can drive values to ±2^63, and encoder and decoder
    /// stay consistent under wrapping.
    #[inline]
    pub(crate) fn predict_int(&self, vals: &[i64], idx: usize) -> i64 {
        let mut pred = 0i64;
        for &(offset, sign) in self.terms() {
            pred = pred.wrapping_add(sign.wrapping_mul(vals[idx - offset]));
        }
        pred
    }
}

/// The points of `dims` that [`walk`] visits to cover its first `len`:
/// every row up to the one holding point `len − 1`.
pub(crate) fn rows_cover(dims: Dims, len: usize) -> usize {
    let row_len = dims.axis(dims.ndim() - 1);
    len.min(dims.len()).div_ceil(row_len) * row_len
}

/// Visits the points of `dims` in raster order with their stencils,
/// `point(idx, stencil)`, and stops after the row that holds point
/// `len − 1` ([`rows_cover`] points); `dims.len()` visits every point.
#[inline]
pub(crate) fn walk(dims: Dims, len: usize, mut point: impl FnMut(usize, &Stencil)) {
    let stencils = stencils(dims);
    let fast = dims.ndim() - 1;
    let row_len = dims.axis(fast);
    let shape = extent(dims);
    let mut visit = |start: usize, coords: &[usize; MAX_NDIM]| {
        let (first, rest) = row_stencils(&stencils, dims, coords);
        point(start, first);
        for idx in start + 1..start + row_len {
            point(idx, rest);
        }
    };
    // The first `left` rows, in raster order, are at most `fast` + 1
    // sub-grids: along each slower axis `a` in turn, the whole steps of
    // `a` that fit, then one step of `a` holding the remainder.
    let mut left = rows_cover(dims, len) / row_len;
    let mut starts = [0; MAX_NDIM];
    let mut counts = shape;
    for a in 0..fast {
        let per_step: usize = shape[a + 1..fast].iter().product();
        counts[a] = left / per_step;
        rows(dims, starts, [1; MAX_NDIM], counts, &mut visit);
        left %= per_step;
        starts[a] += counts[a];
        counts[a] = 1;
    }
    // A 1-D field is one row, which the loop above never reaches.
    if left > 0 {
        rows(dims, starts, [1; MAX_NDIM], counts, &mut visit);
    }
}

/// The stencil of every nonzero-coordinate mask of `dims`: entry
/// `nonzero` is [`Stencil::new`]`(strides, nonzero)`.
pub(crate) fn stencils(dims: Dims) -> Vec<Stencil> {
    let strides = dims.strides();
    (0..1u32 << dims.ndim())
        .map(|nonzero| Stencil::new(&strides[..dims.ndim()], nonzero))
        .collect()
}

/// The stencils from `stencils` of a row's first point, whose global
/// coordinates are `coords`, and of the rest of the row. Only the first
/// point can sit at fastest coordinate 0, which drops the corners behind
/// it along the fastest axis.
pub(crate) fn row_stencils<'s>(
    stencils: &'s [Stencil],
    dims: Dims,
    coords: &[usize; MAX_NDIM],
) -> (&'s Stencil, &'s Stencil) {
    let fast = dims.ndim() - 1;
    let slower = (0..fast)
        .filter(|&a| coords[a] != 0)
        .fold(0usize, |bits, a| bits | 1 << a);
    let rest = slower | 1 << fast;
    let first = if coords[fast] == 0 { slower } else { rest };
    (&stencils[first], &stencils[rest])
}

/// The shape of `dims` padded to [`MAX_NDIM`] axes.
pub(crate) fn extent(dims: Dims) -> [usize; MAX_NDIM] {
    let mut shape = [1; MAX_NDIM];
    shape[..dims.ndim()].copy_from_slice(dims.shape());
    shape
}

/// Visits the rows of the fastest axis of a strided sub-grid of `dims`,
/// in raster order. Along axis `a` the sub-grid holds the coordinates
/// `starts[a] + i·steps[a]` for `i < counts[a]`; `row(start, coords)`
/// gets the linear index and the coordinates of the row's first node and
/// walks the fastest axis itself. An empty sub-grid visits nothing.
pub(crate) fn rows(
    dims: Dims,
    starts: [usize; MAX_NDIM],
    steps: [usize; MAX_NDIM],
    counts: [usize; MAX_NDIM],
    mut row: impl FnMut(usize, &[usize; MAX_NDIM]),
) {
    let ndim = dims.ndim();
    if counts[..ndim].contains(&0) {
        return;
    }
    let strides = dims.strides();
    let mut coords = starts;
    loop {
        let start = (0..ndim).map(|a| coords[a] * strides[a]).sum();
        row(start, &coords);
        // Advance the slower axes, last one fastest.
        let mut a = ndim - 1;
        loop {
            if a == 0 {
                return;
            }
            a -= 1;
            coords[a] += steps[a];
            if coords[a] < starts[a] + counts[a] * steps[a] {
                break;
            }
            coords[a] = starts[a];
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::sz::lorenzo_predict;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The per-point mask loop over wrapping `i64`: the reference the
    /// integer plan must match.
    fn mask_loop_int(vals: &[i64], dims: Dims, idx: usize, coords: &[usize]) -> i64 {
        let strides = dims.strides();
        let mut pred = 0i64;
        for mask in 1u32..(1 << dims.ndim()) {
            let mut off = 0usize;
            let mut ok = true;
            for (a, &c) in coords.iter().enumerate() {
                if mask & (1 << a) != 0 {
                    if c == 0 {
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
                pred = pred.wrapping_add(vals[idx - off]);
            } else {
                pred = pred.wrapping_sub(vals[idx - off]);
            }
        }
        pred
    }

    /// 1-D..4-D, non-cubic, with size-1 axes in every position and
    /// other axes up to `max_len` long.
    pub(crate) fn random_dims(rng: &mut StdRng, max_len: usize) -> Dims {
        let ndim = rng.gen_range(1..=4usize);
        let shape: Vec<usize> = (0..ndim)
            .map(|_| match rng.gen_range(0..4) {
                0 => 1,
                _ => rng.gen_range(1..=max_len),
            })
            .collect();
        Dims::new(&shape)
    }

    /// Smooth values mixed with NaN, ±Inf, ±0.0, ±1e30 and random bit
    /// patterns.
    pub(crate) fn random_f32(rng: &mut StdRng) -> f32 {
        const SPECIAL: [f32; 7] = [
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            -0.0,
            0.0,
            1e30,
            -1e30,
        ];
        match rng.gen_range(0..4) {
            0 => SPECIAL[rng.gen_range(0..SPECIAL.len())],
            1 => f32::from_bits(rng.gen()),
            _ => rng.gen_range(0..2001) as f32 * 0.01 - 10.0,
        }
    }

    /// The bits of a prediction, every NaN mapped to the one canonical
    /// NaN. LLVM leaves the sign and payload of a NaN result unspecified,
    /// so a plan and its per-point reference may differ in NaN bits alone
    /// (a release build flips the sign of some). No stream byte depends
    /// on them: every walk stores a value with a non-finite prediction
    /// verbatim.
    pub(crate) fn pred_bits(pred: f64) -> u64 {
        if pred.is_nan() {
            f64::NAN.to_bits()
        } else {
            pred.to_bits()
        }
    }

    fn random_i64(rng: &mut StdRng) -> i64 {
        const SPECIAL: [i64; 5] = [i64::MIN, i64::MAX, -1, 0, 1];
        match rng.gen_range(0..4) {
            0 => SPECIAL[rng.gen_range(0..SPECIAL.len())],
            1 => rng.gen(),
            _ => rng.gen_range(-32_768i64..32_768),
        }
    }

    #[test]
    fn row_plan_matches_the_mask_loop_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(0x4C4F_5245_4E5A);
        for case in 0..400 {
            let dims = random_dims(&mut rng, 9);
            let ndim = dims.ndim();
            let floats: Vec<f32> = (0..dims.len()).map(|_| random_f32(&mut rng)).collect();
            let ints: Vec<i64> = (0..dims.len()).map(|_| random_i64(&mut rng)).collect();
            let mut next = 0usize;
            walk(dims, dims.len(), |idx, stencil| {
                assert_eq!(idx, next, "case {case} {dims}: walk left raster order");
                next += 1;
                let coords = dims.coords(idx);
                let want = lorenzo_predict(&floats, dims, idx, &coords[..ndim]);
                let got = stencil.predict(&floats, idx);
                assert_eq!(
                    pred_bits(got),
                    pred_bits(want),
                    "case {case} {dims} point {idx}: f64 {got} vs {want}"
                );
                let want = mask_loop_int(&ints, dims, idx, &coords[..ndim]);
                let got = stencil.predict_int(&ints, idx);
                assert_eq!(got, want, "case {case} {dims} point {idx}: i64");
            });
            assert_eq!(next, dims.len(), "case {case} {dims}: points missed");
        }
    }

    #[test]
    fn prefix_walk_stops_after_the_row_holding_the_last_point() {
        let mut rng = StdRng::seed_from_u64(0x5052_4546);
        for case in 0..400 {
            let dims = random_dims(&mut rng, 9);
            let row_len = dims.axis(dims.ndim() - 1);
            let len = rng.gen_range(0..=dims.len() + 2);
            let want = len.min(dims.len()).div_ceil(row_len) * row_len;
            assert_eq!(rows_cover(dims, len), want, "case {case} {dims} len {len}");
            let mut next = 0usize;
            walk(dims, len, |idx, _| {
                assert_eq!(idx, next, "case {case} {dims} len {len}: not raster order");
                next += 1;
            });
            assert_eq!(next, want, "case {case} {dims} len {len}: points visited");
        }
    }
}
