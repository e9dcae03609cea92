//! The row-plan Lorenzo kernel shared by `sz`, `sz-fse` and `fpzip`.
//!
//! The Lorenzo corner stencil predicts a point from the `2^d − 1`
//! already-visited corners of its unit cube (inclusion–exclusion over the
//! non-empty subsets, or *masks*, of the axes; a corner off the grid
//! contributes nothing). Which corners exist depends only on which of
//! the point's coordinates are zero, and along a row of the fastest axis
//! that changes once: at the row's first point. So [`walk`] computes the
//! stencil's `(offset, sign)` terms twice per row — for the first point
//! and for the rest — instead of deriving coordinates and testing masks
//! at every point.
//!
//! The terms keep ascending mask order, so the `f64` summation order of
//! [`Stencil::predict`] is exactly that of [`crate::sz::lorenzo_predict`]
//! and both give the same bits.

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
    fn new(strides: &[usize], nonzero: u32) -> Self {
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

    /// The `f64` prediction of point `idx` from `recon`; bit-identical to
    /// [`crate::sz::lorenzo_predict`].
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

/// Visits every point of `dims` once, in raster order, with its stencil:
/// `point(idx, stencil)`. Two stencils are built per row of the fastest
/// axis.
#[inline]
pub(crate) fn walk(dims: Dims, mut point: impl FnMut(usize, &Stencil)) {
    let ndim = dims.ndim();
    let all_strides = dims.strides();
    let strides = &all_strides[..ndim];
    let shape = dims.shape();
    let row_len = shape[ndim - 1];
    let fastest = 1u32 << (ndim - 1);
    // Coordinates of the slower axes, advanced row by row.
    let mut outer = [0usize; MAX_NDIM];
    for start in (0..dims.len()).step_by(row_len) {
        let nonzero = (0..ndim - 1)
            .filter(|&a| outer[a] != 0)
            .fold(0u32, |bits, a| bits | 1 << a);
        point(start, &Stencil::new(strides, nonzero));
        let rest = Stencil::new(strides, nonzero | fastest);
        for idx in start + 1..start + row_len {
            point(idx, &rest);
        }
        for a in (0..ndim - 1).rev() {
            outer[a] += 1;
            if outer[a] < shape[a] {
                break;
            }
            outer[a] = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sz::lorenzo_predict;
    use fxrz_telemetry::trace::splitmix64;

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

    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = splitmix64(self.0);
            self.0
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// 1-D..4-D, non-cubic, with size-1 axes in every position.
    fn random_dims(rng: &mut Rng) -> Dims {
        let ndim = 1 + rng.below(4) as usize;
        let shape: Vec<usize> = (0..ndim)
            .map(|_| match rng.below(4) {
                0 => 1,
                _ => 1 + rng.below(9) as usize,
            })
            .collect();
        Dims::new(&shape)
    }

    fn random_f32(rng: &mut Rng) -> f32 {
        const SPECIAL: [f32; 7] = [
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            -0.0,
            0.0,
            1e30,
            -1e30,
        ];
        match rng.below(4) {
            0 => SPECIAL[rng.below(SPECIAL.len() as u64) as usize],
            1 => f32::from_bits(rng.next() as u32),
            _ => (rng.next() % 2001) as f32 * 0.01 - 10.0,
        }
    }

    fn random_i64(rng: &mut Rng) -> i64 {
        const SPECIAL: [i64; 5] = [i64::MIN, i64::MAX, -1, 0, 1];
        match rng.below(4) {
            0 => SPECIAL[rng.below(SPECIAL.len() as u64) as usize],
            1 => rng.next() as i64,
            _ => (rng.next() % 65_536) as i64 - 32_768,
        }
    }

    #[test]
    fn row_plan_matches_the_mask_loop_bit_for_bit() {
        let mut rng = Rng(0x4C4F_5245_4E5A);
        for case in 0..400 {
            let dims = random_dims(&mut rng);
            let ndim = dims.ndim();
            let floats: Vec<f32> = (0..dims.len()).map(|_| random_f32(&mut rng)).collect();
            let ints: Vec<i64> = (0..dims.len()).map(|_| random_i64(&mut rng)).collect();
            let mut next = 0usize;
            walk(dims, |idx, stencil| {
                assert_eq!(idx, next, "case {case} {dims}: walk left raster order");
                next += 1;
                let coords = dims.coords(idx);
                let want = lorenzo_predict(&floats, dims, idx, &coords[..ndim]);
                let got = stencil.predict(&floats, idx);
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "case {case} {dims} point {idx}: f64 {got} vs {want}"
                );
                let want = mask_loop_int(&ints, dims, idx, &coords[..ndim]);
                let got = stencil.predict_int(&ints, idx);
                assert_eq!(got, want, "case {case} {dims} point {idx}: i64");
            });
            assert_eq!(next, dims.len(), "case {case} {dims}: points missed");
        }
    }
}
