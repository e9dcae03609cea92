//! SZ3-style multilevel *interpolation* compressor ("szi").
//!
//! The FXRZ paper claims compressor-agnosticism: any error-bounded
//! compressor can sit under the framework without new modelling work.
//! This fifth compressor exercises that claim with the successor design of
//! the SZ family (SZ3, Zhao et al., ICDE 2021): instead of the Lorenzo
//! corner stencil, values are predicted level by level with **cubic spline
//! interpolation** along one axis at a time.
//!
//! Per level `k` (grid step `s = 2^k`), axis sweeps run in order: the
//! sweep along axis `a` predicts nodes whose coordinate along `a` is an
//! odd multiple of `s` (axes before `a` already refined, axes after `a`
//! still on the `2s` grid) from the four reconstructed neighbours at
//! `±s, ±3s` using the paper's Eq. 3 weights `(-1/16, 9/16, 9/16, -1/16)`,
//! falling back to linear/constant interpolation at the grid boundary.
//! The walk is all this row adds: quantization (bin `2·eb`, verbatim
//! fallback), the entropy back end (per-block FSE + LZ77, see
//! [`crate::entropy`]) and the slab container are the shared
//! [`crate::sz`] pipeline.

use crate::header::magic;
use crate::lorenzo::{extent, rows, PlaneFlags};
use crate::mgard::{coarsest, num_levels};
use crate::sz::{sz_row, Dequantizer, Quantizer, Walk};
use crate::CompressError;
use fxrz_datagen::dims::MAX_NDIM;
use fxrz_datagen::Dims;

/// The SZ3-style interpolation compressor.
#[derive(Clone, Copy, Debug, Default)]
pub struct SzInterp;

sz_row!(SzInterp, "szi", SzInterp);

/// Which neighbours along the sweep axis a node interpolates from; it
/// depends only on the node's coordinate along that axis. A sweep node
/// sits at an odd multiple of the spacing `s`, so its `−s` neighbour
/// always exists.
#[derive(Clone, Copy)]
enum Class {
    /// `±s` and `±3s`, with Eq. 3's cubic weights.
    Cubic,
    /// `±s`: the midpoint.
    Linear,
    /// `−s` only: constant extrapolation at the grid's end.
    Lo,
}

impl Class {
    /// The class of a sweep node at coordinate `x` along an axis of
    /// length `len`, at spacing `s`.
    fn of(x: usize, s: usize, len: usize) -> Self {
        if x + s >= len {
            Self::Lo
        } else if x >= 3 * s && x + 3 * s < len {
            Self::Cubic
        } else {
            Self::Linear
        }
    }

    /// Cubic (falling back to linear/constant) interpolation of the node
    /// at `idx` from reconstructed values, its sweep-axis neighbours `d`
    /// apart in `recon`.
    #[inline]
    fn predict(self, recon: &[f32], idx: usize, d: usize) -> f64 {
        let at = |pos: usize| recon[pos] as f64;
        match self {
            // Eq. 3 cubic weights
            Self::Cubic => {
                -at(idx - 3 * d) / 16.0 + 9.0 * at(idx - d) / 16.0 + 9.0 * at(idx + d) / 16.0
                    - at(idx + 3 * d) / 16.0
            }
            Self::Linear => 0.5 * (at(idx - d) + at(idx + d)),
            Self::Lo => at(idx - d),
        }
    }
}

/// Visits the nodes of the level-`k` sweep along `axis` in raster order
/// with their classes: `node(idx, class)`. A node's coordinate along
/// `axis` is an odd multiple of `s = 2^k`; axes before `axis` are
/// multiples of `s`, axes after it multiples of `2s`. The class is fixed
/// per row when `axis` is a slower axis; when it is the fastest, every
/// row shares one class sequence.
fn sweep(dims: Dims, k: u32, axis: usize, mut node: impl FnMut(usize, Class)) {
    let fast = dims.ndim() - 1;
    let s = 1usize << k;
    let shape = extent(dims);
    let starts: [usize; MAX_NDIM] = std::array::from_fn(|a| if a == axis { s } else { 0 });
    let steps: [usize; MAX_NDIM] = std::array::from_fn(|a| if a < axis { s } else { 2 * s });
    let counts: [usize; MAX_NDIM] =
        std::array::from_fn(|a| shape[a].saturating_sub(starts[a]).div_ceil(steps[a]));
    let (len, dx) = (shape[fast], steps[fast]);
    if axis == fast {
        let classes: Vec<Class> = (s..len).step_by(dx).map(|x| Class::of(x, s, len)).collect();
        rows(dims, starts, steps, counts, |start, _| {
            for (i, &class) in classes.iter().enumerate() {
                node(start + i * dx, class);
            }
        });
    } else {
        rows(dims, starts, steps, counts, |start, coords| {
            let class = Class::of(coords[axis], s, shape[axis]);
            for i in 0..counts[fast] {
                node(start + i * dx, class);
            }
        });
    }
}

/// The coarsest grid delta-coded in raster order, then the refinement
/// sweeps from the coarsest level down. A sweep's nodes predict only
/// from earlier sweeps' nodes, so each is written as soon as it is
/// visited.
fn walk(dims: Dims, mut point: impl FnMut(usize, f64) -> f32) -> Vec<f32> {
    let levels = num_levels(dims);
    let strides = dims.strides();
    let mut recon = vec![0.0f32; dims.len()];
    let mut prev = 0.0f64;
    coarsest(dims, levels, |idx| {
        recon[idx] = point(idx, prev);
        prev = recon[idx] as f64;
    });
    for k in (0..levels).rev() {
        for (axis, &stride) in strides[..dims.ndim()].iter().enumerate() {
            let d = (1usize << k) * stride;
            sweep(dims, k, axis, |idx, class| {
                recon[idx] = point(idx, class.predict(&recon, idx, d));
            });
        }
    }
    recon
}

impl Walk for SzInterp {
    const MAGIC: u8 = magic::SZI;
    type Side = ();

    fn encode(
        data: &[f32],
        dims: Dims,
        _: PlaneFlags,
        q: &mut Quantizer,
    ) -> Result<Vec<u8>, CompressError> {
        walk(dims, |idx, pred| q.quantize(data[idx], pred));
        Ok(Vec::new())
    }

    fn decode(
        dims: Dims,
        _: (),
        _: PlaneFlags,
        d: &mut Dequantizer,
        _: core::ops::Range<usize>,
    ) -> Result<Vec<f32>, CompressError> {
        Ok(walk(dims, |_, pred| d.next_value(pred)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lorenzo::tests::{pred_bits, random_dims, random_f32};
    use crate::{Compressor, ErrorConfig};
    use fxrz_datagen::grf::{gaussian_random_field, GrfConfig};
    use fxrz_datagen::Field;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The per-point reference of [`sweep`]: visits the nodes of the
    /// level-`k` sweep along `axis`: coordinate along `axis` is an odd
    /// multiple of `s`; axes before `axis` are multiples of `s`; axes after
    /// `axis` are multiples of `2s`.
    fn for_sweep_nodes(dims: Dims, k: u32, axis: usize, mut f: impl FnMut(usize, &[usize])) {
        let ndim = dims.ndim();
        let s = 1usize << k;
        // axes before `axis` are already refined to step `s`; the sweep axis
        // advances by 2s between odd multiples; later axes stay on the 2s grid
        let steps: Vec<usize> = (0..ndim)
            .map(|a| if a < axis { s } else { 2 * s })
            .collect();
        // axis `axis` starts at s (first odd multiple), others at 0
        let starts: Vec<usize> = (0..ndim).map(|a| if a == axis { s } else { 0 }).collect();
        let counts: Vec<usize> = (0..ndim)
            .map(|a| {
                let len = dims.axis(a);
                if starts[a] >= len {
                    0
                } else {
                    (len - starts[a]).div_ceil(steps[a])
                }
            })
            .collect();
        if counts.contains(&0) {
            return;
        }
        let strides = dims.strides();
        let mut it = vec![0usize; ndim];
        let mut coords = vec![0usize; ndim];
        loop {
            let mut idx = 0usize;
            for a in 0..ndim {
                coords[a] = starts[a] + it[a] * steps[a];
                idx += coords[a] * strides[a];
            }
            f(idx, &coords);
            let mut a = ndim;
            loop {
                if a == 0 {
                    return;
                }
                a -= 1;
                it[a] += 1;
                if it[a] < counts[a] {
                    break;
                }
                it[a] = 0;
                if a == 0 {
                    return;
                }
            }
        }
    }

    /// The per-point reference of [`Class::predict`]: cubic (falling back
    /// to linear/constant) interpolation along `axis` at spacing `s`, from
    /// reconstructed values.
    fn interp_axis(recon: &[f32], dims: Dims, coords: &[usize], axis: usize, s: usize) -> f64 {
        let len = dims.axis(axis);
        let x = coords[axis];
        let stride = dims.strides()[axis];
        let idx: usize = coords
            .iter()
            .enumerate()
            .map(|(a, &c)| c * dims.strides()[a])
            .sum();
        let at = |pos: usize| recon[idx - x * stride + pos * stride] as f64;

        let lo1 = x.checked_sub(s);
        let lo3 = x.checked_sub(3 * s);
        let hi1 = if x + s < len { Some(x + s) } else { None };
        let hi3 = if x + 3 * s < len {
            Some(x + 3 * s)
        } else {
            None
        };
        match (lo3, lo1, hi1, hi3) {
            (Some(a), Some(b), Some(c), Some(d)) => {
                // Eq. 3 cubic weights
                -at(a) / 16.0 + 9.0 * at(b) / 16.0 + 9.0 * at(c) / 16.0 - at(d) / 16.0
            }
            (_, Some(b), Some(c), _) => 0.5 * (at(b) + at(c)),
            (_, Some(b), None, _) => at(b),
            (_, None, Some(c), _) => at(c),
            _ => 0.0,
        }
    }

    #[test]
    fn sweep_plan_matches_the_per_point_walk_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(0x53_5A49);
        for case in 0..300 {
            let dims = random_dims(&mut rng, 14);
            let vals: Vec<f32> = (0..dims.len()).map(|_| random_f32(&mut rng)).collect();
            for k in (0..num_levels(dims)).rev() {
                let s = 1usize << k;
                for axis in 0..dims.ndim() {
                    let mut want = Vec::new();
                    for_sweep_nodes(dims, k, axis, |idx, coords| {
                        want.push((idx, pred_bits(interp_axis(&vals, dims, coords, axis, s))));
                    });
                    let d = s * dims.strides()[axis];
                    let mut got = Vec::new();
                    sweep(dims, k, axis, |idx, class| {
                        got.push((idx, pred_bits(class.predict(&vals, idx, d))));
                    });
                    assert_eq!(got, want, "case {case} {dims} level {k} axis {axis}");
                }
            }
        }
    }

    fn smooth_field() -> Field {
        gaussian_random_field(Dims::d3(16, 16, 16), GrfConfig::default().with_seed(77))
    }

    fn check_roundtrip(field: &Field, eb: f64) -> f64 {
        let c = SzInterp;
        let buf = c.compress(field, &ErrorConfig::Abs(eb)).expect("compress");
        let back = c.decompress(&buf).expect("decompress");
        assert_eq!(back.dims(), field.dims());
        let err = field.max_abs_diff(&back);
        assert!(err <= eb, "max error {err} > bound {eb}");
        field.nbytes() as f64 / buf.len() as f64
    }

    #[test]
    fn sweeps_partition_the_grid() {
        for dims in [Dims::d2(7, 9), Dims::d3(5, 6, 7), Dims::d1(13)] {
            let levels = num_levels(dims);
            let mut seen = vec![0u32; dims.len()];
            coarsest(dims, levels, |idx| seen[idx] += 1);
            for k in (0..levels).rev() {
                for axis in 0..dims.ndim() {
                    sweep(dims, k, axis, |idx, _| seen[idx] += 1);
                }
            }
            assert!(
                seen.iter().all(|&c| c == 1),
                "{dims}: visit counts {seen:?}"
            );
        }
    }

    #[test]
    fn error_bound_holds_across_magnitudes() {
        let f = smooth_field();
        for eb in [1e-6, 1e-4, 1e-2, 1e-1, 1.0] {
            check_roundtrip(&f, eb);
        }
    }

    #[test]
    fn looser_bound_higher_ratio() {
        let f = smooth_field();
        let tight = check_roundtrip(&f, 1e-5);
        let loose = check_roundtrip(&f, 1e-1);
        assert!(loose > tight * 2.0, "tight {tight}, loose {loose}");
    }

    #[test]
    fn works_in_all_dimensionalities() {
        for dims in [
            Dims::d1(95),
            Dims::d2(14, 23),
            Dims::d3(9, 10, 11),
            Dims::d4(3, 5, 6, 7),
        ] {
            let f = Field::from_fn("wave", dims, |c| {
                (c.iter().sum::<usize>() as f32 * 0.15).sin()
            });
            check_roundtrip(&f, 1e-3);
        }
    }

    #[test]
    fn beats_lorenzo_sz_on_smooth_waves() {
        // Cubic interpolation should out-predict the corner stencil on a
        // band-limited wave field (the SZ3 design motivation).
        let f = Field::from_fn("wave", Dims::d2(64, 64), |c| {
            ((c[0] as f32) * 0.15).sin() * ((c[1] as f32) * 0.12).cos()
        });
        let eb = 1e-4;
        let szi_cr = check_roundtrip(&f, eb);
        let sz_cr = {
            let sz = crate::sz::Sz;
            let buf = sz.compress(&f, &ErrorConfig::Abs(eb)).expect("compress");
            f.nbytes() as f64 / buf.len() as f64
        };
        assert!(
            szi_cr > sz_cr,
            "szi {szi_cr:.2} should beat sz {sz_cr:.2} on smooth waves"
        );
    }

    #[test]
    fn constant_field_compresses_enormously() {
        let f = Field::new("const", Dims::d3(32, 32, 32), vec![1.5; 32 * 32 * 32]);
        let cr = check_roundtrip(&f, 1e-3);
        assert!(cr > 300.0, "cr {cr}");
    }

    #[test]
    fn rejects_bad_configs() {
        let f = smooth_field();
        assert!(SzInterp.compress(&f, &ErrorConfig::Abs(0.0)).is_err());
        assert!(SzInterp.compress(&f, &ErrorConfig::Precision(8)).is_err());
    }

    #[test]
    fn truncated_stream_never_panics() {
        let f = gaussian_random_field(Dims::d2(16, 16), GrfConfig::default());
        let buf = SzInterp
            .compress(&f, &ErrorConfig::Abs(1e-3))
            .expect("compress");
        for cut in 0..buf.len() {
            let _ = SzInterp.decompress(&buf[..cut]);
        }
    }

    #[test]
    fn spiky_data_survives() {
        let mut f = Field::zeros("spikes", Dims::d2(16, 16));
        f.data_mut()[100] = 3e30;
        check_roundtrip(&f, 1e-5);
    }
}
