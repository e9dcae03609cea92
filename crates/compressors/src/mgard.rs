//! MGARD-style multilevel (multigrid) error-bounded compressor.
//!
//! Follows the MGARD/MGARD+ decomposition idea: the grid is organized into
//! a dyadic hierarchy `G_0 ⊃ G_1 ⊃ … ⊃ G_L` (level-`k` nodes have all
//! coordinates divisible by `2^k`). Coarse nodes are delta-coded; every
//! finer node is predicted by **multilinear interpolation** of its
//! already-reconstructed coarser neighbours, and the residual is quantized
//! with bin width `2·eb`. Because prediction always reads *reconstructed*
//! values, the absolute error bound holds at every node without error
//! accumulation across levels.
//!
//! Back end: zero-run-length coding of the (overwhelmingly zero on smooth
//! data) quantized residuals, then the LZ77 dictionary stage.

use crate::header::{self, magic};
use crate::lorenzo::{extent, rows};
use crate::slab::{self, Window};
use crate::sz::{abs_eb, open_payload, HALF};
use crate::{CompressError, Compressor, ConfigSpace, ErrorConfig};
use fxrz_codec::bitstream::{read_varint, unzigzag, write_varint, zigzag};
use fxrz_codec::{lz77, rle};
use fxrz_datagen::dims::MAX_NDIM;
use fxrz_datagen::{Dims, Field};

/// Symbol for a zero residual (RLE-friendly).
const SYM_ZERO: u32 = 0;
/// Symbol flagging an unpredictable (verbatim) value.
const SYM_UNPRED: u32 = 1;
/// Residual symbols start here: `sym = zigzag(q) + SYM_BASE - 1` for `q≠0`.
const SYM_BASE: u32 = 2;

/// The MGARD-style compressor. Stateless; construct via `Mgard::default()`.
#[derive(Clone, Copy, Debug, Default)]
pub struct Mgard;

/// Number of levels for the given shape: the coarsest grid still has at
/// least two nodes along the longest axis (shared with the SZ3-style
/// interpolation hierarchy of [`crate::szinterp`]).
pub(crate) fn num_levels(dims: Dims) -> u32 {
    let max_axis = dims.shape().iter().copied().max().unwrap_or(1);
    let mut l = 0u32;
    while (2usize << l) < max_axis {
        l += 1;
    }
    l
}

/// The coarsest grid `G_levels` (every coordinate a multiple of
/// `2^levels`) in raster order; shared with [`crate::szinterp`].
pub(crate) fn coarsest(dims: Dims, levels: u32, mut node: impl FnMut(usize)) {
    let step = 1usize << levels;
    let shape = extent(dims);
    let len = shape[dims.ndim() - 1];
    let counts = shape.map(|n| n.div_ceil(step));
    rows(dims, [0; MAX_NDIM], [step; MAX_NDIM], counts, |start, _| {
        for x in (0..len).step_by(step) {
            node(start + x);
        }
    });
}

/// The interpolation corners shared by a class of level-`k` nodes: the
/// node at `idx` averages `recon[idx - lo + add]` over `adds`. Bit `b` of
/// a corner's index picks the hi neighbour along the `b`-th odd axis in
/// ascending order, the corner order of the per-point reference.
struct Corners {
    lo: usize,
    adds: [usize; 1 << MAX_NDIM],
    len: usize,
    /// `1 / len`. `len` is a power of two, so multiplying by this exact
    /// reciprocal rounds the same quotient as dividing by `len`.
    scale: f64,
}

impl Corners {
    /// The corners over the odd axes `axes`, ascending: `(d, hi)` is the
    /// distance `d` to the lo neighbour and the step `hi` on from it to
    /// the hi one (`2d`, or 0 where the hi neighbour is off the grid and
    /// falls back to lo).
    fn new(axes: &[(usize, usize)]) -> Self {
        let len = 1 << axes.len();
        let mut corners = Self {
            lo: axes.iter().map(|&(d, _)| d).sum(),
            adds: [0; 1 << MAX_NDIM],
            len,
            scale: 1.0 / len as f64,
        };
        for (corner, add) in corners.adds[..corners.len].iter_mut().enumerate() {
            *add = (axes.iter().enumerate())
                .filter(|&(bit, _)| corner >> bit & 1 == 1)
                .map(|(_, &(_, hi))| hi)
                .sum();
        }
        corners
    }

    /// The multilinear prediction of the node at `idx` from `recon`: the
    /// corners summed in order, then divided by their count.
    #[inline]
    fn predict(&self, recon: &[f32], idx: usize) -> f64 {
        let base = idx - self.lo;
        let mut sum = 0.0f64;
        for &add in &self.adds[..self.len] {
            sum += recon[base + add] as f64;
        }
        sum * self.scale
    }
}

/// Visits the nodes owned by level `k < levels` (`G_k \ G_{k+1}`) in
/// raster order with their corners: `node(idx, corners)`. Along a row of
/// the fastest axis the odd slower axes are fixed, so a row builds three
/// corner lists: for its even nodes (owned only when a slower axis is
/// odd), for its odd nodes, and for an odd last node, whose hi corner
/// along the fastest axis falls back to lo. Every corner is a coarser
/// node, so a walk may write each node as soon as it is visited.
fn level_walk(dims: Dims, k: u32, mut node: impl FnMut(usize, &Corners)) {
    let fast = dims.ndim() - 1;
    let step = 1usize << k;
    let strides = dims.strides();
    let shape = extent(dims);
    let len = shape[fast];
    let counts = shape.map(|n| n.div_ceil(step));
    rows(
        dims,
        [0; MAX_NDIM],
        [step; MAX_NDIM],
        counts,
        |start, coords| {
            let mut axes = [(0, 0); MAX_NDIM];
            let mut n_odd = 0;
            for a in (0..fast).filter(|&a| coords[a] & step != 0) {
                let d = step * strides[a];
                let hi = if coords[a] + step < shape[a] {
                    2 * d
                } else {
                    0
                };
                axes[n_odd] = (d, hi);
                n_odd += 1;
            }
            let even = (n_odd > 0).then(|| Corners::new(&axes[..n_odd]));
            axes[n_odd] = (step, 2 * step);
            let odd = Corners::new(&axes[..=n_odd]);
            axes[n_odd] = (step, 0);
            let last = Corners::new(&axes[..=n_odd]);
            for x in (0..len).step_by(2 * step) {
                if let Some(even) = &even {
                    node(start + x, even);
                }
                let x = x + step;
                if x < len {
                    node(start + x, if x + step < len { &odd } else { &last });
                }
            }
        },
    );
}

impl Compressor for Mgard {
    fn name(&self) -> &'static str {
        "mgard"
    }

    fn compress(&self, field: &Field, cfg: &ErrorConfig) -> Result<Vec<u8>, CompressError> {
        slab::compress(magic::MGARD, field, slab::SLAB_SYMBOLS, |sub| {
            self.compress_mono(sub, cfg)
        })
    }

    fn decompress(&self, bytes: &[u8]) -> Result<Field, CompressError> {
        slab::decompress(bytes, magic::MGARD, self.name(), |sub, _| {
            self.decode_whole(sub)
        })
    }

    fn decompress_range(
        &self,
        bytes: &[u8],
        range: core::ops::Range<usize>,
    ) -> Result<Vec<f32>, CompressError> {
        slab::decompress_range_impl(bytes, magic::MGARD, self.name(), range, |sub, _| {
            self.decode_whole(sub)
        })
    }

    fn config_space(&self) -> ConfigSpace {
        ConfigSpace::AbsRelRange {
            min_rel: 1e-7,
            max_rel: 2e-1,
        }
    }
}

impl Mgard {
    /// One monolithic stream: the level hierarchy's quantized residuals,
    /// zero-run coded, then LZ77.
    fn compress_mono(&self, field: &Field, cfg: &ErrorConfig) -> Result<Vec<u8>, CompressError> {
        crate::instrument::compress(self.name(), field.nbytes(), || {
            let eb = abs_eb(self.name(), cfg)?;

            let dims = field.dims();
            let data = field.data();
            let levels = num_levels(dims);
            let bin = 2.0 * eb;

            let mut recon = vec![0.0f32; dims.len()];
            let mut syms: Vec<u32> = Vec::with_capacity(dims.len());
            let mut unpred: Vec<u8> = Vec::new();
            // Returns the value the decoder reconstructs.
            let mut quantize = |val: f32, pred: f64| -> f32 {
                let q = ((val as f64 - pred) / bin).round();
                if q.abs() < (HALF - 1) as f64 && val.is_finite() {
                    let qi = q as i64;
                    let rec = (pred + qi as f64 * bin) as f32;
                    if ((rec as f64) - (val as f64)).abs() <= eb && rec.is_finite() {
                        syms.push(if qi == 0 {
                            SYM_ZERO
                        } else {
                            (zigzag(qi) as u32) + SYM_BASE - 1
                        });
                        return rec;
                    }
                }
                syms.push(SYM_UNPRED);
                unpred.extend_from_slice(&val.to_le_bytes());
                val
            };

            // The coarsest level is delta-coded, then levels-1 .. 0.
            let mut prev_coarse = 0.0f64;
            coarsest(dims, levels, |idx| {
                recon[idx] = quantize(data[idx], prev_coarse);
                prev_coarse = recon[idx] as f64;
            });
            for k in (0..levels).rev() {
                level_walk(dims, k, |idx, corners| {
                    recon[idx] = quantize(data[idx], corners.predict(&recon, idx));
                });
            }

            let rle_bytes = rle::encode(&syms);
            let mut payload = Vec::with_capacity(rle_bytes.len() + unpred.len() + 16);
            payload.extend_from_slice(&eb.to_le_bytes());
            write_varint(&mut payload, rle_bytes.len() as u64);
            payload.extend_from_slice(&rle_bytes);
            payload.extend_from_slice(&unpred);

            let mut out = Vec::new();
            header::write(&mut out, magic::MGARD, field.name(), dims);
            out.extend_from_slice(&lz77::compress(&payload));
            Ok(out)
        })
    }

    /// Decodes one monolithic stream whole: every level predicts from the
    /// coarser ones, so a window is the whole stream.
    fn decode_whole(&self, bytes: &[u8]) -> Result<Window, CompressError> {
        crate::instrument::decompress(self.name(), bytes.len(), Window::nbytes, || {
            let (name, dims, payload, eb) = open_payload(bytes, magic::MGARD, self.name())?;
            let bin = 2.0 * eb;
            let mut pos = 8usize;
            let rle_len = read_varint(&payload, &mut pos)
                .ok_or(CompressError::Header("missing rle length"))?
                as usize;
            if pos + rle_len > payload.len() {
                return Err(CompressError::Header("rle block overruns payload"));
            }
            let syms = rle::decode_limited(&payload[pos..pos + rle_len], dims.len())?;
            if syms.len() != dims.len() {
                return Err(CompressError::Header("symbol count mismatch"));
            }
            let mut unpred = &payload[pos + rle_len..];

            let levels = num_levels(dims);
            let mut recon = vec![0.0f32; dims.len()];
            let mut cursor = 0usize;
            // An unpredictable symbol found no verbatim value left.
            let mut short = false;
            let mut next_value = |pred: f64| -> f32 {
                let sym = syms[cursor];
                cursor += 1;
                match sym {
                    SYM_ZERO => pred as f32,
                    SYM_UNPRED => match unpred.split_first_chunk::<4>() {
                        Some((head, tail)) => {
                            unpred = tail;
                            f32::from_le_bytes(*head)
                        }
                        None => {
                            short = true;
                            0.0
                        }
                    },
                    s => {
                        let q = unzigzag((s - (SYM_BASE - 1)) as u64);
                        (pred + q as f64 * bin) as f32
                    }
                }
            };

            let mut prev_coarse = 0.0f64;
            coarsest(dims, levels, |idx| {
                recon[idx] = next_value(prev_coarse);
                prev_coarse = recon[idx] as f64;
            });
            for k in (0..levels).rev() {
                level_walk(dims, k, |idx, corners| {
                    recon[idx] = next_value(corners.predict(&recon, idx));
                });
            }
            if short {
                return Err(CompressError::Header("missing unpredictable value"));
            }
            Ok(Window::whole(name, dims, recon))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lorenzo::tests::{pred_bits, random_dims, random_f32};
    use fxrz_datagen::grf::{gaussian_random_field, GrfConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The per-point reference of [`coarsest`] and [`level_walk`]: visits
    /// the nodes owned by level `k` (i.e. `G_k \ G_{k+1}`, or all of `G_L`
    /// when `k == levels`) in raster order, invoking `f(linear_index,
    /// coords)`.
    #[allow(clippy::needless_range_loop)] // several fixed arrays indexed in lockstep
    fn for_level_nodes(dims: Dims, k: u32, levels: u32, mut f: impl FnMut(usize, &[usize; 4])) {
        let ndim = dims.ndim();
        let step = 1usize << k;
        // odometer over the level-k grid
        let counts: [usize; 4] = {
            let mut c = [1usize; 4];
            for a in 0..ndim {
                c[a] = dims.axis(a).div_ceil(step);
            }
            c
        };
        let mut it = [0usize; 4];
        loop {
            // absolute coords
            let mut coords = [0usize; 4];
            for a in 0..ndim {
                coords[a] = it[a] * step;
            }
            let owned = if k == levels {
                true
            } else {
                // owned by level k iff not all level-k coords are even
                it[..ndim].iter().any(|&c| c % 2 == 1)
            };
            if owned {
                let idx = dims.linear(&coords[..ndim]);
                f(idx, &coords);
            }
            // increment odometer (fastest axis last)
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

    /// The per-point reference of [`Corners::predict`]: multilinear
    /// prediction of a level-`k` node from its level-(k+1) neighbours in
    /// `recon`.
    #[allow(clippy::needless_range_loop)] // coordinate arrays indexed in lockstep
    fn interp_predict(recon: &[f32], dims: Dims, coords: &[usize; 4], k: u32) -> f64 {
        let ndim = dims.ndim();
        let step = 1usize << k;
        // Axes with an odd level-k coordinate need interpolation.
        let mut odd_axes = [0usize; 4];
        let mut n_odd = 0usize;
        for a in 0..ndim {
            if (coords[a] / step) % 2 == 1 {
                odd_axes[n_odd] = a;
                n_odd += 1;
            }
        }
        debug_assert!(n_odd > 0, "coarse-owned node passed to interp_predict");

        // Average over all corner combinations (lo/hi per odd axis); a hi
        // corner outside the grid degrades to the lo corner (constant
        // extrapolation at the boundary).
        let mut sum = 0.0f64;
        let n_corners = 1usize << n_odd;
        for corner in 0..n_corners {
            let mut c = *coords;
            for (bit, &a) in odd_axes[..n_odd].iter().enumerate() {
                if corner & (1 << bit) != 0 {
                    let hi = coords[a] + step;
                    c[a] = if hi < dims.axis(a) {
                        hi
                    } else {
                        coords[a] - step
                    };
                } else {
                    c[a] = coords[a] - step;
                }
            }
            sum += recon[dims.linear(&c[..ndim])] as f64;
        }
        sum / n_corners as f64
    }

    #[test]
    fn level_plan_matches_the_per_point_walk_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(0x4D_4741_5244);
        for case in 0..300 {
            let dims = random_dims(&mut rng, 12);
            let vals: Vec<f32> = (0..dims.len()).map(|_| random_f32(&mut rng)).collect();
            let levels = num_levels(dims);
            let mut want = Vec::new();
            for_level_nodes(dims, levels, levels, |idx, _| want.push(idx));
            let mut got = Vec::new();
            coarsest(dims, levels, |idx| got.push(idx));
            assert_eq!(got, want, "case {case} {dims}: coarsest nodes");
            for k in (0..levels).rev() {
                let mut want = Vec::new();
                for_level_nodes(dims, k, levels, |idx, coords| {
                    want.push((idx, pred_bits(interp_predict(&vals, dims, coords, k))));
                });
                let mut got = Vec::new();
                level_walk(dims, k, |idx, corners| {
                    got.push((idx, pred_bits(corners.predict(&vals, idx))));
                });
                assert_eq!(got, want, "case {case} {dims} level {k}");
            }
        }
    }

    fn smooth_field() -> Field {
        gaussian_random_field(Dims::d3(16, 16, 16), GrfConfig::default().with_seed(23))
    }

    fn check_roundtrip(field: &Field, eb: f64) -> f64 {
        let m = Mgard;
        let buf = m.compress(field, &ErrorConfig::Abs(eb)).expect("compress");
        let back = m.decompress(&buf).expect("decompress");
        assert_eq!(back.dims(), field.dims());
        let err = field.max_abs_diff(&back);
        assert!(err <= eb, "max error {err} > bound {eb}");
        field.nbytes() as f64 / buf.len() as f64
    }

    #[test]
    fn num_levels_reasonable() {
        assert_eq!(num_levels(Dims::d1(2)), 0);
        assert_eq!(num_levels(Dims::d1(3)), 1);
        assert_eq!(num_levels(Dims::d1(5)), 2);
        assert_eq!(num_levels(Dims::d3(16, 16, 16)), 3);
        assert_eq!(num_levels(Dims::d3(100, 500, 500)), 8);
    }

    #[test]
    fn level_nodes_partition_grid() {
        let dims = Dims::d2(7, 9);
        let levels = num_levels(dims);
        let mut seen = vec![0u32; dims.len()];
        coarsest(dims, levels, |idx| seen[idx] += 1);
        for k in (0..levels).rev() {
            level_walk(dims, k, |idx, _| seen[idx] += 1);
        }
        assert!(
            seen.iter().all(|&c| c == 1),
            "each node visited once: {seen:?}"
        );
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
            Dims::d1(97),
            Dims::d2(13, 21),
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
    fn constant_field_compresses_enormously() {
        let f = Field::new("const", Dims::d3(32, 32, 32), vec![-2.5; 32 * 32 * 32]);
        let cr = check_roundtrip(&f, 1e-3);
        assert!(cr > 300.0, "cr {cr}");
    }

    #[test]
    fn smooth_beats_rough() {
        let smooth = gaussian_random_field(
            Dims::d2(64, 64),
            GrfConfig::default().with_seed(2).with_alpha(4.0),
        );
        let rough = gaussian_random_field(
            Dims::d2(64, 64),
            GrfConfig::default().with_seed(2).with_alpha(0.5),
        );
        assert!(check_roundtrip(&smooth, 1e-2) > check_roundtrip(&rough, 1e-2));
    }

    #[test]
    fn rejects_bad_configs() {
        let f = smooth_field();
        assert!(Mgard.compress(&f, &ErrorConfig::Abs(-1.0)).is_err());
        assert!(Mgard.compress(&f, &ErrorConfig::Precision(8)).is_err());
    }

    #[test]
    fn truncated_stream_never_panics() {
        let f = gaussian_random_field(Dims::d2(16, 16), GrfConfig::default());
        let buf = Mgard
            .compress(&f, &ErrorConfig::Abs(1e-3))
            .expect("compress");
        for cut in 0..buf.len() {
            let _ = Mgard.decompress(&buf[..cut]);
        }
    }

    #[test]
    fn spiky_data_uses_unpredictable_path() {
        let mut f = Field::zeros("spikes", Dims::d2(16, 16));
        f.data_mut()[77] = 1e32;
        f.data_mut()[130] = -4e31;
        check_roundtrip(&f, 1e-6);
    }
}
