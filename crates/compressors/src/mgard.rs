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
use crate::sz::{abs_eb, open_payload, HALF};
use crate::{CompressError, Compressor, ConfigSpace, ErrorConfig};
use fxrz_codec::bitstream::{read_varint, unzigzag, write_varint, zigzag};
use fxrz_codec::{lz77, rle};
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

/// Visits the nodes owned by level `k` (i.e. `G_k \ G_{k+1}`, or all of
/// `G_L` when `k == levels`) in raster order, invoking `f(linear_index,
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

/// Multilinear prediction of a level-`k` node from its level-(k+1)
/// neighbours in `recon`. For the coarsest level, returns the previous
/// reconstructed coarse node (delta coding) via `prev`.
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

impl Compressor for Mgard {
    fn name(&self) -> &'static str {
        "mgard"
    }

    fn compress(&self, field: &Field, cfg: &ErrorConfig) -> Result<Vec<u8>, CompressError> {
        crate::instrument::compress(self.name(), field.nbytes(), || {
            let eb = abs_eb(self.name(), cfg)?;

            let dims = field.dims();
            let data = field.data();
            let levels = num_levels(dims);
            let bin = 2.0 * eb;

            let mut recon = vec![0.0f32; dims.len()];
            let mut syms: Vec<u32> = Vec::with_capacity(dims.len());
            let mut unpred: Vec<u8> = Vec::new();

            // level = levels (coarsest, delta-coded), then levels-1 .. 0
            let mut prev_coarse = 0.0f64;
            let quantize = |val: f32,
                            pred: f64,
                            recon_slot: &mut f32,
                            syms: &mut Vec<u32>,
                            unpred: &mut Vec<u8>| {
                let q = ((val as f64 - pred) / bin).round();
                if q.abs() < (HALF - 1) as f64 && val.is_finite() {
                    let qi = q as i64;
                    let rec = (pred + qi as f64 * bin) as f32;
                    if ((rec as f64) - (val as f64)).abs() <= eb && rec.is_finite() {
                        *recon_slot = rec;
                        syms.push(if qi == 0 {
                            SYM_ZERO
                        } else {
                            (zigzag(qi) as u32) + SYM_BASE - 1
                        });
                        return;
                    }
                }
                *recon_slot = val;
                syms.push(SYM_UNPRED);
                unpred.extend_from_slice(&val.to_le_bytes());
            };

            // coarsest level
            {
                let recon_tmp = &mut recon;
                for_level_nodes(dims, levels, levels, |idx, _| {
                    let val = data[idx];
                    let mut slot = 0.0f32;
                    quantize(val, prev_coarse, &mut slot, &mut syms, &mut unpred);
                    recon_tmp[idx] = slot;
                    prev_coarse = slot as f64;
                });
            }
            // finer levels
            for k in (0..levels).rev() {
                // Split borrows: prediction reads `recon`, result written back.
                let mut updates: Vec<(usize, f32)> = Vec::new();
                for_level_nodes(dims, k, levels, |idx, coords| {
                    let pred = interp_predict(&recon, dims, coords, k);
                    let mut slot = 0.0f32;
                    quantize(data[idx], pred, &mut slot, &mut syms, &mut unpred);
                    updates.push((idx, slot));
                    // Note: nodes within one level never predict each other,
                    // so deferring the write is safe — but finer raster order
                    // nodes of the same level don't interact anyway; write now.
                });
                for (idx, v) in updates {
                    recon[idx] = v;
                }
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

    fn decompress(&self, bytes: &[u8]) -> Result<Field, CompressError> {
        crate::instrument::decompress(self.name(), bytes.len(), || {
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
            let mut next_value = |pred: f64, unpred: &mut &[u8]| -> Result<f32, CompressError> {
                let sym = syms[cursor];
                cursor += 1;
                match sym {
                    SYM_ZERO => Ok(pred as f32),
                    SYM_UNPRED => {
                        if unpred.len() < 4 {
                            return Err(CompressError::Header("missing unpredictable value"));
                        }
                        let (head, tail) = unpred.split_at(4);
                        *unpred = tail;
                        Ok(f32::from_le_bytes(head.try_into().expect("checked length")))
                    }
                    s => {
                        let q = unzigzag((s - (SYM_BASE - 1)) as u64);
                        Ok((pred + q as f64 * bin) as f32)
                    }
                }
            };

            // coarsest
            let mut prev_coarse = 0.0f64;
            let mut err: Option<CompressError> = None;
            {
                let recon_ref = &mut recon;
                for_level_nodes(dims, levels, levels, |idx, _| {
                    if err.is_some() {
                        return;
                    }
                    match next_value(prev_coarse, &mut unpred) {
                        Ok(v) => {
                            recon_ref[idx] = v;
                            prev_coarse = v as f64;
                        }
                        Err(e) => err = Some(e),
                    }
                });
            }
            if let Some(e) = err {
                return Err(e);
            }
            // finer levels
            for k in (0..levels).rev() {
                let mut updates: Vec<(usize, f32)> = Vec::new();
                let mut lvl_err: Option<CompressError> = None;
                for_level_nodes(dims, k, levels, |idx, coords| {
                    if lvl_err.is_some() {
                        return;
                    }
                    let pred = interp_predict(&recon, dims, coords, k);
                    match next_value(pred, &mut unpred) {
                        Ok(v) => updates.push((idx, v)),
                        Err(e) => lvl_err = Some(e),
                    }
                });
                if let Some(e) = lvl_err {
                    return Err(e);
                }
                for (idx, v) in updates {
                    recon[idx] = v;
                }
            }
            Ok(Field::new(name, dims, recon))
        })
    }

    fn config_space(&self) -> ConfigSpace {
        ConfigSpace::AbsRelRange {
            min_rel: 1e-7,
            max_rel: 2e-1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fxrz_datagen::grf::{gaussian_random_field, GrfConfig};

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
        for k in (0..=levels).rev() {
            for_level_nodes(dims, k, levels, |idx, _| {
                seen[idx] += 1;
            });
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
