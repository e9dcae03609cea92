//! SZ 2.x-style **hybrid** prediction compressor ("sz2").
//!
//! Real SZ 2 (Liang et al., IEEE BigData 2018) upgraded SZ's pointwise
//! Lorenzo predictor with a per-block choice between two predictors:
//!
//! * the **Lorenzo** corner stencil (good for smooth, locally curved data),
//! * a **block-wise linear regression** `v ≈ a0 + Σ aᵢ·xᵢ` (good for
//!   gradient-dominated regions, where it ignores neighbour noise).
//!
//! The field is cut into `6^d` blocks; for each block both predictors'
//! mean absolute residuals are estimated on the original data and the
//! cheaper one wins. Regression blocks ship their coefficients (as `f32`),
//! Lorenzo blocks predict from the shared reconstruction buffer, so block
//! order (raster over blocks, raster within a block) keeps every Lorenzo
//! neighbour causal. The walk is all this row adds: quantization, the
//! entropy back end (per-block FSE + LZ77) and the slab container are
//! the shared [`crate::sz`] pipeline. Its side info —
//! `varint(block count) | mode bytes | varint(coefficient bytes) |
//! coefficient varints` — sits between the stored error bound and the
//! entropy section.
//!
//! The walk is a row plan: the `2^d` Lorenzo stencils (one per
//! nonzero-coordinate mask) are built once per field, and a block row
//! picks two of them, for its first point and for the rest. A regression
//! row sums the slower axes' terms once and adds the fastest axis's term
//! per point, in the per-point sum's order, so every prediction keeps
//! its bits.

use crate::header::magic;
use crate::lorenzo::{extent, row_stencils, rows, stencils, PlaneFlags, Stencil};
use crate::sz::{sz_row, Dequantizer, Quantizer, Walk};
use crate::CompressError;
use fxrz_codec::bitstream::{read_varint, unzigzag, write_varint, zigzag};
use fxrz_datagen::dims::MAX_NDIM;
use fxrz_datagen::Dims;

/// Block edge length (SZ 2 uses 6).
const BLOCK: usize = 6;

/// Regression coefficients `a0, a1 … a_ndim`; the tail past `ndim + 1`
/// stays 0.
type Coefs = [f32; MAX_NDIM + 1];

/// The SZ2-style hybrid compressor.
#[derive(Clone, Copy, Debug, Default)]
pub struct Sz2;

sz_row!(Sz2, "sz2", Sz2);

/// One block's geometry: origin and per-axis extent.
#[derive(Clone, Copy)]
struct Block {
    origin: [usize; MAX_NDIM],
    lens: [usize; MAX_NDIM],
}

impl Block {
    /// Visits the block's rows of the fastest axis in raster order:
    /// `row(start, coords)` with the linear index and global coordinates
    /// of each row's first point.
    fn rows(&self, dims: Dims, row: impl FnMut(usize, &[usize; MAX_NDIM])) {
        rows(dims, self.origin, [1; MAX_NDIM], self.lens, row);
    }
}

/// Visits the blocks of `dims` in raster order, stopping at the first
/// error.
fn for_blocks(
    dims: Dims,
    mut block: impl FnMut(&Block) -> Result<(), CompressError>,
) -> Result<(), CompressError> {
    let fast = dims.ndim() - 1;
    let shape = extent(dims);
    let counts = shape.map(|n| n.div_ceil(BLOCK));
    let mut result = Ok(());
    rows(
        dims,
        [0; MAX_NDIM],
        [BLOCK; MAX_NDIM],
        counts,
        |_, coords| {
            let mut origin = *coords;
            for x in (0..shape[fast]).step_by(BLOCK) {
                if result.is_err() {
                    return;
                }
                origin[fast] = x;
                let lens = std::array::from_fn(|a| (shape[a] - origin[a]).min(BLOCK));
                result = block(&Block { origin, lens });
            }
        },
    );
    result
}

/// The regression prediction along one block row: the intercept plus the
/// slower axes' terms, summed once, and the fastest axis's slope, whose
/// term each point adds last — the per-point sum's order.
struct RegressionRow {
    partial: f64,
    slope: f64,
}

impl RegressionRow {
    /// The row of `block` whose first point has global coordinates
    /// `coords`.
    fn new(coefs: &Coefs, block: &Block, coords: &[usize; MAX_NDIM], fast: usize) -> Self {
        let mut partial = coefs[0] as f64;
        for a in 0..fast {
            partial += coefs[a + 1] as f64 * (coords[a] - block.origin[a]) as f64;
        }
        Self {
            partial,
            slope: coefs[fast + 1] as f64,
        }
    }

    /// The prediction of the row's point `j` (its local fastest
    /// coordinate).
    #[inline]
    fn predict(&self, j: usize) -> f64 {
        self.partial + self.slope * j as f64
    }
}

/// Least-squares linear fit `v ≈ a0 + Σ aᵢ·localᵢ` over one block of the
/// original data. Separable on a regular grid: per-axis slopes come from
/// `cov(localᵢ, v) / var(localᵢ)`.
fn fit_regression(data: &[f32], dims: Dims, block: &Block) -> Coefs {
    let ndim = dims.ndim();
    let fast = ndim - 1;
    let mut n = 0usize;
    let mut sum_v = 0.0f64;
    let mut sum_x = [0.0f64; MAX_NDIM];
    let mut sum_xx = [0.0f64; MAX_NDIM];
    let mut sum_xv = [0.0f64; MAX_NDIM];
    block.rows(dims, |start, coords| {
        let mut local: [usize; MAX_NDIM] = std::array::from_fn(|a| coords[a] - block.origin[a]);
        for j in 0..block.lens[fast] {
            let v = data[start + j] as f64;
            if !v.is_finite() {
                continue;
            }
            local[fast] = j;
            n += 1;
            sum_v += v;
            for a in 0..ndim {
                let x = local[a] as f64;
                sum_x[a] += x;
                sum_xx[a] += x * x;
                sum_xv[a] += x * v;
            }
        }
    });
    let mut coefs = [0.0f32; MAX_NDIM + 1];
    if n == 0 {
        return coefs;
    }
    let nf = n as f64;
    let mean_v = sum_v / nf;
    let mut a0 = mean_v;
    for a in 0..ndim {
        let mean_x = sum_x[a] / nf;
        let var = sum_xx[a] / nf - mean_x * mean_x;
        let slope = if var > 1e-12 {
            (sum_xv[a] / nf - mean_x * mean_v) / var
        } else {
            0.0
        };
        coefs[a + 1] = slope as f32;
        a0 -= slope * mean_x;
    }
    coefs[0] = a0 as f32;
    coefs
}

/// Coefficient quantization steps: the intercept may shift the prediction
/// by its own error, each slope by up to `BLOCK` times its error — budget
/// half the bound across them so coefficient rounding never dominates.
fn coef_steps(eb: f64, ndim: usize) -> impl Iterator<Item = f64> {
    let budget = eb * 0.5;
    let slope = budget / (2.0 * ndim as f64 * BLOCK as f64);
    std::iter::once(budget / 2.0).chain(std::iter::repeat_n(slope, ndim))
}

/// Quantizes the fitted coefficients (real SZ 2 ships quantized, entropy-
/// coded coefficients rather than raw floats). Returns `(ints,
/// dequantized)` over the first `ndim + 1` entries — prediction must use
/// the dequantized values on both sides.
fn quantize_coefs(coefs: &Coefs, eb: f64, ndim: usize) -> ([i64; MAX_NDIM + 1], Coefs) {
    let mut ints = [0i64; MAX_NDIM + 1];
    let mut deq = [0.0f32; MAX_NDIM + 1];
    for (a, s) in coef_steps(eb, ndim).enumerate() {
        let q = (coefs[a] as f64 / s).round();
        // clamp pathological magnitudes; the residual/unpredictable path
        // still guarantees the bound when the prediction is poor
        let qi = if q.is_finite() {
            q.clamp(-9.0e15, 9.0e15) as i64
        } else {
            0
        };
        ints[a] = qi;
        deq[a] = (qi as f64 * s) as f32;
    }
    (ints, deq)
}

/// Dequantizes the first `ndim + 1` coefficient ints read from the
/// stream.
fn dequantize_coefs(ints: &[i64; MAX_NDIM + 1], eb: f64, ndim: usize) -> Coefs {
    let mut coefs = [0.0f32; MAX_NDIM + 1];
    for (a, s) in coef_steps(eb, ndim).enumerate() {
        coefs[a] = (ints[a] as f64 * s) as f32;
    }
    coefs
}

/// Estimated entropy cost (bits) of one residual after quantization:
/// zero codes are nearly free under FSE + LZ77; a nonzero code pays a
/// symbol cost plus its magnitude bits.
#[inline]
fn residual_bits(res: f64, eb: f64) -> f64 {
    let r = res.abs();
    if r <= eb {
        0.05 // zero code: long runs collapse in the dictionary stage
    } else {
        2.0 + (r / eb).log2().max(0.0)
    }
}

/// Estimated coded size (bits) of each predictor over one block, from the
/// *original* data (the SZ 2 selection heuristic). The regression cost
/// includes its coefficients' actual varint size.
fn predictor_costs(
    data: &[f32],
    dims: Dims,
    stencils: &[Stencil],
    block: &Block,
    coefs: &Coefs,
    coef_ints: &[i64],
    eb: f64,
) -> (f64, f64) {
    let fast = dims.ndim() - 1;
    // The open-loop (original data) Lorenzo residual amplifies pointwise
    // noise by the stencil's sqrt(2^d); the closed loop (reconstruction
    // feedback) smooths that noise away, so divide it back out to
    // approximate the residuals the encoder will actually see. This
    // biases ties toward Lorenzo, which has no coefficient overhead.
    let damp = (2f64.powi(dims.ndim() as i32)).sqrt();
    let mut reg = 0.0f64;
    let mut lor = 0.0f64;
    block.rows(dims, |start, coords| {
        let regression = RegressionRow::new(coefs, block, coords, fast);
        let (first, rest) = row_stencils(stencils, dims, coords);
        for j in 0..block.lens[fast] {
            let idx = start + j;
            let v = data[idx] as f64;
            if !v.is_finite() {
                continue;
            }
            reg += residual_bits(v - regression.predict(j), eb);
            let p = if j == 0 { first } else { rest }.predict(data, idx);
            if p.is_finite() {
                lor += residual_bits((v - p) / damp, eb);
            } else {
                lor += 34.0; // unpredictable fallback: 4 raw bytes + marker
            }
        }
    });
    // coefficient overhead: LEB128 varint of each zigzagged int
    let coef_bits: u32 = coef_ints
        .iter()
        .map(|&q| {
            let z = zigzag(q);
            let significant = 64 - z.leading_zeros();
            significant.div_ceil(7).max(1) * 8
        })
        .sum();
    (reg + coef_bits as f64, lor)
}

/// Blocks in raster order, raster order within each block; `block`
/// yields a block's dequantized regression coefficients, or `None` for a
/// Lorenzo block, before its points are visited. `stencils` are
/// [`stencils`]`(dims)`.
fn walk(
    dims: Dims,
    stencils: &[Stencil],
    mut block: impl FnMut(&Block) -> Result<Option<Coefs>, CompressError>,
    mut point: impl FnMut(usize, f64) -> f32,
) -> Result<Vec<f32>, CompressError> {
    let fast = dims.ndim() - 1;
    let mut recon = vec![0.0f32; dims.len()];
    for_blocks(dims, |b| {
        let coefs = block(b)?;
        let row_len = b.lens[fast];
        b.rows(dims, |start, coords| match &coefs {
            Some(c) => {
                let regression = RegressionRow::new(c, b, coords, fast);
                for j in 0..row_len {
                    recon[start + j] = point(start + j, regression.predict(j));
                }
            }
            None => {
                let (first, rest) = row_stencils(stencils, dims, coords);
                recon[start] = point(start, first.predict(&recon, start));
                for idx in start + 1..start + row_len {
                    recon[idx] = point(idx, rest.predict(&recon, idx));
                }
            }
        });
        Ok(())
    })?;
    Ok(recon)
}

impl Walk for Sz2 {
    const MAGIC: u8 = magic::SZ2;
    /// Per-block mode bytes and the concatenated coefficient varints.
    type Side = (Vec<u8>, Vec<u8>);

    fn encode(
        data: &[f32],
        dims: Dims,
        _: PlaneFlags,
        q: &mut Quantizer,
    ) -> Result<Vec<u8>, CompressError> {
        let eb = q.eb();
        let ndim = dims.ndim();
        let stencils = stencils(dims);
        let mut modes: Vec<u8> = Vec::new();
        let mut coef_bytes: Vec<u8> = Vec::new();
        let choose = |block: &Block| {
            let fitted = fit_regression(data, dims, block);
            let (ints, coefs) = quantize_coefs(&fitted, eb, ndim);
            let ints = &ints[..=ndim];
            let (reg_cost, lor_cost) =
                predictor_costs(data, dims, &stencils, block, &coefs, ints, eb);
            // SZ2's per-block predictor selection on estimated coded bits
            // (the regression cost already carries its coefficient bytes)
            let use_reg = reg_cost < lor_cost;
            modes.push(u8::from(use_reg));
            if use_reg {
                for &q in ints {
                    write_varint(&mut coef_bytes, zigzag(q));
                }
            }
            Ok(use_reg.then_some(coefs))
        };
        walk(dims, &stencils, choose, |idx, pred| {
            q.quantize(data[idx], pred)
        })?;

        let mut side = Vec::with_capacity(modes.len() + coef_bytes.len() + 16);
        write_varint(&mut side, modes.len() as u64);
        side.extend_from_slice(&modes);
        write_varint(&mut side, coef_bytes.len() as u64);
        side.extend_from_slice(&coef_bytes);
        Ok(side)
    }

    fn read_side(payload: &[u8], pos: &mut usize) -> Result<Self::Side, CompressError> {
        let n_modes =
            read_varint(payload, pos).ok_or(CompressError::Header("missing mode count"))?;
        let modes = take(payload, pos, n_modes)
            .ok_or(CompressError::Header("mode stream overruns payload"))?;
        let coef_len =
            read_varint(payload, pos).ok_or(CompressError::Header("missing coefficient length"))?;
        let coef_bytes = take(payload, pos, coef_len)
            .ok_or(CompressError::Header("coefficients overrun payload"))?;
        Ok((modes, coef_bytes))
    }

    fn decode(
        dims: Dims,
        (modes, coef_bytes): Self::Side,
        _: PlaneFlags,
        d: &mut Dequantizer,
        _: core::ops::Range<usize>,
    ) -> Result<Vec<f32>, CompressError> {
        let blocks: usize = dims.shape().iter().map(|n| n.div_ceil(BLOCK)).product();
        if blocks != modes.len() {
            return Err(CompressError::Header("mode count mismatch"));
        }
        let eb = d.eb();
        let ndim = dims.ndim();
        let mut modes = modes.iter();
        let mut coef_pos = 0usize;
        let read = |_: &Block| {
            if modes.next() == Some(&0) {
                return Ok(None);
            }
            let mut ints = [0i64; MAX_NDIM + 1];
            for q in &mut ints[..=ndim] {
                let v = read_varint(&coef_bytes, &mut coef_pos)
                    .ok_or(CompressError::Header("missing block coefficients"))?;
                *q = unzigzag(v);
            }
            Ok(Some(dequantize_coefs(&ints, eb, ndim)))
        };
        walk(dims, &stencils(dims), read, |_, pred| d.next_value(pred))
    }
}

/// The `len` bytes at `payload[*pos..]`, advancing `pos`; `None` when
/// they overrun the payload.
fn take(payload: &[u8], pos: &mut usize, len: u64) -> Option<Vec<u8>> {
    let end = usize::try_from(len).ok()?.checked_add(*pos)?;
    let bytes = payload.get(*pos..end)?.to_vec();
    *pos = end;
    Some(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lorenzo::tests::{pred_bits, random_dims, random_f32};
    use crate::sz::lorenzo_predict;
    use crate::{Compressor, ErrorConfig};
    use fxrz_datagen::grf::{gaussian_random_field, GrfConfig};
    use fxrz_datagen::Field;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The per-point reference of [`for_blocks`]: every block origin.
    struct BlockIter {
        origins: Vec<Vec<usize>>,
    }

    impl BlockIter {
        fn new(dims: Dims) -> Self {
            let mut origins = vec![vec![]];
            for a in 0..dims.ndim() {
                let len = dims.axis(a);
                let mut next = Vec::new();
                for o in &origins {
                    let mut start = 0usize;
                    while start < len {
                        let mut v = o.clone();
                        v.push(start);
                        next.push(v);
                        start += BLOCK;
                    }
                }
                origins = next;
            }
            Self { origins }
        }
    }

    /// The per-point reference of [`Block::rows`]: visits the points of
    /// the block at `origin` in raster order, yielding `(linear_index,
    /// global_coords, local_coords)`.
    fn for_block_points(
        dims: Dims,
        origin: &[usize],
        mut f: impl FnMut(usize, &[usize], &[usize]),
    ) {
        let ndim = dims.ndim();
        let lens: Vec<usize> = (0..ndim)
            .map(|a| (dims.axis(a) - origin[a]).min(BLOCK))
            .collect();
        let strides = dims.strides();
        let mut it = vec![0usize; ndim];
        let mut coords = vec![0usize; ndim];
        loop {
            let mut idx = 0usize;
            for a in 0..ndim {
                coords[a] = origin[a] + it[a];
                idx += coords[a] * strides[a];
            }
            f(idx, &coords, &it);
            let mut a = ndim;
            loop {
                if a == 0 {
                    return;
                }
                a -= 1;
                it[a] += 1;
                if it[a] < lens[a] {
                    break;
                }
                it[a] = 0;
                if a == 0 {
                    return;
                }
            }
        }
    }

    /// The per-point reference of [`RegressionRow::predict`].
    fn regression_predict(coefs: &[f32], local: &[usize]) -> f64 {
        let mut p = coefs[0] as f64;
        for (a, &x) in local.iter().enumerate() {
            p += coefs[a + 1] as f64 * x as f64;
        }
        p
    }

    /// The per-point reference of [`predictor_costs`].
    fn reference_costs(
        data: &[f32],
        dims: Dims,
        origin: &[usize],
        coefs: &[f32],
        coef_ints: &[i64],
        eb: f64,
    ) -> (f64, f64) {
        let mut reg = 0.0f64;
        let mut lor = 0.0f64;
        for_block_points(dims, origin, |idx, coords, local| {
            let v = data[idx] as f64;
            if !v.is_finite() {
                return;
            }
            reg += residual_bits(v - regression_predict(coefs, local), eb);
            let p = lorenzo_predict(data, dims, idx, coords);
            if p.is_finite() {
                let damp = (2f64.powi(dims.ndim() as i32)).sqrt();
                lor += residual_bits((v - p) / damp, eb);
            } else {
                lor += 34.0; // unpredictable fallback: 4 raw bytes + marker
            }
        });
        // coefficient overhead: LEB128 varint of each zigzagged int
        let coef_bits: u32 = coef_ints
            .iter()
            .map(|&q| {
                let z = zigzag(q);
                let significant = 64 - z.leading_zeros();
                significant.div_ceil(7).max(1) * 8
            })
            .sum();
        (reg + coef_bits as f64, lor)
    }

    /// The per-point reference of [`walk`]: every prediction in visit
    /// order, for blocks whose modes and coefficients come from `choices`
    /// and points that reconstruct as `vals`.
    fn reference_walk(dims: Dims, choices: &[Option<Coefs>], vals: &[f32]) -> Vec<(usize, u64)> {
        let mut recon = vec![0.0f32; dims.len()];
        let mut seen = Vec::new();
        for (origin, coefs) in BlockIter::new(dims).origins.iter().zip(choices) {
            for_block_points(dims, origin, |idx, coords, local| {
                let pred = match coefs {
                    Some(c) => regression_predict(c, local),
                    None => lorenzo_predict(&recon, dims, idx, coords),
                };
                seen.push((idx, pred_bits(pred)));
                recon[idx] = vals[idx];
            });
        }
        seen
    }

    /// Every block of `dims`, in walk order.
    fn blocks(dims: Dims) -> Vec<Block> {
        let mut blocks = Vec::new();
        for_blocks(dims, |b| {
            blocks.push(*b);
            Ok(())
        })
        .expect("infallible");
        blocks
    }

    #[test]
    fn block_plan_matches_the_per_point_walk_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(0x535A_3242);
        for case in 0..300 {
            let dims = random_dims(&mut rng, 14);
            let ndim = dims.ndim();
            let vals: Vec<f32> = (0..dims.len()).map(|_| random_f32(&mut rng)).collect();
            let eb = [1e-6, 1e-2, 1.0, 10.0][rng.gen_range(0..4usize)];
            let stencils = stencils(dims);
            let blocks = blocks(dims);
            let origins: Vec<Vec<usize>> =
                blocks.iter().map(|b| b.origin[..ndim].to_vec()).collect();
            assert_eq!(origins, BlockIter::new(dims).origins, "case {case} {dims}");
            let mut choices = Vec::new();
            for (b, origin) in blocks.iter().zip(&origins) {
                let mut coefs = [0.0f32; MAX_NDIM + 1];
                coefs[..=ndim].fill_with(|| random_f32(&mut rng));
                let ints: Vec<i64> = (0..=ndim).map(|_| rng.gen()).collect();
                let got = predictor_costs(&vals, dims, &stencils, b, &coefs, &ints, eb);
                let want = reference_costs(&vals, dims, origin, &coefs[..=ndim], &ints, eb);
                assert_eq!(
                    (got.0.to_bits(), got.1.to_bits()),
                    (want.0.to_bits(), want.1.to_bits()),
                    "case {case} {dims} block {origin:?}: costs {got:?} vs {want:?}"
                );
                choices.push(rng.gen_bool(0.5).then_some(coefs));
            }
            let mut choice = choices.iter();
            let mut got = Vec::new();
            walk(
                dims,
                &stencils,
                |_| Ok(*choice.next().expect("one choice per block")),
                |idx, pred| {
                    got.push((idx, pred_bits(pred)));
                    vals[idx]
                },
            )
            .expect("infallible");
            assert_eq!(
                got,
                reference_walk(dims, &choices, &vals),
                "case {case} {dims}"
            );
        }
    }

    fn check_roundtrip(field: &Field, eb: f64) -> f64 {
        let c = Sz2;
        let buf = c.compress(field, &ErrorConfig::Abs(eb)).expect("compress");
        let back = c.decompress(&buf).expect("decompress");
        assert_eq!(back.dims(), field.dims());
        let err = field.max_abs_diff(&back);
        assert!(err <= eb, "max error {err} > bound {eb}");
        field.nbytes() as f64 / buf.len() as f64
    }

    #[test]
    fn error_bound_holds_across_magnitudes() {
        let f = gaussian_random_field(Dims::d3(16, 16, 16), GrfConfig::default().with_seed(5));
        for eb in [1e-6, 1e-4, 1e-2, 1e-1, 1.0] {
            check_roundtrip(&f, eb);
        }
    }

    #[test]
    fn regression_fit_recovers_a_plane() {
        let f = Field::from_fn("plane", Dims::d2(12, 12), |c| {
            3.0 + 2.0 * c[0] as f32 - 0.5 * c[1] as f32
        });
        let coefs = fit_regression(f.data(), f.dims(), &blocks(f.dims())[0]);
        assert!((coefs[0] - 3.0).abs() < 1e-4, "{coefs:?}");
        assert!((coefs[1] - 2.0).abs() < 1e-4, "{coefs:?}");
        assert!((coefs[2] + 0.5).abs() < 1e-4, "{coefs:?}");
    }

    #[test]
    fn tracks_sz_on_noisy_gradients() {
        // With closed-loop quantization feedback, Lorenzo smooths pointwise
        // noise away, so the block selector must fall back to Lorenzo and
        // sz2 must never lose noticeably to plain sz.
        let mut state = 12345u64;
        let mut noise = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state as f64 / u64::MAX as f64 - 0.5) as f32
        };
        let f = Field::from_fn("grad", Dims::d3(24, 24, 24), |c| {
            (c[0] as f32) * 2.0 + (c[1] as f32) * 1.0 - (c[2] as f32) * 1.5 + noise() * 0.4
        });
        for eb in [0.05, 0.25] {
            let sz2_cr = check_roundtrip(&f, eb);
            let sz_cr = {
                let sz = crate::sz::Sz;
                let buf = sz.compress(&f, &ErrorConfig::Abs(eb)).expect("compress");
                f.nbytes() as f64 / buf.len() as f64
            };
            // at very high ratios the outputs are ~100 bytes and sz2's
            // per-block mode stream is a visible constant overhead, so the
            // relative check gets an absolute escape hatch: a gap under 64
            // bytes is mode-stream overhead, not a compression regression
            let sz2_bytes = f.nbytes() as f64 / sz2_cr;
            let sz_bytes = f.nbytes() as f64 / sz_cr;
            assert!(
                sz2_cr > sz_cr * 0.75 || sz2_bytes < sz_bytes + 64.0,
                "eb={eb}: sz2 {sz2_cr:.2} fell behind sz {sz_cr:.2}"
            );
        }
    }

    #[test]
    fn beats_plain_sz_on_oscillatory_texture() {
        // A gradient carrying a high-frequency alternation (a wave texture,
        // cf. the paper's Fig 4): the Lorenzo stencil amplifies the
        // alternating component 4x while block regression only pays its raw
        // amplitude — the regime where SZ 2's regression predictor wins.
        let eb = 0.1;
        let amp = 3.0 * eb as f32;
        let f = Field::from_fn("osc", Dims::d3(24, 24, 24), |c| {
            let s = if (c[0] + c[1] + c[2]) % 2 == 0 {
                1.0
            } else {
                -1.0f32
            };
            (c[0] as f32) * 2.0 + (c[1] as f32) * 1.0 + amp * s
        });
        let sz2_cr = check_roundtrip(&f, eb);
        let sz_cr = {
            let sz = crate::sz::Sz;
            let buf = sz.compress(&f, &ErrorConfig::Abs(eb)).expect("compress");
            f.nbytes() as f64 / buf.len() as f64
        };
        assert!(
            sz2_cr > sz_cr,
            "sz2 {sz2_cr:.2} should beat sz {sz_cr:.2} on oscillatory textures"
        );
    }

    #[test]
    fn mode_selection_uses_both_predictors() {
        // half plane (regression-friendly), half smooth curved (Lorenzo)
        let f = Field::from_fn("mix", Dims::d2(24, 24), |c| {
            if c[1] < 12 {
                c[0] as f32 * 3.0 + c[1] as f32
            } else {
                ((c[0] as f32) * 0.6).sin() * ((c[1] as f32) * 0.7).cos() * 10.0
            }
        });
        let eb = 0.05;
        let ndim = f.dims().ndim();
        let stencils = stencils(f.dims());
        let mut reg_blocks = 0;
        let mut lor_blocks = 0;
        for b in &blocks(f.dims()) {
            let fitted = fit_regression(f.data(), f.dims(), b);
            let (ints, coefs) = quantize_coefs(&fitted, eb, ndim);
            let ints = &ints[..=ndim];
            let (r, l) = predictor_costs(f.data(), f.dims(), &stencils, b, &coefs, ints, eb);
            if r < l {
                reg_blocks += 1;
            } else {
                lor_blocks += 1;
            }
        }
        assert!(reg_blocks > 0, "expected some regression blocks");
        assert!(lor_blocks > 0, "expected some lorenzo blocks");
    }

    #[test]
    fn works_in_all_dimensionalities() {
        for dims in [
            Dims::d1(50),
            Dims::d2(13, 17),
            Dims::d3(7, 9, 11),
            Dims::d4(3, 5, 6, 7),
        ] {
            let f = Field::from_fn("wave", dims, |c| {
                (c.iter().sum::<usize>() as f32 * 0.2).sin() + c[0] as f32 * 0.3
            });
            check_roundtrip(&f, 1e-3);
        }
    }

    #[test]
    fn block_points_partition_grid() {
        for dims in [Dims::d2(13, 7), Dims::d3(6, 6, 6), Dims::d1(19)] {
            let row_len = |b: &Block| b.lens[dims.ndim() - 1];
            let mut seen = vec![0u32; dims.len()];
            for b in &blocks(dims) {
                b.rows(dims, |start, _| {
                    for count in &mut seen[start..start + row_len(b)] {
                        *count += 1;
                    }
                });
            }
            assert!(seen.iter().all(|&c| c == 1), "{dims}");
        }
    }

    #[test]
    fn rejects_bad_configs() {
        let f = gaussian_random_field(Dims::d2(16, 16), GrfConfig::default());
        assert!(Sz2.compress(&f, &ErrorConfig::Abs(-1.0)).is_err());
        assert!(Sz2.compress(&f, &ErrorConfig::Precision(8)).is_err());
    }

    #[test]
    fn truncated_stream_never_panics() {
        let f = gaussian_random_field(Dims::d2(16, 16), GrfConfig::default());
        let buf = Sz2.compress(&f, &ErrorConfig::Abs(1e-3)).expect("compress");
        for cut in 0..buf.len() {
            let _ = Sz2.decompress(&buf[..cut]);
        }
    }

    #[test]
    fn spiky_data_survives() {
        let mut f = Field::zeros("spikes", Dims::d2(13, 13));
        f.data_mut()[50] = 4e31;
        f.data_mut()[51] = f32::NAN;
        let buf = Sz2.compress(&f, &ErrorConfig::Abs(1e-5)).expect("compress");
        let back = Sz2.decompress(&buf).expect("decompress");
        for (a, b) in f.data().iter().zip(back.data()) {
            if a.is_finite() {
                assert!(((a - b) as f64).abs() <= 1e-5, "{a} vs {b}");
            }
        }
    }
}
