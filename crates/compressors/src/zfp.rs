//! ZFP-style transform-based error-bounded compressor.
//!
//! Follows the published ZFP algorithm (Lindstrom, TVCG 2014):
//!
//! 1. Partition the field into `4^d` blocks (`d ≤ 3`; 4-D fields are
//!    treated as a stack of 3-D volumes along their slowest axis).
//! 2. Per block: align values to the block-wide maximum exponent and
//!    convert to 64-bit fixed point.
//! 3. Apply the ZFP non-orthogonal decorrelating lifting transform along
//!    each axis, reorder coefficients by total sequency, and map to
//!    *negabinary* so sign information spreads across bit planes.
//! 4. Encode bit planes MSB-first with ZFP's group-testing scheme
//!    (embedded coding): in **fixed-accuracy** mode, planes below the
//!    tolerance-derived cut-off are dropped; in **fixed-rate** mode each
//!    block gets an exact bit budget.
//!
//! The stairwise compression-ratio-vs-error-bound curve that the FXRZ
//! paper highlights (Fig 2) emerges directly from the per-plane cut-off.

use crate::header::{self, magic};
use crate::slab::{self, Window};
use crate::{CompressError, Compressor, ConfigSpace, ErrorConfig};
use fxrz_codec::bitstream::{BitReader, BitWriter};
use fxrz_datagen::{Dims, Field};

/// Fixed-point fraction bits: inputs are scaled to `|q| < 2^(FRAC - 1)`.
const FRAC: i32 = 40;
/// Bit planes coded per block (fixed-point width + transform growth).
const INTPREC: i32 = 48;
/// Extra tolerance head-room (planes) absorbing negabinary truncation and
/// inverse-transform error amplification; keeps the reconstruction strictly
/// within the bound (empirically ≥ 5 planes are needed in 3-D).
const GUARD: i32 = 5;
/// Negabinary mask.
const NBMASK: u64 = 0xAAAA_AAAA_AAAA_AAAA;

/// Operating mode of the ZFP-style compressor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Mode {
    /// Error-bounded (`ErrorConfig::Abs`).
    Accuracy,
    /// Constant bits-per-value (`ErrorConfig::Rate`).
    Rate,
}

/// The ZFP-style compressor (fixed-accuracy by default).
#[derive(Clone, Copy, Debug)]
pub struct Zfp {
    mode: Mode,
}

impl Default for Zfp {
    fn default() -> Self {
        Self {
            mode: Mode::Accuracy,
        }
    }
}

impl Zfp {
    /// Fixed-accuracy (error-bounded) mode — the paper's default.
    pub fn fixed_accuracy() -> Self {
        Self {
            mode: Mode::Accuracy,
        }
    }

    /// Fixed-rate mode: `compress` then expects [`ErrorConfig::Rate`].
    /// This is the only native fixed-ratio mode among the four
    /// compressors, and pays for it with a visibly worse rate/distortion
    /// trade-off (reproduced in the `zfp_modes` ablation bench).
    pub fn fixed_rate() -> Self {
        Self { mode: Mode::Rate }
    }
}

#[inline]
fn int2uint(x: i64) -> u64 {
    ((x as u64).wrapping_add(NBMASK)) ^ NBMASK
}

#[inline]
fn uint2int(x: u64) -> i64 {
    ((x ^ NBMASK).wrapping_sub(NBMASK)) as i64
}

/// ZFP forward lifting on a strided 4-vector.
#[inline]
fn fwd_lift(p: &mut [i64], base: usize, s: usize) {
    let (mut x, mut y, mut z, mut w) = (p[base], p[base + s], p[base + 2 * s], p[base + 3 * s]);
    x = x.wrapping_add(w);
    x >>= 1;
    w = w.wrapping_sub(x);
    z = z.wrapping_add(y);
    z >>= 1;
    y = y.wrapping_sub(z);
    x = x.wrapping_add(z);
    x >>= 1;
    z = z.wrapping_sub(x);
    w = w.wrapping_add(y);
    w >>= 1;
    y = y.wrapping_sub(w);
    w = w.wrapping_add(y >> 1);
    y = y.wrapping_sub(w >> 1);
    p[base] = x;
    p[base + s] = y;
    p[base + 2 * s] = z;
    p[base + 3 * s] = w;
}

/// ZFP inverse lifting on a strided 4-vector.
#[inline]
fn inv_lift(p: &mut [i64], base: usize, s: usize) {
    let (mut x, mut y, mut z, mut w) = (p[base], p[base + s], p[base + 2 * s], p[base + 3 * s]);
    y = y.wrapping_add(w >> 1);
    w = w.wrapping_sub(y >> 1);
    y = y.wrapping_add(w);
    w <<= 1;
    w = w.wrapping_sub(y);
    z = z.wrapping_add(x);
    x <<= 1;
    x = x.wrapping_sub(z);
    y = y.wrapping_add(z);
    z <<= 1;
    z = z.wrapping_sub(y);
    w = w.wrapping_add(x);
    x <<= 1;
    x = x.wrapping_sub(w);
    p[base] = x;
    p[base + s] = y;
    p[base + 2 * s] = z;
    p[base + 3 * s] = w;
}

/// Applies the forward transform to a `4^d` block (row-major, x fastest).
fn fwd_xform(block: &mut [i64], d: usize) {
    match d {
        1 => fwd_lift(block, 0, 1),
        2 => {
            for y in 0..4 {
                fwd_lift(block, 4 * y, 1);
            }
            for x in 0..4 {
                fwd_lift(block, x, 4);
            }
        }
        3 => {
            for z in 0..4 {
                for y in 0..4 {
                    fwd_lift(block, 16 * z + 4 * y, 1);
                }
            }
            for z in 0..4 {
                for x in 0..4 {
                    fwd_lift(block, 16 * z + x, 4);
                }
            }
            for y in 0..4 {
                for x in 0..4 {
                    fwd_lift(block, 4 * y + x, 16);
                }
            }
        }
        _ => unreachable!("block dim 1..=3"),
    }
}

/// Applies the inverse transform (reverse axis order).
fn inv_xform(block: &mut [i64], d: usize) {
    match d {
        1 => inv_lift(block, 0, 1),
        2 => {
            for x in 0..4 {
                inv_lift(block, x, 4);
            }
            for y in 0..4 {
                inv_lift(block, 4 * y, 1);
            }
        }
        3 => {
            for y in 0..4 {
                for x in 0..4 {
                    inv_lift(block, 4 * y + x, 16);
                }
            }
            for z in 0..4 {
                for x in 0..4 {
                    inv_lift(block, 16 * z + x, 4);
                }
            }
            for z in 0..4 {
                for y in 0..4 {
                    inv_lift(block, 16 * z + 4 * y, 1);
                }
            }
        }
        _ => unreachable!("block dim 1..=3"),
    }
}

/// Total-sequency permutation: coefficient order sorted by the sum of
/// per-axis frequencies (matching ZFP's PERM tables).
fn sequency_perm(d: usize) -> Vec<usize> {
    let size = 1usize << (2 * d);
    let mut idx: Vec<usize> = (0..size).collect();
    let degree = |i: usize| -> usize {
        let mut s = 0;
        let mut v = i;
        for _ in 0..d {
            s += v & 3;
            v >>= 2;
        }
        s
    };
    idx.sort_by_key(|&i| (degree(i), i));
    idx
}

/// Encodes the negabinary coefficients of one block, bit plane by bit
/// plane with group testing (ZFP's embedded coding), spending at most
/// `budget` bits. Returns the bits actually written.
///
/// `n` — the count of coefficients already known significant — persists
/// across planes: their bits are sent verbatim (step 2) while the remainder
/// of each plane is unary run-length coded (step 3). The bit at the last
/// position is implicit: a group-test `1` with only one position left
/// already pins it.
fn encode_ints(w: &mut BitWriter, data: &[u64], kmin: i32, mut budget: u64) -> u64 {
    let size = data.len();
    let start = budget;
    let mut n = 0usize;
    let mut k = INTPREC;
    while k > kmin && budget > 0 {
        k -= 1;
        // step 1: gather bit plane k (coefficient i -> bit i)
        let mut x = 0u64;
        for (i, &v) in data.iter().enumerate() {
            x |= ((v >> k) & 1) << i;
        }
        // step 2: first n known-significant bits verbatim
        let m = (n as u64).min(budget);
        budget -= m;
        w.write_bits(x, m as u32);
        x = x.checked_shr(m as u32).unwrap_or(0);
        // step 3: unary run-length encode the remainder
        while n < size && budget > 0 {
            budget -= 1;
            let any = x != 0;
            w.write_bit(any);
            if !any {
                break;
            }
            // zero run up to the next 1 (which is written too, unless it
            // sits at the final position where it is implicit)
            loop {
                if n == size - 1 || budget == 0 {
                    break;
                }
                budget -= 1;
                let bit = x & 1 == 1;
                w.write_bit(bit);
                if bit {
                    break;
                }
                x >>= 1;
                n += 1;
            }
            // consume the significant position itself
            x >>= 1;
            n += 1;
        }
    }
    start - budget
}

/// Decodes one block's coefficients; consumes at most `budget` bits and
/// returns the bits actually read. Exact mirror of [`encode_ints`].
fn decode_ints(
    r: &mut BitReader<'_>,
    data: &mut [u64],
    kmin: i32,
    mut budget: u64,
) -> Result<u64, CompressError> {
    let size = data.len();
    let start = budget;
    let mut n = 0usize;
    let mut k = INTPREC;
    data.iter_mut().for_each(|v| *v = 0);
    let trunc = || CompressError::Header("zfp payload truncated");
    while k > kmin && budget > 0 {
        k -= 1;
        // step 2 (mirror): first n known-significant bits verbatim
        let m = (n as u64).min(budget);
        budget -= m;
        let mut x = r.read_bits(m as u32).ok_or_else(trunc)?;
        // step 3 (mirror): unary run-length decode the remainder
        while n < size && budget > 0 {
            budget -= 1;
            let any = r.read_bit().ok_or_else(trunc)?;
            if !any {
                break;
            }
            loop {
                if n == size - 1 || budget == 0 {
                    break;
                }
                budget -= 1;
                let bit = r.read_bit().ok_or_else(trunc)?;
                if bit {
                    break;
                }
                n += 1;
            }
            // the significant position itself (explicit 1, implicit at the
            // last slot, or assumed on budget exhaustion — matching encode)
            x |= 1 << n;
            n += 1;
        }
        // deposit plane: one step per set bit
        while x != 0 {
            data[x.trailing_zeros() as usize] |= 1 << k;
            x &= x - 1;
        }
    }
    Ok(start - budget)
}

/// Splits a field into outer slices × block grid over the last
/// `min(ndim, 3)` axes. Returns `(outer_count, block_dims, block_axes)`.
struct BlockLayout {
    /// number of outer (non-blocked) slices
    outer: usize,
    /// lengths of the blocked axes (1..=3 of them, slowest first)
    axes: Vec<usize>,
    /// strides of the blocked axes within the full field
    strides: Vec<usize>,
    /// stride between consecutive outer slices
    outer_stride: usize,
    /// block dimensionality
    d: usize,
}

#[allow(clippy::needless_range_loop)] // coordinate kernels index several arrays in lockstep
fn layout(dims: Dims) -> BlockLayout {
    let ndim = dims.ndim();
    let d = ndim.min(3);
    let all_strides = dims.strides();
    let first_block_axis = ndim - d;
    let axes: Vec<usize> = (first_block_axis..ndim).map(|a| dims.axis(a)).collect();
    let strides: Vec<usize> = (first_block_axis..ndim).map(|a| all_strides[a]).collect();
    let outer: usize = (0..first_block_axis).map(|a| dims.axis(a)).product();
    let outer_stride: usize = axes.iter().product();
    BlockLayout {
        outer,
        axes,
        strides,
        outer_stride,
        d,
    }
}

/// Blocks along each blocked axis; entries past the last one stay 1.
fn blocks_per_axis(axes: &[usize]) -> [usize; 3] {
    let mut counts = [1; 3];
    for (c, &len) in counts.iter_mut().zip(axes) {
        *c = len.div_ceil(4);
    }
    counts
}

/// Block origins over the blocked axes, first axis slowest, computed as
/// they are visited rather than collected.
fn block_origins(axes: &[usize]) -> impl Iterator<Item = [usize; 3]> + '_ {
    let counts = blocks_per_axis(axes);
    (0..counts.iter().product::<usize>()).map(move |mut i| {
        let mut origin = [0; 3];
        for a in (0..axes.len()).rev() {
            origin[a] = i % counts[a] * 4;
            i /= counts[a];
        }
        origin
    })
}

/// Gathers one `4^d` block (edge-clamped padding) into `out`.
#[allow(clippy::needless_range_loop)] // local index decodes into strided offsets
fn gather(
    data: &[f32],
    base: usize,
    origin: &[usize],
    axes: &[usize],
    strides: &[usize],
    out: &mut [f64],
) {
    let d = axes.len();
    let size = 1usize << (2 * d);
    for local in 0..size {
        let mut off = 0usize;
        let mut l = local;
        // local index: x fastest — decode per axis from fastest to slowest
        for a in (0..d).rev() {
            let c = l & 3;
            l >>= 2;
            let pos = (origin[a] + c).min(axes[a] - 1);
            off += pos * strides[a];
        }
        let v = data[base + off] as f64;
        // Non-finite samples would poison the block-wide exponent and zero
        // the whole block (corrupting finite neighbours); ZFP does not
        // preserve NaN/Inf, so clamp them to 0 and keep the bound for the
        // rest of the block.
        out[local] = if v.is_finite() { v } else { 0.0 };
    }
}

/// Scatters a reconstructed block back, skipping padded lanes.
#[allow(clippy::needless_range_loop)] // local index decodes into strided offsets
fn scatter(
    data: &mut [f32],
    base: usize,
    origin: &[usize],
    axes: &[usize],
    strides: &[usize],
    block: &[f64],
) {
    let d = axes.len();
    let size = 1usize << (2 * d);
    for local in 0..size {
        let mut off = 0usize;
        let mut l = local;
        let mut in_grid = true;
        for a in (0..d).rev() {
            let c = l & 3;
            l >>= 2;
            let pos = origin[a] + c;
            if pos >= axes[a] {
                in_grid = false;
                break;
            }
            off += pos * strides[a];
        }
        if in_grid {
            data[base + off] = block[local] as f32;
        }
    }
}

impl Zfp {
    fn encode_block(
        &self,
        w: &mut BitWriter,
        vals: &[f64],
        d: usize,
        perm: &[usize],
        kmin_for: impl Fn(i32) -> i32,
        budget: Option<u64>,
    ) {
        let size = vals.len();
        let max_abs = vals.iter().fold(0.0f64, |m, &v| m.max(v.abs()));
        let header_bits = 1 + 12;
        if max_abs == 0.0 || !max_abs.is_finite() {
            w.write_bit(false);
            if let Some(b) = budget {
                // fixed rate: pad the remaining budget
                for _ in 0..b.saturating_sub(1) {
                    w.write_bit(false);
                }
            }
            return;
        }
        w.write_bit(true);
        let emax = max_abs.log2().floor() as i32;
        debug_assert!((-2048..2048).contains(&emax));
        w.write_bits((emax + 2048) as u64, 12);

        let s = FRAC - 1 - emax; // scale exponent
        let scale = (s as f64).exp2();
        let mut block: Vec<i64> = vals.iter().map(|&v| (v * scale).round() as i64).collect();
        fwd_xform(&mut block, d);
        let coeffs: Vec<u64> = perm.iter().map(|&i| int2uint(block[i])).collect();

        let kmin = kmin_for(s).clamp(0, INTPREC);
        let bit_budget = budget
            .map(|b| b.saturating_sub(header_bits))
            .unwrap_or(u64::MAX);
        let used = encode_ints(w, &coeffs, kmin, bit_budget);
        if let Some(b) = budget {
            let total = header_bits + used;
            for _ in 0..b.saturating_sub(total) {
                w.write_bit(false);
            }
        }
        let _ = size;
    }

    fn decode_block(
        &self,
        r: &mut BitReader<'_>,
        d: usize,
        perm: &[usize],
        kmin_for: impl Fn(i32) -> i32,
        budget: Option<u64>,
        out: &mut [f64],
    ) -> Result<(), CompressError> {
        let size = out.len();
        let header_bits: u64 = 1 + 12;
        let nonzero = r
            .read_bit()
            .ok_or(CompressError::Header("zfp block header truncated"))?;
        if !nonzero {
            out.iter_mut().for_each(|v| *v = 0.0);
            if let Some(b) = budget {
                for _ in 0..b.saturating_sub(1) {
                    r.read_bit()
                        .ok_or(CompressError::Header("zfp padding truncated"))?;
                }
            }
            return Ok(());
        }
        let emax = r
            .read_bits(12)
            .ok_or(CompressError::Header("zfp emax truncated"))? as i32
            - 2048;
        let s = FRAC - 1 - emax;
        let kmin = kmin_for(s).clamp(0, INTPREC);
        let bit_budget = budget
            .map(|b| b.saturating_sub(header_bits))
            .unwrap_or(u64::MAX);
        let mut coeffs = vec![0u64; size];
        let used = decode_ints(r, &mut coeffs, kmin, bit_budget)?;
        if let Some(b) = budget {
            let total = header_bits + used;
            for _ in 0..b.saturating_sub(total) {
                r.read_bit()
                    .ok_or(CompressError::Header("zfp padding truncated"))?;
            }
        }
        let mut block = vec![0i64; size];
        for (slot, &i) in perm.iter().enumerate() {
            block[i] = uint2int(coeffs[slot]);
        }
        inv_xform(&mut block, d);
        let inv_scale = (-(s as f64)).exp2();
        for (o, &q) in out.iter_mut().zip(&block) {
            *o = q as f64 * inv_scale;
        }
        Ok(())
    }

    /// One monolithic stream: header, mode byte and knob, then every
    /// block's bit planes.
    fn compress_mono(&self, field: &Field, cfg: &ErrorConfig) -> Result<Vec<u8>, CompressError> {
        crate::instrument::compress(self.name(), field.nbytes(), || {
            enum Knob {
                Acc(f64),
                Rate(u64),
            }
            let lay = layout(field.dims());
            let size = 1usize << (2 * lay.d);
            let knob = match (self.mode, cfg) {
                (Mode::Accuracy, ErrorConfig::Abs(eb)) if *eb > 0.0 && eb.is_finite() => {
                    Knob::Acc(*eb)
                }
                (Mode::Rate, ErrorConfig::Rate(r)) if *r > 0.0 && r.is_finite() => {
                    let bits = (r * size as f64).round().max(16.0) as u64;
                    Knob::Rate(bits)
                }
                (m, other) => {
                    return Err(CompressError::BadConfig(format!(
                        "zfp mode {m:?} got incompatible config {other}"
                    )))
                }
            };

            let perm = sequency_perm(lay.d);
            let mut w = BitWriter::with_capacity(field.nbytes() / 8);
            let mut vals = vec![0.0f64; size];

            // Mode byte + (for accuracy) tolerance exponent live in the header.
            let mut out = Vec::new();
            header::write(&mut out, magic::ZFP, field.name(), field.dims());
            match &knob {
                Knob::Acc(eb) => {
                    out.push(0);
                    out.extend_from_slice(&eb.to_le_bytes());
                }
                Knob::Rate(bits) => {
                    out.push(1);
                    out.extend_from_slice(&bits.to_le_bytes());
                }
            }

            for outer in 0..lay.outer {
                let base = outer * lay.outer_stride;
                for origin in block_origins(&lay.axes) {
                    gather(
                        field.data(),
                        base,
                        &origin,
                        &lay.axes,
                        &lay.strides,
                        &mut vals,
                    );
                    match knob {
                        Knob::Acc(eb) => {
                            // plane weight 2^(k - s) must stay ≤ eb / 2^GUARD
                            let e_tol = eb.log2().floor() as i32;
                            self.encode_block(
                                &mut w,
                                &vals,
                                lay.d,
                                &perm,
                                |s| e_tol + s - GUARD,
                                None,
                            );
                        }
                        Knob::Rate(bits) => {
                            self.encode_block(&mut w, &vals, lay.d, &perm, |_| 0, Some(bits));
                        }
                    }
                }
            }
            out.extend_from_slice(&w.into_bytes());
            Ok(out)
        })
    }

    /// Decodes one monolithic stream whole: zfp's blocks have no access
    /// points, so a window is the whole stream.
    fn decode_whole(&self, bytes: &[u8]) -> Result<Window, CompressError> {
        crate::instrument::decompress(self.name(), bytes.len(), Window::nbytes, || {
            let (name, dims, off) = header::read(bytes, magic::ZFP, "zfp")?;
            let rest = &bytes[off..];
            if rest.len() < 9 {
                return Err(CompressError::Header("zfp mode header truncated"));
            }
            let mode_byte = rest[0];
            let knob_bytes: [u8; 8] = rest[1..9].try_into().expect("slice of checked length");
            let payload = &rest[9..];

            let lay = layout(dims);
            // Every block costs its flag bit, or in fixed-rate mode its
            // whole budget, so a block count the payload cannot hold is
            // rejected before the output is sized from the header.
            let blocks =
                lay.outer as u64 * blocks_per_axis(&lay.axes).iter().product::<usize>() as u64;
            let min_bits = match mode_byte {
                1 => u64::from_le_bytes(knob_bytes).max(1),
                _ => 1,
            };
            if blocks.saturating_mul(min_bits) > 8 * payload.len() as u64 {
                return Err(CompressError::Header(
                    "zfp block count exceeds what the payload can encode",
                ));
            }
            let size = 1usize << (2 * lay.d);
            let perm = sequency_perm(lay.d);
            let mut r = BitReader::new(payload);
            let mut data = vec![0.0f32; dims.len()];
            let mut block = vec![0.0f64; size];

            match mode_byte {
                0 => {
                    let eb = f64::from_le_bytes(knob_bytes);
                    if !(eb > 0.0 && eb.is_finite()) {
                        return Err(CompressError::Header("invalid stored tolerance"));
                    }
                    let e_tol = eb.log2().floor() as i32;
                    for outer in 0..lay.outer {
                        let base = outer * lay.outer_stride;
                        for origin in block_origins(&lay.axes) {
                            self.decode_block(
                                &mut r,
                                lay.d,
                                &perm,
                                |s| e_tol + s - GUARD,
                                None,
                                &mut block,
                            )?;
                            scatter(&mut data, base, &origin, &lay.axes, &lay.strides, &block);
                        }
                    }
                }
                1 => {
                    let bits = u64::from_le_bytes(knob_bytes);
                    for outer in 0..lay.outer {
                        let base = outer * lay.outer_stride;
                        for origin in block_origins(&lay.axes) {
                            self.decode_block(&mut r, lay.d, &perm, |_| 0, Some(bits), &mut block)?;
                            scatter(&mut data, base, &origin, &lay.axes, &lay.strides, &block);
                        }
                    }
                }
                _ => return Err(CompressError::Header("unknown zfp mode byte")),
            }
            Ok(Window::whole(name, dims, data))
        })
    }
}

impl Compressor for Zfp {
    fn name(&self) -> &'static str {
        match self.mode {
            Mode::Accuracy => "zfp",
            Mode::Rate => "zfp-rate",
        }
    }

    fn compress(&self, field: &Field, cfg: &ErrorConfig) -> Result<Vec<u8>, CompressError> {
        slab::compress(magic::ZFP, field, slab::SLAB_SYMBOLS, |sub| {
            self.compress_mono(sub, cfg)
        })
    }

    fn decompress(&self, bytes: &[u8]) -> Result<Field, CompressError> {
        slab::decompress(bytes, magic::ZFP, self.name(), |sub, _| {
            self.decode_whole(sub)
        })
    }

    fn decompress_range(
        &self,
        bytes: &[u8],
        range: core::ops::Range<usize>,
    ) -> Result<Vec<f32>, CompressError> {
        slab::decompress_range_impl(bytes, magic::ZFP, self.name(), range, |sub, _| {
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

#[cfg(test)]
mod tests {
    use super::*;
    use fxrz_datagen::grf::{gaussian_random_field, GrfConfig};

    fn smooth_field() -> Field {
        gaussian_random_field(Dims::d3(16, 16, 16), GrfConfig::default().with_seed(7))
    }

    fn check_roundtrip(field: &Field, eb: f64) -> f64 {
        let zfp = Zfp::default();
        let buf = zfp
            .compress(field, &ErrorConfig::Abs(eb))
            .expect("compress");
        let back = zfp.decompress(&buf).expect("decompress");
        assert_eq!(back.dims(), field.dims());
        let err = field.max_abs_diff(&back);
        assert!(err <= eb, "max error {err} > bound {eb}");
        field.nbytes() as f64 / buf.len() as f64
    }

    #[test]
    fn lift_near_roundtrip() {
        // ZFP's integer lifting drops LSBs in the `>>1` steps, so the
        // inverse recovers values only up to a few fixed-point ULPs —
        // which the FRAC head-room absorbs.
        let mut p = [123_000i64, -456_000, 789_000, -1_011_000];
        let orig = p;
        fwd_lift(&mut p, 0, 1);
        inv_lift(&mut p, 0, 1);
        for (a, b) in p.iter().zip(&orig) {
            assert!((a - b).abs() <= 4, "{p:?} vs {orig:?}");
        }
    }

    #[test]
    fn xform_near_roundtrip_all_dims() {
        for d in 1..=3usize {
            let size = 1usize << (2 * d);
            let mut block: Vec<i64> = (0..size as i64)
                .map(|i| (i * i - 37 * i + 11) * 1000)
                .collect();
            let orig = block.clone();
            fwd_xform(&mut block, d);
            inv_xform(&mut block, d);
            for (a, b) in block.iter().zip(&orig) {
                assert!((a - b).abs() <= 32, "d={d}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn negabinary_roundtrip() {
        for v in [-5i64, -1, 0, 1, 7, i64::MAX / 4, i64::MIN / 4] {
            assert_eq!(uint2int(int2uint(v)), v);
        }
    }

    #[test]
    fn sequency_perm_starts_at_dc() {
        for d in 1..=3usize {
            let p = sequency_perm(d);
            assert_eq!(p[0], 0, "DC first for d={d}");
            assert_eq!(p.len(), 1 << (2 * d));
            let mut sorted = p.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..1 << (2 * d)).collect::<Vec<_>>());
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
        assert!(loose > tight * 1.5, "tight {tight}, loose {loose}");
    }

    #[test]
    fn ratio_is_stairwise_in_error_bound() {
        // Consecutive nearby bounds frequently share a plane cut-off, so
        // many ratios repeat exactly — the signature ZFP staircase.
        let f = smooth_field();
        let zfp = Zfp::default();
        let mut ratios = Vec::new();
        for i in 0..12 {
            let eb = 1e-3 * 1.3f64.powi(i);
            ratios.push(zfp.ratio(&f, &ErrorConfig::Abs(eb)).expect("ratio"));
        }
        let repeats = ratios
            .windows(2)
            .filter(|w| (w[0] - w[1]).abs() < 1e-9)
            .count();
        assert!(repeats >= 2, "expected staircase, ratios {ratios:?}");
    }

    #[test]
    fn works_in_all_dimensionalities() {
        for dims in [
            Dims::d1(77),
            Dims::d2(19, 33),
            Dims::d3(9, 13, 17),
            Dims::d4(3, 9, 13, 17),
        ] {
            let f = Field::from_fn("wave", dims, |c| {
                (c.iter().sum::<usize>() as f32 * 0.17).sin()
            });
            check_roundtrip(&f, 1e-3);
        }
    }

    #[test]
    fn constant_field_compresses_enormously() {
        let f = Field::new("const", Dims::d3(32, 32, 32), vec![0.0; 32 * 32 * 32]);
        let cr = check_roundtrip(&f, 1e-3);
        assert!(cr > 100.0, "cr {cr}");
    }

    #[test]
    fn fixed_rate_hits_requested_size() {
        let f = smooth_field();
        let zfp = Zfp::fixed_rate();
        for rate in [2.0, 4.0, 8.0] {
            let buf = zfp
                .compress(&f, &ErrorConfig::Rate(rate))
                .expect("compress");
            let payload_bits = (buf.len() as f64) * 8.0;
            let expected_bits = rate * f.len() as f64;
            // header + byte padding overhead only
            assert!(
                payload_bits < expected_bits * 1.15 + 512.0,
                "rate {rate}: {payload_bits} vs {expected_bits}"
            );
            let back = zfp.decompress(&buf).expect("decompress");
            assert_eq!(back.dims(), f.dims());
        }
    }

    #[test]
    fn fixed_rate_quality_improves_with_rate() {
        let f = smooth_field();
        let zfp = Zfp::fixed_rate();
        let err = |rate: f64| {
            let buf = zfp.compress(&f, &ErrorConfig::Rate(rate)).expect("c");
            f.max_abs_diff(&zfp.decompress(&buf).expect("d"))
        };
        assert!(err(16.0) < err(4.0));
    }

    #[test]
    fn rejects_bad_configs() {
        let f = smooth_field();
        assert!(Zfp::default()
            .compress(&f, &ErrorConfig::Rate(8.0))
            .is_err());
        assert!(Zfp::fixed_rate()
            .compress(&f, &ErrorConfig::Abs(1e-3))
            .is_err());
        assert!(Zfp::default().compress(&f, &ErrorConfig::Abs(0.0)).is_err());
    }

    #[test]
    fn truncated_stream_never_panics() {
        let f = gaussian_random_field(Dims::d2(16, 16), GrfConfig::default());
        let buf = Zfp::default()
            .compress(&f, &ErrorConfig::Abs(1e-3))
            .expect("compress");
        for cut in (0..buf.len()).step_by(7) {
            let _ = Zfp::default().decompress(&buf[..cut]);
        }
    }

    #[test]
    fn non_finite_values_do_not_corrupt_neighbours() {
        // One Inf/NaN must not zero out the finite values in its block.
        let mut f = Field::from_fn("inf", Dims::d2(8, 8), |c| (c[0] + c[1]) as f32 + 1.0);
        f.data_mut()[9] = f32::INFINITY;
        f.data_mut()[10] = f32::NAN;
        let eb = 1e-2;
        let buf = Zfp::default()
            .compress(&f, &ErrorConfig::Abs(eb))
            .expect("compress");
        let back = Zfp::default().decompress(&buf).expect("decompress");
        for (i, (&a, &b)) in f.data().iter().zip(back.data()).enumerate() {
            if a.is_finite() {
                assert!(
                    ((a - b) as f64).abs() <= eb,
                    "finite neighbour {i} corrupted: {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn encode_decode_ints_roundtrip() {
        let data: Vec<u64> = (0..16u64)
            .map(|i| i.wrapping_mul(0x9E3779B9) >> 24)
            .collect();
        let mut w = BitWriter::new();
        encode_ints(&mut w, &data, 0, u64::MAX);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        let mut out = vec![0u64; 16];
        decode_ints(&mut r, &mut out, 0, u64::MAX).expect("decode");
        assert_eq!(out, data);
    }

    #[test]
    fn encode_decode_ints_with_plane_cutoff() {
        let data: Vec<u64> = (0..16u64).map(|i| (i * 37 + 11) << 3).collect();
        let kmin = 5;
        let mut w = BitWriter::new();
        encode_ints(&mut w, &data, kmin, u64::MAX);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        let mut out = vec![0u64; 16];
        decode_ints(&mut r, &mut out, kmin, u64::MAX).expect("decode");
        for (a, b) in data.iter().zip(&out) {
            assert_eq!(a >> kmin, b >> kmin, "planes above kmin must match");
            assert_eq!(b & ((1 << kmin) - 1), 0, "planes below kmin must be zero");
        }
    }
}
