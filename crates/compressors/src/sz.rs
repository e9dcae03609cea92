//! The SZ-family pipeline, shared by the `sz`, `sz-fse`, `sz2` and `szi`
//! rows (SZ3's split of one predictor over one back end).
//!
//! 1. **Prediction walk** — the only piece a row supplies (a `Walk`):
//!    every value is predicted from already-reconstructed values, in a
//!    fixed order. `sz`/`sz-fse` use the **Lorenzo** corner stencil (the
//!    inclusion–exclusion stencil of Eq. 1–2 of the paper, generalized
//!    here to 1-D..4-D); [`crate::sz2`] and [`crate::szinterp`] bring
//!    their own walks.
//! 2. **Linear-scaling quantization** (`Quantizer`) — the prediction
//!    residual is mapped to an integer code with bin width `2·eb`; codes
//!    outside the `2^16`-bin capacity (or values whose `f32`
//!    reconstruction would violate the bound) are flagged
//!    *unpredictable* and stored verbatim.
//! 3. **Entropy coding** of the code stream — per block, Huffman or
//!    tANS/FSE by estimated bit cost (see [`crate::entropy`]); `sz-fse`
//!    pins it to FSE — then an **LZ77 dictionary stage** (the role Zstd
//!    plays in real SZ) over the whole payload
//!    `eb (8 bytes) | walk side info | entropy section | unpredictables`.
//! 4. **Container** — large fields emit the slabbed v2 container (see
//!    [`crate::slab`]), small ones the monolithic v1 stream.
//!
//! The decompressor replays the walk from reconstructed data, so the
//! absolute error bound holds exactly (see the error-bound tests).
//!
//! [`SzFse`] shares the whole pipeline but pins the entropy stage to
//! FSE — the extra codec row the feature→error-bound regression trains
//! on (the paper's extensibility claim).

use crate::entropy::{self, EntropyMode};
use crate::header::{self, magic};
use crate::{lorenzo, slab, CompressError, ConfigSpace, ErrorConfig};
use fxrz_codec::lz77;
use fxrz_datagen::{Dims, Field};

/// Quantization capacity: codes span `(-HALF, HALF)` around zero.
pub(crate) const HALF: i64 = 1 << 15;
/// Code reserved for unpredictable values.
const UNPREDICTABLE: u32 = 0;

/// The configuration space every SZ-family row accepts.
pub(crate) const SZ_SPACE: ConfigSpace = ConfigSpace::AbsRelRange {
    min_rel: 1e-7,
    max_rel: 2e-1,
};

/// The SZ-style compressor. Stateless; construct via `Sz::default()`.
#[derive(Clone, Copy, Debug, Default)]
pub struct Sz;

/// The SZ pipeline with the entropy stage pinned to tANS/FSE.
///
/// Emits the same self-describing stream family as [`Sz`] (same magic,
/// same container), so [`crate::detect`] resolves its archives to `sz`
/// and either decompressor reads either stream. Registered as its own
/// [`crate::Compressor`] name so the feature→error-bound regression learns it
/// as an additional codec row.
#[derive(Clone, Copy, Debug, Default)]
pub struct SzFse;

/// The absolute bound `name` runs under, or the `BadConfig` error every
/// abs-bounded row reports for any other configuration.
pub(crate) fn abs_eb(name: &str, cfg: &ErrorConfig) -> Result<f64, CompressError> {
    match cfg {
        ErrorConfig::Abs(eb) if *eb > 0.0 && eb.is_finite() => Ok(*eb),
        ErrorConfig::Abs(eb) => Err(CompressError::BadConfig(format!(
            "{name} needs a positive finite error bound, got {eb}"
        ))),
        other => Err(CompressError::BadConfig(format!(
            "{name} accepts ErrorConfig::Abs, got {other}"
        ))),
    }
}

/// Opens a stream whose LZ77 payload leads with the stored error bound:
/// reads the common header, undoes the LZ77 stage and validates the
/// bound. Returns `(field name, dims, payload, eb)`; the bound's 8 bytes
/// stay at the front of the payload.
pub(crate) fn open_payload(
    bytes: &[u8],
    expect_magic: u8,
    name: &'static str,
) -> Result<(String, Dims, Vec<u8>, f64), CompressError> {
    let (field_name, dims, off) = header::read(bytes, expect_magic, name)?;
    let payload = lz77::decompress(&bytes[off..])?;
    let eb_bytes: [u8; 8] = payload
        .get(..8)
        .and_then(|b| b.try_into().ok())
        .ok_or(CompressError::Header("payload too short for error bound"))?;
    let eb = f64::from_le_bytes(eb_bytes);
    if !(eb > 0.0 && eb.is_finite()) {
        return Err(CompressError::Header("invalid stored error bound"));
    }
    Ok((field_name, dims, payload, eb))
}

/// Computes the Lorenzo prediction for the point at `coords` from the
/// reconstruction buffer, treating out-of-grid neighbours as `0.0`.
#[inline]
pub(crate) fn lorenzo_predict(recon: &[f32], dims: Dims, idx: usize, coords: &[usize]) -> f64 {
    let ndim = dims.ndim();
    let strides = dims.strides();
    let mut pred = 0.0f64;
    // Inclusion–exclusion over non-empty subsets of axes.
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
            continue; // missing neighbour contributes 0
        }
        let sign = if mask.count_ones() % 2 == 1 {
            1.0
        } else {
            -1.0
        };
        pred += sign * recon[idx - off] as f64;
    }
    pred
}

/// The encoder's quantize-or-verbatim step and the two streams it fills.
pub(crate) struct Quantizer {
    eb: f64,
    bin: f64,
    codes: Vec<u32>,
    unpred: Vec<u8>,
}

impl Quantizer {
    /// The absolute error bound.
    pub(crate) fn eb(&self) -> f64 {
        self.eb
    }

    /// Quantizes `val` against `pred` and returns the value the decoder
    /// reconstructs. A residual beyond the code capacity, a non-finite
    /// value or a reconstruction that would break the bound stores `val`
    /// verbatim instead; a non-finite prediction yields a non-finite `q`,
    /// which the capacity check rejects.
    #[inline]
    pub(crate) fn quantize(&mut self, val: f32, pred: f64) -> f32 {
        let q = ((val as f64 - pred) / self.bin).round();
        if q.abs() < (HALF - 1) as f64 && val.is_finite() {
            let q = q as i64;
            let rec = (pred + q as f64 * self.bin) as f32;
            if ((rec as f64) - (val as f64)).abs() <= self.eb && rec.is_finite() {
                self.codes.push((q + HALF) as u32);
                return rec;
            }
        }
        self.codes.push(UNPREDICTABLE);
        self.unpred.extend_from_slice(&val.to_le_bytes());
        val
    }
}

/// The decoder's half of [`Quantizer`]: hands out reconstructions in
/// walk order.
pub(crate) struct Dequantizer<'a> {
    eb: f64,
    bin: f64,
    codes: Vec<u32>,
    cursor: usize,
    unpred: &'a [u8],
    /// An unpredictable code found no verbatim value left.
    short: bool,
}

impl Dequantizer<'_> {
    /// The absolute error bound stored in the stream.
    pub(crate) fn eb(&self) -> f64 {
        self.eb
    }

    /// Reconstructs the next point from its prediction. A missing
    /// verbatim value yields `0.0` and is reported by [`Self::status`].
    #[inline]
    pub(crate) fn next_value(&mut self, pred: f64) -> f32 {
        let code = self.codes[self.cursor];
        self.cursor += 1;
        if code != UNPREDICTABLE {
            return (pred + (code as i64 - HALF) as f64 * self.bin) as f32;
        }
        match self.unpred.split_first_chunk::<4>() {
            Some((head, tail)) => {
                self.unpred = tail;
                f32::from_le_bytes(*head)
            }
            None => {
                self.short = true;
                0.0
            }
        }
    }

    /// Fails once an unpredictable code has run out of verbatim values.
    fn status(&self) -> Result<(), CompressError> {
        if self.short {
            return Err(CompressError::Header("missing unpredictable value"));
        }
        Ok(())
    }
}

/// A prediction walk: the one piece an SZ-family row supplies. Both
/// directions visit every point exactly once, in the same order, and
/// predict only from values already reconstructed.
pub(crate) trait Walk {
    /// Header magic of the walk's streams.
    const MAGIC: u8;
    /// Parsed side info (what the walk ships between the stored error
    /// bound and the entropy section).
    type Side: Default;
    /// Feeds every point of `data` through `q`; returns the side info.
    fn encode(data: &[f32], dims: Dims, q: &mut Quantizer) -> Result<Vec<u8>, CompressError>;
    /// Parses the side info at `payload[*pos..]`, advancing `pos`; a walk
    /// without side info reads nothing.
    fn read_side(_payload: &[u8], _pos: &mut usize) -> Result<Self::Side, CompressError> {
        Ok(Self::Side::default())
    }
    /// Replays the walk, taking every reconstruction from `d`.
    fn decode(dims: Dims, side: Self::Side, d: &mut Dequantizer)
        -> Result<Vec<f32>, CompressError>;
}

/// Implements [`crate::Compressor`] for an SZ-family row: its unit struct,
/// registry name, prediction walk and entropy mode.
macro_rules! sz_row {
    ($row:ty, $name:literal, $walk:ty, $mode:expr) => {
        impl $crate::Compressor for $row {
            fn name(&self) -> &'static str {
                $name
            }

            fn compress(
                &self,
                field: &fxrz_datagen::Field,
                cfg: &$crate::ErrorConfig,
            ) -> Result<Vec<u8>, $crate::CompressError> {
                let budget = $crate::slab::SLAB_SYMBOLS;
                $crate::sz::compress::<$walk>($name, $mode, field, cfg, budget)
            }

            fn decompress(
                &self,
                bytes: &[u8],
            ) -> Result<fxrz_datagen::Field, $crate::CompressError> {
                $crate::sz::decompress::<$walk>($name, bytes)
            }

            fn decompress_range(
                &self,
                bytes: &[u8],
                range: core::ops::Range<usize>,
            ) -> Result<Vec<f32>, $crate::CompressError> {
                $crate::sz::decompress_range::<$walk>($name, bytes, range)
            }

            fn config_space(&self) -> $crate::ConfigSpace {
                $crate::sz::SZ_SPACE
            }
        }
    };
}
pub(crate) use sz_row;

sz_row!(Sz, "sz", Sz, EntropyMode::Auto);
sz_row!(SzFse, "sz-fse", Sz, EntropyMode::Fse);

/// The Lorenzo walk of `sz` and `sz-fse`: raster order, every point
/// predicted by the row-plan kernel ([`crate::lorenzo`]), bit for bit
/// what [`lorenzo_predict`] gives.
fn lorenzo_walk(dims: Dims, mut point: impl FnMut(usize, f64) -> f32) -> Vec<f32> {
    let mut recon = vec![0.0f32; dims.len()];
    lorenzo::walk(dims, |idx, stencil| {
        recon[idx] = point(idx, stencil.predict(&recon, idx));
    });
    recon
}

impl Walk for Sz {
    const MAGIC: u8 = magic::SZ;
    type Side = ();

    fn encode(data: &[f32], dims: Dims, q: &mut Quantizer) -> Result<Vec<u8>, CompressError> {
        lorenzo_walk(dims, |idx, pred| q.quantize(data[idx], pred));
        Ok(Vec::new())
    }

    fn decode(dims: Dims, _: (), d: &mut Dequantizer) -> Result<Vec<f32>, CompressError> {
        Ok(lorenzo_walk(dims, |_, pred| d.next_value(pred)))
    }
}

/// Compresses under `budget` symbols per slab: a slab container when
/// the field fills two slabs, else one monolithic stream.
pub(crate) fn compress<W: Walk>(
    name: &'static str,
    mode: EntropyMode,
    field: &Field,
    cfg: &ErrorConfig,
    budget: usize,
) -> Result<Vec<u8>, CompressError> {
    let slabbed = slab::compress_slabbed(W::MAGIC, field, budget, |sub| {
        compress_mono::<W>(name, mode, sub, cfg)
    })?;
    match slabbed {
        Some(out) => Ok(out),
        None => compress_mono::<W>(name, mode, field, cfg),
    }
}

/// Compresses with an explicit slab symbol budget instead of the
/// production [`crate::slab::SLAB_SYMBOLS`]. A budget the field cannot
/// fill twice (e.g. `usize::MAX`) forces a monolithic v1 stream —
/// benches and tests use this to compare container layouts on
/// identical data; production code goes through
/// [`crate::Compressor::compress`].
pub fn compress_with_budget(
    field: &Field,
    cfg: &ErrorConfig,
    budget: usize,
) -> Result<Vec<u8>, CompressError> {
    compress::<Sz>("sz", EntropyMode::Auto, field, cfg, budget)
}

/// One monolithic stream: walk and quantize, entropy-code under `mode`,
/// LZ77. `name` feeds the per-codec telemetry series and error messages.
fn compress_mono<W: Walk>(
    name: &'static str,
    mode: EntropyMode,
    field: &Field,
    cfg: &ErrorConfig,
) -> Result<Vec<u8>, CompressError> {
    crate::instrument::compress(name, field.nbytes(), || {
        let eb = abs_eb(name, cfg)?;
        let dims = field.dims();
        let mut q = Quantizer {
            eb,
            bin: 2.0 * eb,
            codes: Vec::with_capacity(dims.len()),
            unpred: Vec::new(),
        };
        let side = W::encode(field.data(), dims, &mut q)?;

        // payload = eb (8 bytes) | side info | entropy section | unpredictables
        // One scratch borrow covers both codec stages, so rate-curve
        // probe loops reuse the same tables call after call.
        fxrz_codec::with_scratch(|scratch| {
            let mut payload =
                Vec::with_capacity(q.codes.len() / 2 + q.unpred.len() + side.len() + 16);
            payload.extend_from_slice(&eb.to_le_bytes());
            payload.extend_from_slice(&side);
            entropy::encode_codes(scratch, &q.codes, mode, &mut payload);
            payload.extend_from_slice(&q.unpred);

            let mut out = Vec::new();
            header::write(&mut out, W::MAGIC, field.name(), dims);
            out.extend_from_slice(&lz77::compress_with(scratch, &payload));
            Ok(out)
        })
    })
}

/// Decompresses either container: v2 slab containers fan out over the
/// worker pool (bit-identical at any thread count), v1 monolithic
/// streams — including every pre-container archive — decode as one.
pub(crate) fn decompress<W: Walk>(
    name: &'static str,
    bytes: &[u8],
) -> Result<Field, CompressError> {
    let slabbed =
        slab::decompress_slabbed(bytes, W::MAGIC, name, |sub| decompress_mono::<W>(name, sub))?;
    match slabbed {
        Some(field) => Ok(field),
        None => decompress_mono::<W>(name, bytes),
    }
}

/// Random-access decode: touches only the slabs covering `range` (v1
/// streams fall back to full decode).
pub(crate) fn decompress_range<W: Walk>(
    name: &'static str,
    bytes: &[u8],
    range: core::ops::Range<usize>,
) -> Result<Vec<f32>, CompressError> {
    slab::decompress_range_impl(bytes, W::MAGIC, name, range, |sub| {
        decompress_mono::<W>(name, sub)
    })
}

/// One monolithic stream back: both entropy wire formats (legacy
/// single-Huffman and the tagged per-block container) are recognized by
/// the entropy section itself, so every pre-container archive decodes
/// here too.
fn decompress_mono<W: Walk>(name: &'static str, bytes: &[u8]) -> Result<Field, CompressError> {
    crate::instrument::decompress(name, bytes.len(), || {
        let (field_name, dims, payload, eb) = open_payload(bytes, W::MAGIC, name)?;
        let mut pos = 8usize;
        let side = W::read_side(&payload, &mut pos)?;
        let codes = entropy::decode_codes(&payload, &mut pos, dims.len())?;
        let mut d = Dequantizer {
            eb,
            bin: 2.0 * eb,
            codes,
            cursor: 0,
            unpred: &payload[pos..],
            short: false,
        };
        let recon = W::decode(dims, side, &mut d);
        // A verbatim value that ran out before the walk failed is the
        // first fault in the stream.
        d.status()?;
        Ok(Field::new(field_name, dims, recon?))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Compressor;
    use fxrz_datagen::grf::{gaussian_random_field, GrfConfig};

    fn smooth_field() -> Field {
        gaussian_random_field(Dims::d3(16, 16, 16), GrfConfig::default().with_seed(42))
    }

    fn check_roundtrip(field: &Field, eb: f64) -> f64 {
        let sz = Sz;
        let buf = sz.compress(field, &ErrorConfig::Abs(eb)).expect("compress");
        let back = sz.decompress(&buf).expect("decompress");
        assert_eq!(back.dims(), field.dims());
        assert_eq!(back.name(), field.name());
        let err = field.max_abs_diff(&back);
        assert!(err <= eb, "max error {err} > bound {eb}");
        field.nbytes() as f64 / buf.len() as f64
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
    fn smooth_data_compresses_better_than_rough() {
        let smooth = gaussian_random_field(
            Dims::d2(64, 64),
            GrfConfig::default().with_seed(1).with_alpha(4.0),
        );
        let rough = gaussian_random_field(
            Dims::d2(64, 64),
            GrfConfig::default().with_seed(1).with_alpha(0.5),
        );
        let cr_smooth = check_roundtrip(&smooth, 1e-2);
        let cr_rough = check_roundtrip(&rough, 1e-2);
        assert!(cr_smooth > cr_rough, "{cr_smooth} vs {cr_rough}");
    }

    #[test]
    fn constant_field_compresses_enormously() {
        let f = Field::new("const", Dims::d3(32, 32, 32), vec![3.5; 32 * 32 * 32]);
        let cr = check_roundtrip(&f, 1e-3);
        assert!(cr > 500.0, "cr {cr}");
    }

    #[test]
    fn works_in_all_dimensionalities() {
        for dims in [
            Dims::d1(500),
            Dims::d2(30, 40),
            Dims::d3(10, 12, 14),
            Dims::d4(4, 6, 8, 10),
        ] {
            let f = Field::from_fn("wave", dims, |c| {
                (c.iter().sum::<usize>() as f32 * 0.1).sin()
            });
            check_roundtrip(&f, 1e-3);
        }
    }

    #[test]
    fn unpredictable_values_survive() {
        // Spiky data forces the unpredictable path at a tiny bound.
        let mut f = Field::zeros("spikes", Dims::d1(64));
        for (i, v) in f.data_mut().iter_mut().enumerate() {
            *v = if i % 7 == 0 { 1e30 } else { (i as f32).sin() };
        }
        check_roundtrip(&f, 1e-8);
    }

    #[test]
    fn rejects_bad_configs() {
        let f = smooth_field();
        let sz = Sz;
        assert!(sz.compress(&f, &ErrorConfig::Abs(0.0)).is_err());
        assert!(sz.compress(&f, &ErrorConfig::Abs(-1.0)).is_err());
        assert!(sz.compress(&f, &ErrorConfig::Abs(f64::NAN)).is_err());
        assert!(sz.compress(&f, &ErrorConfig::Precision(16)).is_err());
        assert!(sz.compress(&f, &ErrorConfig::Rate(8.0)).is_err());
    }

    #[test]
    fn decompress_rejects_foreign_stream() {
        let f = smooth_field();
        let zfp = crate::zfp::Zfp::default();
        let buf = zfp.compress(&f, &ErrorConfig::Abs(1e-2)).expect("zfp");
        assert!(matches!(
            Sz.decompress(&buf),
            Err(CompressError::WrongCompressor { .. })
        ));
    }

    #[test]
    fn truncated_stream_never_panics() {
        let f = gaussian_random_field(Dims::d2(16, 16), GrfConfig::default());
        let buf = Sz.compress(&f, &ErrorConfig::Abs(1e-3)).expect("compress");
        for cut in 0..buf.len() {
            let _ = Sz.decompress(&buf[..cut]);
        }
    }

    #[test]
    fn lorenzo_prediction_2d_matches_formula() {
        // d[i-1,j] + d[i,j-1] - d[i-1,j-1]
        let dims = Dims::d2(2, 2);
        let recon = vec![1.0f32, 2.0, 3.0, 0.0];
        let pred = lorenzo_predict(&recon, dims, 3, &[1, 1]);
        assert_eq!(pred, 2.0 + 3.0 - 1.0);
    }

    #[test]
    fn lorenzo_prediction_borders_use_zero() {
        let dims = Dims::d2(2, 2);
        let recon = vec![5.0f32, 0.0, 0.0, 0.0];
        assert_eq!(lorenzo_predict(&recon, dims, 0, &[0, 0]), 0.0);
        assert_eq!(lorenzo_predict(&recon, dims, 1, &[0, 1]), 5.0);
        assert_eq!(lorenzo_predict(&recon, dims, 2, &[1, 0]), 5.0);
    }
}
