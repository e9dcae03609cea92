//! FPZIP-style predictive lossy compressor with a *precision* control.
//!
//! Follows the FPZIP design (Lindstrom & Isenburg, TVCG 2006):
//!
//! 1. Map each `f32` to a sign-magnitude **monotone integer** (order
//!    preserving), and — this is the lossy step — keep only the top
//!    `precision` bits (2..=32). Reconstruction returns the midpoint of the
//!    truncation interval, so relative error shrinks as `2^-precision`.
//! 2. Predict each truncated integer with the Lorenzo predictor over
//!    causal neighbours.
//! 3. Entropy-code each signed residual by its *class*, the bit length of
//!    `|residual|` (0–36): the class is coded with FSE in one of 16
//!    context streams, and the sign and the class − 1 bits below the
//!    implicit top bit go raw.
//!
//! Unlike SZ/ZFP/MGARD the control knob is a *discrete integer*, which is
//! exactly why the FXRZ framework treats configuration spaces generically
//! ([`crate::ConfigSpace::Precision`]).
//!
//! ## Layouts
//!
//! A monolithic stream is the common [`header`], a precision byte and a
//! payload; the byte's top bit tells the two layouts apart:
//!
//! ```text
//! v1: precision (2..=32)  | adaptive range coder: class bit-tree, sign, direct bits
//! v2: 0x80 | precision    | 16 × { varint(len) | entropy section } | raw bits
//! ```
//!
//! - **Contexts.** In raster order, each residual's class goes to context
//!   stream `min(⌈(west + north) / 2⌉, 15)`: `west` is the class of the
//!   point before it (0 before the first point), `north` the class one row
//!   back along the fastest axis (`west` on the field's first row). The
//!   selection stands in for the range coder's adaptation: a field whose
//!   class mix drifts along rows and planes codes each regime in its own
//!   stream.
//! - **Sections.** Each context stream is an [`entropy::encode_codes`]
//!   section after its varint length; length 0 is a context that codes
//!   nothing. The sections' symbol counts add up to the header's element
//!   count, which the decoder checks before it sizes anything.
//! - **Raw bits.** For each nonzero residual in raster order, one field of
//!   `class` bits, LSB-first: the sign (1: negative), then the class − 1
//!   bits of `|residual|` below its top bit. The last byte is zero-padded,
//!   and the stream ends there.
//!
//! The encoder writes v2. Both layouts rebuild the same truncated integers,
//! so a v1 stream and a v2 stream of a field at one precision decode to the
//! same values. No v1 precision byte and no slab tag ([`slab::SLAB_TAG`])
//! has the top bit set.

use crate::entropy::{self, CodeStream};
use crate::header::{self, magic};
use crate::slab::{self, Window};
use crate::{lorenzo, CompressError, Compressor, ConfigSpace, ErrorConfig};
use fxrz_codec::bitstream::{read_varint, write_varint};
use fxrz_codec::range::{BitModel, BitTree, RangeDecoder, MAX_DECISIONS_PER_BYTE};
use fxrz_datagen::{Dims, Field};

/// Minimum accepted precision. A v1 stream stores it as a byte equal to
/// [`slab::SLAB_TAG`]; the range-coded body after it tells the two apart
/// (see [`slab::table`]).
pub const MIN_PRECISION: u32 = 2;
/// Maximum precision (full 32-bit mapping; near-lossless).
pub const MAX_PRECISION: u32 = 32;

/// The precision byte's mark of the v2 layout.
const V2: u8 = 0x80;

/// The largest residual class a v2 decoder accepts: a residual of a
/// 32-bit integer against a Lorenzo sum of at most 15 of them is below
/// 2^36 in magnitude.
const MAX_CLASS: u32 = 36;

/// Context streams of the v2 layout.
const CONTEXTS: usize = 16;

/// The largest FSE table log of a context stream. A decode reads all
/// the contexts' tables at once; at 2^12 states (32 KiB) each they stay
/// in cache, which skewed streams (RTM's), coded at up to 2^16 by cost
/// alone, lose for a few bytes in 10,000.
const CONTEXT_LOG: u32 = 12;

/// The FPZIP-style compressor. Stateless; construct via `Fpzip::default()`.
#[derive(Clone, Copy, Debug, Default)]
pub struct Fpzip;

/// Order-preserving map from `f32` bits to `u32`:
/// negative floats map below positive ones, monotonically.
#[inline]
fn f32_to_monotone(v: f32) -> u32 {
    let b = v.to_bits();
    if b & 0x8000_0000 != 0 {
        !b
    } else {
        b | 0x8000_0000
    }
}

/// Inverse of [`f32_to_monotone`].
#[inline]
fn monotone_to_f32(m: u32) -> f32 {
    let b = if m & 0x8000_0000 != 0 {
        m & 0x7FFF_FFFF
    } else {
        !m
    };
    f32::from_bits(b)
}

/// Truncates a monotone integer to `prec` significant bits (fills the
/// dropped bits with the interval midpoint on reconstruction).
#[inline]
fn truncate(m: u32, prec: u32) -> u32 {
    m >> (32 - prec)
}

/// Reconstructs a monotone integer from its truncated form.
#[inline]
fn reconstruct(t: u32, prec: u32) -> u32 {
    let shifted = t << (32 - prec);
    if prec < 32 {
        shifted | (1 << (31 - prec)) // midpoint of the truncation interval
    } else {
        shifted
    }
}

/// The context stream of a class whose west and north neighbours have
/// classes `west` and `north`.
#[inline(always)]
fn context(west: u32, north: u32) -> usize {
    ((west + north + 1) >> 1).min(CONTEXTS as u32 - 1) as usize
}

/// Width of the v1 residual magnitude class: classes 0..=33 are the bit
/// length of `|residual|` (0 = zero residual). Every value costs these
/// many range-coder decisions at least.
const CLASS_BITS: u32 = 6;

/// The v1 residual models: magnitude-class bit-tree + direct payload
/// bits + sign.
struct ResidualCoder {
    class_tree: BitTree,
    sign: BitModel,
}

impl ResidualCoder {
    fn new() -> Self {
        Self {
            class_tree: BitTree::new(CLASS_BITS),
            sign: BitModel::new(),
        }
    }

    fn decode(&mut self, dec: &mut RangeDecoder<'_>) -> i64 {
        let class = self.class_tree.decode(dec);
        if class == 0 {
            return 0;
        }
        let neg = dec.decode_bit(&mut self.sign);
        let mut mag = 1u64 << (class - 1);
        if class > 1 {
            mag |= dec.decode_direct(class - 1);
        }
        if neg {
            -(mag as i64)
        } else {
            mag as i64
        }
    }
}

/// The raw bits of the v2 layout, as they are written: whole bytes out,
/// fewer than 8 bits pending.
struct RawBits {
    bytes: Vec<u8>,
    acc: u64,
    pending: u32,
}

impl RawBits {
    /// Appends residual `r` of class `class`: nothing for 0, else its
    /// sign then its bits below the top one.
    #[inline(always)]
    fn push(&mut self, r: i64, class: u32) {
        let below_top = ((1u64 << class) >> 1).wrapping_sub(1);
        let field = (r.unsigned_abs() & below_top) << 1 | u64::from(r < 0);
        self.acc |= field << self.pending;
        self.pending += class;
        let whole = (self.pending / 8) as usize;
        let len = self.bytes.len();
        self.bytes.extend_from_slice(&self.acc.to_le_bytes());
        self.bytes.truncate(len + whole);
        self.acc >>= 8 * whole;
        self.pending %= 8;
    }

    fn into_bytes(mut self) -> Vec<u8> {
        if self.pending > 0 {
            self.bytes.push(self.acc as u8);
        }
        self.bytes
    }
}

impl Compressor for Fpzip {
    fn name(&self) -> &'static str {
        "fpzip"
    }

    fn compress(&self, field: &Field, cfg: &ErrorConfig) -> Result<Vec<u8>, CompressError> {
        slab::compress(magic::FPZIP, field, slab::SLAB_SYMBOLS, |sub| {
            self.compress_mono(sub, cfg)
        })
    }

    fn decompress(&self, bytes: &[u8]) -> Result<Field, CompressError> {
        slab::decompress(bytes, magic::FPZIP, self.name(), |sub, _| {
            self.decode_whole(sub)
        })
    }

    fn decompress_range(
        &self,
        bytes: &[u8],
        range: core::ops::Range<usize>,
    ) -> Result<Vec<f32>, CompressError> {
        slab::decompress_range_impl(bytes, magic::FPZIP, self.name(), range, |sub, _| {
            self.decode_whole(sub)
        })
    }

    fn config_space(&self) -> ConfigSpace {
        ConfigSpace::Precision { min: 4, max: 28 }
    }
}

impl Fpzip {
    /// One monolithic v2 stream: header, marked precision byte, context
    /// sections, raw bits.
    fn compress_mono(&self, field: &Field, cfg: &ErrorConfig) -> Result<Vec<u8>, CompressError> {
        crate::instrument::compress(self.name(), field.nbytes(), || {
            let prec = match cfg {
                ErrorConfig::Precision(p) if (MIN_PRECISION..=MAX_PRECISION).contains(p) => *p,
                ErrorConfig::Precision(p) => {
                    return Err(CompressError::BadConfig(format!(
                        "fpzip precision must be in {MIN_PRECISION}..={MAX_PRECISION}, got {p}"
                    )))
                }
                other => {
                    return Err(CompressError::BadConfig(format!(
                        "fpzip accepts ErrorConfig::Precision, got {other}"
                    )))
                }
            };

            let dims = field.dims();
            let trunc: Vec<u32> = field
                .data()
                .iter()
                .map(|&v| truncate(f32_to_monotone(v), prec))
                .collect();
            let mut streams: [Vec<u32>; CONTEXTS] = Default::default();
            // The raw bits land well under the raw size; a quarter of the
            // input avoids every regrowth on typical fields.
            let mut raw = RawBits {
                bytes: Vec::with_capacity(field.nbytes() / 4 + 8),
                acc: 0,
                pending: 0,
            };
            let mut north = vec![0u32; dims.axis(dims.ndim() - 1)];
            let mut west = 0u32;
            lorenzo::residuals(dims, &trunc, |start, row| {
                for (n, &r) in north.iter_mut().zip(row) {
                    let class = 64 - r.unsigned_abs().leading_zeros();
                    let above = if start == 0 { west } else { *n };
                    streams[context(west, above)].push(class);
                    raw.push(r, class);
                    *n = class;
                    west = class;
                }
            });

            let mut out = Vec::new();
            header::write(&mut out, magic::FPZIP, field.name(), dims);
            out.push(V2 | prec as u8);
            let mut section = Vec::new();
            fxrz_codec::with_scratch(|scratch| {
                for codes in &streams {
                    section.clear();
                    if !codes.is_empty() {
                        entropy::encode_codes_capped(scratch, codes, CONTEXT_LOG, &mut section);
                    }
                    write_varint(&mut out, section.len() as u64);
                    out.extend_from_slice(&section);
                }
            });
            out.extend_from_slice(&raw.into_bytes());
            Ok(out)
        })
    }

    /// Decodes one monolithic stream whole, either layout: a window is
    /// the whole stream. A decoded value outside the stored precision's
    /// range, which no encoder writes, is an error.
    fn decode_whole(&self, bytes: &[u8]) -> Result<Window, CompressError> {
        crate::instrument::decompress(self.name(), bytes.len(), Window::nbytes, || {
            let (name, dims, off) = header::read(bytes, magic::FPZIP, "fpzip")?;
            let rest = &bytes[off..];
            let &prec_byte = rest
                .first()
                .ok_or(CompressError::Header("missing precision"))?;
            let prec = u32::from(prec_byte & !V2);
            if !(MIN_PRECISION..=MAX_PRECISION).contains(&prec) {
                return Err(CompressError::Header("stored precision out of range"));
            }
            let max_t = u32::MAX >> (32 - prec);
            let trunc = if prec_byte & V2 != 0 {
                decode_v2(dims, &rest[1..], max_t)?
            } else {
                decode_v1(dims, &rest[1..], max_t)?
            };
            // The same allocation, each truncated integer turned into
            // its value.
            let data = trunc
                .into_iter()
                .map(|t| monotone_to_f32(reconstruct(t, prec)))
                .collect();
            Ok(Window::whole(name, dims, data))
        })
    }
}

/// The error of a decoded integer above `max_t`, the stored precision's
/// largest, which no encoder writes.
const OUTSIDE: &str = "decoded value outside the stored precision";

/// `row`'s integers into `out`, or [`OUTSIDE`] when one is not in
/// `0..=max_t`.
fn store(row: &[i64], out: &mut [u32], max_t: u32) -> Result<(), CompressError> {
    if row.iter().any(|&t| t as u64 > u64::from(max_t)) {
        return Err(CompressError::Header(OUTSIDE));
    }
    for (o, &t) in out.iter_mut().zip(row) {
        *o = t as u32;
    }
    Ok(())
}

/// The truncated integers of a v1 payload: one adaptive range coder over
/// every residual, rebuilt row by row as [`decode_v2`]'s are.
fn decode_v1(dims: Dims, coded: &[u8], max_t: u32) -> Result<Vec<u32>, CompressError> {
    let decisions = dims.len().saturating_mul(CLASS_BITS as usize);
    if decisions > MAX_DECISIONS_PER_BYTE.saturating_mul(coded.len()) {
        return Err(CompressError::Header(
            "element count exceeds what the payload can encode",
        ));
    }
    let mut dec = RangeDecoder::new(coded).map_err(CompressError::Decode)?;
    let mut coder = ResidualCoder::new();
    let mut trunc = vec![0u32; dims.len()];
    let fill = |_, row: &mut [i64]| {
        for r in row {
            *r = coder.decode(&mut dec);
        }
        Ok(())
    };
    lorenzo::rebuild(dims, &mut trunc, fill, |row, out| store(row, out, max_t))?;
    dec.finish().map_err(CompressError::Decode)?;
    Ok(trunc)
}

/// The truncated integers of a v2 payload. Each row's residuals come
/// out in one pass, its classes from the context streams and its fields
/// from the raw bits, and [`lorenzo::rebuild`] turns them into values.
/// The sections' counts are checked against the element count before
/// anything is sized from it.
fn decode_v2(dims: Dims, coded: &[u8], max_t: u32) -> Result<Vec<u32>, CompressError> {
    let mut pos = 0usize;
    let mut total = 0usize;
    let mut streams = Vec::with_capacity(CONTEXTS);
    for _ in 0..CONTEXTS {
        let len = read_varint(coded, &mut pos)
            .ok_or(CompressError::Header("missing context section length"))?;
        let end = usize::try_from(len)
            .ok()
            .and_then(|len| pos.checked_add(len))
            .filter(|&end| end <= coded.len())
            .ok_or(CompressError::Header("context section overruns payload"))?;
        let section = &coded[pos..end];
        pos = end;
        if section.is_empty() {
            streams.push(None);
            continue;
        }
        // A tagged-block section: the 0 sentinel, then its count.
        let mut at = 0;
        if read_varint(section, &mut at) != Some(0) {
            return Err(CompressError::Header("context section is not tagged-block"));
        }
        let count = read_varint(section, &mut at)
            .and_then(|c| usize::try_from(c).ok())
            .ok_or(CompressError::Header("missing context symbol count"))?;
        total = total.saturating_add(count);
        let mut at = 0;
        let stream = CodeStream::open(section, &mut at, count, count)?;
        if at != section.len() {
            return Err(CompressError::Header("trailing bytes in a context section"));
        }
        streams.push(Some(stream));
    }
    if total != dims.len() {
        return Err(CompressError::Header(
            "context counts do not add up to the element count",
        ));
    }
    let mut contexts = Contexts {
        streams,
        buf: [[0; BUFFERED]; CONTEXTS],
        at: [0; CONTEXTS],
        end: [0; CONTEXTS],
        wide: [0; BUFFERED],
        fault: None,
    };
    let raw = RawReader::new(&coded[pos..]);
    let mut bit = 0usize;
    let row_len = dims.axis(dims.ndim() - 1);
    let mut classes = vec![0u8; row_len];
    let mut west = 0u8;
    let mut trunc = vec![0u32; dims.len()];
    let fill = |start, row: &mut [i64]| {
        if start == 0 {
            contexts.row::<true>(&mut classes, &mut west, &raw, &mut bit, row);
        } else {
            contexts.row::<false>(&mut classes, &mut west, &raw, &mut bit, row);
        }
        if let Some(e) = contexts.fault.take() {
            return Err(e);
        }
        if bit > raw.bits {
            return Err(CompressError::Header("raw bits run out"));
        }
        Ok(())
    };
    lorenzo::rebuild(dims, &mut trunc, fill, |row, out| store(row, out, max_t))?;
    contexts.finish()?;
    if bit.div_ceil(8) != raw.len {
        return Err(CompressError::Header("trailing raw bits"));
    }
    Ok(trunc)
}

/// Classes a context buffers at once.
const BUFFERED: usize = 256;

/// The v2 context streams, each read through a small buffer: the streams
/// are independent, so each decodes a run of classes ahead, and a class
/// costs the context selection and one buffered read.
struct Contexts<'a> {
    /// Each context's stream; `None` for an empty section or after a
    /// fault.
    streams: Vec<Option<CodeStream<'a>>>,
    /// Each context's buffered classes, its next one and its end.
    buf: [[u8; BUFFERED]; CONTEXTS],
    at: [usize; CONTEXTS],
    end: [usize; CONTEXTS],
    /// Where a refill decodes before narrowing.
    wide: [u32; BUFFERED],
    /// The first fault; its refill buffered zeros.
    fault: Option<CompressError>,
}

impl Contexts<'_> {
    /// The residuals of one row into `row`: each point's class, chosen
    /// from the context of its west and north neighbours, replaces
    /// `north`'s (the row before's), and its raw field from bit `*bit`
    /// on, which it advances. `west` carries the last class across rows;
    /// `FIRST` is the field's first row, whose north is west. The class
    /// chain is the loop's only dependency from point to point, so the
    /// raw reads run alongside it.
    #[inline(always)]
    fn row<const FIRST: bool>(
        &mut self,
        north: &mut [u8],
        west: &mut u8,
        raw: &RawReader,
        bit: &mut usize,
        row: &mut [i64],
    ) {
        let mut w = u32::from(*west);
        let mut at = *bit;
        for (n, r) in north.iter_mut().zip(row) {
            let above = if FIRST { w } else { u32::from(*n) };
            let ctx = context(w, above);
            if self.at[ctx] == self.end[ctx] {
                self.refill(ctx);
            }
            // `at < end <= BUFFERED`: the modulo only spares the check.
            let class = self.buf[ctx][self.at[ctx] % BUFFERED];
            self.at[ctx] += 1;
            *n = class;
            w = u32::from(class);
            *r = raw.residual(&mut at, w);
        }
        *west = w as u8;
        *bit = at;
    }

    /// Buffers the next classes of context `ctx`; on a fault (its stream
    /// ran out, or failed), records it and buffers zeros.
    #[cold]
    #[inline(never)]
    fn refill(&mut self, ctx: usize) {
        let got = match &mut self.streams[ctx] {
            Some(stream) => {
                let want = stream.left().min(BUFFERED);
                let got = stream.fill(&mut self.wide[..want]);
                if got < want {
                    let failed = self.streams[ctx].take().map(|s| s.finish(false));
                    self.fault.get_or_insert(match failed {
                        Some(Err(e)) => e,
                        _ => CompressError::Header("context stream failed"),
                    });
                }
                got
            }
            None => 0,
        };
        let wide = &self.wide[..got];
        if got == 0 {
            self.fault
                .get_or_insert(CompressError::Header("a context stream runs out"));
        } else if wide.iter().any(|&c| c > MAX_CLASS) {
            self.fault
                .get_or_insert(CompressError::Header("residual class above 36"));
        }
        let buf = &mut self.buf[ctx];
        if self.fault.is_some() {
            buf.fill(0);
            self.end[ctx] = BUFFERED;
        } else {
            for (b, &c) in buf.iter_mut().zip(wide) {
                *b = c as u8;
            }
            self.end[ctx] = got;
        }
        self.at[ctx] = 0;
    }

    /// Ends a decode that took every class: each context's buffer spent,
    /// and each stream's checks.
    fn finish(self) -> Result<(), CompressError> {
        if let Some(e) = self.fault {
            return Err(e);
        }
        for (stream, (at, end)) in self.streams.into_iter().zip(self.at.iter().zip(self.end)) {
            if *at != end || stream.as_ref().is_some_and(|s| s.left() != 0) {
                return Err(CompressError::Header("a context stream has classes left"));
            }
            if let Some(stream) = stream {
                stream.finish(true)?;
            }
        }
        Ok(())
    }
}

/// The raw bits of a v2 payload, zero-padded so that every field in
/// them is read from one 8-byte window.
struct RawReader {
    padded: Vec<u8>,
    /// The payload's bytes, and its bits.
    len: usize,
    bits: usize,
}

impl RawReader {
    fn new(raw: &[u8]) -> Self {
        let mut padded = Vec::with_capacity(raw.len() + 8);
        padded.extend_from_slice(raw);
        padded.extend_from_slice(&[0; 8]);
        Self {
            padded,
            len: raw.len(),
            bits: raw.len() * 8,
        }
    }

    /// The residual of class `class` whose raw field starts at bit
    /// `*at`, which it advances. A field past the payload reads as
    /// zeros; the caller checks where the bits end.
    #[inline(always)]
    fn residual(&self, at: &mut usize, class: u32) -> i64 {
        let byte = *at >> 3;
        let window = self.padded.get(byte..byte + 8).map_or(0, |w| {
            u64::from_le_bytes(w.try_into().expect("an 8-byte window"))
        });
        let field = (window >> (*at & 7)) & ((1u64 << class) - 1);
        *at += class as usize;
        let mag = (1u64 << class) >> 1 | field >> 1;
        let neg = (field & 1).wrapping_neg();
        ((mag ^ neg).wrapping_sub(neg)) as i64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fxrz_codec::range::RangeEncoder;
    use fxrz_datagen::grf::{gaussian_random_field, GrfConfig};
    use fxrz_datagen::Dims;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn smooth_field() -> Field {
        gaussian_random_field(Dims::d3(16, 16, 16), GrfConfig::default().with_seed(11))
    }

    impl ResidualCoder {
        /// The v1 writer's residual: its class, then the sign and the
        /// bits below the implicit top one.
        fn encode(&mut self, enc: &mut RangeEncoder, r: i64) {
            let mag = r.unsigned_abs();
            let class = 64 - mag.leading_zeros(); // 0 for r == 0
            self.class_tree.encode(enc, class);
            if class > 0 {
                enc.encode_bit(&mut self.sign, r < 0);
                if class > 1 {
                    enc.encode_direct(mag & ((1 << (class - 1)) - 1), class - 1);
                }
            }
        }
    }

    /// The v1 writer, kept as the reference the v2 layout must decode
    /// the same as: one adaptive range coder over the walk's residuals.
    fn compress_v1(field: &Field, prec: u32) -> Vec<u8> {
        let dims = field.dims();
        let data = field.data();
        let mut enc = RangeEncoder::new();
        let mut coder = ResidualCoder::new();
        let mut trunc = vec![0i64; dims.len()];
        lorenzo::walk(
            dims,
            lorenzo::PlaneFlags::NONE,
            dims.len(),
            &mut trunc,
            &mut |idx, pred: i64| {
                let t = truncate(f32_to_monotone(data[idx]), prec) as i64;
                coder.encode(&mut enc, t.wrapping_sub(pred));
                t
            },
        );
        let mut out = Vec::new();
        header::write(&mut out, magic::FPZIP, field.name(), dims);
        out.push(prec as u8);
        out.extend_from_slice(&enc.finish());
        out
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Seeded fields: 1-D to 4-D noise and waves, one element, a
    /// constant, and values mixed with NaN, ±Inf and ±0.
    fn seeded_fields() -> Vec<Field> {
        let mut rng = StdRng::seed_from_u64(0xF9_217);
        let mut out = vec![
            Field::new("one", Dims::d1(1), vec![3.25]),
            Field::new("constant", Dims::d3(4, 5, 6), vec![-7.5; 120]),
            Field::from_fn("wave", Dims::d4(3, 4, 5, 6), |c| {
                (c.iter().sum::<usize>() as f32 * 0.3).sin() * 100.0
            }),
        ];
        for shape in [&[300][..], &[17, 23], &[7, 11, 13], &[3, 5, 7, 9]] {
            let dims = Dims::new(shape);
            let data = (0..dims.len())
                .map(|i| match rng.gen_range(0..8) {
                    0 => [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0, 0.0][i % 5],
                    1 => f32::from_bits(rng.gen()),
                    _ => (i as f32 * 0.01).cos() * 1e3 + rng.gen_range(-1.0f32..1.0),
                })
                .collect();
            out.push(Field::new("mixed", dims, data));
        }
        out
    }

    #[test]
    fn v1_and_v2_streams_decode_to_the_same_bits() {
        for field in seeded_fields() {
            for prec in MIN_PRECISION..=MAX_PRECISION {
                let v2 = Fpzip
                    .compress(&field, &ErrorConfig::Precision(prec))
                    .expect("compress");
                let (_, _, off) = header::read(&v2, magic::FPZIP, "fpzip").expect("header");
                assert_eq!(v2[off], V2 | prec as u8);
                let v1 = compress_v1(&field, prec);
                let a = Fpzip.decompress(&v1).expect("v1 decode");
                let b = Fpzip.decompress(&v2).expect("v2 decode");
                let dims = field.dims();
                assert_eq!(a.dims(), dims);
                assert_eq!(b.dims(), dims);
                assert_eq!(bits(a.data()), bits(b.data()), "{dims} at {prec}");
            }
        }
    }

    /// At precision 2 a v1 stream's precision byte equals the slab tag;
    /// its range-coded body starts with 0, which no slab count does, so
    /// it decodes as a monolithic stream on both read paths.
    #[test]
    fn v1_precision_2_streams_are_monolithic() {
        let field = smooth_field();
        let v1 = compress_v1(&field, 2);
        let (_, _, off) = header::read(&v1, magic::FPZIP, "fpzip").expect("header");
        assert_eq!(v1[off..off + 2], [slab::SLAB_TAG, 0]);
        assert!(slab::table(&v1, magic::FPZIP, "fpzip")
            .expect("header")
            .is_none());
        let whole = Fpzip.decompress(&v1).expect("decode");
        let v2 = Fpzip
            .compress(&field, &ErrorConfig::Precision(2))
            .expect("c");
        assert_eq!(
            bits(whole.data()),
            bits(Fpzip.decompress(&v2).expect("d").data())
        );
        let part = Fpzip.decompress_range(&v1, 100..900).expect("range");
        assert_eq!(bits(&part), bits(&whole.data()[100..900]));
    }

    #[test]
    fn residual_coder_roundtrip() {
        let residuals: Vec<i64> = vec![
            0,
            1,
            -1,
            2,
            -2,
            100,
            -100,
            65535,
            -65536,
            (1 << 31),
            -(1 << 31),
            0,
            0,
            0,
        ];
        let mut enc = RangeEncoder::new();
        let mut c = ResidualCoder::new();
        for &r in &residuals {
            c.encode(&mut enc, r);
        }
        let buf = enc.finish();
        let mut dec = RangeDecoder::new(&buf).expect("init");
        let mut c = ResidualCoder::new();
        for &r in &residuals {
            assert_eq!(c.decode(&mut dec), r);
        }
    }

    #[test]
    fn monotone_map_is_monotone() {
        let vals = [
            -1e30f32, -5.0, -1.0, -1e-20, 0.0, 1e-20, 0.5, 1.0, 7.5, 1e30,
        ];
        for w in vals.windows(2) {
            assert!(
                f32_to_monotone(w[0]) < f32_to_monotone(w[1]),
                "{} vs {}",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn monotone_map_roundtrips() {
        for v in [-123.456f32, -0.0, 0.0, 1.0, f32::MIN_POSITIVE, 3.4e38] {
            assert_eq!(monotone_to_f32(f32_to_monotone(v)).to_bits(), v.to_bits());
        }
    }

    #[test]
    fn truncation_error_shrinks_with_precision() {
        let f = smooth_field();
        let fp = Fpzip;
        let err = |p: u32| {
            let buf = fp.compress(&f, &ErrorConfig::Precision(p)).expect("c");
            f.max_abs_diff(&fp.decompress(&buf).expect("d"))
        };
        let e8 = err(8);
        let e16 = err(16);
        let e24 = err(24);
        assert!(e16 < e8, "{e16} !< {e8}");
        assert!(e24 < e16, "{e24} !< {e16}");
    }

    #[test]
    fn ratio_drops_with_precision() {
        let f = smooth_field();
        let fp = Fpzip;
        let r8 = fp.ratio(&f, &ErrorConfig::Precision(8)).expect("r");
        let r24 = fp.ratio(&f, &ErrorConfig::Precision(24)).expect("r");
        assert!(r8 > r24 * 1.5, "{r8} vs {r24}");
    }

    #[test]
    fn near_lossless_at_full_precision() {
        let f = smooth_field();
        let fp = Fpzip;
        let buf = fp.compress(&f, &ErrorConfig::Precision(32)).expect("c");
        let back = fp.decompress(&buf).expect("d");
        assert_eq!(back.data(), f.data(), "precision 32 must be lossless");
    }

    #[test]
    fn works_in_all_dimensionalities() {
        let fp = Fpzip;
        for dims in [
            Dims::d1(300),
            Dims::d2(17, 23),
            Dims::d3(7, 11, 13),
            Dims::d4(3, 5, 7, 9),
        ] {
            let f = Field::from_fn("wave", dims, |c| {
                (c.iter().sum::<usize>() as f32 * 0.2).cos()
            });
            let buf = fp.compress(&f, &ErrorConfig::Precision(16)).expect("c");
            let back = fp.decompress(&buf).expect("d");
            assert_eq!(back.dims(), dims);
            // 16 retained bits cover sign+exponent(8)+7 mantissa bits:
            // relative error ~2^-8
            for (a, b) in f.data().iter().zip(back.data()) {
                assert!((a - b).abs() <= a.abs() * 0.01 + 1e-6, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn rejects_bad_configs() {
        let f = smooth_field();
        let fp = Fpzip;
        assert!(fp.compress(&f, &ErrorConfig::Precision(0)).is_err());
        assert!(fp.compress(&f, &ErrorConfig::Precision(33)).is_err());
        assert!(fp.compress(&f, &ErrorConfig::Abs(1e-3)).is_err());
    }

    #[test]
    fn truncated_stream_is_an_error() {
        let f = gaussian_random_field(Dims::d2(8, 8), GrfConfig::default());
        for buf in [
            Fpzip.compress(&f, &ErrorConfig::Precision(12)).expect("c"),
            compress_v1(&f, 12),
        ] {
            for cut in 0..buf.len() {
                assert!(Fpzip.decompress(&buf[..cut]).is_err(), "cut {cut} decoded");
            }
        }
    }

    #[test]
    fn values_outside_the_stored_precision_are_an_error() {
        // A precision-16 stream of either layout relabelled as
        // precision 2 decodes to values no 2-bit encoder writes.
        let f = smooth_field();
        let v2 = Fpzip.compress(&f, &ErrorConfig::Precision(16)).expect("c");
        for (mut buf, label) in [(v2, V2 | 2), (compress_v1(&f, 16), 2)] {
            let (_, _, off) = header::read(&buf, magic::FPZIP, "fpzip").expect("header");
            buf[off] = label;
            let got = Fpzip.decompress(&buf);
            assert!(
                matches!(got, Err(CompressError::Header(OUTSIDE))),
                "{got:?}"
            );
        }
    }
}
