//! The SZ-family pipeline, shared by the `sz`, `sz-fse`, `sz2` and `szi`
//! rows (SZ3's split of one predictor over one back end; `sz-fse` is a
//! second name for `sz`).
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
//! 3. **Entropy coding** of the code stream — tANS/FSE per 2^18-code
//!    block (see [`crate::entropy`]) — then an **LZ77 dictionary stage**
//!    (the role Zstd plays in real SZ) over the whole payload
//!    `eb (8 bytes) | walk side info | entropy section | unpredictables`.
//!    A 3-D or 4-D `sz`/`sz-fse` stream with planes the per-plane Lorenzo
//!    choice flagged adds the flags and an access index (the layout of
//!    `PLANES_MARK`; see [`crate::slab`]'s module docs).
//! 4. **Container** — large fields emit the slabbed v2 container (see
//!    [`crate::slab`]), small ones the monolithic v1 stream.
//!
//! The decompressor replays the walk from reconstructed data, so the
//! absolute error bound holds exactly (see the error-bound tests). It
//! never holds the codes of the points it rebuilds: the walk pulls each
//! point's code from the entropy section's [`CodeStream`] through the
//! `Dequantizer` as it reaches the point. The Lorenzo walk of
//! `sz`/`sz-fse` pulls each code 64 points ahead of its use, inside
//! the row kernel's loop, so the FSE state chain and the Lorenzo chain
//! overlap, and a range decode starts it at the last indexed plane at or
//! before the range.
//!
//! [`SzFse`] is the same pipeline under a second registry name: its
//! streams are byte for byte `sz`'s. It stays a row because the
//! feature→error-bound regression trains it as one (the paper's
//! extensibility claim) and its stream frames carry a tag of their own.

use crate::entropy::{self, CodeStream, Run};
use crate::header::{self, magic};
use crate::lorenzo::{self, PlaneFlags, Visit};
use crate::{names, slab, CompressError, ConfigSpace, ErrorConfig};
use core::ops::Range;
use fxrz_codec::bitstream::{read_varint, write_varint};
use fxrz_codec::{fse, lz77};
use fxrz_datagen::{Dims, Field};
use fxrz_telemetry::{Counter, Resolved};
use std::sync::Arc;

/// Quantization capacity: codes span `(-HALF, HALF)` around zero.
pub(crate) const HALF: i64 = 1 << 15;
/// Code reserved for unpredictable values.
const UNPREDICTABLE: u32 = 0;

// Every code a `Quantizer` writes lies in {0} ∪ [2, 2·HALF − 2], so no
// entropy block holds more distinct codes than FSE can code, and the
// entropy stage never has a block FSE refuses.
const _: () = assert!((2 * HALF - 1) as usize <= fse::MAX_SYMBOLS);

/// The configuration space every SZ-family row accepts.
pub(crate) const SZ_SPACE: ConfigSpace = ConfigSpace::AbsRelRange {
    min_rel: 1e-7,
    max_rel: 2e-1,
};

/// The SZ-style compressor. Stateless; construct via `Sz::default()`.
#[derive(Clone, Copy, Debug, Default)]
pub struct Sz;

/// The SZ pipeline under a second name: its streams are [`Sz`]'s, byte
/// for byte.
///
/// [`crate::detect`] resolves its archives to `sz`, and either
/// decompressor reads either stream. Registered as its own
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
/// reconstruction buffer, treating out-of-grid neighbours as `0.0`: the
/// per-point reference the row plans of [`crate::lorenzo`] are checked
/// against.
#[cfg(test)]
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
        let q = round_half_away((val as f64 - pred) / self.bin);
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

/// `x.round()` (half-way cases away from zero) computed inline: the
/// release build otherwise calls libm's `round` out of line, on the
/// encode walk's dependency chain. Below 2^51 in magnitude, adding and
/// subtracting `1.5 · 2^52` rounds to the nearest integer with ties to
/// even, exactly; a tie (`x` half-way, which the exact `x − r` shows)
/// goes to `x ± 0.5` instead, away from zero. From 2^51 to 2^52 a value
/// is an integer or half-way, which its truncation shows. The sign of a
/// zero result comes from `x`; NaN, ±Inf and |x| ≥ 2^52 (already
/// integers) come back unchanged, as from `round`.
#[inline(always)]
fn round_half_away(x: f64) -> f64 {
    const EVEN: f64 = 1.5 * (1u64 << 52) as f64;
    let a = x.abs();
    if a < (1u64 << 51) as f64 {
        let r = (x + EVEN) - EVEN;
        if (x - r).abs() == 0.5 {
            x + 0.5f64.copysign(x)
        } else {
            r.copysign(x)
        }
    } else if a < (1u64 << 52) as f64 && x != (x as i64) as f64 {
        x + 0.5f64.copysign(x)
    } else {
        x
    }
}

/// The decoder's half of [`Quantizer`]: hands out reconstructions in
/// walk order, pulling each point's code from the entropy section's
/// [`CodeStream`] as the walk reaches it, never holding the codes of the
/// whole prefix.
pub(crate) struct Dequantizer<'a> {
    eb: f64,
    bin: f64,
    codes: CodeStream<'a>,
    /// Codes [`Self::next_value`] pulled ahead, and the next one's index.
    ahead: [u32; AHEAD],
    ahead_at: usize,
    ahead_len: usize,
    unpred: &'a [u8],
    /// An unpredictable code found no verbatim value left.
    short: bool,
}

/// How many codes [`Dequantizer::next_value`] pulls from the stream at a
/// time.
const AHEAD: usize = 256;

impl Dequantizer<'_> {
    /// The absolute error bound stored in the stream.
    pub(crate) fn eb(&self) -> f64 {
        self.eb
    }

    /// Reconstructs the next point from its prediction, with the next
    /// code of the stream.
    #[inline]
    pub(crate) fn next_value(&mut self, pred: f64) -> f32 {
        if self.ahead_at == self.ahead_len {
            self.pull_ahead();
        }
        let code = self.ahead[self.ahead_at % AHEAD];
        self.ahead_at += 1;
        dequantize(code, pred, self.bin, &mut self.unpred, &mut self.short)
    }

    /// Pulls the next [`AHEAD`] codes, or what is left of them. Past the
    /// stop, or at a fault, the codes are zero, and the stream reports
    /// the fault when the decode finishes. Kept out of line, so the
    /// per-point path of [`Self::next_value`] stays small in the walks
    /// that inline it.
    #[inline(never)]
    fn pull_ahead(&mut self) {
        let want = self.codes.left().clamp(1, AHEAD);
        let got = self.codes.fill(&mut self.ahead[..want]);
        self.ahead[got..want].fill(0);
        self.ahead_at = 0;
        self.ahead_len = want;
    }

    /// Ends the decode, reporting the first fault in the stream: the
    /// entropy section's, then a verbatim value that ran out. `complete`
    /// says the walk pulled every code it needed; a walk that failed on
    /// its own side info stopped early, and its error is the caller's.
    fn finish(self, complete: bool) -> Result<(), CompressError> {
        self.codes.finish(complete)?;
        if self.short {
            return Err(CompressError::Header("missing unpredictable value"));
        }
        Ok(())
    }
}

/// Reconstructs a point from its code and prediction. An unpredictable
/// code takes the next verbatim value from `unpred`; when none is left
/// it yields `0.0` and sets `short`, which [`Dequantizer::finish`]
/// reports.
#[inline(always)]
fn dequantize(code: u32, pred: f64, bin: f64, unpred: &mut &[u8], short: &mut bool) -> f32 {
    if code != UNPREDICTABLE {
        return (pred + (code as i64 - HALF) as f64 * bin) as f32;
    }
    match unpred.split_first_chunk::<4>() {
        Some((head, tail)) => {
            *unpred = tail;
            f32::from_le_bytes(*head)
        }
        None => {
            *short = true;
            0.0
        }
    }
}

/// A prediction walk: the one piece an SZ-family row supplies. Both
/// directions visit every point exactly once, in the same order, and
/// predict only from values already reconstructed; a decode may start
/// at an indexed plane and stop once the points a caller asked for are
/// final. A decode takes each point's reconstruction from the
/// [`Dequantizer`], which pulls the point's code from the entropy stream
/// only then.
pub(crate) trait Walk {
    /// Header magic of the walk's streams.
    const MAGIC: u8;
    /// Whether the walk takes the per-plane choice of
    /// [`lorenzo::choose`]: its streams may carry plane flags and an
    /// access index, and its decodes may start at an indexed plane.
    const PLANES: bool = false;
    /// Parsed side info (what the walk ships between the stored error
    /// bound and the entropy section).
    type Side: Default;
    /// Feeds every point of `data` through `q`, the planes `flags` flags
    /// predicted without the plane before them; returns the side info.
    fn encode(
        data: &[f32],
        dims: Dims,
        flags: PlaneFlags,
        q: &mut Quantizer,
    ) -> Result<Vec<u8>, CompressError>;
    /// Parses the side info at `payload[*pos..]`, advancing `pos`; a walk
    /// without side info reads nothing.
    fn read_side(_payload: &[u8], _pos: &mut usize) -> Result<Self::Side, CompressError> {
        Ok(Self::Side::default())
    }
    /// The window of points, in walk order, a decode rebuilds so the
    /// first `len` points in raster order are final, when it may start at
    /// point `first` (a flagged plane's first point, or 0): the whole
    /// field, unless the walk visits in raster order.
    fn window(dims: Dims, _first: usize, _len: usize) -> Range<usize> {
        0..dims.len()
    }
    /// Replays the walk over `window`, a [`Self::window`], taking every
    /// reconstruction from `d`; returns the window's points.
    fn decode(
        dims: Dims,
        side: Self::Side,
        flags: PlaneFlags,
        d: &mut Dequantizer,
        window: Range<usize>,
    ) -> Result<Vec<f32>, CompressError>;
}

/// Implements [`crate::Compressor`] for an SZ-family row: its unit struct,
/// registry name and prediction walk.
macro_rules! sz_row {
    ($row:ty, $name:literal, $walk:ty) => {
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
                $crate::sz::compress::<$walk>($name, field, cfg, budget)
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

sz_row!(Sz, "sz", Sz);
sz_row!(SzFse, "sz-fse", Sz);

/// How many codes the `sz` decode pulls ahead of the point it
/// reconstructs.
const LAG: usize = 64;

/// The `sz` decode's visitor. Each point reconstructs from the code
/// pulled [`LAG`] points earlier and pulls the code [`LAG`] points
/// ahead, so the entropy stream's state chain and the row kernel's
/// Lorenzo chain run side by side instead of one after the other.
struct Lagged<'d, 'a> {
    d: &'d mut Dequantizer<'a>,
    /// The codes of the next [`LAG`] points, by point index mod `LAG`.
    ring: [u32; LAG],
    /// The ring slot of the next point.
    at: usize,
    /// Codes still to pull.
    pulls: usize,
}

/// A run of [`Lagged`]: its pulls all come from one entropy block.
struct LagRun<'a> {
    codes: Run,
    /// How many codes the run pulls: one per point, or none.
    pulls: usize,
    at: usize,
    unpred: &'a [u8],
    short: bool,
}

impl<'a> Visit<f32> for Lagged<'_, 'a> {
    type Run = LagRun<'a>;

    fn begin(&mut self, len: usize) -> (LagRun<'a>, usize) {
        let (codes, pulls) = self.d.codes.run(len.min(self.pulls));
        if pulls == 0 {
            // Every code is pulled, or the stream faulted (reported when
            // the decode finishes): the run consumes what the ring holds.
            self.pulls = 0;
        }
        let run = LagRun {
            codes,
            pulls,
            at: self.at,
            unpred: self.d.unpred,
            short: false,
        };
        (run, if pulls == 0 { len } else { pulls })
    }

    #[inline(always)]
    fn point(&mut self, run: &mut LagRun<'a>, _: usize, pred: f64) -> f32 {
        let code = self.ring[run.at];
        if run.pulls != 0 {
            self.ring[run.at] = self.d.codes.pull(&mut run.codes);
        }
        run.at = (run.at + 1) % LAG;
        dequantize(code, pred, self.d.bin, &mut run.unpred, &mut run.short)
    }

    fn end(&mut self, run: LagRun<'a>) {
        self.at = run.at;
        self.d.unpred = run.unpred;
        self.d.short |= run.short;
        if run.pulls != 0 {
            self.pulls -= run.pulls;
            self.d.codes.end_run(run.codes);
        }
    }
}

impl Walk for Sz {
    const MAGIC: u8 = magic::SZ;
    const PLANES: bool = true;
    type Side = ();

    fn encode(
        data: &[f32],
        dims: Dims,
        flags: PlaneFlags,
        q: &mut Quantizer,
    ) -> Result<Vec<u8>, CompressError> {
        let mut recon = vec![0.0f32; dims.len()];
        lorenzo::walk(dims, flags, dims.len(), &mut recon, &mut |idx, pred| {
            q.quantize(data[idx], pred)
        });
        Ok(Vec::new())
    }

    /// The Lorenzo stencil reads only earlier points, and none before a
    /// flagged plane, so the window runs from `first` to the end of the
    /// row holding point `len − 1`.
    fn window(dims: Dims, first: usize, len: usize) -> Range<usize> {
        first..lorenzo::rows_cover(dims, len)
    }

    /// The row kernel over the sub-field from the window's first plane,
    /// with the entropy stream [`LAG`] codes ahead (see [`Lagged`]).
    fn decode(
        dims: Dims,
        _: (),
        flags: PlaneFlags,
        d: &mut Dequantizer,
        window: Range<usize>,
    ) -> Result<Vec<f32>, CompressError> {
        let first_plane = window.start / (dims.len() / dims.axis(0));
        let mut shape = dims.shape().to_vec();
        shape[0] -= first_plane;
        let n = window.len();
        let mut recon = vec![0.0f32; n];
        let mut ring = [0u32; LAG];
        let lead = n.min(LAG);
        d.codes.fill(&mut ring[..lead]);
        let mut lagged = Lagged {
            d,
            ring,
            at: 0,
            pulls: n - lead,
        };
        let sub = Dims::new(&shape);
        lorenzo::walk(sub, flags.skip(first_plane), n, &mut recon, &mut lagged);
        Ok(recon)
    }
}

/// The byte after the stored error bound that opens a payload with plane
/// flags and an access index:
///
/// ```text
/// eb (8 B) | 0x01 | flags (⌈planes / 8⌉ B) | entropy section | index | verbatim values
/// ```
///
/// No earlier payload can carry it there. Every earlier `sz` payload puts
/// its entropy section right after the bound, and the section leads with
/// a varint: 0 for the tagged-block container, or the length of a legacy
/// single-Huffman stream. `huffman::encode` writes at least two header
/// varints (symbol count, dictionary size), so that length is at least 2,
/// and the only varint whose first byte is 0x01 is 1. Those payloads, and
/// every payload with no flagged plane, decode as before.
const PLANES_MARK: u8 = 0x01;

/// Elements an access-index entry must lie past the entry before it, or
/// past the stream start.
const INDEX_SPACING: usize = 1 << 14;

/// The index takes at most `1 / INDEX_SHARE` (0.5%) of the payload's
/// other bytes.
const INDEX_SHARE: usize = 200;

/// One access-index entry: a flagged plane, the verbatim values stored
/// before it, and the FSE cursor before its first code, relative to the
/// entropy block that holds the code.
#[derive(Clone, Copy, Debug)]
struct Entry {
    plane: usize,
    verbatim: usize,
    at: fse::Cursor,
}

impl Entry {
    /// An access point no verbatim value precedes, whose block has no
    /// states or bits before it: the stream start, or a flagged plane
    /// inside a first block of one code.
    fn bare(plane: usize) -> Self {
        Self {
            plane,
            verbatim: 0,
            at: fse::Cursor::new(0, 0, 0),
        }
    }
}

/// Counters of the per-plane choice, resolved once.
static PLANES_FLAGGED: Resolved<fxrz_telemetry::Name, Arc<Counter>> =
    Resolved::counter(names::LORENZO_PLANES_FLAGGED);
static INDEX_ENTRIES: Resolved<fxrz_telemetry::Name, Arc<Counter>> =
    Resolved::counter(names::LORENZO_INDEX_ENTRIES);
static RANGE_SEEKS: Resolved<fxrz_telemetry::Name, Arc<Counter>> =
    Resolved::counter(names::SLAB_RANGE_SEEKS);

/// The entries a payload may index: each flagged plane (`planes`, with
/// the cursor `cursors` holds before its first code, if its block holds
/// more than one distinct code) at least [`INDEX_SPACING`] elements past
/// the entry before it. `codes` gives the verbatim count: an
/// unpredictable code stores one value.
fn index_entries(
    planes: &[usize],
    plane: usize,
    cursors: &[Option<fse::Cursor>],
    codes: &[u32],
) -> Vec<Entry> {
    let mut entries = Vec::new();
    let (mut last, mut counted, mut verbatim) = (0usize, 0usize, 0usize);
    for (&p, at) in planes.iter().zip(cursors) {
        let first = p * plane;
        verbatim += codes[counted..first]
            .iter()
            .filter(|&&c| c == UNPREDICTABLE)
            .count();
        counted = first;
        if let Some(at) = *at {
            if first >= last + INDEX_SPACING {
                entries.push(Entry {
                    plane: p,
                    verbatim,
                    at,
                });
                last = first;
            }
        }
    }
    entries
}

/// Appends the access index, `varint(count)` then per entry, ascending,
/// `varint plane | varint verbatim | varint state | varint other | varint
/// bit position`, keeping it within `budget` bytes by dropping entries
/// evenly. Returns how many entries it wrote.
fn write_index(out: &mut Vec<u8>, entries: &[Entry], budget: usize) -> usize {
    let mut keep = entries.len();
    loop {
        let mut index = Vec::new();
        write_varint(&mut index, keep as u64);
        for j in 0..keep {
            let e = entries[j * entries.len() / keep];
            for v in [
                e.plane,
                e.verbatim,
                e.at.state(),
                e.at.other(),
                e.at.bit_pos(),
            ] {
                write_varint(&mut index, v as u64);
            }
        }
        if keep == 0 || index.len() <= budget {
            out.extend_from_slice(&index);
            return keep;
        }
        keep = (keep * budget / index.len()).min(keep - 1);
    }
}

/// Reads the plane flags of an `sz` payload at `payload[*pos..]`,
/// advancing `pos`: `None` for a payload without [`PLANES_MARK`].
fn read_flags<'p>(
    payload: &'p [u8],
    pos: &mut usize,
    dims: Dims,
) -> Result<Option<PlaneFlags<'p>>, CompressError> {
    if payload.get(*pos) != Some(&PLANES_MARK) {
        return Ok(None);
    }
    let end = (*pos + 1)
        .checked_add(dims.axis(0).div_ceil(8))
        .filter(|&e| e <= payload.len())
        .ok_or(CompressError::Header("plane flags overrun payload"))?;
    let bits = &payload[*pos + 1..end];
    *pos = end;
    Ok(Some(PlaneFlags::new(bits)))
}

/// Reads the access index at `payload[*pos..]`, in place, and advances
/// `pos` past it, to the verbatim values. Returns the last entry at or
/// before plane `target`, if any. Every entry is checked: planes
/// ascending, inside the field's `n0` planes and flagged; verbatim counts
/// non-decreasing and inside the verbatim section; states inside the
/// largest FSE table; bit positions inside the entropy section's
/// `section_bits`. [`CodeStream::seek`] checks the entry it is given
/// against its block.
fn read_index(
    payload: &[u8],
    pos: &mut usize,
    n0: usize,
    flags: PlaneFlags,
    section_bits: usize,
    target: usize,
) -> Result<Option<Entry>, CompressError> {
    let bad = |what| CompressError::Header(what);
    let mut field = || {
        read_varint(payload, pos)
            .and_then(|v| usize::try_from(v).ok())
            .ok_or(bad("truncated access index"))
    };
    let count = field()?;
    let (mut plane, mut verbatim) = (0usize, 0usize);
    let mut found = None;
    for _ in 0..count {
        let entry = Entry {
            plane: field()?,
            verbatim: field()?,
            at: fse::Cursor::new(field()?, field()?, field()?),
        };
        if entry.plane <= plane || entry.plane >= n0 || !flags.get(entry.plane) {
            return Err(bad("access index entry out of order"));
        }
        let table = fse::MAX_SYMBOLS;
        if entry.verbatim < verbatim
            || entry.at.state() >= table
            || entry.at.other() >= table
            || entry.at.bit_pos() > section_bits
        {
            return Err(bad("access index entry outside its stream"));
        }
        (plane, verbatim) = (entry.plane, entry.verbatim);
        if plane <= target {
            found = Some(entry);
        }
    }
    if verbatim > (payload.len() - *pos) / 4 {
        return Err(bad("access index entry outside its stream"));
    }
    Ok(found)
}

/// Compresses under `budget` symbols per slab: a slab container when
/// the field fills two slabs, else one monolithic stream.
pub(crate) fn compress<W: Walk>(
    name: &'static str,
    field: &Field,
    cfg: &ErrorConfig,
    budget: usize,
) -> Result<Vec<u8>, CompressError> {
    slab::compress(W::MAGIC, field, budget, |sub| {
        compress_mono::<W>(name, sub, cfg)
    })
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
    compress::<Sz>("sz", field, cfg, budget)
}

/// One monolithic stream: walk and quantize, entropy-code, LZ77. `name`
/// feeds the per-codec telemetry series and error messages.
fn compress_mono<W: Walk>(
    name: &'static str,
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
        let flags = if W::PLANES {
            lorenzo::choose(field.data(), dims)
        } else {
            Vec::new()
        };
        let flagged = PlaneFlags::new(&flags);
        let side = W::encode(field.data(), dims, flagged, &mut q)?;

        // payload = eb (8 bytes) | side info | entropy section | unpredictables,
        // or with flagged planes the layout of `PLANES_MARK`.
        // One scratch borrow covers both codec stages, so rate-curve
        // probe loops reuse the same tables call after call.
        fxrz_codec::with_scratch(|scratch| {
            let mut payload = Vec::with_capacity(
                q.codes.len() / 2 + q.unpred.len() + side.len() + flags.len() + 16,
            );
            payload.extend_from_slice(&eb.to_le_bytes());
            if flags.is_empty() {
                payload.extend_from_slice(&side);
                entropy::encode_codes(scratch, &q.codes, &mut payload);
            } else {
                payload.push(PLANES_MARK);
                payload.extend_from_slice(&flags);
                payload.extend_from_slice(&side);
                let plane = dims.len() / dims.axis(0);
                let planes: Vec<usize> = (1..dims.axis(0)).filter(|&p| flagged.get(p)).collect();
                let marks: Vec<usize> = planes.iter().map(|&p| p * plane).collect();
                let cursors = entropy::encode_marked(scratch, &q.codes, &marks, &mut payload);
                let entries = index_entries(&planes, plane, &cursors, &q.codes);
                let budget = (payload.len() + q.unpred.len()) / INDEX_SHARE;
                let written = write_index(&mut payload, &entries, budget);
                PLANES_FLAGGED.get().add(planes.len() as u64);
                INDEX_ENTRIES.get().add(written as u64);
            }
            payload.extend_from_slice(&q.unpred);

            let mut out = Vec::new();
            header::write(&mut out, W::MAGIC, field.name(), dims);
            out.extend_from_slice(&lz77::compress_with(scratch, &payload));
            Ok(out)
        })
    })
}

/// Decompresses either container (see [`slab::decompress`]).
pub(crate) fn decompress<W: Walk>(
    name: &'static str,
    bytes: &[u8],
) -> Result<Field, CompressError> {
    slab::decompress(bytes, W::MAGIC, name, |sub, range| {
        decode_window::<W>(name, sub, range)
    })
}

/// Random-access decode: rebuilds only the window of the field that
/// `range` depends on (see [`slab::decompress_range_impl`]).
pub(crate) fn decompress_range<W: Walk>(
    name: &'static str,
    bytes: &[u8],
    range: Range<usize>,
) -> Result<Vec<f32>, CompressError> {
    slab::decompress_range_impl(bytes, W::MAGIC, name, range, |sub, range| {
        decode_window::<W>(name, sub, range)
    })
}

/// Rebuilds the window of one monolithic stream that makes `range`
/// final (the whole field for `0..usize::MAX`): the whole LZ77 payload
/// comes back, then the walk starts at the last indexed plane at or
/// before `range.start` (the stream start without one), the entropy
/// section seeked to it and the verbatim values skipped, and stops at the
/// end of the walk's [`Walk::window`]. Both entropy wire formats (legacy
/// single-Huffman and the tagged per-block container) are recognized by
/// the entropy section itself, so every pre-container archive decodes
/// here too.
fn decode_window<W: Walk>(
    name: &'static str,
    bytes: &[u8],
    range: Range<usize>,
) -> Result<slab::Window, CompressError> {
    crate::instrument::decompress(name, bytes.len(), slab::Window::nbytes, || {
        let (field_name, dims, payload, eb) = open_payload(bytes, W::MAGIC, name)?;
        let mut pos = 8usize;
        let flags = if W::PLANES {
            read_flags(&payload, &mut pos, dims)?
        } else {
            None
        };
        let side = W::read_side(&payload, &mut pos)?;
        let end = W::window(dims, 0, range.end).end;
        let section = pos;
        let mut codes = CodeStream::open(&payload, &mut pos, dims.len(), end)?;
        let (mut first, mut skip) = (0usize, 0usize);
        if let Some(flags) = flags {
            let plane = dims.len() / dims.axis(0);
            let bits = 8 * (pos - section);
            let target = range.start.min(dims.len()) / plane;
            let entry = read_index(&payload, &mut pos, dims.axis(0), flags, bits, target)?;
            let mut start = entry.unwrap_or(Entry::bare(0));
            // Block 0 of one predictable code: each flagged plane whose
            // first code lies in it is an access point without an entry.
            if let Some((_, count)) = codes.uniform_lead().filter(|&(c, _)| c != UNPREDICTABLE) {
                let last = target.min((count - 1) / plane);
                if let Some(p) = (start.plane + 1..=last).rev().find(|&p| flags.get(p)) {
                    start = Entry::bare(p);
                }
            }
            if start.plane > 0 {
                first = start.plane * plane;
                codes.seek(first, start.at)?;
                skip = start.verbatim;
                RANGE_SEEKS.get().incr();
            }
        }
        let window = W::window(dims, first, range.end);
        let mut d = Dequantizer {
            eb,
            bin: 2.0 * eb,
            codes,
            ahead: [0; AHEAD],
            ahead_at: 0,
            ahead_len: 0,
            unpred: &payload[pos + 4 * skip..],
            short: false,
        };
        let recon = W::decode(
            dims,
            side,
            flags.unwrap_or(PlaneFlags::NONE),
            &mut d,
            window,
        );
        d.finish(recon.is_ok())?;
        Ok(slab::Window {
            name: field_name,
            dims,
            first,
            data: recon?,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Compressor;
    use fxrz_datagen::grf::{gaussian_random_field, GrfConfig};
    use rand::{Rng, SeedableRng};

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
    fn inline_round_matches_f64_round() {
        let two52 = (1u64 << 52) as f64;
        let mut xs = vec![
            0.0,
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 4.0,
            f64::from_bits(1),
            0.5f64.next_down(),
            two52 / 2.0 - 0.5,
            two52 / 2.0 + 0.5,
            two52 - 1.0,
            two52 + 1.0,
            two52 - 0.5,
            two52,
            f64::MAX,
            f64::INFINITY,
        ];
        for k in (0..64).chain([1_000, 32_767, 1 << 30, (1u64 << 51) - 1]) {
            let half = k as f64 + 0.5;
            xs.extend([half, half.next_up(), half.next_down(), k as f64]);
        }
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x0A0B_0C0D);
        xs.extend((0..10_000).map(|_| f64::from_bits(rng.gen())));
        // From 2^51 to 2^52 every value is an integer or half-way.
        xs.extend((0..1_000).map(|_| two52 / 2.0 + rng.gen_range(0..1u64 << 40) as f64 * 0.5));
        for x in xs.iter().flat_map(|&x| [x, -x]) {
            let (got, want) = (round_half_away(x), x.round());
            assert!(
                got.to_bits() == want.to_bits() || got.is_nan() && want.is_nan(),
                "{x:e}: {got:e} vs {want:e}"
            );
        }
        assert!(round_half_away(f64::NAN).is_nan());
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
