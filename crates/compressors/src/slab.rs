//! Seekable slab container, written by every registry row (format v2).
//!
//! A monolithic (v1) stream is one row's payload after the common
//! [`crate::header`]; its decode is sequential. The slab container
//! splits a field along its leading axis into independently-decodable
//! *slabs*, each a complete self-describing monolithic stream of the same
//! row over a contiguous run of leading-axis planes:
//!
//! ```text
//! common header (magic | name | dims)           <- same as v1, detect() unchanged
//! 0x02                                          <- container tag
//! varint n_slabs                                <- always >= 2
//! n_slabs x { varint raw_elems                  <- directory
//!             varint comp_len
//!             u32 LE checksum                   <- FNV-1a over the slab bytes
//!             u8   codec tag }                  <- header magic of the slab stream
//! slab streams, concatenated                    <- each begins with its own header
//! ```
//!
//! No monolithic stream reads as a container. The SZ rows' and mgard's
//! LZ77 payloads never start with `0x02` (the leading varint of an
//! 8-byte-or-longer payload is >= 8 or >= 0x80), and zfp's mode byte is
//! 0 or 1. fpzip's precision byte is `0x02` at precision 2, but its
//! range-coded body always starts with 0, the first byte of no slab
//! count: [`table`] reads a tag followed by 0 as a monolithic stream.
//!
//! Slab boundaries are a pure function of the dims and the symbol
//! budget — never of thread count — so encode output and decode output
//! are bit-identical at any parallelism (the `par_map` contract).
//! Decode fans slabs over [`fxrz_parallel::par_map`];
//! [`decompress_range_impl`] decodes only the slabs covering a
//! requested element range, and of each only the [`Window`] the part of
//! the range it holds depends on.
//!
//! **Access points inside a slab.** A window need not start at the slab
//! start. An `sz`/`sz-fse` stream (a slab, or a monolithic stream) of a
//! 3-D or 4-D field may flag planes that predict without the plane
//! before them (`lorenzo::choose`), and carry an access index:
//!
//! ```text
//! eb (8 B) | 0x01 | flags (1 bit per plane) | entropy section | index | verbatim values
//! index = varint count, then per entry, planes ascending:
//!         varint plane | varint verbatim | varint state | varint other | varint bit position
//! ```
//!
//! - An entry is a flagged plane whose first code lies in a multi-code
//!   FSE block, at least 2^14 elements past the entry before it (or the
//!   stream start). The index stays within 0.5% of the payload's other
//!   bytes; past that, entries are dropped evenly.
//! - Its cursor is the FSE decoder's state before the plane's first code
//!   `i`, relative to that code's block: the state of chain `i mod 2`
//!   right after the encoder codes `i`, the other chain's right after it
//!   codes `i + 1`, and the bits written by then. `verbatim` counts the
//!   unpredictable values stored before the plane.
//! - A range decode starts at the last entry at or before the range's
//!   first plane: it seeks the entry's block to the cursor, skips the
//!   verbatim values before it, and walks to the row holding the range's
//!   last point. A flagged plane inside a first entropy block of one
//!   code needs no entry: the block's cursor is trivial and no verbatim
//!   value precedes it.
//! - The decoder reads the index in place and checks every entry
//!   (planes ascending, inside the field and flagged; verbatim counts
//!   non-decreasing and inside their section; states and bit positions
//!   inside the largest table and the entropy section), and the entry it
//!   uses against its block, before any step.
//!
//! The `0x01` byte cannot open an older payload there (see
//! `sz::PLANES_MARK`); those, and streams with no flagged plane, keep
//! their layout. Slab checksums cover the whole slab as before.

use crate::{header, CompressError};
use fxrz_codec::bitstream::{read_varint, write_varint};
use fxrz_datagen::{Dims, Field};

/// Container tag byte that follows the common header in a v2 stream.
pub const SLAB_TAG: u8 = 0x02;

/// Symbols per slab, at least: the entropy coder's block size, so a slab
/// is one entropy block plus its share of the planes left over when the
/// field's planes do not divide evenly into slabs.
pub const SLAB_SYMBOLS: usize = crate::entropy::BLOCK_SYMBOLS;

/// One directory row of a parsed slab container.
#[derive(Clone, Copy, Debug)]
pub struct SlabEntry {
    /// Byte offset of the slab stream, relative to the whole stream.
    pub offset: usize,
    /// Compressed length of the slab stream in bytes.
    pub comp_len: usize,
    /// Decoded element count (a whole number of leading-axis planes).
    pub raw_elems: usize,
    /// FNV-1a checksum of the slab stream bytes.
    pub checksum: u32,
    /// Header magic byte of the slab's codec.
    pub codec: u8,
}

/// The points of a decoded stream a window decoder rebuilt to make a
/// requested range final.
#[derive(Debug)]
pub struct Window {
    /// Field name from the stream header.
    pub name: String,
    /// Field dims from the stream header.
    pub dims: Dims,
    /// The first point rebuilt: at or before the range's start (an
    /// indexed plane's first point, or 0).
    pub first: usize,
    /// The rebuilt points from `first` on, in raster order: at least
    /// through the range's end (a decoder may finish the row or rebuild
    /// the whole field), at most to `dims.len()`.
    pub data: Vec<f32>,
}

impl Window {
    /// The window of a decoder that rebuilds the whole field.
    pub fn whole(name: String, dims: Dims, data: Vec<f32>) -> Self {
        Self {
            name,
            dims,
            first: 0,
            data,
        }
    }

    /// Bytes of the rebuilt points, the size a decode's telemetry
    /// records.
    pub fn nbytes(&self) -> usize {
        std::mem::size_of_val(self.data.as_slice())
    }

    /// The points of `range` (stream indices), or a typed error when the
    /// window does not hold them all.
    fn slice(&self, range: core::ops::Range<usize>) -> Result<&[f32], CompressError> {
        range
            .start
            .checked_sub(self.first)
            .and_then(|lo| self.data.get(lo..range.end - self.first))
            .ok_or(CompressError::Header("slab stream does not tile field"))
    }
}

/// FNV-1a over `bytes`, folded to 32 bits. Dependency-free and
/// deterministic; this guards slab payloads against bit rot, not
/// adversaries.
pub fn checksum(bytes: &[u8]) -> u32 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1_0000_01b3);
    }
    h ^= bytes.len() as u64;
    h = h.wrapping_mul(0x1_0000_01b3);
    ((h >> 32) ^ h) as u32
}

/// Plans the slab split for `dims` under a per-slab symbol `budget`:
/// returns the leading-axis plane count of each slab, or `None` when
/// the field is too small to be worth slabbing (fewer than two full
/// slabs). The field takes as many slabs as it fills, and its planes
/// spread evenly over them: slab sizes differ by at most one plane, the
/// larger ones first, so slabs decoded side by side finish together.
pub fn plan(dims: Dims, budget: usize) -> Option<Vec<usize>> {
    let shape = dims.shape();
    let axis0 = *shape.first()?;
    if axis0 == 0 || budget == 0 {
        return None;
    }
    let plane = dims.len() / axis0;
    if plane == 0 {
        return None;
    }
    let per_slab = (budget / plane).max(1);
    let full = axis0 / per_slab;
    if full < 2 {
        return None;
    }
    let (base, extra) = (axis0 / full, axis0 % full);
    Some((0..full).map(|i| base + usize::from(i < extra)).collect())
}

/// Extracts the sub-field of `field` covering `n_planes` leading-axis
/// planes starting at plane `start_plane`.
fn sub_field(field: &Field, start_plane: usize, n_planes: usize) -> Option<Field> {
    let dims = field.dims();
    let shape = dims.shape();
    let axis0 = *shape.first()?;
    let plane = dims.len() / axis0.max(1);
    let mut sub_shape: Vec<usize> = shape.to_vec();
    *sub_shape.first_mut()? = n_planes;
    let start = start_plane.checked_mul(plane)?;
    let end = start.checked_add(n_planes.checked_mul(plane)?)?;
    let data = field.data().get(start..end)?.to_vec();
    Some(Field::new(field.name(), Dims::new(&sub_shape), data))
}

/// Compresses `field` the way every registry row does: a slab container
/// of [`compress_slabbed`] when the field fills two slabs of `budget`
/// symbols, else `compress_one`'s monolithic stream.
pub fn compress<F>(
    expect_magic: u8,
    field: &Field,
    budget: usize,
    compress_one: F,
) -> Result<Vec<u8>, CompressError>
where
    F: Fn(&Field) -> Result<Vec<u8>, CompressError> + Sync,
{
    match compress_slabbed(expect_magic, field, budget, &compress_one)? {
        Some(out) => Ok(out),
        None => compress_one(field),
    }
}

/// Compresses `field` as a slab container, or returns `Ok(None)` when
/// [`plan`] declines (the caller then emits a monolithic v1 stream).
/// `compress_one` must produce a complete self-describing stream for a
/// sub-field — the compressor's own monolithic path. Slabs compress in
/// parallel over the worker pool; output bytes are identical at any
/// thread count because the split and the concatenation order are
/// thread-independent.
pub fn compress_slabbed<F>(
    expect_magic: u8,
    field: &Field,
    budget: usize,
    compress_one: F,
) -> Result<Option<Vec<u8>>, CompressError>
where
    F: Fn(&Field) -> Result<Vec<u8>, CompressError> + Sync,
{
    let Some(planes) = plan(field.dims(), budget) else {
        return Ok(None);
    };
    let mut starts = Vec::with_capacity(planes.len());
    let mut acc = 0usize;
    for &p in &planes {
        starts.push(acc);
        acc += p;
    }

    let slabs: Vec<Result<Vec<u8>, CompressError>> = fxrz_parallel::par_map(planes.len(), 1, |r| {
        let i = r.start;
        let (start, n) = (starts[i], planes[i]);
        let sub = sub_field(field, start, n)
            .ok_or(CompressError::Header("slab plan exceeds field extent"))?;
        compress_one(&sub)
    });

    let dims = field.dims();
    let axis0 = dims.shape().first().copied().unwrap_or(0);
    let plane = dims.len() / axis0.max(1);

    let mut out = Vec::new();
    header::write(&mut out, expect_magic, field.name(), dims);
    out.push(SLAB_TAG);
    write_varint(&mut out, planes.len() as u64);
    let mut bodies: Vec<Vec<u8>> = Vec::with_capacity(planes.len());
    for (i, slab) in slabs.into_iter().enumerate() {
        let bytes = slab?;
        write_varint(&mut out, (planes[i] * plane) as u64);
        write_varint(&mut out, bytes.len() as u64);
        out.extend_from_slice(&checksum(&bytes).to_le_bytes());
        out.push(expect_magic);
        bodies.push(bytes);
    }
    for body in &bodies {
        out.extend_from_slice(body);
    }
    fxrz_telemetry::global().add(crate::names::SLAB_ENCODED, planes.len() as u64);
    Ok(Some(out))
}

/// Parses the slab directory of a stream, if it is a v2 container.
///
/// Returns `Ok(None)` for a monolithic v1 stream: no `0x02` tag after
/// the common header, or the tag followed by 0 (an fpzip stream at
/// precision 2; no slab count starts with 0). Every directory field is
/// validated before use:
/// slab count against the remaining byte budget and the leading axis,
/// element counts as whole-plane multiples summing exactly to the
/// field, byte extents against the stream length.
pub fn table(
    bytes: &[u8],
    expect_magic: u8,
    compressor: &'static str,
) -> Result<Option<(String, Dims, Vec<SlabEntry>)>, CompressError> {
    let (name, dims, off) = header::read(bytes, expect_magic, compressor)?;
    if bytes.get(off) != Some(&SLAB_TAG) || bytes.get(off + 1) == Some(&0) {
        return Ok(None);
    }
    let mut pos = off + 1;
    let n = read_varint(bytes, &mut pos).ok_or(CompressError::Header("truncated slab count"))?;
    let axis0 = dims.shape().first().copied().unwrap_or(0);
    // Each directory row is at least 7 bytes (two 1-byte varints, a
    // 4-byte checksum, a codec tag), so the row count is bounded by the
    // remaining bytes — checked before sizing any allocation.
    let remaining = bytes.len().saturating_sub(pos);
    if n < 2 || n > axis0 as u64 || n > (remaining / 7) as u64 {
        return Err(CompressError::Header("implausible slab count"));
    }
    let n = n as usize;
    let plane = dims.len() / axis0.max(1);

    let mut entries = Vec::with_capacity(n);
    let mut elems_seen = 0usize;
    for _ in 0..n {
        let raw_elems = read_varint(bytes, &mut pos)
            .ok_or(CompressError::Header("truncated slab directory"))?;
        let comp_len = read_varint(bytes, &mut pos)
            .ok_or(CompressError::Header("truncated slab directory"))?;
        let ck = bytes
            .get(pos..pos + 4)
            .ok_or(CompressError::Header("truncated slab directory"))?;
        let checksum = u32::from_le_bytes(ck.try_into().expect("slice of checked length"));
        pos += 4;
        let codec = *bytes
            .get(pos)
            .ok_or(CompressError::Header("truncated slab directory"))?;
        pos += 1;

        let raw_elems = usize::try_from(raw_elems)
            .ok()
            .filter(|&r| r > 0 && plane > 0 && r % plane == 0)
            .ok_or(CompressError::Header("slab extent not plane-aligned"))?;
        elems_seen = elems_seen
            .checked_add(raw_elems)
            .filter(|&t| t <= dims.len())
            .ok_or(CompressError::Header("slab extents exceed field"))?;
        let comp_len = usize::try_from(comp_len)
            .ok()
            .ok_or(CompressError::Header("slab length overflows"))?;
        entries.push(SlabEntry {
            offset: 0, // filled below once the directory length is known
            comp_len,
            raw_elems,
            checksum,
            codec,
        });
    }
    if elems_seen != dims.len() {
        return Err(CompressError::Header("slab extents exceed field"));
    }
    let mut offset = pos;
    for e in &mut entries {
        e.offset = offset;
        offset = offset
            .checked_add(e.comp_len)
            .filter(|&end| end <= bytes.len())
            .ok_or(CompressError::Header("slab stream overruns container"))?;
    }
    if offset != bytes.len() {
        return Err(CompressError::Header("trailing bytes after slab streams"));
    }
    Ok(Some((name, dims, entries)))
}

/// Checks one slab's checksum, decodes the window of it that makes
/// `range` (slab indices) final, and validates that the decoded
/// sub-field tiles the parent: same name, same trailing shape, leading
/// extent matching the directory row. Returns how many points the
/// decode rebuilt, and the points of `range`.
fn decode_slab<G>(
    bytes: &[u8],
    entry: &SlabEntry,
    expect_magic: u8,
    parent_name: &str,
    parent: Dims,
    range: core::ops::Range<usize>,
    decode: &G,
) -> Result<(usize, Vec<f32>), CompressError>
where
    G: Fn(&[u8], core::ops::Range<usize>) -> Result<Window, CompressError> + Sync,
{
    if entry.codec != expect_magic {
        return Err(CompressError::Header("slab codec tag mismatch"));
    }
    let end = entry
        .offset
        .checked_add(entry.comp_len)
        .filter(|&e| e <= bytes.len())
        .ok_or(CompressError::Header("slab stream overruns container"))?;
    let slab = bytes
        .get(entry.offset..end)
        .ok_or(CompressError::Header("slab stream overruns container"))?;
    if checksum(slab) != entry.checksum {
        return Err(CompressError::Header("slab checksum mismatch"));
    }
    let sub = decode(slab, range.clone())?;
    let axis0 = parent.shape().first().copied().unwrap_or(0);
    let plane = parent.len() / axis0.max(1);
    let sub_shape = sub.dims.shape();
    let tiles = sub.name == parent_name
        && sub.dims.ndim() == parent.ndim()
        && sub_shape.get(1..) == parent.shape().get(1..)
        && plane > 0
        && sub_shape.first().copied().unwrap_or(0) == entry.raw_elems / plane;
    if !tiles {
        return Err(CompressError::Header("slab stream does not tile field"));
    }
    fxrz_telemetry::global().incr(crate::names::SLAB_DECODED);
    let rebuilt = sub.data.len();
    if sub.first == 0 && range == (0..rebuilt) {
        return Ok((rebuilt, sub.data));
    }
    Ok((rebuilt, sub.slice(range)?.to_vec()))
}

/// Decompresses a stream the way every registry row does: a slab
/// container's slabs in parallel, a monolithic v1 stream (every stream
/// of a field below two slabs, and every pre-container archive's) as
/// one. `decode(stream, range)` is the row's monolithic window decoder;
/// every stream decodes whole. Output is bit-identical at any thread
/// count: slab boundaries come from the directory and each slab writes
/// a disjoint range of the output.
pub fn decompress<G>(
    bytes: &[u8],
    expect_magic: u8,
    compressor: &'static str,
    decode: G,
) -> Result<Field, CompressError>
where
    G: Fn(&[u8], core::ops::Range<usize>) -> Result<Window, CompressError> + Sync,
{
    let Some((name, dims, entries)) = table(bytes, expect_magic, compressor)? else {
        let whole = decode(bytes, 0..usize::MAX)?;
        return Ok(Field::new(whole.name, whole.dims, whole.data));
    };
    let decoded: Vec<Result<Vec<f32>, CompressError>> =
        fxrz_parallel::par_map(entries.len(), 1, |r| {
            let e = &entries[r.start];
            decode_slab(bytes, e, expect_magic, &name, dims, 0..e.raw_elems, &decode)
                .map(|(_, part)| part)
        });
    // Sized only once every slab has decoded: the header's count alone
    // never sizes the output.
    let parts = decoded.into_iter().collect::<Result<Vec<_>, _>>()?;
    let mut data = Vec::with_capacity(dims.len());
    for part in parts {
        data.extend_from_slice(&part);
    }
    if data.len() != dims.len() {
        return Err(CompressError::Header("slab stream does not tile field"));
    }
    Ok(Field::new(name, dims, data))
}

/// Decodes `range` (element indices) from a stream, rebuilding only the
/// window of the field the range depends on. `decode(stream, range)` is
/// the compressor's monolithic window decoder: it rebuilds at least the
/// points of `range`, from an indexed plane at or before its start. Each
/// covering slab, or a monolithic v1 stream, decodes the part of `range`
/// it holds. Bytes after that part are never read, so damage confined to
/// them goes unreported, as in the slabs the range does not cover. A
/// range outside the header's extent fails before any decode.
pub fn decompress_range_impl<G>(
    bytes: &[u8],
    expect_magic: u8,
    compressor: &'static str,
    range: core::ops::Range<usize>,
    decode: G,
) -> Result<Vec<f32>, CompressError>
where
    G: Fn(&[u8], core::ops::Range<usize>) -> Result<Window, CompressError> + Sync,
{
    let registry = fxrz_telemetry::global();
    registry.incr(crate::names::SLAB_RANGE_CALLS);
    let slabbed = table(bytes, expect_magic, compressor)?;
    let dims = match &slabbed {
        Some((_, dims, _)) => *dims,
        None => header::read(bytes, expect_magic, compressor)?.1,
    };
    if range.start > range.end || range.end > dims.len() {
        return Err(CompressError::Header("range exceeds field extent"));
    }
    if range.is_empty() {
        return Ok(Vec::new());
    }
    let Some((name, dims, entries)) = slabbed else {
        let window = decode(bytes, range.clone())?;
        registry.add(
            crate::names::SLAB_RANGE_DECODED_ELEMS,
            window.data.len() as u64,
        );
        return window.slice(range).map(<[f32]>::to_vec);
    };

    // Each covering slab, with the part of the range it holds in slab
    // indices.
    let mut cover = Vec::new();
    let mut acc = 0usize;
    for e in &entries {
        let end = acc + e.raw_elems;
        if acc < range.end && end > range.start {
            cover.push((e, range.start.max(acc) - acc..range.end.min(end) - acc));
        }
        acc = end;
    }
    let decoded: Vec<Result<(usize, Vec<f32>), CompressError>> =
        fxrz_parallel::par_map(cover.len(), 1, |r| {
            let (e, part) = &cover[r.start];
            decode_slab(bytes, e, expect_magic, &name, dims, part.clone(), &decode)
        });
    let parts = decoded.into_iter().collect::<Result<Vec<_>, _>>()?;
    registry.add(
        crate::names::SLAB_RANGE_DECODED_ELEMS,
        parts.iter().map(|(rebuilt, _)| rebuilt).sum::<usize>() as u64,
    );
    let mut data = Vec::with_capacity(range.len());
    for (_, part) in &parts {
        data.extend_from_slice(part);
    }
    Ok(data)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_declines_small_fields() {
        assert!(plan(Dims::d3(16, 16, 16), SLAB_SYMBOLS).is_none());
        assert!(plan(Dims::d1(294_912), SLAB_SYMBOLS).is_none()); // 1 full slab
        assert!(plan(Dims::d1(10), 0).is_none());
    }

    #[test]
    fn plan_spreads_planes_evenly() {
        // 10 planes of 4 elems, budget 8 symbols -> 2 planes per slab,
        // 5 full slabs, no remainder.
        assert_eq!(plan(Dims::d2(10, 4), 8), Some(vec![2, 2, 2, 2, 2]));
        // 11 planes -> the remainder plane goes to the first slab.
        assert_eq!(plan(Dims::d2(11, 4), 8), Some(vec![3, 2, 2, 2, 2]));
        // 14 planes over 4 slabs of at least 3 -> 4, 4, 3, 3.
        assert_eq!(plan(Dims::d2(14, 4), 12), Some(vec![4, 4, 3, 3]));
        // QMCPack Medium: 34 planes of 20,102 fill two slabs of 2^18
        // symbols, 17 planes each (the whole remainder made 13 + 21).
        let qmcpack = Dims::d4(34, 38, 23, 23);
        assert_eq!(plan(qmcpack, SLAB_SYMBOLS), Some(vec![17, 17]));
    }

    #[test]
    fn plan_covers_whole_axis() {
        for axis0 in 2..200usize {
            for budget in 1..20usize {
                if let Some(planes) = plan(Dims::d2(axis0, 3), budget * 3) {
                    assert!(planes.len() >= 2);
                    assert_eq!(planes.iter().sum::<usize>(), axis0);
                }
            }
        }
    }

    #[test]
    fn checksum_is_order_and_length_sensitive() {
        assert_ne!(checksum(b"ab"), checksum(b"ba"));
        assert_ne!(checksum(b"a"), checksum(b"a\0"));
        assert_eq!(checksum(b""), checksum(b""));
    }
}
