//! # fxrz-archive — a multi-field container for compressed snapshots
//!
//! Scientific campaigns store many named fields per snapshot (the paper's
//! motivation: HDF5/ADIOS2/NetCDF workflows). This crate provides a small
//! self-describing archive that holds any mix of streams produced by the
//! workspace's compressors, with an index for **selective decompression**
//! — read one field without touching the rest, the access pattern
//! post-hoc analysis needs.
//!
//! Two wire versions are readable; the writer emits v2.
//!
//! v1 (legacy, leading index):
//!
//! ```text
//! "FXRZA1" | varint n | n × { varint name_len, name,
//!                             varint blob_len }   (index)
//! blob_0 … blob_{n-1}                             (compressor streams)
//! ```
//!
//! v2 (seekable, trailing index):
//!
//! ```text
//! "FXRZA2"
//! blob_0 … blob_{n-1}                             (compressor streams)
//! varint n                                        (index)
//! n × { varint name_len, name,
//!       varint blob_offset, varint blob_len,
//!       u8 codec magic,
//!       varint n_slabs,                           (0 = monolithic blob)
//!       n_slabs × { varint offset_in_blob, varint comp_len,
//!                   varint raw_elems, u32 LE checksum, u8 codec } }
//! u64 LE index offset                             (last 8 bytes)
//! ```
//!
//! The v2 index mirrors each blob's slab directory (see
//! `fxrz_compressors::slab`), so `Archive::open` locates any slab of any
//! field — for random-access decode — without scanning a single blob.
//! Each blob is a self-describing compressor stream (magic + header), so
//! decode needs no per-entry compressor metadata either way.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Archive bytes are untrusted input: decoders return typed errors,
// never panic.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing,
    clippy::panic_in_result_fn
)]

pub mod names;

use fxrz_codec::bitstream::{read_varint, write_varint};
use fxrz_compressors::{codec_for_magic, detect, slab, Compressor, ErrorConfig};
use fxrz_core::infer::FixedRatioCompressor;
use fxrz_core::FxrzError;
use fxrz_datagen::Field;
use std::collections::HashMap;

/// Archive file magic, version 1 (legacy leading-index layout).
const MAGIC: &[u8; 6] = b"FXRZA1";
/// Archive file magic, version 2 (trailing index with slab tables).
const MAGIC_V2: &[u8; 6] = b"FXRZA2";

/// Errors raised by archive operations.
#[derive(Debug)]
pub enum ArchiveError {
    /// Buffer does not start with the archive magic.
    NotAnArchive,
    /// The index or a blob is malformed / truncated.
    Corrupt(&'static str),
    /// No entry with the requested name.
    NoSuchField(String),
    /// Duplicate entry name at build time.
    DuplicateField(String),
    /// A compressor failed.
    Compress(fxrz_compressors::CompressError),
    /// The fixed-ratio engine failed.
    Fxrz(FxrzError),
}

impl std::fmt::Display for ArchiveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArchiveError::NotAnArchive => write!(f, "not an fxrz archive"),
            ArchiveError::Corrupt(m) => write!(f, "corrupt archive: {m}"),
            ArchiveError::NoSuchField(n) => write!(f, "no field named `{n}`"),
            ArchiveError::DuplicateField(n) => write!(f, "duplicate field name `{n}`"),
            ArchiveError::Compress(e) => write!(f, "compression failed: {e}"),
            ArchiveError::Fxrz(e) => write!(f, "fixed-ratio engine failed: {e}"),
        }
    }
}

impl std::error::Error for ArchiveError {}

impl From<fxrz_compressors::CompressError> for ArchiveError {
    fn from(e: fxrz_compressors::CompressError) -> Self {
        ArchiveError::Compress(e)
    }
}

impl From<FxrzError> for ArchiveError {
    fn from(e: FxrzError) -> Self {
        ArchiveError::Fxrz(e)
    }
}

/// Builds an archive incrementally.
#[derive(Default)]
pub struct ArchiveWriter {
    entries: Vec<(String, Vec<u8>)>,
    names: HashMap<String, ()>,
}

impl ArchiveWriter {
    /// An empty archive.
    pub fn new() -> Self {
        Self::default()
    }

    fn push(&mut self, name: String, blob: Vec<u8>) -> Result<(), ArchiveError> {
        if self.names.insert(name.clone(), ()).is_some() {
            return Err(ArchiveError::DuplicateField(name));
        }
        self.entries.push((name, blob));
        Ok(())
    }

    /// Adds a field compressed with an explicit error configuration.
    ///
    /// # Errors
    /// Fails on duplicate names or compressor errors.
    pub fn add_field(
        &mut self,
        compressor: &dyn Compressor,
        field: &Field,
        cfg: &ErrorConfig,
    ) -> Result<(), ArchiveError> {
        let blob = compressor.compress(field, cfg)?;
        self.push(field.name().to_owned(), blob)
    }

    /// Adds a field compressed to a target ratio via a trained FXRZ model.
    /// Returns the measured ratio.
    ///
    /// # Errors
    /// Fails on duplicate names, estimation or compressor errors.
    pub fn add_fixed_ratio(
        &mut self,
        frc: &FixedRatioCompressor,
        field: &Field,
        tcr: f64,
    ) -> Result<f64, ArchiveError> {
        let out = frc.compress(field, tcr)?;
        self.push(field.name().to_owned(), out.bytes)?;
        Ok(out.measured_ratio)
    }

    /// Adds a pre-compressed blob under `name` (must be a stream from one
    /// of the workspace compressors).
    ///
    /// # Errors
    /// Fails on duplicates or unrecognized stream magic.
    pub fn add_raw(&mut self, name: &str, blob: Vec<u8>) -> Result<(), ArchiveError> {
        if detect(&blob).is_none() {
            return Err(ArchiveError::Corrupt("unrecognized compressor stream"));
        }
        self.push(name.to_owned(), blob)
    }

    /// Number of entries so far.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no entries have been added.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Serializes the archive (v2 layout: blobs first, trailing index).
    pub fn finish(self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC_V2);
        let mut offsets = Vec::with_capacity(self.entries.len());
        for (_, blob) in &self.entries {
            offsets.push(out.len());
            out.extend_from_slice(blob);
        }
        let index_offset = out.len() as u64;
        write_varint(&mut out, self.entries.len() as u64);
        for ((name, blob), offset) in self.entries.iter().zip(&offsets) {
            write_varint(&mut out, name.len() as u64);
            out.extend_from_slice(name.as_bytes());
            write_varint(&mut out, *offset as u64);
            write_varint(&mut out, blob.len() as u64);
            out.push(blob.first().copied().unwrap_or(0));
            let slabs = slab_rows(blob);
            write_varint(&mut out, slabs.len() as u64);
            for s in &slabs {
                write_varint(&mut out, s.offset as u64);
                write_varint(&mut out, s.comp_len as u64);
                write_varint(&mut out, s.raw_elems as u64);
                out.extend_from_slice(&s.checksum.to_le_bytes());
                out.push(s.codec);
            }
        }
        out.extend_from_slice(&index_offset.to_le_bytes());
        out
    }
}

/// Mirrors the slab directory of a blob of any registry row into
/// archive index rows (empty for monolithic streams and unknown magics).
fn slab_rows(blob: &[u8]) -> Vec<SlabRow> {
    let Some(row) = blob.first().and_then(|&m| codec_for_magic(m)) else {
        return Vec::new();
    };
    match slab::table(blob, row.magic, row.name) {
        Ok(Some((_, _, entries))) => entries
            .iter()
            .map(|e| SlabRow {
                offset: e.offset,
                comp_len: e.comp_len,
                raw_elems: e.raw_elems,
                checksum: e.checksum,
                codec: e.codec,
            })
            .collect(),
        _ => Vec::new(),
    }
}

/// Caps applied while parsing an untrusted archive index. Every length
/// in the index is attacker-controlled; [`Archive::open_with_limits`]
/// rejects values over these caps *before* allocating or iterating on
/// them, so a forged header cannot force a huge allocation or a long
/// parse loop.
#[derive(Clone, Copy, Debug)]
pub struct ArchiveLimits {
    /// Maximum number of index entries accepted.
    pub max_entries: usize,
    /// Maximum field-name length in bytes.
    pub max_name_len: usize,
}

impl Default for ArchiveLimits {
    fn default() -> Self {
        Self {
            max_entries: 1 << 16,
            max_name_len: 4096,
        }
    }
}

/// One slab of a v2 entry, mirrored from the blob's slab directory so
/// random-access decode can locate it without parsing the blob.
#[derive(Clone, Copy, Debug)]
pub struct SlabRow {
    /// Byte offset of the slab stream within the blob.
    pub offset: usize,
    /// Compressed length of the slab stream.
    pub comp_len: usize,
    /// Decoded element count of the slab.
    pub raw_elems: usize,
    /// FNV-1a checksum of the slab stream bytes.
    pub checksum: u32,
    /// Header magic byte of the slab's codec.
    pub codec: u8,
}

/// One index entry of an opened archive.
#[derive(Clone, Debug)]
pub struct Entry {
    /// Field name.
    pub name: String,
    /// Offset of the blob within the archive buffer.
    offset: usize,
    /// Blob length in bytes.
    pub compressed_len: usize,
    /// Stream magic of the blob (0 when unknown, i.e. a v1 index).
    pub codec: u8,
    /// Slab directory of the blob (empty for monolithic streams and v1
    /// archives).
    pub slabs: Vec<SlabRow>,
}

/// A read-only view over an archive buffer with selective decompression.
pub struct Archive<'a> {
    buf: &'a [u8],
    entries: Vec<Entry>,
    /// `(name, index into entries)`, sorted by name: every by-name
    /// lookup is a binary search, not a linear scan.
    by_name: Vec<(String, usize)>,
}

impl<'a> Archive<'a> {
    /// Parses the index with default [`ArchiveLimits`] (no decompression
    /// happens here).
    ///
    /// # Errors
    /// Fails on bad magic or a malformed index.
    pub fn open(buf: &'a [u8]) -> Result<Self, ArchiveError> {
        Self::open_with_limits(buf, ArchiveLimits::default())
    }

    /// Parses the index, rejecting any attacker-controlled length over
    /// `limits` before allocating from it.
    ///
    /// # Errors
    /// Fails on bad magic, a malformed index, or an index exceeding the
    /// limits.
    pub fn open_with_limits(buf: &'a [u8], limits: ArchiveLimits) -> Result<Self, ArchiveError> {
        let entries = if buf.get(..MAGIC.len()) == Some(MAGIC.as_slice()) {
            parse_v1(buf, limits)?
        } else if buf.get(..MAGIC_V2.len()) == Some(MAGIC_V2.as_slice()) {
            parse_v2(buf, limits)?
        } else {
            return Err(ArchiveError::NotAnArchive);
        };
        let mut by_name: Vec<(String, usize)> = entries
            .iter()
            .enumerate()
            .map(|(i, e)| (e.name.clone(), i))
            .collect();
        by_name.sort();
        Ok(Self {
            buf,
            entries,
            by_name,
        })
    }

    /// Index entries in archive order.
    pub fn entries(&self) -> &[Entry] {
        &self.entries
    }

    /// Number of fields.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the archive holds no fields.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Binary-searches the sorted name index. Every by-name lookup goes
    /// through here, advancing the `archive.index.lookups` counter.
    fn find(&self, name: &str) -> Option<&Entry> {
        fxrz_telemetry::global().incr(names::INDEX_LOOKUPS);
        let i = self
            .by_name
            .binary_search_by(|probe| probe.0.as_str().cmp(name))
            .ok()?;
        let &(_, idx) = self.by_name.get(i)?;
        self.entries.get(idx)
    }

    /// Full index entry of one field, including its slab directory.
    ///
    /// # Errors
    /// Fails when the name is absent.
    pub fn entry(&self, name: &str) -> Result<&Entry, ArchiveError> {
        self.find(name)
            .ok_or_else(|| ArchiveError::NoSuchField(name.to_owned()))
    }

    /// Raw compressed bytes of one entry.
    ///
    /// # Errors
    /// Fails when the name is absent.
    pub fn raw(&self, name: &str) -> Result<&'a [u8], ArchiveError> {
        let e = self.entry(name)?;
        self.buf
            .get(e.offset..e.offset.saturating_add(e.compressed_len))
            .ok_or(ArchiveError::Corrupt("entry overruns buffer"))
    }

    /// Decompresses one field by name (selective read — other entries are
    /// untouched). Slabbed blobs decode in parallel over the worker pool,
    /// bit-identically at any thread count.
    ///
    /// # Errors
    /// Fails on missing names or corrupt blobs.
    pub fn get(&self, name: &str) -> Result<Field, ArchiveError> {
        let blob = self.raw(name)?;
        let comp = detect(blob).ok_or(ArchiveError::Corrupt("unknown stream magic"))?;
        Ok(comp.decompress(blob)?)
    }

    /// Decompresses only `range` (row-major element indices) of one
    /// field through its codec's `decompress_range`: a slabbed blob of any
    /// row touches just the slabs that cover it, and `sz`/`sz-fse` stop
    /// decoding where the range ends.
    ///
    /// # Errors
    /// Fails on missing names, corrupt blobs, or an out-of-bounds range.
    pub fn decompress_range(
        &self,
        name: &str,
        range: std::ops::Range<usize>,
    ) -> Result<Vec<f32>, ArchiveError> {
        let blob = self.raw(name)?;
        let comp = detect(blob).ok_or(ArchiveError::Corrupt("unknown stream magic"))?;
        Ok(comp.decompress_range(blob, range)?)
    }

    /// Compressor name of one entry (from its stream magic).
    ///
    /// # Errors
    /// Fails on missing names or unknown magic.
    pub fn compressor_of(&self, name: &str) -> Result<&'static str, ArchiveError> {
        let blob = self.raw(name)?;
        let comp = detect(blob).ok_or(ArchiveError::Corrupt("unknown stream magic"))?;
        Ok(comp.name())
    }
}

/// Parses the legacy v1 leading index.
fn parse_v1(buf: &[u8], limits: ArchiveLimits) -> Result<Vec<Entry>, ArchiveError> {
    let mut pos = MAGIC.len();
    let n = read_varint(buf, &mut pos).ok_or(ArchiveError::Corrupt("missing count"))? as usize;
    if n > buf.len() {
        return Err(ArchiveError::Corrupt("entry count exceeds buffer"));
    }
    if n > limits.max_entries {
        return Err(ArchiveError::Corrupt("entry count exceeds limit"));
    }
    let mut meta = Vec::with_capacity(n);
    for _ in 0..n {
        let name = read_name(buf, &mut pos, limits)?;
        let blob_len =
            read_varint(buf, &mut pos).ok_or(ArchiveError::Corrupt("missing blob len"))? as usize;
        meta.push((name, blob_len));
    }
    let mut entries = Vec::with_capacity(n);
    let mut offset = pos;
    for (name, blob_len) in meta {
        // overflow-proof form of `offset + blob_len > buf.len()`:
        // blob_len comes straight off the wire and may be near u64::MAX
        if blob_len > buf.len() - offset {
            return Err(ArchiveError::Corrupt("blob overruns buffer"));
        }
        entries.push(Entry {
            name,
            offset,
            compressed_len: blob_len,
            codec: 0,
            slabs: Vec::new(),
        });
        offset += blob_len;
    }
    Ok(entries)
}

/// Parses the v2 trailing index (see the crate docs for the layout).
fn parse_v2(buf: &[u8], limits: ArchiveLimits) -> Result<Vec<Entry>, ArchiveError> {
    let tail_at = buf
        .len()
        .checked_sub(8)
        .filter(|&t| t >= MAGIC_V2.len())
        .ok_or(ArchiveError::Corrupt("missing index offset"))?;
    let tail = buf
        .get(tail_at..)
        .ok_or(ArchiveError::Corrupt("missing index offset"))?;
    let index_offset = u64::from_le_bytes(
        tail.try_into()
            .map_err(|_| ArchiveError::Corrupt("missing index offset"))?,
    );
    let index_offset = usize::try_from(index_offset)
        .ok()
        .filter(|&o| o >= MAGIC_V2.len() && o <= tail_at)
        .ok_or(ArchiveError::Corrupt("index offset out of bounds"))?;

    let mut pos = index_offset;
    let n = read_varint(buf, &mut pos).ok_or(ArchiveError::Corrupt("missing count"))? as usize;
    if n > buf.len() {
        return Err(ArchiveError::Corrupt("entry count exceeds buffer"));
    }
    if n > limits.max_entries {
        return Err(ArchiveError::Corrupt("entry count exceeds limit"));
    }
    let mut entries = Vec::with_capacity(n);
    for _ in 0..n {
        let name = read_name(buf, &mut pos, limits)?;
        let blob_offset =
            read_varint(buf, &mut pos).ok_or(ArchiveError::Corrupt("missing blob offset"))?;
        let blob_len =
            read_varint(buf, &mut pos).ok_or(ArchiveError::Corrupt("missing blob len"))?;
        let blob_offset = usize::try_from(blob_offset)
            .ok()
            .filter(|&o| o >= MAGIC_V2.len())
            .ok_or(ArchiveError::Corrupt("blob offset out of bounds"))?;
        let blob_len = usize::try_from(blob_len)
            .ok()
            .filter(|&l| {
                blob_offset
                    .checked_add(l)
                    .is_some_and(|end| end <= index_offset)
            })
            .ok_or(ArchiveError::Corrupt("blob overruns buffer"))?;
        let codec = *bytes_at(buf, &mut pos).ok_or(ArchiveError::Corrupt("missing codec tag"))?;
        let n_slabs =
            read_varint(buf, &mut pos).ok_or(ArchiveError::Corrupt("missing slab count"))?;
        // Each index slab row is at least 9 bytes (three 1-byte varints,
        // a 4-byte checksum, a codec tag); cap the count against the
        // remaining index bytes *before* sizing the allocation.
        let index_left = tail_at.saturating_sub(pos);
        if n_slabs > (index_left / 9) as u64 {
            return Err(ArchiveError::Corrupt("slab count exceeds index"));
        }
        let n_slabs = n_slabs as usize;
        let mut slabs = Vec::with_capacity(n_slabs);
        for _ in 0..n_slabs {
            let offset =
                read_varint(buf, &mut pos).ok_or(ArchiveError::Corrupt("truncated slab row"))?;
            let comp_len =
                read_varint(buf, &mut pos).ok_or(ArchiveError::Corrupt("truncated slab row"))?;
            let raw_elems =
                read_varint(buf, &mut pos).ok_or(ArchiveError::Corrupt("truncated slab row"))?;
            let ck = buf
                .get(pos..pos.saturating_add(4))
                .ok_or(ArchiveError::Corrupt("truncated slab row"))?;
            let checksum = u32::from_le_bytes(
                ck.try_into()
                    .map_err(|_| ArchiveError::Corrupt("truncated slab row"))?,
            );
            pos += 4;
            let slab_codec =
                *bytes_at(buf, &mut pos).ok_or(ArchiveError::Corrupt("truncated slab row"))?;
            let offset = usize::try_from(offset)
                .ok()
                .ok_or(ArchiveError::Corrupt("slab row out of bounds"))?;
            let comp_len = usize::try_from(comp_len)
                .ok()
                .filter(|&l| offset.checked_add(l).is_some_and(|end| end <= blob_len))
                .ok_or(ArchiveError::Corrupt("slab row out of bounds"))?;
            let raw_elems = usize::try_from(raw_elems)
                .ok()
                .ok_or(ArchiveError::Corrupt("slab row out of bounds"))?;
            slabs.push(SlabRow {
                offset,
                comp_len,
                raw_elems,
                checksum,
                codec: slab_codec,
            });
        }
        entries.push(Entry {
            name,
            offset: blob_offset,
            compressed_len: blob_len,
            codec,
            slabs,
        });
    }
    if pos != tail_at {
        return Err(ArchiveError::Corrupt("trailing bytes after index"));
    }
    Ok(entries)
}

/// Reads one length-prefixed UTF-8 name, enforcing `limits`.
fn read_name(buf: &[u8], pos: &mut usize, limits: ArchiveLimits) -> Result<String, ArchiveError> {
    let name_len = read_varint(buf, pos).ok_or(ArchiveError::Corrupt("missing name len"))? as usize;
    if name_len > limits.max_name_len {
        return Err(ArchiveError::Corrupt("name length exceeds limit"));
    }
    let name_bytes = buf
        .get(*pos..pos.saturating_add(name_len))
        .ok_or(ArchiveError::Corrupt("name overruns buffer"))?;
    let name = std::str::from_utf8(name_bytes)
        .map_err(|_| ArchiveError::Corrupt("name not utf-8"))?
        .to_owned();
    *pos += name_len;
    Ok(name)
}

/// Reads one byte and advances `pos`.
fn bytes_at<'b>(buf: &'b [u8], pos: &mut usize) -> Option<&'b u8> {
    let b = buf.get(*pos)?;
    *pos += 1;
    Some(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fxrz_compressors::{fpzip::Fpzip, sz::Sz, zfp::Zfp};
    use fxrz_datagen::Dims;

    fn field(name: &str, seed: usize) -> Field {
        Field::from_fn(name, Dims::d3(8, 8, 8), |c| {
            ((c[0] * 64 + c[1] * 8 + c[2] + seed) as f32 * 0.1).sin()
        })
    }

    #[test]
    fn roundtrip_mixed_compressors() {
        let mut w = ArchiveWriter::new();
        w.add_field(&Sz, &field("density", 0), &ErrorConfig::Abs(1e-3))
            .expect("sz");
        w.add_field(
            &Zfp::default(),
            &field("temperature", 1),
            &ErrorConfig::Abs(1e-3),
        )
        .expect("zfp");
        w.add_field(&Fpzip, &field("velocity", 2), &ErrorConfig::Precision(16))
            .expect("fpzip");
        assert_eq!(w.len(), 3);
        let bytes = w.finish();

        let a = Archive::open(&bytes).expect("open");
        assert_eq!(a.len(), 3);
        assert_eq!(a.compressor_of("density").expect("c"), "sz");
        assert_eq!(a.compressor_of("temperature").expect("c"), "zfp");
        assert_eq!(a.compressor_of("velocity").expect("c"), "fpzip");

        for name in ["density", "temperature", "velocity"] {
            let f = a.get(name).expect("get");
            assert_eq!(f.dims(), Dims::d3(8, 8, 8));
            assert_eq!(f.name(), name);
        }
    }

    #[test]
    fn selective_access_does_not_need_other_blobs() {
        let mut w = ArchiveWriter::new();
        w.add_field(&Sz, &field("a", 0), &ErrorConfig::Abs(1e-2))
            .expect("a");
        w.add_field(&Sz, &field("b", 1), &ErrorConfig::Abs(1e-2))
            .expect("b");
        let bytes = w.finish();
        let a = Archive::open(&bytes).expect("open");
        // corrupt blob `b` in place; reading `a` must still work
        let mut broken = bytes.clone();
        let b_entry = a.entries().iter().find(|e| e.name == "b").expect("b");
        broken[b_entry.offset + 5] ^= 0xFF;
        let archive = Archive::open(&broken).expect("open");
        assert!(archive.get("a").is_ok());
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut w = ArchiveWriter::new();
        w.add_field(&Sz, &field("x", 0), &ErrorConfig::Abs(1e-2))
            .expect("first");
        let err = w.add_field(&Sz, &field("x", 1), &ErrorConfig::Abs(1e-2));
        assert!(matches!(err, Err(ArchiveError::DuplicateField(_))));
    }

    #[test]
    fn missing_field_reported() {
        let mut w = ArchiveWriter::new();
        w.add_field(&Sz, &field("x", 0), &ErrorConfig::Abs(1e-2))
            .expect("x");
        let bytes = w.finish();
        let a = Archive::open(&bytes).expect("open");
        assert!(matches!(a.get("nope"), Err(ArchiveError::NoSuchField(_))));
    }

    #[test]
    fn empty_archive_roundtrips() {
        let bytes = ArchiveWriter::new().finish();
        let a = Archive::open(&bytes).expect("open");
        assert!(a.is_empty());
    }

    #[test]
    fn truncation_never_panics() {
        let mut w = ArchiveWriter::new();
        w.add_field(&Sz, &field("x", 0), &ErrorConfig::Abs(1e-2))
            .expect("x");
        let bytes = w.finish();
        for cut in 0..bytes.len() {
            if let Ok(a) = Archive::open(&bytes[..cut]) {
                let _ = a.get("x");
            }
        }
    }

    #[test]
    fn forged_entry_count_rejected_before_allocation() {
        // header claiming an absurd entry count backed by a big buffer:
        // must fail on the limit check, not allocate index entries for it
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        write_varint(&mut bytes, (1u64 << 17) + 1);
        bytes.resize(1 << 18, 0);
        assert!(matches!(
            Archive::open(&bytes),
            Err(ArchiveError::Corrupt("entry count exceeds limit"))
        ));
        // a raised cap accepts the same count (then fails later on content)
        let relaxed = ArchiveLimits {
            max_entries: 1 << 20,
            ..ArchiveLimits::default()
        };
        assert!(matches!(
            Archive::open_with_limits(&bytes, relaxed),
            Err(ArchiveError::Corrupt(m)) if m != "entry count exceeds limit"
        ));
    }

    #[test]
    fn forged_name_length_rejected() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        write_varint(&mut bytes, 1); // one entry
        write_varint(&mut bytes, 1 << 20); // 1 MiB name
        bytes.resize(1 << 21, b'x');
        assert!(matches!(
            Archive::open(&bytes),
            Err(ArchiveError::Corrupt("name length exceeds limit"))
        ));
    }

    #[test]
    fn huge_blob_length_rejected_without_overflow() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        write_varint(&mut bytes, 1);
        write_varint(&mut bytes, 1);
        bytes.push(b'x');
        write_varint(&mut bytes, u64::MAX); // blob "length"
        assert!(matches!(
            Archive::open(&bytes),
            Err(ArchiveError::Corrupt("blob overruns buffer"))
        ));
    }

    #[test]
    fn limits_do_not_reject_ordinary_archives() {
        let mut w = ArchiveWriter::new();
        w.add_field(&Sz, &field("density", 0), &ErrorConfig::Abs(1e-2))
            .expect("density");
        let bytes = w.finish();
        let tight = ArchiveLimits {
            max_entries: 1,
            max_name_len: 3, // "density" is 7 bytes
        };
        assert!(matches!(
            Archive::open_with_limits(&bytes, tight),
            Err(ArchiveError::Corrupt("name length exceeds limit"))
        ));
        assert!(Archive::open(&bytes).is_ok());
    }

    #[test]
    fn not_an_archive_detected() {
        assert!(matches!(
            Archive::open(b"GARBAGE"),
            Err(ArchiveError::NotAnArchive)
        ));
        assert!(matches!(
            Archive::open(b""),
            Err(ArchiveError::NotAnArchive)
        ));
    }

    /// Serializes entries in the legacy v1 layout (leading index, no
    /// blob offsets): the reader must keep accepting archives written
    /// before the v2 trailing index existed.
    fn finish_v1(entries: &[(String, Vec<u8>)]) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        write_varint(&mut out, entries.len() as u64);
        for (name, blob) in entries {
            write_varint(&mut out, name.len() as u64);
            out.extend_from_slice(name.as_bytes());
            write_varint(&mut out, blob.len() as u64);
        }
        for (_, blob) in entries {
            out.extend_from_slice(blob);
        }
        out
    }

    #[test]
    fn v1_archives_still_open_and_decode() {
        let f = field("legacy", 3);
        let blob = Sz.compress(&f, &ErrorConfig::Abs(1e-3)).expect("compress");
        let bytes = finish_v1(&[("legacy".to_owned(), blob)]);
        let a = Archive::open(&bytes).expect("open v1");
        assert_eq!(a.len(), 1);
        let e = a.entry("legacy").expect("entry");
        assert_eq!(e.codec, 0, "v1 index carries no codec tag");
        assert!(e.slabs.is_empty());
        let back = a.get("legacy").expect("get");
        assert_eq!(back.dims(), f.dims());
        assert!(f.max_abs_diff(&back) <= 1e-3);
    }

    #[test]
    fn v2_writer_output_reopens() {
        let mut w = ArchiveWriter::new();
        w.add_field(&Sz, &field("x", 0), &ErrorConfig::Abs(1e-2))
            .expect("x");
        let bytes = w.finish();
        assert_eq!(&bytes[..6], MAGIC_V2);
        let a = Archive::open(&bytes).expect("open");
        let e = a.entry("x").expect("entry");
        assert_eq!(e.codec, fxrz_compressors::header::magic::SZ);
        assert!(e.slabs.is_empty(), "small field stays monolithic");
    }

    #[test]
    fn v2_index_mirrors_slab_directory() {
        use fxrz_datagen::grf::{gaussian_random_field, GrfConfig};
        // 8 × 256 × 256 = 2 × BLOCK_SYMBOLS elements → two slabs.
        let f = gaussian_random_field(Dims::d3(8, 256, 256), GrfConfig::default().with_seed(9));
        let big = Field::new("big", f.dims(), f.data().to_vec());
        let mut w = ArchiveWriter::new();
        w.add_field(&Sz, &big, &ErrorConfig::Abs(1e-2))
            .expect("big");
        let bytes = w.finish();
        let a = Archive::open(&bytes).expect("open");
        let e = a.entry("big").expect("entry");
        assert_eq!(e.slabs.len(), 2, "expected two slabs in the index");
        let total: usize = e.slabs.iter().map(|s| s.raw_elems).sum();
        assert_eq!(total, big.dims().len());
        let comp: usize = e.slabs.iter().map(|s| s.comp_len).sum();
        assert!(comp <= e.compressed_len);
        // The index must let a reader slice any slab without parsing the
        // blob: check each row's extent lies inside the blob.
        for s in &e.slabs {
            assert!(s.offset + s.comp_len <= e.compressed_len);
            assert_eq!(s.codec, fxrz_compressors::header::magic::SZ);
        }
        // And range decode through the archive equals full-decode slicing.
        let full = a.get("big").expect("full");
        let range = 65_000..70_000;
        let part = a.decompress_range("big", range.clone()).expect("range");
        assert_eq!(part, &full.data()[range]);
    }

    #[test]
    fn v2_forged_index_offset_rejected() {
        let mut w = ArchiveWriter::new();
        w.add_field(&Sz, &field("x", 0), &ErrorConfig::Abs(1e-2))
            .expect("x");
        let bytes = w.finish();
        // Point the trailing offset everywhere: must error or parse, never
        // panic, and an in-blob offset must not be accepted silently as a
        // valid index for the original names.
        for forged in [0u64, 5, 6, 7, u64::MAX, bytes.len() as u64] {
            let mut b = bytes.clone();
            let at = b.len() - 8;
            b[at..].copy_from_slice(&forged.to_le_bytes());
            let _ = Archive::open(&b);
        }
        // Truncating the offset itself is NotAnArchive territory or Corrupt.
        assert!(Archive::open(&bytes[..bytes.len() - 8]).is_err());
    }

    #[test]
    fn lookups_use_sorted_index() {
        let mut w = ArchiveWriter::new();
        for name in ["zeta", "alpha", "mid"] {
            w.add_field(&Sz, &field(name, 0), &ErrorConfig::Abs(1e-2))
                .expect("add");
        }
        let bytes = w.finish();
        let a = Archive::open(&bytes).expect("open");
        // entries() preserves archive order; lookups hit regardless.
        assert_eq!(a.entries()[0].name, "zeta");
        for name in ["alpha", "mid", "zeta"] {
            assert_eq!(a.entry(name).expect("entry").name, name);
        }
        assert!(matches!(a.entry("nope"), Err(ArchiveError::NoSuchField(_))));
    }

    #[test]
    fn add_raw_validates_magic() {
        let mut w = ArchiveWriter::new();
        assert!(w.add_raw("junk", vec![0u8; 16]).is_err());
        let blob = Sz
            .compress(&field("ok", 0), &ErrorConfig::Abs(1e-2))
            .expect("compress");
        assert!(w.add_raw("ok", blob).is_ok());
    }
}
