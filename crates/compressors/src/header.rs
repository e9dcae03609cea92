//! Self-describing stream headers shared by all four compressors.
//!
//! Layout: `magic (1 byte) | name_len varint | name bytes | ndim varint |
//! axis lengths varints | payload…`. The magic byte identifies the
//! compressor so a buffer handed to the wrong [`crate::Compressor`] fails
//! fast instead of decoding garbage.

use crate::CompressError;
use fxrz_datagen::Dims;

/// The LEB128 varint every container in the stack uses (these headers,
/// the slab directory, stream frames); re-exported so crates above this
/// one frame their records without a direct codec dependency.
pub use fxrz_codec::bitstream::{read_varint, varint_len, write_varint};

/// Magic tag per compressor.
pub mod magic {
    /// SZ-style stream.
    pub const SZ: u8 = 0xA1;
    /// ZFP-style stream.
    pub const ZFP: u8 = 0xA2;
    /// FPZIP-style stream.
    pub const FPZIP: u8 = 0xA3;
    /// MGARD-style stream.
    pub const MGARD: u8 = 0xA4;
    /// SZ3-style interpolation stream.
    pub const SZI: u8 = 0xA5;
    /// SZ2-style hybrid (Lorenzo + regression) stream.
    pub const SZ2: u8 = 0xA6;
}

/// Serializes the common header.
pub fn write(out: &mut Vec<u8>, magic: u8, name: &str, dims: Dims) {
    out.push(magic);
    write_varint(out, name.len() as u64);
    out.extend_from_slice(name.as_bytes());
    write_varint(out, dims.ndim() as u64);
    for &n in dims.shape() {
        write_varint(out, n as u64);
    }
}

/// Parses the common header; returns `(name, dims, payload_offset)`.
pub fn read(
    buf: &[u8],
    expect_magic: u8,
    compressor: &'static str,
) -> Result<(String, Dims, usize), CompressError> {
    let &found = buf.first().ok_or(CompressError::Header("empty buffer"))?;
    if found != expect_magic {
        return Err(CompressError::WrongCompressor {
            expected: compressor,
            found,
        });
    }
    let mut pos = 1usize;
    let name_len =
        read_varint(buf, &mut pos).ok_or(CompressError::Header("missing name length"))? as usize;
    let name_bytes = buf
        .get(pos..pos.saturating_add(name_len))
        .ok_or(CompressError::Header("name overruns buffer"))?;
    let name = std::str::from_utf8(name_bytes)
        .map_err(|_| CompressError::Header("name is not utf-8"))?
        .to_owned();
    pos += name_len;
    let ndim = read_varint(buf, &mut pos).ok_or(CompressError::Header("missing ndim"))? as usize;
    if ndim == 0 || ndim > fxrz_datagen::dims::MAX_NDIM {
        return Err(CompressError::Header("ndim out of range"));
    }
    let mut shape = Vec::with_capacity(ndim);
    for _ in 0..ndim {
        let n = read_varint(buf, &mut pos).ok_or(CompressError::Header("missing axis"))? as usize;
        if n == 0 || n > (1 << 30) {
            return Err(CompressError::Header("axis length out of range"));
        }
        shape.push(n);
    }
    // Guards the axis product against overflow only: each decoder
    // checks the count against what its payload can encode before
    // sizing anything from it.
    let total = shape
        .iter()
        .try_fold(1usize, |acc, &n| acc.checked_mul(n))
        .ok_or(CompressError::Header("grid size overflows"))?;
    if total > (1 << 34) {
        return Err(CompressError::Header("grid size implausibly large"));
    }
    Ok((name, Dims::new(&shape), pos))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let mut buf = Vec::new();
        write(&mut buf, magic::SZ, "nyx/baryon", Dims::d3(4, 5, 6));
        buf.extend_from_slice(&[9, 9, 9]);
        let (name, dims, off) = read(&buf, magic::SZ, "sz").expect("read");
        assert_eq!(name, "nyx/baryon");
        assert_eq!(dims, Dims::d3(4, 5, 6));
        assert_eq!(&buf[off..], &[9, 9, 9]);
    }

    #[test]
    fn wrong_magic_detected() {
        let mut buf = Vec::new();
        write(&mut buf, magic::ZFP, "x", Dims::d1(3));
        match read(&buf, magic::SZ, "sz") {
            Err(CompressError::WrongCompressor { expected, found }) => {
                assert_eq!(expected, "sz");
                assert_eq!(found, magic::ZFP);
            }
            other => panic!("expected WrongCompressor, got {other:?}"),
        }
    }

    #[test]
    fn truncation_detected() {
        let mut buf = Vec::new();
        write(&mut buf, magic::FPZIP, "abcdef", Dims::d2(7, 8));
        for cut in 0..buf.len() {
            assert!(read(&buf[..cut], magic::FPZIP, "fpzip").is_err());
        }
    }

    #[test]
    fn empty_buffer_is_header_error() {
        assert!(matches!(
            read(&[], magic::SZ, "sz"),
            Err(CompressError::Header(_))
        ));
    }
}
