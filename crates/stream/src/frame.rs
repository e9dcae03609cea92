//! The `FXRZS1` frame container: wire format, scanning, and per-frame
//! decode.
//!
//! A stream is a fixed header, any number of self-delimiting frames, and
//! a trailer that pins the totals:
//!
//! ```text
//! magic "FXRZS1"                                <- 6 bytes
//! f64 LE target_ratio                           <- global fixed-ratio target
//! varint window                                 <- controller window, frames
//! frames x { u8 codec tag                       <- the row's `frame_tag` in
//!                                                  fxrz_compressors::CODECS
//!                                                  (its stream magic, except
//!                                                  sz-fse's own byte)
//!            varint sample_count
//!            f64 LE eb                          <- error bound applied
//!            varint payload_len
//!            u32 LE checksum                    <- FNV-1a over payload bytes
//!            payload }                          <- complete compressor stream
//! u8 0x00                                       <- trailer tag
//! varint total_frames
//! varint total_samples
//! u32 LE checksum                               <- over the two total varints
//! ```
//!
//! Every frame carries a complete self-describing compressor stream, so
//! frames decode independently and in any order; a reader seeks by
//! summing `payload_len`s without touching payload bytes. Like the slab
//! container, the checksum is verified **before** any payload byte is
//! interpreted. All parsing here is panic-free (clippy's panic lints
//! are denied below): malformed input yields typed [`StreamError`]s,
//! never a panic.

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

use fxrz_compressors::header::{read_varint, write_varint};
use fxrz_compressors::{detect, slab, Codec, CompressError, CODECS};

/// Stream magic ("FXRZS1").
pub const MAGIC: [u8; 6] = *b"FXRZS1";
/// Trailer tag byte; never a valid frame codec tag (asserted against the
/// codec table at compile time, in the crate root).
pub const TRAILER_TAG: u8 = 0x00;
/// Cap on samples per frame (16 Mi samples = 64 MiB raw).
pub const MAX_FRAME_SAMPLES: usize = 1 << 24;
/// Cap on the controller window carried in the header.
pub const MAX_WINDOW: u64 = 1 << 16;

/// Failures of stream parsing, encoding, or per-frame decode.
#[derive(Debug)]
pub enum StreamError {
    /// The stream header (or trailer) is malformed.
    Header(&'static str),
    /// The byte sequence ended before a complete structure.
    Truncated(&'static str),
    /// Frame `index` violates the format.
    Frame {
        /// Zero-based frame index.
        index: u64,
        /// What was violated.
        reason: &'static str,
    },
    /// Frame `index` failed its FNV-1a payload checksum.
    Checksum {
        /// Zero-based frame index.
        index: u64,
    },
    /// Frame `index`'s payload failed to decode.
    Codec {
        /// Zero-based frame index.
        index: u64,
        /// The compressor-level failure.
        source: CompressError,
    },
    /// An encoder configuration was rejected.
    BadConfig(String),
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::Header(m) => write!(f, "bad stream header: {m}"),
            StreamError::Truncated(m) => write!(f, "truncated stream: {m}"),
            StreamError::Frame { index, reason } => write!(f, "frame {index}: {reason}"),
            StreamError::Checksum { index } => write!(f, "frame {index}: checksum mismatch"),
            StreamError::Codec { index, source } => {
                write!(f, "frame {index}: payload decode failed: {source}")
            }
            StreamError::BadConfig(m) => write!(f, "bad stream config: {m}"),
        }
    }
}

impl std::error::Error for StreamError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StreamError::Codec { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// The fixed stream header.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StreamHeader {
    /// Global target compression ratio the stream was encoded for.
    pub target_ratio: f64,
    /// Sliding-window length (frames) of the ratio controller.
    pub window: u64,
}

/// One parsed frame directory entry; payload bytes stay in place.
#[derive(Clone, Copy, Debug)]
pub struct FrameView {
    /// Zero-based frame index.
    pub index: u64,
    /// Codec tag byte (see [`codec_name`]).
    pub codec: u8,
    /// Decoded sample count promised by the header.
    pub samples: usize,
    /// Error bound the encoder applied.
    pub eb: f64,
    /// Byte offset of the payload within the stream.
    pub payload_offset: usize,
    /// Payload length in bytes.
    pub payload_len: usize,
    /// FNV-1a checksum over the payload bytes.
    pub checksum: u32,
}

/// Stream totals pinned by the trailer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Trailer {
    /// Number of frames in the stream.
    pub frames: u64,
    /// Total decoded samples across all frames.
    pub samples: u64,
}

/// Full scan result: header, frame directory, trailer.
#[derive(Debug)]
pub struct StreamScan {
    /// The stream header.
    pub header: StreamHeader,
    /// Every frame, in stream order.
    pub frames: Vec<FrameView>,
    /// The verified trailer.
    pub trailer: Trailer,
}

/// The codec-table row whose frames carry `tag`.
fn framed(tag: u8) -> Option<&'static Codec> {
    CODECS.iter().find(|c| c.frame_tag == Some(tag))
}

/// The payload stream-magic byte a frame with `tag` must start with, or
/// `None` for unknown tags.
pub fn family(tag: u8) -> Option<u8> {
    framed(tag).map(|c| c.magic)
}

/// Registry name of a codec tag (for inspection and telemetry).
pub fn codec_name(tag: u8) -> Option<&'static str> {
    framed(tag).map(|c| c.name)
}

/// Codec tag of a registry name (encoder side).
pub fn tag_for(name: &str) -> Option<u8> {
    CODECS.iter().find(|c| c.name == name)?.frame_tag
}

/// Serializes the stream header.
pub fn write_header(out: &mut Vec<u8>, header: &StreamHeader) {
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&header.target_ratio.to_le_bytes());
    write_varint(out, header.window);
}

/// Parses the stream header, returning it and the offset of the first
/// frame.
///
/// # Errors
/// Fails on short input, wrong magic, or out-of-range header fields.
pub fn read_header(bytes: &[u8]) -> Result<(StreamHeader, usize), StreamError> {
    let head = bytes
        .get(..MAGIC.len())
        .ok_or(StreamError::Truncated("missing magic"))?;
    if head != MAGIC {
        return Err(StreamError::Header("wrong magic"));
    }
    let mut pos = MAGIC.len();
    let ratio_bytes: [u8; 8] = bytes
        .get(pos..pos + 8)
        .and_then(|b| b.try_into().ok())
        .ok_or(StreamError::Truncated("missing target ratio"))?;
    pos += 8;
    let target_ratio = f64::from_le_bytes(ratio_bytes);
    if !(target_ratio.is_finite() && target_ratio >= 1.0) {
        return Err(StreamError::Header("target ratio not finite or < 1"));
    }
    let window =
        read_varint(bytes, &mut pos).ok_or(StreamError::Truncated("missing window varint"))?;
    if window == 0 || window > MAX_WINDOW {
        return Err(StreamError::Header("window out of range"));
    }
    Ok((
        StreamHeader {
            target_ratio,
            window,
        },
        pos,
    ))
}

/// Serializes one frame record (header + payload).
pub fn write_frame(out: &mut Vec<u8>, codec: u8, samples: u64, eb: f64, payload: &[u8]) {
    out.push(codec);
    write_varint(out, samples);
    out.extend_from_slice(&eb.to_le_bytes());
    write_varint(out, payload.len() as u64);
    out.extend_from_slice(&slab::checksum(payload).to_le_bytes());
    out.extend_from_slice(payload);
}

/// Serializes the trailer.
pub fn write_trailer(out: &mut Vec<u8>, trailer: &Trailer) {
    out.push(TRAILER_TAG);
    let mut totals = Vec::with_capacity(20);
    write_varint(&mut totals, trailer.frames);
    write_varint(&mut totals, trailer.samples);
    out.extend_from_slice(&totals);
    out.extend_from_slice(&slab::checksum(&totals).to_le_bytes());
}

fn read_u32_le(bytes: &[u8], pos: &mut usize) -> Option<u32> {
    let b: [u8; 4] = bytes.get(*pos..*pos + 4)?.try_into().ok()?;
    *pos += 4;
    Some(u32::from_le_bytes(b))
}

fn read_f64_le(bytes: &[u8], pos: &mut usize) -> Option<f64> {
    let b: [u8; 8] = bytes.get(*pos..*pos + 8)?.try_into().ok()?;
    *pos += 8;
    Some(f64::from_le_bytes(b))
}

/// Walks the whole stream: header, every frame header (payloads are
/// skipped, not read), and the trailer. Totals must match the walked
/// frames and the stream must end exactly at the trailer.
///
/// # Errors
/// Every malformation is a typed [`StreamError`]; nothing panics.
pub fn scan(bytes: &[u8]) -> Result<StreamScan, StreamError> {
    let (header, mut pos) = read_header(bytes)?;
    let mut frames = Vec::new();
    let mut samples_total = 0u64;
    loop {
        let tag = *bytes
            .get(pos)
            .ok_or(StreamError::Truncated("missing frame tag or trailer"))?;
        pos += 1;
        if tag == TRAILER_TAG {
            let totals_start = pos;
            let frames_total = read_varint(bytes, &mut pos)
                .ok_or(StreamError::Truncated("missing trailer frame count"))?;
            let samples_claim = read_varint(bytes, &mut pos)
                .ok_or(StreamError::Truncated("missing trailer sample count"))?;
            let totals = bytes
                .get(totals_start..pos)
                .ok_or(StreamError::Truncated("missing trailer totals"))?;
            let want = read_u32_le(bytes, &mut pos)
                .ok_or(StreamError::Truncated("missing trailer checksum"))?;
            if slab::checksum(totals) != want {
                return Err(StreamError::Header("trailer checksum mismatch"));
            }
            if frames_total != frames.len() as u64 {
                return Err(StreamError::Header("trailer frame count mismatch"));
            }
            if samples_claim != samples_total {
                return Err(StreamError::Header("trailer sample count mismatch"));
            }
            if pos != bytes.len() {
                return Err(StreamError::Header("trailing bytes after trailer"));
            }
            return Ok(StreamScan {
                header,
                frames,
                trailer: Trailer {
                    frames: frames_total,
                    samples: samples_total,
                },
            });
        }
        let index = frames.len() as u64;
        if family(tag).is_none() {
            return Err(StreamError::Frame {
                index,
                reason: "unknown codec tag",
            });
        }
        let samples = read_varint(bytes, &mut pos)
            .ok_or(StreamError::Truncated("missing frame sample-count varint"))?;
        if samples == 0 || samples > MAX_FRAME_SAMPLES as u64 {
            return Err(StreamError::Frame {
                index,
                reason: "sample count out of range",
            });
        }
        let eb = read_f64_le(bytes, &mut pos)
            .ok_or(StreamError::Truncated("missing frame error bound"))?;
        let payload_len = read_varint(bytes, &mut pos).ok_or(StreamError::Truncated(
            "missing frame payload-length varint",
        ))?;
        let checksum =
            read_u32_le(bytes, &mut pos).ok_or(StreamError::Truncated("missing frame checksum"))?;
        let payload_offset = pos;
        let end = payload_offset
            .checked_add(payload_len as usize)
            .filter(|&e| e <= bytes.len())
            .ok_or(StreamError::Truncated("frame payload overruns stream"))?;
        if payload_len == 0 {
            return Err(StreamError::Frame {
                index,
                reason: "empty payload",
            });
        }
        samples_total = samples_total
            .checked_add(samples)
            .ok_or(StreamError::Header("total sample count overflows"))?;
        frames.push(FrameView {
            index,
            codec: tag,
            samples: samples as usize,
            eb,
            payload_offset,
            payload_len: payload_len as usize,
            checksum,
        });
        pos = end;
    }
}

/// Returns the payload slice of `view` after verifying its checksum —
/// the checksum-before-payload discipline shared with the slab
/// container: no payload byte is interpreted before the hash matches.
///
/// # Errors
/// Fails when the slice is out of bounds or the checksum mismatches.
pub fn verify_payload<'a>(bytes: &'a [u8], view: &FrameView) -> Result<&'a [u8], StreamError> {
    let payload = bytes
        .get(view.payload_offset..view.payload_offset + view.payload_len)
        .ok_or(StreamError::Truncated("frame payload overruns stream"))?;
    if slab::checksum(payload) != view.checksum {
        return Err(StreamError::Checksum { index: view.index });
    }
    Ok(payload)
}

/// Decodes one frame independently of every other frame: checksum, then
/// stream-family check, then the self-describing payload decode, then a
/// sample-count cross-check against the frame header.
///
/// # Errors
/// Typed errors for checksum, family, codec, and shape violations.
pub fn decode_frame(bytes: &[u8], view: &FrameView) -> Result<Vec<f32>, StreamError> {
    let payload = verify_payload(bytes, view)?;
    let want_magic = family(view.codec).ok_or(StreamError::Frame {
        index: view.index,
        reason: "unknown codec tag",
    })?;
    if payload.first() != Some(&want_magic) {
        return Err(StreamError::Frame {
            index: view.index,
            reason: "payload magic disagrees with codec tag",
        });
    }
    let comp = detect(payload).ok_or(StreamError::Frame {
        index: view.index,
        reason: "unrecognized payload stream magic",
    })?;
    let field = comp
        .decompress(payload)
        .map_err(|source| StreamError::Codec {
            index: view.index,
            source,
        })?;
    if field.dims().len() != view.samples {
        return Err(StreamError::Frame {
            index: view.index,
            reason: "decoded sample count disagrees with frame header",
        });
    }
    Ok(field.into_data())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fxrz_compressors::header::magic;

    fn sample_stream() -> Vec<u8> {
        use fxrz_compressors::Compressor as _;
        let field = fxrz_datagen::Field::from_fn("f", fxrz_datagen::Dims::d1(64), |c| {
            (c[0] as f32 * 0.1).sin()
        });
        let payload = fxrz_compressors::sz::Sz
            .compress(&field, &fxrz_compressors::ErrorConfig::Abs(1e-3))
            .expect("compress");
        let mut out = Vec::new();
        write_header(
            &mut out,
            &StreamHeader {
                target_ratio: 10.0,
                window: 8,
            },
        );
        write_frame(&mut out, magic::SZ, 64, 1e-3, &payload);
        write_frame(&mut out, magic::SZ, 64, 1e-3, &payload);
        write_trailer(
            &mut out,
            &Trailer {
                frames: 2,
                samples: 128,
            },
        );
        out
    }

    #[test]
    fn scan_roundtrips() {
        let stream = sample_stream();
        let scan = scan(&stream).expect("scan");
        assert_eq!(scan.header.target_ratio, 10.0);
        assert_eq!(scan.header.window, 8);
        assert_eq!(scan.frames.len(), 2);
        assert_eq!(scan.trailer.frames, 2);
        assert_eq!(scan.trailer.samples, 128);
        for view in &scan.frames {
            assert_eq!(view.samples, 64);
            let data = decode_frame(&stream, view).expect("decode");
            assert_eq!(data.len(), 64);
        }
    }

    #[test]
    fn every_truncation_is_a_typed_error() {
        let stream = sample_stream();
        for cut in 0..stream.len() {
            assert!(scan(&stream[..cut]).is_err(), "cut {cut} must fail");
        }
    }

    #[test]
    fn corrupted_payload_fails_checksum_before_decode() {
        let stream = sample_stream();
        let parsed = scan(&stream).expect("scan");
        let mut bad = stream.clone();
        let off = parsed.frames[0].payload_offset + 3;
        bad[off] ^= 0xFF;
        assert!(matches!(
            decode_frame(&bad, &parsed.frames[0]),
            Err(StreamError::Checksum { index: 0 })
        ));
    }

    #[test]
    fn tag_name_family_tables_agree() {
        for name in ["sz", "szi", "sz2", "sz-fse"] {
            let tag = tag_for(name).expect("tag");
            assert_eq!(codec_name(tag), Some(name));
            assert!(family(tag).is_some());
        }
        assert_eq!(tag_for("zfp"), None);
        assert_eq!(family(TRAILER_TAG), None);
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut stream = sample_stream();
        stream.push(0xAB);
        assert!(matches!(scan(&stream), Err(StreamError::Header(_))));
    }
}
