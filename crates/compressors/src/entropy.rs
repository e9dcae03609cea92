//! Per-block entropy-backend selection for the SZ-family pipelines.
//!
//! The quantization-code stream is split into [`BLOCK_SYMBOLS`]-symbol
//! blocks and each block is coded with whichever backend — canonical
//! Huffman or tANS/FSE — its histogram prices cheaper (SZ3's composable
//! stage design; the estimate is a closed-form byte count, cheap enough
//! to run on every block as SZx argues a selection heuristic must be).
//! A one-byte tag per block keeps the archive self-describing.
//!
//! ## Wire format
//!
//! The container replaces the bare `varint(len) | huffman` entropy
//! section of the pre-existing SZ-family payloads. [`huffman::encode`]
//! never produces an empty buffer, so a zero length is free as a version
//! sentinel and every pre-existing stream still decodes byte-identically
//! through the legacy branch:
//!
//! ```text
//! legacy:  varint(huff_len > 0) | huffman stream
//! v2:      varint(0) | varint(total_symbols) | varint(n_blocks)
//!          then per block: tag(1B) | varint(len) | backend stream
//! ```
//!
//! Tags: `0` = Huffman, `1` = FSE; anything else is a typed decode error.

use crate::{names, CompressError};
use fxrz_codec::bitstream::{read_varint, write_varint};
use fxrz_codec::{fse, huffman, CodecScratch};

/// Symbols per selection block (2^18; a 64³ field is exactly one block,
/// so small fields pay a single table build while long streams adapt to
/// distribution drift every megabyte of codes).
pub const BLOCK_SYMBOLS: usize = 1 << 18;

/// Per-block tag for a canonical-Huffman payload.
pub const TAG_HUFFMAN: u8 = 0;
/// Per-block tag for a tANS/FSE payload.
pub const TAG_FSE: u8 = 1;

/// How the entropy stage chooses its backend.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EntropyMode {
    /// Per block, whichever backend estimates the smaller output.
    Auto,
    /// Legacy single Huffman stream (the pre-container wire format).
    Huffman,
    /// FSE for every block that fits its alphabet bound (wide-alphabet
    /// blocks still fall back to Huffman, tagged accordingly).
    Fse,
}

/// Distinct symbols (ascending) and their counts for one block.
fn histogram(block: &[u32]) -> (Vec<u32>, Vec<u64>) {
    if block.is_empty() {
        return (Vec::new(), Vec::new());
    }
    let mut min = u32::MAX;
    let mut max = 0u32;
    for &s in block {
        min = min.min(s);
        max = max.max(s);
    }
    let span = (max - min) as usize + 1;
    let mut dict = Vec::new();
    let mut freqs = Vec::new();
    if span <= (1usize << 20).max(4 * block.len()) {
        let mut counts = vec![0u64; span];
        for &s in block {
            counts[(s - min) as usize] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            if c > 0 {
                dict.push(min + i as u32);
                freqs.push(c);
            }
        }
    } else {
        let mut sorted = block.to_vec();
        sorted.sort_unstable();
        for &s in &sorted {
            if dict.last() == Some(&s) {
                *freqs.last_mut().expect("freqs tracks dict") += 1;
            } else {
                dict.push(s);
                freqs.push(1);
            }
        }
    }
    (dict, freqs)
}

/// Encodes one block with the cheaper backend and appends
/// `tag | varint(len) | stream` to `out`.
fn encode_block(scratch: &mut CodecScratch, block: &[u32], force_fse: bool, out: &mut Vec<u8>) {
    let (dict, freqs) = histogram(block);
    let count = block.len() as u64;
    let want_fse = if force_fse {
        dict.len() <= fse::MAX_SYMBOLS
    } else {
        // Strict inequality: on a tie the legacy backend wins, so pure
        // two-symbol blocks (where both are optimal) stay Huffman.
        fse::cost_bytes(&dict, &freqs, count)
            .is_some_and(|f| f < huffman::cost_bytes(&dict, &freqs, count))
    };
    let registry = fxrz_telemetry::global();
    if want_fse {
        if let Some(stream) = fse::encode_with(scratch, block) {
            registry.incr(names::ENTROPY_BLOCKS_FSE);
            out.push(TAG_FSE);
            write_varint(out, stream.len() as u64);
            out.extend_from_slice(&stream);
            return;
        }
    }
    registry.incr(names::ENTROPY_BLOCKS_HUFFMAN);
    let stream = huffman::encode_with(scratch, block);
    out.push(TAG_HUFFMAN);
    write_varint(out, stream.len() as u64);
    out.extend_from_slice(&stream);
}

/// Appends the entropy-coded form of `codes` to `out` (the section the
/// SZ-family payloads place between the error bound and the
/// unpredictable values). [`EntropyMode::Huffman`] reproduces the legacy
/// wire format byte-for-byte; the other modes emit the v2 container.
pub fn encode_codes(
    scratch: &mut CodecScratch,
    codes: &[u32],
    mode: EntropyMode,
    out: &mut Vec<u8>,
) {
    if mode == EntropyMode::Huffman {
        let stream = huffman::encode_with(scratch, codes);
        write_varint(out, stream.len() as u64);
        out.extend_from_slice(&stream);
        return;
    }
    write_varint(out, 0); // v2 sentinel: huffman streams are never empty
    write_varint(out, codes.len() as u64);
    write_varint(out, codes.len().div_ceil(BLOCK_SYMBOLS) as u64);
    for block in codes.chunks(BLOCK_SYMBOLS) {
        encode_block(scratch, block, mode == EntropyMode::Fse, out);
    }
}

/// Decodes the first `stop` codes of the entropy section at
/// `payload[*pos..]` (all of them once `stop >= expected`), advancing
/// `pos` past the whole section. `expected` is the out-of-band symbol
/// count (the field's element count from the archive header); it bounds
/// every allocation, and a whole decode must yield exactly that many
/// codes. A prefix decode checks every block it decodes and steps over
/// the later ones by their length fields, reading none of their bytes.
pub fn decode_codes(
    payload: &[u8],
    pos: &mut usize,
    expected: usize,
    stop: usize,
) -> Result<Vec<u32>, CompressError> {
    let stop = stop.min(expected);
    let lead = read_varint(payload, pos)
        .ok_or(CompressError::Header("missing entropy section length"))? as usize;
    if lead != 0 {
        // Legacy stream: a single Huffman block of `lead` bytes.
        let end = pos
            .checked_add(lead)
            .filter(|&e| e <= payload.len())
            .ok_or(CompressError::Header("huffman block overruns payload"))?;
        let codes = huffman::decode_limited(&payload[*pos..end], expected, stop)?;
        *pos = end;
        if codes.len() != stop {
            return Err(CompressError::Header("code count mismatch"));
        }
        return Ok(codes);
    }
    let total = read_varint(payload, pos).ok_or(CompressError::Header("missing symbol count"))?;
    if total != expected as u64 {
        return Err(CompressError::Header("code count mismatch"));
    }
    let n_blocks =
        read_varint(payload, pos).ok_or(CompressError::Header("missing block count"))? as usize;
    // Every block must decode at least one symbol, so more blocks than
    // symbols is structurally impossible.
    if n_blocks > expected {
        return Err(CompressError::Header("more entropy blocks than symbols"));
    }
    let mut out: Vec<u32> = Vec::with_capacity(stop.min(1 << 20));
    for _ in 0..n_blocks {
        let tag = *payload
            .get(*pos)
            .ok_or(CompressError::Header("missing entropy backend tag"))?;
        *pos += 1;
        let decode: fn(&[u8], usize, usize) -> Result<Vec<u32>, _> = match tag {
            TAG_HUFFMAN => huffman::decode_limited,
            TAG_FSE => fse::decode_limited,
            _ => return Err(CompressError::Header("unknown entropy backend tag")),
        };
        let len = read_varint(payload, pos)
            .ok_or(CompressError::Header("missing entropy block length"))?
            as usize;
        let end = pos
            .checked_add(len)
            .filter(|&e| e <= payload.len())
            .ok_or(CompressError::Header("entropy block overruns payload"))?;
        if out.len() < stop {
            let syms = decode(&payload[*pos..end], expected - out.len(), stop - out.len())?;
            if syms.is_empty() {
                return Err(CompressError::Header("entropy block symbol count mismatch"));
            }
            out.extend_from_slice(&syms);
        }
        *pos = end;
    }
    if out.len() != stop {
        return Err(CompressError::Header("code count mismatch"));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fxrz_codec::with_scratch;

    fn roundtrip(codes: &[u32], mode: EntropyMode) -> Vec<u8> {
        let mut out = Vec::new();
        with_scratch(|s| encode_codes(s, codes, mode, &mut out));
        let mut pos = 0;
        let back = decode_codes(&out, &mut pos, codes.len(), codes.len()).expect("decode");
        assert_eq!(back, codes);
        assert_eq!(pos, out.len(), "decode must consume the whole section");
        out
    }

    #[test]
    fn all_modes_roundtrip() {
        let codes: Vec<u32> = (0..10_000u32).map(|i| 32768 + (i % 21)).collect();
        for mode in [EntropyMode::Auto, EntropyMode::Huffman, EntropyMode::Fse] {
            roundtrip(&codes, mode);
        }
    }

    #[test]
    fn huffman_mode_matches_legacy_wire_format() {
        let codes: Vec<u32> = (0..500u32).map(|i| i % 17).collect();
        let out = roundtrip(&codes, EntropyMode::Huffman);
        let stream = fxrz_codec::huffman::encode(&codes);
        let mut legacy = Vec::new();
        write_varint(&mut legacy, stream.len() as u64);
        legacy.extend_from_slice(&stream);
        assert_eq!(out, legacy);
    }

    #[test]
    fn auto_mode_never_larger_than_huffman() {
        // Skewed codes: FSE should win and shrink the section.
        let mut codes = vec![32768u32; 40_000];
        codes.extend(std::iter::repeat_n(32769u32, 3000));
        codes.extend(std::iter::repeat_n(32767u32, 900));
        codes.extend(std::iter::repeat_n(0u32, 10));
        let auto = roundtrip(&codes, EntropyMode::Auto);
        let huff = roundtrip(&codes, EntropyMode::Huffman);
        assert!(auto.len() <= huff.len(), "{} vs {}", auto.len(), huff.len());
    }

    #[test]
    fn multi_block_streams_roundtrip() {
        let codes: Vec<u32> = (0..BLOCK_SYMBOLS + 123).map(|i| (i % 300) as u32).collect();
        roundtrip(&codes, EntropyMode::Auto);
        roundtrip(&codes, EntropyMode::Fse);
    }

    #[test]
    fn prefix_decode_steps_over_later_blocks() {
        let codes: Vec<u32> = (0..BLOCK_SYMBOLS + 77).map(|i| (i % 300) as u32).collect();
        let n = codes.len();
        for mode in [EntropyMode::Auto, EntropyMode::Huffman, EntropyMode::Fse] {
            let mut out = Vec::new();
            with_scratch(|s| encode_codes(s, &codes, mode, &mut out));
            for stop in [0, 1, 4097, BLOCK_SYMBOLS, BLOCK_SYMBOLS + 1, n, usize::MAX] {
                let mut pos = 0;
                let got = decode_codes(&out, &mut pos, n, stop).expect("prefix");
                assert_eq!(got, codes[..stop.min(n)], "{mode:?} stop {stop}");
                assert_eq!(pos, out.len(), "{mode:?}: the section's end is reached");
            }
        }
        // Damage confined to a block the prefix never decodes goes
        // unreported: zeroing the last block's terminator byte fails only
        // the decode that reaches it.
        let mut out = Vec::new();
        with_scratch(|s| encode_codes(s, &codes, EntropyMode::Fse, &mut out));
        *out.last_mut().expect("nonempty") = 0;
        assert!(decode_codes(&out, &mut 0, n, n).is_err());
        let got = decode_codes(&out, &mut 0, n, 100).expect("block 0 only");
        assert_eq!(got, codes[..100]);
    }

    #[test]
    fn empty_stream_roundtrips() {
        for mode in [EntropyMode::Auto, EntropyMode::Huffman, EntropyMode::Fse] {
            roundtrip(&[], mode);
        }
    }

    #[test]
    fn unknown_tag_is_a_typed_error() {
        let codes: Vec<u32> = (0..100u32).collect();
        let mut out = Vec::new();
        with_scratch(|s| encode_codes(s, &codes, EntropyMode::Fse, &mut out));
        // sentinel(1) + total(1) + n_blocks(1): the tag byte is at 3
        assert_eq!(out[..3], [0, 100, 1]);
        out[3] = 0x7F;
        let mut pos = 0;
        assert!(matches!(
            decode_codes(&out, &mut pos, codes.len(), codes.len()),
            Err(CompressError::Header("unknown entropy backend tag"))
        ));
    }

    #[test]
    fn count_mismatch_is_a_typed_error() {
        let codes: Vec<u32> = (0..100u32).collect();
        for mode in [EntropyMode::Auto, EntropyMode::Huffman] {
            let mut out = Vec::new();
            with_scratch(|s| encode_codes(s, &codes, mode, &mut out));
            let mut pos = 0;
            assert!(decode_codes(&out, &mut pos, 99, 99).is_err());
        }
    }

    #[test]
    fn truncation_is_a_typed_error() {
        let codes: Vec<u32> = (0..2000u32).map(|i| i % 9).collect();
        let mut out = Vec::new();
        with_scratch(|s| encode_codes(s, &codes, EntropyMode::Auto, &mut out));
        for cut in 0..out.len() {
            let mut pos = 0;
            assert!(
                decode_codes(&out[..cut], &mut pos, codes.len(), codes.len()).is_err(),
                "cut {cut} decoded"
            );
        }
    }
}
