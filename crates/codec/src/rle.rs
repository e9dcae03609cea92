//! Zero-run-length encoding for sparse symbol streams.
//!
//! Quantized multilevel coefficients (the MGARD-style pipeline) are
//! dominated by zeros at coarse error budgets. This pass replaces zero
//! runs with compact run tokens. `mgard` writes the tokens straight into
//! LZ77, with no entropy coder between them.
//!
//! Token stream (varints): `run_len, nonzero_symbol, run_len, nonzero_symbol,
//! …` — a run length of `k` means `k` zeros precede the following symbol.
//! The stream ends with a final `run_len` covering trailing zeros.

use crate::bitstream::{read_varint, write_varint};
use crate::names;
use crate::CodecError;

/// Encodes a `u32` symbol stream with zero-run tokens.
pub fn encode(symbols: &[u32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(symbols.len() / 4 + 16);
    write_varint(&mut out, symbols.len() as u64);
    // Scan run-at-a-time rather than symbol-at-a-time: `position` over the
    // remaining slice lets the compiler vectorize the zero scan, which is
    // where sparse streams spend nearly all their time.
    let mut rest = symbols;
    loop {
        match rest.iter().position(|&s| s != 0) {
            Some(i) => {
                write_varint(&mut out, i as u64);
                write_varint(&mut out, rest[i] as u64);
                rest = &rest[i + 1..];
            }
            None => {
                write_varint(&mut out, rest.len() as u64);
                break;
            }
        }
    }
    let registry = fxrz_telemetry::global();
    registry.incr(names::RLE_ENCODE_CALLS);
    registry.add(names::RLE_ENCODE_SYMBOLS_IN, symbols.len() as u64);
    registry.add(names::RLE_ENCODE_BYTES_OUT, out.len() as u64);
    out
}

/// Symbol-count ceiling for [`decode`]: RLE legitimately expands a
/// handful of bytes into an enormous zero run, so without a cap a forged
/// stream could demand an arbitrary allocation from a few input bytes.
/// 2^26 symbols (256 MiB decoded) comfortably covers every block this
/// pipeline produces while bounding the damage of a hostile stream.
const DEFAULT_DECODE_LIMIT: usize = 1 << 26;

/// Decodes a buffer produced by [`encode`], capping the claimed symbol
/// count at a conservative default ([`CodecError::Corrupt`] beyond it).
///
/// The output size is attacker-controlled for untrusted data — callers
/// that know the expected symbol count should use [`decode_limited`],
/// which both rejects forgeries exactly and pre-sizes the output.
pub fn decode(buf: &[u8]) -> Result<Vec<u32>, CodecError> {
    decode_limited(buf, DEFAULT_DECODE_LIMIT)
}

/// Like [`decode`], but errors with [`CodecError::Corrupt`] when the stream
/// claims more than `max_total` symbols — the allocation guard for decoding
/// untrusted streams whose symbol count is known out of band.
pub fn decode_limited(buf: &[u8], max_total: usize) -> Result<Vec<u32>, CodecError> {
    let out = decode_limited_unmetered(buf, max_total);
    let registry = fxrz_telemetry::global();
    registry.incr(names::RLE_DECODE_CALLS);
    registry.add(names::RLE_DECODE_BYTES_IN, buf.len() as u64);
    match &out {
        Ok(symbols) => registry.add(names::RLE_DECODE_SYMBOLS_OUT, symbols.len() as u64),
        Err(_) => registry.incr(names::RLE_DECODE_ERRORS),
    }
    out
}

fn decode_limited_unmetered(buf: &[u8], max_total: usize) -> Result<Vec<u32>, CodecError> {
    let mut pos = 0usize;
    let total = read_varint(buf, &mut pos).ok_or(CodecError::Truncated)? as usize;
    if total > max_total {
        return Err(CodecError::Corrupt("symbol count exceeds caller limit"));
    }
    // A tight caller-supplied bound vouches for `total`, so pre-size
    // exactly and skip all regrowth; the permissive default cap does not
    // vouch, so there the speculative allocation is bounded too (the Vec
    // still grows as needed; truncated streams error out before reaching
    // absurd sizes).
    let cap = if max_total < DEFAULT_DECODE_LIMIT {
        total
    } else {
        total.min(1 << 20)
    };
    let mut out = Vec::with_capacity(cap);
    while out.len() < total {
        let run = read_varint(buf, &mut pos).ok_or(CodecError::Truncated)? as usize;
        if out.len() + run > total {
            return Err(CodecError::Corrupt("zero run overruns output"));
        }
        out.resize(out.len() + run, 0);
        if out.len() == total {
            break;
        }
        let sym = read_varint(buf, &mut pos).ok_or(CodecError::Truncated)? as u32;
        if sym == 0 {
            return Err(CodecError::Corrupt("explicit zero symbol"));
        }
        out.push(sym);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(symbols: &[u32]) -> usize {
        let enc = encode(symbols);
        assert_eq!(decode(&enc).expect("decode"), symbols);
        enc.len()
    }

    #[test]
    fn empty() {
        roundtrip(&[]);
    }

    #[test]
    fn all_zeros_tiny() {
        let n = roundtrip(&vec![0u32; 1_000_000]);
        assert!(n < 16, "len {n}");
    }

    #[test]
    fn no_zeros() {
        roundtrip(&[5, 6, 7, 8, 9]);
    }

    #[test]
    fn alternating() {
        let symbols: Vec<u32> = (0..1000).map(|i| if i % 2 == 0 { 0 } else { 3 }).collect();
        roundtrip(&symbols);
    }

    #[test]
    fn trailing_zeros() {
        roundtrip(&[1, 2, 0, 0, 0, 0]);
    }

    #[test]
    fn leading_zeros() {
        roundtrip(&[0, 0, 0, 9]);
    }

    #[test]
    fn sparse_stream_compresses() {
        let mut symbols = vec![0u32; 100_000];
        for i in (0..100_000).step_by(1000) {
            symbols[i] = 7;
        }
        let n = roundtrip(&symbols);
        assert!(n < 1_000, "len {n}");
    }

    #[test]
    fn decode_limited_rejects_oversized_claims() {
        let enc = encode(&vec![0u32; 1000]);
        assert_eq!(decode_limited(&enc, 1000).expect("fits"), vec![0u32; 1000]);
        assert!(matches!(
            decode_limited(&enc, 999),
            Err(CodecError::Corrupt(_))
        ));
    }

    #[test]
    fn absurd_total_does_not_allocate() {
        use crate::bitstream::write_varint;
        let mut buf = Vec::new();
        write_varint(&mut buf, u64::MAX); // total symbols
        write_varint(&mut buf, u64::MAX); // one giant zero run
        assert!(decode_limited(&buf, 1 << 20).is_err());
        // The public decode() must also reject it: its default cap, not
        // the forged total, bounds the allocation.
        assert!(matches!(decode(&buf), Err(CodecError::Corrupt(_))));
    }

    #[test]
    fn forged_huge_zero_run_is_rejected_by_default() {
        use crate::bitstream::write_varint;
        // A few bytes claiming a run just past the default cap: without
        // the cap this would be a ~256 MiB allocation demanded by a
        // 12-byte stream.
        let mut buf = Vec::new();
        let total = (1u64 << 26) + 1;
        write_varint(&mut buf, total);
        write_varint(&mut buf, total); // entire output as one zero run
        assert!(matches!(decode(&buf), Err(CodecError::Corrupt(_))));
        // At exactly the cap the claim is allowed but the stream must
        // still be internally consistent; a truncated run errors cleanly.
        let mut ok = Vec::new();
        write_varint(&mut ok, 1 << 26);
        write_varint(&mut ok, 1 << 20); // run shorter than the total...
        assert!(decode(&ok).is_err()); // ...then the stream just ends
    }

    #[test]
    fn truncation_never_panics() {
        let symbols: Vec<u32> = (0..200).map(|i| (i % 5) as u32).collect();
        let enc = encode(&symbols);
        for cut in 0..enc.len() {
            let _ = decode(&enc[..cut]);
        }
    }
}
