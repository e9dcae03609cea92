//! Byte-oriented LZ77 with hash-chain match finding.
//!
//! This is the "dictionary stage" of the SZ-style pipeline (real SZ calls
//! Zstd here): it follows the Huffman stage and collapses the long repeated
//! byte patterns that appear when quantization codes are heavily skewed —
//! which is exactly the regime where error-bounded compressors reach very
//! high ratios.
//!
//! Token format (all varints, see [`crate::bitstream`]):
//! `lit_len, <literals>, match_len, distance` repeated; a trailing token
//! carries `match_len = 0` after the final literals.
//!
//! The match finder runs word-at-a-time: candidates are extended eight
//! bytes per compare (`u64` XOR + `trailing_zeros`), the `prev` chain array
//! is bounded to the window instead of the input length, a one-step lazy
//! evaluation upgrades matches that start one byte later, and an LZ4-style
//! skip heuristic accelerates through incompressible stretches. All state
//! lives in [`CodecScratch`] so back-to-back calls do not reallocate.

use crate::bitstream::{read_varint, write_varint};
use crate::names;
use crate::scratch::{with_scratch, CodecScratch, NO_POS};
use crate::CodecError;

/// Minimum useful match length: shorter matches cost more than literals.
const MIN_MATCH: usize = 4;
/// Maximum match length per token (keeps varints short; runs chain fine).
const MAX_MATCH: usize = 1 << 16;
/// Sliding-window size — matches may reach this far back.
const WINDOW: usize = 1 << 16;
/// Hash-chain table size (power of two).
const HASH_SIZE: usize = 1 << 15;
/// Maximum chain positions examined per match attempt.
const MAX_CHAIN: usize = 32;
/// Matches at least this long skip the lazy one-byte-later probe.
const LAZY_THRESHOLD: usize = 64;
/// After `1 << SKIP_SHIFT` consecutive match misses, the search starts
/// striding over the data (doubling every further `1 << SKIP_SHIFT`
/// misses), so incompressible stretches cost ~O(n / stride).
const SKIP_SHIFT: u32 = 6;
/// Matches longer than this insert hash entries sparsely.
const DENSE_INSERT_LIMIT: usize = 256;

#[inline]
fn hash4(data: &[u8], i: usize) -> usize {
    let v = u32::from_le_bytes([data[i], data[i + 1], data[i + 2], data[i + 3]]);
    (v.wrapping_mul(2654435761) as usize >> 17) & (HASH_SIZE - 1)
}

/// Extends a match at (`cand`, `i`) eight bytes per step.
#[inline]
fn match_len(data: &[u8], cand: usize, i: usize, max_len: usize) -> usize {
    debug_assert!(cand < i);
    let mut l = 0usize;
    while l + 8 <= max_len {
        let a = u64::from_le_bytes(data[cand + l..cand + l + 8].try_into().expect("8 bytes"));
        let b = u64::from_le_bytes(data[i + l..i + l + 8].try_into().expect("8 bytes"));
        let x = a ^ b;
        if x != 0 {
            return l + (x.trailing_zeros() >> 3) as usize;
        }
        l += 8;
    }
    while l < max_len && data[cand + l] == data[i + l] {
        l += 1;
    }
    l
}

/// Compresses `data`. The output always begins with the decompressed length
/// as a varint, so [`decompress`] needs no out-of-band metadata.
pub fn compress(data: &[u8]) -> Vec<u8> {
    with_scratch(|scratch| compress_with(scratch, data))
}

/// [`compress`] against caller-provided scratch: the hash-chain tables are
/// reused across calls (they are reset cheaply per call, so output is a
/// pure function of `data` regardless of scratch history).
pub fn compress_with(scratch: &mut CodecScratch, data: &[u8]) -> Vec<u8> {
    scratch.note_use();
    let out = compress_unmetered(scratch, data);
    let registry = fxrz_telemetry::global();
    registry.incr(names::LZ77_COMPRESS_CALLS);
    registry.add(names::LZ77_COMPRESS_BYTES_IN, data.len() as u64);
    registry.add(names::LZ77_COMPRESS_BYTES_OUT, out.len() as u64);
    out
}

/// Finds the best match for position `i`; returns `(len, dist)` with
/// `len == 0` when nothing reaches [`MIN_MATCH`].
#[inline]
fn find_match(data: &[u8], head: &[u32], prev: &[u32], i: usize) -> (usize, usize) {
    if i + MIN_MATCH > data.len() {
        return (0, 0);
    }
    let max_len = (data.len() - i).min(MAX_MATCH);
    let mut best_len = 0usize;
    let mut best_dist = 0usize;
    let mut cand = head[hash4(data, i)];
    let mut chain = 0usize;
    while cand != NO_POS && chain < MAX_CHAIN {
        let c = cand as usize;
        if c >= i || i - c > WINDOW {
            break;
        }
        // Cheap reject: a longer match must agree at the current best end.
        if best_len == 0 || data.get(c + best_len) == data.get(i + best_len) {
            let l = match_len(data, c, i, max_len);
            if l > best_len {
                best_len = l;
                best_dist = i - c;
                if l >= max_len {
                    break;
                }
            }
        }
        cand = prev[c & (WINDOW - 1)];
        chain += 1;
    }
    if best_len >= MIN_MATCH {
        (best_len, best_dist)
    } else {
        (0, 0)
    }
}

#[inline]
fn insert(data: &[u8], head: &mut [u32], prev: &mut [u32], i: usize) {
    if i + MIN_MATCH <= data.len() {
        let h = hash4(data, i);
        prev[i & (WINDOW - 1)] = head[h];
        head[h] = i as u32;
    }
}

fn compress_unmetered(scratch: &mut CodecScratch, data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() / 2 + 16);
    write_varint(&mut out, data.len() as u64);
    if data.is_empty() {
        return out;
    }
    // The windowed chain tables only index 32-bit positions; inputs beyond
    // that (unreachable for this pipeline's payloads) go out as literals.
    if data.len() >= NO_POS as usize {
        write_varint(&mut out, data.len() as u64);
        out.extend_from_slice(data);
        write_varint(&mut out, 0);
        return out;
    }

    // Reset (not reallocate) the chain state: determinism requires that
    // output never depends on what a previous call left behind.
    scratch.lz_head.clear();
    scratch.lz_head.resize(HASH_SIZE, NO_POS);
    scratch.lz_prev.clear();
    scratch.lz_prev.resize(WINDOW, NO_POS);
    let head = &mut scratch.lz_head[..];
    let prev = &mut scratch.lz_prev[..];

    let mut lit_start = 0usize;
    let mut i = 0usize;
    let mut misses = 0usize;
    while i < data.len() {
        let (len0, dist0) = find_match(data, head, prev, i);
        if len0 == 0 {
            insert(data, head, prev, i);
            // Skip heuristic: accelerate through incompressible stretches.
            misses += 1;
            i += 1 + (misses >> SKIP_SHIFT);
            continue;
        }
        misses = 0;

        // Lazy evaluation: a match starting one byte later may be longer;
        // if so, emit this byte as a literal and take the later match.
        let (mut mlen, mut mdist, mut mstart) = (len0, dist0, i);
        if len0 < LAZY_THRESHOLD && i + 1 < data.len() {
            insert(data, head, prev, i);
            let (len1, dist1) = find_match(data, head, prev, i + 1);
            if len1 > len0 {
                (mlen, mdist, mstart) = (len1, dist1, i + 1);
            }
        }

        // Flush pending literals, then the match token.
        write_varint(&mut out, (mstart - lit_start) as u64);
        out.extend_from_slice(&data[lit_start..mstart]);
        write_varint(&mut out, mlen as u64);
        write_varint(&mut out, mdist as u64);

        // Insert hash entries across the matched region — densely for
        // short matches (keeps compression strong), sparsely for long runs
        // (keeps throughput linear).
        let end = (mstart + mlen).min(data.len().saturating_sub(MIN_MATCH - 1));
        let step = if mlen > DENSE_INSERT_LIMIT { 8 } else { 1 };
        let mut j = if mstart == i { i } else { i + 1 };
        while j < end {
            insert(data, head, prev, j);
            j += step;
        }
        i = mstart + mlen;
        lit_start = i;
    }

    // Final literals + terminator token.
    write_varint(&mut out, (data.len() - lit_start) as u64);
    out.extend_from_slice(&data[lit_start..]);
    write_varint(&mut out, 0); // match_len = 0 terminates
    out
}

/// Cached decompress-side counter handles. Decompression of a mostly
/// incompressible stream runs at memcpy speed, so four registry lookups
/// (lock + map walk each) per call show up in the fast-path benchmark;
/// the `Arc` handles skip the map entirely. The generation stamp keeps
/// the cache honest across [`MetricsRegistry::reset`]: a reset orphans
/// the old counters, so a stale cache would silently drop these metrics
/// from every later snapshot.
///
/// [`MetricsRegistry::reset`]: fxrz_telemetry::MetricsRegistry::reset
struct DecompressCounters {
    generation: u64,
    calls: std::sync::Arc<fxrz_telemetry::Counter>,
    bytes_in: std::sync::Arc<fxrz_telemetry::Counter>,
    bytes_out: std::sync::Arc<fxrz_telemetry::Counter>,
    errors: std::sync::Arc<fxrz_telemetry::Counter>,
}

impl DecompressCounters {
    fn resolve() -> Self {
        let registry = fxrz_telemetry::global();
        Self {
            generation: registry.generation(),
            calls: registry.counter(names::LZ77_DECOMPRESS_CALLS),
            bytes_in: registry.counter(names::LZ77_DECOMPRESS_BYTES_IN),
            bytes_out: registry.counter(names::LZ77_DECOMPRESS_BYTES_OUT),
            errors: registry.counter(names::LZ77_DECOMPRESS_ERRORS),
        }
    }
}

std::thread_local! {
    static DECOMPRESS_COUNTERS: std::cell::RefCell<Option<DecompressCounters>> =
        const { std::cell::RefCell::new(None) };
}

/// Decompresses a buffer produced by [`compress`].
pub fn decompress(buf: &[u8]) -> Result<Vec<u8>, CodecError> {
    let out = decompress_unmetered(buf);
    DECOMPRESS_COUNTERS.with(|cell| {
        let mut cached = cell.borrow_mut();
        let stale = cached
            .as_ref()
            .is_none_or(|c| c.generation != fxrz_telemetry::global().generation());
        if stale {
            *cached = Some(DecompressCounters::resolve());
        }
        let c = cached.as_ref().expect("just resolved");
        c.calls.incr();
        c.bytes_in.add(buf.len() as u64);
        match &out {
            Ok(data) => c.bytes_out.add(data.len() as u64),
            Err(_) => c.errors.incr(),
        }
    });
    out
}

fn decompress_unmetered(buf: &[u8]) -> Result<Vec<u8>, CodecError> {
    let mut pos = 0usize;
    let total = read_varint(buf, &mut pos).ok_or(CodecError::Truncated)? as usize;
    // untrusted length: cap the pre-allocation; matches can only expand
    // the output ~2^16x per token, so also reject absurd totals early
    if total / (1 << 17) > buf.len().saturating_add(1) {
        return Err(CodecError::Corrupt(
            "output length implausible for input size",
        ));
    }
    let mut out = Vec::with_capacity(total.min(1 << 20));
    if total == 0 {
        return Ok(out);
    }

    loop {
        let lit_len = read_varint(buf, &mut pos).ok_or(CodecError::Truncated)? as usize;
        if lit_len > buf.len() - pos {
            return Err(CodecError::Truncated);
        }
        out.extend_from_slice(&buf[pos..pos + lit_len]);
        pos += lit_len;
        if out.len() > total {
            return Err(CodecError::Corrupt("output overrun"));
        }
        if out.len() == total {
            // Expect the terminator (match_len == 0); tolerate its absence
            // only if the buffer ends exactly here.
            match read_varint(buf, &mut pos) {
                Some(0) | None => return Ok(out),
                Some(_) => return Err(CodecError::Corrupt("missing terminator")),
            }
        }
        let match_len = read_varint(buf, &mut pos).ok_or(CodecError::Truncated)? as usize;
        if match_len == 0 {
            return Err(CodecError::Corrupt("early terminator"));
        }
        let dist = read_varint(buf, &mut pos).ok_or(CodecError::Truncated)? as usize;
        if dist == 0 || dist > out.len() {
            return Err(CodecError::Corrupt("invalid match distance"));
        }
        if match_len > total - out.len() {
            return Err(CodecError::Corrupt("match overruns output"));
        }
        let start = out.len() - dist;
        if dist >= match_len {
            // Non-overlapping: one bulk copy.
            out.extend_from_within(start..start + match_len);
        } else {
            // Overlapping (RLE-style): replicate the period, doubling the
            // copied chunk each round instead of copying byte by byte.
            let mut copied = 0usize;
            while copied < match_len {
                let chunk = (out.len() - start - copied).min(match_len - copied);
                let at = start + copied;
                out.extend_from_within(at..at + chunk);
                copied += chunk;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[u8]) -> usize {
        let c = compress(data);
        let d = decompress(&c).expect("decompress");
        assert_eq!(d, data);
        c.len()
    }

    #[test]
    fn empty() {
        assert!(roundtrip(&[]) <= 2);
    }

    #[test]
    fn short_literals() {
        roundtrip(b"abc");
        roundtrip(b"a");
    }

    #[test]
    fn run_compresses_hard() {
        let data = vec![0xFFu8; 100_000];
        let n = roundtrip(&data);
        assert!(n < 100, "run compressed to {n} bytes");
    }

    #[test]
    fn decompress_counters_survive_registry_reset() {
        let data = vec![7u8; 4096];
        let c = compress(&data);
        decompress(&c).expect("prime the cached handles");
        let registry = fxrz_telemetry::global();
        registry.reset();
        decompress(&c).expect("decompress after reset");
        // The generation check re-resolves the thread-local handles into
        // the fresh registry; an orphaned cache would leave this at zero.
        // Other tests may also decompress concurrently, so only assert a
        // lower bound.
        assert!(registry.counter(names::LZ77_DECOMPRESS_CALLS).get() >= 1);
    }

    #[test]
    fn periodic_pattern() {
        let data: Vec<u8> = (0..50_000).map(|i| (i % 7) as u8).collect();
        let n = roundtrip(&data);
        assert!(n < 2_000, "periodic compressed to {n}");
    }

    #[test]
    fn incompressible_random_ok() {
        // xorshift pseudo-random bytes: LZ should not explode the size.
        let mut x = 0x12345678u32;
        let data: Vec<u8> = (0..10_000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                x as u8
            })
            .collect();
        let n = roundtrip(&data);
        assert!(n < data.len() + data.len() / 8 + 64, "expanded to {n}");
    }

    #[test]
    fn overlapping_match_rle_style() {
        // "abcabcabc..." exercises dist < match_len copies.
        let mut data = Vec::new();
        for _ in 0..1000 {
            data.extend_from_slice(b"abc");
        }
        roundtrip(&data);
    }

    #[test]
    fn every_small_period_roundtrips() {
        // The doubling overlap copy must be exact for all period/len combos.
        for period in 1..=17usize {
            for reps in [1usize, 2, 3, 7, 50] {
                let mut data: Vec<u8> = (0..40).map(|i| (i * 31 % 251) as u8).collect();
                for _ in 0..reps * period {
                    data.push(data[data.len() - period]);
                }
                roundtrip(&data);
            }
        }
    }

    #[test]
    fn matches_beyond_the_window_are_not_used() {
        // A repeated block separated by > WINDOW unique bytes: the encoder
        // must not emit a distance past the window (decoder would reject a
        // valid one, so a roundtrip proves it stayed in bounds).
        let mut data = Vec::new();
        data.extend_from_slice(b"needle-needle-needle-needle!");
        let mut x = 9u32;
        for _ in 0..(WINDOW + 1000) {
            x = x.wrapping_mul(1664525).wrapping_add(1013904223);
            data.push((x >> 24) as u8);
        }
        data.extend_from_slice(b"needle-needle-needle-needle!");
        roundtrip(&data);
    }

    #[test]
    fn mixed_content() {
        let mut data = Vec::new();
        for i in 0..256 {
            data.push(i as u8);
        }
        data.extend(vec![7u8; 5000]);
        data.extend_from_slice(b"the quick brown fox jumps over the lazy dog");
        data.extend(vec![7u8; 5000]);
        roundtrip(&data);
    }

    #[test]
    fn output_is_independent_of_scratch_history() {
        // Determinism contract: warm scratch must produce the same bytes
        // as a cold one.
        let a: Vec<u8> = (0..20_000).map(|i| (i % 13) as u8).collect();
        let b: Vec<u8> = (0..30_000).map(|i| (i * 7 % 251) as u8).collect();
        let cold_b = with_scratch(|s| compress_with(s, &b));
        let warm_b = with_scratch(|s| {
            let _ = compress_with(s, &a);
            compress_with(s, &b)
        });
        assert_eq!(cold_b, warm_b);
    }

    #[test]
    fn truncation_never_panics() {
        let data: Vec<u8> = (0..500).map(|i| (i % 11) as u8).collect();
        let c = compress(&data);
        for cut in 0..c.len() {
            let _ = decompress(&c[..cut]);
        }
    }

    #[test]
    fn implausible_total_rejected_early() {
        let mut buf = Vec::new();
        write_varint(&mut buf, u64::MAX); // claimed output size
        write_varint(&mut buf, 0); // no literals
        assert!(matches!(
            decompress(&buf),
            Err(CodecError::Corrupt(_)) | Err(CodecError::Truncated)
        ));
    }

    #[test]
    fn corrupt_distance_detected() {
        let mut out = Vec::new();
        write_varint(&mut out, 8); // total
        write_varint(&mut out, 1); // lit_len
        out.push(b'x');
        write_varint(&mut out, 7); // match_len
        write_varint(&mut out, 5); // distance > produced
        assert!(matches!(
            decompress(&out),
            Err(CodecError::Corrupt(_)) | Err(CodecError::Truncated)
        ));
    }
}
