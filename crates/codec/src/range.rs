//! Adaptive binary range (arithmetic) coder, LZMA-style.
//!
//! The FPZIP-style compressor encodes prediction residuals with this coder:
//! an 11-bit adaptive probability per binary context, a carry-propagating
//! 32-bit range encoder, and a bit-tree helper for small n-bit values.

use crate::names;
use crate::CodecError;

/// Probability precision: probabilities live in `0..(1 << PROB_BITS)`.
const PROB_BITS: u32 = 11;
/// Initial (even) probability.
const PROB_INIT: u16 = 1 << (PROB_BITS - 1);
/// Adaptation rate: larger shifts adapt more slowly.
const ADAPT_SHIFT: u32 = 5;
/// Renormalization threshold.
const TOP: u32 = 1 << 24;

/// The most adaptive binary decisions one byte of a range-coded stream
/// can carry. A [`BitModel`] never gives either bit a probability above
/// 2017/2048 (the `ADAPT_SHIFT` step rounds to zero that close to
/// certainty), so every decision costs at least −log2(2017/2048) ≈ 0.022
/// bits, and 8 / 0.022 ≈ 363.7 decisions fit in a byte. A decoder checks
/// an untrusted count against this before sizing anything from it.
pub const MAX_DECISIONS_PER_BYTE: usize = 364;

/// One adaptive binary probability state.
#[derive(Clone, Copy, Debug)]
pub struct BitModel {
    /// probability that the next bit is 0, in `1..(1<<PROB_BITS)`
    p0: u16,
}

impl Default for BitModel {
    fn default() -> Self {
        Self { p0: PROB_INIT }
    }
}

impl BitModel {
    /// A fresh, unbiased model.
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    fn update(&mut self, bit: bool) {
        if bit {
            self.p0 -= self.p0 >> ADAPT_SHIFT;
        } else {
            self.p0 += ((1u16 << PROB_BITS) - self.p0) >> ADAPT_SHIFT;
        }
    }
}

/// Range encoder writing to an internal byte buffer.
pub struct RangeEncoder {
    low: u64,
    range: u32,
    cache: u8,
    cache_size: u64,
    out: Vec<u8>,
}

impl Default for RangeEncoder {
    fn default() -> Self {
        Self::new()
    }
}

impl RangeEncoder {
    /// A fresh encoder.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// A fresh encoder whose output buffer is pre-sized to `capacity`
    /// bytes. Callers that can bound the compressed size (e.g. from the
    /// uncompressed input length) avoid the incremental `Vec` regrowth of
    /// starting empty.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            low: 0,
            range: u32::MAX,
            cache: 0,
            cache_size: 1,
            out: Vec::with_capacity(capacity),
        }
    }

    #[inline]
    fn shift_low(&mut self) {
        if (self.low as u32) < 0xFF00_0000 || (self.low >> 32) != 0 {
            let carry = (self.low >> 32) as u8;
            self.out.push(self.cache.wrapping_add(carry));
            for _ in 1..self.cache_size {
                self.out.push(0xFFu8.wrapping_add(carry));
            }
            self.cache = (self.low >> 24) as u8;
            self.cache_size = 0;
        }
        self.cache_size += 1;
        self.low = (self.low << 8) & 0xFFFF_FFFF;
    }

    /// Encodes one bit under an adaptive model.
    #[inline]
    pub fn encode_bit(&mut self, model: &mut BitModel, bit: bool) {
        let bound = (self.range >> PROB_BITS) * u32::from(model.p0);
        if bit {
            self.low += u64::from(bound);
            self.range -= bound;
        } else {
            self.range = bound;
        }
        model.update(bit);
        while self.range < TOP {
            self.range <<= 8;
            self.shift_low();
        }
    }

    /// Encodes `n` raw (uniform) bits of `value`, MSB first.
    pub fn encode_direct(&mut self, value: u64, n: u32) {
        assert!(n <= 64);
        for i in (0..n).rev() {
            self.range >>= 1;
            let bit = (value >> i) & 1;
            if bit == 1 {
                self.low += u64::from(self.range);
            }
            while self.range < TOP {
                self.range <<= 8;
                self.shift_low();
            }
        }
    }

    /// Flushes and returns the encoded bytes.
    pub fn finish(mut self) -> Vec<u8> {
        for _ in 0..5 {
            self.shift_low();
        }
        let registry = fxrz_telemetry::global();
        registry.incr(names::RANGE_ENCODE_CALLS);
        registry.add(names::RANGE_ENCODE_BYTES_OUT, self.out.len() as u64);
        self.out
    }
}

/// Range decoder over a byte slice.
pub struct RangeDecoder<'a> {
    code: u32,
    range: u32,
    buf: &'a [u8],
    pos: usize,
}

impl<'a> RangeDecoder<'a> {
    /// Initializes from a buffer produced by [`RangeEncoder::finish`].
    pub fn new(buf: &'a [u8]) -> Result<Self, CodecError> {
        let registry = fxrz_telemetry::global();
        registry.incr(names::RANGE_DECODE_CALLS);
        registry.add(names::RANGE_DECODE_BYTES_IN, buf.len() as u64);
        if buf.len() < 5 {
            return Err(CodecError::Truncated);
        }
        let mut d = Self {
            code: 0,
            range: u32::MAX,
            buf,
            pos: 1, // first byte is always 0
        };
        for _ in 0..4 {
            d.code = (d.code << 8) | u32::from(d.next_byte());
        }
        Ok(d)
    }

    /// Ends decoding. The decoder reads zeros past the end of its
    /// buffer, and a stream the encoder finished is consumed exactly, so
    /// any read past the end means the input was truncated.
    pub fn finish(self) -> Result<(), CodecError> {
        if self.pos > self.buf.len() {
            return Err(CodecError::Truncated);
        }
        Ok(())
    }

    #[inline]
    fn next_byte(&mut self) -> u8 {
        let b = self.buf.get(self.pos).copied().unwrap_or(0);
        self.pos += 1;
        b
    }

    /// Decodes one bit under an adaptive model.
    #[inline]
    pub fn decode_bit(&mut self, model: &mut BitModel) -> bool {
        let bound = (self.range >> PROB_BITS) * u32::from(model.p0);
        let bit = if self.code < bound {
            self.range = bound;
            false
        } else {
            self.code -= bound;
            self.range -= bound;
            true
        };
        model.update(bit);
        while self.range < TOP {
            self.range <<= 8;
            self.code = (self.code << 8) | u32::from(self.next_byte());
        }
        bit
    }

    /// Decodes `n` raw bits, MSB first.
    pub fn decode_direct(&mut self, n: u32) -> u64 {
        assert!(n <= 64);
        let mut v = 0u64;
        for _ in 0..n {
            self.range >>= 1;
            let bit = if self.code >= self.range {
                self.code -= self.range;
                1u64
            } else {
                0
            };
            v = (v << 1) | bit;
            while self.range < TOP {
                self.range <<= 8;
                self.code = (self.code << 8) | u32::from(self.next_byte());
            }
        }
        v
    }
}

/// Context tree for values of a fixed bit width: each prefix of already-
/// coded bits selects its own [`BitModel`], as in LZMA's bit-tree coder.
#[derive(Clone, Debug)]
pub struct BitTree {
    bits: u32,
    models: Vec<BitModel>,
}

impl BitTree {
    /// A tree for `bits`-wide values (`bits >= 1`).
    pub fn new(bits: u32) -> Self {
        assert!((1..=20).contains(&bits), "bit-tree width out of range");
        Self {
            bits,
            models: vec![BitModel::new(); 1 << bits],
        }
    }

    /// Encodes a `bits`-wide value.
    pub fn encode(&mut self, enc: &mut RangeEncoder, value: u32) {
        debug_assert!(value < (1 << self.bits));
        let mut ctx = 1usize;
        for i in (0..self.bits).rev() {
            let bit = (value >> i) & 1 == 1;
            enc.encode_bit(&mut self.models[ctx], bit);
            ctx = (ctx << 1) | usize::from(bit);
        }
    }

    /// Decodes a `bits`-wide value.
    pub fn decode(&mut self, dec: &mut RangeDecoder<'_>) -> u32 {
        let mut ctx = 1usize;
        for _ in 0..self.bits {
            let bit = dec.decode_bit(&mut self.models[ctx]);
            ctx = (ctx << 1) | usize::from(bit);
        }
        (ctx as u32) - (1 << self.bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bits_roundtrip() {
        let pattern: Vec<bool> = (0..4000).map(|i| (i * i + i / 3) % 5 == 0).collect();
        let mut enc = RangeEncoder::new();
        let mut m = BitModel::new();
        for &b in &pattern {
            enc.encode_bit(&mut m, b);
        }
        let buf = enc.finish();
        let mut dec = RangeDecoder::new(&buf).expect("init");
        let mut m = BitModel::new();
        for &b in &pattern {
            assert_eq!(dec.decode_bit(&mut m), b);
        }
    }

    #[test]
    fn skewed_bits_compress() {
        // 99% zeros should approach the entropy (~0.08 bits/bit).
        let pattern: Vec<bool> = (0..100_000).map(|i| i % 100 == 0).collect();
        let mut enc = RangeEncoder::new();
        let mut m = BitModel::new();
        for &b in &pattern {
            enc.encode_bit(&mut m, b);
        }
        let buf = enc.finish();
        assert!(buf.len() < 100_000 / 8 / 4, "len {}", buf.len());
    }

    #[test]
    fn direct_bits_roundtrip() {
        let values: Vec<(u64, u32)> = vec![
            (0, 1),
            (1, 1),
            (5, 3),
            (0xABCD, 16),
            (u64::MAX >> 1, 63),
            (0, 64),
        ];
        let mut enc = RangeEncoder::new();
        for &(v, n) in &values {
            enc.encode_direct(v, n);
        }
        let buf = enc.finish();
        let mut dec = RangeDecoder::new(&buf).expect("init");
        for &(v, n) in &values {
            assert_eq!(dec.decode_direct(n), v, "n={n}");
        }
    }

    #[test]
    fn mixed_model_and_direct() {
        let mut enc = RangeEncoder::new();
        let mut m = BitModel::new();
        for i in 0..1000 {
            enc.encode_bit(&mut m, i % 3 == 0);
            enc.encode_direct((i % 17) as u64, 5);
        }
        let buf = enc.finish();
        let mut dec = RangeDecoder::new(&buf).expect("init");
        let mut m = BitModel::new();
        for i in 0..1000 {
            assert_eq!(dec.decode_bit(&mut m), i % 3 == 0);
            assert_eq!(dec.decode_direct(5), (i % 17) as u64);
        }
    }

    #[test]
    fn bit_tree_roundtrip() {
        let values: Vec<u32> = (0..5000u32).map(|i| (i * 7 + i / 5) % 256).collect();
        let mut enc = RangeEncoder::new();
        let mut tree = BitTree::new(8);
        for &v in &values {
            tree.encode(&mut enc, v);
        }
        let buf = enc.finish();
        let mut dec = RangeDecoder::new(&buf).expect("init");
        let mut tree = BitTree::new(8);
        for &v in &values {
            assert_eq!(tree.decode(&mut dec), v);
        }
    }

    #[test]
    fn bit_tree_skewed_compresses() {
        let values = vec![3u32; 50_000];
        let mut enc = RangeEncoder::new();
        let mut tree = BitTree::new(8);
        for &v in &values {
            tree.encode(&mut enc, v);
        }
        let buf = enc.finish();
        // Adaptive probabilities floor out near p0 ≈ 2017/2048, i.e. about
        // 0.022 bits per coded bit: 50 000 × 8 × 0.022 ≈ 1.1 kB.
        assert!(buf.len() < 2_000, "len {}", buf.len());
    }

    #[test]
    fn finish_accepts_whole_streams_and_rejects_prefixes() {
        let pattern: Vec<bool> = (0..3000).map(|i| (i * 7) % 11 < 3).collect();
        let mut enc = RangeEncoder::new();
        let mut m = BitModel::new();
        for &b in &pattern {
            enc.encode_bit(&mut m, b);
            enc.encode_direct(u64::from(b), 3);
        }
        let buf = enc.finish();
        for cut in 5..=buf.len() {
            let mut dec = RangeDecoder::new(&buf[..cut]).expect("init");
            let mut m = BitModel::new();
            for _ in &pattern {
                dec.decode_bit(&mut m);
                dec.decode_direct(3);
            }
            assert_eq!(dec.finish().is_ok(), cut == buf.len(), "cut {cut}");
        }
    }

    #[test]
    fn max_decisions_per_byte_bounds_the_densest_stream() {
        // One model fed nothing but zeros saturates at p0 = 2017/2048:
        // the cheapest decisions the coder can make.
        let n = 1_000_000;
        let mut enc = RangeEncoder::new();
        let mut m = BitModel::new();
        for _ in 0..n {
            enc.encode_bit(&mut m, false);
        }
        let len = enc.finish().len();
        assert!(
            len * MAX_DECISIONS_PER_BYTE >= n,
            "{n} decisions in {len} bytes"
        );
        assert!(
            len * (MAX_DECISIONS_PER_BYTE - 2) < n,
            "bound is loose: {len} bytes"
        );
    }

    #[test]
    fn empty_decoder_errors() {
        assert!(RangeDecoder::new(&[]).is_err());
        assert!(RangeDecoder::new(&[1, 2, 3]).is_err());
    }

    #[test]
    fn carry_propagation_stress() {
        // Long runs of probable bits drive `low` toward 0xFF...; ensure
        // exact roundtrip through the carry logic.
        let mut pattern = Vec::new();
        for i in 0..20_000 {
            pattern.push(i % 1000 != 999);
        }
        let mut enc = RangeEncoder::new();
        let mut m = BitModel::new();
        for &b in &pattern {
            enc.encode_bit(&mut m, b);
        }
        let buf = enc.finish();
        let mut dec = RangeDecoder::new(&buf).expect("init");
        let mut m = BitModel::new();
        for (i, &b) in pattern.iter().enumerate() {
            assert_eq!(dec.decode_bit(&mut m), b, "at {i}");
        }
    }
}
