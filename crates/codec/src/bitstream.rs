//! LSB-first bit-level I/O over byte buffers.
//!
//! All entropy coders in this crate serialize through [`BitWriter`] /
//! [`BitReader`]. Bits are packed least-significant-bit first within each
//! byte, which keeps single-bit writes branch-free and matches the layout
//! used by DEFLATE-family formats.
//!
//! Both sides operate a machine word at a time: the writer shift-ors into a
//! 64-bit accumulator and flushes whole bytes, the reader refills a 64-bit
//! window (eight bytes per load on the fast path) and serves `read_bits` /
//! `peek_bits` with a single mask-and-shift. The wire format is identical
//! to the original bit-at-a-time implementation.

/// Low-`n`-bits mask (`n <= 63`).
#[inline(always)]
fn mask(n: u32) -> u64 {
    debug_assert!(n < 64);
    (1u64 << n) - 1
}

/// Accumulates bits into a growable byte buffer.
#[derive(Debug, Default)]
pub struct BitWriter {
    buf: Vec<u8>,
    /// pending bits, LSB-first; only the low `nbits` are meaningful
    acc: u64,
    /// number of pending bits in `acc` (kept `< 8` between calls)
    nbits: u32,
}

impl BitWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// A writer with `cap` bytes preallocated.
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            buf: Vec::with_capacity(cap),
            acc: 0,
            nbits: 0,
        }
    }

    /// Appends one bit.
    #[inline]
    pub fn write_bit(&mut self, bit: bool) {
        self.acc |= u64::from(bit) << self.nbits;
        self.nbits += 1;
        if self.nbits == 8 {
            self.buf.push(self.acc as u8);
            self.acc = 0;
            self.nbits = 0;
        }
    }

    /// Appends the low `n` bits of `value`, LSB first.
    ///
    /// # Panics
    /// Panics when `n > 64`.
    #[inline]
    pub fn write_bits(&mut self, value: u64, n: u32) {
        assert!(n <= 64, "cannot write more than 64 bits at once");
        if n > 56 {
            // Split so the accumulator (7 pending + 56 new <= 63) never
            // overflows; both halves stay on the fast path below.
            self.write_small(value & mask(28), 28);
            self.write_small((value >> 28) & mask(n - 28), n - 28);
        } else if n > 0 {
            self.write_small(value & mask(n), n);
        }
    }

    /// Shift-or of `n <= 56` already-masked bits, flushing whole bytes.
    #[inline]
    fn write_small(&mut self, value: u64, n: u32) {
        debug_assert!(n <= 56 && self.nbits < 8 && value <= mask(n));
        self.acc |= value << self.nbits;
        self.nbits += n;
        let full = (self.nbits / 8) as usize;
        if full > 0 {
            self.buf.extend_from_slice(&self.acc.to_le_bytes()[..full]);
            self.acc >>= full * 8;
            self.nbits &= 7;
        }
    }

    /// Pads with zero bits to the next byte boundary.
    pub fn align(&mut self) {
        if self.nbits > 0 {
            self.buf.push(self.acc as u8);
            self.acc = 0;
            self.nbits = 0;
        }
    }

    /// Appends whole bytes (aligning first).
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        self.align();
        self.buf.extend_from_slice(bytes);
    }

    /// Number of bits written so far.
    pub fn bit_len(&self) -> usize {
        self.buf.len() * 8 + self.nbits as usize
    }

    /// Finishes and returns the underlying buffer (zero-padding the last
    /// partial byte).
    pub fn into_bytes(mut self) -> Vec<u8> {
        self.align();
        self.buf
    }
}

/// Reads bits back from a byte slice produced by [`BitWriter`].
///
/// All multi-bit reads are **transactional**: when fewer than the requested
/// bits remain, `None` is returned and the cursor does not move.
#[derive(Debug)]
pub struct BitReader<'a> {
    buf: &'a [u8],
    /// next byte of `buf` not yet loaded into `acc`
    byte_pos: usize,
    /// loaded-but-unconsumed bits, LSB-first (next stream bit is bit 0)
    acc: u64,
    /// number of valid bits in `acc`
    nbits: u32,
}

impl<'a> BitReader<'a> {
    /// Wraps a byte slice.
    pub fn new(buf: &'a [u8]) -> Self {
        Self {
            buf,
            byte_pos: 0,
            acc: 0,
            nbits: 0,
        }
    }

    /// Tops up the window so it holds at least 57 bits (or all that remain).
    #[inline]
    fn refill(&mut self) {
        if self.nbits == 0 && self.buf.len() - self.byte_pos >= 8 {
            let bytes = self.buf[self.byte_pos..self.byte_pos + 8]
                .try_into()
                .expect("slice of 8");
            self.acc = u64::from_le_bytes(bytes);
            self.nbits = 64;
            self.byte_pos += 8;
            return;
        }
        while self.nbits <= 56 && self.byte_pos < self.buf.len() {
            self.acc |= u64::from(self.buf[self.byte_pos]) << self.nbits;
            self.nbits += 8;
            self.byte_pos += 1;
        }
    }

    /// Total bits between the cursor and the end of the buffer.
    #[inline]
    pub fn bits_remaining(&self) -> usize {
        self.nbits as usize + (self.buf.len() - self.byte_pos) * 8
    }

    /// Reads one bit; `None` at end of input.
    #[inline]
    pub fn read_bit(&mut self) -> Option<bool> {
        if self.nbits == 0 {
            self.refill();
            if self.nbits == 0 {
                return None;
            }
        }
        let bit = self.acc & 1 == 1;
        self.acc >>= 1;
        self.nbits -= 1;
        Some(bit)
    }

    /// Reads `n` bits LSB-first; `None` when fewer remain.
    ///
    /// Transactional: on `None` the cursor is unchanged (nothing is
    /// consumed from a truncated tail).
    #[inline]
    pub fn read_bits(&mut self, n: u32) -> Option<u64> {
        assert!(n <= 64, "cannot read more than 64 bits at once");
        if n == 0 {
            return Some(0);
        }
        if (n as usize) > self.bits_remaining() {
            return None;
        }
        if n <= 56 {
            if self.nbits < n {
                self.refill();
            }
            let v = self.acc & mask(n);
            self.acc >>= n;
            self.nbits -= n;
            Some(v)
        } else {
            // Availability was checked above, so both halves succeed.
            let lo = self.read_bits(28).expect("checked availability");
            let hi = self.read_bits(n - 28).expect("checked availability");
            Some(lo | (hi << 28))
        }
    }

    /// Returns the next `n <= 56` bits without consuming them, zero-padded
    /// past the end of the stream. Pair with [`BitReader::consume`].
    #[inline]
    pub fn peek_bits(&mut self, n: u32) -> u64 {
        debug_assert!(n <= 56, "cannot peek more than 56 bits");
        if self.nbits < n {
            self.refill();
        }
        if n == 0 {
            0
        } else {
            self.acc & mask(n)
        }
    }

    /// Consumes `n` bits previously observed via [`BitReader::peek_bits`].
    ///
    /// # Panics
    /// Debug-panics when `n` exceeds the bits actually available; callers
    /// must check [`BitReader::bits_remaining`] (or the peek's padding)
    /// first.
    #[inline]
    pub fn consume(&mut self, n: u32) {
        debug_assert!(n as usize <= self.bits_remaining(), "consumed past end");
        if self.nbits < n {
            self.refill();
        }
        self.acc >>= n;
        self.nbits -= n.min(self.nbits);
    }

    /// Skips to the next byte boundary.
    pub fn align(&mut self) {
        let partial = self.nbits & 7;
        self.acc >>= partial;
        self.nbits -= partial;
        // Consumed position is byte_pos*8 - nbits; nbits is now a multiple
        // of 8, so the cursor sits on a byte boundary.
    }

    /// Reads `n` whole bytes (aligning first); `None` when fewer remain.
    pub fn read_bytes(&mut self, n: usize) -> Option<&'a [u8]> {
        self.align();
        // Whole bytes may still sit in the window; rewind to their origin
        // so the returned slice is contiguous in the input.
        let start = self.byte_pos - (self.nbits / 8) as usize;
        if start + n > self.buf.len() {
            return None;
        }
        self.acc = 0;
        self.nbits = 0;
        self.byte_pos = start + n;
        Some(&self.buf[start..start + n])
    }

    /// Remaining whole bytes after the cursor (rounded down).
    pub fn remaining_bytes(&self) -> usize {
        let consumed_bits = self.byte_pos * 8 - self.nbits as usize;
        self.buf.len().saturating_sub(consumed_bits.div_ceil(8))
    }
}

/// Bytes [`write_varint`] emits for `v` — used by the entropy-backend
/// cost models to price headers without serializing them.
pub fn varint_len(v: u64) -> u64 {
    u64::from((64 - v.leading_zeros()).max(1)).div_ceil(7)
}

/// Writes `v` as a LEB128 varint.
pub fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Reads a LEB128 varint, advancing `pos`. `None` on truncation or
/// overflow: a tenth byte may only carry bit 63 (`0` or `1`).
pub fn read_varint(buf: &[u8], pos: &mut usize) -> Option<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = *buf.get(*pos)?;
        *pos += 1;
        if shift >= 63 && byte > 1 {
            return None;
        }
        v |= ((byte & 0x7F) as u64) << shift;
        if byte & 0x80 == 0 {
            return Some(v);
        }
        shift += 7;
    }
}

/// ZigZag-encodes a signed integer so small magnitudes stay small.
#[inline]
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
#[inline]
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_bits_roundtrip() {
        let mut w = BitWriter::new();
        let pattern = [true, false, true, true, false, false, true, false, true];
        for &b in &pattern {
            w.write_bit(b);
        }
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        for &b in &pattern {
            assert_eq!(r.read_bit(), Some(b));
        }
    }

    #[test]
    fn multi_bit_roundtrip() {
        let mut w = BitWriter::new();
        w.write_bits(0b1011, 4);
        w.write_bits(0xDEADBEEF, 32);
        w.write_bits(u64::MAX, 64);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(4), Some(0b1011));
        assert_eq!(r.read_bits(32), Some(0xDEADBEEF));
        assert_eq!(r.read_bits(64), Some(u64::MAX));
    }

    #[test]
    fn every_width_roundtrips_at_every_phase() {
        // Exercise all accumulator fill levels: a prefix of 0..7 bits, then
        // one field of every width 1..=64.
        for prefix in 0..8u32 {
            let mut w = BitWriter::new();
            w.write_bits(0x55, prefix);
            for n in 1..=64u32 {
                let v = 0xA5A5_5A5A_F0F0_0F0Fu64 & if n == 64 { u64::MAX } else { (1 << n) - 1 };
                w.write_bits(v, n);
            }
            let bytes = w.into_bytes();
            let mut r = BitReader::new(&bytes);
            assert_eq!(r.read_bits(prefix), Some(0x55 & ((1 << prefix) - 1)));
            for n in 1..=64u32 {
                let v = 0xA5A5_5A5A_F0F0_0F0Fu64 & if n == 64 { u64::MAX } else { (1 << n) - 1 };
                assert_eq!(r.read_bits(n), Some(v), "prefix {prefix} width {n}");
            }
        }
    }

    #[test]
    fn align_and_bytes() {
        let mut w = BitWriter::new();
        w.write_bits(0b101, 3);
        w.write_bytes(&[0xAB, 0xCD]);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(3), Some(0b101));
        assert_eq!(r.read_bytes(2), Some(&[0xAB, 0xCD][..]));
    }

    #[test]
    fn read_bytes_after_wide_reads() {
        // The window may hold several whole bytes when read_bytes is
        // called; the rewind must hand back a contiguous slice.
        let mut w = BitWriter::new();
        w.write_bits(0x3FF, 10);
        w.write_bytes(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10]);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(10), Some(0x3FF));
        assert_eq!(r.read_bytes(4), Some(&[1, 2, 3, 4][..]));
        assert_eq!(r.read_bytes(6), Some(&[5, 6, 7, 8, 9, 10][..]));
        assert_eq!(r.read_bytes(1), None);
    }

    #[test]
    fn bit_len_counts() {
        let mut w = BitWriter::new();
        assert_eq!(w.bit_len(), 0);
        w.write_bits(0, 5);
        assert_eq!(w.bit_len(), 5);
        w.write_bits(0, 3);
        assert_eq!(w.bit_len(), 8);
        w.write_bit(true);
        assert_eq!(w.bit_len(), 9);
    }

    #[test]
    fn read_past_end_is_none() {
        let mut r = BitReader::new(&[0xFF]);
        assert_eq!(r.read_bits(8), Some(0xFF));
        assert_eq!(r.read_bit(), None);
        assert_eq!(r.read_bits(4), None);
    }

    #[test]
    fn truncated_read_consumes_nothing() {
        // Regression: read_bits used to consume the remaining bits before
        // reporting None. It must now be transactional.
        let mut r = BitReader::new(&[0b1010_1010]);
        assert_eq!(r.read_bits(5), Some(0b01010));
        assert_eq!(r.read_bits(4), None, "only 3 bits remain");
        assert_eq!(r.bits_remaining(), 3, "failed read must not consume");
        assert_eq!(r.read_bits(3), Some(0b101));
        assert_eq!(r.read_bits(64), None);
        assert_eq!(r.read_bits(0), Some(0));
    }

    #[test]
    fn peek_then_consume_matches_read() {
        let mut w = BitWriter::new();
        w.write_bits(0xDEADBEEFCAFE, 48);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        let p = r.peek_bits(13);
        assert_eq!(p, 0xDEADBEEFCAFE & ((1 << 13) - 1));
        // Peeking must not move the cursor.
        assert_eq!(r.bits_remaining(), 48);
        r.consume(13);
        assert_eq!(r.read_bits(35), Some(0xDEADBEEFCAFE >> 13));
    }

    #[test]
    fn peek_past_end_zero_pads() {
        let mut r = BitReader::new(&[0xFF]);
        assert_eq!(r.peek_bits(12), 0xFF, "tail must be zero-padded");
        assert_eq!(r.bits_remaining(), 8);
    }

    #[test]
    fn varint_roundtrip() {
        let values = [
            0u64,
            1,
            127,
            128,
            300,
            16383,
            16384,
            u32::MAX as u64,
            u64::MAX,
        ];
        let mut buf = Vec::new();
        for &v in &values {
            write_varint(&mut buf, v);
        }
        let mut pos = 0;
        for &v in &values {
            assert_eq!(read_varint(&buf, &mut pos), Some(v));
        }
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn varint_truncation_is_none() {
        let mut buf = Vec::new();
        write_varint(&mut buf, u64::MAX);
        buf.pop();
        let mut pos = 0;
        assert_eq!(read_varint(&buf, &mut pos), None);
        // Unterminated.
        assert_eq!(read_varint(&[0x80, 0x80], &mut 0), None);
        // Tenth bytes carrying bits past the 64th.
        let mut high = vec![0xFF; 9];
        high.push(0x02);
        assert_eq!(read_varint(&high, &mut 0), None);
        high[9] = 0x7F;
        assert_eq!(read_varint(&high, &mut 0), None);
    }

    #[test]
    fn zigzag_roundtrip() {
        for v in [
            -1_000_000i64,
            -2,
            -1,
            0,
            1,
            2,
            1_000_000,
            i64::MIN,
            i64::MAX,
        ] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
    }
}
