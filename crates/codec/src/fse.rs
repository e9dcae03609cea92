//! Tabled asymmetric-numeral-system entropy coding (tANS / FSE) over
//! `u32` alphabets.
//!
//! This is the zstd-style Finite State Entropy construction: symbol
//! frequencies are normalized to sum to `2^table_log`, spread over the
//! state table with the co-prime stepping pattern, and each symbol is
//! coded by a state transition that emits `(state + delta_nb_bits) >> 16`
//! low bits of the current state. Unlike Huffman, fractional
//! bits-per-symbol costs are achieved exactly (up to the table
//! resolution), and the per-symbol work is two table reads plus one
//! bit-write — no tree walk, no canonical-code bookkeeping.
//!
//! Two interleaved states code alternating symbol positions, which hides
//! the serial dependency between the table lookup and the bit I/O: while
//! one state's transition resolves, the other's bits are already being
//! packed (the same trick zstd uses with its dual/quad streams).
//!
//! **Bit direction.** ANS is last-in-first-out: the decoder must consume
//! per-symbol bit fields in the reverse of encode order. The encoder
//! therefore walks the input back-to-front writing bits *forward* (via a
//! hot-loop `BitSink` emitting the same LSB-first layout as
//! [`crate::bitstream::BitWriter`]), flushes both final states, and
//! terminates with a single `1` marker bit. The decoder locates the
//! marker (the highest set bit of the last non-zero byte — the tail is
//! zero-padded after it) and reads fields *backward* from there, so
//! symbols come out front-to-back with no buffer reversal on either side.

use crate::bitstream::{read_varint, varint_len, write_varint};
use crate::names;
use crate::scratch::{with_scratch, CodecScratch};
use crate::CodecError;

/// Largest state-table log: tables up to `2^16` entries, matching the SZ
/// quantization-code alphabet bound.
pub const MAX_TABLE_LOG: u32 = 16;

/// Smallest state-table log (keeps the spread step co-prime with the
/// table size and the per-symbol resolution useful).
pub const MIN_TABLE_LOG: u32 = 5;

/// FSE must give every distinct symbol at least one table slot, so
/// alphabets wider than this cannot be coded (callers fall back to
/// Huffman, which has no such bound).
pub const MAX_SYMBOLS: usize = 1 << MAX_TABLE_LOG;

/// Symbol spans up to this factor of the input length use the dense
/// direct-index histogram instead of the sort-based fallback.
const DENSE_SPAN_LIMIT: usize = 1 << 20;

/// Symbol count ceiling for [`decode`] when the caller has no out-of-band
/// count: a skewed table can emit far less than one bit per symbol, so the
/// claimed count must be bounded before the output allocation.
const DEFAULT_DECODE_LIMIT: usize = 1 << 26;

/// Encodes a symbol stream; the output is self-describing (normalized
/// frequency table + dictionary + payload) and decoded by [`decode`].
///
/// Returns `None` when the stream uses more than [`MAX_SYMBOLS`] distinct
/// symbols — tANS cannot represent such alphabets and the caller should
/// use [`crate::huffman`] instead.
pub fn encode(symbols: &[u32]) -> Option<Vec<u8>> {
    with_scratch(|scratch| encode_with(scratch, symbols))
}

/// [`encode`] against caller-provided scratch, so repeated calls
/// (per-block selection, rate-curve probes) reuse the histogram, spread
/// and state-table buffers.
pub fn encode_with(scratch: &mut CodecScratch, symbols: &[u32]) -> Option<Vec<u8>> {
    scratch.note_use();
    let out = encode_unmetered(scratch, symbols)?;
    let registry = fxrz_telemetry::global();
    registry.incr(names::FSE_ENCODE_CALLS);
    registry.add(names::FSE_ENCODE_SYMBOLS_IN, symbols.len() as u64);
    registry.add(names::FSE_ENCODE_BYTES_OUT, out.len() as u64);
    Some(out)
}

/// Decodes a buffer produced by [`encode`], capping the claimed symbol
/// count at a conservative default. Callers that know the expected count
/// should use [`decode_limited`].
pub fn decode(buf: &[u8]) -> Result<Vec<u32>, CodecError> {
    decode_limited(buf, DEFAULT_DECODE_LIMIT)
}

/// Like [`decode`], but errors with [`CodecError::Corrupt`] when the
/// stream claims more than `max_symbols` symbols — the allocation guard
/// for untrusted streams whose symbol count is known out of band.
pub fn decode_limited(buf: &[u8], max_symbols: usize) -> Result<Vec<u32>, CodecError> {
    let out = decode_limited_unmetered(buf, max_symbols);
    let registry = fxrz_telemetry::global();
    registry.incr(names::FSE_DECODE_CALLS);
    registry.add(names::FSE_DECODE_BYTES_IN, buf.len() as u64);
    match &out {
        Ok(symbols) => registry.add(names::FSE_DECODE_SYMBOLS_OUT, symbols.len() as u64),
        Err(_) => registry.incr(names::FSE_DECODE_ERRORS),
    }
    out
}

#[inline]
fn floor_log2(v: u32) -> u32 {
    debug_assert!(v > 0);
    31 - v.leading_zeros()
}

/// The table log used for `n_dict` distinct symbols over `count` total:
/// roughly `log2(count) - 2` (diminishing returns past that), clamped to
/// `[MIN_TABLE_LOG, MAX_TABLE_LOG]` and to at least `ceil(log2(n_dict))`
/// so every symbol gets a slot.
fn table_log_for(n_dict: usize, count: usize) -> u32 {
    debug_assert!((2..=MAX_SYMBOLS).contains(&n_dict));
    let need = usize::BITS - (n_dict - 1).leading_zeros(); // ceil(log2(n_dict))
    let opt = floor_log2(count.min(u32::MAX as usize) as u32)
        .saturating_sub(2)
        .clamp(MIN_TABLE_LOG, MAX_TABLE_LOG);
    opt.max(need)
}

/// Normalizes `freqs` (summing to `total`) into `norm` summing to exactly
/// `1 << log`, every entry at least 1. Deterministic: surplus goes to the
/// most frequent symbol, deficit is drained largest-norm-first.
fn normalize(freqs: &[u64], total: u64, log: u32, norm: &mut Vec<u32>) {
    let t = 1u64 << log;
    norm.clear();
    let mut sum = 0u64;
    for &f in freqs {
        let nf = ((f as u128 * t as u128) / total as u128) as u64;
        let nf = nf.max(1);
        sum += nf;
        norm.push(nf as u32);
    }
    if sum < t {
        // Hand the whole surplus to the (first) most frequent symbol: its
        // relative distortion is the smallest.
        let top = (0..freqs.len())
            .max_by_key(|&i| (freqs[i], usize::MAX - i))
            .expect("nonempty");
        norm[top] += (t - sum) as u32;
    } else if sum > t {
        // The +1 clamps overshot; drain from the largest norms, halving at
        // most per pass so no symbol is flattened unnecessarily.
        let mut deficit = sum - t;
        let mut order: Vec<usize> = (0..norm.len()).filter(|&i| norm[i] > 1).collect();
        order.sort_by_key(|&i| (u32::MAX - norm[i], i));
        while deficit > 0 {
            let mut took = 0u64;
            for &i in &order {
                if deficit == 0 {
                    break;
                }
                // Earlier passes may already have drained this norm to 1.
                if norm[i] <= 1 {
                    continue;
                }
                let give = u64::from(norm[i] / 2).clamp(1, u64::from(norm[i] - 1).min(deficit));
                norm[i] -= give as u32;
                deficit -= give;
                took += give;
            }
            assert!(took > 0, "normalization cannot converge");
        }
    }
    debug_assert_eq!(norm.iter().map(|&n| u64::from(n)).sum::<u64>(), t);
}

/// Fills `spread` with the slot occupying each state-table position: each
/// slot appears `norm[slot]` times, scattered by the standard co-prime
/// step `(t >> 1) + (t >> 3) + 3`.
fn spread_symbols(norm: &[u32], log: u32, spread: &mut Vec<u16>) {
    let t = 1usize << log;
    spread.clear();
    spread.resize(t, 0);
    let step = (t >> 1) + (t >> 3) + 3;
    let mask = t - 1;
    let mut pos = 0usize;
    for (slot, &nf) in norm.iter().enumerate() {
        for _ in 0..nf {
            spread[pos] = slot as u16;
            pos = (pos + step) & mask;
        }
    }
    debug_assert_eq!(pos, 0, "spread step must cycle the whole table");
}

/// Builds the histogram: ascending `dict`, per-slot `freqs`, and leaves a
/// symbol→slot lookup behind. Returns `false` for alphabets FSE cannot
/// code (more than [`MAX_SYMBOLS`] distinct values).
///
/// Dense inputs (compact symbol span — the SZ quantization-code case) use
/// a direct-index count array with no sort; wide alphabets fall back to
/// sort + dedup + binary search.
enum SlotLookup {
    /// `slots[symbol - min]` (entries for absent symbols are garbage).
    Dense { min: u32 },
    /// Binary search into the ascending dictionary.
    Sparse,
}

fn histogram(scratch: &mut CodecScratch, symbols: &[u32]) -> Option<SlotLookup> {
    let mut min = u32::MAX;
    let mut max = 0u32;
    for &s in symbols {
        min = min.min(s);
        max = max.max(s);
    }
    let span = (max - min) as usize + 1;
    let CodecScratch {
        fse_slots: slots,
        fse_dict: dict,
        fse_freqs: freqs,
        fse_sorted: sorted,
        ..
    } = scratch;
    dict.clear();
    freqs.clear();
    if span <= DENSE_SPAN_LIMIT.max(4 * symbols.len()) {
        slots.clear();
        slots.resize(span, 0u32);
        for &s in symbols {
            slots[(s - min) as usize] += 1;
        }
        for (i, slot) in slots.iter_mut().enumerate() {
            let c = *slot;
            if c != 0 {
                if dict.len() == MAX_SYMBOLS {
                    return None;
                }
                *slot = dict.len() as u32;
                dict.push(min + i as u32);
                freqs.push(u64::from(c));
            }
        }
        Some(SlotLookup::Dense { min })
    } else {
        sorted.clear();
        sorted.extend_from_slice(symbols);
        sorted.sort_unstable();
        sorted.dedup();
        if sorted.len() > MAX_SYMBOLS {
            return None;
        }
        dict.extend_from_slice(sorted);
        freqs.resize(dict.len(), 0);
        for &s in symbols {
            let slot = dict.binary_search(&s).expect("symbol present");
            freqs[slot] += 1;
        }
        Some(SlotLookup::Sparse)
    }
}

/// Per-slot encode transform: `nb = (state + delta_nb_bits) >> 16`, then
/// `state' = state_table[(state >> nb) + delta_find_state]`.
#[derive(Clone, Copy)]
struct EncSym {
    delta_nb_bits: i64,
    delta_find_state: i32,
}

/// Specialized LSB-first bit sink for the encode hot loop. The generic
/// [`crate::bitstream::BitWriter`] flushes a *variable* number of whole
/// bytes on every call,
/// which costs a length computation plus a variable-size `memcpy` per
/// symbol; here fields are at most 16 bits (`nb <= table_log <= 16`), so
/// two pushes always fit the accumulator and one fixed four-byte flush per
/// symbol pair keeps `nbits < 32` — the compiler lowers it to a single
/// store. The byte stream produced is identical to [`BitWriter`]'s.
struct BitSink {
    buf: Vec<u8>,
    acc: u64,
    /// Pending bit count; `< 32` after every [`Self::flush32`].
    nbits: u32,
}

impl BitSink {
    fn with_capacity(cap: usize) -> Self {
        Self {
            buf: Vec::with_capacity(cap),
            acc: 0,
            nbits: 0,
        }
    }

    /// Appends the low `n <= 16` bits of `value`. At most two pushes may
    /// run between [`Self::flush32`] calls.
    #[inline(always)]
    fn push(&mut self, value: u64, n: u32) {
        debug_assert!(n <= 16 && self.nbits + n <= 64);
        self.acc |= (value & ((1u64 << n) - 1)) << self.nbits;
        self.nbits += n;
    }

    /// Flushes four whole bytes when at least 32 bits are pending.
    #[inline(always)]
    fn flush32(&mut self) {
        if self.nbits >= 32 {
            self.buf.extend_from_slice(&(self.acc as u32).to_le_bytes());
            self.acc >>= 32;
            self.nbits -= 32;
        }
    }

    /// Drains the remaining bits, zero-padding the final partial byte —
    /// the same tail layout [`crate::bitstream::BitWriter::into_bytes`]
    /// produces.
    fn into_bytes(mut self) -> Vec<u8> {
        while self.nbits > 0 {
            self.buf.push(self.acc as u8);
            self.acc >>= 8;
            self.nbits = self.nbits.saturating_sub(8);
        }
        self.buf
    }
}

#[inline(always)]
fn enc_step(state: &mut u64, slot: usize, sym_tt: &[EncSym], state_table: &[u32], w: &mut BitSink) {
    let tt = sym_tt[slot];
    let nb = ((*state as i64 + tt.delta_nb_bits) >> 16) as u32;
    w.push(*state, nb);
    *state =
        u64::from(state_table[((*state >> nb) as i64 + i64::from(tt.delta_find_state)) as usize]);
}

fn encode_unmetered(scratch: &mut CodecScratch, symbols: &[u32]) -> Option<Vec<u8>> {
    let mut out = Vec::with_capacity(symbols.len() / 2 + 64);
    write_varint(&mut out, symbols.len() as u64);
    if symbols.is_empty() {
        return Some(out);
    }
    if symbols.len() >= u32::MAX as usize {
        return None; // per-slot counts are u32; unreachable for real blocks
    }
    let lookup = histogram(scratch, symbols)?;
    let n_dict = scratch.fse_dict.len();
    write_varint(&mut out, n_dict as u64);
    if n_dict == 1 {
        // Constant stream: the dictionary alone reconstructs it.
        write_varint(&mut out, u64::from(scratch.fse_dict[0]));
        return Some(out);
    }

    let log = table_log_for(n_dict, symbols.len());
    let t = 1usize << log;
    write_varint(&mut out, u64::from(log));

    // Header: ascending dictionary as gap-1 deltas, then norm-1 per slot.
    {
        let dict = &scratch.fse_dict;
        write_varint(&mut out, u64::from(dict[0]));
        for w in dict.windows(2) {
            write_varint(&mut out, u64::from(w[1] - w[0] - 1));
        }
    }
    normalize(
        &scratch.fse_freqs,
        symbols.len() as u64,
        log,
        &mut scratch.fse_norm,
    );
    for &nf in &scratch.fse_norm {
        write_varint(&mut out, u64::from(nf - 1));
    }

    // --- encode tables -------------------------------------------------
    let CodecScratch {
        fse_slots: slots,
        fse_dict: dict,
        fse_norm: norm,
        fse_spread: spread,
        fse_cumul: cumul,
        fse_state_table: state_table,
        ..
    } = scratch;
    spread_symbols(norm, log, spread);
    cumul.clear();
    cumul.push(0);
    for &nf in norm.iter() {
        let prev = *cumul.last().expect("nonempty");
        cumul.push(prev + nf);
    }
    // state_table[cumul[slot]..cumul[slot+1]] lists, in spread order, the
    // successor states `t + pos` whose table position holds `slot`.
    state_table.clear();
    state_table.resize(t, 0);
    {
        let mut fill = cumul.clone();
        for (pos, &slot) in spread.iter().enumerate() {
            let c = &mut fill[slot as usize];
            state_table[*c as usize] = (t + pos) as u32;
            *c += 1;
        }
    }
    let sym_tt: Vec<EncSym> = norm
        .iter()
        .zip(cumul.iter())
        .map(|(&nf, &cum)| {
            let max_bits = if nf == 1 {
                log
            } else {
                log - floor_log2(nf - 1)
            };
            EncSym {
                delta_nb_bits: ((i64::from(max_bits)) << 16) - (i64::from(nf) << max_bits),
                delta_find_state: cum as i32 - nf as i32,
            }
        })
        .collect();
    fxrz_telemetry::global().incr(names::FSE_TABLE_BUILDS);

    // --- payload: back-to-front, two interleaved states ----------------
    // State 0 codes even positions, state 1 odd ones; walking indices
    // downward alternates chains exactly, so the decoder (reading the bit
    // fields LIFO) alternates them forward. Both start at `t`, which the
    // decoder verifies on exit.
    let mut w = BitSink::with_capacity(symbols.len() / 2 + 16);
    let mut s0 = t as u64;
    let mut s1 = t as u64;
    let mut i = symbols.len();
    match lookup {
        SlotLookup::Dense { min } => {
            let slot_at = |s: u32| slots[(s - min) as usize] as usize;
            if i & 1 == 1 {
                i -= 1;
                enc_step(&mut s0, slot_at(symbols[i]), &sym_tt, state_table, &mut w);
                w.flush32();
            }
            while i > 0 {
                i -= 1;
                enc_step(&mut s1, slot_at(symbols[i]), &sym_tt, state_table, &mut w);
                i -= 1;
                enc_step(&mut s0, slot_at(symbols[i]), &sym_tt, state_table, &mut w);
                w.flush32();
            }
        }
        SlotLookup::Sparse => {
            let slot_at = |s: u32| dict.binary_search(&s).expect("symbol present");
            if i & 1 == 1 {
                i -= 1;
                enc_step(&mut s0, slot_at(symbols[i]), &sym_tt, state_table, &mut w);
                w.flush32();
            }
            while i > 0 {
                i -= 1;
                enc_step(&mut s1, slot_at(symbols[i]), &sym_tt, state_table, &mut w);
                i -= 1;
                enc_step(&mut s0, slot_at(symbols[i]), &sym_tt, state_table, &mut w);
                w.flush32();
            }
        }
    }
    // Flush chain 1 first so the decoder (reading backward) recovers
    // chain 0 first; the `1` marker locates the stream end past the
    // byte-alignment zero padding.
    w.push(s1 & (t as u64 - 1), log);
    w.push(s0 & (t as u64 - 1), log);
    w.flush32();
    w.push(1, 1);
    out.extend_from_slice(&w.into_bytes());
    Some(out)
}

/// Estimated encoded size in bytes for a block with the given histogram —
/// the per-block selection cost model. `None` when FSE cannot code the
/// alphabet. The payload term is the exact expected tANS cost under the
/// normalized table (`Σ fᵢ · log2(t / normᵢ)` bits), so the comparison
/// against the Huffman estimate is honest about table-resolution loss.
pub fn cost_bytes(dict: &[u32], freqs: &[u64], count: u64) -> Option<u64> {
    let n_dict = dict.len();
    if n_dict > MAX_SYMBOLS {
        return None;
    }
    let mut header = varint_len(count) + varint_len(n_dict as u64);
    if count == 0 {
        return Some(header);
    }
    if n_dict == 1 {
        return Some(header + varint_len(u64::from(dict[0])));
    }
    let log = table_log_for(n_dict, count as usize);
    header += varint_len(u64::from(log));
    header += varint_len(u64::from(dict[0]));
    for w in dict.windows(2) {
        header += varint_len(u64::from(w[1] - w[0] - 1));
    }
    let mut norm = Vec::new();
    normalize(freqs, count, log, &mut norm);
    let mut payload_bits = 0.0f64;
    let t = f64::from(1u32 << log);
    for (&f, &nf) in freqs.iter().zip(norm.iter()) {
        header += varint_len(u64::from(nf - 1));
        payload_bits += f as f64 * (t / f64::from(nf)).log2();
    }
    // Two flushed states plus the marker bit, then byte alignment.
    let tail_bits = 2 * u64::from(log) + 1;
    Some(header + (payload_bits.ceil() as u64 + tail_bits).div_ceil(8))
}

/// Reads LSB-first bit fields backward from a known end position: each
/// `read(n)` returns the `n` bits just below the cursor and moves it down
/// — the LIFO order tANS decoding requires.
struct TailReader<'a> {
    buf: &'a [u8],
    /// Bits still unread below the cursor.
    bit_pos: usize,
}

impl<'a> TailReader<'a> {
    #[inline]
    fn read(&mut self, n: u32) -> Option<u64> {
        if n == 0 {
            return Some(0);
        }
        if (n as usize) > self.bit_pos {
            return None;
        }
        self.bit_pos -= n as usize;
        let byte = self.bit_pos >> 3;
        let shift = (self.bit_pos & 7) as u32;
        // n <= 16 plus a 7-bit shift spans at most 3 bytes; an 8-byte
        // window covers it in one load. The clamped copy only runs within
        // 8 bytes of the buffer end (the first few reads), so the hot
        // path is a single fixed-size load.
        let word = if byte + 8 <= self.buf.len() {
            u64::from_le_bytes(self.buf[byte..byte + 8].try_into().expect("8 bytes"))
        } else {
            let mut tmp = [0u8; 8];
            tmp[..self.buf.len() - byte].copy_from_slice(&self.buf[byte..]);
            u64::from_le_bytes(tmp)
        };
        Some((word >> shift) & ((1u64 << n) - 1))
    }
}

fn decode_limited_unmetered(buf: &[u8], max_symbols: usize) -> Result<Vec<u32>, CodecError> {
    let mut pos = 0usize;
    let count = read_varint(buf, &mut pos).ok_or(CodecError::Truncated)? as usize;
    if count > max_symbols {
        return Err(CodecError::Corrupt("symbol count exceeds caller limit"));
    }
    if count == 0 {
        return Ok(Vec::new());
    }
    let n_dict = read_varint(buf, &mut pos).ok_or(CodecError::Truncated)? as usize;
    if n_dict == 0 {
        return Err(CodecError::Corrupt("nonzero count with empty dictionary"));
    }
    if n_dict == 1 {
        let sym = read_varint(buf, &mut pos).ok_or(CodecError::Truncated)?;
        if sym > u64::from(u32::MAX) {
            return Err(CodecError::Corrupt("symbol exceeds u32"));
        }
        return Ok(vec![sym as u32; count]);
    }
    // Each dictionary entry costs at least two input bytes (delta + norm).
    if n_dict > buf.len() / 2 + 1 {
        return Err(CodecError::Corrupt("dictionary larger than input"));
    }
    let log = read_varint(buf, &mut pos).ok_or(CodecError::Truncated)? as u32;
    if !(MIN_TABLE_LOG..=MAX_TABLE_LOG).contains(&log) {
        return Err(CodecError::Corrupt("table log out of range"));
    }
    let t = 1usize << log;
    if n_dict > t {
        return Err(CodecError::Corrupt("more symbols than table slots"));
    }

    let mut dict = Vec::with_capacity(n_dict);
    let mut prev: u64 = read_varint(buf, &mut pos).ok_or(CodecError::Truncated)?;
    if prev > u64::from(u32::MAX) {
        return Err(CodecError::Corrupt("symbol exceeds u32"));
    }
    dict.push(prev as u32);
    for _ in 1..n_dict {
        let gap = read_varint(buf, &mut pos).ok_or(CodecError::Truncated)?;
        prev = prev
            .checked_add(gap)
            .and_then(|v| v.checked_add(1))
            .ok_or(CodecError::Corrupt("dictionary symbol overflow"))?;
        if prev > u64::from(u32::MAX) {
            return Err(CodecError::Corrupt("symbol exceeds u32"));
        }
        dict.push(prev as u32);
    }
    let mut norm = Vec::with_capacity(n_dict);
    let mut norm_sum = 0u64;
    for _ in 0..n_dict {
        let nf = read_varint(buf, &mut pos)
            .ok_or(CodecError::Truncated)?
            .checked_add(1)
            .ok_or(CodecError::Corrupt("normalized frequency overflow"))?;
        norm_sum += nf;
        if norm_sum > t as u64 {
            return Err(CodecError::Corrupt("normalized frequencies exceed table"));
        }
        norm.push(nf as u32);
    }
    if norm_sum != t as u64 {
        return Err(CodecError::Corrupt(
            "normalized frequencies underfill table",
        ));
    }

    // Decode table: for the x-th occurrence of a slot in spread order,
    // nb = log - floor_log2(x) and the successor base is (x << nb) - t.
    // With the sum check above, every entry lands back inside [0, t) for
    // any bits read, so the hot loop needs no bounds handling.
    let mut spread = Vec::new();
    spread_symbols(&norm, log, &mut spread);
    let mut next: Vec<u32> = norm.clone();
    let mut dtable = vec![0u64; t];
    for (pos_t, &slot) in spread.iter().enumerate() {
        let x = next[slot as usize];
        next[slot as usize] += 1;
        let nb = log - floor_log2(x);
        let base = ((u64::from(x)) << nb) - t as u64;
        dtable[pos_t] = (u64::from(slot) << 32) | (u64::from(nb) << 16) | base;
    }
    fxrz_telemetry::global().incr(names::FSE_TABLE_BUILDS);

    // Locate the marker bit: the encoder's final `1` is the highest set
    // bit of the last byte (later bits are alignment padding).
    let payload = &buf[pos..];
    let last = *payload.last().ok_or(CodecError::Truncated)?;
    if last == 0 {
        return Err(CodecError::Corrupt("missing stream terminator"));
    }
    let marker = (payload.len() - 1) * 8 + (7 - last.leading_zeros() as usize);
    let mut tr = TailReader {
        buf: payload,
        bit_pos: marker,
    };
    let mut s0 = tr.read(log).ok_or(CodecError::Truncated)? as usize;
    let mut s1 = tr.read(log).ok_or(CodecError::Truncated)? as usize;

    let mut out: Vec<u32> = Vec::with_capacity(count);
    let mut remaining = count;
    while remaining >= 2 {
        let e0 = dtable[s0];
        let e1 = dtable[s1];
        let nb0 = (e0 >> 16) as u32 & 0x3F;
        let nb1 = (e1 >> 16) as u32 & 0x3F;
        let total = (nb0 + nb1) as usize;
        let byte = tr.bit_pos.wrapping_sub(total) >> 3;
        if total <= tr.bit_pos && byte + 8 <= tr.buf.len() {
            // Fast path: both interleaved states refill from a single
            // 8-byte load — nb0 + nb1 ≤ 32 bits plus a ≤7-bit shift fits
            // the u64 window. The stream is read backward and s0 consumed
            // its bits after s1's position, so s0's field sits *above*
            // s1's in the window. The bounds checks mirror `tr.read`; the
            // `else` arm only runs near the marker (within 8 bytes of the
            // payload end) or on a truncated stream.
            tr.bit_pos -= total;
            let word = u64::from_le_bytes(tr.buf[byte..byte + 8].try_into().expect("8 bytes"));
            let chunk = word >> (tr.bit_pos & 7);
            s0 = ((e0 & 0xFFFF) + ((chunk >> nb1) & ((1u64 << nb0) - 1))) as usize;
            s1 = ((e1 & 0xFFFF) + (chunk & ((1u64 << nb1) - 1))) as usize;
        } else {
            s0 = ((e0 & 0xFFFF) + tr.read(nb0).ok_or(CodecError::Truncated)?) as usize;
            s1 = ((e1 & 0xFFFF) + tr.read(nb1).ok_or(CodecError::Truncated)?) as usize;
        }
        out.push(dict[(e0 >> 32) as usize]);
        out.push(dict[(e1 >> 32) as usize]);
        remaining -= 2;
    }
    if remaining == 1 {
        let e0 = dtable[s0];
        out.push(dict[(e0 >> 32) as usize]);
        s0 = ((e0 & 0xFFFF)
            + tr.read((e0 >> 16) as u32 & 0x3F)
                .ok_or(CodecError::Truncated)?) as usize;
    }
    // The encoder started both chains at state `t` (index 0) and the bit
    // budget must come out exact; anything else is corruption.
    if s0 != 0 || s1 != 0 {
        return Err(CodecError::Corrupt("stream does not end at initial state"));
    }
    if tr.bit_pos != 0 {
        return Err(CodecError::Corrupt("trailing bits after final symbol"));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(symbols: &[u32]) -> usize {
        let enc = encode(symbols).expect("encodable alphabet");
        let dec = decode(&enc).expect("decode");
        assert_eq!(dec, symbols);
        enc.len()
    }

    #[test]
    fn empty_stream() {
        roundtrip(&[]);
    }

    #[test]
    fn single_symbol_repeated() {
        let n = roundtrip(&[7; 10_000]);
        assert!(n < 16, "constant stream took {n} bytes");
    }

    #[test]
    fn two_symbols() {
        roundtrip(&[0, 1, 0, 0, 1, 0, 1, 1, 1, 0]);
    }

    #[test]
    fn odd_and_even_lengths() {
        for n in [1usize, 2, 3, 4, 5, 31, 32, 33, 1000, 1001] {
            let syms: Vec<u32> = (0..n as u32).map(|i| i % 7).collect();
            roundtrip(&syms);
        }
    }

    #[test]
    fn skewed_distribution_beats_huffman() {
        // Entropy ~0.57 bits/sym is far below Huffman's 1-bit floor for
        // the dominant symbol; FSE must land near the entropy.
        let mut syms = vec![42u32; 9000];
        syms.extend(std::iter::repeat_n(7u32, 900));
        syms.extend(std::iter::repeat_n(1000u32, 100));
        let fse_len = roundtrip(&syms);
        let huff_len = crate::huffman::encode(&syms).len();
        assert!(
            fse_len < huff_len,
            "fse {fse_len} not below huffman {huff_len}"
        );
        // 10000 symbols * ~0.6 bits ≈ 750 bytes; allow table overhead.
        assert!(fse_len < 900, "fse took {fse_len} bytes");
    }

    #[test]
    fn uniform_distribution_roundtrips() {
        let syms: Vec<u32> = (0..4096u32).map(|i| i % 61).collect();
        roundtrip(&syms);
    }

    #[test]
    fn large_sparse_alphabet_uses_sort_path() {
        let syms: Vec<u32> = (0..500u32).map(|i| i.wrapping_mul(2654435761)).collect();
        roundtrip(&syms);
    }

    #[test]
    fn full_width_alphabet_roundtrips() {
        // Exactly MAX_SYMBOLS distinct values forces table_log 16.
        let syms: Vec<u32> = (0..(MAX_SYMBOLS as u32)).collect();
        roundtrip(&syms);
    }

    #[test]
    fn too_wide_alphabet_returns_none() {
        let syms: Vec<u32> = (0..(MAX_SYMBOLS as u32 + 1)).collect();
        assert!(encode(&syms).is_none());
    }

    #[test]
    fn output_is_independent_of_scratch_history() {
        let a: Vec<u32> = (0..20_000).map(|i| (i % 13) as u32).collect();
        let b: Vec<u32> = (0..30_000).map(|i| (i * 7 % 251) as u32).collect();
        let cold = with_scratch(|s| encode_with(s, &b));
        let warm = with_scratch(|s| {
            let _ = encode_with(s, &a);
            encode_with(s, &b)
        });
        assert_eq!(cold, warm);
    }

    #[test]
    fn truncated_buffer_errors() {
        let syms: Vec<u32> = (0..2000u32).map(|i| i % 37).collect();
        let enc = encode(&syms).expect("encode");
        for cut in 0..enc.len() {
            // must never panic; the tail checks catch every truncation
            assert!(decode(&enc[..cut]).is_err(), "cut {cut} decoded");
        }
    }

    #[test]
    fn absurd_counts_error_instead_of_aborting() {
        let mut buf = Vec::new();
        write_varint(&mut buf, u64::MAX); // count
        write_varint(&mut buf, 1); // n_dict
        write_varint(&mut buf, 7); // the constant symbol
        assert!(matches!(decode(&buf), Err(CodecError::Corrupt(_))));
        assert!(decode_limited(&buf, 10).is_err());
    }

    #[test]
    fn corrupt_norm_table_rejected() {
        let mut buf = Vec::new();
        write_varint(&mut buf, 4); // count
        write_varint(&mut buf, 2); // n_dict
        write_varint(&mut buf, u64::from(MIN_TABLE_LOG)); // log -> t = 32
        write_varint(&mut buf, 1); // dict[0]
        write_varint(&mut buf, 0); // dict[1] = 2
        write_varint(&mut buf, 40); // norm[0] = 41 > 32
        write_varint(&mut buf, 0);
        buf.push(0x80);
        assert!(matches!(decode(&buf), Err(CodecError::Corrupt(_))));
    }

    #[test]
    fn decode_limited_rejects_oversized_claims() {
        let syms: Vec<u32> = (0..100u32).map(|i| i % 5).collect();
        let enc = encode(&syms).expect("encode");
        assert_eq!(decode_limited(&enc, 100).expect("fits"), syms);
        assert!(matches!(
            decode_limited(&enc, 99),
            Err(CodecError::Corrupt(_))
        ));
    }

    #[test]
    fn bit_flips_never_panic() {
        let syms: Vec<u32> = (0..3000u32).map(|i| (i * i) % 97).collect();
        let enc = encode(&syms).expect("encode");
        for i in 0..enc.len() {
            for bit in 0..8 {
                let mut bad = enc.clone();
                bad[i] ^= 1 << bit;
                // Corruption may decode to wrong symbols (entropy streams
                // are not checksummed) but must never panic.
                let _ = decode(&bad);
            }
        }
    }

    #[test]
    fn cost_model_tracks_real_size() {
        let syms: Vec<u32> = (0..50_000u32)
            .map(|i| i.wrapping_mul(2654435761) % 113)
            .collect();
        let enc = encode(&syms).expect("encode");
        let mut freqs = vec![0u64; 113];
        for &s in &syms {
            freqs[s as usize] += 1;
        }
        let dict: Vec<u32> = (0..113).collect();
        let est = cost_bytes(&dict, &freqs, syms.len() as u64).expect("estimable") as f64;
        let real = enc.len() as f64;
        assert!(
            (est - real).abs() / real < 0.02,
            "estimate {est} vs real {real}"
        );
    }

    #[test]
    fn compresses_near_entropy() {
        // Geometric-ish distribution: H ≈ 2 bits/sym. FSE should land
        // within a few percent of n·H/8 plus the table header.
        let mut syms = Vec::new();
        for i in 0..16u32 {
            let reps = 40_000usize >> i;
            syms.extend(std::iter::repeat_n(i, reps.max(1)));
        }
        let n = syms.len() as f64;
        let mut freqs = [0u64; 16];
        for &s in &syms {
            freqs[s as usize] += 1;
        }
        let entropy_bits: f64 = freqs
            .iter()
            .filter(|&&f| f > 0)
            .map(|&f| f as f64 * (n / f as f64).log2())
            .sum();
        let enc_len = roundtrip(&syms) as f64;
        assert!(
            enc_len * 8.0 < entropy_bits * 1.05 + 512.0,
            "fse {enc_len} bytes vs entropy floor {} bytes",
            entropy_bits / 8.0
        );
    }
}
