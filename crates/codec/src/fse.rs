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
//! **Table log by cost.** A decode builds a table of `2^log` states for
//! every stream it reaches, so the encoder sizes each table by what it
//! buys: from the log the stream's length suggests
//! (`⌊log2 count⌋ − 2`, at most 16) down to 11 or the alphabet's
//! `⌈log2 n_dict⌉`, it takes the smallest log whose estimated size is
//! within 1/256 of the cheapest. A full 2^18-symbol block of 11 distinct
//! quantization codes takes at most 2^12 states, where its length alone
//! would ask for 2^16 (512 KiB to build). Below 2^11 states nothing is
//! saved, and a smaller table weakens the final-state check a truncated
//! stream must fail, so streams whose length suggests at most log 11
//! keep it. The decoder reads the log from the stream.
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
use fxrz_telemetry::{Counter, Name, Resolved};
use std::sync::Arc;

/// Largest state-table log: tables up to `2^16` entries, matching the SZ
/// quantization-code alphabet bound.
pub const MAX_TABLE_LOG: u32 = 16;

/// Smallest state-table log (keeps the spread step co-prime with the
/// table size and the per-symbol resolution useful).
pub const MIN_TABLE_LOG: u32 = 5;

/// The smallest log [`choose_log`] tries below a stream's length-based log.
/// A table of 2^11 states is 16 KiB and builds in microseconds, so a
/// smaller one saves nothing, while it weakens the decoder's check that
/// both chains end at their initial state.
const FLOOR_LOG: u32 = 11;

/// States of every table built, encode and decode sides, resolved once.
static TABLE_ENTRIES: Resolved<Name, Arc<Counter>> = Resolved::counter(names::FSE_TABLE_ENTRIES);

/// FSE must give every distinct symbol at least one table slot, so
/// alphabets wider than this cannot be coded: [`encode`] returns `None`
/// for them.
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
    with_scratch(|scratch| encode_with(scratch, symbols, &[])).map(|(out, _)| out)
}

/// [`encode`] against caller-provided scratch, so repeated calls (the
/// SZ pipeline's blocks) reuse the histogram, spread and state-table
/// buffers. Also returns the decoder's [`Cursor`]
/// before each symbol index of `marks` (ascending, each below
/// `symbols.len()`): the cursor [`Decoder::seek`] takes to start
/// decoding at that symbol. Marks change no byte. A stream of one
/// distinct symbol has no table and no bits, so it gets no cursors (the
/// vector is empty).
///
/// In tANS terms the cursor before symbol `i` is the state of chain
/// `i mod 2` right after the encoder codes `i`, the other chain's state
/// right after it codes `i + 1` (its initial state when `i` is the last
/// symbol), and the number of bits written by then; the encoder's
/// backward pass takes them as it passes each mark.
pub fn encode_with(
    scratch: &mut CodecScratch,
    symbols: &[u32],
    marks: &[usize],
) -> Option<(Vec<u8>, Vec<Cursor>)> {
    debug_assert!(marks.windows(2).all(|w| w[0] < w[1]));
    debug_assert!(marks.last().is_none_or(|&m| m < symbols.len()));
    scratch.note_use();
    let out = encode_unmetered(scratch, symbols, None, marks)?;
    let registry = fxrz_telemetry::global();
    registry.incr(names::FSE_ENCODE_CALLS);
    registry.add(names::FSE_ENCODE_SYMBOLS_IN, symbols.len() as u64);
    registry.add(names::FSE_ENCODE_BYTES_OUT, out.0.len() as u64);
    Some(out)
}

/// Decodes a buffer produced by [`encode`], capping the claimed symbol
/// count at a conservative default. Callers that know the expected count
/// should use [`decode_limited`].
pub fn decode(buf: &[u8]) -> Result<Vec<u32>, CodecError> {
    decode_limited(buf, DEFAULT_DECODE_LIMIT, usize::MAX)
}

/// Decodes the first `stop` symbols of a buffer produced by [`encode`]
/// (all of them when it holds fewer), and errors with
/// [`CodecError::Corrupt`] when the stream claims more than
/// `max_symbols` — the allocation guard for untrusted streams whose
/// symbol count is known out of band. Only a decode that reaches the
/// last symbol checks the final states and the bit budget. This is
/// [`Decoder`] collected.
pub fn decode_limited(buf: &[u8], max_symbols: usize, stop: usize) -> Result<Vec<u32>, CodecError> {
    let mut dec = Decoder::new(buf, max_symbols)?;
    let mut out = vec![0; dec.len().min(stop)];
    let mut at = dec.cursor();
    dec.fill(&mut at, &mut out);
    dec.set_cursor(at);
    dec.finish(out.len())?;
    Ok(out)
}

#[inline]
fn floor_log2(v: u32) -> u32 {
    debug_assert!(v > 0);
    31 - v.leading_zeros()
}

/// The least table log that gives each of `n_dict` symbols a slot:
/// `ceil(log2(n_dict))`.
fn need_log(n_dict: usize) -> u32 {
    usize::BITS - (n_dict - 1).leading_zeros()
}

/// The largest table log [`choose_log`] tries for `n_dict` distinct symbols
/// over `count` total: roughly `log2(count) - 2` (diminishing returns
/// past that), clamped to `[MIN_TABLE_LOG, MAX_TABLE_LOG]` and to at
/// least [`need_log`].
fn table_log_for(n_dict: usize, count: usize) -> u32 {
    debug_assert!((2..=MAX_SYMBOLS).contains(&n_dict));
    let opt = floor_log2(count.min(u32::MAX as usize) as u32)
        .saturating_sub(2)
        .clamp(MIN_TABLE_LOG, MAX_TABLE_LOG);
    opt.max(need_log(n_dict))
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

    /// Bits written so far.
    fn bits(&self) -> usize {
        self.buf.len() * 8 + self.nbits as usize
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

/// Codes `symbols[lo..hi]` back to front onto `w`, symbol `i` on chain
/// `i mod 2` (`s0` even, `s1` odd), in pairs with one flush each.
#[inline(always)]
#[expect(
    clippy::too_many_arguments,
    reason = "the encode loop's state, kept in registers"
)]
fn encode_run(
    symbols: &[u32],
    lo: usize,
    hi: usize,
    slot_at: impl Fn(u32) -> usize,
    sym_tt: &[EncSym],
    state_table: &[u32],
    (s0, s1): (&mut u64, &mut u64),
    w: &mut BitSink,
) {
    let mut i = hi;
    if i > lo && i & 1 == 1 {
        i -= 1;
        enc_step(s0, slot_at(symbols[i]), sym_tt, state_table, w);
        w.flush32();
    }
    while i >= lo + 2 {
        i -= 1;
        enc_step(s1, slot_at(symbols[i]), sym_tt, state_table, w);
        i -= 1;
        enc_step(s0, slot_at(symbols[i]), sym_tt, state_table, w);
        w.flush32();
    }
    if i > lo {
        i -= 1;
        enc_step(s1, slot_at(symbols[i]), sym_tt, state_table, w);
        w.flush32();
    }
}

/// Codes every symbol back to front, from `s0 = s1 = t`, stopping at
/// each mark (descending) to take the decoder's cursor before it.
#[inline(always)]
fn encode_marked_runs(
    symbols: &[u32],
    marks: &[usize],
    slot_at: impl Fn(u32) -> usize + Copy,
    sym_tt: &[EncSym],
    state_table: &[u32],
    t: u64,
    w: &mut BitSink,
) -> (u64, u64, Vec<Cursor>) {
    let (mut s0, mut s1) = (t, t);
    let mut cursors = Vec::with_capacity(marks.len());
    let mut hi = symbols.len();
    for &m in marks.iter().rev() {
        let states = (&mut s0, &mut s1);
        encode_run(symbols, m, hi, slot_at, sym_tt, state_table, states, w);
        let (own, other) = if m & 1 == 0 { (s0, s1) } else { (s1, s0) };
        cursors.push(Cursor::new(
            (own - t) as usize,
            (other - t) as usize,
            w.bits(),
        ));
        hi = m;
    }
    let states = (&mut s0, &mut s1);
    encode_run(symbols, 0, hi, slot_at, sym_tt, state_table, states, w);
    cursors.reverse();
    (s0, s1, cursors)
}

/// [`encode_with`] without its counters. The table log is
/// [`choose_log`]'s unless `log` forces one (tests compare the chosen
/// log's bytes with another log's).
fn encode_unmetered(
    scratch: &mut CodecScratch,
    symbols: &[u32],
    log: Option<u32>,
    marks: &[usize],
) -> Option<(Vec<u8>, Vec<Cursor>)> {
    let mut out = Vec::with_capacity(symbols.len() / 2 + 64);
    write_varint(&mut out, symbols.len() as u64);
    if symbols.is_empty() {
        return Some((out, Vec::new()));
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
        return Some((out, Vec::new()));
    }

    let log = log.unwrap_or_else(|| {
        choose_log(
            &scratch.fse_dict,
            &scratch.fse_freqs,
            symbols.len() as u64,
            &mut scratch.fse_norm,
        )
    });
    debug_assert!(
        (need_log(n_dict).max(MIN_TABLE_LOG)..=MAX_TABLE_LOG).contains(&log),
        "log {log} cannot code {n_dict} symbols"
    );
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
    TABLE_ENTRIES.get().add(t as u64);

    // --- payload: back-to-front, two interleaved states ----------------
    // State 0 codes even positions, state 1 odd ones; walking indices
    // downward alternates chains exactly, so the decoder (reading the bit
    // fields LIFO) alternates them forward. Both start at `t`, which the
    // decoder verifies on exit.
    let mut w = BitSink::with_capacity(symbols.len() / 2 + 16);
    let (s0, s1, cursors) = match lookup {
        SlotLookup::Dense { min } => {
            let slot_at = |s: u32| slots[(s - min) as usize] as usize;
            encode_marked_runs(
                symbols,
                marks,
                slot_at,
                &sym_tt,
                state_table,
                t as u64,
                &mut w,
            )
        }
        SlotLookup::Sparse => {
            let slot_at = |s: u32| dict.binary_search(&s).expect("symbol present");
            encode_marked_runs(
                symbols,
                marks,
                slot_at,
                &sym_tt,
                state_table,
                t as u64,
                &mut w,
            )
        }
    };
    // Flush chain 1 first so the decoder (reading backward) recovers
    // chain 0 first; the `1` marker locates the stream end past the
    // byte-alignment zero padding.
    w.push(s1 & (t as u64 - 1), log);
    w.push(s0 & (t as u64 - 1), log);
    w.flush32();
    w.push(1, 1);
    out.extend_from_slice(&w.into_bytes());
    Some((out, cursors))
}

/// The table log the encoder codes a stream of at least two distinct
/// symbols at (ascending `dict`, per-symbol `freqs` summing to
/// `count`). `norm` is scratch.
///
/// The log is chosen by cost. Each candidate from `max(⌈log2 n_dict⌉,
/// min(top, 11))` up to `top`, the log the stream's length suggests
/// (`⌊log2 count⌋ − 2`, at most 16), is priced by [`cost_at`], and the
/// smallest log within 1/256 of the cheapest wins: a decode builds a
/// table of `2^log` states for every stream it reaches, and a stream of
/// few distinct symbols gains next to nothing from a large one. A
/// stream whose `top` is at most 11 has that one candidate.
fn choose_log(dict: &[u32], freqs: &[u64], count: u64, norm: &mut Vec<u32>) -> u32 {
    let top = table_log_for(dict.len(), count as usize);
    let lowest = need_log(dict.len()).max(top.min(FLOOR_LOG));
    let mut costs = [0u64; (MAX_TABLE_LOG + 1) as usize];
    for log in lowest..=top {
        costs[log as usize] = cost_at(dict, freqs, count, log, norm);
    }
    let best = costs[lowest as usize..=top as usize]
        .iter()
        .min()
        .copied()
        .unwrap_or(0);
    (lowest..=top)
        .find(|&log| 256 * costs[log as usize] <= 257 * best)
        .expect("the cheapest candidate is within reach of itself")
}

/// The estimated size in bytes of a stream with this histogram coded at
/// table `log`: the header's varints, the exact expected tANS payload
/// under the log's normalized table (`Σ fᵢ · log2(2^log / normᵢ)`
/// bits), and the two final states. `norm` is scratch.
fn cost_at(dict: &[u32], freqs: &[u64], count: u64, log: u32, norm: &mut Vec<u32>) -> u64 {
    let mut bytes = varint_len(count) + varint_len(dict.len() as u64) + varint_len(u64::from(log));
    bytes += varint_len(u64::from(dict[0]));
    for w in dict.windows(2) {
        bytes += varint_len(u64::from(w[1] - w[0] - 1));
    }
    normalize(freqs, count, log, norm);
    let t = f64::from(1u32 << log);
    let mut payload_bits = 0.0f64;
    for (&f, &nf) in freqs.iter().zip(norm.iter()) {
        bytes += varint_len(u64::from(nf - 1));
        payload_bits += f as f64 * (t / f64::from(nf)).log2();
    }
    // Two flushed states plus the marker bit, then byte alignment.
    let tail_bits = 2 * u64::from(log) + 1;
    bytes + (payload_bits.ceil() as u64 + tail_bits).div_ceil(8)
}

/// The bits of a stream whose fields are all zero bits wide (one
/// symbol, or none): one zero window, which [`Decoder::step`] reads at
/// [`NO_BITS_AT`] on its fast path.
const NO_BITS: [u8; 8] = [0; 8];

/// The lowest cursor position whose 8-byte window starts inside the
/// buffer; below it [`Decoder::step`] reads through [`read_tail`].
const NO_BITS_AT: usize = 56;

/// The symbols of one stream produced by [`encode`], handed out in order
/// on demand. [`Decoder::step`] is one state transition of the two
/// interleaved chains, so a caller can run other work between symbols
/// (the SZ decode walks the Lorenzo predictor alongside it) instead of
/// waiting for the whole stream. [`decode_limited`] is this decoder
/// collected.
#[derive(Debug)]
pub struct Decoder<'a> {
    /// Per state: `symbol << 32 | nb << 16 | base`; the successor state
    /// is `base` plus the `nb` bits read.
    table: Vec<u64>,
    /// The payload, read backward from the marker bit.
    bits: &'a [u8],
    /// Symbols the stream holds.
    count: usize,
    /// Where the cursor ends once every symbol is out: 0, or
    /// [`NO_BITS_AT`] for a stream read with no bits.
    end: usize,
    /// Where the decoder stands between loops that step it.
    at: Cursor,
}

/// Where a [`Decoder`] stands: the two chains' states and the bit
/// position. It is small and `Copy`, so a loop that steps a decoder
/// through [`Decoder::step`] keeps it in registers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Cursor {
    /// The state that emits the next symbol, and the other chain's.
    state: usize,
    other: usize,
    /// Bits still unread below the cursor.
    bit_pos: usize,
    /// A field ran past the start of the payload.
    truncated: bool,
}

impl Cursor {
    /// A cursor at these states and bit position, as an access index
    /// stores one; [`Decoder::seek`] checks it against its stream.
    pub fn new(state: usize, other: usize, bit_pos: usize) -> Self {
        Self {
            state,
            other,
            bit_pos,
            truncated: false,
        }
    }

    /// The state that emits the next symbol.
    pub fn state(&self) -> usize {
        self.state
    }

    /// The other chain's state.
    pub fn other(&self) -> usize {
        self.other
    }

    /// Bits still unread below the cursor, counted from the payload's
    /// first bit.
    pub fn bit_pos(&self) -> usize {
        self.bit_pos
    }
}

impl<'a> Decoder<'a> {
    /// Parses the header of `buf`, builds the decode table and reads the
    /// two initial states. Errors with [`CodecError::Corrupt`] when the
    /// stream claims more than `max_symbols`, before anything is sized
    /// from the claim.
    pub fn new(buf: &'a [u8], max_symbols: usize) -> Result<Self, CodecError> {
        let registry = fxrz_telemetry::global();
        registry.incr(names::FSE_DECODE_CALLS);
        registry.add(names::FSE_DECODE_BYTES_IN, buf.len() as u64);
        let dec = Self::parse(buf, max_symbols);
        if dec.is_err() {
            registry.incr(names::FSE_DECODE_ERRORS);
        }
        dec
    }

    /// A decoder of no symbols over no bytes: a placeholder, metering
    /// nothing, that allocates no table.
    pub fn empty() -> Self {
        Self {
            table: Vec::new(),
            bits: &NO_BITS,
            count: 0,
            end: NO_BITS_AT,
            at: Cursor {
                state: 0,
                other: 0,
                bit_pos: NO_BITS_AT,
                truncated: false,
            },
        }
    }

    /// How many symbols the stream holds.
    pub fn len(&self) -> usize {
        self.count
    }

    /// Whether the stream holds no symbols.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// A stream of `count` copies of `symbol`: one state, read with no
    /// bits.
    fn constant(symbol: u32, count: usize) -> Self {
        Self {
            table: vec![u64::from(symbol) << 32],
            count,
            ..Self::empty()
        }
    }

    fn parse(buf: &'a [u8], max_symbols: usize) -> Result<Self, CodecError> {
        let mut pos = 0usize;
        let count = read_varint(buf, &mut pos).ok_or(CodecError::Truncated)? as usize;
        if count > max_symbols {
            return Err(CodecError::Corrupt("symbol count exceeds caller limit"));
        }
        if count == 0 {
            return Ok(Self::constant(0, 0));
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
            return Ok(Self::constant(sym as u32, count));
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

        // Locate the marker bit: the encoder's final `1` is the highest set
        // bit of the last byte (later bits are alignment padding).
        let bits = &buf[pos..];
        let last = *bits.last().ok_or(CodecError::Truncated)?;
        if last == 0 {
            return Err(CodecError::Corrupt("missing stream terminator"));
        }
        let marker = (bits.len() - 1) * 8 + (7 - last.leading_zeros() as usize);
        let (marker, state) = read_tail(bits, marker, log).ok_or(CodecError::Truncated)?;
        let (bit_pos, other) = read_tail(bits, marker, log).ok_or(CodecError::Truncated)?;
        Ok(Self {
            table: decode_table(&dict, &norm, log),
            bits,
            count,
            end: 0,
            at: Cursor {
                state: state as usize,
                other: other as usize,
                bit_pos,
                truncated: false,
            },
        })
    }

    /// Where the decoder stands, for a loop that steps it with
    /// [`Self::step`] and hands the result back to [`Self::set_cursor`].
    pub fn cursor(&self) -> Cursor {
        self.at
    }

    /// Moves the decoder to `at`, a cursor stepped from its own.
    pub fn set_cursor(&mut self, at: Cursor) {
        self.at = at;
    }

    /// Moves a decoder fresh from [`Self::new`] to `at`, the cursor
    /// [`encode_with`] took before symbol `skip`: the decoder then
    /// holds the symbols from `skip` on. The cursor is checked first, so
    /// an untrusted one cannot steer a step outside the table or the
    /// bits: `skip` must lie inside the stream, both states inside the
    /// table, and the bit position inside the payload, at or below where
    /// the final states end. A stream of one distinct symbol has no
    /// states and no bits; it takes only the all-zero cursor.
    pub fn seek(&mut self, skip: usize, at: Cursor) -> Result<(), CodecError> {
        let size = self.table.len();
        let inside = skip < self.count
            && match size {
                1 => at == Cursor::new(0, 0, 0),
                _ => at.state < size && at.other < size && at.bit_pos <= self.at.bit_pos,
            };
        if !inside {
            fxrz_telemetry::global().incr(names::FSE_DECODE_ERRORS);
            return Err(CodecError::Corrupt("seek cursor outside the stream"));
        }
        self.count -= skip;
        if size > 1 {
            self.at = Cursor::new(at.state, at.other, at.bit_pos);
        }
        Ok(())
    }

    /// The next symbol, from where `at` stands; advances `at`. This is
    /// the one state transition every decode of this crate and of the SZ
    /// pipeline runs. Step at most [`Self::len`] times: past the end the
    /// symbols are garbage, though never a panic. A field that runs past
    /// the start of the payload reads as zero bits and is reported by
    /// [`Self::finish`].
    #[inline(always)]
    pub fn step(&self, at: &mut Cursor) -> u32 {
        // Every entry's `base + 2^nb` stays within the table (the norms
        // sum to its size), so a state never leaves it.
        let e = self.table[at.state];
        let nb = (e >> 16) as u32 & 0x1F;
        // The 8 bytes ending with the byte that holds bit `bit_pos` hold
        // every field of up to 56 bits below it. Their address depends on
        // the cursor alone, not on this state's entry, so the load runs
        // alongside the table lookup instead of after it. Only the fields
        // in the payload's first 7 bytes, or past its start, take the
        // slow path.
        let first = (at.bit_pos >> 3).wrapping_sub(7);
        let bits = match self.bits.get(first..first.wrapping_add(8)) {
            Some(window) => {
                let pos = at.bit_pos - nb as usize;
                at.bit_pos = pos;
                let window = u64::from_le_bytes(window.try_into().expect("8 bytes"));
                (window >> (pos - 8 * first)) & ((1u64 << nb) - 1)
            }
            None => match read_tail(self.bits, at.bit_pos, nb) {
                Some((pos, bits)) => {
                    at.bit_pos = pos;
                    bits
                }
                None => {
                    at.truncated = true;
                    at.bit_pos = 0;
                    0
                }
            },
        };
        // The chains alternate: this state's successor decodes the
        // symbol after next.
        at.state = at.other;
        at.other = (e & 0xFFFF) as usize + bits as usize;
        (e >> 32) as u32
    }

    /// Fills `out` with the next symbols from `at`, which it advances:
    /// [`Self::step`] in a loop, or for a one-symbol stream, whose steps
    /// read nothing and leave `at` where it is, that symbol.
    pub fn fill(&self, at: &mut Cursor, out: &mut [u32]) {
        if let [only] = self.table[..] {
            out.fill((only >> 32) as u32);
            return;
        }
        let mut here = *at;
        for symbol in out {
            *symbol = self.step(&mut here);
        }
        *at = here;
    }

    /// Ends a decode that handed out `decoded` symbols: fails when a
    /// field ran past the payload's start, and, once every symbol is
    /// out, unless both chains are back at the encoder's initial state
    /// and every bit is consumed. A decode that stops early cannot check
    /// the last two.
    pub fn finish(self, decoded: usize) -> Result<(), CodecError> {
        let at = self.at;
        let out = if at.truncated {
            Err(CodecError::Truncated)
        } else if decoded < self.count {
            Ok(())
        } else if at.state != 0 || at.other != 0 {
            Err(CodecError::Corrupt("stream does not end at initial state"))
        } else if at.bit_pos != self.end {
            Err(CodecError::Corrupt("trailing bits after final symbol"))
        } else {
            Ok(())
        };
        let registry = fxrz_telemetry::global();
        match out {
            Ok(()) => registry.add(names::FSE_DECODE_SYMBOLS_OUT, decoded as u64),
            Err(_) => registry.incr(names::FSE_DECODE_ERRORS),
        }
        out
    }
}

/// Reads the `n` bits of `bits` just below bit `bit_pos` byte by byte,
/// for the fields no 8-byte window of the buffer holds (the marker's
/// states, and the fields in its first 7 bytes): the new position and
/// the field, or `None` when the field runs past the start.
#[cold]
#[inline(never)]
fn read_tail(bits: &[u8], bit_pos: usize, n: u32) -> Option<(usize, u64)> {
    let pos = bit_pos.checked_sub(n as usize)?;
    let byte = pos >> 3;
    let mut word = [0u8; 8];
    let avail = bits.len().saturating_sub(byte).min(8);
    word[..avail].copy_from_slice(&bits[byte..byte + avail]);
    Some((
        pos,
        (u64::from_le_bytes(word) >> (pos & 7)) & ((1u64 << n) - 1),
    ))
}

/// The multiplicative inverse of the odd `step` modulo `2^log`.
fn inverse_mod_pow2(step: usize, log: u32) -> usize {
    debug_assert!(step % 2 == 1);
    // Newton's iteration doubles the correct low bits each round: an odd
    // number is its own inverse modulo 8, so four rounds reach 2^48.
    let mut inv = step;
    for _ in 0..4 {
        inv = inv.wrapping_mul(2usize.wrapping_sub(step.wrapping_mul(inv)));
    }
    inv & ((1 << log) - 1)
}

/// The decode table of a stream with ascending `dict` and `norm` (summing
/// to `2^log`), built in one ascending pass over the state positions.
///
/// [`spread_symbols`] hands out generation indices `g = 0, 1, …` in slot
/// order (slot `s` owns `g` in `cumul[s]..cumul[s + 1]`) and puts index
/// `g` at position `g · step mod 2^log`. The step is odd, so position `p`
/// holds generation index `p · step⁻¹ mod 2^log`. The `x`-th occurrence
/// of a slot in position order (`x` counting up from its norm) reads
/// `nb = log − floor(log2 x)` bits onto base `(x << nb) − 2^log`. Each
/// entry carries its symbol, so decoding needs no dictionary lookup.
fn decode_table(dict: &[u32], norm: &[u32], log: u32) -> Vec<u64> {
    let t = 1usize << log;
    let mask = t - 1;
    let step = (t >> 1) + (t >> 3) + 3;
    let inv = inverse_mod_pow2(step, log);
    let mut gen_slot: Vec<u16> = Vec::with_capacity(t);
    for (slot, &nf) in norm.iter().enumerate() {
        gen_slot.extend(std::iter::repeat_n(slot as u16, nf as usize));
    }
    let mut next = norm.to_vec();
    let mut table = Vec::with_capacity(t);
    let mut g = 0usize;
    for _ in 0..t {
        let slot = usize::from(gen_slot[g]);
        let x = next[slot];
        next[slot] += 1;
        let nb = log - floor_log2(x);
        let base = (u64::from(x) << nb) - t as u64;
        table.push((u64::from(dict[slot]) << 32) | (u64::from(nb) << 16) | base);
        g = (g + inv) & mask;
    }
    fxrz_telemetry::global().incr(names::FSE_TABLE_BUILDS);
    TABLE_ENTRIES.get().add(t as u64);
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The decode table built the encoder's way: spread the slots over
    /// the positions, then fill the positions in ascending order — the
    /// reference [`decode_table`] must match entry for entry.
    fn spread_then_fill(dict: &[u32], norm: &[u32], log: u32) -> Vec<u64> {
        let t = 1u64 << log;
        let mut spread = Vec::new();
        spread_symbols(norm, log, &mut spread);
        let mut next = norm.to_vec();
        spread
            .iter()
            .map(|&slot| {
                let slot = usize::from(slot);
                let x = next[slot];
                next[slot] += 1;
                let nb = log - floor_log2(x);
                let base = (u64::from(x) << nb) - t;
                (u64::from(dict[slot]) << 32) | (u64::from(nb) << 16) | base
            })
            .collect()
    }

    #[test]
    fn ascending_pass_table_matches_spread_then_fill() {
        let mut rng = StdRng::seed_from_u64(0xF5E_7AB1E);
        for case in 0..300 {
            let log = rng.gen_range(MIN_TABLE_LOG..=MAX_TABLE_LOG);
            let t = 1usize << log;
            // Alphabets from two symbols up to the whole table, with
            // uniform, skewed and one-dominant histograms.
            let n_dict = match rng.gen_range(0..4) {
                0 => 2,
                1 => t,
                _ => rng.gen_range(2..=t.min(4096)),
            };
            let freqs: Vec<u64> = (0..n_dict)
                .map(|i| match case % 3 {
                    0 => rng.gen_range(1..1000u64),
                    1 => 1 + (1_000_000 >> (i % 20)),
                    _ if i == 0 => 1 << 30,
                    _ => rng.gen_range(1..4u64),
                })
                .collect();
            let total: u64 = freqs.iter().sum();
            let mut norm = Vec::new();
            normalize(&freqs, total, log, &mut norm);
            let mut dict = Vec::with_capacity(n_dict);
            let mut sym = rng.gen_range(0..100u32);
            for _ in 0..n_dict {
                dict.push(sym);
                sym += rng.gen_range(1..40u32);
            }
            assert_eq!(
                decode_table(&dict, &norm, log),
                spread_then_fill(&dict, &norm, log),
                "case {case}: log {log}, {n_dict} symbols"
            );
        }
    }

    #[test]
    fn decoder_hands_out_the_stream_on_demand() {
        let syms: Vec<u32> = (0..70_001u32).map(|i| (i % 1000) * (i % 7) % 211).collect();
        let enc = encode(&syms).expect("encode");
        let mut dec = Decoder::new(&enc, syms.len()).expect("header");
        assert_eq!(dec.len(), syms.len());
        // Stepped in stretches, the cursor handed back between them.
        for chunk in syms.chunks(777) {
            let mut at = dec.cursor();
            for (i, &want) in chunk.iter().enumerate() {
                assert_eq!(dec.step(&mut at), want, "symbol {i} of a stretch");
            }
            dec.set_cursor(at);
        }
        dec.finish(syms.len()).expect("final states and bit budget");
        // A decoder abandoned part way checks only what it read.
        let mut dec = Decoder::new(&enc, syms.len()).expect("header");
        let mut at = dec.cursor();
        for &want in &syms[..100] {
            assert_eq!(dec.step(&mut at), want);
        }
        dec.set_cursor(at);
        dec.finish(100).expect("prefix");
    }

    #[test]
    fn marked_cursors_seek_a_fresh_decoder_to_their_symbol() {
        let syms: Vec<u32> = (0..9_001u32).map(|i| (i * i + 7 * i) % 113).collect();
        let marks = [0, 1, 2, 777, 778, 4_000, 8_999, 9_000];
        let (enc, cursors) =
            with_scratch(|s| encode_with(s, &syms, &marks)).expect("encodable alphabet");
        assert_eq!(enc, encode(&syms).expect("encode"), "marks change no byte");
        assert_eq!(cursors.len(), marks.len());
        for (&mark, &at) in marks.iter().zip(&cursors) {
            let mut dec = Decoder::new(&enc, syms.len()).expect("header");
            dec.seek(mark, at).expect("a cursor of this stream");
            assert_eq!(dec.len(), syms.len() - mark);
            assert_eq!(decode_rest(&mut dec), syms[mark..], "from symbol {mark}");
        }
        // The cursor before symbol 0 is where a fresh decoder stands.
        let fresh = Decoder::new(&enc, syms.len()).expect("header");
        assert_eq!(cursors[0], fresh.cursor());
        // One-symbol streams have no cursors.
        let constant = with_scratch(|s| encode_with(s, &[4; 50], &[10])).expect("encode");
        assert!(constant.1.is_empty());
    }

    #[test]
    fn seek_rejects_cursors_outside_the_stream() {
        let syms: Vec<u32> = (0..3_000u32).map(|i| i % 37).collect();
        let (enc, cursors) = with_scratch(|s| encode_with(s, &syms, &[1_500])).expect("encode");
        let good = cursors[0];
        let size = 1usize << recorded_log(&enc);
        let end = Decoder::new(&enc, syms.len())
            .expect("header")
            .cursor()
            .bit_pos();
        let bad = [
            (1_500, Cursor::new(size, good.other(), good.bit_pos())),
            (1_500, Cursor::new(good.state(), size, good.bit_pos())),
            (1_500, Cursor::new(good.state(), good.other(), end + 1)),
            (3_000, good),
        ];
        for (skip, at) in bad {
            let mut dec = Decoder::new(&enc, syms.len()).expect("header");
            assert!(dec.seek(skip, at).is_err(), "{skip} {at:?}");
        }
        // A one-symbol stream takes the all-zero cursor, and no other.
        let constant = encode(&[4; 50]).expect("encode");
        let mut dec = Decoder::new(&constant, 50).expect("header");
        assert!(dec.seek(50, Cursor::new(0, 0, 0)).is_err());
        assert!(dec.seek(1, Cursor::new(0, 0, 1)).is_err());
        dec.seek(10, Cursor::new(0, 0, 0))
            .expect("inside the stream");
        assert_eq!(decode_rest(&mut dec), [4; 40]);
    }

    /// Every symbol a decoder still holds, its final checks passed.
    fn decode_rest(dec: &mut Decoder<'_>) -> Vec<u32> {
        let mut out = vec![0; dec.len()];
        let mut here = dec.cursor();
        dec.fill(&mut here, &mut out);
        dec.set_cursor(here);
        let dec = std::mem::replace(dec, Decoder::empty());
        dec.finish(out.len()).expect("final states and bit budget");
        out
    }

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
        let cold = with_scratch(|s| encode_with(s, &b, &[]));
        let warm = with_scratch(|s| {
            let _ = encode_with(s, &a, &[]);
            encode_with(s, &b, &[])
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
        assert!(decode_limited(&buf, 10, usize::MAX).is_err());
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
        assert_eq!(decode_limited(&enc, 100, usize::MAX).expect("fits"), syms);
        assert!(matches!(
            decode_limited(&enc, 99, usize::MAX),
            Err(CodecError::Corrupt(_))
        ));
    }

    #[test]
    fn limited_decode_returns_the_first_stop_symbols() {
        let syms: Vec<u32> = (0..3001u32).map(|i| (i * i) % 97).collect();
        let enc = encode(&syms).expect("encode");
        for stop in [0, 1, 2, 3, 1500, 3000, 3001, usize::MAX] {
            let got = decode_limited(&enc, syms.len(), stop).expect("prefix");
            assert_eq!(got, syms[..stop.min(syms.len())], "stop {stop}");
        }
        let constant = encode(&[9; 50]).expect("encode");
        assert_eq!(decode_limited(&constant, 50, 7).expect("prefix"), [9; 7]);
        // The claimed count is checked before any symbol is decoded.
        assert!(matches!(
            decode_limited(&enc, syms.len() - 1, 1),
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
        let count = syms.len() as u64;
        let norm = &mut Vec::new();
        let est = cost_at(&dict, &freqs, count, recorded_log(&enc), norm) as f64;
        let real = enc.len() as f64;
        assert!(
            (est - real).abs() / real < 0.02,
            "estimate {est} vs real {real}"
        );
    }

    /// The table log a stream records: its third header varint.
    fn recorded_log(enc: &[u8]) -> u32 {
        let mut pos = 0;
        read_varint(enc, &mut pos).expect("count");
        read_varint(enc, &mut pos).expect("dictionary size");
        read_varint(enc, &mut pos).expect("log") as u32
    }

    /// The histogram of `syms`, all below `n_dict`, each of them
    /// present: the ascending dictionary and the counts.
    fn histogram_of(syms: &[u32], n_dict: usize) -> (Vec<u32>, Vec<u64>) {
        let mut freqs = vec![0u64; n_dict];
        for &s in syms {
            freqs[s as usize] += 1;
        }
        assert!(freqs.iter().all(|&f| f > 0), "every symbol present");
        ((0..n_dict as u32).collect(), freqs)
    }

    /// [`choose_log`] of the histogram of `syms` (see [`histogram_of`]).
    fn chosen_log(syms: &[u32], n_dict: usize) -> u32 {
        let (dict, freqs) = histogram_of(syms, n_dict);
        choose_log(&dict, &freqs, syms.len() as u64, &mut Vec::new())
    }

    #[test]
    fn a_full_block_of_few_symbols_takes_a_small_table() {
        // 2^18 symbols of 11 values, skewed the way quantization codes
        // are: the block's length alone would ask for log 16.
        let weights = [1u32, 3, 12, 60, 300, 2_000, 300, 60, 12, 3, 1];
        let total: u32 = weights.iter().sum();
        let syms: Vec<u32> = (0..1u32 << 18)
            .map(|i| {
                let mut r = i.wrapping_mul(2_654_435_761) % total;
                weights
                    .iter()
                    .position(|&w| {
                        let hit = r < w;
                        r = r.wrapping_sub(w);
                        hit
                    })
                    .expect("a weight") as u32
            })
            .collect();
        assert_eq!(table_log_for(11, syms.len()), 16);
        let log = chosen_log(&syms, 11);
        assert!(log <= 12, "log {log}");
        let enc = encode(&syms).expect("encode");
        assert_eq!(
            recorded_log(&enc),
            log,
            "the encoder writes the log it chose"
        );
        assert_eq!(decode(&enc).expect("decode"), syms);
        // Within 1/256 of the cheapest candidate, at the smallest log:
        // the bytes coded at the length's log 16 are not much fewer.
        let mut scratch = CodecScratch::default();
        let at_top = encode_unmetered(&mut scratch, &syms, Some(16), &[])
            .expect("encode")
            .0;
        assert_eq!(recorded_log(&at_top), 16);
        assert!(
            256 * enc.len() <= 257 * at_top.len() + 256 * 8,
            "{} vs {}",
            enc.len(),
            at_top.len()
        );
    }

    #[test]
    fn blocks_whose_length_asks_for_at_most_log_11_keep_it() {
        for (n, n_dict) in [
            (2_000usize, 37usize),
            (10_000, 37),
            (16_383, 500),
            (3_000, 2),
        ] {
            let syms: Vec<u32> = (0..n as u32)
                .map(|i| (i * 7 + i / 3) % n_dict as u32)
                .collect();
            let top = table_log_for(n_dict, n);
            assert!(top <= FLOOR_LOG);
            assert_eq!(chosen_log(&syms, n_dict), top, "{n} symbols of {n_dict}");
            assert_eq!(recorded_log(&encode(&syms).expect("encode")), top);
        }
        // A wide alphabet keeps a table that gives every symbol a slot.
        let syms: Vec<u32> = (0..1u32 << 18)
            .map(|i| i.wrapping_mul(2_654_435_761) % 3_000)
            .collect();
        let log = chosen_log(&syms, 3_000);
        assert!((need_log(3_000)..=16).contains(&log), "log {log}");
        assert_eq!(
            decode(&encode(&syms).expect("encode")).expect("decode"),
            syms
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
