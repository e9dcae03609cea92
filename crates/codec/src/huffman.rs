//! Canonical, length-limited Huffman coding over `u32` alphabets.
//!
//! The SZ-style compressor emits quantization codes from a potentially huge
//! but sparsely-used alphabet, so the encoder maps observed symbols to dense
//! indices, builds a Huffman code over their frequencies, length-limits it
//! to [`MAX_CODE_LEN`] bits, and serializes canonical code lengths plus the
//! symbol dictionary ahead of the payload bits.
//!
//! Both directions run word-at-a-time (the wire format is unchanged from
//! the original bit-at-a-time implementation):
//!
//! * **Encode** precomputes a per-slot `(bit-reversed code, length)` table
//!   and emits each symbol with one [`BitWriter::write_bits`] call. The
//!   symbol→slot map is a dense index over the symbol range when the range
//!   is compact (the SZ quantization-code case) and a sorted-dictionary
//!   binary search otherwise — no per-call hashing either way.
//! * **Decode** builds a two-level lookup table: a primary table on the
//!   next [`PRIMARY_BITS`] stream bits resolves common symbols with one
//!   peek, longer codes fall through to per-prefix sub-tables, and only
//!   codes beyond `PRIMARY_BITS + SUB_BITS` (possible but vanishingly rare
//!   under the Kraft-limited length distribution) take the canonical
//!   bit-by-bit walk.

use crate::bitstream::{read_varint, write_varint, BitReader, BitWriter};
use crate::names;
use crate::scratch::{with_scratch, CodecScratch};
use crate::CodecError;

/// Upper bound on any code length, enforced by Kraft-sum adjustment.
pub const MAX_CODE_LEN: u32 = 32;

/// Bits resolved by the primary decode table (zlib uses 9–10; quantization
/// alphabets are wider, so spend a little more).
pub const PRIMARY_BITS: u32 = 11;

/// Bits resolved by each overflow sub-table.
const SUB_BITS: u32 = 11;

/// Symbol spans up to this factor of the alphabet size use the dense
/// direct-map index instead of binary search.
const DENSE_SPAN_LIMIT: usize = 1 << 20;

/// Computes Huffman code lengths for the given positive frequencies.
///
/// Returns one length per input slot. Zero-frequency slots get length 0
/// (unused). A single-symbol alphabet gets length 1.
fn code_lengths(freqs: &[u64]) -> Vec<u32> {
    let used: Vec<usize> = (0..freqs.len()).filter(|&i| freqs[i] > 0).collect();
    let mut lens = vec![0u32; freqs.len()];
    match used.len() {
        0 => return lens,
        1 => {
            lens[used[0]] = 1;
            return lens;
        }
        _ => {}
    }

    // Heap-free O(n log n) Huffman: sort leaves by frequency, then the
    // classic two-queue merge.
    let mut leaves: Vec<(u64, usize)> = used.iter().map(|&i| (freqs[i], i)).collect();
    leaves.sort_unstable();

    // nodes: (freq, left, right); leaves are 0..n, internal nodes follow.
    let n = leaves.len();
    let mut node_freq: Vec<u64> = leaves.iter().map(|&(f, _)| f).collect();
    let mut children: Vec<Option<(usize, usize)>> = vec![None; n];
    let mut leaf_q = 0usize; // next unconsumed leaf
    let mut int_q = n; // next unconsumed internal node
    let mut next_int = n;

    let take_min =
        |node_freq: &Vec<u64>, leaf_q: &mut usize, int_q: &mut usize, next_int: usize| -> usize {
            let leaf_ok = *leaf_q < n;
            let int_ok = *int_q < next_int;
            let pick_leaf = match (leaf_ok, int_ok) {
                (true, true) => node_freq[*leaf_q] <= node_freq[*int_q],
                (true, false) => true,
                (false, true) => false,
                (false, false) => unreachable!("huffman queue underflow"),
            };
            if pick_leaf {
                let i = *leaf_q;
                *leaf_q += 1;
                i
            } else {
                let i = *int_q;
                *int_q += 1;
                i
            }
        };

    while (n - leaf_q) + (next_int - int_q) > 1 {
        let a = take_min(&node_freq, &mut leaf_q, &mut int_q, next_int);
        let b = take_min(&node_freq, &mut leaf_q, &mut int_q, next_int);
        node_freq.push(node_freq[a] + node_freq[b]);
        children.push(Some((a, b)));
        next_int += 1;
    }

    // Depth-first depth assignment from the root (last created node).
    let root = next_int - 1;
    let mut depth = vec![0u32; node_freq.len()];
    let mut stack = vec![root];
    while let Some(i) = stack.pop() {
        if let Some((l, r)) = children[i] {
            depth[l] = depth[i] + 1;
            depth[r] = depth[i] + 1;
            stack.push(l);
            stack.push(r);
        }
    }
    for (slot, &(_f, orig)) in leaves.iter().enumerate() {
        lens[orig] = depth[slot].max(1);
    }

    limit_lengths(&mut lens, MAX_CODE_LEN);
    lens
}

/// Enforces `len <= limit` for all codes while keeping the Kraft sum ≤ 1
/// (then tightens it back to exactly 1 where possible for optimality).
fn limit_lengths(lens: &mut [u32], limit: u32) {
    if lens.iter().all(|&l| l <= limit) {
        return;
    }
    // Clamp, then repair: K = sum 2^(limit - len) must be <= 2^limit.
    for l in lens.iter_mut() {
        if *l > limit {
            *l = limit;
        }
    }
    let kraft = |lens: &[u32]| -> u128 {
        lens.iter()
            .filter(|&&l| l > 0)
            .map(|&l| 1u128 << (limit - l))
            .sum()
    };
    let budget = 1u128 << limit;
    // While over budget, deepen the shallowest over-shallow code.
    while kraft(lens) > budget {
        // find a used code with the smallest length > 0 that can grow
        let mut best: Option<usize> = None;
        for (i, &l) in lens.iter().enumerate() {
            if l > 0 && l < limit {
                match best {
                    None => best = Some(i),
                    Some(b) if lens[b] > l => best = Some(i),
                    _ => {}
                }
            }
        }
        match best {
            Some(i) => lens[i] += 1,
            None => break, // cannot repair further (shouldn't happen)
        }
    }
    debug_assert!(kraft(lens) <= budget, "kraft repair failed");
}

/// Canonical codes (code value, length) assigned by (length, slot) order.
fn canonical_codes(lens: &[u32]) -> Vec<u64> {
    let mut order: Vec<usize> = (0..lens.len()).filter(|&i| lens[i] > 0).collect();
    order.sort_by_key(|&i| (lens[i], i));
    let mut codes = vec![0u64; lens.len()];
    let mut code = 0u64;
    let mut prev_len = 0u32;
    for &i in &order {
        code <<= lens[i] - prev_len;
        codes[i] = code;
        code += 1;
        prev_len = lens[i];
    }
    codes
}

/// Canonical codes compare MSB-first but the bitstream packs LSB-first;
/// pre-reversing each code lets the payload loop emit it with a single
/// `write_bits` call (and lets the decoder index tables by peeked bits).
#[inline]
fn reverse_code(code: u64, len: u32) -> u64 {
    debug_assert!(len > 0);
    code.reverse_bits() >> (64 - len)
}

/// Encodes a symbol stream. The output is self-describing (dictionary +
/// canonical lengths + payload) and decoded by [`decode`].
pub fn encode(symbols: &[u32]) -> Vec<u8> {
    with_scratch(|scratch| encode_with(scratch, symbols))
}

/// [`encode`] against caller-provided scratch, so repeated calls reuse
/// the dense-index and table buffers.
pub fn encode_with(scratch: &mut CodecScratch, symbols: &[u32]) -> Vec<u8> {
    scratch.note_use();
    let CodecScratch {
        huff_sorted: sorted,
        huff_slot: slot_of,
        huff_dense: dense,
        huff_freqs: freqs,
        huff_dict: dict,
        huff_codes: codes_tab,
        ..
    } = scratch;

    // --- dense symbol dictionary in first-appearance order ---------------
    sorted.clear();
    sorted.extend_from_slice(symbols);
    sorted.sort_unstable();
    sorted.dedup();
    dict.clear();
    freqs.clear();
    dense.clear();
    dense.reserve(symbols.len());

    let (min_sym, max_sym) = match (sorted.first(), sorted.last()) {
        (Some(&lo), Some(&hi)) => (lo as usize, hi as usize),
        _ => (0, 0),
    };
    let span = max_sym - min_sym + 1;
    if !sorted.is_empty() && span <= DENSE_SPAN_LIMIT.max(4 * sorted.len()) {
        // Dense index: direct map over the (compact) symbol range.
        slot_of.clear();
        slot_of.resize(span, usize::MAX);
        for &s in symbols.iter() {
            let si = s as usize - min_sym;
            let mut slot = slot_of[si];
            if slot == usize::MAX {
                slot = dict.len();
                slot_of[si] = slot;
                dict.push(s);
                freqs.push(0);
            }
            freqs[slot] += 1;
            dense.push(slot as u32);
        }
    } else {
        // Sparse alphabet: binary search into the sorted dictionary.
        slot_of.clear();
        slot_of.resize(sorted.len(), usize::MAX);
        for &s in symbols.iter() {
            let si = sorted.binary_search(&s).expect("symbol present");
            let mut slot = slot_of[si];
            if slot == usize::MAX {
                slot = dict.len();
                slot_of[si] = slot;
                dict.push(s);
                freqs.push(0);
            }
            freqs[slot] += 1;
            dense.push(slot as u32);
        }
    }

    let lens = code_lengths(freqs);
    let codes = canonical_codes(&lens);

    let mut header = Vec::new();
    write_varint(&mut header, symbols.len() as u64);
    write_varint(&mut header, dict.len() as u64);
    for (i, &sym) in dict.iter().enumerate() {
        write_varint(&mut header, sym as u64);
        write_varint(&mut header, lens[i] as u64);
    }

    // --- per-slot (reversed code, len) encode table ----------------------
    codes_tab.clear();
    codes_tab.reserve(dict.len());
    for slot in 0..dict.len() {
        let len = lens[slot];
        let rev = if len > 0 {
            reverse_code(codes[slot], len)
        } else {
            0
        };
        codes_tab.push((rev, len));
    }
    fxrz_telemetry::global().incr(names::HUFFMAN_TABLE_BUILDS);

    let mut w = BitWriter::with_capacity(symbols.len() / 4 + 16);
    w.write_bytes(&header);
    for &slot in dense.iter() {
        let (rev, len) = codes_tab[slot as usize];
        w.write_bits(rev, len);
    }
    let out = w.into_bytes();
    let registry = fxrz_telemetry::global();
    registry.incr(names::HUFFMAN_ENCODE_CALLS);
    registry.add(names::HUFFMAN_ENCODE_SYMBOLS_IN, symbols.len() as u64);
    registry.add(names::HUFFMAN_ENCODE_BYTES_OUT, out.len() as u64);
    out
}

/// Decodes a buffer produced by [`encode`].
pub fn decode(buf: &[u8]) -> Result<Vec<u32>, CodecError> {
    decode_limited(buf, usize::MAX, usize::MAX)
}

/// Decodes the first `stop` symbols of a buffer produced by [`encode`]
/// (all of them when it holds fewer), and errors with
/// [`CodecError::Corrupt`] when the stream claims more than
/// `max_symbols`: the guard for streams whose symbol count is known out
/// of band. [`decode`] is this loop run to the stream's end.
pub fn decode_limited(buf: &[u8], max_symbols: usize, stop: usize) -> Result<Vec<u32>, CodecError> {
    let out = decode_unmetered(buf, max_symbols, stop);
    let registry = fxrz_telemetry::global();
    registry.incr(names::HUFFMAN_DECODE_CALLS);
    registry.add(names::HUFFMAN_DECODE_BYTES_IN, buf.len() as u64);
    match &out {
        Ok(symbols) => registry.add(names::HUFFMAN_DECODE_SYMBOLS_OUT, symbols.len() as u64),
        Err(_) => registry.incr(names::HUFFMAN_DECODE_ERRORS),
    }
    out
}

/// Decode-table entry layout (`u64`, `0` = no code with this prefix):
/// * direct: bits `0..6` = code length, bits `32..` = dense slot;
/// * escape: bit `6` set, bits `8..16` = sub-table index width, bits
///   `32..` = offset of the sub-table in the shared `sub` arena.
const ESCAPE: u64 = 1 << 6;

struct DecodeTables {
    primary_bits: u32,
    primary: Vec<u64>,
    sub: Vec<u64>,
    // canonical fallback for codes longer than both table levels
    first_code: Vec<u64>,
    first_slot: Vec<usize>,
    limit: Vec<u64>,
    sorted_slots: Vec<usize>,
    max_len: usize,
}

fn build_decode_tables(lens: &[u32]) -> Result<DecodeTables, CodecError> {
    let mut order: Vec<usize> = (0..lens.len()).filter(|&i| lens[i] > 0).collect();
    order.sort_by_key(|&i| (lens[i], i));
    if order.is_empty() {
        return Err(CodecError::Corrupt("no used codes"));
    }
    let max_len = lens[*order.last().expect("nonempty")] as usize;

    // Canonical (first_code / first_slot / limit) arrays double as the
    // assignment pass and the slow-path fallback tables.
    let mut first_code = vec![0u64; max_len + 2];
    let mut first_slot = vec![0usize; max_len + 2];
    let mut limit = vec![u64::MAX; max_len + 1];
    let mut sorted_slots: Vec<usize> = Vec::with_capacity(order.len());
    let mut codes = vec![0u64; lens.len()];
    {
        let mut code = 0u64;
        let mut prev_len = 0u32;
        let mut i = 0usize;
        while i < order.len() {
            let l = lens[order[i]];
            code <<= l - prev_len;
            first_code[l as usize] = code;
            first_slot[l as usize] = sorted_slots.len();
            while i < order.len() && lens[order[i]] == l {
                codes[order[i]] = code;
                sorted_slots.push(order[i]);
                code += 1;
                i += 1;
            }
            limit[l as usize] = code;
            prev_len = l;
        }
        first_code[max_len + 1] = code << 1;
        // A canonical code overflowing its length budget means the stored
        // lengths violate Kraft — reject rather than building bogus tables.
        if max_len < 64 && first_code[max_len + 1] > (1u64 << (max_len + 1)) {
            return Err(CodecError::Corrupt("code lengths violate kraft sum"));
        }
    }

    let primary_bits = (max_len as u32).min(PRIMARY_BITS);
    let mut primary = vec![0u64; 1usize << primary_bits];
    let mut sub: Vec<u64> = Vec::new();

    // Pass 1: direct entries, and the deepest code under each escape prefix.
    let mut group_max = vec![0u32; 1usize << primary_bits];
    for &slot in &sorted_slots {
        let l = lens[slot];
        let rev = reverse_code(codes[slot], l);
        if l <= primary_bits {
            let entry = (slot as u64) << 32 | l as u64;
            let mut idx = rev as usize;
            let step = 1usize << l;
            while idx < primary.len() {
                primary[idx] = entry;
                idx += step;
            }
        } else {
            let prefix = (rev & ((1 << primary_bits) - 1)) as usize;
            group_max[prefix] = group_max[prefix].max(l);
        }
    }
    // Pass 2: allocate sub-tables and fill them.
    for (prefix, &gmax) in group_max.iter().enumerate() {
        if gmax == 0 {
            continue;
        }
        let sub_bits = (gmax - primary_bits).min(SUB_BITS);
        let offset = sub.len() as u64;
        sub.resize(sub.len() + (1usize << sub_bits), 0);
        primary[prefix] = ESCAPE | (sub_bits as u64) << 8 | offset << 32;
    }
    for &slot in &sorted_slots {
        let l = lens[slot];
        if l <= primary_bits {
            continue;
        }
        let rev = reverse_code(codes[slot], l);
        let prefix = (rev & ((1 << primary_bits) - 1)) as usize;
        let e = primary[prefix];
        debug_assert!(e & ESCAPE != 0);
        let sub_bits = (e >> 8) as u32 & 0xFF;
        if l > primary_bits + sub_bits {
            continue; // beyond both levels: canonical slow path handles it
        }
        let offset = (e >> 32) as usize;
        let suffix = (rev >> primary_bits) as usize;
        let entry = (slot as u64) << 32 | l as u64;
        let step = 1usize << (l - primary_bits);
        let mut idx = suffix;
        while idx < 1usize << sub_bits {
            sub[offset + idx] = entry;
            idx += step;
        }
    }

    fxrz_telemetry::global().incr(names::HUFFMAN_TABLE_BUILDS);
    Ok(DecodeTables {
        primary_bits,
        primary,
        sub,
        first_code,
        first_slot,
        limit,
        sorted_slots,
        max_len,
    })
}

fn decode_unmetered(buf: &[u8], max_symbols: usize, stop: usize) -> Result<Vec<u32>, CodecError> {
    let mut pos = 0usize;
    let count = read_varint(buf, &mut pos).ok_or(CodecError::Truncated)? as usize;
    if count > max_symbols {
        return Err(CodecError::Corrupt("symbol count exceeds caller limit"));
    }
    let n_dict = read_varint(buf, &mut pos).ok_or(CodecError::Truncated)? as usize;
    // untrusted count: each dictionary entry costs >= 2 input bytes, so a
    // count beyond that is corrupt; also bounds the pre-allocation
    if n_dict > buf.len() / 2 + 1 {
        return Err(CodecError::Corrupt("dictionary larger than input"));
    }
    let mut dict = Vec::with_capacity(n_dict);
    let mut lens = Vec::with_capacity(n_dict);
    for _ in 0..n_dict {
        let sym = read_varint(buf, &mut pos).ok_or(CodecError::Truncated)? as u32;
        let len = read_varint(buf, &mut pos).ok_or(CodecError::Truncated)? as u32;
        if len > MAX_CODE_LEN {
            return Err(CodecError::Corrupt("code length exceeds limit"));
        }
        dict.push(sym);
        lens.push(len);
    }
    if count == 0 {
        return Ok(Vec::new());
    }
    if n_dict == 0 {
        return Err(CodecError::Corrupt("nonzero count with empty dictionary"));
    }

    let tables = build_decode_tables(&lens)?;
    let primary_bits = tables.primary_bits;

    let mut r = BitReader::new(&buf[pos..]);
    // `count` comes from untrusted input, but every code is at least one
    // bit long (a one-symbol alphabet gets length 1): a count the
    // remaining bits cannot hold is truncated before it sizes anything.
    if count > r.bits_remaining() {
        return Err(CodecError::Truncated);
    }
    let mut out = Vec::with_capacity(count.min(stop));

    'symbols: for _ in 0..count.min(stop) {
        let avail = r.bits_remaining();
        let e = tables.primary[r.peek_bits(primary_bits) as usize];
        if e != 0 && e & ESCAPE == 0 {
            let len = (e & 0x3F) as u32;
            if len as usize <= avail {
                r.consume(len);
                out.push(dict[(e >> 32) as usize]);
                continue;
            }
            return Err(CodecError::Truncated);
        }
        if e & ESCAPE != 0 {
            let sub_bits = (e >> 8) as u32 & 0xFF;
            let suffix = (r.peek_bits(primary_bits + sub_bits) >> primary_bits) as usize;
            let e2 = tables.sub[(e >> 32) as usize + suffix];
            if e2 != 0 {
                let len = (e2 & 0x3F) as u32;
                if len as usize <= avail {
                    r.consume(len);
                    out.push(dict[(e2 >> 32) as usize]);
                    continue;
                }
                return Err(CodecError::Truncated);
            }
        }
        // Canonical bit-by-bit walk: codes past both table levels, and the
        // truncated-tail cases (it naturally distinguishes Truncated from
        // Corrupt because it consumes real bits one at a time).
        let mut code = 0u64;
        let mut l = 0usize;
        loop {
            let bit = r.read_bit().ok_or(CodecError::Truncated)?;
            code = (code << 1) | u64::from(bit);
            l += 1;
            if l > tables.max_len {
                return Err(CodecError::Corrupt("invalid huffman code"));
            }
            if tables.limit[l] != u64::MAX && code < tables.limit[l] && code >= tables.first_code[l]
            {
                let slot = tables.sorted_slots
                    [tables.first_slot[l] + (code - tables.first_code[l]) as usize];
                out.push(dict[slot]);
                continue 'symbols;
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(symbols: &[u32]) {
        let enc = encode(symbols);
        let dec = decode(&enc).expect("decode");
        assert_eq!(dec, symbols);
    }

    #[test]
    fn empty_stream() {
        roundtrip(&[]);
    }

    #[test]
    fn single_symbol_repeated() {
        roundtrip(&[7; 100]);
        // ~1 bit per symbol + header
        let enc = encode(&[7; 10_000]);
        assert!(enc.len() < 10_000 / 8 + 32, "len {}", enc.len());
    }

    #[test]
    fn two_symbols() {
        roundtrip(&[0, 1, 0, 0, 1, 0, 1, 1, 1, 0]);
    }

    #[test]
    fn skewed_distribution_compresses() {
        let mut syms = vec![42u32; 9000];
        syms.extend(std::iter::repeat_n(7u32, 900));
        syms.extend(std::iter::repeat_n(1000u32, 100));
        let enc = encode(&syms);
        roundtrip(&syms);
        // entropy ≈ 0.57 bits/sym; allow generous slack
        assert!(enc.len() < syms.len() / 4, "len {}", enc.len());
    }

    #[test]
    fn uniform_distribution_roundtrips() {
        let syms: Vec<u32> = (0..4096u32).map(|i| i % 61).collect();
        roundtrip(&syms);
    }

    #[test]
    fn large_sparse_alphabet() {
        let syms: Vec<u32> = (0..500u32).map(|i| i.wrapping_mul(2654435761)).collect();
        roundtrip(&syms);
    }

    #[test]
    fn wide_alphabet_exercises_subtables() {
        // >2^11 distinct symbols forces codes longer than PRIMARY_BITS, so
        // decode must route through the overflow sub-tables.
        let mut syms: Vec<u32> = Vec::new();
        for i in 0..6000u32 {
            syms.push(i);
            if i % 3 == 0 {
                syms.push(i); // mild skew so lengths vary
            }
        }
        roundtrip(&syms);
    }

    #[test]
    fn deep_codes_take_slow_path() {
        // Fibonacci frequencies drive lengths past PRIMARY_BITS + SUB_BITS,
        // exercising the canonical fallback walk.
        let mut syms: Vec<u32> = Vec::new();
        let (mut a, mut b) = (1u64, 1u64);
        for i in 0..40u32 {
            for _ in 0..a.min(50_000) {
                syms.push(i);
            }
            let next = a + b;
            a = b;
            b = next;
        }
        roundtrip(&syms);
    }

    #[test]
    fn truncated_buffer_errors() {
        let enc = encode(&[1, 2, 3, 4, 5, 1, 2, 3, 4, 5]);
        for cut in 0..enc.len().saturating_sub(1) {
            // must never panic; may legitimately error
            let _ = decode(&enc[..cut]);
        }
        assert!(decode(&enc[..enc.len() - 1]).is_err() || enc.len() < 2);
    }

    #[test]
    fn limited_decode_returns_the_first_stop_symbols() {
        let syms: Vec<u32> = (0..3000u32).map(|i| (i * i) % 97).collect();
        let enc = encode(&syms);
        for stop in [0, 1, 2, 1500, 2999, 3000, usize::MAX] {
            let got = decode_limited(&enc, syms.len(), stop).expect("prefix");
            assert_eq!(got, syms[..stop.min(syms.len())], "stop {stop}");
        }
        // The claimed count is checked before any symbol is decoded.
        assert!(matches!(
            decode_limited(&enc, syms.len() - 1, 1),
            Err(CodecError::Corrupt(_))
        ));
    }

    #[test]
    fn code_lengths_kraft_holds() {
        let freqs: Vec<u64> = (1..=40u64).map(|i| i * i).collect();
        let lens = code_lengths(&freqs);
        let kraft: f64 = lens
            .iter()
            .filter(|&&l| l > 0)
            .map(|&l| 2f64.powi(-(l as i32)))
            .sum();
        assert!(kraft <= 1.0 + 1e-12, "kraft {kraft}");
    }

    #[test]
    fn length_limit_enforced() {
        // Fibonacci-like frequencies force deep trees.
        let mut freqs = vec![1u64, 1];
        for i in 2..48 {
            let f = freqs[i - 1] + freqs[i - 2];
            freqs.push(f);
        }
        let lens = code_lengths(&freqs);
        assert!(lens.iter().all(|&l| l <= MAX_CODE_LEN));
        let kraft: f64 = lens
            .iter()
            .filter(|&&l| l > 0)
            .map(|&l| 2f64.powi(-(l as i32)))
            .sum();
        assert!(kraft <= 1.0 + 1e-12);
        // And the code must still roundtrip.
        let syms: Vec<u32> = (0..freqs.len() as u32).collect();
        roundtrip(&syms);
    }

    #[test]
    fn absurd_counts_error_instead_of_aborting() {
        use crate::bitstream::write_varint;
        // symbol count u64::MAX with a tiny dictionary
        let mut buf = Vec::new();
        write_varint(&mut buf, u64::MAX); // count
        write_varint(&mut buf, 1); // n_dict
        write_varint(&mut buf, 7); // symbol
        write_varint(&mut buf, 1); // len
        assert!(decode(&buf).is_err());
        // dictionary count larger than the buffer
        let mut buf = Vec::new();
        write_varint(&mut buf, 4);
        write_varint(&mut buf, u64::MAX);
        assert!(matches!(decode(&buf), Err(CodecError::Corrupt(_))));
    }

    #[test]
    fn kraft_violating_header_is_rejected() {
        use crate::bitstream::write_varint;
        // Three symbols all claiming length 1 overflow the code space.
        let mut buf = Vec::new();
        write_varint(&mut buf, 3); // count
        write_varint(&mut buf, 3); // n_dict
        for s in 0..3u64 {
            write_varint(&mut buf, s); // symbol
            write_varint(&mut buf, 1); // len
        }
        buf.push(0); // payload byte
        assert!(decode(&buf).is_err());
    }

    #[test]
    fn optimality_on_balanced_alphabet() {
        // 4 equal symbols -> 2 bits each
        let syms: Vec<u32> = (0..4000u32).map(|i| i % 4).collect();
        let enc = encode(&syms);
        assert!(enc.len() <= 4000 / 4 + 64, "len {}", enc.len());
    }
}
