//! Codec-layer throughput: the word-at-a-time fast paths vs the original
//! bit-at-a-time implementations, on an SZ-like symbol stream derived from
//! a Nyx-analogue field.
//!
//! The `baseline` module is a frozen copy of the pre-fast-path encoder and
//! decoder (bit-by-bit `BitWriter`/`BitReader`, HashMap symbol index,
//! canonical walk per bit, byte-at-a-time LZ77) so the speedup is measured
//! against real history, not a strawman. Both implementations produce
//! byte-identical streams — asserted here and pinned by the golden-vector
//! suite — so the comparison is purely about speed.
//!
//! Besides the criterion groups, the bench writes `BENCH_codec.json` at the
//! repo root with median throughput and speedup figures.
//!
//! `--test` (as passed by `cargo bench -- --test` or the CI smoke step)
//! shrinks the field and sample counts so the whole run takes well under a
//! second while still exercising every code path.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use fxrz_codec::{fse, huffman, lz77};
use fxrz_compressors::{slab, sz, Compressor, ErrorConfig};
use fxrz_datagen::nyx::{self, NyxConfig};
use fxrz_datagen::Dims;
use std::time::Instant;

/// The pre-fast-path codec, verbatim (minus telemetry): bit-at-a-time
/// bitstream, HashMap dense index, per-bit canonical decode, per-byte LZ77
/// match extension.
mod baseline {
    use fxrz_codec::bitstream::{read_varint, write_varint};
    use std::collections::HashMap;

    pub struct BitWriter {
        buf: Vec<u8>,
        bit_pos: u8,
    }

    impl BitWriter {
        pub fn with_capacity(cap: usize) -> Self {
            Self {
                buf: Vec::with_capacity(cap),
                bit_pos: 0,
            }
        }

        #[inline]
        pub fn write_bit(&mut self, bit: bool) {
            if self.bit_pos == 0 {
                self.buf.push(0);
            }
            if bit {
                let last = self.buf.len() - 1;
                self.buf[last] |= 1 << self.bit_pos;
            }
            self.bit_pos = (self.bit_pos + 1) & 7;
        }

        pub fn write_bytes(&mut self, bytes: &[u8]) {
            self.bit_pos = 0;
            self.buf.extend_from_slice(bytes);
        }

        pub fn into_bytes(self) -> Vec<u8> {
            self.buf
        }
    }

    pub struct BitReader<'a> {
        buf: &'a [u8],
        byte_pos: usize,
        bit_pos: u8,
    }

    impl<'a> BitReader<'a> {
        pub fn new(buf: &'a [u8]) -> Self {
            Self {
                buf,
                byte_pos: 0,
                bit_pos: 0,
            }
        }

        #[inline]
        pub fn read_bit(&mut self) -> Option<bool> {
            if self.byte_pos >= self.buf.len() {
                return None;
            }
            let bit = (self.buf[self.byte_pos] >> self.bit_pos) & 1 == 1;
            self.bit_pos += 1;
            if self.bit_pos == 8 {
                self.bit_pos = 0;
                self.byte_pos += 1;
            }
            Some(bit)
        }
    }

    fn code_lengths(freqs: &[u64]) -> Vec<u32> {
        // The tree construction is shared with the current implementation
        // (it is not on the per-symbol hot path), so reuse it through the
        // public API: encode a stream with these exact frequencies and
        // recover the lengths. Simpler: replicate the two-queue merge.
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
        let mut leaves: Vec<(u64, usize)> = used.iter().map(|&i| (freqs[i], i)).collect();
        leaves.sort_unstable();
        let n = leaves.len();
        let mut node_freq: Vec<u64> = leaves.iter().map(|&(f, _)| f).collect();
        let mut children: Vec<Option<(usize, usize)>> = vec![None; n];
        let mut leaf_q = 0usize;
        let mut int_q = n;
        let mut next_int = n;
        let take_min = |node_freq: &Vec<u64>,
                        leaf_q: &mut usize,
                        int_q: &mut usize,
                        next_int: usize|
         -> usize {
            let leaf_ok = *leaf_q < n;
            let int_ok = *int_q < next_int;
            let pick_leaf = match (leaf_ok, int_ok) {
                (true, true) => node_freq[*leaf_q] <= node_freq[*int_q],
                (true, false) => true,
                (false, true) => false,
                (false, false) => unreachable!(),
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
        // MAX_CODE_LEN is 32; the bench alphabet never produces deeper
        // codes, so the length-limiting pass is a no-op here.
        debug_assert!(lens.iter().all(|&l| l <= 32));
        lens
    }

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

    pub fn huffman_encode(symbols: &[u32]) -> Vec<u8> {
        let mut index: HashMap<u32, usize> = HashMap::new();
        let mut dict: Vec<u32> = Vec::new();
        let mut freqs: Vec<u64> = Vec::new();
        let mut dense: Vec<usize> = Vec::with_capacity(symbols.len());
        for &s in symbols {
            let slot = *index.entry(s).or_insert_with(|| {
                dict.push(s);
                freqs.push(0);
                dict.len() - 1
            });
            freqs[slot] += 1;
            dense.push(slot);
        }
        let lens = code_lengths(&freqs);
        let codes = canonical_codes(&lens);
        let mut header = Vec::new();
        write_varint(&mut header, symbols.len() as u64);
        write_varint(&mut header, dict.len() as u64);
        for (i, &sym) in dict.iter().enumerate() {
            write_varint(&mut header, sym as u64);
            write_varint(&mut header, lens[i] as u64);
        }
        let mut w = BitWriter::with_capacity(symbols.len() / 4 + 16);
        w.write_bytes(&header);
        for &slot in &dense {
            let (code, len) = (codes[slot], lens[slot]);
            for k in (0..len).rev() {
                w.write_bit((code >> k) & 1 == 1);
            }
        }
        w.into_bytes()
    }

    pub fn huffman_decode(buf: &[u8]) -> Option<Vec<u32>> {
        let mut pos = 0usize;
        let count = read_varint(buf, &mut pos)? as usize;
        let n_dict = read_varint(buf, &mut pos)? as usize;
        let mut dict = Vec::with_capacity(n_dict);
        let mut lens = Vec::with_capacity(n_dict);
        for _ in 0..n_dict {
            dict.push(read_varint(buf, &mut pos)? as u32);
            lens.push(read_varint(buf, &mut pos)? as u32);
        }
        if count == 0 {
            return Some(Vec::new());
        }
        let mut order: Vec<usize> = (0..n_dict).filter(|&i| lens[i] > 0).collect();
        order.sort_by_key(|&i| (lens[i], i));
        let max_len = lens[*order.last()?] as usize;
        let mut first_code = vec![0u64; max_len + 2];
        let mut first_slot = vec![0usize; max_len + 2];
        let mut sorted_slots: Vec<usize> = Vec::with_capacity(order.len());
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
                    sorted_slots.push(order[i]);
                    code += 1;
                    i += 1;
                }
                prev_len = l;
            }
        }
        let mut limit = vec![u64::MAX; max_len + 1];
        for l in 1..=max_len {
            let count_at_l = sorted_slots
                .iter()
                .filter(|&&s| lens[s] as usize == l)
                .count() as u64;
            if count_at_l > 0 {
                limit[l] = first_code[l] + count_at_l;
            }
        }
        let mut r = BitReader::new(&buf[pos..]);
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            let mut code = 0u64;
            let mut l = 0usize;
            loop {
                let bit = r.read_bit()?;
                code = (code << 1) | u64::from(bit);
                l += 1;
                if l > max_len {
                    return None;
                }
                if limit[l] != u64::MAX && code < limit[l] && code >= first_code[l] {
                    let slot = sorted_slots[first_slot[l] + (code - first_code[l]) as usize];
                    out.push(dict[slot]);
                    break;
                }
            }
        }
        Some(out)
    }

    const MIN_MATCH: usize = 4;
    const MAX_MATCH: usize = 1 << 16;
    const WINDOW: usize = 1 << 16;
    const HASH_SIZE: usize = 1 << 15;
    const MAX_CHAIN: usize = 32;

    #[inline]
    fn hash4(data: &[u8], i: usize) -> usize {
        let v = u32::from_le_bytes([data[i], data[i + 1], data[i + 2], data[i + 3]]);
        (v.wrapping_mul(2654435761) as usize >> 17) & (HASH_SIZE - 1)
    }

    pub fn lz77_compress(data: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(data.len() / 2 + 16);
        write_varint(&mut out, data.len() as u64);
        if data.is_empty() {
            return out;
        }
        let mut head = vec![usize::MAX; HASH_SIZE];
        let mut prev = vec![usize::MAX; data.len()];
        let mut lit_start = 0usize;
        let mut i = 0usize;
        while i < data.len() {
            let mut best_len = 0usize;
            let mut best_dist = 0usize;
            if i + MIN_MATCH <= data.len() {
                let h = hash4(data, i);
                let mut cand = head[h];
                let mut chain = 0usize;
                while cand != usize::MAX && chain < MAX_CHAIN && i - cand <= WINDOW {
                    let max_len = (data.len() - i).min(MAX_MATCH);
                    let mut l = 0usize;
                    while l < max_len && data[cand + l] == data[i + l] {
                        l += 1;
                    }
                    if l > best_len {
                        best_len = l;
                        best_dist = i - cand;
                        if l >= max_len {
                            break;
                        }
                    }
                    cand = prev[cand];
                    chain += 1;
                }
            }
            if best_len >= MIN_MATCH {
                write_varint(&mut out, (i - lit_start) as u64);
                out.extend_from_slice(&data[lit_start..i]);
                write_varint(&mut out, best_len as u64);
                write_varint(&mut out, best_dist as u64);
                let end = (i + best_len).min(data.len().saturating_sub(MIN_MATCH - 1));
                let mut j = i;
                while j < end {
                    let h = hash4(data, j);
                    prev[j] = head[h];
                    head[h] = j;
                    j += 1;
                }
                i += best_len;
                lit_start = i;
            } else {
                if i + MIN_MATCH <= data.len() {
                    let h = hash4(data, i);
                    prev[i] = head[h];
                    head[h] = i;
                }
                i += 1;
            }
        }
        write_varint(&mut out, (data.len() - lit_start) as u64);
        out.extend_from_slice(&data[lit_start..]);
        write_varint(&mut out, 0);
        out
    }

    pub fn lz77_decompress(buf: &[u8]) -> Option<Vec<u8>> {
        let mut pos = 0usize;
        let total = read_varint(buf, &mut pos)? as usize;
        let mut out = Vec::with_capacity(total);
        if total == 0 {
            return Some(out);
        }
        loop {
            let lit_len = read_varint(buf, &mut pos)? as usize;
            if pos + lit_len > buf.len() {
                return None;
            }
            out.extend_from_slice(&buf[pos..pos + lit_len]);
            pos += lit_len;
            if out.len() >= total {
                return Some(out);
            }
            let match_len = read_varint(buf, &mut pos)? as usize;
            if match_len == 0 {
                return None;
            }
            let dist = read_varint(buf, &mut pos)? as usize;
            if dist == 0 || dist > out.len() {
                return None;
            }
            let start = out.len() - dist;
            for k in 0..match_len {
                let b = out[start + k];
                out.push(b);
            }
        }
    }
}

/// SZ-style quantization codes from a Nyx-analogue field: first-order
/// deltas over the flattened field, quantized at a mid-range error bound.
/// This reproduces the skewed, mid-size alphabet the Huffman stage sees in
/// production (most mass near the zero-residual code).
fn nyx_codes(side: usize) -> Vec<u32> {
    let field = nyx::baryon_density(
        Dims::d3(side, side, side),
        NyxConfig::default().with_seed(777),
    );
    let data = field.data();
    let eb = field.stats().range as f64 * 1e-4;
    let mut prev = 0f64;
    data.iter()
        .map(|&v| {
            let q = ((v as f64 - prev) / (2.0 * eb)).round();
            prev = v as f64;
            (q.clamp(-32_000.0, 32_000.0) as i64 + 32_768) as u32
        })
        .collect()
}

/// Median seconds per call over `samples` timed calls (after one warmup).
fn median_secs<T>(samples: usize, mut f: impl FnMut() -> T) -> f64 {
    black_box(f());
    let mut times: Vec<f64> = (0..samples)
        .map(|_| {
            let t0 = Instant::now();
            black_box(f());
            t0.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    times[times.len() / 2]
}

struct Measured {
    baseline_mibps: f64,
    fast_mibps: f64,
}

impl Measured {
    fn speedup(&self) -> f64 {
        self.fast_mibps / self.baseline_mibps
    }
}

fn measure(
    bytes: usize,
    samples: usize,
    mut base: impl FnMut(),
    mut fast: impl FnMut(),
) -> Measured {
    let mib = bytes as f64 / (1024.0 * 1024.0);
    Measured {
        baseline_mibps: mib / median_secs(samples, &mut base),
        fast_mibps: mib / median_secs(samples, &mut fast),
    }
}

fn smoke_mode() -> bool {
    std::env::args().any(|a| a == "--test")
}

fn bench_codec(c: &mut Criterion) {
    let (side, samples) = if smoke_mode() { (8, 3) } else { (64, 15) };
    let codes = nyx_codes(side);
    // The payload the LZ77 stage sees is the Huffman-coded stream.
    let huff = huffman::encode(&codes);
    let sym_bytes = codes.len() * 4;

    // Cross-check: the fast encoder must emit exactly the baseline's bytes,
    // and both decoders must invert them. (The golden suite pins this too;
    // failing here means the bench would be comparing different work.)
    assert_eq!(
        baseline::huffman_encode(&codes),
        huff,
        "fast huffman encoder diverged from baseline"
    );
    assert_eq!(huffman::decode(&huff).expect("decode"), codes);
    assert_eq!(baseline::huffman_decode(&huff).expect("decode"), codes);
    let lz = lz77::compress(&huff);
    assert_eq!(lz77::decompress(&lz).expect("roundtrip"), huff);
    assert_eq!(
        baseline::lz77_decompress(&baseline::lz77_compress(&huff)).expect("baseline roundtrip"),
        huff
    );
    // The tANS/FSE backend: its "baseline" is the Huffman fast path it
    // competes with under per-block bit-cost selection, so the fse rows
    // report how much headroom the selector can win, not a strawman.
    let fse_buf = fse::encode(&codes).expect("fse encode");
    assert_eq!(fse::decode(&fse_buf).expect("fse decode"), codes);

    // Criterion's own report for the interactive run.
    let mut group = c.benchmark_group("huffman");
    group.throughput(Throughput::Bytes(sym_bytes as u64));
    group.bench_function("encode/baseline", |b| {
        b.iter(|| baseline::huffman_encode(&codes))
    });
    group.bench_function("encode/fast", |b| b.iter(|| huffman::encode(&codes)));
    group.bench_function("decode/baseline", |b| {
        b.iter(|| baseline::huffman_decode(&huff).expect("decode"))
    });
    group.bench_function("decode/fast", |b| {
        b.iter(|| huffman::decode(&huff).expect("decode"))
    });
    group.finish();

    let mut group = c.benchmark_group("fse");
    group.throughput(Throughput::Bytes(sym_bytes as u64));
    group.bench_function("encode", |b| {
        b.iter(|| fse::encode(&codes).expect("fse encode"))
    });
    group.bench_function("decode", |b| {
        b.iter(|| fse::decode(&fse_buf).expect("fse decode"))
    });
    group.finish();

    let mut group = c.benchmark_group("lz77");
    group.throughput(Throughput::Bytes(huff.len() as u64));
    group.bench_function("compress/baseline", |b| {
        b.iter(|| baseline::lz77_compress(&huff))
    });
    group.bench_function("compress/fast", |b| b.iter(|| lz77::compress(&huff)));
    group.bench_function("decompress/baseline", |b| {
        b.iter(|| baseline::lz77_decompress(&lz).expect("decompress"))
    });
    group.bench_function("decompress/fast", |b| {
        b.iter(|| lz77::decompress(&lz).expect("decompress"))
    });
    group.finish();

    // Slab container: the same field as one monolithic v1 stream and as
    // a slabbed v2 container, decoded at 1/2/4/8 worker threads. Raw
    // field bytes are the throughput denominator for every row, so the
    // v2 columns read directly as parallel speedup over the
    // single-stream baseline.
    let (arch_field, slab_budget) = if smoke_mode() {
        (
            nyx::baryon_density(Dims::d3(8, 16, 16), NyxConfig::default().with_seed(31)),
            64,
        )
    } else {
        (
            nyx::baryon_density(Dims::d3(16, 256, 256), NyxConfig::default().with_seed(31)),
            slab::SLAB_SYMBOLS,
        )
    };
    let arch_eb = ErrorConfig::Abs((arch_field.stats().range * 1e-4).max(1e-12));
    let raw_bytes = arch_field.nbytes();
    let v1 = sz::compress_with_budget(&arch_field, &arch_eb, usize::MAX).expect("v1 compress");
    let v2 = sz::compress_with_budget(&arch_field, &arch_eb, slab_budget).expect("v2 compress");
    let v2_slabs = slab::table(&v2, fxrz_compressors::header::magic::SZ, "sz")
        .expect("v2 table")
        .expect("v2 must be slabbed")
        .2
        .len();
    assert!(
        slab::table(&v1, fxrz_compressors::header::magic::SZ, "sz")
            .expect("v1 table")
            .is_none(),
        "v1 baseline must be monolithic"
    );
    // Both layouts reconstruct within the error bound on identical input.
    for decoded in [
        sz::Sz.decompress(&v1).expect("v1 decode"),
        sz::Sz.decompress(&v2).expect("v2 decode"),
    ] {
        let worst = arch_field
            .data()
            .iter()
            .zip(decoded.data())
            .map(|(a, b)| (a - b).abs() as f64)
            .fold(0.0f64, f64::max);
        let ErrorConfig::Abs(eb) = arch_eb else {
            unreachable!()
        };
        assert!(worst <= eb * 1.0001, "decode exceeds error bound");
    }

    let mut group = c.benchmark_group("archive_decode");
    group.throughput(Throughput::Bytes(raw_bytes as u64));
    group.bench_function("v1_monolithic", |b| {
        b.iter(|| sz::Sz.decompress(&v1).expect("v1 decode"))
    });
    for threads in [1usize, 2, 4, 8] {
        group.bench_function(format!("v2_slabbed/{threads}t"), |b| {
            b.iter(|| {
                fxrz_parallel::with_threads(threads, || sz::Sz.decompress(&v2).expect("v2 decode"))
            })
        });
    }
    group.finish();

    // Streaming frames: a drifting sine+noise signal pushed frame by
    // frame through the FXRZS1 encoder (per-frame codec selection plus
    // the sliding-window ratio controller), then decoded whole at 1 and
    // 4 worker threads. Raw signal bytes are the denominator throughout.
    let (stream_frames, stream_frame_len) = if smoke_mode() { (8, 256) } else { (64, 4096) };
    let stream_signal: Vec<f32> = (0..stream_frames * stream_frame_len)
        .map(|i| {
            let frame = i / stream_frame_len;
            let drift = frame as f32 / stream_frames as f32;
            let t = i as f32 * 0.003;
            let pseudo = ((i as u32).wrapping_mul(2654435761) >> 16) as f32 / 65536.0 - 0.5;
            (1.0 + drift) * t.sin() + 0.4 * drift * pseudo
        })
        .collect();
    let stream_raw_bytes = stream_signal.len() * 4;
    let encode_stream = || {
        let mut enc = fxrz_stream::StreamEncoder::new(fxrz_stream::StreamConfig::new(12.0))
            .expect("stream config");
        let mut out = enc.header();
        for chunk in stream_signal.chunks(stream_frame_len) {
            out.extend_from_slice(&enc.push(chunk).expect("stream push").bytes);
        }
        out.extend_from_slice(&enc.finish());
        (out, enc.cumulative_ratio())
    };
    let (stream_file, stream_cr) = encode_stream();
    let stream_decoded = fxrz_stream::StreamDecoder::decode(&stream_file).expect("stream decode");
    assert_eq!(stream_decoded.samples.len(), stream_signal.len());

    let mut group = c.benchmark_group("stream_throughput");
    group.throughput(Throughput::Bytes(stream_raw_bytes as u64));
    group.bench_function("encode", |b| b.iter(&encode_stream));
    for threads in [1usize, 4] {
        group.bench_function(format!("decode/{threads}t"), |b| {
            b.iter(|| {
                fxrz_parallel::with_threads(threads, || {
                    fxrz_stream::StreamDecoder::decode(&stream_file).expect("stream decode")
                })
            })
        });
    }
    group.finish();

    let stream_mib = stream_raw_bytes as f64 / (1024.0 * 1024.0);
    let stream_enc_mibps = stream_mib
        / median_secs(samples, || {
            black_box(encode_stream());
        });
    let stream_dec_mibps: Vec<f64> = [1usize, 4]
        .iter()
        .map(|&threads| {
            stream_mib
                / median_secs(samples, || {
                    fxrz_parallel::with_threads(threads, || {
                        black_box(
                            fxrz_stream::StreamDecoder::decode(&stream_file)
                                .expect("stream decode"),
                        );
                    });
                })
        })
        .collect();

    let arch_mib = raw_bytes as f64 / (1024.0 * 1024.0);
    let v1_mibps = arch_mib
        / median_secs(samples, || {
            black_box(sz::Sz.decompress(&v1).expect("v1 decode"));
        });
    let v2_mibps: Vec<f64> = [1usize, 2, 4, 8]
        .iter()
        .map(|&threads| {
            arch_mib
                / median_secs(samples, || {
                    fxrz_parallel::with_threads(threads, || {
                        black_box(sz::Sz.decompress(&v2).expect("v2 decode"));
                    });
                })
        })
        .collect();

    // Manual medians for the JSON snapshot (criterion's vendored stand-in
    // has no programmatic output).
    let huff_enc = measure(
        sym_bytes,
        samples,
        || {
            black_box(baseline::huffman_encode(&codes));
        },
        || {
            black_box(huffman::encode(&codes));
        },
    );
    let huff_dec = measure(
        sym_bytes,
        samples,
        || {
            black_box(baseline::huffman_decode(&huff).expect("decode"));
        },
        || {
            black_box(huffman::decode(&huff).expect("decode"));
        },
    );
    let lz_comp = measure(
        huff.len(),
        samples,
        || {
            black_box(baseline::lz77_compress(&huff));
        },
        || {
            black_box(lz77::compress(&huff));
        },
    );
    let lz_decomp = measure(
        huff.len(),
        samples,
        || {
            black_box(baseline::lz77_decompress(&lz).expect("decompress"));
        },
        || {
            black_box(lz77::decompress(&lz).expect("decompress"));
        },
    );
    let fse_enc = measure(
        sym_bytes,
        samples,
        || {
            black_box(huffman::encode(&codes));
        },
        || {
            black_box(fse::encode(&codes).expect("fse encode"));
        },
    );
    let fse_dec = measure(
        sym_bytes,
        samples,
        || {
            black_box(huffman::decode(&huff).expect("decode"));
        },
        || {
            black_box(fse::decode(&fse_buf).expect("fse decode"));
        },
    );

    let json = format!(
        r#"{{
  "bench": "codec_throughput",
  "mode": "{mode}",
  "input": {{
    "field": "nyx baryon_density {side}^3 (seed 777), first-order delta quantized at 1e-4 rel eb",
    "symbols": {symbols},
    "symbol_bytes": {sym_bytes},
    "huffman_bytes": {huff_bytes},
    "fse_bytes": {fse_bytes},
    "lz77_bytes": {lz_bytes}
  }},
  "huffman_encode": {{"baseline_mibps": {he_b:.1}, "fast_mibps": {he_f:.1}, "speedup": {he_s:.2}}},
  "huffman_decode": {{"baseline_mibps": {hd_b:.1}, "fast_mibps": {hd_f:.1}, "speedup": {hd_s:.2}}},
  "fse_encode": {{"baseline_mibps": {fe_b:.1}, "fast_mibps": {fe_f:.1}, "speedup": {fe_s:.2}}},
  "fse_decode": {{"baseline_mibps": {fd_b:.1}, "fast_mibps": {fd_f:.1}, "speedup": {fd_s:.2}}},
  "lz77_compress": {{"baseline_mibps": {lc_b:.1}, "fast_mibps": {lc_f:.1}, "speedup": {lc_s:.2}}},
  "lz77_decompress": {{"baseline_mibps": {ld_b:.1}, "fast_mibps": {ld_f:.1}, "speedup": {ld_s:.2}}},
  "archive_decode": {{
    "raw_mib": {am:.2},
    "slabs": {an},
    "worker_threads_available": {cores},
    "v1_monolithic_mibps": {a0:.1},
    "v2_slabbed_mibps": {{"1t": {a1:.1}, "2t": {a2:.1}, "4t": {a4:.1}, "8t": {a8:.1}}},
    "speedup_4t_vs_v1": {asp:.2}
  }},
  "stream_throughput": {{
    "raw_mib": {sm:.2},
    "frames": {sfr},
    "frame_samples": {sfl},
    "target_cr": 12.0,
    "cumulative_cr": {scr:.2},
    "encode_mibps": {se:.1},
    "decode_mibps": {{"1t": {sd1:.1}, "4t": {sd4:.1}}}
  }}
}}
"#,
        mode = if smoke_mode() { "smoke" } else { "full" },
        side = side,
        symbols = codes.len(),
        sym_bytes = sym_bytes,
        huff_bytes = huff.len(),
        fse_bytes = fse_buf.len(),
        lz_bytes = lz.len(),
        he_b = huff_enc.baseline_mibps,
        he_f = huff_enc.fast_mibps,
        he_s = huff_enc.speedup(),
        hd_b = huff_dec.baseline_mibps,
        hd_f = huff_dec.fast_mibps,
        hd_s = huff_dec.speedup(),
        fe_b = fse_enc.baseline_mibps,
        fe_f = fse_enc.fast_mibps,
        fe_s = fse_enc.speedup(),
        fd_b = fse_dec.baseline_mibps,
        fd_f = fse_dec.fast_mibps,
        fd_s = fse_dec.speedup(),
        lc_b = lz_comp.baseline_mibps,
        lc_f = lz_comp.fast_mibps,
        lc_s = lz_comp.speedup(),
        ld_b = lz_decomp.baseline_mibps,
        ld_f = lz_decomp.fast_mibps,
        ld_s = lz_decomp.speedup(),
        am = arch_mib,
        an = v2_slabs,
        cores = fxrz_parallel::current_threads(),
        a0 = v1_mibps,
        a1 = v2_mibps[0],
        a2 = v2_mibps[1],
        a4 = v2_mibps[2],
        a8 = v2_mibps[3],
        asp = v2_mibps[2] / v1_mibps,
        sm = stream_mib,
        sfr = stream_frames,
        sfl = stream_frame_len,
        scr = stream_cr,
        se = stream_enc_mibps,
        sd1 = stream_dec_mibps[0],
        sd4 = stream_dec_mibps[1],
    );
    let out_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_codec.json");
    std::fs::write(out_path, &json).expect("write BENCH_codec.json");
    println!("{json}");
    println!("wrote {out_path}");
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_codec
}
criterion_main!(benches);
