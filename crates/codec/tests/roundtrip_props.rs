//! Randomized (seeded) roundtrip property tests for all four codecs.
//!
//! Every case is generated from a fixed `StdRng` seed, so failures are
//! perfectly reproducible: re-run the same test binary and the same inputs
//! appear. The sweeps concentrate on the regimes the golden vectors cannot
//! cover exhaustively — alphabet sizes from 1 to 2^16, skewed vs uniform vs
//! constant distributions, and the empty/one-symbol edge cases that bit-level
//! refactors most often break. Hostile input (truncations, bit flips,
//! forged headers) is `tests/hostile_input.rs`'s job.

use fxrz_codec::range::{BitModel, BitTree, RangeDecoder, RangeEncoder};
use fxrz_codec::{huffman, lz77, rle};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Samples a symbol stream of `len` symbols over `alphabet` symbols with the
/// given shape (0 = uniform, 1 = skewed/Zipf-ish, 2 = constant).
fn sample(rng: &mut StdRng, len: usize, alphabet: u64, shape: u8) -> Vec<u32> {
    (0..len)
        .map(|_| match shape {
            0 => rng.gen_range(0..alphabet) as u32,
            1 => {
                // Squaring a uniform sample twice piles mass near zero —
                // a crude but effective heavy-skew generator.
                let u = rng.gen_range(0..alphabet) as f64 / alphabet as f64;
                ((u * u * u * u) * alphabet as f64) as u32
            }
            _ => (alphabet - 1) as u32,
        })
        .collect()
}

#[test]
fn huffman_roundtrips_across_alphabets_and_shapes() {
    let mut rng = StdRng::seed_from_u64(0x5EED_0001);
    // Alphabet sizes spanning 1..=65536, including the PRIMARY_BITS
    // boundary (2^11) where the decode table switches to sub-tables.
    for &alphabet in &[1u64, 2, 3, 7, 16, 255, 256, 1 << 11, (1 << 11) + 1, 65_536] {
        for shape in 0..=2u8 {
            for &len in &[1usize, 2, 100, 5_000] {
                let input = sample(&mut rng, len, alphabet, shape);
                let enc = huffman::encode(&input);
                let dec = huffman::decode(&enc).unwrap_or_else(|e| {
                    panic!("decode failed (alphabet={alphabet} shape={shape} len={len}): {e}")
                });
                assert_eq!(dec, input, "alphabet={alphabet} shape={shape} len={len}");
            }
        }
    }
}

#[test]
fn huffman_empty_roundtrips() {
    let enc = huffman::encode(&[]);
    assert_eq!(huffman::decode(&enc).expect("decode"), Vec::<u32>::new());
}

#[test]
fn lz77_roundtrips_random_mixtures() {
    let mut rng = StdRng::seed_from_u64(0x5EED_0003);
    for trial in 0..40 {
        let mut data = Vec::new();
        // Stitch together random segments: runs, noise, and back-references.
        let segments = rng.gen_range(1..9);
        for _ in 0..segments {
            match rng.gen_range(0..4) {
                0 => {
                    let b: u8 = rng.gen();
                    data.extend(std::iter::repeat_n(b, rng.gen_range(0..3_000usize)));
                }
                1 => {
                    for _ in 0..rng.gen_range(0..2_000) {
                        data.push(rng.gen());
                    }
                }
                2 if !data.is_empty() => {
                    // Copy an earlier slice (forces matches at many dists).
                    let start = rng.gen_range(0..data.len());
                    let len = rng.gen_range(0..1_500usize).min(data.len() - start);
                    let slice: Vec<u8> = data[start..start + len].to_vec();
                    data.extend_from_slice(&slice);
                }
                _ => {
                    let period = rng.gen_range(1..14);
                    let reps = rng.gen_range(0..400);
                    for i in 0..period * reps {
                        data.push((i % period) as u8);
                    }
                }
            }
        }
        let enc = lz77::compress(&data);
        let dec = lz77::decompress(&enc)
            .unwrap_or_else(|e| panic!("trial {trial}: decompress failed: {e}"));
        assert_eq!(dec, data, "trial {trial} (len {})", data.len());
    }
}

#[test]
fn lz77_edge_sizes() {
    for len in 0..=16usize {
        let data: Vec<u8> = (0..len).map(|i| (i * 37) as u8).collect();
        assert_eq!(
            lz77::decompress(&lz77::compress(&data)).expect("decompress"),
            data
        );
    }
}

#[test]
fn rle_roundtrips_sparse_and_dense() {
    let mut rng = StdRng::seed_from_u64(0x5EED_0004);
    for &density_pct in &[0u64, 1, 10, 50, 100] {
        for &len in &[0usize, 1, 2, 1_000, 20_000] {
            let input: Vec<u32> = (0..len)
                .map(|_| {
                    if rng.gen_range(0..100u64) < density_pct {
                        rng.gen_range(1..=1u32 << 16)
                    } else {
                        0
                    }
                })
                .collect();
            let enc = rle::encode(&input);
            assert_eq!(
                rle::decode(&enc).expect("decode"),
                input,
                "density={density_pct}% len={len}"
            );
            assert_eq!(
                rle::decode_limited(&enc, len).expect("decode_limited"),
                input
            );
        }
    }
}

#[test]
fn range_roundtrips_mixed_operations() {
    let mut rng = StdRng::seed_from_u64(0x5EED_0005);
    for trial in 0..10 {
        let ops: Vec<(u8, u64)> = (0..1_000 + trial * 500)
            .map(|_| match rng.gen_range(0..3) {
                0 => (0u8, rng.gen_range(0..2u64)),     // model bit
                1 => (1, rng.gen_range(0..1u64 << 16)), // 16 direct bits
                _ => (2, rng.gen_range(0..1u64 << 12)), // 12-bit tree value
            })
            .collect();

        let mut enc = RangeEncoder::with_capacity(ops.len());
        let mut model = BitModel::new();
        let mut tree = BitTree::new(12);
        for &(kind, v) in &ops {
            match kind {
                0 => enc.encode_bit(&mut model, v == 1),
                1 => enc.encode_direct(v, 16),
                _ => tree.encode(&mut enc, v as u32),
            }
        }
        let bytes = enc.finish();

        let mut dec = RangeDecoder::new(&bytes).expect("init");
        let mut model = BitModel::new();
        let mut tree = BitTree::new(12);
        for (i, &(kind, v)) in ops.iter().enumerate() {
            let got = match kind {
                0 => dec.decode_bit(&mut model) as u64,
                1 => dec.decode_direct(16),
                _ => tree.decode(&mut dec) as u64,
            };
            assert_eq!(got, v, "trial {trial}, op {i}");
        }
    }
}

/// Warm scratch vs cold scratch must be byte-identical for every encoder —
/// the determinism suite depends on it, so fail fast here if it regresses.
#[test]
fn scratch_history_never_changes_output() {
    let mut rng = StdRng::seed_from_u64(0x5EED_0006);
    let warmup_syms = sample(&mut rng, 3_000, 500, 1);
    let syms = sample(&mut rng, 4_000, 1 << 13, 0);
    let warmup_bytes: Vec<u8> = (0..5_000).map(|_| rng.gen()).collect();
    let bytes: Vec<u8> = (0..9_000).map(|i| (i % 251) as u8).collect();

    let cold_h = fxrz_codec::with_scratch(|s| huffman::encode_with(s, &syms));
    let warm_h = fxrz_codec::with_scratch(|s| {
        let _ = huffman::encode_with(s, &warmup_syms);
        huffman::encode_with(s, &syms)
    });
    assert_eq!(cold_h, warm_h, "huffman output depends on scratch history");

    let cold_l = fxrz_codec::with_scratch(|s| lz77::compress_with(s, &bytes));
    let warm_l = fxrz_codec::with_scratch(|s| {
        let _ = lz77::compress_with(s, &warmup_bytes);
        lz77::compress_with(s, &bytes)
    });
    assert_eq!(cold_l, warm_l, "lz77 output depends on scratch history");
}
