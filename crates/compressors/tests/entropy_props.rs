//! Property tests for the per-block entropy-backend container.
//!
//! The entropy section sits behind the LZ77 stage of every SZ-family
//! archive, so it is untrusted input the moment a stream crosses a
//! process boundary. Its contract is stronger than "round-trips valid
//! streams": **every** mutation — truncation, bit flip, forged backend
//! tag, pure garbage — must produce a typed error, never a panic, never
//! an unbounded allocation. A seeded generator (hand-rolled SplitMix64,
//! no dev-dependencies, `protocol_props` style) drives the adversarial
//! families, each wrapped in `catch_unwind` so a failure reports the
//! exact seed and mutation that caused it.

use std::panic::{catch_unwind, AssertUnwindSafe};

use fxrz_compressors::entropy::{decode_codes, encode_codes, EntropyMode, BLOCK_SYMBOLS};
use fxrz_compressors::{Compressor, ErrorConfig};
use fxrz_datagen::{Dims, Field};

/// SplitMix64: tiny, seedable, and good enough to drive mutations.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// SZ-like quantization codes: heavily skewed around the zero-residual
/// code, with occasional unpredictable markers and wide outliers.
fn arbitrary_codes(rng: &mut Rng) -> Vec<u32> {
    let n = match rng.below(4) {
        0 => rng.below(8),
        1 => 1 + rng.below(200),
        _ => 200 + rng.below(4_000),
    };
    (0..n)
        .map(|_| match rng.below(100) {
            0..=59 => 32_768,
            60..=84 => 32_768 + (rng.below(9) as u32) - 4,
            85..=92 => 32_000 + rng.below(1_500) as u32,
            93..=97 => rng.below(65_536) as u32,
            _ => 0, // the unpredictable marker
        })
        .collect()
}

fn arbitrary_mode(rng: &mut Rng) -> EntropyMode {
    match rng.below(3) {
        0 => EntropyMode::Auto,
        1 => EntropyMode::Huffman,
        _ => EntropyMode::Fse,
    }
}

fn encode(codes: &[u32], mode: EntropyMode) -> Vec<u8> {
    let mut out = Vec::new();
    fxrz_codec::with_scratch(|s| encode_codes(s, codes, mode, &mut out));
    out
}

/// Decodes under `catch_unwind`; panics the test with diagnostics if the
/// decoder itself panicked. Result correctness is up to the caller.
#[allow(clippy::type_complexity)]
fn must_not_panic(
    buf: &[u8],
    expected: usize,
    what: &str,
    seed: u64,
) -> Result<Vec<u32>, fxrz_compressors::CompressError> {
    catch_unwind(AssertUnwindSafe(|| {
        let mut pos = 0;
        decode_codes(buf, &mut pos, expected)
    }))
    .unwrap_or_else(|_| panic!("decoder panicked on {what} (seed {seed:#x})"))
}

#[test]
fn valid_streams_roundtrip_all_modes() {
    for seed in 0..64u64 {
        let mut rng = Rng(0x5EED_0000 + seed);
        let codes = arbitrary_codes(&mut rng);
        for mode in [EntropyMode::Auto, EntropyMode::Huffman, EntropyMode::Fse] {
            let buf = encode(&codes, mode);
            let mut pos = 0;
            let back = decode_codes(&buf, &mut pos, codes.len())
                .unwrap_or_else(|e| panic!("seed {seed:#x} mode {mode:?}: {e}"));
            assert_eq!(back, codes, "seed {seed:#x} mode {mode:?}");
            assert_eq!(pos, buf.len(), "seed {seed:#x} mode {mode:?} left bytes");
        }
    }
}

#[test]
fn truncations_error_never_panic() {
    for seed in 0..24u64 {
        let mut rng = Rng(0x7123_0000 + seed);
        let codes = arbitrary_codes(&mut rng);
        let mode = arbitrary_mode(&mut rng);
        let buf = encode(&codes, mode);
        // Exhaustive for short streams, sampled for long ones.
        let cuts: Vec<usize> = if buf.len() <= 256 {
            (0..buf.len()).collect()
        } else {
            (0..256).map(|_| rng.below(buf.len())).collect()
        };
        for cut in cuts {
            let out = must_not_panic(&buf[..cut], codes.len(), "truncation", seed);
            assert!(out.is_err(), "seed {seed:#x} cut {cut} decoded");
        }
    }
}

#[test]
fn bit_flips_never_panic() {
    for seed in 0..24u64 {
        let mut rng = Rng(0xF11B_0000 + seed);
        let codes = arbitrary_codes(&mut rng);
        let mode = arbitrary_mode(&mut rng);
        let buf = encode(&codes, mode);
        if buf.is_empty() {
            continue;
        }
        for _ in 0..256 {
            let mut bad = buf.clone();
            let at = rng.below(bad.len());
            bad[at] ^= 1 << rng.below(8);
            // Entropy streams are not checksummed, so a flip may decode
            // to wrong symbols; the contract is typed-error-or-Ok.
            let _ = must_not_panic(&bad, codes.len(), "bit flip", seed);
        }
    }
}

#[test]
fn forged_tag_bytes_error_never_panic() {
    for seed in 0..24u64 {
        let mut rng = Rng(0x7A9_0000 + seed);
        let mut codes = arbitrary_codes(&mut rng);
        codes.push(32_768); // never empty, so the container has a block
        let buf = encode(&codes, EntropyMode::Auto);
        assert_eq!(buf[0], 0, "auto mode must emit the v2 sentinel");
        // The first block's tag always follows sentinel + total + count.
        let tag_at = {
            let mut pos = 0;
            fxrz_codec::bitstream::read_varint(&buf, &mut pos).expect("sentinel");
            fxrz_codec::bitstream::read_varint(&buf, &mut pos).expect("total");
            fxrz_codec::bitstream::read_varint(&buf, &mut pos).expect("blocks");
            pos
        };
        for forged in 2..=u8::MAX {
            let mut bad = buf.clone();
            bad[tag_at] = forged;
            let out = must_not_panic(&bad, codes.len(), "forged tag", seed);
            assert!(out.is_err(), "seed {seed:#x} tag {forged} decoded");
        }
    }
}

#[test]
fn pure_garbage_never_panics() {
    for seed in 0..48u64 {
        let mut rng = Rng(0x6A4B_0000 + seed);
        let n = rng.below(512);
        let garbage: Vec<u8> = (0..n).map(|_| rng.next() as u8).collect();
        let _ = must_not_panic(&garbage, rng.below(4_096), "garbage", seed);
    }
}

#[test]
fn multi_block_streams_roundtrip_and_reject_mutations() {
    let mut rng = Rng(0xB10C);
    let codes: Vec<u32> = (0..BLOCK_SYMBOLS + 2_000)
        .map(|_| 32_768 + (rng.below(7) as u32))
        .collect();
    for mode in [EntropyMode::Auto, EntropyMode::Fse] {
        let buf = encode(&codes, mode);
        let mut pos = 0;
        assert_eq!(
            decode_codes(&buf, &mut pos, codes.len()).expect("roundtrip"),
            codes
        );
        // A count mismatch (off-by-one field size) must be typed.
        let mut pos = 0;
        assert!(decode_codes(&buf, &mut pos, codes.len() - 1).is_err());
        for cut in [0, 1, 2, 3, buf.len() / 2, buf.len() - 1] {
            let out = must_not_panic(&buf[..cut], codes.len(), "multi-block truncation", 0xB10C);
            assert!(out.is_err(), "cut {cut} decoded");
        }
    }
}

/// Whole-archive level: mutated SZ-family archives (LZ77 stage included)
/// must come back as typed errors or a decoded field, never a panic.
#[test]
fn mutated_archives_never_panic() {
    let field = Field::from_fn("prop/field", Dims::d3(12, 12, 12), |c| {
        ((c[0] + 2 * c[1]) as f32 * 0.11).sin() + c[2] as f32 * 0.01
    });
    let mut rng = Rng(0xA6C1);
    for comp in [
        Box::new(fxrz_compressors::sz::Sz) as Box<dyn Compressor>,
        Box::new(fxrz_compressors::sz::SzFse),
        Box::new(fxrz_compressors::sz2::Sz2),
        Box::new(fxrz_compressors::szinterp::SzInterp),
    ] {
        let archive = comp
            .compress(&field, &ErrorConfig::Abs(1e-3))
            .expect("compress");
        for _ in 0..512 {
            let mut bad = archive.clone();
            match rng.below(3) {
                0 => bad.truncate(rng.below(bad.len())),
                1 => {
                    let at = rng.below(bad.len());
                    bad[at] ^= 1 << rng.below(8);
                }
                _ => {
                    let at = rng.below(bad.len());
                    bad[at] = rng.next() as u8;
                }
            }
            let name = comp.name();
            let _ = catch_unwind(AssertUnwindSafe(|| comp.decompress(&bad)))
                .unwrap_or_else(|_| panic!("{name} panicked on mutated archive"));
        }
    }
}
