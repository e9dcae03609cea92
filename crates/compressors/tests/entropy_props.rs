//! Property tests for the per-block entropy-backend container: seeded
//! SZ-like code streams round-trip through every backend mode, and the
//! multi-block layout keeps its count and truncation checks. Hostile
//! input (truncations, bit flips, forged tags and lengths) is
//! `tests/hostile_input.rs`'s job.

use fxrz_compressors::entropy::{decode_codes, encode_codes, EntropyMode, BLOCK_SYMBOLS};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// SZ-like quantization codes: heavily skewed around the zero-residual
/// code, with occasional unpredictable markers and wide outliers.
fn arbitrary_codes(rng: &mut StdRng) -> Vec<u32> {
    let n = match rng.gen_range(0..4) {
        0 => rng.gen_range(0..8),
        1 => rng.gen_range(1..201),
        _ => rng.gen_range(200..4_200),
    };
    (0..n)
        .map(|_| match rng.gen_range(0..100) {
            0..=59 => 32_768,
            60..=84 => rng.gen_range(32_764..32_773u32),
            85..=92 => rng.gen_range(32_000..33_500u32),
            93..=97 => rng.gen_range(0..65_536u32),
            _ => 0, // the unpredictable marker
        })
        .collect()
}

fn encode(codes: &[u32], mode: EntropyMode) -> Vec<u8> {
    let mut out = Vec::new();
    fxrz_codec::with_scratch(|s| encode_codes(s, codes, mode, &mut out));
    out
}

#[test]
fn valid_streams_roundtrip_all_modes() {
    for seed in 0..64u64 {
        let mut rng = StdRng::seed_from_u64(0x5EED_0000 + seed);
        let codes = arbitrary_codes(&mut rng);
        for mode in [EntropyMode::Auto, EntropyMode::Huffman, EntropyMode::Fse] {
            let buf = encode(&codes, mode);
            let mut pos = 0;
            let back = decode_codes(&buf, &mut pos, codes.len(), codes.len())
                .unwrap_or_else(|e| panic!("seed {seed:#x} mode {mode:?}: {e}"));
            assert_eq!(back, codes, "seed {seed:#x} mode {mode:?}");
            assert_eq!(pos, buf.len(), "seed {seed:#x} mode {mode:?} left bytes");
        }
    }
}

#[test]
fn multi_block_streams_roundtrip_and_reject_mismatches() {
    let mut rng = StdRng::seed_from_u64(0xB10C);
    let codes: Vec<u32> = (0..BLOCK_SYMBOLS + 2_000)
        .map(|_| rng.gen_range(32_768..32_775u32))
        .collect();
    for mode in [EntropyMode::Auto, EntropyMode::Fse] {
        let buf = encode(&codes, mode);
        let mut pos = 0;
        assert_eq!(
            decode_codes(&buf, &mut pos, codes.len(), codes.len()).expect("roundtrip"),
            codes
        );
        // A count mismatch (off-by-one field size) must be typed.
        let mut pos = 0;
        assert!(decode_codes(&buf, &mut pos, codes.len() - 1, codes.len() - 1).is_err());
        // So must a stream cut inside its second block.
        let mut pos = 0;
        assert!(decode_codes(&buf[..buf.len() - 1], &mut pos, codes.len(), codes.len()).is_err());
    }
}
