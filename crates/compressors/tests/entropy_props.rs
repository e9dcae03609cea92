//! Tests of the per-block entropy container: SZ-like code streams
//! round-trip through the section the encoder writes and through the
//! two Huffman layouts earlier encoders wrote (a legacy single-Huffman
//! section, and Huffman-tagged blocks); prefix decodes step over later
//! blocks, a stream seeks to a marked code, and counts, tags and
//! truncations are checked. Hostile input (bit flips, forged tags and
//! lengths) is `tests/hostile_input.rs`'s job.

use fxrz_codec::bitstream::{read_varint, write_varint};
use fxrz_codec::{fse, huffman, with_scratch};
use fxrz_compressors::entropy::{
    decode_codes, encode_codes, encode_marked, CodeStream, BLOCK_SYMBOLS, TAG_HUFFMAN,
};
use fxrz_compressors::CompressError;
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

/// The section the encoder writes.
fn encode(codes: &[u32]) -> Vec<u8> {
    let mut out = Vec::new();
    with_scratch(|s| encode_codes(s, codes, &mut out));
    out
}

/// A legacy single-Huffman section: `varint(len) | huffman stream`.
fn legacy(codes: &[u32]) -> Vec<u8> {
    let stream = huffman::encode(codes);
    let mut out = Vec::new();
    write_varint(&mut out, stream.len() as u64);
    out.extend_from_slice(&stream);
    out
}

/// A tagged-block section whose every block is Huffman-coded, as the
/// encoder wrote a block when Huffman priced it cheaper.
fn huffman_blocks(codes: &[u32]) -> Vec<u8> {
    let mut out = Vec::new();
    write_varint(&mut out, 0);
    write_varint(&mut out, codes.len() as u64);
    write_varint(&mut out, codes.len().div_ceil(BLOCK_SYMBOLS) as u64);
    for block in codes.chunks(BLOCK_SYMBOLS) {
        let stream = huffman::encode(block);
        out.push(TAG_HUFFMAN);
        write_varint(&mut out, stream.len() as u64);
        out.extend_from_slice(&stream);
    }
    out
}

/// Writes a section of the given codes in one layout.
type Layout = fn(&[u32]) -> Vec<u8>;

/// Every section layout the decoder reads, each with its name.
const LAYOUTS: [(&str, Layout); 3] = [
    ("fse", encode),
    ("legacy", legacy),
    ("huffman blocks", huffman_blocks),
];

/// Decodes `section` whole and checks it against `codes`.
fn decodes_to(section: &[u8], codes: &[u32]) {
    let mut pos = 0;
    let back = decode_codes(section, &mut pos, codes.len(), codes.len()).expect("decode");
    assert_eq!(back, codes);
    assert_eq!(pos, section.len(), "decode must consume the whole section");
}

#[test]
fn valid_streams_roundtrip_every_layout() {
    for seed in 0..64u64 {
        let mut rng = StdRng::seed_from_u64(0x5EED_0000 + seed);
        let codes = arbitrary_codes(&mut rng);
        for (name, layout) in LAYOUTS {
            let buf = layout(&codes);
            let mut pos = 0;
            let back = decode_codes(&buf, &mut pos, codes.len(), codes.len())
                .unwrap_or_else(|e| panic!("seed {seed:#x} {name}: {e}"));
            assert_eq!(back, codes, "seed {seed:#x} {name}");
            assert_eq!(pos, buf.len(), "seed {seed:#x} {name} left bytes");
        }
    }
}

#[test]
fn empty_stream_roundtrips() {
    for (_, layout) in LAYOUTS {
        decodes_to(&layout(&[]), &[]);
    }
}

#[test]
fn a_legacy_huffman_section_decodes() {
    let codes: Vec<u32> = (0..500u32).map(|i| i % 17).collect();
    let stream = huffman::encode(&codes);
    let section = legacy(&codes);
    let mut pos = 0;
    assert_eq!(read_varint(&section, &mut pos), Some(stream.len() as u64));
    assert_eq!(section[pos..], stream[..], "a bare Huffman stream");
    decodes_to(&section, &codes);
}

#[test]
fn multi_block_streams_roundtrip_and_reject_mismatches() {
    let mut rng = StdRng::seed_from_u64(0xB10C);
    let codes: Vec<u32> = (0..BLOCK_SYMBOLS + 2_000)
        .map(|_| rng.gen_range(32_768..32_775u32))
        .collect();
    for buf in [encode(&codes), huffman_blocks(&codes)] {
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

#[test]
fn prefix_decode_steps_over_later_blocks() {
    let codes: Vec<u32> = (0..BLOCK_SYMBOLS + 77).map(|i| (i % 300) as u32).collect();
    let n = codes.len();
    for (name, layout) in LAYOUTS {
        let out = layout(&codes);
        for stop in [0, 1, 4097, BLOCK_SYMBOLS, BLOCK_SYMBOLS + 1, n, usize::MAX] {
            let mut pos = 0;
            let got = decode_codes(&out, &mut pos, n, stop).expect("prefix");
            assert_eq!(got, codes[..stop.min(n)], "{name} stop {stop}");
            assert_eq!(pos, out.len(), "{name}: the section's end is reached");
        }
    }
    // Damage confined to a block the prefix never decodes goes
    // unreported: zeroing the last block's terminator byte fails only
    // the decode that reaches it.
    let mut out = encode(&codes);
    *out.last_mut().expect("nonempty") = 0;
    assert!(decode_codes(&out, &mut 0, n, n).is_err());
    let got = decode_codes(&out, &mut 0, n, 100).expect("block 0 only");
    assert_eq!(got, codes[..100]);
}

#[test]
fn a_stream_seeked_to_a_mark_hands_out_the_codes_from_there() {
    let n = 2 * BLOCK_SYMBOLS + 999;
    let codes: Vec<u32> = (0..n).map(|i| ((i * i) % 301) as u32).collect();
    let marks = [
        1,
        4_097,
        BLOCK_SYMBOLS - 1,
        BLOCK_SYMBOLS,
        2 * BLOCK_SYMBOLS + 5,
    ];
    let mut out = Vec::new();
    let cursors = with_scratch(|s| encode_marked(s, &codes, &marks, &mut out));
    assert_eq!(out, encode(&codes), "marks change no byte");
    for (&mark, at) in marks.iter().zip(cursors) {
        let at = at.expect("an FSE block");
        for stop in [mark + 1, mark + 70_000, n] {
            let mut stream = CodeStream::open(&out, &mut 0, n, stop).expect("open");
            assert!(stream.uniform_lead().is_none());
            stream.seek(mark, at).expect("seek");
            let mut got = vec![0; stream.left()];
            assert_eq!(stream.fill(&mut got), stop.min(n) - mark);
            stream.finish(true).expect("every block reached checks out");
            assert_eq!(got, codes[mark..stop.min(n)], "mark {mark} stop {stop}");
        }
    }
    // A Huffman block cannot be seeked into, and a legacy section has
    // no blocks.
    for section in [huffman_blocks(&codes), legacy(&codes)] {
        let mut stream = CodeStream::open(&section, &mut 0, n, n).expect("open");
        assert!(stream.seek(1, fse::Cursor::new(0, 0, 0)).is_err());
    }
    // A block of one code starts anywhere with the all-zero cursor.
    let uniform = encode(&[7; 1000]);
    let mut stream = CodeStream::open(&uniform, &mut 0, 1000, 1000).expect("open");
    assert_eq!(stream.uniform_lead(), Some((7, 1000)));
    stream.seek(400, fse::Cursor::new(0, 0, 0)).expect("seek");
    let mut got = vec![0; stream.left()];
    stream.fill(&mut got);
    stream.finish(true).expect("checks");
    assert_eq!(got, [7; 600]);
}

#[test]
fn unknown_tag_is_a_typed_error() {
    let codes: Vec<u32> = (0..100u32).collect();
    let mut out = encode(&codes);
    // sentinel(1) + total(1) + n_blocks(1): the tag byte is at 3
    assert_eq!(out[..3], [0, 100, 1]);
    out[3] = 0x7F;
    let mut pos = 0;
    assert!(matches!(
        decode_codes(&out, &mut pos, codes.len(), codes.len()),
        Err(CompressError::Header("unknown entropy backend tag"))
    ));
}

#[test]
fn count_mismatch_is_a_typed_error() {
    let codes: Vec<u32> = (0..100u32).collect();
    for (name, layout) in LAYOUTS {
        let out = layout(&codes);
        let mut pos = 0;
        assert!(decode_codes(&out, &mut pos, 99, 99).is_err(), "{name}");
    }
}

#[test]
fn truncation_is_a_typed_error() {
    let codes: Vec<u32> = (0..2000u32).map(|i| i % 9).collect();
    for (name, layout) in LAYOUTS {
        let out = layout(&codes);
        for cut in 0..out.len() {
            let mut pos = 0;
            assert!(
                decode_codes(&out[..cut], &mut pos, codes.len(), codes.len()).is_err(),
                "{name}: cut {cut} decoded"
            );
        }
    }
}
