//! Golden-vector format-compatibility tests for the codec layer.
//!
//! The fixtures under `tests/fixtures/` were encoded by the codec as it
//! existed **before** the word-at-a-time fast paths landed, so these tests
//! pin the on-wire format: any change to the accumulator layout, decode
//! tables or canonical code assignment that alters the format breaks here
//! first, not in a user's archive.
//!
//! Regenerate (only when the format is *intentionally* revised) with:
//! `FXRZ_BLESS=1 cargo test --test golden_codecs`
//!
//! Two guarantee levels:
//! * **Byte-exact encode** (huffman, rle, range): these encoders are fully
//!   deterministic functions of their input, so the bytes they emit must
//!   never drift.
//! * **Decode compatibility** (all four, including lz77): fixtures encoded
//!   by the old implementation must decode exactly. lz77's tokenization is
//!   allowed to improve (lazy matching), so only its decoder is pinned.

use fxrz::codec::range::{BitModel, BitTree, RangeDecoder, RangeEncoder};
use fxrz::codec::{huffman, lz77, rle};
use std::path::PathBuf;

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn load_or_bless(name: &str, encoded: &[u8]) -> Vec<u8> {
    let path = fixture_path(name);
    if std::env::var("FXRZ_BLESS").is_ok() {
        std::fs::create_dir_all(path.parent().expect("fixture dir")).expect("mkdir");
        std::fs::write(&path, encoded).expect("write fixture");
    }
    std::fs::read(&path).unwrap_or_else(|e| {
        panic!("missing fixture {name} ({e}); run with FXRZ_BLESS=1 to generate")
    })
}

/// Like [`load_or_bless`], but never overwrites an existing fixture: used
/// for pins of *historic* wire formats (streams written by encoders that
/// no longer exist), which a re-bless with the current encoder would
/// silently destroy. Regenerate only by checking out the old encoder.
fn load_or_bless_keep(name: &str, encoded: &[u8]) -> Vec<u8> {
    let path = fixture_path(name);
    if std::env::var("FXRZ_BLESS").is_ok() && !path.exists() {
        std::fs::create_dir_all(path.parent().expect("fixture dir")).expect("mkdir");
        std::fs::write(&path, encoded).expect("write fixture");
    }
    std::fs::read(&path).unwrap_or_else(|e| {
        panic!("missing fixture {name} ({e}); run with FXRZ_BLESS=1 to generate")
    })
}

/// SplitMix64: deterministic stimulus without external dependencies.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }
}

/// The SZ-like regime: a heavily skewed quantization-code alphabet.
fn huffman_input_skewed() -> Vec<u32> {
    let mut rng = Rng(0xF00D);
    (0..20_000)
        .map(|_| {
            let r = rng.next() % 100;
            match r {
                0..=69 => 32_768, // the "zero residual" code
                70..=89 => 32_767 + (rng.next() % 5) as u32,
                90..=98 => 32_700 + (rng.next() % 130) as u32,
                _ => (rng.next() % 65_536) as u32,
            }
        })
        .collect()
}

/// A wide, nearly uniform alphabet (worst case for the decode table).
fn huffman_input_uniform() -> Vec<u32> {
    let mut rng = Rng(0xBEEF);
    (0..8_192).map(|_| (rng.next() % 1_024) as u32).collect()
}

fn lz77_input() -> Vec<u8> {
    let mut rng = Rng(0xCAFE);
    let mut data = Vec::new();
    for _ in 0..64 {
        data.extend_from_slice(b"quantized residual run ");
    }
    data.extend(std::iter::repeat_n(7u8, 4_096));
    for _ in 0..4_096 {
        data.push(rng.next() as u8);
    }
    for i in 0..2_048u32 {
        data.push((i % 7) as u8);
    }
    data
}

fn rle_input() -> Vec<u32> {
    let mut rng = Rng(0xD1CE);
    let mut syms = vec![0u32; 30_000];
    for i in (0..30_000).step_by(97) {
        syms[i] = 1 + (rng.next() % 500) as u32;
    }
    syms
}

/// (model-coded bit, 5 raw bits, bit-tree byte) triplets.
fn range_input() -> Vec<(bool, u64, u32)> {
    let mut rng = Rng(0xACE5);
    (0..4_000)
        .map(|_| {
            (
                rng.next().is_multiple_of(10),
                rng.next() % 32,
                (rng.next() % 256) as u32,
            )
        })
        .collect()
}

fn range_encode(input: &[(bool, u64, u32)]) -> Vec<u8> {
    let mut enc = RangeEncoder::new();
    let mut model = BitModel::new();
    let mut tree = BitTree::new(8);
    for &(bit, raw, byte) in input {
        enc.encode_bit(&mut model, bit);
        enc.encode_direct(raw, 5);
        tree.encode(&mut enc, byte);
    }
    enc.finish()
}

#[test]
fn huffman_skewed_golden() {
    let input = huffman_input_skewed();
    let encoded = huffman::encode(&input);
    let fixture = load_or_bless("huffman_skewed.bin", &encoded);
    assert_eq!(encoded, fixture, "huffman encoder output drifted");
    assert_eq!(huffman::decode(&fixture).expect("decode"), input);
}

#[test]
fn huffman_uniform_golden() {
    let input = huffman_input_uniform();
    let encoded = huffman::encode(&input);
    let fixture = load_or_bless("huffman_uniform.bin", &encoded);
    assert_eq!(encoded, fixture, "huffman encoder output drifted");
    assert_eq!(huffman::decode(&fixture).expect("decode"), input);
}

#[test]
fn lz77_golden_decodes() {
    let input = lz77_input();
    // Encoder tokenization may legitimately improve; the decoder must keep
    // reading streams emitted by every prior encoder.
    let fixture = load_or_bless_keep("lz77_mixed.bin", &lz77::compress(&input));
    assert_eq!(lz77::decompress(&fixture).expect("decompress"), input);
    // And the current encoder must stay self-consistent.
    let now = lz77::compress(&input);
    assert_eq!(lz77::decompress(&now).expect("decompress"), input);
}

#[test]
fn rle_golden() {
    let input = rle_input();
    let encoded = rle::encode(&input);
    let fixture = load_or_bless("rle_sparse.bin", &encoded);
    assert_eq!(encoded, fixture, "rle encoder output drifted");
    assert_eq!(rle::decode(&fixture).expect("decode"), input);
}

#[test]
fn range_golden() {
    let input = range_input();
    let encoded = range_encode(&input);
    let fixture = load_or_bless("range_mixed.bin", &encoded);
    assert_eq!(encoded, fixture, "range encoder output drifted");
    let mut dec = RangeDecoder::new(&fixture).expect("init");
    let mut model = BitModel::new();
    let mut tree = BitTree::new(8);
    for &(bit, raw, byte) in &input {
        assert_eq!(dec.decode_bit(&mut model), bit);
        assert_eq!(dec.decode_direct(5), raw);
        assert_eq!(tree.decode(&mut dec), byte);
    }
}

/// Splits an SZ-family archive back into its entropy-container block
/// tags (empty for a legacy single-Huffman stream).
fn archive_block_tags(archive: &[u8]) -> Vec<u8> {
    use fxrz::codec::bitstream::read_varint;
    use fxrz::compressors::header;
    let (_, _, pos) = header::read(archive, header::magic::SZ, "sz").expect("header");
    let payload = fxrz::codec::lz77::decompress(&archive[pos..]).expect("lz77");
    let mut p = 8usize; // skip the stored error bound
    let lead = read_varint(&payload, &mut p).expect("entropy lead");
    if lead != 0 {
        return Vec::new(); // legacy stream, no tags
    }
    read_varint(&payload, &mut p).expect("total");
    let n_blocks = read_varint(&payload, &mut p).expect("blocks");
    let mut tags = Vec::new();
    for _ in 0..n_blocks {
        tags.push(payload[p]);
        p += 1;
        let len = read_varint(&payload, &mut p).expect("block len") as usize;
        p += len;
    }
    tags
}

/// Whole-pipeline golden: an SZ archive written by the pre-fast-path
/// pipeline must still decompress to the identical field.
#[test]
fn sz_archive_golden_decodes() {
    use fxrz::prelude::*;
    let field = nyx::baryon_density(Dims::d3(16, 16, 16), NyxConfig::default().with_seed(4242));
    let eb = field.stats().range * 1e-3;
    let archive = Sz
        .compress(&field, &ErrorConfig::Abs(eb))
        .expect("compress");
    let fixture = load_or_bless_keep("sz_nyx12.fxrz", &archive);
    let back = Sz.decompress(&fixture).expect("decompress");
    assert_eq!(back.dims(), field.dims());
    assert!(field.max_abs_diff(&back) <= eb);
    // The decoded field is pinned too: reconstruction must be bit-stable.
    let expected = load_or_bless_keep(
        "sz_nyx12_decoded.f32",
        &back
            .data()
            .iter()
            .flat_map(|v| v.to_le_bytes())
            .collect::<Vec<u8>>(),
    );
    let got: Vec<u8> = back.data().iter().flat_map(|v| v.to_le_bytes()).collect();
    assert_eq!(got, expected, "sz reconstruction drifted");
    // Pre-container archives carry the legacy single-Huffman section.
    assert!(archive_block_tags(&fixture).is_empty());
}

/// Golden for the `sz-fse` row, whose streams are `sz`'s.
/// `szfse_nyx12` was written before the per-plane Lorenzo choice and is a
/// decode pin: both decompressors read it, bit-stably. The same field
/// now flags planes, and `szfse_planes_nyx12` pins those bytes.
#[test]
fn sz_fse_archive_golden() {
    use fxrz::compressors::sz::SzFse;
    use fxrz::prelude::*;
    let field = nyx::baryon_density(Dims::d3(16, 16, 16), NyxConfig::default().with_seed(4242));
    let eb = field.stats().range * 1e-3;
    let archive = SzFse
        .compress(&field, &ErrorConfig::Abs(eb))
        .expect("compress");
    let legacy = load_or_bless_keep("szfse_nyx12.fxrz", &archive);
    assert_eq!(archive_block_tags(&legacy), vec![1], "one FSE block");
    let fixture = load_or_bless("szfse_planes_nyx12.fxrz", &archive);
    assert_eq!(archive, fixture, "sz-fse archive bytes drifted");
    // The stream family is shared: `sz` decodes `sz-fse` archives too.
    for (stream, decoded) in [
        (legacy, "szfse_nyx12_decoded.f32"),
        (fixture, "szfse_planes_nyx12_decoded.f32"),
    ] {
        let via_fse = SzFse.decompress(&stream).expect("sz-fse decompress");
        let via_sz = Sz.decompress(&stream).expect("sz decompress");
        assert!(field.max_abs_diff(&via_fse) <= eb);
        assert_eq!(via_fse.data(), via_sz.data());
        let got = le_bytes(via_fse.data());
        let expected = load_or_bless_keep(decoded, &got);
        assert_eq!(got, expected, "{decoded}: sz-fse reconstruction drifted");
    }
}

/// Golden for an `sz` stream with an access index: a 4-D QMCPack field
/// whose orbital slices all predict without the slice before, so the
/// index holds an entry every few slices. The fixture holds FNV-1a
/// checksums of the stream, of the decoded bytes and of windows that
/// start at an entry, cross flagged slices and end the field.
#[test]
fn sz_indexed_qmcpack_golden() {
    use fxrz::compressors::slab;
    use fxrz::datagen::qmcpack::{self, QmcPackConfig};
    use fxrz::prelude::*;
    use fxrz::telemetry::global;
    let dims = qmcpack::scale_dims(2, 48, 5);
    let field = qmcpack::orbitals(dims, QmcPackConfig::default().with_scale(2).with_seed(4242));
    let eb = field.stats().range * 1e-3;
    let stream = Sz
        .compress(&field, &ErrorConfig::Abs(eb))
        .expect("compress");
    assert!(slab::table(&stream, stream[0], "sz")
        .expect("header")
        .is_none());
    let back = Sz.decompress(&stream).expect("decompress");
    assert!(field.max_abs_diff(&back) <= eb);
    let slice = dims.len() / dims.axis(0);
    let seeks = || {
        global()
            .snapshot()
            .counter("archive.slab.range_seeks")
            .unwrap_or(0)
    };
    let before = seeks();
    let mut sums = format!(
        "stream {:08x}\ndecoded {:08x}\n",
        slab::checksum(&stream),
        slab::checksum(&le_bytes(back.data())),
    );
    let len = dims.len();
    for range in [
        10 * slice - 5..10 * slice + 4091,
        12 * slice + 7..14 * slice + 9,
        len - 4096..len,
    ] {
        let got = Sz
            .decompress_range(&stream, range.clone())
            .expect("range decode");
        assert_eq!(got, back.data()[range.clone()]);
        sums += &format!("range {:08x}\n", slab::checksum(&le_bytes(&got)));
    }
    assert!(seeks() - before >= 3, "every window starts at an entry");
    let fixture = load_or_bless("sz_indexed_qmcpack.txt", sums.as_bytes());
    assert_eq!(
        sums,
        String::from_utf8_lossy(&fixture),
        "sz indexed bytes drifted"
    );
}

/// Decode pin of a mixed-backend archive: a two-block code stream whose
/// first block (constant codes) was coded with FSE and whose second (two
/// equiprobable symbols, exactly Huffman-optimal) with Huffman, written
/// while the entropy stage priced every block under both coders. It is
/// the only committed stream with a Huffman-tagged block. Today's
/// encoder codes both blocks with FSE.
#[test]
fn sz_mixed_backend_archive_golden() {
    use fxrz::prelude::*;
    const BLOCK: usize = 1 << 18; // entropy::BLOCK_SYMBOLS
    let n = BLOCK + (BLOCK >> 3);
    // 1-D: the Lorenzo predictor is the previous value, so a constant run
    // quantizes to the zero code and a unit-step square wave (eb = 0.5,
    // bin = 1.0) to the ±1 codes in equal measure.
    let field = Field::from_fn("mixed/square", Dims::d1(n), |c| {
        if c[0] < BLOCK {
            0.0
        } else {
            ((c[0] - BLOCK + 1) % 2) as f32
        }
    });
    let archive = Sz
        .compress(&field, &ErrorConfig::Abs(0.5))
        .expect("compress");
    let fixture = load_or_bless_keep("sz_mixed_backend.fxrz", &archive);
    assert_eq!(
        archive_block_tags(&fixture),
        vec![1, 0],
        "expected an FSE block then a Huffman block"
    );
    assert_eq!(
        archive_block_tags(&archive),
        vec![1, 1],
        "FSE codes every block"
    );
    for stream in [&fixture, &archive] {
        let back = Sz.decompress(stream).expect("decompress");
        assert!(field.max_abs_diff(&back) <= 0.5);
    }
}

/// Decode pin of a slab container written before the per-plane Lorenzo
/// choice: the `sz_nyx12` field as four slabs of four planes, each slab
/// a tagged-block stream whose every plane predicts from the one before.
/// Full and range decodes of the kept bytes must stay exact.
#[test]
fn sz_slabbed_nyx12_golden_decodes() {
    use fxrz::compressors::{header, slab};
    use fxrz::prelude::*;
    let field = nyx::baryon_density(Dims::d3(16, 16, 16), NyxConfig::default().with_seed(4242));
    let eb = field.stats().range * 1e-3;
    let stream = slab::compress_slabbed(header::magic::SZ, &field, 1024, |sub| {
        Sz.compress(sub, &ErrorConfig::Abs(eb))
    })
    .expect("compress")
    .expect("four slabs");
    let fixture = load_or_bless_keep("sz_slabbed_nyx12.fxrz", &stream);
    let back = Sz.decompress(&fixture).expect("decompress");
    assert!(field.max_abs_diff(&back) <= eb);
    let got = le_bytes(back.data());
    let expected = load_or_bless_keep("sz_slabbed_nyx12_decoded.f32", &got);
    assert_eq!(got, expected, "sz slabbed reconstruction drifted");
    for range in [0..10, 1000..1100, 1500..3000, 4000..4096] {
        let slice = Sz
            .decompress_range(&fixture, range.clone())
            .expect("range decode");
        assert_eq!(slice, back.data()[range]);
    }
}

/// Little-endian bytes of a reconstruction, the layout of the
/// `*_decoded.f32` fixtures.
fn le_bytes(data: &[f32]) -> Vec<u8> {
    data.iter().flat_map(|v| v.to_le_bytes()).collect()
}

/// Stream-bytes and decoded-bytes pins of registry row `name` on the
/// `sz_nyx12` field (16³ Nyx baryon density, seed 4242) and bound.
fn pin_nyx12(name: &str) {
    use fxrz::prelude::*;
    let comp = fxrz::compressors::by_name(name).expect("registered");
    let field = nyx::baryon_density(Dims::d3(16, 16, 16), NyxConfig::default().with_seed(4242));
    let eb = field.stats().range * 1e-3;
    let stream = comp
        .compress(&field, &ErrorConfig::Abs(eb))
        .expect("compress");
    let fixture = load_or_bless(&format!("{name}_nyx12.fxrz"), &stream);
    assert_eq!(stream, fixture, "{name} stream bytes drifted");
    let back = comp.decompress(&fixture).expect("decompress");
    assert!(field.max_abs_diff(&back) <= eb);
    let got = le_bytes(back.data());
    let expected = load_or_bless(&format!("{name}_nyx12_decoded.f32"), &got);
    assert_eq!(got, expected, "{name} reconstruction drifted");
}

#[test]
fn sz2_nyx12_golden() {
    pin_nyx12("sz2");
}

#[test]
fn szi_nyx12_golden() {
    pin_nyx12("szi");
}

#[test]
fn mgard_nyx12_golden() {
    pin_nyx12("mgard");
}

/// fpzip's pins on the `sz_nyx12` field at 16 bits. `fpzip_nyx12` was
/// written in the v1 layout (one adaptive range coder) and is a decode
/// pin; `fpzip2_nyx12` pins the v2 bytes (classes in context-selected FSE
/// streams, raw bits). Both decode to the values `fpzip_nyx12_decoded`
/// pins.
#[test]
fn fpzip_nyx12_golden() {
    use fxrz::compressors::fpzip::Fpzip;
    use fxrz::compressors::header::{self, magic};
    use fxrz::prelude::*;
    let field = nyx::baryon_density(Dims::d3(16, 16, 16), NyxConfig::default().with_seed(4242));
    let stream = Fpzip
        .compress(&field, &ErrorConfig::Precision(16))
        .expect("compress");
    let legacy = load_or_bless_keep("fpzip_nyx12.fxrz", &stream);
    let fixture = load_or_bless("fpzip2_nyx12.fxrz", &stream);
    assert_eq!(stream, fixture, "fpzip stream bytes drifted");
    let (_, _, off) = header::read(&legacy, magic::FPZIP, "fpzip").expect("header");
    assert_eq!(legacy[off], 16, "the v1 precision byte");
    assert_eq!(fixture[off], 0x80 | 16, "the v2 precision byte");
    let decode = |bytes: &[u8]| le_bytes(Fpzip.decompress(bytes).expect("decompress").data());
    let expected = load_or_bless_keep("fpzip_nyx12_decoded.f32", &decode(&legacy));
    assert_eq!(decode(&legacy), expected, "fpzip v1 reconstruction drifted");
    assert_eq!(
        decode(&fixture),
        expected,
        "fpzip v2 reconstruction drifted"
    );
}

#[test]
fn zfp_nyx12_golden() {
    pin_nyx12("zfp");
}

/// Slab-container pins of registry row `name`: an 8×256×256 Nyx field
/// splits into two slabs of `slab::SLAB_SYMBOLS` elements each. The
/// fixture holds FNV-1a checksums (`slab::checksum`) of the stream, of
/// the decoded bytes and of a `decompress_range` slice across the slab
/// boundary, instead of the multi-MiB bytes themselves. fpzip keeps 16
/// bits.
fn pin_slabbed(name: &str) {
    use fxrz::compressors::slab;
    use fxrz::prelude::*;
    let comp = fxrz::compressors::by_name(name).expect("registered");
    let field = nyx::baryon_density(Dims::d3(8, 256, 256), NyxConfig::default().with_seed(4242));
    let eb = field.stats().range * 1e-3;
    let cfg = match name {
        "fpzip" => ErrorConfig::Precision(16),
        _ => ErrorConfig::Abs(eb),
    };
    let stream = comp.compress(&field, &cfg).expect("compress");
    let (_, _, slabs) = slab::table(&stream, stream[0], comp.name())
        .expect("slab directory")
        .expect("a slab container");
    assert_eq!(slabs.len(), 2);
    assert_eq!(slabs[0].raw_elems, slab::SLAB_SYMBOLS);
    let back = comp.decompress(&stream).expect("decompress");
    if name != "fpzip" {
        assert!(field.max_abs_diff(&back) <= eb);
    }
    let range = slab::SLAB_SYMBOLS - 300..slab::SLAB_SYMBOLS + 300;
    let slice = comp
        .decompress_range(&stream, range.clone())
        .expect("range decode");
    assert_eq!(slice, back.data()[range]);
    let sums = format!(
        "stream {:08x}\ndecoded {:08x}\nrange {:08x}\n",
        slab::checksum(&stream),
        slab::checksum(&le_bytes(back.data())),
        slab::checksum(&le_bytes(&slice)),
    );
    let fixture = load_or_bless(&format!("{name}_slabbed_nyx8x256.txt"), sums.as_bytes());
    assert_eq!(
        sums,
        String::from_utf8_lossy(&fixture),
        "{name} slabbed bytes drifted"
    );
}

#[test]
fn sz_slabbed_golden() {
    pin_slabbed("sz");
}

#[test]
fn sz_fse_slabbed_golden() {
    pin_slabbed("sz-fse");
}

#[test]
fn sz2_slabbed_golden() {
    pin_slabbed("sz2");
}

#[test]
fn szi_slabbed_golden() {
    pin_slabbed("szi");
}

#[test]
fn zfp_slabbed_golden() {
    pin_slabbed("zfp");
}

#[test]
fn fpzip_slabbed_golden() {
    pin_slabbed("fpzip");
}

#[test]
fn mgard_slabbed_golden() {
    pin_slabbed("mgard");
}
