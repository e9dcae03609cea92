//! Property-based contracts every registry compressor must uphold,
//! across random shapes and data distributions. Each property runs over
//! [`DRAWS`] fields from its own seeded generator, so a failure names a
//! draw that reproduces.

use std::ops::Range;
use std::path::PathBuf;

use fxrz::prelude::*;
use fxrz_codec::bitstream::read_varint;
use fxrz_codec::lz77;
use fxrz_compressors::entropy::{BLOCK_SYMBOLS, TAG_FSE};
use fxrz_compressors::header::{self, magic};
use fxrz_compressors::sz::{self, SzFse};
use fxrz_compressors::{slab, Codec, CompressError, CODECS};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Every row of the codec table, constructed.
fn registry() -> impl Iterator<Item = Box<dyn Compressor>> {
    CODECS.iter().map(|c| (c.make)())
}

/// Draws per property.
const DRAWS: usize = 24;

/// Random small field: shape 1-D..4-D, assorted value distributions.
fn arb_field(rng: &mut StdRng) -> Field {
    // (axes, exclusive axis-length bound), one row per dimensionality.
    let (ndim, end): (usize, usize) = [(1, 40), (2, 12), (3, 7), (4, 4)][rng.gen_range(0..4usize)];
    let shape: Vec<usize> = (0..ndim).map(|_| rng.gen_range(2..end)).collect();
    let dims = Dims::new(&shape);
    let mut state = rng.gen::<u64>() | 1;
    let amp = 10f64.powf(rng.gen_range(-3.0..3.0)) as f32;
    let offset = rng.gen_range(0.0f64..100.0) as f32;
    Field::from_fn("prop", dims, |c| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let smooth = (c.iter().sum::<usize>() as f32 * 0.21).sin();
        let noise = (state as f32 / u64::MAX as f32) - 0.5;
        offset + amp * (smooth + 0.1 * noise)
    })
}

/// Runs `property` on [`DRAWS`] fields drawn from a generator seeded
/// with `seed`; the property draws its own parameters from the same one.
fn for_each_draw(seed: u64, mut property: impl FnMut(&Field, &mut StdRng)) {
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..DRAWS {
        let field = arb_field(&mut rng);
        property(&field, &mut rng);
    }
}

/// The rows of the SZ pipeline (`sz-fse` is a second name for `sz`).
const SZ_ROWS: [&str; 4] = ["sz", "sz-fse", "sz2", "szi"];

/// Bytes a looser bound may add to a stream of an SZ row. A looser bound
/// can give a value that was stored verbatim (code 0 plus 4 bytes) a
/// quantization code. If that adds a second distinct code to a block
/// that held one, FSE replaces the one-symbol block (`count | 1 |
/// symbol`) with a table: the table log (1 B), the dictionary gap (up to
/// 3 B, since codes lie below 2^16), one norm per symbol (1 B each at
/// table log 5) and the flushed states, marker bit and payload bits
/// (2 × 5 + 1 + 2 bits, so 2 B). That is 8 B more, of which the freed
/// verbatim value pays back 4. `sz_two_element_field_grows_by_its_huffman_block`
/// pins a field that takes it.
const SZ_FSE_TABLE_SLACK: usize = 8 - 4;

/// Two-element fields whose values are stored verbatim at a tight
/// bound, behind a one-symbol FSE block, and get quantization codes at
/// a loose one. The first grew `sz` by a Huffman block when `sz` raced
/// Huffman against FSE; the second grew the forced-FSE row by its table.
const WITNESSES: [[f32; 2]; 2] = [[33.312_275, 33.313_316], [89.185_87, 92.358_56]];

/// Asserts that `values` compress to `sizes` (tight bound, loose bound)
/// bytes under `sz`, and grow every SZ row by the same bytes.
fn assert_sz_rows_grow(values: [f32; 2], sizes: (usize, usize)) {
    let field = Field::new("prop", Dims::d1(2), values.to_vec());
    let range = field.stats().range;
    for comp in registry().filter(|c| SZ_ROWS.contains(&c.name())) {
        let size = |rel: f64| {
            comp.compress(&field, &ErrorConfig::Abs(range * rel))
                .expect("compress")
                .len()
        };
        let (tight, loose) = (size(1e-5), size(1e-1));
        if comp.name() == "sz" {
            assert_eq!((tight, loose), sizes, "sz on {values:?}");
        }
        assert_eq!(
            loose,
            tight + (sizes.1 - sizes.0),
            "{} on {values:?}: {tight} B tight",
            comp.name()
        );
    }
}

#[test]
fn abs_compressors_respect_any_bound() {
    for_each_draw(1, |field, rng| {
        let log_eb = rng.gen_range(-6.0f64..0.0);
        let range = field.stats().range.max(1e-6);
        let eb = range * 10f64.powf(log_eb);
        for comp in registry() {
            if comp.name() == "fpzip" {
                continue; // precision-controlled, covered below
            }
            let bytes = comp
                .compress(field, &ErrorConfig::Abs(eb))
                .expect("compress");
            let recon = comp.decompress(&bytes).expect("decompress");
            assert_eq!(recon.dims(), field.dims());
            let err = field.max_abs_diff(&recon);
            assert!(
                err <= eb,
                "{} on {}: err {err} > eb {eb}",
                comp.name(),
                field.dims()
            );
        }
    });
}

#[test]
fn fpzip_error_shrinks_with_precision() {
    for_each_draw(2, |field, _| {
        let fp = Fpzip;
        let errs: Vec<f64> = [6u32, 14, 22]
            .iter()
            .map(|&p| {
                let b = fp.compress(field, &ErrorConfig::Precision(p)).expect("c");
                field.max_abs_diff(&fp.decompress(&b).expect("d"))
            })
            .collect();
        assert!(errs[1] <= errs[0] + 1e-12, "{}: {errs:?}", field.dims());
        assert!(errs[2] <= errs[1] + 1e-12, "{}: {errs:?}", field.dims());
    });
}

#[test]
fn decompress_preserves_name_and_dims() {
    for_each_draw(3, |field, _| {
        for comp in registry() {
            let cfg = match comp.name() {
                "fpzip" => ErrorConfig::Precision(12),
                _ => ErrorConfig::Abs(field.stats().range.max(1e-6) * 1e-3),
            };
            let bytes = comp.compress(field, &cfg).expect("compress");
            let recon = comp.decompress(&bytes).expect("decompress");
            assert_eq!(recon.name(), field.name());
            assert_eq!(recon.dims(), field.dims());
        }
    });
}

#[test]
fn looser_bounds_never_grow_output() {
    for_each_draw(4, |field, _| {
        let range = field.stats().range.max(1e-6);
        for comp in registry() {
            if comp.name() == "fpzip" {
                continue;
            }
            let size = |rel: f64| {
                let cfg = ErrorConfig::Abs(range * rel);
                comp.compress(field, &cfg).expect("compress").len()
            };
            let (tight, loose) = (size(1e-5), size(1e-1));
            let slack = if SZ_ROWS.contains(&comp.name()) {
                SZ_FSE_TABLE_SLACK
            } else {
                0
            };
            assert!(
                loose <= tight + slack,
                "{} on {}: loose {loose} > tight {tight} + {slack}",
                comp.name(),
                field.dims()
            );
        }
    });
}

#[test]
fn truncated_streams_error_not_panic() {
    for_each_draw(5, |field, rng| {
        let cut_frac = rng.gen_range(0.0f64..1.0);
        for comp in registry() {
            let cfg = match comp.name() {
                "fpzip" => ErrorConfig::Precision(10),
                _ => ErrorConfig::Abs(field.stats().range.max(1e-6) * 1e-2),
            };
            let bytes = comp.compress(field, &cfg).expect("compress");
            let cut = ((bytes.len() as f64) * cut_frac) as usize;
            if cut < bytes.len() {
                // must not panic; may error or (rarely) succeed on a prefix
                let _ = comp.decompress(&bytes[..cut]);
            }
        }
    });
}

/// The field that kept `sz-fse` out of `looser_bounds_never_grow_output`
/// while `sz` raced Huffman against FSE: at the tight bound both values
/// are stored verbatim behind a one-symbol FSE block; at the loose bound
/// they become two distinct codes, and the block becomes a table. Every
/// SZ row now codes with FSE, so each grows the same way.
#[test]
fn sz_fse_two_element_field_grows_by_its_table() {
    assert_sz_rows_grow(WITNESSES[1], (35, 36));
}

/// The field that grows SZ rows by the whole table slack: at the tight
/// bound both values are stored verbatim behind a one-symbol FSE block;
/// at the loose bound the second gets a quantization code. When `sz`
/// raced the coders it picked a Huffman block here (35 to 37 B); with
/// FSE coding every block, the two-symbol block is a table and `sz`
/// grows by [`SZ_FSE_TABLE_SLACK`].
#[test]
fn sz_two_element_field_grows_by_its_huffman_block() {
    assert_sz_rows_grow(WITNESSES[0], (35, 35 + SZ_FSE_TABLE_SLACK));
}

/// `sz-fse` is a second name for `sz`: the two write the same bytes, on
/// the draws of every property's generator at a tight and a loose bound
/// and on the two-element witnesses.
#[test]
fn sz_and_sz_fse_write_identical_bytes() {
    let same = |field: &Field| {
        let range = field.stats().range.max(1e-6);
        for rel in [1e-5, 1e-1] {
            let cfg = ErrorConfig::Abs(range * rel);
            assert_eq!(
                Sz.compress(field, &cfg).expect("sz"),
                SzFse.compress(field, &cfg).expect("sz-fse"),
                "{} at rel {rel}",
                field.dims()
            );
        }
    };
    for seed in 1..=5 {
        for_each_draw(seed, |field, _| same(field));
    }
    for values in WITNESSES {
        same(&Field::new("prop", Dims::d1(2), values.to_vec()));
    }
}

/// The configuration the range contract compresses `codec` under.
fn range_config(codec: &Codec) -> ErrorConfig {
    match codec.name {
        "fpzip" => ErrorConfig::Precision(16),
        _ => ErrorConfig::Abs(1e-2),
    }
}

/// Fields for the range contract: 1-D..4-D shapes with size-1 axes, a
/// 1-element field, a constant field and one mixing NaN, ±Inf and −0.0
/// into smooth values.
fn range_fields(rng: &mut StdRng) -> Vec<Field> {
    const SPECIAL: [f32; 4] = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0];
    let mut fields = vec![
        Field::new("range/one", Dims::d1(1), vec![2.5]),
        Field::new("range/constant", Dims::d3(6, 5, 4), vec![3.25; 120]),
        Field::from_fn("range/special", Dims::d2(9, 7), |c| {
            let i = c[0] * 7 + c[1];
            match i % 5 {
                4 => (i as f32 * 0.3).sin(),
                k => SPECIAL[k],
            }
        }),
    ];
    for _ in 0..12 {
        let ndim = rng.gen_range(1..=4usize);
        let shape: Vec<usize> = (0..ndim)
            .map(|_| match rng.gen_range(0..4) {
                0 => 1,
                _ => rng.gen_range(1..=9usize),
            })
            .collect();
        let phase = rng.gen_range(0.0f32..6.0);
        fields.push(Field::from_fn("range/random", Dims::new(&shape), |c| {
            let t = c.iter().sum::<usize>() as f32;
            (t * 0.37 + phase).sin() + 0.05 * (t * 7.1).cos()
        }));
    }
    fields
}

/// The windows the range contract reads from a field of `dims` whose
/// slabs (if any) start at `slab_starts`: empty, first element, first
/// row, row-crossing, slab-crossing, last element and whole field.
fn range_windows(dims: Dims, slab_starts: &[usize]) -> Vec<Range<usize>> {
    let len = dims.len();
    let row = dims.axis(dims.ndim() - 1);
    let mut windows = vec![
        0..0,
        len / 2..len / 2,
        len..len,
        0..1,
        0..row,
        len - 1..len,
        0..len,
    ];
    if len > row {
        windows.push(row - 1..row + 1);
        windows.push(len / 2 - 1..(len / 2 + row).min(len));
    }
    for &b in slab_starts.iter().filter(|&&b| b > 0) {
        windows.push(b - 1..b + 1);
        windows.push(b..(b + row + 1).min(len));
    }
    windows
}

/// Asserts `decompress_range(w) == decompress()[w]`, bit for bit, for
/// every window of `windows`.
fn assert_range_contract(
    comp: &dyn Compressor,
    bytes: &[u8],
    windows: &[Range<usize>],
    what: &str,
) {
    let full = comp.decompress(bytes).expect("decompress");
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
    for w in windows {
        let got = comp
            .decompress_range(bytes, w.clone())
            .unwrap_or_else(|e| panic!("{}: {what} {w:?}: {e}", comp.name()));
        assert_eq!(
            bits(&got),
            bits(&full.data()[w.clone()]),
            "{}: {what} {w:?}",
            comp.name()
        );
    }
}

/// The first element of every slab of a slab container.
fn slab_starts(codec: &Codec, bytes: &[u8]) -> Vec<usize> {
    let (_, _, rows) = slab::table(bytes, codec.magic, codec.name)
        .expect("table")
        .expect("slab container");
    rows.iter()
        .scan(0, |start, r| {
            let s = *start;
            *start += r.raw_elems;
            Some(s)
        })
        .collect()
}

#[test]
fn range_decode_equals_full_decode_slice() {
    /// Small enough that most fields split into several slabs.
    const SLAB_BUDGET: usize = 24;
    let mut rng = StdRng::seed_from_u64(0x5241_4E47_4543);
    for field in range_fields(&mut rng) {
        for codec in CODECS {
            let comp = (codec.make)();
            let cfg = range_config(codec);
            let what = format!("{} {}", field.name(), field.dims());
            let mono = comp.compress(&field, &cfg).expect("compress");
            assert_range_contract(
                comp.as_ref(),
                &mono,
                &range_windows(field.dims(), &[]),
                &format!("monolithic {what}"),
            );
            let slabbed = slab::compress_slabbed(codec.magic, &field, SLAB_BUDGET, |sub| {
                comp.compress(sub, &cfg)
            })
            .expect("slab compress");
            if let Some(bytes) = slabbed {
                let windows = range_windows(field.dims(), &slab_starts(codec, &bytes));
                assert_range_contract(comp.as_ref(), &bytes, &windows, &format!("slabbed {what}"));
            }
        }
    }
}

/// Uniform noise in `[0, 1)`, a hash of `seed`.
fn noise(seed: usize) -> f32 {
    let mut h = (seed as u64) ^ 0x9E37_79B9_7F4A_7C15;
    h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h ^= h >> 31;
    h = h.wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^= h >> 29;
    (h >> 40) as f32 / (1u64 << 24) as f32
}

/// 3-D and 4-D fields whose planes along axis 0 mix independent noise
/// (every third plane) with smooth ones that continue the plane before:
/// the per-plane choice flags the noise planes and the smooth planes
/// that follow them, and not the smooth planes that follow smooth ones.
/// Each field is large enough for access-index entries, monolithic and
/// in two slabs. Windows that start before, at and after flagged and
/// unflagged planes, cross them, and cross the slab edge decode as the
/// full decode does.
#[test]
fn range_decode_crosses_flagged_planes_and_slab_edges() {
    for dims in [Dims::d3(40, 32, 64), Dims::d4(20, 4, 32, 32)] {
        let n0 = dims.axis(0);
        let plane = dims.len() / n0;
        let field = Field::from_fn("range/planes", dims, |c| {
            let at = c[1..]
                .iter()
                .zip(dims.shape()[1..].iter())
                .fold(0, |a, (&x, &n)| a * n + x);
            if c[0] % 3 == 0 {
                noise(c[0] * plane + at)
            } else {
                (at as f32 * 0.013).sin() + 0.05 * c[0] as f32
            }
        });
        let cfg = ErrorConfig::Abs(1e-2);
        let mono = Sz.compress(&field, &cfg).expect("compress");
        let slabbed = slab::compress_slabbed(magic::SZ, &field, n0 / 2 * plane, |sub| {
            Sz.compress(sub, &cfg)
        })
        .expect("compress")
        .expect("two slabs");
        let len = dims.len();
        let mut windows = vec![0..1, len - 1..len, 0..len];
        for p in 1..n0 {
            let start = p * plane;
            windows.push(start - 3..start + 5);
            windows.push(start..start + 1);
            windows.push(start + 7..(start + plane + 9).min(len));
            windows.push(start + plane / 2..(start + plane / 2 + 4096).min(len));
        }
        for comp in [&Sz as &dyn Compressor, &SzFse] {
            assert_range_contract(comp, &mono, &windows, &format!("monolithic {dims}"));
            assert_range_contract(comp, &slabbed, &windows, &format!("slabbed {dims}"));
        }
    }
}

/// A field whose first entropy block codes one value (zero planes, every
/// one flagged), so each plane there starts a decode without an index
/// entry, followed by noise planes in a second block, which the index
/// reaches; monolithic and in two slabs, the first of them all zero.
#[test]
fn range_decode_starts_inside_a_one_code_first_block() {
    let dims = Dims::d3(10, 160, 256);
    let plane = dims.len() / 10;
    assert!(7 * plane > BLOCK_SYMBOLS, "block 0 holds zero planes only");
    let field = Field::from_fn("range/zero-led", dims, |c| match c[0] {
        0..7 => 0.0,
        p => noise((p * 160 + c[1]) * 256 + c[2]),
    });
    let cfg = ErrorConfig::Abs(1e-2);
    let mono = Sz.compress(&field, &cfg).expect("compress");
    let slabbed =
        slab::compress_slabbed(magic::SZ, &field, 5 * plane, |sub| Sz.compress(sub, &cfg))
            .expect("compress")
            .expect("two slabs");
    let len = dims.len();
    let mut windows = vec![0..1, len - 1..len, 0..len];
    for p in 1..10 {
        let start = p * plane;
        windows.push(start - 3..start + 5);
        windows.push(start + plane / 2..(start + plane / 2 + 4096).min(len));
    }
    windows.push(BLOCK_SYMBOLS - 2..BLOCK_SYMBOLS + 2);
    assert_range_contract(&Sz, &mono, &windows, "monolithic zero-led");
    assert_range_contract(&Sz, &slabbed, &windows, "slabbed zero-led");
}

fn fixture(name: &str) -> Vec<u8> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read(&path).unwrap_or_else(|e| panic!("fixture {name}: {e}"))
}

/// Monolithic streams with more than one entropy section shape: the
/// legacy single-Huffman section, a two-block FSE-then-Huffman section,
/// and a two-block stream whose window lies in block 0, so decoding
/// steps over block 1 by its length.
#[test]
fn range_decode_equals_full_decode_slice_on_multi_block_and_legacy_streams() {
    let block_windows = |dims: Dims| {
        let mut w = range_windows(dims, &[]);
        w.extend([
            4096..8192,
            BLOCK_SYMBOLS - 1..BLOCK_SYMBOLS + 1,
            BLOCK_SYMBOLS + 5..BLOCK_SYMBOLS + 1029,
        ]);
        w
    };
    let legacy = fixture("sz_nyx12.fxrz");
    let windows = range_windows(Dims::d3(16, 16, 16), &[]);
    let mixed = fixture("sz_mixed_backend.fxrz");
    let mixed_windows = block_windows(Dims::d1(BLOCK_SYMBOLS + (BLOCK_SYMBOLS >> 3)));
    for comp in [&Sz as &dyn Compressor, &SzFse] {
        assert_range_contract(comp, &legacy, &windows, "sz_nyx12.fxrz");
        assert_range_contract(comp, &mixed, &mixed_windows, "sz_mixed_backend.fxrz");
    }

    // Spikes are stored verbatim, so block 0's window must find its
    // unpredictable values past block 1's bytes.
    let dims = Dims::d3(2, 260, 512);
    assert!(dims.len() > BLOCK_SYMBOLS);
    let field = Field::from_fn("range/blocks", dims, |c| {
        if ((c[0] * 260 + c[1]) * 512 + c[2]) % 4099 == 0 {
            return 1e30;
        }
        (c[1] as f32 * 0.05).sin() + (c[2] as f32 * 0.02).cos() + c[0] as f32
    });
    let bytes =
        sz::compress_with_budget(&field, &ErrorConfig::Abs(1e-3), usize::MAX).expect("compress");
    assert!(
        slab::table(&bytes, fxrz_compressors::header::magic::SZ, "sz")
            .expect("header")
            .is_none()
    );
    assert_range_contract(&Sz, &bytes, &block_windows(dims), "two-block monolithic");
}

/// `bytes`, a monolithic `sz` stream, with the first payload bit of its
/// first entropy block (an FSE block) flipped. The decoder reads that
/// bit last, after the block's final symbol, so only the state the
/// block ends at changes.
fn damage_block_0_final_state(bytes: &[u8]) -> Vec<u8> {
    let (name, dims, off) = header::read(bytes, magic::SZ, "sz").expect("header");
    let mut payload = lz77::decompress(&bytes[off..]).expect("payload");
    let mut pos = 8; // past the stored error bound
    let varint = |pos: &mut usize| read_varint(&payload, pos).expect("varint");
    assert_eq!(varint(&mut pos), 0, "a tagged-block entropy section");
    varint(&mut pos); // symbol count
    varint(&mut pos); // block count
    assert_eq!(payload[pos], TAG_FSE, "block 0 is FSE-coded");
    pos += 1;
    varint(&mut pos); // block length
    varint(&mut pos); // FSE: symbol count
    let n_dict = varint(&mut pos);
    varint(&mut pos); // table log
    for _ in 0..2 * n_dict {
        varint(&mut pos); // dictionary gaps, then normalized counts
    }
    payload[pos] ^= 1;
    let mut out = Vec::new();
    header::write(&mut out, magic::SZ, &name, dims);
    out.extend_from_slice(&lz77::compress(&payload));
    out
}

/// A code stream checks a block's final states once a decode finishes
/// the block, and only then: a window inside block 0 decodes as before,
/// while a window that reaches block 1, or block 0's end, and a full
/// decode return a typed error.
#[test]
fn damage_to_block_0s_final_state_fails_only_decodes_that_finish_it() {
    let dims = Dims::d2(300, 1024);
    let field = Field::from_fn("range/damaged", dims, |c| {
        (c[0] as f32 * 0.05).sin() + (c[1] as f32 * 0.02).cos()
    });
    let bytes =
        sz::compress_with_budget(&field, &ErrorConfig::Abs(1e-3), usize::MAX).expect("compress");
    let full = Sz.decompress(&bytes).expect("decompress");
    let bad = damage_block_0_final_state(&bytes);
    for w in [0..100, 4096..8192, 100_000..104_096] {
        let got = Sz
            .decompress_range(&bad, w.clone())
            .expect("a window in block 0");
        assert_eq!(got, full.data()[w.clone()], "{w:?}");
    }
    for w in [
        BLOCK_SYMBOLS - 1..BLOCK_SYMBOLS,
        BLOCK_SYMBOLS - 1..BLOCK_SYMBOLS + 1,
        BLOCK_SYMBOLS + 5..BLOCK_SYMBOLS + 1029,
    ] {
        let got = Sz.decompress_range(&bad, w.clone());
        assert!(
            matches!(got, Err(CompressError::Decode(_))),
            "{w:?}: {got:?}"
        );
    }
    let got = Sz.decompress(&bad);
    assert!(matches!(got, Err(CompressError::Decode(_))), "{got:?}");
}

/// fpzip's decode of one value at `prec` bits: the order-preserving
/// sign-magnitude map, its top `prec` bits, the midpoint of what they
/// leave out, and the map back.
fn fpzip_reference(v: f32, prec: u32) -> f32 {
    let b = v.to_bits();
    let m = if b & 0x8000_0000 != 0 {
        !b
    } else {
        b | 0x8000_0000
    };
    let t = (m >> (32 - prec)) << (32 - prec) | 1 << (31 - prec);
    f32::from_bits(if t & 0x8000_0000 != 0 {
        t & 0x7FFF_FFFF
    } else {
        !t
    })
}

/// At precision 2 fpzip's precision byte equals the slab tag, and its
/// range-coded body starts with 0, which no slab count does. Such a
/// monolithic stream decodes as one on every read path: the codec's
/// full and range decodes, and an archive's.
#[test]
fn fpzip_precision_2_streams_are_not_slab_containers() {
    use fxrz::archive::{Archive, ArchiveWriter};
    use fxrz_compressors::fpzip::Fpzip;
    let field = Field::from_fn("fpzip/low", Dims::d3(5, 6, 7), |c| {
        ((c[0] * 42 + c[1] * 7 + c[2]) as f32 * 0.3).sin() * 50.0
    });
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
    let mut writer = ArchiveWriter::new();
    for prec in [2u32, 3] {
        let bytes = Fpzip
            .compress(&field, &ErrorConfig::Precision(prec))
            .expect("compress");
        let (_, _, off) = header::read(&bytes, magic::FPZIP, "fpzip").expect("header");
        assert_eq!(bytes[off..off + 2], [prec as u8, 0]);
        assert!(slab::table(&bytes, magic::FPZIP, "fpzip")
            .expect("header")
            .is_none());
        let back = Fpzip.decompress(&bytes).expect("decompress");
        let want: Vec<f32> = field
            .data()
            .iter()
            .map(|&v| fpzip_reference(v, prec))
            .collect();
        assert_eq!(bits(back.data()), bits(&want), "precision {prec}");
        let part = Fpzip.decompress_range(&bytes, 20..90).expect("range");
        assert_eq!(bits(&part), bits(&want[20..90]));
        writer.add_raw(&format!("p{prec}"), bytes).expect("add");
    }
    let archive_bytes = writer.finish();
    let archive = Archive::open(&archive_bytes).expect("open");
    for prec in [2u32, 3] {
        let name = format!("p{prec}");
        assert!(archive.entry(&name).expect("entry").slabs.is_empty());
        let back = archive.get(&name).expect("get");
        let want: Vec<f32> = field
            .data()
            .iter()
            .map(|&v| fpzip_reference(v, prec))
            .collect();
        assert_eq!(bits(back.data()), bits(&want), "archive, precision {prec}");
        let part = archive.decompress_range(&name, 20..90).expect("range");
        assert_eq!(bits(&part), bits(&want[20..90]));
    }
}

/// A container of any row whose slab count is forged to 0 (which reads
/// as a monolithic stream) or 1 fails both decodes with a typed error.
#[test]
fn slab_counts_forged_to_0_or_1_are_typed_errors() {
    let field = Field::from_fn("forged", Dims::d2(16, 16), |c| {
        ((c[0] * 16 + c[1]) as f32 * 0.05).sin()
    });
    for codec in CODECS {
        let comp = (codec.make)();
        let cfg = range_config(codec);
        let bytes = slab::compress_slabbed(codec.magic, &field, 64, |sub| comp.compress(sub, &cfg))
            .expect("slab compress")
            .expect("four slabs");
        let (_, _, off) = header::read(&bytes, codec.magic, codec.name).expect("header");
        assert_eq!(bytes[off..off + 2], [slab::SLAB_TAG, 4]);
        for count in [0u8, 1] {
            let mut forged = bytes.clone();
            forged[off + 1] = count;
            let name = codec.name;
            assert!(
                comp.decompress(&forged).is_err(),
                "{name}: count {count} decoded"
            );
            assert!(
                comp.decompress_range(&forged, 0..10).is_err(),
                "{name}: count {count} range-decoded"
            );
        }
    }
}
