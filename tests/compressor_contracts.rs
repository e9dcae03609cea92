//! Property-based contracts every registry compressor must uphold,
//! across random shapes and data distributions. Each property runs over
//! [`DRAWS`] fields from its own seeded generator, so a failure names a
//! draw that reproduces.

use std::ops::Range;
use std::path::PathBuf;

use fxrz::prelude::*;
use fxrz_compressors::entropy::BLOCK_SYMBOLS;
use fxrz_compressors::sz::{self, SzFse};
use fxrz_compressors::{slab, Codec, CODECS};
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

/// Bytes a looser bound may add to an `sz-fse` stream. A looser bound
/// can give a value that was stored verbatim (code 0 plus 4 bytes) a
/// quantization code. If that adds a second distinct code to a block
/// that held one, forced FSE replaces the one-symbol block (`count | 1 |
/// symbol`) with a table: the table log (1 B), the dictionary gap (up to
/// 3 B, since codes lie below 2^16), one norm per symbol (1 B each at
/// table log 5) and the flushed states, marker bit and payload bits
/// (2 × 5 + 1 + 2 bits, so 2 B). That is 8 B more, of which the freed
/// verbatim value pays back 4. `sz_fse_two_element_field_grows_by_its_table`
/// pins one such field.
const SZ_FSE_TABLE_SLACK: usize = 8 - 4;

/// Bytes a looser bound may add to an `sz` stream, the same way: `sz`
/// picks the cheaper coder, so its second code costs a two-symbol
/// Huffman block (9 B) in place of the one-symbol FSE block (3 B), and
/// the freed verbatim value pays back 4.
/// `sz_two_element_field_grows_by_its_huffman_block` pins one such field.
const SZ_HUFFMAN_SLACK: usize = 9 - 3 - 4;

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
            let slack = match comp.name() {
                "sz" => SZ_HUFFMAN_SLACK,
                "sz-fse" => SZ_FSE_TABLE_SLACK,
                _ => 0,
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

/// The field that kept `sz-fse` out of `looser_bounds_never_grow_output`:
/// at the tight bound both values are stored verbatim behind a
/// one-symbol FSE block; at the loose bound they become two distinct
/// codes, and forced FSE pays a two-symbol table where `sz` picks
/// Huffman.
#[test]
fn sz_fse_two_element_field_grows_by_its_table() {
    let field = Field::new("prop", Dims::d1(2), vec![89.185_87, 92.358_56]);
    let range = field.stats().range;
    let size = |comp: &dyn Compressor, rel: f64| {
        comp.compress(&field, &ErrorConfig::Abs(range * rel))
            .expect("compress")
            .len()
    };
    assert_eq!((size(&SzFse, 1e-5), size(&SzFse, 1e-1)), (35, 36));
    assert_eq!((size(&Sz, 1e-5), size(&Sz, 1e-1)), (35, 35));
}

/// The field that grows `sz` by its slack: at the tight bound both
/// values are stored verbatim behind a one-symbol FSE block; at the loose
/// bound the second gets a quantization code, and the two-symbol block
/// `sz` then picks is Huffman's.
#[test]
fn sz_two_element_field_grows_by_its_huffman_block() {
    let field = Field::new("prop", Dims::d1(2), vec![33.312_275, 33.313_316]);
    let range = field.stats().range;
    let size = |rel: f64| {
        Sz.compress(&field, &ErrorConfig::Abs(range * rel))
            .expect("compress")
            .len()
    };
    assert_eq!((size(1e-5), size(1e-1)), (35, 37));
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
            if codec.frame_tag.is_none() {
                continue; // only SZ-family streams have a slab container
            }
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
