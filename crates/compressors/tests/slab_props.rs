//! Seeded property suite for the slab container.
//!
//! 1. **Roundtrip** across every slab count 1..=64: a slabbed stream
//!    decodes within the error bound, and the directory reports exactly
//!    the planned slab count.
//! 2. **Directory pins**: forged slab counts are typed header errors.
//! 3. **Determinism**: every registry row's encode, decode and range
//!    decode are bit-identical at any thread count, and
//!    `decompress_range` equals full-decode slicing for seeded random
//!    ranges.
//!
//! Hostile input (truncations, bit flips, forged directory fields) is
//! `tests/hostile_input.rs`'s job.

use fxrz_compressors::header::magic;
use fxrz_compressors::sz::Sz;
use fxrz_compressors::{slab, CompressError, Compressor, ErrorConfig, CODECS};
use fxrz_datagen::{Dims, Field};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const EB: ErrorConfig = ErrorConfig::Abs(1e-3);

/// A smooth seeded field of `planes` leading-axis planes of 16 elements.
fn sample_field(planes: usize, seed: u64) -> Field {
    Field::from_fn("prop/slab", Dims::d2(planes, 16), move |c| {
        let t = (c[0] * 16 + c[1]) as f32 + seed as f32;
        (t * 0.013).sin() + 0.25 * (t * 0.11).cos()
    })
}

/// Compresses with a tiny slab budget (4 planes per slab) so the suite
/// exercises many slab counts without multi-megabyte fields. Returns
/// `None` when [`slab::plan`] declines (fewer than two full slabs).
fn compress_small_slabs(field: &Field, budget: usize) -> Option<Vec<u8>> {
    slab::compress_slabbed(magic::SZ, field, budget, |sub| Sz.compress(sub, &EB))
        .expect("slab compress")
}

#[test]
fn roundtrip_across_slab_counts_1_to_64() {
    const BUDGET: usize = 64; // 4 planes of 16 elements per slab
    for k in 1..=64usize {
        let field = sample_field(4 * k, 31 * k as u64);
        let bytes = match compress_small_slabs(&field, BUDGET) {
            Some(b) => b,
            None => {
                assert_eq!(k, 1, "plan may only decline below two slabs");
                Sz.compress(&field, &EB).expect("mono compress")
            }
        };
        let entries = slab::table(&bytes, magic::SZ, "sz").expect("table");
        match entries {
            Some((name, dims, rows)) => {
                assert_eq!(rows.len(), k, "directory row count");
                assert_eq!(name, field.name());
                assert_eq!(dims, field.dims());
                assert_eq!(
                    rows.iter().map(|r| r.raw_elems).sum::<usize>(),
                    field.dims().len()
                );
            }
            None => assert_eq!(k, 1, "streams with >=2 slabs must carry a directory"),
        }
        let back = Sz.decompress(&bytes).expect("decompress");
        assert_eq!(back.dims(), field.dims());
        let worst = field
            .data()
            .iter()
            .zip(back.data())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        assert!(worst <= 1e-3 + 1e-6, "slab count {k}: error {worst}");
    }
}

#[test]
fn implausible_slab_counts_are_header_errors() {
    let field = sample_field(16, 5);
    let bytes = compress_small_slabs(&field, 64).expect("slabbed");
    let (_, _, off) = fxrz_compressors::header::read(&bytes, magic::SZ, "sz").expect("header");
    assert_eq!(bytes[off], slab::SLAB_TAG, "slab tag after common header");
    let with_count = |n: u8| {
        let mut forged = bytes.clone();
        forged[off + 1] = n;
        Sz.decompress(&forged)
    };
    // A container holds at least two slabs, and no more than the
    // leading axis has planes.
    assert!(matches!(
        with_count(1),
        Err(CompressError::Header("implausible slab count"))
    ));
    assert!(matches!(
        with_count(0x7F),
        Err(CompressError::Header("implausible slab count"))
    ));
}

#[test]
fn decode_is_bit_identical_at_any_thread_count() {
    let field = sample_field(64, 1234);
    for codec in CODECS {
        let comp = (codec.make)();
        let cfg = match codec.name {
            "fpzip" => ErrorConfig::Precision(16),
            _ => EB,
        };
        let run = |threads| {
            fxrz_parallel::with_threads(threads, || {
                let b =
                    slab::compress_slabbed(codec.magic, &field, 64, |sub| comp.compress(sub, &cfg))
                        .expect("slab compress")
                        .expect("slabbed");
                let d = comp.decompress(&b).expect("decode");
                let r = comp.decompress_range(&b, 100..900).expect("range");
                (b, d, r)
            })
        };
        let (b1, d1, r1) = run(1);
        for threads in [2, 4, 8] {
            let (bn, dn, rn) = run(threads);
            let name = codec.name;
            assert_eq!(
                b1, bn,
                "{name}: compressed bytes differ at {threads} threads"
            );
            assert_eq!(
                d1.data(),
                dn.data(),
                "{name}: decode differs at {threads} threads"
            );
            assert_eq!(r1, rn, "{name}: range decode differs at {threads} threads");
        }
    }
}

#[test]
fn range_decode_equals_full_decode_slicing() {
    let field = sample_field(48, 42);
    let bytes = compress_small_slabs(&field, 64).expect("slabbed");
    let full = Sz.decompress(&bytes).expect("decode");
    let total = field.dims().len();
    let mut rng = StdRng::seed_from_u64(0xf0c2_0002);
    for _ in 0..200 {
        let lo = rng.gen_range(0..=total);
        let hi = rng.gen_range(lo..=total);
        let got = Sz.decompress_range(&bytes, lo..hi).expect("range");
        assert_eq!(&got, &full.data()[lo..hi], "range {lo}..{hi}");
    }
    // Out-of-extent and inverted ranges are typed errors.
    assert!(Sz.decompress_range(&bytes, 0..total + 1).is_err());
    assert!(Sz.decompress_range(&bytes, total + 5..total + 9).is_err());
}
