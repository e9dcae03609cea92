//! `decompress_range` must decode **only** the slabs covering the
//! requested range — asserted via the `archive.slab.decoded` counter —
//! and of each covering slab (or a monolithic stream) only the rows from
//! the last indexed plane at or before the range's start to the range's
//! end, asserted via `archive.slab.range_decoded_elems` and
//! `archive.slab.range_seeks`.
//!
//! Also: the per-codec `compressor.*` series survive a registry reset.
//!
//! Lives alone in this binary: the telemetry registry is process-global,
//! so counter deltas must not race with unrelated tests, and the tests
//! here take [`SERIAL`] so they do not race with each other.

use std::sync::{Mutex, MutexGuard};

use fxrz_compressors::entropy::BLOCK_SYMBOLS;
use fxrz_compressors::header::magic;
use fxrz_compressors::sz::{self, Sz};
use fxrz_compressors::{instrument, names, slab, Compressor, ErrorConfig, CODECS};
use fxrz_datagen::{Dims, Field};
use fxrz_telemetry::Name;

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn counter(name: Name) -> u64 {
    fxrz_telemetry::global()
        .snapshot()
        .counter(name.as_str())
        .unwrap_or(0)
}

/// A smooth 32×16 field: 32 rows of 16 elements.
fn field() -> Field {
    Field::from_fn("t/cover", Dims::d2(32, 16), |c| {
        ((c[0] * 16 + c[1]) as f32 * 0.02).sin()
    })
}

/// [`field`] as 8 slabs of 64 elements each (budget 64 = 4 planes of 16).
fn slabbed() -> Vec<u8> {
    slab::compress_slabbed(magic::SZ, &field(), 64, |sub| {
        Sz.compress(sub, &ErrorConfig::Abs(1e-3))
    })
    .expect("compress")
    .expect("slabbed")
}

#[test]
fn range_decode_touches_only_covering_slabs() {
    let _serial = serial();
    let bytes = slabbed();
    let rows = slab::table(&bytes, magic::SZ, "sz")
        .expect("table")
        .expect("directory")
        .2;
    assert_eq!(rows.len(), 8);

    // (range, covering slab count) at 64 elements per slab.
    let cases = [
        (0..10, 1),    // inside slab 0
        (64..128, 1),  // exactly slab 1
        (60..70, 2),   // straddles slabs 0..2
        (0..512, 8),   // everything
        (130..450, 6), // slabs 2..8
        (511..512, 1), // last element only
    ];
    for (range, want_slabs) in cases {
        let before = counter(names::SLAB_DECODED);
        let calls_before = counter(names::SLAB_RANGE_CALLS);
        let got = Sz
            .decompress_range(&bytes, range.clone())
            .expect("range decode");
        assert_eq!(got.len(), range.len());
        assert_eq!(
            counter(names::SLAB_DECODED) - before,
            want_slabs,
            "range {range:?} should decode exactly {want_slabs} slab(s)"
        );
        assert_eq!(counter(names::SLAB_RANGE_CALLS) - calls_before, 1);
    }

    // An empty range decodes nothing at all.
    let before = counter(names::SLAB_DECODED);
    assert!(Sz.decompress_range(&bytes, 9..9).expect("empty").is_empty());
    assert_eq!(counter(names::SLAB_DECODED), before);
}

#[test]
fn range_decode_rebuilds_only_the_rows_it_needs() {
    let _serial = serial();
    let rebuilt = |bytes: &[u8], range: std::ops::Range<usize>| {
        let before = counter(names::SLAB_RANGE_DECODED_ELEMS);
        let got = Sz.decompress_range(bytes, range.clone()).expect("range");
        assert_eq!(got.len(), range.len());
        counter(names::SLAB_RANGE_DECODED_ELEMS) - before
    };

    // Slabbed: the covering slabs before the last one whole, then the
    // last one's rows up to the range's end (rows of 16 elements).
    let bytes = slabbed();
    assert_eq!(rebuilt(&bytes, 0..10), 16, "row 0 of slab 0");
    assert_eq!(rebuilt(&bytes, 60..70), 64 + 16, "slab 0, row 0 of slab 1");
    assert_eq!(rebuilt(&bytes, 511..512), 64, "all of slab 7");

    // Monolithic: the rows up to the range's end; a range outside the
    // header's extent fails before anything is rebuilt.
    let mono = Sz
        .compress(&field(), &ErrorConfig::Abs(1e-3))
        .expect("compress");
    assert!(slab::table(&mono, magic::SZ, "sz")
        .expect("header")
        .is_none());
    assert_eq!(rebuilt(&mono, 0..10), 16, "row 0");
    let len = field().dims().len();
    for bad in [0..len + 1, len..usize::MAX] {
        let before = counter(names::SLAB_RANGE_DECODED_ELEMS);
        assert!(Sz.decompress_range(&mono, bad.clone()).is_err(), "{bad:?}");
        assert_eq!(counter(names::SLAB_RANGE_DECODED_ELEMS), before, "{bad:?}");
    }
}

/// Elements per plane and per row of [`noise_planes`].
const PLANE: usize = 32 * 64;
const ROW: usize = 64;

/// Uniform noise in `[0, 1)` at point `(p, i, j)` of a 32×64 plane.
fn noise(p: usize, i: usize, j: usize) -> f32 {
    let mut h = (((p * 32 + i) * 64 + j) as u64) ^ 0x9E37_79B9_7F4A_7C15;
    h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h ^= h >> 31;
    h = h.wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^= h >> 29;
    (h >> 40) as f32 / (1u64 << 24) as f32
}

/// A 24×32×64 field whose planes are independent noise, so the
/// per-plane choice flags every plane after the first, and the access
/// index holds an entry every 8 planes (2^14 elements).
fn noise_planes() -> Field {
    Field::from_fn("t/noise", Dims::d3(24, 32, 64), |c| noise(c[0], c[1], c[2]))
}

/// Elements a range decode rebuilt, and whether it started at an entry.
fn rebuilt(bytes: &[u8], range: std::ops::Range<usize>) -> (u64, u64) {
    let (elems, seeks) = (
        counter(names::SLAB_RANGE_DECODED_ELEMS),
        counter(names::SLAB_RANGE_SEEKS),
    );
    let got = Sz.decompress_range(bytes, range.clone()).expect("range");
    let full = Sz.decompress(bytes).expect("decompress");
    assert_eq!(got, full.data()[range]);
    (
        counter(names::SLAB_RANGE_DECODED_ELEMS) - elems,
        counter(names::SLAB_RANGE_SEEKS) - seeks,
    )
}

#[test]
fn a_range_decode_rebuilds_from_the_last_indexed_plane() {
    let _serial = serial();
    let cfg = ErrorConfig::Abs(1e-2);
    let (plane, row) = (PLANE as u64, ROW as u64);
    let (flagged, entries) = (
        counter(names::LORENZO_PLANES_FLAGGED),
        counter(names::LORENZO_INDEX_ENTRIES),
    );
    let mono = Sz.compress(&noise_planes(), &cfg).expect("compress");
    assert_eq!(counter(names::LORENZO_PLANES_FLAGGED) - flagged, 23);
    assert_eq!(
        counter(names::LORENZO_INDEX_ENTRIES) - entries,
        2,
        "planes 8, 16"
    );
    let at = |p: usize, off: usize| p * PLANE + off;
    assert_eq!(rebuilt(&mono, 0..10), (row, 0), "row 0");
    assert_eq!(
        rebuilt(&mono, at(7, 0)..at(8, 1)),
        (8 * plane + row, 0),
        "a window starting before plane 8 rebuilds from the start"
    );
    assert_eq!(
        rebuilt(&mono, at(9, 5)..at(9, 100)),
        (plane + 2 * row, 1),
        "from plane 8"
    );
    assert_eq!(
        rebuilt(&mono, at(23, 0)..at(24, 0)),
        (8 * plane, 1),
        "from 16"
    );

    // Two slabs of 12 planes, each indexed at its own plane 8.
    let slabbed = slab::compress_slabbed(magic::SZ, &noise_planes(), 12 * PLANE, |sub| {
        Sz.compress(sub, &cfg)
    })
    .expect("compress")
    .expect("slabbed");
    assert_eq!(
        rebuilt(&slabbed, at(21, 1)..at(21, 2)),
        (plane + row, 1),
        "slab 1's plane 9, from its plane 8"
    );
    assert_eq!(
        rebuilt(&slabbed, at(11, 0)..at(13, 0)),
        (4 * plane + plane, 1),
        "slab 0 from its plane 8, slab 1 from its start"
    );

    // Repeated planes: the plane before predicts each one exactly, so
    // none is flagged and a window rebuilds from the stream start.
    let repeat = Field::from_fn("t/repeat", Dims::d3(24, 32, 64), |c| noise(0, c[1], c[2]));
    let (flagged, entries) = (
        counter(names::LORENZO_PLANES_FLAGGED),
        counter(names::LORENZO_INDEX_ENTRIES),
    );
    let bytes = Sz.compress(&repeat, &cfg).expect("compress");
    assert_eq!(counter(names::LORENZO_PLANES_FLAGGED), flagged);
    assert_eq!(counter(names::LORENZO_INDEX_ENTRIES), entries);
    assert_eq!(
        rebuilt(&bytes, at(9, 5)..at(9, 100)),
        (9 * plane + 2 * row, 0),
        "from the start"
    );

    // Zero planes: every plane is flagged (neither stencil misses), and
    // the one entropy block codes one value, so a window starts at its
    // own plane without an index entry.
    let entries = counter(names::LORENZO_INDEX_ENTRIES);
    let zeros = Field::new("t/zeros", Dims::d3(24, 32, 64), vec![0.0; 24 * PLANE]);
    let bytes = Sz.compress(&zeros, &cfg).expect("compress");
    assert_eq!(counter(names::LORENZO_INDEX_ENTRIES), entries);
    assert_eq!(
        rebuilt(&bytes, at(9, 5)..at(9, 100)),
        (2 * row, 1),
        "plane 9"
    );
    assert_eq!(rebuilt(&bytes, 3..5), (row, 0), "plane 0");
}

#[test]
fn a_decode_builds_the_fse_tables_of_the_blocks_it_reaches() {
    let _serial = serial();
    // One stream of two FSE blocks: 2^18 codes, then 45,056.
    let field = Field::from_fn("t/blocks", Dims::d2(300, 1024), |c| {
        (c[0] as f32 * 0.05).sin() + (c[1] as f32 * 0.02).cos()
    });
    let bytes =
        sz::compress_with_budget(&field, &ErrorConfig::Abs(1e-3), usize::MAX).expect("compress");
    assert!(slab::table(&bytes, magic::SZ, "sz")
        .expect("header")
        .is_none());
    let builds = |decode: &dyn Fn(&[u8])| {
        let before = counter(fxrz_codec::names::FSE_TABLE_BUILDS);
        decode(&bytes);
        counter(fxrz_codec::names::FSE_TABLE_BUILDS) - before
    };
    let window = |w: std::ops::Range<usize>| {
        move |b: &[u8]| {
            Sz.decompress_range(b, w.clone()).expect("range");
        }
    };
    assert_eq!(builds(&window(100..200)), 1, "a window in block 0");
    let block_1 = window(BLOCK_SYMBOLS + 100..BLOCK_SYMBOLS + 200);
    assert_eq!(builds(&block_1), 2, "a window in block 1");
    let full = |b: &[u8]| {
        Sz.decompress(b).expect("decompress");
    };
    assert_eq!(builds(&full), 2, "a full decode");
}

/// FSE table builds, and the states they hold, of one range decode.
fn tables(bytes: &[u8], range: std::ops::Range<usize>) -> (u64, u64) {
    let (builds, entries) = (
        counter(fxrz_codec::names::FSE_TABLE_BUILDS),
        counter(fxrz_codec::names::FSE_TABLE_ENTRIES),
    );
    Sz.decompress_range(bytes, range).expect("range");
    (
        counter(fxrz_codec::names::FSE_TABLE_BUILDS) - builds,
        counter(fxrz_codec::names::FSE_TABLE_ENTRIES) - entries,
    )
}

#[test]
fn a_block_of_few_codes_builds_a_small_table() {
    let _serial = serial();
    // Noise of a few bins' width: a few dozen distinct codes. One
    // monolithic stream, its first block a full 2^18 codes, whose length
    // alone asks for log 16: 2^16 states for every block a window
    // reaches. The cost rule takes at most 2^12.
    let dims = Dims::d3(17, 128, 128);
    let field = Field::from_fn("t/few", dims, |c| {
        0.05 * noise(c[0], c[1] % 32, c[2] % 64) + (c[2] as f32 * 0.01).sin()
    });
    let bytes =
        sz::compress_with_budget(&field, &ErrorConfig::Abs(1e-2), usize::MAX).expect("compress");
    assert!(slab::table(&bytes, magic::SZ, "sz")
        .expect("header")
        .is_none());
    let (builds, entries) = tables(&bytes, 100..200);
    assert_eq!(builds, 1, "a window in block 0");
    assert!(entries <= 1 << 12, "{entries} states");
    // A window in block 1 (of 2^14 codes) starts there or in block 0.
    let (builds, entries) = tables(&bytes, BLOCK_SYMBOLS + 100..BLOCK_SYMBOLS + 200);
    assert!((1..=2).contains(&builds), "{builds} builds");
    assert!(entries <= builds << 12, "{entries} states");

    // 4,096 codes ask for log 10 by length, and log 10 is what a block
    // at or below log 11 keeps: 2^10 states, as before the cost rule.
    let small = Field::from_fn("t/small", Dims::d3(4, 32, 32), |c| {
        0.05 * noise(c[0], c[1], c[2])
    });
    let bytes = Sz
        .compress(&small, &ErrorConfig::Abs(1e-2))
        .expect("compress");
    assert_eq!(tables(&bytes, 2_000..2_100), (1, 1 << 10));
}

#[test]
fn per_codec_series_survive_a_registry_reset() {
    // `tablegen --metrics` resets the global registry between
    // experiments: handles resolved before a reset must resolve again,
    // or every later snapshot misses the codec series.
    let _serial = serial();
    let round_trips = || {
        for codec in CODECS {
            let comp = (codec.make)();
            let cfg = comp.config_space().at(0.5, 1.0);
            let bytes = comp.compress(&field(), &cfg).expect("compress");
            comp.decompress(&bytes).expect("decompress");
        }
    };
    round_trips();
    fxrz_telemetry::global().reset();
    round_trips();
    let snapshot = fxrz_telemetry::global().snapshot();
    for codec in CODECS {
        for direction in ["compress", "decompress"] {
            let label = instrument::label(codec.name);
            let calls = format!("compressor.{label}.{direction}.calls");
            assert!(
                snapshot.counter(&calls) >= Some(1),
                "{calls} missing after reset"
            );
        }
    }
}
