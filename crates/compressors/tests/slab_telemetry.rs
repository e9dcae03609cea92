//! `decompress_range` must decode **only** the slabs covering the
//! requested range — asserted via the `archive.slab.decoded` counter —
//! and of the last covering slab (or a monolithic stream) only the rows
//! up to the range's end, asserted via `archive.slab.range_decoded_elems`.
//!
//! Also: the per-codec `compressor.*` series survive a registry reset.
//!
//! Lives alone in this binary: the telemetry registry is process-global,
//! so counter deltas must not race with unrelated tests, and the tests
//! here take [`SERIAL`] so they do not race with each other.

use std::sync::{Mutex, MutexGuard};

use fxrz_compressors::header::magic;
use fxrz_compressors::sz::Sz;
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
