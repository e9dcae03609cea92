//! Integration: the `DecompressRange` op end to end.
//!
//! A slabbed stream served over TCP must return exactly the same bytes a
//! full decode + slice produces, for ranges that cross slab boundaries,
//! and the server must count the requests under `serve.slab.*`. A served
//! range of a slabbed zfp stream decodes only the slab covering it.
//!
//! The tests take [`SERIAL`]: the `archive.slab.*` counters they read are
//! process-global, and the daemon runs in this process.

use std::sync::{Mutex, MutexGuard};

use fxrz::compressors::{names, slab};
use fxrz::prelude::*;
use fxrz_datagen::grf::{gaussian_random_field, GrfConfig};

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn counter(name: fxrz::telemetry::Name) -> u64 {
    fxrz::telemetry::global()
        .snapshot()
        .counter(name.as_str())
        .unwrap_or(0)
}

#[test]
fn served_range_decode_matches_full_decode() {
    let _serial = serial();
    // 8 × 256 × 256 = 524288 elements = 2 entropy blocks → a 2-slab stream.
    let field = gaussian_random_field(Dims::d3(8, 256, 256), GrfConfig::default().with_seed(777));
    let stream = Sz
        .compress(&field, &ErrorConfig::Abs(1e-3))
        .expect("compress");
    let full = Sz.decompress(&stream).expect("decompress");

    let server = Server::new(ServerConfig::default());
    let handle = server.serve_tcp("127.0.0.1:0").expect("bind tcp");
    let addr = handle.local_addr().expect("addr").to_string();
    let mut client = Client::connect_tcp(&addr).expect("connect");

    // Within the first slab, crossing the boundary, and within the second.
    for (start, end) in [(0u64, 100), (262_000, 262_500), (400_000, 524_288)] {
        let got = client
            .decompress_range(&stream, start, end)
            .expect("range decode");
        let want = &full.data()[start as usize..end as usize];
        assert_eq!(got, want, "range {start}..{end} differs from full decode");
    }

    // Degenerate and invalid ranges answer without killing the connection.
    assert!(client
        .decompress_range(&stream, 5, 5)
        .expect("empty")
        .is_empty());
    assert!(client.decompress_range(&stream, 0, u64::MAX).is_err());
    client.ping().expect("connection survives an error reply");

    let stats = client.stats().expect("stats");
    assert!(
        stats.contains("\"serve.slab.range_requests\""),
        "stats missing range telemetry: {stats}"
    );

    let report = handle.shutdown();
    assert!(report.drained, "server failed to drain: {report:?}");
}

#[test]
fn served_zfp_range_decodes_only_its_slab() {
    let _serial = serial();
    // Two slabs of `SLAB_SYMBOLS` elements.
    let field = gaussian_random_field(Dims::d3(8, 256, 256), GrfConfig::default().with_seed(778));
    let zfp = Zfp::default();
    let stream = zfp
        .compress(&field, &ErrorConfig::Abs(1e-3))
        .expect("compress");
    let full = zfp.decompress(&stream).expect("decompress");
    // A monolithic fpzip stream at precision 2, whose precision byte is
    // the slab tag.
    let small = gaussian_random_field(Dims::d3(4, 16, 16), GrfConfig::default().with_seed(779));
    let low = Fpzip
        .compress(&small, &ErrorConfig::Precision(2))
        .expect("compress");
    let low_full = Fpzip.decompress(&low).expect("decompress");

    let server = Server::new(ServerConfig::default());
    let handle = server.serve_tcp("127.0.0.1:0").expect("bind tcp");
    let addr = handle.local_addr().expect("addr").to_string();
    let mut client = Client::connect_tcp(&addr).expect("connect");

    let first = slab::SLAB_SYMBOLS as u64;
    for (start, end, slabs) in [
        (100u64, 4196, 1),
        (first + 10, first + 4106, 1),
        (first - 5, first + 5, 2),
    ] {
        let before = counter(names::SLAB_DECODED);
        let got = client
            .decompress_range(&stream, start, end)
            .expect("range decode");
        assert_eq!(got, full.data()[start as usize..end as usize]);
        assert_eq!(
            counter(names::SLAB_DECODED) - before,
            slabs,
            "range {start}..{end}"
        );
    }
    let got = client.decompress_range(&low, 30, 900).expect("precision 2");
    assert_eq!(got, low_full.data()[30..900]);

    let report = handle.shutdown();
    assert!(report.drained, "server failed to drain: {report:?}");
}
