//! The v2 index mirrors the slab directory of every registry row's blob,
//! not just the SZ rows': a range read of a slabbed zfp, fpzip or mgard
//! entry decodes only the slab that covers it, as the `archive.slab.*`
//! counter deltas show. Entries written as monolithic blobs, the only
//! kind these rows wrote before they slabbed, still open and decode.
//!
//! Alone in its binary, as one test: the counters are process-global.

use fxrz_archive::{Archive, ArchiveWriter};
use fxrz_compressors::{by_name, codec_for_magic, names, slab, ErrorConfig};
use fxrz_datagen::{Dims, Field};
use fxrz_telemetry::Name;

/// The rows that wrote only monolithic streams before, with a config.
const ROWS: [(&str, ErrorConfig); 3] = [
    ("zfp", ErrorConfig::Abs(1e-3)),
    ("fpzip", ErrorConfig::Precision(16)),
    ("mgard", ErrorConfig::Abs(1e-3)),
];

fn counter(name: Name) -> u64 {
    fxrz_telemetry::global()
        .snapshot()
        .counter(name.as_str())
        .unwrap_or(0)
}

fn smooth(name: &str, dims: Dims) -> Field {
    let row = dims.shape()[dims.ndim() - 1];
    Field::from_fn(name, dims, move |c| {
        let t = c.iter().fold(0, |acc, &x| acc * row + x) as f32;
        (t * 1e-4).sin() + 0.1 * (t * 3e-3).cos()
    })
}

#[test]
fn every_rows_slabs_are_indexed_and_range_reads_touch_only_their_slab() {
    // 8 × 256 × 256 elements fill two slabs of `SLAB_SYMBOLS`.
    let dims = Dims::d3(8, 256, 256);
    let mut w = ArchiveWriter::new();
    for (name, cfg) in &ROWS {
        let comp = by_name(name).expect("registered");
        w.add_field(comp.as_ref(), &smooth(name, dims), cfg)
            .expect("add");
        let small = smooth(&format!("{name}/mono"), Dims::d3(4, 16, 16));
        w.add_field(comp.as_ref(), &small, cfg).expect("add small");
    }
    let bytes = w.finish();
    let archive = Archive::open(&bytes).expect("open");

    for (name, _) in &ROWS {
        let entry = archive.entry(name).expect("entry");
        let magic = entry.codec;
        assert_eq!(codec_for_magic(magic).expect("known magic").name, *name);
        let blob = archive.raw(name).expect("blob");
        let (_, _, directory) = slab::table(blob, magic, name)
            .expect("directory")
            .expect("a slab container");
        assert_eq!(entry.slabs.len(), 2, "{name}: index rows");
        for (row, dir) in entry.slabs.iter().zip(&directory) {
            assert_eq!(
                (row.offset, row.comp_len, row.raw_elems, row.checksum),
                (dir.offset, dir.comp_len, dir.raw_elems, dir.checksum),
                "{name}: index row differs from the blob's directory"
            );
            assert_eq!(row.codec, magic);
        }

        // A window inside the second slab decodes that slab alone.
        let range = slab::SLAB_SYMBOLS + 1000..slab::SLAB_SYMBOLS + 5096;
        let (slabs, elems) = (
            counter(names::SLAB_DECODED),
            counter(names::SLAB_RANGE_DECODED_ELEMS),
        );
        let part = archive
            .decompress_range(name, range.clone())
            .expect("range read");
        assert_eq!(counter(names::SLAB_DECODED) - slabs, 1, "{name}: slabs");
        assert_eq!(
            counter(names::SLAB_RANGE_DECODED_ELEMS) - elems,
            slab::SLAB_SYMBOLS as u64,
            "{name}: a whole-slab decoder rebuilds exactly its slab"
        );
        let full = archive.get(name).expect("full read");
        assert_eq!(part, full.data()[range]);

        // A monolithic blob indexes no slab and decodes as before.
        let mono = format!("{name}/mono");
        assert!(archive.entry(&mono).expect("entry").slabs.is_empty());
        let back = archive.get(&mono).expect("monolithic read");
        assert_eq!(back.dims(), Dims::d3(4, 16, 16));
        let part = archive.decompress_range(&mono, 10..300).expect("range");
        assert_eq!(part, back.data()[10..300]);
    }
}
