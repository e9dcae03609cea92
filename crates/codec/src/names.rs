//! Telemetry metric name inventory for the codec crate.
//!
//! The single source of truth for this crate's series. The telemetry
//! API takes only a [`Name`], and `Name::new` runs in a `const`, so a
//! malformed name, a misspelled const or a bare string literal fails the
//! build: a typo'd series cannot silently split a dashboard.

use fxrz_telemetry::Name;

/// Range-coder encode invocations.
pub const RANGE_ENCODE_CALLS: Name = Name::new("codec.range.encode.calls");
/// Bytes produced by the range-coder encoder.
pub const RANGE_ENCODE_BYTES_OUT: Name = Name::new("codec.range.encode.bytes_out");
/// Range-coder decode invocations.
pub const RANGE_DECODE_CALLS: Name = Name::new("codec.range.decode.calls");
/// Bytes consumed by the range-coder decoder.
pub const RANGE_DECODE_BYTES_IN: Name = Name::new("codec.range.decode.bytes_in");

/// Huffman code-table constructions (both table-driven paths).
pub const HUFFMAN_TABLE_BUILDS: Name = Name::new("codec.huffman.table_builds");
/// Huffman encode invocations.
pub const HUFFMAN_ENCODE_CALLS: Name = Name::new("codec.huffman.encode.calls");
/// Symbols fed to the Huffman encoder.
pub const HUFFMAN_ENCODE_SYMBOLS_IN: Name = Name::new("codec.huffman.encode.symbols_in");
/// Bytes produced by the Huffman encoder.
pub const HUFFMAN_ENCODE_BYTES_OUT: Name = Name::new("codec.huffman.encode.bytes_out");
/// Huffman decode invocations.
pub const HUFFMAN_DECODE_CALLS: Name = Name::new("codec.huffman.decode.calls");
/// Bytes consumed by the Huffman decoder.
pub const HUFFMAN_DECODE_BYTES_IN: Name = Name::new("codec.huffman.decode.bytes_in");
/// Symbols recovered by the Huffman decoder.
pub const HUFFMAN_DECODE_SYMBOLS_OUT: Name = Name::new("codec.huffman.decode.symbols_out");
/// Huffman decode failures (corrupt streams).
pub const HUFFMAN_DECODE_ERRORS: Name = Name::new("codec.huffman.decode.errors");

/// FSE state-table constructions (encode and decode sides).
pub const FSE_TABLE_BUILDS: Name = Name::new("codec.fse.table_builds");
/// FSE encode invocations.
pub const FSE_ENCODE_CALLS: Name = Name::new("codec.fse.encode.calls");
/// Symbols fed to the FSE encoder.
pub const FSE_ENCODE_SYMBOLS_IN: Name = Name::new("codec.fse.encode.symbols_in");
/// Bytes produced by the FSE encoder.
pub const FSE_ENCODE_BYTES_OUT: Name = Name::new("codec.fse.encode.bytes_out");
/// FSE decode invocations.
pub const FSE_DECODE_CALLS: Name = Name::new("codec.fse.decode.calls");
/// Bytes consumed by the FSE decoder.
pub const FSE_DECODE_BYTES_IN: Name = Name::new("codec.fse.decode.bytes_in");
/// Symbols recovered by the FSE decoder.
pub const FSE_DECODE_SYMBOLS_OUT: Name = Name::new("codec.fse.decode.symbols_out");
/// FSE decode failures (corrupt streams).
pub const FSE_DECODE_ERRORS: Name = Name::new("codec.fse.decode.errors");

/// Scratch-buffer pool misses (fresh allocation).
pub const SCRATCH_CREATE: Name = Name::new("codec.scratch.create");
/// Scratch-buffer pool hits (reused allocation).
pub const SCRATCH_REUSE: Name = Name::new("codec.scratch.reuse");

/// RLE encode invocations.
pub const RLE_ENCODE_CALLS: Name = Name::new("codec.rle.encode.calls");
/// Symbols fed to the RLE encoder.
pub const RLE_ENCODE_SYMBOLS_IN: Name = Name::new("codec.rle.encode.symbols_in");
/// Bytes produced by the RLE encoder.
pub const RLE_ENCODE_BYTES_OUT: Name = Name::new("codec.rle.encode.bytes_out");
/// RLE decode invocations.
pub const RLE_DECODE_CALLS: Name = Name::new("codec.rle.decode.calls");
/// Bytes consumed by the RLE decoder.
pub const RLE_DECODE_BYTES_IN: Name = Name::new("codec.rle.decode.bytes_in");
/// Symbols recovered by the RLE decoder.
pub const RLE_DECODE_SYMBOLS_OUT: Name = Name::new("codec.rle.decode.symbols_out");
/// RLE decode failures (corrupt streams).
pub const RLE_DECODE_ERRORS: Name = Name::new("codec.rle.decode.errors");

/// LZ77 compress invocations.
pub const LZ77_COMPRESS_CALLS: Name = Name::new("codec.lz77.compress.calls");
/// Bytes fed to the LZ77 compressor.
pub const LZ77_COMPRESS_BYTES_IN: Name = Name::new("codec.lz77.compress.bytes_in");
/// Bytes produced by the LZ77 compressor.
pub const LZ77_COMPRESS_BYTES_OUT: Name = Name::new("codec.lz77.compress.bytes_out");
/// LZ77 decompress invocations.
pub const LZ77_DECOMPRESS_CALLS: Name = Name::new("codec.lz77.decompress.calls");
/// Bytes consumed by the LZ77 decompressor.
pub const LZ77_DECOMPRESS_BYTES_IN: Name = Name::new("codec.lz77.decompress.bytes_in");
/// Bytes recovered by the LZ77 decompressor.
pub const LZ77_DECOMPRESS_BYTES_OUT: Name = Name::new("codec.lz77.decompress.bytes_out");
/// LZ77 decompress failures (corrupt streams).
pub const LZ77_DECOMPRESS_ERRORS: Name = Name::new("codec.lz77.decompress.errors");
