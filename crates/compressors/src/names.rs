//! Telemetry name inventory for the compressors crate.
//!
//! Every per-codec series is a `{name}`/`{direction}` placeholder
//! template: `format!` requires a literal format string, so the
//! instrumented call sites in `instrument.rs` keep inline literals which
//! the `telemetry_names` lint verifies are byte-identical to the
//! template consts here. `{name}` is the codec (`sz`, `zfp`, …);
//! `{direction}` is `compress` or `decompress`.

/// Bytes entering the codec.
pub const PER_CODEC_BYTES_IN: &str = "compressor.{name}.{direction}.bytes_in";
/// Bytes leaving the codec.
pub const PER_CODEC_BYTES_OUT: &str = "compressor.{name}.{direction}.bytes_out";
/// Codec invocations.
pub const PER_CODEC_CALLS: &str = "compressor.{name}.{direction}.calls";
/// Codec wall-time histogram, nanoseconds.
pub const PER_CODEC_NS: &str = "compressor.{name}.{direction}.ns";
/// Codec throughput, bytes per second.
pub const PER_CODEC_THROUGHPUT_BPS: &str = "compressor.{name}.{direction}.throughput_bps";
/// Codec failures.
pub const PER_CODEC_ERRORS: &str = "compressor.{name}.{direction}.errors";

/// Entropy-selection blocks the bit-cost model gave to Huffman.
pub const ENTROPY_BLOCKS_HUFFMAN: &str = "compressor.entropy.blocks.huffman";
/// Entropy-selection blocks the bit-cost model gave to FSE.
pub const ENTROPY_BLOCKS_FSE: &str = "compressor.entropy.blocks.fse";

/// Slabs written into v2 containers (see [`crate::slab`]).
pub const SLAB_ENCODED: &str = "archive.slab.encoded";
/// Slabs read back: checksum-verified and decoded. A `decompress_range`
/// touching only its covering slabs advances this by exactly that count.
pub const SLAB_DECODED: &str = "archive.slab.decoded";
/// Random-access range decodes, of slab containers and monolithic v1
/// streams alike.
pub const SLAB_RANGE_CALLS: &str = "archive.slab.range_calls";
/// Elements a `decompress_range` rebuilt: the covering slabs before the
/// last whole, plus the prefix of the last covering slab or of a
/// monolithic stream (whole rows for `sz`/`sz-fse`, the whole stream for
/// `sz2`/`szi`).
pub const SLAB_RANGE_DECODED_ELEMS: &str = "archive.slab.range_decoded_elems";
