//! Telemetry name inventory for the compressors crate.
//!
//! Every per-codec series is a `{name}`/`{direction}` [`Template`],
//! filled once per codec row and direction by `instrument.rs`. `{name}`
//! is the codec's metric label (`sz`, `sz_fse`, …); `{direction}` is
//! `compress` or `decompress`.

use fxrz_telemetry::{Name, Template};

/// Bytes entering the codec.
pub const PER_CODEC_BYTES_IN: Template = Template::new("compressor.{name}.{direction}.bytes_in");
/// Bytes leaving the codec.
pub const PER_CODEC_BYTES_OUT: Template = Template::new("compressor.{name}.{direction}.bytes_out");
/// Codec invocations.
pub const PER_CODEC_CALLS: Template = Template::new("compressor.{name}.{direction}.calls");
/// Codec wall-time histogram, nanoseconds.
pub const PER_CODEC_NS: Template = Template::new("compressor.{name}.{direction}.ns");
/// Codec throughput, bytes per second.
pub const PER_CODEC_THROUGHPUT_BPS: Template =
    Template::new("compressor.{name}.{direction}.throughput_bps");
/// Codec failures.
pub const PER_CODEC_ERRORS: Template = Template::new("compressor.{name}.{direction}.errors");

/// Entropy-selection blocks the bit-cost model gave to Huffman.
pub const ENTROPY_BLOCKS_HUFFMAN: Name = Name::new("compressor.entropy.blocks.huffman");
/// Entropy-selection blocks the bit-cost model gave to FSE.
pub const ENTROPY_BLOCKS_FSE: Name = Name::new("compressor.entropy.blocks.fse");

/// Slabs written into v2 containers (see [`crate::slab`]).
pub const SLAB_ENCODED: Name = Name::new("archive.slab.encoded");
/// Slabs read back: checksum-verified and decoded. A `decompress_range`
/// touching only its covering slabs advances this by exactly that count.
pub const SLAB_DECODED: Name = Name::new("archive.slab.decoded");
/// Random-access range decodes, of slab containers and monolithic v1
/// streams alike.
pub const SLAB_RANGE_CALLS: Name = Name::new("archive.slab.range_calls");
/// Elements a `decompress_range` rebuilt: the covering slabs before the
/// last whole, plus the prefix of the last covering slab or of a
/// monolithic stream (whole rows for `sz`/`sz-fse`, the whole stream for
/// `sz2`/`szi`).
pub const SLAB_RANGE_DECODED_ELEMS: Name = Name::new("archive.slab.range_decoded_elems");
