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

/// Slabs written into v2 containers (see [`crate::slab`]).
pub const SLAB_ENCODED: Name = Name::new("archive.slab.encoded");
/// Slabs read back: checksum-verified and decoded. A `decompress_range`
/// touching only its covering slabs advances this by exactly that count.
pub const SLAB_DECODED: Name = Name::new("archive.slab.decoded");
/// Random-access range decodes, of slab containers and monolithic v1
/// streams alike.
pub const SLAB_RANGE_CALLS: Name = Name::new("archive.slab.range_calls");
/// Elements a `decompress_range` rebuilt, summed over the covering slabs
/// (or the one monolithic stream). `sz`/`sz-fse` rebuild each from the
/// last indexed plane at or before the range's start in it (the slab or
/// stream start without one) to the end of the row holding the range's
/// last point in it; the other rows rebuild each whole.
pub const SLAB_RANGE_DECODED_ELEMS: Name = Name::new("archive.slab.range_decoded_elems");
/// Slab or monolithic `sz`/`sz-fse` streams a `decompress_range` started
/// at an access-index entry instead of at the stream start.
pub const SLAB_RANGE_SEEKS: Name = Name::new("archive.slab.range_seeks");

/// Planes along axis 0 the per-plane Lorenzo choice flagged, so they
/// predict without the plane before them, summed over encoded streams.
pub const LORENZO_PLANES_FLAGGED: Name = Name::new("compressor.lorenzo.planes_flagged");
/// Access-index entries written, summed over encoded streams.
pub const LORENZO_INDEX_ENTRIES: Name = Name::new("compressor.lorenzo.index_entries");
