//! Telemetry metric name inventory for the stream crate; see
//! `crates/codec/src/names.rs` for the convention.

use fxrz_telemetry::{Name, Template};

/// Frames encoded by [`crate::StreamEncoder`].
pub const FRAMES_ENCODED: Name = Name::new("stream.frames.encoded");
/// Frames decoded by [`crate::StreamDecoder`].
pub const FRAMES_DECODED: Name = Name::new("stream.frames.decoded");
/// Frames that went through the FRaZ-style single-retry fallback.
pub const FRAMES_RETRIED: Name = Name::new("stream.frames.retried");
/// Raw input bytes accepted by the encoder.
pub const BYTES_RAW: Name = Name::new("stream.bytes.raw");
/// Compressed frame-record bytes produced (header + checksum + payload).
pub const BYTES_COMP: Name = Name::new("stream.bytes.comp");
/// Per-codec frame histogram template (`{codec}` is the sanitized codec
/// label, e.g. `sz_fse`).
pub const CODEC_FRAMES: Template = Template::new("stream.codec.{codec}.frames");
/// Controller tracking error after each frame, in basis points:
/// `|cumulative CR − target CR| / target × 10⁴` (HDR histogram).
pub const CONTROLLER_ERR_BP: Name = Name::new("stream.controller.err_bp");
/// Frame-field scratch buffers reused across `push` calls.
pub const SCRATCH_REUSE: Name = Name::new("stream.scratch.reuse");
/// Frame-field scratch buffers freshly allocated.
pub const SCRATCH_CREATE: Name = Name::new("stream.scratch.create");
