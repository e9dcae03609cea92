//! # fxrz-codec — entropy and dictionary coding back ends
//!
//! Shared lossless building blocks for the error-bounded compressors in
//! `fxrz-compressors`:
//!
//! * [`bitstream`] — LSB-first bit I/O plus LEB128 varints and zigzag.
//! * [`fse`] — tabled asymmetric-numeral-system coder (tANS/FSE) with
//!   interleaved dual states (the entropy stage of the SZ-style
//!   pipeline, which codes every block with it).
//! * [`huffman`] — canonical, length-limited Huffman over `u32` alphabets
//!   (the SZ pipeline's entropy stage before FSE; its decoder reads the
//!   streams written then).
//! * [`lz77`] — hash-chain LZ77 (the "Zstd stage" of SZ; collapses the
//!   long repeats behind very high compression ratios).
//! * [`range`] — adaptive binary range coder with bit-tree contexts (the
//!   residual coder of the FPZIP-style pipeline's legacy v1 streams,
//!   which it still decodes).
//! * [`rle`] — zero-run-length pre-pass (the MGARD-style pipeline).
//! * [`scratch`] — reusable per-thread working memory ([`CodecScratch`])
//!   shared by the huffman/lz77 encode hot paths.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bitstream;
pub mod fse;
pub mod huffman;
pub mod lz77;
pub mod names;
pub mod range;
pub mod rle;
pub mod scratch;

pub use scratch::{with_scratch, CodecScratch};

/// Errors surfaced while decoding a compressed stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer ended before the stream was complete.
    Truncated,
    /// The stream violates its own format invariants.
    Corrupt(&'static str),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "compressed stream truncated"),
            CodecError::Corrupt(why) => write!(f, "compressed stream corrupt: {why}"),
        }
    }
}

impl std::error::Error for CodecError {}
