//! # fxrz-compressors — error-bounded lossy compressors
//!
//! Pure-Rust reimplementations of the four compressor families the FXRZ
//! paper evaluates, plus three beyond-the-paper SZ-family rows. Each
//! follows the published algorithmic skeleton of its namesake (they are
//! *not* bit-compatible with the C libraries):
//!
//! * [`sz`] — prediction-based: Lorenzo predictor, linear-scaling
//!   quantization, per-block Huffman/FSE entropy coding (see
//!   [`entropy`]), LZ77 dictionary stage. It is the one SZ-family
//!   pipeline: `sz-fse` ([`sz::SzFse`]) pins its entropy stage to FSE,
//!   while [`sz2`] (SZ 2.x Lorenzo/regression hybrid) and [`szinterp`]
//!   (SZ3-style cubic interpolation) supply only their prediction walks.
//! * [`zfp`] — transform-based: 4^d block lifting transform, negabinary
//!   bit-plane coding; fixed-accuracy **and** fixed-rate modes.
//! * [`fpzip`] — predictive coding of the monotone integer mapping of
//!   floats under a *precision* (bit-count) control, via an adaptive range
//!   coder.
//! * [`mgard`] — multilevel (multigrid) decomposition with per-level
//!   quantization and an RLE + Huffman + LZ77 back end.
//!
//! All seven registry rows implement [`Compressor`], take an
//! [`ErrorConfig`], emit self-describing buffers, and guarantee their
//! respective error controls (property-tested in each module).
//! [`CODECS`] names each row once — name, stream magic, stream frame tag
//! and constructor — and [`by_name`], [`detect`], the stream frame
//! directory and the archive's slab index all look rows up there.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod entropy;
pub mod fpzip;
pub mod header;
pub mod instrument;
mod lorenzo;
pub mod mgard;
pub mod names;
pub mod slab;
pub mod sz;
pub mod sz2;
pub mod szinterp;
pub mod zfp;

use fxrz_datagen::Field;
use header::magic;
use serde::{Deserialize, Serialize};

/// Error-control knob accepted by a compressor.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum ErrorConfig {
    /// Absolute pointwise error bound (SZ, ZFP fixed-accuracy, MGARD).
    Abs(f64),
    /// Retained significand precision in bits (FPZIP), 2..=32.
    Precision(u32),
    /// Fixed rate in bits per value (ZFP fixed-rate mode only).
    Rate(f64),
}

impl ErrorConfig {
    /// The scalar coordinate used by FXRZ's regression models:
    /// `ln(eb)` for absolute bounds, the precision itself for FPZIP, and
    /// bits-per-value for fixed rate.
    pub fn coordinate(&self) -> f64 {
        match self {
            ErrorConfig::Abs(eb) => eb.max(f64::MIN_POSITIVE).ln(),
            ErrorConfig::Precision(p) => f64::from(*p),
            ErrorConfig::Rate(r) => *r,
        }
    }
}

impl std::fmt::Display for ErrorConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ErrorConfig::Abs(eb) => write!(f, "abs={eb:.3e}"),
            ErrorConfig::Precision(p) => write!(f, "prec={p}"),
            ErrorConfig::Rate(r) => write!(f, "rate={r:.2}"),
        }
    }
}

/// The space of valid error configurations for one compressor, as searched
/// by FRaZ and regressed over by FXRZ.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum ConfigSpace {
    /// Absolute error bounds relative to the field's value range:
    /// valid bounds are `range × [min_rel, max_rel]`, log-uniform.
    AbsRelRange {
        /// Smallest relative bound (tightest quality).
        min_rel: f64,
        /// Largest relative bound (loosest quality).
        max_rel: f64,
    },
    /// Integer precisions `min..=max` (larger = higher quality).
    Precision {
        /// Lowest precision (loosest quality).
        min: u32,
        /// Highest precision (tightest quality).
        max: u32,
    },
}

impl ConfigSpace {
    /// Materializes a config from a normalized knob `t ∈ [0, 1]`
    /// (0 = tightest quality, 1 = loosest / most compressed), given the
    /// field's value range.
    pub fn at(&self, t: f64, value_range: f64) -> ErrorConfig {
        let t = t.clamp(0.0, 1.0);
        match *self {
            ConfigSpace::AbsRelRange { min_rel, max_rel } => {
                let ln_min = (value_range.max(f64::MIN_POSITIVE) * min_rel).ln();
                let ln_max = (value_range.max(f64::MIN_POSITIVE) * max_rel).ln();
                ErrorConfig::Abs((ln_min + t * (ln_max - ln_min)).exp())
            }
            ConfigSpace::Precision { min, max } => {
                // t = 1 → loosest → lowest precision
                let p = max as f64 - t * (max - min) as f64;
                ErrorConfig::Precision(p.round() as u32)
            }
        }
    }

    /// Converts a model-space coordinate back into a concrete config,
    /// clamped into the valid space.
    pub fn from_coordinate(&self, x: f64, value_range: f64) -> ErrorConfig {
        match *self {
            ConfigSpace::AbsRelRange { min_rel, max_rel } => {
                let lo = value_range.max(f64::MIN_POSITIVE) * min_rel;
                let hi = value_range.max(f64::MIN_POSITIVE) * max_rel;
                ErrorConfig::Abs(x.exp().clamp(lo, hi))
            }
            ConfigSpace::Precision { min, max } => {
                ErrorConfig::Precision((x.round() as i64).clamp(min as i64, max as i64) as u32)
            }
        }
    }
}

/// Errors produced by compression / decompression.
#[derive(Debug)]
pub enum CompressError {
    /// The supplied [`ErrorConfig`] variant or value is not valid for this
    /// compressor.
    BadConfig(String),
    /// The compressed buffer is malformed.
    Decode(fxrz_codec::CodecError),
    /// The compressed buffer belongs to a different compressor.
    WrongCompressor {
        /// Compressor that tried to decode.
        expected: &'static str,
        /// Magic tag actually found.
        found: u8,
    },
    /// Malformed header.
    Header(&'static str),
}

impl std::fmt::Display for CompressError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompressError::BadConfig(m) => write!(f, "invalid error configuration: {m}"),
            CompressError::Decode(e) => write!(f, "decode failed: {e}"),
            CompressError::WrongCompressor { expected, found } => {
                write!(f, "buffer is not a {expected} stream (magic {found:#x})")
            }
            CompressError::Header(m) => write!(f, "malformed header: {m}"),
        }
    }
}

impl std::error::Error for CompressError {}

impl From<fxrz_codec::CodecError> for CompressError {
    fn from(e: fxrz_codec::CodecError) -> Self {
        CompressError::Decode(e)
    }
}

/// An error-controlled lossy compressor.
pub trait Compressor: Send + Sync {
    /// Short identifier, the row's [`Codec::name`] (`"sz"`, `"sz-fse"`,
    /// `"sz2"`, `"szi"`, `"zfp"`, `"fpzip"`, `"mgard"`).
    fn name(&self) -> &'static str;

    /// Compresses `field` under `cfg`. The output is self-describing.
    fn compress(&self, field: &Field, cfg: &ErrorConfig) -> Result<Vec<u8>, CompressError>;

    /// Reconstructs the field from a buffer produced by [`Self::compress`].
    fn decompress(&self, bytes: &[u8]) -> Result<Field, CompressError>;

    /// Reconstructs only the elements in `range` (row-major indices).
    ///
    /// The default decodes the whole field and slices — correct for any
    /// stream. Compressors whose wire format is seekable (the SZ-family
    /// slab container, [`slab`]) override this to decode only the slabs
    /// covering the range.
    fn decompress_range(
        &self,
        bytes: &[u8],
        range: std::ops::Range<usize>,
    ) -> Result<Vec<f32>, CompressError> {
        let field = self.decompress(bytes)?;
        field
            .data()
            .get(range)
            .map(<[f32]>::to_vec)
            .ok_or(CompressError::Header("range exceeds field extent"))
    }

    /// The valid configuration space for this compressor.
    fn config_space(&self) -> ConfigSpace;

    /// Compresses and reports the compression ratio
    /// (`uncompressed bytes / compressed bytes`).
    fn ratio(&self, field: &Field, cfg: &ErrorConfig) -> Result<f64, CompressError> {
        let out = self.compress(field, cfg)?;
        Ok(field.nbytes() as f64 / out.len() as f64)
    }
}

/// One registry row.
#[derive(Clone, Copy, Debug)]
pub struct Codec {
    /// Registry name, as [`Compressor::name`] reports it.
    pub name: &'static str,
    /// Header magic of the row's streams (see [`header::magic`]).
    pub magic: u8,
    /// Codec tag of the row's `FXRZS1` stream frames: `Some` exactly for
    /// the SZ-family rows, which run the [`sz`] pipeline and write its
    /// [`slab`] container.
    pub frame_tag: Option<u8>,
    /// Builds the compressor.
    pub make: fn() -> Box<dyn Compressor>,
}

impl Codec {
    const fn new(
        name: &'static str,
        magic: u8,
        frame_tag: Option<u8>,
        make: fn() -> Box<dyn Compressor>,
    ) -> Self {
        Self {
            name,
            magic,
            frame_tag,
            make,
        }
    }
}

/// Every registry codec, once. The paper's four come first (see
/// [`all_compressors`]); [`detect`] takes the first row with a stream's
/// magic, so `sz` precedes `sz-fse`, which shares its magic.
pub const CODECS: &[Codec] = &[
    Codec::new("sz", magic::SZ, Some(magic::SZ), || Box::new(sz::Sz)),
    Codec::new("zfp", magic::ZFP, None, || Box::new(zfp::Zfp::default())),
    Codec::new("fpzip", magic::FPZIP, None, || Box::new(fpzip::Fpzip)),
    Codec::new("mgard", magic::MGARD, None, || Box::new(mgard::Mgard)),
    // The fifth, beyond-the-paper compressor (SZ3-style interpolation),
    // kept out of `all_compressors` so the paper's four-compressor
    // tables stay faithful; the `fifth_compressor` experiment uses it.
    Codec::new("szi", magic::SZI, Some(magic::SZI), || {
        Box::new(szinterp::SzInterp)
    }),
    // SZ 2.x hybrid predictor (Lorenzo + per-block regression)
    Codec::new("sz2", magic::SZ2, Some(magic::SZ2), || Box::new(sz2::Sz2)),
    // SZ pipeline with the entropy stage pinned to tANS/FSE — the extra
    // codec row for the feature→error-bound regression. Its streams are
    // SZ streams, so its frames need a tag of their own to record which
    // row produced them.
    Codec::new("sz-fse", magic::SZ, Some(0xAE), || Box::new(sz::SzFse)),
];

/// Whether `rows` keep every magic and frame tag unambiguous: no two
/// frame tags are equal, a frame tag equals a magic only within one
/// stream family, and rows share a magic only when both carry distinct
/// frame tags (as `sz` and `sz-fse` do).
const fn tags_distinct(rows: &[Codec]) -> bool {
    let mut i = 0;
    while i < rows.len() {
        let a = &rows[i];
        let mut j = i + 1;
        while j < rows.len() {
            let b = &rows[j];
            let family = a.magic == b.magic;
            let clash = match (a.frame_tag, b.frame_tag) {
                (Some(x), Some(y)) => x == y || (!family && (x == b.magic || y == a.magic)),
                (Some(x), None) => x == b.magic || family,
                (None, Some(y)) => y == a.magic || family,
                (None, None) => family,
            };
            if clash {
                return false;
            }
            j += 1;
        }
        i += 1;
    }
    true
}

/// Whether `tag` is neither a magic nor a frame tag of any row — a
/// container tag byte ([`slab::SLAB_TAG`], the stream trailer tag) must
/// be, or container sniffing could not tell them apart.
pub const fn tag_is_free(tag: u8) -> bool {
    let mut i = 0;
    while i < CODECS.len() {
        let row = &CODECS[i];
        if row.magic == tag || matches!(row.frame_tag, Some(t) if t == tag) {
            return false;
        }
        i += 1;
    }
    true
}

// A colliding magic or tag fails every build.
const _: () = assert!(tags_distinct(CODECS), "codec magics and frame tags collide");
const _: () = assert!(
    tag_is_free(slab::SLAB_TAG),
    "SLAB_TAG collides with a codec tag"
);

/// The paper's four compressors, boxed, for table-driven evaluation loops.
pub fn all_compressors() -> Vec<Box<dyn Compressor>> {
    CODECS[..4].iter().map(|c| (c.make)()).collect()
}

/// Looks a compressor up by its [`Compressor::name`].
pub fn by_name(name: &str) -> Option<Box<dyn Compressor>> {
    CODECS.iter().find(|c| c.name == name).map(|c| (c.make)())
}

/// The row that owns stream magic `magic`: the first one carrying it.
pub fn codec_for_magic(magic: u8) -> Option<&'static Codec> {
    CODECS.iter().find(|c| c.magic == magic)
}

/// Identifies the compressor that produced `bytes` from its stream magic.
pub fn detect(bytes: &[u8]) -> Option<Box<dyn Compressor>> {
    codec_for_magic(*bytes.first()?).map(|c| (c.make)())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coordinate_roundtrips_through_space() {
        let space = ConfigSpace::AbsRelRange {
            min_rel: 1e-6,
            max_rel: 1e-1,
        };
        let cfg = space.at(0.5, 100.0);
        let back = space.from_coordinate(cfg.coordinate(), 100.0);
        if let (ErrorConfig::Abs(a), ErrorConfig::Abs(b)) = (cfg, back) {
            assert!((a - b).abs() < 1e-12 * a);
        } else {
            panic!("wrong variants");
        }
    }

    #[test]
    fn precision_space_clamps() {
        let space = ConfigSpace::Precision { min: 4, max: 28 };
        assert_eq!(space.from_coordinate(99.0, 1.0), ErrorConfig::Precision(28));
        assert_eq!(space.from_coordinate(-5.0, 1.0), ErrorConfig::Precision(4));
        assert_eq!(space.at(0.0, 1.0), ErrorConfig::Precision(28));
        assert_eq!(space.at(1.0, 1.0), ErrorConfig::Precision(4));
    }

    #[test]
    fn abs_space_is_log_uniform() {
        let space = ConfigSpace::AbsRelRange {
            min_rel: 1e-4,
            max_rel: 1e-0,
        };
        let lo = space.at(0.0, 10.0);
        let mid = space.at(0.5, 10.0);
        let hi = space.at(1.0, 10.0);
        match (lo, mid, hi) {
            (ErrorConfig::Abs(a), ErrorConfig::Abs(m), ErrorConfig::Abs(b)) => {
                assert!((a - 1e-3).abs() < 1e-12);
                assert!((b - 10.0).abs() < 1e-9);
                assert!((m - (a * b).sqrt()).abs() < 1e-9);
            }
            _ => panic!("wrong variants"),
        }
    }

    #[test]
    fn registry_by_name() {
        for row in CODECS {
            let c = by_name(row.name).expect("registered");
            assert_eq!(c.name(), row.name);
            assert_eq!((row.make)().name(), row.name);
            assert_eq!(CODECS.iter().filter(|r| r.name == row.name).count(), 1);
        }
        assert!(by_name("nope").is_none());
    }

    #[test]
    fn colliding_tags_are_rejected() {
        let (sz, zfp, fse) = (CODECS[0], CODECS[1], CODECS[6]);
        let fse_tagged = |tag| Codec {
            frame_tag: Some(tag),
            ..fse
        };
        assert!(tags_distinct(&[sz, zfp, fse]));
        // sz-fse framed under SZ's own tag, or under another family's
        // magic, would make frame directories ambiguous.
        assert!(!tags_distinct(&[sz, fse_tagged(magic::SZ)]));
        assert!(!tags_distinct(&[zfp, fse_tagged(magic::ZFP)]));
        // Two unframed rows cannot share a magic.
        assert!(!tags_distinct(&[zfp, Codec { name: "x", ..zfp }]));
    }

    #[test]
    fn detect_identifies_streams() {
        use fxrz_datagen::Dims;
        let f = Field::from_fn("x", Dims::d2(8, 8), |c| (c[0] + c[1]) as f32);
        for c in all_compressors() {
            let cfg = match c.name() {
                "fpzip" => ErrorConfig::Precision(12),
                _ => ErrorConfig::Abs(1e-3),
            };
            let bytes = c.compress(&f, &cfg).expect("compress");
            let detected = detect(&bytes).expect("detected");
            assert_eq!(detected.name(), c.name());
        }
        assert!(detect(&[0x00]).is_none());
        assert!(detect(&[]).is_none());
    }
}
