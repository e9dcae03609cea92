//! FPZIP-style predictive lossy compressor with a *precision* control.
//!
//! Follows the FPZIP design (Lindstrom & Isenburg, TVCG 2006):
//!
//! 1. Map each `f32` to a sign-magnitude **monotone integer** (order
//!    preserving), and — this is the lossy step — keep only the top
//!    `precision` bits (2..=32). Reconstruction returns the midpoint of the
//!    truncation interval, so relative error shrinks as `2^-precision`.
//! 2. Predict each truncated integer with the Lorenzo predictor over
//!    causal neighbours.
//! 3. Entropy-code the signed residual with an adaptive binary range
//!    coder: a bit-tree models the residual's magnitude class (bit
//!    length), the remaining payload bits go in nearly raw.
//!
//! Unlike SZ/ZFP/MGARD the control knob is a *discrete integer*, which is
//! exactly why the FXRZ framework treats configuration spaces generically
//! ([`crate::ConfigSpace::Precision`]).

use crate::header::{self, magic};
use crate::{lorenzo, CompressError, Compressor, ConfigSpace, ErrorConfig};
use fxrz_codec::range::{BitModel, BitTree, RangeDecoder, RangeEncoder};
use fxrz_datagen::Field;

/// Minimum accepted precision.
pub const MIN_PRECISION: u32 = 2;
/// Maximum precision (full 32-bit mapping; near-lossless).
pub const MAX_PRECISION: u32 = 32;

/// The FPZIP-style compressor. Stateless; construct via `Fpzip::default()`.
#[derive(Clone, Copy, Debug, Default)]
pub struct Fpzip;

/// Order-preserving map from `f32` bits to `u32`:
/// negative floats map below positive ones, monotonically.
#[inline]
fn f32_to_monotone(v: f32) -> u32 {
    let b = v.to_bits();
    if b & 0x8000_0000 != 0 {
        !b
    } else {
        b | 0x8000_0000
    }
}

/// Inverse of [`f32_to_monotone`].
#[inline]
fn monotone_to_f32(m: u32) -> f32 {
    let b = if m & 0x8000_0000 != 0 {
        m & 0x7FFF_FFFF
    } else {
        !m
    };
    f32::from_bits(b)
}

/// Truncates a monotone integer to `prec` significant bits (fills the
/// dropped bits with the interval midpoint on reconstruction).
#[inline]
fn truncate(m: u32, prec: u32) -> u32 {
    m >> (32 - prec)
}

/// Reconstructs a monotone integer from its truncated form.
#[inline]
fn reconstruct(t: u32, prec: u32) -> u32 {
    let shifted = t << (32 - prec);
    if prec < 32 {
        shifted | (1 << (31 - prec)) // midpoint of the truncation interval
    } else {
        shifted
    }
}

/// Residual codec: magnitude-class bit-tree + direct payload bits + sign.
struct ResidualCoder {
    class_tree: BitTree,
    sign: BitModel,
}

impl ResidualCoder {
    fn new() -> Self {
        Self {
            // classes 0..=33: bit length of |residual| (0 = zero residual)
            class_tree: BitTree::new(6),
            sign: BitModel::new(),
        }
    }

    fn encode(&mut self, enc: &mut RangeEncoder, r: i64) {
        let mag = r.unsigned_abs();
        let class = 64 - mag.leading_zeros(); // 0 for r == 0
        debug_assert!(class < 64);
        self.class_tree.encode(enc, class);
        if class > 0 {
            enc.encode_bit(&mut self.sign, r < 0);
            if class > 1 {
                // top bit of mag is implicit; send the rest raw
                enc.encode_direct(mag & ((1 << (class - 1)) - 1), class - 1);
            }
        }
    }

    fn decode(&mut self, dec: &mut RangeDecoder<'_>) -> i64 {
        let class = self.class_tree.decode(dec);
        if class == 0 {
            return 0;
        }
        let neg = dec.decode_bit(&mut self.sign);
        let mut mag = 1u64 << (class - 1);
        if class > 1 {
            mag |= dec.decode_direct(class - 1);
        }
        if neg {
            -(mag as i64)
        } else {
            mag as i64
        }
    }
}

impl Compressor for Fpzip {
    fn name(&self) -> &'static str {
        "fpzip"
    }

    fn compress(&self, field: &Field, cfg: &ErrorConfig) -> Result<Vec<u8>, CompressError> {
        crate::instrument::compress(self.name(), field.nbytes(), || {
            let prec = match cfg {
                ErrorConfig::Precision(p) if (MIN_PRECISION..=MAX_PRECISION).contains(p) => *p,
                ErrorConfig::Precision(p) => {
                    return Err(CompressError::BadConfig(format!(
                        "fpzip precision must be in {MIN_PRECISION}..={MAX_PRECISION}, got {p}"
                    )))
                }
                other => {
                    return Err(CompressError::BadConfig(format!(
                        "fpzip accepts ErrorConfig::Precision, got {other}"
                    )))
                }
            };

            let dims = field.dims();
            let data = field.data();
            let trunc: Vec<i64> = data
                .iter()
                .map(|&v| truncate(f32_to_monotone(v), prec) as i64)
                .collect();

            // Residual coding lands well under the raw size; a quarter of
            // the input is a comfortable over-estimate that avoids every
            // regrowth of the output buffer on typical fields.
            let mut enc = RangeEncoder::with_capacity(field.nbytes() / 4 + 64);
            let mut coder = ResidualCoder::new();
            lorenzo::walk(dims, |idx, stencil| {
                let pred = stencil.predict_int(&trunc, idx);
                coder.encode(&mut enc, trunc[idx].wrapping_sub(pred));
            });

            let mut out = Vec::new();
            header::write(&mut out, magic::FPZIP, field.name(), dims);
            out.push(prec as u8);
            out.extend_from_slice(&enc.finish());
            Ok(out)
        })
    }

    fn decompress(&self, bytes: &[u8]) -> Result<Field, CompressError> {
        crate::instrument::decompress(self.name(), bytes.len(), || {
            let (name, dims, off) = header::read(bytes, magic::FPZIP, "fpzip")?;
            let rest = &bytes[off..];
            let &prec_byte = rest
                .first()
                .ok_or(CompressError::Header("missing precision"))?;
            let prec = u32::from(prec_byte);
            if !(MIN_PRECISION..=MAX_PRECISION).contains(&prec) {
                return Err(CompressError::Header("stored precision out of range"));
            }
            let mut dec = RangeDecoder::new(&rest[1..]).map_err(CompressError::Decode)?;
            let mut coder = ResidualCoder::new();

            let mut trunc = vec![0i64; dims.len()];
            lorenzo::walk(dims, |idx, stencil| {
                trunc[idx] = stencil
                    .predict_int(&trunc, idx)
                    .wrapping_add(coder.decode(&mut dec));
            });
            let max_t = (1u64 << prec) - 1;
            let data: Vec<f32> = trunc
                .iter()
                .map(|&t| {
                    let t = t.clamp(0, max_t as i64) as u32;
                    monotone_to_f32(reconstruct(t, prec))
                })
                .collect();
            Ok(Field::new(name, dims, data))
        })
    }

    fn config_space(&self) -> ConfigSpace {
        ConfigSpace::Precision { min: 4, max: 28 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fxrz_datagen::grf::{gaussian_random_field, GrfConfig};
    use fxrz_datagen::Dims;

    fn smooth_field() -> Field {
        gaussian_random_field(Dims::d3(16, 16, 16), GrfConfig::default().with_seed(11))
    }

    #[test]
    fn monotone_map_is_monotone() {
        let vals = [
            -1e30f32, -5.0, -1.0, -1e-20, 0.0, 1e-20, 0.5, 1.0, 7.5, 1e30,
        ];
        for w in vals.windows(2) {
            assert!(
                f32_to_monotone(w[0]) < f32_to_monotone(w[1]),
                "{} vs {}",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn monotone_map_roundtrips() {
        for v in [-123.456f32, -0.0, 0.0, 1.0, f32::MIN_POSITIVE, 3.4e38] {
            assert_eq!(monotone_to_f32(f32_to_monotone(v)).to_bits(), v.to_bits());
        }
    }

    #[test]
    fn truncation_error_shrinks_with_precision() {
        let f = smooth_field();
        let fp = Fpzip;
        let err = |p: u32| {
            let buf = fp.compress(&f, &ErrorConfig::Precision(p)).expect("c");
            f.max_abs_diff(&fp.decompress(&buf).expect("d"))
        };
        let e8 = err(8);
        let e16 = err(16);
        let e24 = err(24);
        assert!(e16 < e8, "{e16} !< {e8}");
        assert!(e24 < e16, "{e24} !< {e16}");
    }

    #[test]
    fn ratio_drops_with_precision() {
        let f = smooth_field();
        let fp = Fpzip;
        let r8 = fp.ratio(&f, &ErrorConfig::Precision(8)).expect("r");
        let r24 = fp.ratio(&f, &ErrorConfig::Precision(24)).expect("r");
        assert!(r8 > r24 * 1.5, "{r8} vs {r24}");
    }

    #[test]
    fn near_lossless_at_full_precision() {
        let f = smooth_field();
        let fp = Fpzip;
        let buf = fp.compress(&f, &ErrorConfig::Precision(32)).expect("c");
        let back = fp.decompress(&buf).expect("d");
        assert_eq!(back.data(), f.data(), "precision 32 must be lossless");
    }

    #[test]
    fn works_in_all_dimensionalities() {
        let fp = Fpzip;
        for dims in [
            Dims::d1(300),
            Dims::d2(17, 23),
            Dims::d3(7, 11, 13),
            Dims::d4(3, 5, 7, 9),
        ] {
            let f = Field::from_fn("wave", dims, |c| {
                (c.iter().sum::<usize>() as f32 * 0.2).cos()
            });
            let buf = fp.compress(&f, &ErrorConfig::Precision(16)).expect("c");
            let back = fp.decompress(&buf).expect("d");
            assert_eq!(back.dims(), dims);
            // 16 retained bits cover sign+exponent(8)+7 mantissa bits:
            // relative error ~2^-8
            for (a, b) in f.data().iter().zip(back.data()) {
                assert!((a - b).abs() <= a.abs() * 0.01 + 1e-6, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn rejects_bad_configs() {
        let f = smooth_field();
        let fp = Fpzip;
        assert!(fp.compress(&f, &ErrorConfig::Precision(0)).is_err());
        assert!(fp.compress(&f, &ErrorConfig::Precision(33)).is_err());
        assert!(fp.compress(&f, &ErrorConfig::Abs(1e-3)).is_err());
    }

    #[test]
    fn truncated_stream_never_panics() {
        let f = gaussian_random_field(Dims::d2(8, 8), GrfConfig::default());
        let buf = Fpzip.compress(&f, &ErrorConfig::Precision(12)).expect("c");
        for cut in 0..buf.len() {
            let _ = Fpzip.decompress(&buf[..cut]);
        }
    }

    #[test]
    fn residual_coder_roundtrip() {
        let residuals: Vec<i64> = vec![
            0,
            1,
            -1,
            2,
            -2,
            100,
            -100,
            65535,
            -65536,
            (1 << 31),
            -(1 << 31),
            0,
            0,
            0,
        ];
        let mut enc = RangeEncoder::new();
        let mut c = ResidualCoder::new();
        for &r in &residuals {
            c.encode(&mut enc, r);
        }
        let buf = enc.finish();
        let mut dec = RangeDecoder::new(&buf).expect("init");
        let mut c = ResidualCoder::new();
        for &r in &residuals {
            assert_eq!(c.decode(&mut dec), r);
        }
    }
}
