//! The correctness gate: every decoded value is checked against the
//! error contract of the configuration that produced it.

use fxrz_compressors::ErrorConfig;
use fxrz_datagen::Field;

/// Fpzip's order-preserving float → integer map (mirrors the codec).
fn monotone(v: f32) -> u32 {
    let b = v.to_bits();
    if b & 0x8000_0000 != 0 {
        !b
    } else {
        b | 0x8000_0000
    }
}

/// Checks `decoded` against `original` under `cfg`'s contract:
/// absolute bounds cap the pointwise error; a precision of `p` bits
/// keeps the top `p` bits of every value's monotone integer, up to the
/// one-step rounding of the interval midpoint.
pub fn values(cfg: &ErrorConfig, original: &[f32], decoded: &[f32]) -> Result<(), String> {
    if original.len() != decoded.len() {
        return Err(format!(
            "decoded {} values, expected {}",
            decoded.len(),
            original.len()
        ));
    }
    match *cfg {
        ErrorConfig::Abs(eb) => {
            for (i, (&a, &b)) in original.iter().zip(decoded).enumerate() {
                let err = (f64::from(a) - f64::from(b)).abs();
                // A NaN error (a non-finite decode) fails too.
                if err.is_nan() || err > eb {
                    return Err(format!("value {i}: error {err:e} exceeds bound {eb:e}"));
                }
            }
        }
        ErrorConfig::Precision(p) => {
            let shift = 32u32.saturating_sub(p.min(32));
            let slack = if shift == 0 { 0 } else { 1u64 << shift };
            for (i, (&a, &b)) in original.iter().zip(decoded).enumerate() {
                let d = u64::from(monotone(a).abs_diff(monotone(b)));
                if d > slack {
                    return Err(format!(
                        "value {i}: {a} decoded as {b}, outside {p}-bit precision"
                    ));
                }
            }
        }
        ErrorConfig::Rate(_) => return Err("fixed-rate configs carry no error contract".into()),
    }
    Ok(())
}

/// Checks a decoded field's identity (name, dims) and values.
pub fn field(cfg: &ErrorConfig, original: &Field, decoded: &Field) -> Result<(), String> {
    if decoded.dims() != original.dims() {
        return Err(format!(
            "{}: decoded dims {:?}, expected {:?}",
            original.name(),
            decoded.dims().shape(),
            original.dims().shape()
        ));
    }
    values(cfg, original.data(), decoded.data()).map_err(|e| format!("{}: {e}", original.name()))
}
