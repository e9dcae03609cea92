//! Compressibility Adjustment against its reference: the per-block rule
//! written out block by block, each block's finite values taken in its
//! own raster order. `non_constant_ratio` must give the same `R`, bit for
//! bit, on one thread and on the default pool, and must add the same
//! block counts to the `fxrz.ca.*` counters.
//!
//! The counters are process-global, so every check in this file holds
//! one lock while it measures their deltas.

use fxrz_core::ca::CompressibilityAdjuster;
use fxrz_core::names::{CA_BLOCKS, CA_NON_CONSTANT_BLOCKS};
use fxrz_datagen::suite::{test_fields, train_fields, App, Scale};
use fxrz_datagen::{Dims, Field};
use std::sync::{Mutex, PoisonError};

const LAMBDAS: [f64; 3] = [0.0, 0.15, 1.0];

/// The per-block scan: `(blocks, non-constant blocks)`.
fn reference(ca: &CompressibilityAdjuster, field: &Field) -> (usize, usize) {
    let dims = field.dims();
    let b = ca.block;
    let counts: Vec<usize> = dims.shape().iter().map(|n| n.div_ceil(b)).collect();
    let grid = Dims::new(&counts);
    let mut non_constant = 0;
    for block in 0..grid.len() {
        let corner = grid.coords(block);
        let lens: Vec<usize> = (0..dims.ndim())
            .map(|a| (dims.axis(a) - corner[a] * b).min(b))
            .collect();
        let inner = Dims::new(&lens);
        let (mut min, mut max, mut sum, mut n) = (f32::INFINITY, f32::NEG_INFINITY, 0.0f64, 0);
        for i in 0..inner.len() {
            let at = inner.coords(i);
            let point: Vec<usize> = (0..dims.ndim()).map(|a| corner[a] * b + at[a]).collect();
            let v = field.data()[dims.linear(&point)];
            if v.is_finite() {
                min = min.min(v);
                max = max.max(v);
                sum += v as f64;
                n += 1;
            }
        }
        if n > 0 && max > min && (max - min) as f64 >= ca.lambda * (sum / n as f64).abs() {
            non_constant += 1;
        }
    }
    (grid.len(), non_constant)
}

fn counters() -> [u64; 2] {
    let registry = fxrz_telemetry::global();
    [CA_BLOCKS, CA_NON_CONSTANT_BLOCKS].map(|name| registry.counter(name).get())
}

/// Compares `non_constant_ratio` with the reference, on one thread and
/// on the default pool, counters included. Returns the reference's `R`.
fn check(ca: &CompressibilityAdjuster, field: &Field) -> f64 {
    static COUNTERS: Mutex<()> = Mutex::new(());
    let _serial = COUNTERS.lock().unwrap_or_else(PoisonError::into_inner);
    let (blocks, non_constant) = reference(ca, field);
    let want = non_constant as f64 / blocks as f64;
    let before = counters();
    let one = fxrz_parallel::with_threads(1, || ca.non_constant_ratio(field));
    let pool = ca.non_constant_ratio(field);
    let after = counters();
    let what = format!("{} {} with {ca:?}", field.name(), field.dims());
    assert_eq!(one.to_bits(), want.to_bits(), "{what}: one thread");
    assert_eq!(pool.to_bits(), want.to_bits(), "{what}: default pool");
    assert_eq!(
        [after[0] - before[0], after[1] - before[1]],
        [2 * blocks as u64, 2 * non_constant as u64],
        "{what}: counter deltas"
    );
    want
}

/// SplitMix64: the fields' only source of randomness.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A field of shape `shape`: values around a random level, some points
/// non-finite, and some `b`-aligned blocks replaced by flat, zero-mean or
/// wholly non-finite ones.
fn seeded_field(seed: u64, shape: &[usize], b: usize) -> Field {
    let mut rng = Mix(seed);
    let ndim = shape.len();
    let dims = Dims::new(shape);
    let level = 10f64.powf(rng.unit() * 8.0 - 4.0) * if rng.below(4) == 0 { -1.0 } else { 1.0 };
    let spread = [1e-3, 0.05, 0.1, 0.2, 1.0, 5.0][rng.below(6) as usize];
    let mut data: Vec<f32> = (0..dims.len())
        .map(|_| match rng.below(40) {
            0 => f32::NAN,
            1 => f32::INFINITY,
            2 => f32::NEG_INFINITY,
            _ => (level * (1.0 + spread * (2.0 * rng.unit() - 1.0))) as f32,
        })
        .collect();
    let grid = Dims::new(&shape.iter().map(|n| n.div_ceil(b)).collect::<Vec<_>>());
    for block in 0..grid.len() {
        let fill = rng.below(8);
        if fill >= 4 {
            continue;
        }
        let corner = grid.coords(block);
        let lens: Vec<usize> = (0..ndim)
            .map(|a| (shape[a] - corner[a] * b).min(b))
            .collect();
        let inner = Dims::new(&lens);
        for i in 0..inner.len() {
            let at = inner.coords(i);
            let point: Vec<usize> = (0..ndim).map(|a| corner[a] * b + at[a]).collect();
            data[dims.linear(&point)] = match fill {
                0 => level as f32,
                1 if i % 2 == 0 => level as f32,
                1 => -level as f32,
                2 => f32::NAN,
                _ => [f32::INFINITY, f32::NEG_INFINITY][i % 2],
            };
        }
    }
    Field::new(format!("seeded-{seed}"), dims, data)
}

#[test]
fn seeded_fields_of_one_to_four_axes() {
    for ndim in 1..=4 {
        for b in 1..=5 {
            for &lambda in &LAMBDAS {
                for seed in 0..12 {
                    let seed = (ndim * 1_000 + b * 100) as u64 + seed;
                    let mut rng = Mix(!seed);
                    let shape: Vec<usize> = (0..ndim).map(|_| 1 + rng.below(9) as usize).collect();
                    check(
                        &CompressibilityAdjuster { block: b, lambda },
                        &seeded_field(seed, &shape, b),
                    );
                }
            }
        }
    }
}

/// Rows of more than 256 blocks split into several lines each.
#[test]
fn rows_longer_than_a_line() {
    for shape in [&[2_053][..], &[3, 1_501], &[2, 3, 1_301]] {
        for b in 1..=5 {
            for &lambda in &LAMBDAS {
                let seed = shape.iter().sum::<usize>() as u64 + b as u64;
                check(
                    &CompressibilityAdjuster { block: b, lambda },
                    &seeded_field(seed, shape, b),
                );
            }
        }
    }
}

#[test]
fn flat_zero_mean_and_non_finite_fields() {
    let d = Dims::d3(5, 6, 7);
    let alternating = Field::from_fn("alternating", d, |c| [1.0, -1.0][(c[0] + c[1] + c[2]) % 2]);
    let fields = [
        (Field::new("flat", d, vec![3.5; d.len()]), 0.0),
        (Field::new("zeros", d, vec![0.0; d.len()]), 0.0),
        (Field::new("nan", d, vec![f32::NAN; d.len()]), 0.0),
        (Field::new("inf", d, vec![f32::INFINITY; d.len()]), 0.0),
        // A block of two or more points spans 2, above λ·|mean| ≤ 1.
        (alternating, 1.0),
    ];
    for (field, r) in &fields {
        for b in 1..=5 {
            for &lambda in &LAMBDAS {
                let ca = CompressibilityAdjuster { block: b, lambda };
                let want = if b == 1 { 0.0 } else { *r };
                assert_eq!(check(&ca, field), want, "{} with {ca:?}", field.name());
            }
        }
    }
}

/// One 2×2 block whose verdict turns on the order of its f64 sum. In
/// raster order, 1 + 1 + 2^53 + 1 rounds to 2^53 + 4, so with λ = 4 the
/// threshold 2^53 + 4 exceeds the range 2^53 and the block is constant.
/// Column by column, 1 + 2^53 + 1 + 1 stays at 2^53: non-constant.
#[test]
fn the_sum_is_taken_in_raster_order() {
    let big = 2f32.powi(53);
    let field = Field::new("order", Dims::d2(2, 2), vec![1.0, 1.0, big, 1.0]);
    let ca = CompressibilityAdjuster {
        block: 2,
        lambda: 4.0,
    };
    let column_order = [1.0, big, 1.0, 1.0]
        .iter()
        .fold(0.0f64, |s, &v| s + v as f64);
    assert!((big - 1.0) as f64 >= ca.lambda * column_order / 4.0);
    assert_eq!(check(&ca, &field), 0.0);
}

fn suite(scale: Scale) -> Vec<Field> {
    App::ALL
        .iter()
        .flat_map(|&app| {
            train_fields(app, scale)
                .into_iter()
                .chain(test_fields(app, scale))
        })
        .collect()
}

#[test]
fn every_suite_field_at_tiny_scale() {
    let fields = suite(Scale::Tiny);
    assert!(fields.len() >= 20, "{} suite fields", fields.len());
    for field in &fields {
        for b in 1..=5 {
            for &lambda in &LAMBDAS {
                check(&CompressibilityAdjuster { block: b, lambda }, field);
            }
        }
    }
}

/// Minutes in a debug build: run with `--release -- --ignored`.
#[test]
#[ignore]
fn every_suite_field_at_small_and_medium_scale() {
    let fields: Vec<Field> = [Scale::Small, Scale::Medium]
        .into_iter()
        .flat_map(suite)
        .collect();
    for field in &fields {
        for &lambda in &LAMBDAS {
            check(&CompressibilityAdjuster::with_lambda(lambda), field);
        }
    }
    println!("{} suite fields at Small and Medium scale", fields.len());
}
