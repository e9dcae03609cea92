//! Seeded property suite for the `FXRZS1` frame container and the
//! streaming encoder/decoder: roundtrips across signal shapes, typed
//! errors for forged header fields, thread-count-independent decode,
//! and controller convergence on a drifting signal. Hostile input
//! (truncations, bit flips, forged fields) is `tests/hostile_input.rs`'s
//! job.

use fxrz_codec::bitstream::varint_len;
use fxrz_stream::{frame, StreamConfig, StreamDecoder, StreamEncoder, StreamError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Uniform noise in `[-0.5, 0.5)`.
fn noise(rng: &mut StdRng) -> f32 {
    rng.gen::<f32>() - 0.5
}

/// Frame generators for the four signal shapes.
fn shape_frame(shape: &str, frame_idx: usize, len: usize, rng: &mut StdRng) -> Vec<f32> {
    (0..len)
        .map(|i| {
            let t = (frame_idx * len + i) as f32;
            match shape {
                "constant" => 3.25,
                "trended" => t * 0.001 + (t * 0.01).sin(),
                "noisy" => noise(rng) * 4.0,
                "special" => {
                    if i % 37 == 5 {
                        f32::NAN
                    } else if i % 53 == 7 {
                        if i % 2 == 0 {
                            f32::INFINITY
                        } else {
                            f32::NEG_INFINITY
                        }
                    } else {
                        t * 0.002 + (t * 0.02).cos()
                    }
                }
                _ => unreachable!("unknown shape"),
            }
        })
        .collect()
}

fn encode(frames: &[Vec<f32>], target: f64) -> Vec<u8> {
    let mut enc = StreamEncoder::new(StreamConfig::new(target)).expect("encoder");
    let mut stream = enc.header();
    for chunk in frames {
        let outcome = enc.push(chunk).expect("push");
        stream.extend_from_slice(&outcome.bytes);
    }
    stream.extend_from_slice(&enc.finish());
    stream
}

#[test]
fn roundtrip_across_signal_shapes() {
    for shape in ["constant", "trended", "noisy", "special"] {
        let mut rng = StdRng::seed_from_u64(7);
        let frames: Vec<Vec<f32>> = (0..6)
            .map(|f| shape_frame(shape, f, 512, &mut rng))
            .collect();
        let stream = encode(&frames, 8.0);
        let out = StreamDecoder::decode(&stream).unwrap_or_else(|e| panic!("{shape}: {e}"));
        let raw: Vec<f32> = frames.iter().flatten().copied().collect();
        assert_eq!(out.samples.len(), raw.len(), "{shape}: length");
        let mut offset = 0usize;
        for view in &out.frames {
            for (a, b) in raw[offset..offset + view.samples]
                .iter()
                .zip(&out.samples[offset..offset + view.samples])
            {
                if a.is_finite() {
                    assert!(
                        (a - b).abs() as f64 <= view.eb * 1.0001,
                        "{shape}: |{a} - {b}| > eb {}",
                        view.eb
                    );
                } else {
                    // Non-finite samples ride the literal path: bit-exact.
                    assert_eq!(a.to_bits(), b.to_bits(), "{shape}: specials differ");
                }
            }
            offset += view.samples;
        }
    }
}

#[test]
fn forged_headers_yield_typed_errors() {
    let mut rng = StdRng::seed_from_u64(17);
    let frames: Vec<Vec<f32>> = (0..2)
        .map(|f| shape_frame("trended", f, 64, &mut rng))
        .collect();
    let good = encode(&frames, 6.0);

    // Wrong magic.
    let mut forged = good.clone();
    forged[0] ^= 0xFF;
    assert!(matches!(
        StreamDecoder::inspect(&forged),
        Err(StreamError::Header(_))
    ));

    // Non-finite target ratio.
    let mut forged = good.clone();
    forged[6..14].copy_from_slice(&f64::NAN.to_le_bytes());
    assert!(matches!(
        StreamDecoder::inspect(&forged),
        Err(StreamError::Header(_))
    ));

    // A frame tag nothing maps to.
    let scan = StreamDecoder::inspect(&good).expect("scan");
    let tag_offset = scan.frames[0].payload_offset
        - 4 // checksum
        - varint_len(scan.frames[0].payload_len as u64) as usize
        - 8 // eb
        - varint_len(scan.frames[0].samples as u64) as usize
        - 1; // tag
    let mut forged = good.clone();
    forged[tag_offset] = 0x77;
    assert!(matches!(
        StreamDecoder::inspect(&forged),
        Err(StreamError::Frame { index: 0, .. })
    ));

    // Sample count far beyond the cap: splice a 5-byte varint encoding
    // 1 + (127 << 28) > MAX_FRAME_SAMPLES right after the tag.
    let mut forged = good.clone();
    forged.truncate(tag_offset + 1);
    forged.extend_from_slice(&[0x81, 0x80, 0x80, 0x80, 0x7F]);
    forged.extend_from_slice(&[0u8; 32]);
    assert!(
        frame::MAX_FRAME_SAMPLES as u64 + 1 < 1 + (127u64 << 28),
        "splice must exceed the cap"
    );
    let outcome = std::panic::catch_unwind(move || StreamDecoder::inspect(&forged).is_err());
    assert!(outcome.expect("forged sample count must not panic"));

    // Corrupt trailer checksum: the trailer must be rejected.
    let mut forged = good.clone();
    let last = forged.len() - 1;
    forged[last] ^= 0xFF;
    assert!(StreamDecoder::inspect(&forged).is_err());
}

#[test]
fn codec_scratch_is_reused_across_the_encode_loop() {
    // The per-frame encode loop runs on one thread, so the codec's
    // thread-local `CodecScratch` must serve every compression after
    // the first from a warm buffer. Counters are global and other tests
    // may bump them concurrently, so assert a lower bound only.
    let telemetry = fxrz_telemetry::global();
    let before = telemetry
        .snapshot()
        .counter(fxrz_codec::names::SCRATCH_REUSE)
        .unwrap_or(0);
    let mut rng = StdRng::seed_from_u64(41);
    let mut enc = StreamEncoder::new(StreamConfig::new(8.0)).expect("encoder");
    for f in 0..6 {
        let chunk = shape_frame("noisy", f, 256, &mut rng);
        enc.push(&chunk).expect("push");
    }
    let after = telemetry
        .snapshot()
        .counter(fxrz_codec::names::SCRATCH_REUSE)
        .unwrap_or(0);
    assert!(
        after - before >= 5,
        "codec scratch reuse moved only {} across 6 frames",
        after - before
    );
}

#[test]
fn decode_is_bit_identical_across_thread_counts() {
    let mut rng = StdRng::seed_from_u64(23);
    let frames: Vec<Vec<f32>> = (0..24)
        .map(|f| {
            shape_frame(
                if f % 3 == 0 { "noisy" } else { "trended" },
                f,
                256,
                &mut rng,
            )
        })
        .collect();
    let stream = encode(&frames, 8.0);
    let reference: Vec<u32> =
        fxrz_parallel::with_threads(1, || StreamDecoder::decode(&stream).expect("decode@1"))
            .samples
            .iter()
            .map(|v| v.to_bits())
            .collect();
    for threads in [2usize, 4, 8] {
        let out: Vec<u32> = fxrz_parallel::with_threads(threads, || {
            StreamDecoder::decode(&stream).unwrap_or_else(|e| panic!("decode@{threads}: {e}"))
        })
        .samples
        .iter()
        .map(|v| v.to_bits())
        .collect();
        assert_eq!(
            reference, out,
            "{threads}-thread decode differs from 1-thread"
        );
    }
}

#[test]
fn controller_converges_on_drifting_signal() {
    // Amplitude and noise both drift over 96 frames; the cumulative
    // achieved ratio must land within 10% of the global target and the
    // selector must have used at least two codec rows.
    let mut rng = StdRng::seed_from_u64(31);
    let target = 12.0;
    let frames = 96usize;
    let mut enc = StreamEncoder::new(StreamConfig::new(target)).expect("encoder");
    for f in 0..frames {
        let drift = f as f32 / frames as f32;
        let chunk: Vec<f32> = (0..1024)
            .map(|i| {
                let t = (f * 1024 + i) as f32 * 0.0007;
                (1.0 + 3.0 * drift) * t.sin() + drift * 0.8 * noise(&mut rng)
            })
            .collect();
        enc.push(&chunk).expect("push");
    }
    let cum = enc.cumulative_ratio();
    assert!(
        (cum - target).abs() / target < 0.10,
        "cumulative ratio {cum} misses target {target} by more than 10%"
    );
    let used: Vec<_> = enc
        .summary()
        .codecs
        .into_iter()
        .filter(|(_, n)| *n > 0)
        .collect();
    assert!(used.len() >= 2, "only one codec selected: {used:?}");
}
