//! Property tests for the FXRS frame parser and payload codecs.
//!
//! The wire protocol is the daemon's untrusted-input boundary, so its
//! contract is stronger than "round-trips valid frames": **every** byte
//! sequence must produce either a decoded frame or a typed
//! [`FrameError`] — never a panic, never an unbounded allocation. A
//! seeded generator (hand-rolled SplitMix64, no dev-dependencies)
//! drives three adversarial families — truncations, bit flips and
//! oversized length claims — plus pure garbage, each wrapped in
//! `catch_unwind` so a failure reports the exact seed and mutation
//! that caused it.

use std::io::Cursor;
use std::panic::{catch_unwind, AssertUnwindSafe};

use fxrz_datagen::{Dims, Field};
use fxrz_serve::protocol::{
    read_request, read_response, write_request, write_response, FrameError, Op, Reply, Request,
    RequestFrame, ResponseFrame, DEFAULT_MAX_FRAME,
};

/// SplitMix64: tiny, seedable, and good enough to drive mutations.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// A modest cap so adversarial length claims are cheap to construct.
const MAX_FRAME: u32 = 1 << 16;

fn small_field(rng: &mut Rng) -> Field {
    let (z, y, x) = (1 + rng.below(4), 1 + rng.below(4), 1 + rng.below(4));
    let mut seed = rng.next();
    Field::from_fn("prop/field", Dims::d3(z, y, x), move |c| {
        seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(c[0] as u64);
        (seed >> 40) as f32 * 1e-3
    })
}

fn random_bytes(rng: &mut Rng, max: usize) -> Vec<u8> {
    (0..rng.below(max)).map(|_| rng.next() as u8).collect()
}

/// A valid request for a random op: every `Op::ALL` entry is reachable,
/// and the exhaustive match makes a new op a compile error here.
fn arbitrary_request(rng: &mut Rng) -> Request {
    match Op::ALL[rng.below(Op::ALL.len())] {
        Op::Ping => Request::Ping,
        Op::Stats => Request::Stats,
        Op::Features => Request::Features {
            field: small_field(rng),
        },
        Op::Predict => Request::Predict {
            model: format!("m{}", rng.below(100)),
            ratio: 2.0 + rng.below(60) as f64,
            field: small_field(rng),
        },
        Op::Compress => Request::Compress {
            model: format!("m{}@{}", rng.below(100), rng.below(9)),
            ratio: 2.0 + rng.below(60) as f64,
            field: small_field(rng),
        },
        Op::Decompress => Request::Decompress {
            stream: random_bytes(rng, 64),
        },
        Op::DecompressRange => {
            let start = rng.below(4096) as u64;
            Request::DecompressRange {
                start,
                end: start + rng.below(4096) as u64,
                stream: random_bytes(rng, 64),
            }
        }
        Op::LoadModel => Request::LoadModel {
            id: format!("id{}", rng.below(100)),
            version: rng.below(5) as u32,
            json: "{\"k\":1}".to_owned(),
        },
        Op::StreamOpen => Request::StreamOpen {
            target_ratio: 2.0 + rng.below(60) as f64,
            window: rng.below(64) as u32,
            models: (0..rng.below(3))
                .map(|_| format!("m{}@{}", rng.below(100), rng.below(9)))
                .collect(),
        },
        Op::StreamFrame => Request::StreamFrame {
            stream_id: rng.below(16) as u32,
            field: small_field(rng),
        },
        Op::StreamClose => Request::StreamClose {
            stream_id: rng.below(16) as u32,
        },
    }
}

fn encode_request_frame(rng: &mut Rng, req: &Request) -> Vec<u8> {
    let frame = RequestFrame {
        op: req.op(),
        req_id: rng.next(),
        deadline_ms: rng.below(10_000) as u32,
        payload: req.encode(),
    };
    let mut bytes = Vec::new();
    write_request(&mut bytes, &frame).expect("in-memory write");
    bytes
}

/// Parses bytes as a request frame and then decodes the payload —
/// the full path a malicious client can reach. Returns whether a panic
/// escaped, for use inside `catch_unwind` witnesses.
fn full_request_parse(bytes: &[u8]) -> Result<(), FrameError> {
    let mut cursor = Cursor::new(bytes);
    if let Some(frame) = read_request(&mut cursor, MAX_FRAME)? {
        Request::decode(frame.op, &frame.payload)?;
    }
    Ok(())
}

fn full_response_parse(bytes: &[u8]) -> Result<(), FrameError> {
    let mut cursor = Cursor::new(bytes);
    let frame = read_response(&mut cursor, MAX_FRAME)?;
    Reply::decode(Op::from_u8(frame.op).unwrap_or(Op::Ping), &frame.payload)?;
    Ok(())
}

/// Asserts the parser neither panics nor misbehaves on `bytes`; the
/// `what` tag and seed identify the failing case for reproduction.
fn assert_no_panic(
    what: &str,
    seed: u64,
    bytes: &[u8],
    parse: fn(&[u8]) -> Result<(), FrameError>,
) {
    let outcome = catch_unwind(AssertUnwindSafe(|| parse(bytes)));
    assert!(
        outcome.is_ok(),
        "{what} (seed {seed}) panicked on {} bytes: {:02x?}…",
        bytes.len(),
        &bytes[..bytes.len().min(32)]
    );
}

#[test]
fn valid_request_frames_round_trip() {
    let mut rng = Rng(0xfeed_0001);
    for case in 0..200 {
        let req = arbitrary_request(&mut rng);
        let bytes = encode_request_frame(&mut rng, &req);
        let mut cursor = Cursor::new(bytes.as_slice());
        let frame = read_request(&mut cursor, MAX_FRAME)
            .unwrap_or_else(|e| panic!("case {case}: valid frame rejected: {e}"))
            .expect("frame present");
        assert_eq!(frame.op, req.op(), "case {case}");
        let decoded = Request::decode(frame.op, &frame.payload)
            .unwrap_or_else(|e| panic!("case {case}: valid payload rejected: {e}"));
        assert_eq!(decoded.op(), req.op(), "case {case}");
        // Re-encoding the decoded request reproduces the payload bytes.
        assert_eq!(decoded.encode(), req.encode(), "case {case}");
    }
}

#[test]
fn truncated_request_frames_return_typed_errors() {
    let mut rng = Rng(0xfeed_0002);
    for _ in 0..150 {
        let req = arbitrary_request(&mut rng);
        let bytes = encode_request_frame(&mut rng, &req);
        let cut = rng.below(bytes.len());
        let seed = rng.0;
        let truncated = &bytes[..cut];
        assert_no_panic("truncated request", seed, truncated, full_request_parse);
        if cut == 0 {
            // Zero bytes is a clean EOF between frames, not an error.
            let mut cursor = Cursor::new(truncated);
            assert!(matches!(read_request(&mut cursor, MAX_FRAME), Ok(None)));
        } else if cut < bytes.len() {
            assert!(
                full_request_parse(truncated).is_err(),
                "seed {seed}: {cut}/{} bytes parsed as complete",
                bytes.len()
            );
        }
    }
}

#[test]
fn bit_flipped_request_frames_never_panic() {
    let mut rng = Rng(0xfeed_0003);
    for _ in 0..300 {
        let req = arbitrary_request(&mut rng);
        let mut bytes = encode_request_frame(&mut rng, &req);
        for _ in 0..1 + rng.below(3) {
            let bit = rng.below(bytes.len() * 8);
            bytes[bit / 8] ^= 1 << (bit % 8);
        }
        let seed = rng.0;
        assert_no_panic("bit-flipped request", seed, &bytes, full_request_parse);
    }
}

#[test]
fn oversized_length_claims_are_rejected_without_allocating() {
    let mut rng = Rng(0xfeed_0004);
    for _ in 0..100 {
        let req = arbitrary_request(&mut rng);
        let mut bytes = encode_request_frame(&mut rng, &req);
        // Overwrite the length field (header bytes 18..22) with a claim
        // beyond the cap; the body that follows stays short, so any
        // attempt to honour the claim would block or over-allocate.
        let claim = MAX_FRAME + 1 + rng.below(u32::MAX as usize - MAX_FRAME as usize) as u32;
        bytes[18..22].copy_from_slice(&claim.to_le_bytes());
        let mut cursor = Cursor::new(bytes.as_slice());
        match read_request(&mut cursor, MAX_FRAME) {
            Err(FrameError::TooLarge { len, cap }) => {
                assert_eq!(len, claim);
                assert_eq!(cap, MAX_FRAME);
            }
            other => panic!(
                "length claim {claim} not rejected as TooLarge: {:?}",
                other.map(|f| f.map(|f| f.payload.len()))
            ),
        }
    }
}

#[test]
fn garbage_bytes_never_panic_either_parser() {
    let mut rng = Rng(0xfeed_0005);
    for _ in 0..300 {
        let len = rng.below(96);
        let mut bytes: Vec<u8> = (0..len).map(|_| rng.next() as u8).collect();
        // Half the cases get a valid magic so parsing reaches the
        // header fields and payload machinery instead of bailing at
        // byte 0.
        if rng.below(2) == 0 && bytes.len() >= 4 {
            let magic = if rng.below(2) == 0 { b"FXRS" } else { b"fxrs" };
            bytes[..4].copy_from_slice(magic);
        }
        let seed = rng.0;
        assert_no_panic("garbage request", seed, &bytes, full_request_parse);
        assert_no_panic("garbage response", seed, &bytes, full_response_parse);
    }
}

#[test]
fn fuzzed_payload_decode_never_panics_for_any_op() {
    let mut rng = Rng(0xfeed_0006);
    for case in 0..400 {
        let len = rng.below(160);
        let payload: Vec<u8> = (0..len).map(|_| rng.next() as u8).collect();
        let op = Op::ALL[case % Op::ALL.len()];
        let seed = rng.0;
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let _ = Request::decode(op, &payload);
            let _ = Reply::decode(op, &payload);
        }));
        assert!(
            outcome.is_ok(),
            "payload decode (seed {seed}, op {:?}) panicked on {:02x?}…",
            op,
            &payload[..payload.len().min(32)]
        );
    }
}

#[test]
fn valid_response_frames_round_trip() {
    let mut rng = Rng(0xfeed_0007);
    for case in 0..100 {
        // The reply shape each op promises; together they build every
        // `Reply` variant.
        let op = Op::ALL[rng.below(Op::ALL.len())];
        let reply = match op {
            Op::Ping => Reply::Pong,
            Op::Features | Op::Predict | Op::LoadModel | Op::Stats => {
                Reply::Json("{\"ok\":true}".to_owned())
            }
            Op::Compress => Reply::Compress {
                info: "{\"ratio\":30.0}".to_owned(),
                stream: random_bytes(&mut rng, 48),
            },
            Op::Decompress => Reply::Field(small_field(&mut rng)),
            Op::DecompressRange => {
                Reply::Range((0..rng.below(24)).map(|_| rng.next() as f32).collect())
            }
            Op::StreamOpen | Op::StreamFrame | Op::StreamClose => Reply::Stream {
                info: "{\"stream_id\":1}".to_owned(),
                bytes: random_bytes(&mut rng, 32),
            },
        };
        let frame = ResponseFrame::ok(op, rng.next(), reply.encode());
        let mut bytes = Vec::new();
        write_response(&mut bytes, &frame).expect("in-memory write");
        let mut cursor = Cursor::new(bytes.as_slice());
        let parsed = read_response(&mut cursor, DEFAULT_MAX_FRAME)
            .unwrap_or_else(|e| panic!("case {case}: valid response rejected: {e}"));
        assert_eq!(parsed.req_id, frame.req_id, "case {case}");
        let decoded = Reply::decode(op, &parsed.payload)
            .unwrap_or_else(|e| panic!("case {case}: valid reply rejected: {e}"));
        assert_eq!(decoded.encode(), reply.encode(), "case {case}");
    }
}
