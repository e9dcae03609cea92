//! Property tests for the FXRS frame parser and payload codecs: seeded
//! valid frames of every op round-trip through the reader, and a length
//! claim over the cap is `TooLarge` from the header alone. Hostile input
//! (truncations, bit flips, forged fields, for every op) is
//! `tests/hostile_input.rs`'s job.

use std::io::Cursor;

use fxrz_datagen::{Dims, Field};
use fxrz_serve::protocol::{
    read_request, read_response, write_request, write_response, FrameError, Op, Reply, Request,
    RequestFrame, ResponseFrame, DEFAULT_MAX_FRAME,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A modest cap so adversarial length claims are cheap to construct.
const MAX_FRAME: u32 = 1 << 16;

fn small_field(rng: &mut StdRng) -> Field {
    let (z, y, x) = (
        rng.gen_range(1..5usize),
        rng.gen_range(1..5usize),
        rng.gen_range(1..5usize),
    );
    let mut seed: u64 = rng.gen();
    Field::from_fn("prop/field", Dims::d3(z, y, x), move |c| {
        seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(c[0] as u64);
        (seed >> 40) as f32 * 1e-3
    })
}

fn random_bytes(rng: &mut StdRng, max: usize) -> Vec<u8> {
    (0..rng.gen_range(0..max)).map(|_| rng.gen()).collect()
}

/// A valid request for a random op: every `Op::ALL` entry is reachable,
/// and the exhaustive match makes a new op a compile error here.
fn arbitrary_request(rng: &mut StdRng) -> Request {
    match Op::ALL[rng.gen_range(0..Op::ALL.len())] {
        Op::Ping => Request::Ping,
        Op::Stats => Request::Stats,
        Op::Features => Request::Features {
            field: small_field(rng),
        },
        Op::Predict => Request::Predict {
            model: format!("m{}", rng.gen_range(0..100)),
            ratio: rng.gen_range(2..62) as f64,
            field: small_field(rng),
        },
        Op::Compress => Request::Compress {
            model: format!("m{}@{}", rng.gen_range(0..100), rng.gen_range(0..9)),
            ratio: rng.gen_range(2..62) as f64,
            field: small_field(rng),
        },
        Op::Decompress => Request::Decompress {
            stream: random_bytes(rng, 64),
        },
        Op::DecompressRange => {
            let start = rng.gen_range(0..4096u64);
            Request::DecompressRange {
                start,
                end: start + rng.gen_range(0..4096u64),
                stream: random_bytes(rng, 64),
            }
        }
        Op::LoadModel => Request::LoadModel {
            id: format!("id{}", rng.gen_range(0..100)),
            version: rng.gen_range(0..5u32),
            json: "{\"k\":1}".to_owned(),
        },
        Op::StreamOpen => Request::StreamOpen {
            target_ratio: rng.gen_range(2..62) as f64,
            window: rng.gen_range(0..64u32),
            models: (0..rng.gen_range(0..3))
                .map(|_| format!("m{}@{}", rng.gen_range(0..100), rng.gen_range(0..9)))
                .collect(),
        },
        Op::StreamFrame => Request::StreamFrame {
            stream_id: rng.gen_range(0..16u32),
            field: small_field(rng),
        },
        Op::StreamClose => Request::StreamClose {
            stream_id: rng.gen_range(0..16u32),
        },
    }
}

fn encode_request_frame(rng: &mut StdRng, req: &Request) -> Vec<u8> {
    let frame = RequestFrame {
        op: req.op(),
        req_id: rng.gen(),
        deadline_ms: rng.gen_range(0..10_000u32),
        payload: req.encode(),
    };
    let mut bytes = Vec::new();
    write_request(&mut bytes, &frame).expect("in-memory write");
    bytes
}

#[test]
fn valid_request_frames_round_trip() {
    let mut rng = StdRng::seed_from_u64(0xfeed_0001);
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
fn oversized_length_claims_are_rejected_without_allocating() {
    let mut rng = StdRng::seed_from_u64(0xfeed_0004);
    let req = Request::Features {
        field: small_field(&mut rng),
    };
    let mut bytes = encode_request_frame(&mut rng, &req);
    // Overwrite the length field (header bytes 18..22) with the smallest
    // claim beyond the cap; the body that follows stays short, so any
    // attempt to honour the claim would block or over-allocate.
    let claim = MAX_FRAME + 1;
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

#[test]
fn valid_response_frames_round_trip() {
    let mut rng = StdRng::seed_from_u64(0xfeed_0007);
    for case in 0..100 {
        // The reply shape each op promises; together they build every
        // `Reply` variant.
        let op = Op::ALL[rng.gen_range(0..Op::ALL.len())];
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
                Reply::Range((0..rng.gen_range(0..24)).map(|_| rng.gen()).collect())
            }
            Op::StreamOpen | Op::StreamFrame | Op::StreamClose => Reply::Stream {
                info: "{\"stream_id\":1}".to_owned(),
                bytes: random_bytes(&mut rng, 32),
            },
        };
        let frame = ResponseFrame::ok(op, rng.gen(), reply.encode());
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
