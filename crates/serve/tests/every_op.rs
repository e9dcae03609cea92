//! Every op over a live socket: one daemon, one `Client::call` per
//! `Op::ALL` entry, each reply checked against the shape its op
//! promises.
//!
//! Requests come from an exhaustive `match` over `Op`, so a new op does
//! not compile here until this test sends it, and a decode arm that
//! builds the wrong `Request` shows up as the wrong reply. `LoadModel`
//! is exercised both ways: a valid model that a following `Predict`
//! uses, and malformed JSON refused as `ModelRejected`.

use fxrz_compressors::sz::Sz;
use fxrz_compressors::{Compressor, ErrorConfig};
use fxrz_core::sampling::StridedSampler;
use fxrz_core::train::{Trainer, TrainerConfig};
use fxrz_datagen::grf::{gaussian_random_field, GrfConfig};
use fxrz_datagen::{Dims, Field};
use fxrz_ml::ModelKind;
use fxrz_serve::protocol::ErrorCode;
use fxrz_serve::{Client, ClientError, Op, Reply, Request, Server, ServerConfig};
use serde_json::Value;

/// `fxrz train` JSON of a small SZ model.
fn model_json() -> String {
    let fields: Vec<Field> = (0..2)
        .map(|i| gaussian_random_field(Dims::d3(8, 8, 8), GrfConfig::default().with_seed(40 + i)))
        .collect();
    let trainer = Trainer {
        config: TrainerConfig {
            model: ModelKind::Svr,
            stationary_points: 6,
            augment_per_field: 10,
            sampler: StridedSampler::new(2),
            ..TrainerConfig::default()
        },
    };
    let model = trainer.train(&Sz, &fields).expect("train");
    serde_json::to_string(&model).expect("model json")
}

fn json(text: &str) -> Value {
    serde_json::parse_value(text).unwrap_or_else(|e| panic!("reply is not JSON ({e}): {text}"))
}

fn field_of<'a>(doc: &'a Value, key: &str) -> &'a Value {
    doc.get(key)
        .unwrap_or_else(|| panic!("reply lacks `{key}`: {doc:?}"))
}

#[test]
fn every_op_round_trips_over_a_live_socket() {
    let server = Server::new(ServerConfig::default());
    let model = model_json();
    server
        .registry()
        .load_json("m", 1, &model)
        .expect("preload m@1");
    let handle = server.serve_tcp("127.0.0.1:0").expect("bind tcp");
    let addr = handle.local_addr().expect("addr").to_string();
    let mut client = Client::connect_tcp(&addr).expect("connect");

    let field = gaussian_random_field(Dims::d3(8, 8, 8), GrfConfig::default().with_seed(7));
    let stream = Sz
        .compress(&field, &ErrorConfig::Abs(1e-3))
        .expect("compress");
    let decoded = Sz.decompress(&stream).expect("decompress");
    let frame = Field::from_fn("stream/frame", Dims::d1(512), |c| {
        (c[0] as f32 * 0.01).sin()
    });
    let mut stream_id = u32::MAX;

    for op in Op::ALL {
        let request = match op {
            Op::Ping => Request::Ping,
            Op::Features => Request::Features {
                field: field.clone(),
            },
            Op::Predict => Request::Predict {
                model: "m".into(),
                ratio: 10.0,
                field: field.clone(),
            },
            Op::Compress => Request::Compress {
                model: "m".into(),
                ratio: 10.0,
                field: field.clone(),
            },
            Op::Decompress => Request::Decompress {
                stream: stream.clone(),
            },
            Op::LoadModel => Request::LoadModel {
                id: "m".into(),
                version: 0,
                json: model.clone(),
            },
            Op::Stats => Request::Stats,
            Op::DecompressRange => Request::DecompressRange {
                start: 3,
                end: 40,
                stream: stream.clone(),
            },
            Op::StreamOpen => Request::StreamOpen {
                target_ratio: 10.0,
                window: 16,
                models: Vec::new(),
            },
            Op::StreamFrame => Request::StreamFrame {
                stream_id,
                field: frame.clone(),
            },
            Op::StreamClose => Request::StreamClose { stream_id },
        };
        assert_eq!(request.op(), op, "the request built for {op:?}");
        let reply = client
            .call(&request)
            .unwrap_or_else(|e| panic!("{}: {e}", op.name()));
        match (op, reply) {
            (Op::Ping, Reply::Pong) => {}
            (Op::Features, Reply::Json(doc)) => {
                let doc = json(&doc);
                assert!(field_of(&doc, "mld").as_f64().is_some(), "{doc:?}");
                assert!(doc.get("acr").is_none(), "features ran the model: {doc:?}");
            }
            (Op::Predict, Reply::Json(doc)) => {
                let doc = json(&doc);
                assert_eq!(field_of(&doc, "model").as_str(), Some("m@1"));
                assert!(field_of(&doc, "acr").as_f64().is_some(), "{doc:?}");
            }
            (Op::Compress, Reply::Compress { info, stream }) => {
                let info = json(&info);
                assert_eq!(field_of(&info, "model").as_str(), Some("m@1"));
                assert!(field_of(&info, "measured_ratio").as_f64().is_some());
                let back = Sz.decompress(&stream).expect("served stream decodes");
                assert_eq!(back.dims(), field.dims());
            }
            (Op::Decompress, Reply::Field(back)) => {
                assert_eq!(back.dims(), decoded.dims());
                assert_eq!(back.data(), decoded.data());
            }
            (Op::LoadModel, Reply::Json(doc)) => {
                let doc = json(&doc);
                assert_eq!(field_of(&doc, "id").as_str(), Some("m"));
                assert_eq!(field_of(&doc, "version").as_u64(), Some(2));
            }
            (Op::Stats, Reply::Json(doc)) => {
                assert!(field_of(&json(&doc), "ops").as_array().is_some());
            }
            (Op::DecompressRange, Reply::Range(values)) => {
                assert_eq!(values, decoded.data()[3..40]);
            }
            (Op::StreamOpen, Reply::Stream { info, bytes }) => {
                let id = field_of(&json(&info), "stream_id").as_u64();
                stream_id = u32::try_from(id.expect("stream_id")).expect("u32 id");
                assert!(!bytes.is_empty(), "open carries the stream header");
            }
            (Op::StreamFrame, Reply::Stream { info, bytes }) => {
                let info = json(&info);
                assert_eq!(
                    field_of(&info, "stream_id").as_u64(),
                    Some(stream_id.into())
                );
                assert_eq!(field_of(&info, "frame").as_u64(), Some(0));
                assert!(!bytes.is_empty(), "a frame carries its record");
            }
            (Op::StreamClose, Reply::Stream { info, bytes }) => {
                assert_eq!(field_of(&json(&info), "frames").as_u64(), Some(1));
                assert!(!bytes.is_empty(), "close carries the trailer");
            }
            (op, reply) => panic!("{op:?} got the wrong reply shape: {reply:?}"),
        }
    }

    // The model `LoadModel` filed as version 2 serves a following Predict.
    let doc = client.predict("m@2", 10.0, &field).expect("predict on m@2");
    assert_eq!(field_of(&json(&doc), "model").as_str(), Some("m@2"));

    // Malformed model JSON is refused with `ModelRejected` (wire code 4).
    match client.load_model("bad", 0, "{not json") {
        Err(ClientError::Server { code, .. }) => {
            assert_eq!(code, ErrorCode::ModelRejected as u16);
            assert_eq!(code, 4);
        }
        other => panic!("malformed model JSON was not rejected: {other:?}"),
    }

    // The second `Stats` reply has a row for every op, itself included.
    let stats = json(&client.stats().expect("stats"));
    let rows = field_of(&stats, "ops").as_array().expect("ops array");
    for op in Op::ALL {
        let row = rows
            .iter()
            .find(|row| row.get("op").and_then(Value::as_str) == Some(op.name()))
            .unwrap_or_else(|| panic!("Stats has no row for {}", op.name()));
        let count = field_of(row, "count").as_u64();
        assert!(count.is_some_and(|n| n >= 1), "{row:?}");
    }

    let report = handle.shutdown();
    assert!(report.drained, "server failed to drain: {report:?}");
}
