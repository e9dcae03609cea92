//! Integration: the serve daemon under concurrent load.
//!
//! N client threads fire mixed requests at one in-process server; every
//! compressed stream and feature vector must be **bit-identical** to a
//! direct `fxrz_core` call on the same input, no request may vanish
//! without a reply, and a saturated queue must answer `Busy` rather than
//! hang or fall over.

use fxrz::prelude::*;
use fxrz::serve::protocol::ErrorCode;
use fxrz::serve::scheduler::SchedulerConfig;
use fxrz::serve::ClientError;
use fxrz_core::sampling::StridedSampler;
use fxrz_core::train::{TrainedModel, TrainerConfig};
use fxrz_datagen::grf::{gaussian_random_field, GrfConfig};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};

const CLIENTS: usize = 8;
const ROUNDS: usize = 3;

fn tiny_model() -> TrainedModel {
    let fields: Vec<Field> = (0..3)
        .map(|i| {
            gaussian_random_field(
                Dims::d3(16, 16, 16),
                GrfConfig::default().with_seed(4200 + i),
            )
        })
        .collect();
    let trainer = Trainer {
        config: TrainerConfig {
            model: fxrz_ml::ModelKind::Svr,
            stationary_points: 8,
            augment_per_field: 16,
            sampler: StridedSampler::new(2),
            ..TrainerConfig::default()
        },
    };
    trainer.train(&Sz, &fields).expect("train")
}

fn probe(seed: u64) -> Field {
    gaussian_random_field(Dims::d3(16, 16, 16), GrfConfig::default().with_seed(seed))
}

#[test]
fn concurrent_clients_get_bit_identical_results() {
    let model = tiny_model();
    let direct = FixedRatioCompressor::new(model.clone(), Box::new(Sz)).expect("bind");

    let server = Server::new(ServerConfig::default());
    server.registry().insert("m", 1, model).expect("insert");
    let handle = server.serve_tcp("127.0.0.1:0").expect("bind tcp");
    let addr = handle.local_addr().expect("addr").to_string();

    // Ground truth computed once, on this thread, through the library.
    let ratio = 12.0;
    let expected: Vec<(Field, Vec<u8>, String)> = (0..CLIENTS as u64)
        .map(|i| {
            let field = probe(9000 + i);
            let bytes = direct
                .compress(&field, ratio)
                .expect("direct compress")
                .bytes;
            let features = serde_json::to_string(&fxrz_core::features::extract(
                &field,
                StridedSampler::default(),
            ))
            .expect("features json");
            (field, bytes, features)
        })
        .collect();
    let expected = Arc::new(expected);

    let start = Arc::new(Barrier::new(CLIENTS));
    let mut threads = Vec::new();
    for t in 0..CLIENTS {
        let addr = addr.clone();
        let expected = Arc::clone(&expected);
        let start = Arc::clone(&start);
        threads.push(std::thread::spawn(move || {
            let mut client = Client::connect_tcp(&addr).expect("connect");
            start.wait();
            for _ in 0..ROUNDS {
                let (field, want_bytes, want_features) = &expected[t];
                client.ping().expect("ping");

                let (_info, bytes) = client.compress("m", ratio, field).expect("compress");
                assert_eq!(&bytes, want_bytes, "served stream differs from direct call");

                let features = client.features(field).expect("features");
                assert_eq!(&features, want_features, "served features differ");

                let roundtrip = client.decompress(&bytes).expect("decompress");
                let direct_rt = fxrz_compressors::detect(want_bytes)
                    .expect("detect")
                    .decompress(want_bytes)
                    .expect("direct decompress");
                assert_eq!(
                    roundtrip.data(),
                    direct_rt.data(),
                    "decompressed data differs"
                );

                let predict = client.predict("m", ratio, field).expect("predict");
                assert!(
                    predict.contains("\"acr\""),
                    "predict json missing acr: {predict}"
                );
            }
        }));
    }
    for t in threads {
        t.join().expect("client thread");
    }

    let report = handle.shutdown();
    assert!(report.drained, "server failed to drain: {report:?}");
}

#[test]
fn saturated_queue_sheds_with_busy_not_silence() {
    let model = tiny_model();
    let server = Server::new(ServerConfig {
        scheduler: SchedulerConfig {
            queue_bound: 1,
            ..SchedulerConfig::default()
        },
        ..ServerConfig::default()
    });
    server.registry().insert("m", 1, model).expect("insert");
    let handle = server.serve_tcp("127.0.0.1:0").expect("bind tcp");
    let addr = handle.local_addr().expect("addr").to_string();

    // A big field keeps each compress busy long enough for the others to
    // pile past the bound of 1.
    let field = gaussian_random_field(Dims::d3(64, 64, 64), GrfConfig::default().with_seed(77));
    let threads_n = 6;
    let ok = Arc::new(AtomicUsize::new(0));
    let busy = Arc::new(AtomicUsize::new(0));
    let other = Arc::new(AtomicUsize::new(0));
    let start = Arc::new(Barrier::new(threads_n));
    let mut threads = Vec::new();
    for _ in 0..threads_n {
        let addr = addr.clone();
        let field = field.clone();
        let (ok, busy, other) = (Arc::clone(&ok), Arc::clone(&busy), Arc::clone(&other));
        let start = Arc::clone(&start);
        threads.push(std::thread::spawn(move || {
            let mut client = Client::connect_tcp(&addr).expect("connect");
            start.wait();
            match client.compress("m", 12.0, &field) {
                Ok(_) => ok.fetch_add(1, Ordering::SeqCst),
                Err(ClientError::Busy) => busy.fetch_add(1, Ordering::SeqCst),
                Err(_) => other.fetch_add(1, Ordering::SeqCst),
            };
        }));
    }
    for t in threads {
        t.join().expect("client thread");
    }

    let answered =
        ok.load(Ordering::SeqCst) + busy.load(Ordering::SeqCst) + other.load(Ordering::SeqCst);
    assert_eq!(answered, threads_n, "a request vanished without a reply");
    assert!(ok.load(Ordering::SeqCst) >= 1, "nothing got through at all");
    assert!(
        busy.load(Ordering::SeqCst) >= 1,
        "queue_bound=1 with {threads_n} simultaneous requests never shed Busy \
         (ok={}, other={})",
        ok.load(Ordering::SeqCst),
        other.load(Ordering::SeqCst)
    );

    let report = handle.shutdown();
    assert!(report.drained, "server failed to drain: {report:?}");
}

#[test]
fn unknown_model_and_oversized_frames_are_refused() {
    let server = Server::new(ServerConfig {
        max_frame: 1 << 16,
        ..ServerConfig::default()
    });
    let handle = server.serve_tcp("127.0.0.1:0").expect("bind tcp");
    let addr = handle.local_addr().expect("addr").to_string();

    let mut client = Client::connect_tcp(&addr).expect("connect");
    let small = probe(5);
    match client.predict("ghost", 10.0, &small) {
        Err(ClientError::Server { code, .. }) => {
            assert_eq!(code, ErrorCode::NoSuchModel as u16)
        }
        other => panic!("expected NoSuchModel, got {other:?}"),
    }

    // A payload past the server's max_frame must be rejected up front,
    // not buffered: either the BadFrame reply arrives, or the server
    // already hung up on us mid-write. Success would mean the cap leaked.
    let big = gaussian_random_field(Dims::d3(32, 32, 32), GrfConfig::default().with_seed(6));
    match client.features(&big) {
        Err(ClientError::Server { code, .. }) => {
            assert_eq!(code, ErrorCode::BadFrame as u16)
        }
        Err(ClientError::Frame(_)) => {} // connection torn down before the reply
        other => panic!("expected an oversized-frame rejection, got {other:?}"),
    }

    handle.shutdown();
}
