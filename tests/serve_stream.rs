//! Integration: serve stream ops (`StreamOpen`/`StreamFrame`/
//! `StreamClose`) against a live server.
//!
//! One connection opens a session, pushes a drifting signal frame by
//! frame, closes, and reassembles the `FXRZS1` file from the reply
//! bytes; the file must scan and decode. Every frame must land one
//! `op:"stream"` audit record carrying the per-frame predicted eb,
//! achieved CR and tolerance verdict; session state must be per
//! connection (a second connection cannot touch the id); the stats
//! plane must report the stream op rows.

use fxrz::prelude::*;
use fxrz::serve::AuditRecord;
use fxrz::stream::StreamDecoder;

const FRAMES: usize = 12;
const FRAME_LEN: usize = 512;

fn frame_field(index: usize) -> Field {
    Field::from_fn("stream/frame", Dims::d1(FRAME_LEN), |c| {
        let t = (index * FRAME_LEN + c[0]) as f32 * 0.003;
        let drift = index as f32 / FRAMES as f32;
        let pseudo = ((c[0] as u32).wrapping_mul(2654435761) >> 16) as f32 / 65536.0 - 0.5;
        (1.0 + drift) * t.sin() + 0.3 * drift * pseudo
    })
}

fn get(v: &serde_json::Value, k: &str) -> serde_json::Value {
    v.as_object()
        .and_then(|o| o.iter().find(|(n, _)| n == k))
        .map(|(_, v)| v.clone())
        .unwrap_or(serde_json::Value::Null)
}

#[test]
fn stream_session_round_trip_with_audit() {
    let audit_path =
        std::env::temp_dir().join(format!("fxrz_stream_audit_{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&audit_path);

    let server = Server::new(ServerConfig::default());
    server.set_audit_log(&audit_path).expect("audit log");
    let handle = server.serve_tcp("127.0.0.1:0").expect("bind tcp");
    let addr = handle.local_addr().expect("addr").to_string();

    let mut client = Client::connect_tcp(&addr).expect("connect");
    let (info, header) = client.stream_open(10.0, 16, &[]).expect("open");
    let info = serde_json::parse_value(&info).expect("open info json");
    let stream_id = get(&info, "stream_id").as_u64().expect("stream_id") as u32;
    assert!(
        !header.is_empty(),
        "open reply must carry the FXRZS1 header"
    );

    let mut file = header;
    for f in 0..FRAMES {
        let (info, record) = client
            .stream_frame(stream_id, &frame_field(f))
            .expect("frame");
        let info = serde_json::parse_value(&info).expect("frame info json");
        assert_eq!(get(&info, "frame").as_u64(), Some(f as u64));
        assert!(get(&info, "eb").as_f64().unwrap_or(0.0) > 0.0);
        assert!(get(&info, "achieved").as_f64().unwrap_or(0.0) > 1.0);
        assert!(get(&info, "trace_id").as_u64().unwrap_or(0) > 0);
        file.extend_from_slice(&record);
    }

    // A second connection must not see this connection's session.
    let mut intruder = Client::connect_tcp(&addr).expect("connect intruder");
    let denied = intruder.stream_frame(stream_id, &frame_field(0));
    match denied {
        Err(fxrz::serve::ClientError::Server { code, .. }) => assert_eq!(code, 9),
        other => panic!("cross-connection frame should fail, got {other:?}"),
    }
    drop(intruder);

    let (summary, trailer) = client.stream_close(stream_id).expect("close");
    file.extend_from_slice(&trailer);
    let summary = serde_json::parse_value(&summary).expect("close info json");
    assert_eq!(get(&summary, "frames").as_u64(), Some(FRAMES as u64));
    assert_eq!(
        get(&summary, "samples").as_u64(),
        Some((FRAMES * FRAME_LEN) as u64)
    );

    // Closing twice is NoSuchStream.
    match client.stream_close(stream_id) {
        Err(fxrz::serve::ClientError::Server { code, .. }) => assert_eq!(code, 9),
        other => panic!("double close should fail, got {other:?}"),
    }

    // The reassembled file is a well-formed, decodable FXRZS1 stream.
    let scan = StreamDecoder::inspect(&file).expect("scan");
    assert_eq!(scan.trailer.frames, FRAMES as u64);
    let decoded = StreamDecoder::decode(&file).expect("decode");
    assert_eq!(decoded.samples.len(), FRAMES * FRAME_LEN);

    // Stats plane: stream op rows with sane counts.
    let stats = serde_json::parse_value(&client.stats().expect("stats")).expect("stats json");
    let ops = get(&stats, "ops");
    let row = |name: &str| -> u64 {
        ops.as_array()
            .expect("ops array")
            .iter()
            .find(|row| get(row, "op").as_str() == Some(name))
            .and_then(|row| get(row, "count").as_u64())
            .unwrap_or(0)
    };
    assert_eq!(row("stream_open"), 1);
    assert!(row("stream_frame") >= FRAMES as u64);
    assert_eq!(row("stream_close"), 2); // one ok, one NoSuchStream
    drop(client);

    let report = handle.shutdown();
    assert!(report.drained, "server failed to drain: {report:?}");

    // Audit: one op:"stream" record per encoded frame, each carrying
    // the per-frame prediction and tolerance verdict.
    let text = std::fs::read_to_string(&audit_path).expect("read audit log");
    let records: Vec<AuditRecord> = text
        .lines()
        .map(|l| serde_json::from_str(l).expect("audit record parses"))
        .collect();
    let stream_rows: Vec<&AuditRecord> = records.iter().filter(|r| r.op == "stream").collect();
    assert_eq!(stream_rows.len(), FRAMES, "one audit row per frame");
    for r in &stream_rows {
        assert!(r.trace_id > 0, "audit row missing trace id");
        assert!(r.predicted_eb > 0.0, "audit row missing predicted eb");
        assert!(r.achieved_cr > 1.0, "audit row missing achieved CR");
        assert!(r.target_cr > 1.0, "audit row missing frame target");
        assert!(
            r.model.starts_with("stream:"),
            "stream rows are keyed by codec: {}",
            r.model
        );
        assert_eq!(r.uncompressed_bytes, (FRAME_LEN * 4) as u64);
    }
    let _ = std::fs::remove_file(&audit_path);
}
