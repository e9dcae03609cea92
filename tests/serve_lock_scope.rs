//! Pins the `StreamFrame` session-lock scope: audit-record
//! serialization and `--audit-log` sink I/O must run *after* the
//! per-session guard drops.
//!
//! The server records how long the session lock is held per frame in
//! the `serve.stream.lock_ns` HDR histogram of its own registry
//! (`Server::metrics`). So the test installs
//! an audit sink whose every write sleeps far longer than a frame takes
//! to encode, streams a few frames through a live TCP server, and then
//! asserts the *maximum* observed lock-hold time stays well below the
//! sink delay. If the guard is ever widened back across `sink.append`
//! (the original `lock_discipline` finding), every observation jumps
//! above the sink delay and the assertion fails.

use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use fxrz::prelude::*;
use fxrz::serve::AuditSink;

const FRAMES: usize = 4;
const FRAME_LEN: usize = 512;
/// Every sink write stalls this long — a deliberately awful audit disk.
const SINK_DELAY: Duration = Duration::from_millis(250);
/// Ceiling for the lock-hold histogram: generous for encoding one
/// 512-sample frame (even unoptimized), far below `SINK_DELAY`.
const LOCK_BUDGET_NS: u64 = 200_000_000;

/// An audit sink writer that is slow on purpose and counts its writes.
struct SlowSink {
    writes: Arc<AtomicU64>,
}

impl Write for SlowSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        std::thread::sleep(SINK_DELAY);
        self.writes.fetch_add(1, Ordering::SeqCst);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn frame_field(index: usize) -> Field {
    Field::from_fn("stream/frame", Dims::d1(FRAME_LEN), |c| {
        let t = (index * FRAME_LEN + c[0]) as f32 * 0.003;
        (1.0 + index as f32 * 0.1) * t.sin()
    })
}

fn get(v: &serde_json::Value, k: &str) -> serde_json::Value {
    v.as_object()
        .and_then(|o| o.iter().find(|(n, _)| n == k))
        .map(|(_, v)| v.clone())
        .unwrap_or(serde_json::Value::Null)
}

#[test]
fn stream_frame_lock_excludes_audit_io() {
    let writes = Arc::new(AtomicU64::new(0));
    let server = Server::new(ServerConfig::default());
    server.set_audit_sink(Arc::new(AuditSink::from_writer(Box::new(SlowSink {
        writes: Arc::clone(&writes),
    }))));
    let handle = server.serve_tcp("127.0.0.1:0").expect("bind tcp");
    let addr = handle.local_addr().expect("addr").to_string();

    let mut client = Client::connect_tcp(&addr).expect("connect");
    let (info, _header) = client.stream_open(10.0, 16, &[]).expect("open");
    let info = serde_json::parse_value(&info).expect("open info json");
    let stream_id = get(&info, "stream_id").as_u64().expect("stream_id") as u32;

    for f in 0..FRAMES {
        client
            .stream_frame(stream_id, &frame_field(f))
            .expect("frame");
    }
    client.stream_close(stream_id).expect("close");
    drop(client);
    let report = handle.shutdown();
    assert!(report.drained, "server failed to drain: {report:?}");

    // The slow sink really was on the audit path (≥ one write per frame
    // record), so the frames above paid the sink delay — just not under
    // the session lock.
    assert!(
        writes.load(Ordering::SeqCst) >= FRAMES as u64,
        "audit sink saw {} writes, expected at least {FRAMES}",
        writes.load(Ordering::SeqCst)
    );

    let snapshot = server.metrics().snapshot();
    let hdr = snapshot
        .hdr("serve.stream.lock_ns")
        .expect("serve.stream.lock_ns histogram exists");
    assert_eq!(
        hdr.count, FRAMES as u64,
        "one lock-hold observation per frame"
    );
    assert!(
        hdr.max < LOCK_BUDGET_NS,
        "session lock held {}ns (≥ {}ms): audit I/O is back inside the \
         StreamFrame guard — keep the sink outside the critical section",
        hdr.max,
        LOCK_BUDGET_NS / 1_000_000,
    );
}
