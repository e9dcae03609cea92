//! Two daemons in one process: each one's `Stats` describes only the
//! requests it served, and its scheduler's executors and queue.
//!
//! Every `serve.*` series lives in the registry its `Server` owns, so a
//! sibling daemon's traffic must never show up in another's op counts,
//! scheduler counters or the `metrics` snapshot perfbench decodes.

use fxrz_compressors::sz::Sz;
use fxrz_compressors::{Compressor, ErrorConfig};
use fxrz_datagen::{Dims, Field};
use fxrz_serve::{Client, Server, ServerConfig};
use fxrz_telemetry::MetricsSnapshot;
use serde_json::Value;

/// The `Stats` reply and its `metrics` object decoded as a snapshot.
fn stats(addr: &str) -> (Value, MetricsSnapshot) {
    let mut client = Client::connect_tcp(addr).expect("connect");
    let doc = serde_json::parse_value(&client.stats().expect("stats")).expect("stats json");
    let metrics = doc.get("metrics").expect("stats carries metrics");
    let snapshot =
        <MetricsSnapshot as serde::Deserialize>::from_value(metrics).expect("a MetricsSnapshot");
    (doc, snapshot)
}

/// The `count` of the op's row in the `ops` array, if it has one.
fn op_count(doc: &Value, op: &str) -> Option<u64> {
    doc.get("ops")?
        .as_array()?
        .iter()
        .find(|row| row.get("op").and_then(Value::as_str) == Some(op))?
        .get("count")?
        .as_u64()
}

#[test]
fn each_daemon_counts_only_its_own_requests() {
    let field = Field::from_fn("ramp", Dims::d2(32, 32), |c| {
        (c[0] * 32 + c[1]) as f32 * 0.01
    });
    let stream = Sz
        .compress(&field, &ErrorConfig::Abs(1e-3))
        .expect("compress");
    let servers = [
        Server::new(ServerConfig::default()),
        Server::new(ServerConfig::default()),
    ];
    let handles: Vec<_> = servers
        .iter()
        .map(|s| s.serve_tcp("127.0.0.1:0").expect("bind tcp"))
        .collect();
    let addrs: Vec<String> = handles
        .iter()
        .map(|h| h.local_addr().expect("addr").to_string())
        .collect();
    // (pings, decompresses) each daemon serves, both under load at once.
    let loads = [(3u64, 2u64), (5, 4)];
    std::thread::scope(|scope| {
        for (addr, &(pings, decodes)) in addrs.iter().zip(&loads) {
            let stream = &stream;
            scope.spawn(move || {
                let mut client = Client::connect_tcp(addr).expect("connect");
                for _ in 0..pings {
                    client.ping().expect("ping");
                }
                for _ in 0..decodes {
                    client.decompress(stream).expect("decompress");
                }
            });
        }
    });

    for (addr, &(pings, decodes)) in addrs.iter().zip(&loads) {
        let (doc, metrics) = stats(addr);
        assert_eq!(op_count(&doc, "ping"), Some(pings), "{addr} ping row");
        assert_eq!(
            op_count(&doc, "decompress"),
            Some(decodes),
            "{addr} decompress row"
        );
        assert_eq!(metrics.counter("serve.op.ping.count"), Some(pings));
        assert_eq!(metrics.counter("serve.op.decompress.count"), Some(decodes));
        let hdr = |name: &str| metrics.hdr(name).map(|h| h.count);
        assert_eq!(hdr("serve.op.decompress.hdr_ns"), Some(decodes));
        // Only data-plane ops pass the scheduler.
        assert_eq!(metrics.counter("serve.sched.admitted"), Some(decodes));
        assert_eq!(hdr("serve.sched.queue_ns"), Some(decodes));
        assert_eq!(metrics.counter("serve.sched.shed"), Some(0));
        assert_eq!(metrics.counter("serve.sched.deadline_exceeded"), Some(0));
        // One executor per pool thread, and nothing waits for one at rest.
        let sched = doc.get("scheduler").expect("stats carries scheduler");
        assert_eq!(
            sched.get("executors").and_then(Value::as_u64),
            Some(fxrz_parallel::current_threads() as u64)
        );
        assert_eq!(sched.get("queue_depth").and_then(Value::as_u64), Some(0));
        // The load connection and the stats connection.
        assert_eq!(metrics.counter("serve.conn.accepted"), Some(2));
    }
    for handle in handles {
        let report = handle.shutdown();
        assert!(report.drained, "server failed to drain: {report:?}");
    }
}
