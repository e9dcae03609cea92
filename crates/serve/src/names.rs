//! Telemetry metric and span name inventory for the serve daemon; see
//! `crates/codec/src/names.rs` for the convention. Per-op series are
//! `{op}` [`Template`]s, filled once per [`Op::ALL`](crate::Op::ALL)
//! entry when a server is built.

use fxrz_telemetry::{Name, Template};

/// Connections accepted by the listener.
pub const CONN_ACCEPTED: Name = Name::new("serve.conn.accepted");
/// Connection-handler threads that failed to spawn.
pub const CONN_SPAWN_ERRORS: Name = Name::new("serve.conn.spawn_errors");
/// `accept(2)` failures on the listener.
pub const CONN_ACCEPT_ERRORS: Name = Name::new("serve.conn.accept_errors");
/// Frame write failures mid-connection.
pub const CONN_WRITE_ERRORS: Name = Name::new("serve.conn.write_errors");
/// Malformed/oversized frames received.
pub const CONN_FRAME_ERRORS: Name = Name::new("serve.conn.frame_errors");

/// Live connections at the moment drain began.
pub const DRAIN_CONNECTIONS_AT_STOP: Name = Name::new("serve.drain.connections_at_stop");
/// Drains that completed before the deadline.
pub const DRAIN_CLEAN: Name = Name::new("serve.drain.clean");
/// Drains cut short by the deadline.
pub const DRAIN_TIMED_OUT: Name = Name::new("serve.drain.timed_out");
/// Wall time spent draining, in nanoseconds.
pub const DRAIN_NS: Name = Name::new("serve.drain.ns");

/// Requests that ended in an error reply, any op.
pub const OP_ERRORS: Name = Name::new("serve.op.errors");
/// Per-op request-count template (`{op}` is the op name).
pub const OP_COUNT: Template = Template::new("serve.op.{op}.count");

/// Models loaded into the registry.
pub const REGISTRY_LOADS: Name = Name::new("serve.registry.loads");

/// Requests shed because the queue was full.
pub const SCHED_SHED: Name = Name::new("serve.sched.shed");
/// Requests admitted to the queue.
pub const SCHED_ADMITTED: Name = Name::new("serve.sched.admitted");
/// Requests dropped after exceeding their deadline in queue.
pub const SCHED_DEADLINE_EXCEEDED: Name = Name::new("serve.sched.deadline_exceeded");
/// Job panics caught by the scheduler.
pub const SCHED_PANICS: Name = Name::new("serve.sched.panics");
/// Admitted requests waiting for an executor.
pub const QUEUE_DEPTH: Name = Name::new("serve.queue.depth");

/// Nanoseconds a request waited for an executor.
pub const SCHED_QUEUE_NS: Name = Name::new("serve.sched.queue_ns");

/// Audit records appended to the JSONL sink.
pub const AUDIT_RECORDS: Name = Name::new("serve.audit.records");
/// Audit sink write failures (records dropped, not retried).
pub const AUDIT_WRITE_ERRORS: Name = Name::new("serve.audit.write_errors");

/// Per-op HDR latency template (`{op}` is the op name); end-to-end
/// dispatch latency in nanoseconds with fixed-precision percentiles.
pub const OP_HDR_NS: Template = Template::new("serve.op.{op}.hdr_ns");

/// `DecompressRange` requests served.
pub const SLAB_RANGE_REQUESTS: Name = Name::new("serve.slab.range_requests");
/// Elements returned by `DecompressRange` replies.
pub const SLAB_RANGE_ELEMS: Name = Name::new("serve.slab.range_elems");

/// Stream sessions opened (`StreamOpen`).
pub const STREAM_OPENED: Name = Name::new("serve.stream.opened");
/// Frames encoded through stream sessions (`StreamFrame`).
pub const STREAM_FRAMES: Name = Name::new("serve.stream.frames");
/// Stream sessions closed cleanly (`StreamClose`).
pub const STREAM_CLOSED: Name = Name::new("serve.stream.closed");
/// Stream sessions dropped because the connection went away before
/// `StreamClose`.
pub const STREAM_ABANDONED: Name = Name::new("serve.stream.abandoned");

/// Span around one client connection.
pub const SPAN_CONN: Name = Name::new("serve.conn");
/// Span around one scheduled request execution (traced).
pub const SPAN_REQUEST: Name = Name::new("serve.request");
