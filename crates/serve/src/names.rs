//! Telemetry metric and span name inventory for the serve daemon.
//!
//! Single source of truth checked by the `telemetry_names` lint
//! (`fxrz lint`). Per-op series use `{op}` placeholder templates:
//! `format!` requires a literal format string, so those call sites keep
//! an inline literal which the lint verifies is byte-identical to the
//! template const here.

/// Connections accepted by the listener.
pub const CONN_ACCEPTED: &str = "serve.conn.accepted";
/// Connection-handler threads that failed to spawn.
pub const CONN_SPAWN_ERRORS: &str = "serve.conn.spawn_errors";
/// `accept(2)` failures on the listener.
pub const CONN_ACCEPT_ERRORS: &str = "serve.conn.accept_errors";
/// Frame write failures mid-connection.
pub const CONN_WRITE_ERRORS: &str = "serve.conn.write_errors";
/// Malformed/oversized frames received.
pub const CONN_FRAME_ERRORS: &str = "serve.conn.frame_errors";

/// Live connections at the moment drain began.
pub const DRAIN_CONNECTIONS_AT_STOP: &str = "serve.drain.connections_at_stop";
/// Drains that completed before the deadline.
pub const DRAIN_CLEAN: &str = "serve.drain.clean";
/// Drains cut short by the deadline.
pub const DRAIN_TIMED_OUT: &str = "serve.drain.timed_out";
/// Wall time spent draining, in nanoseconds.
pub const DRAIN_NS: &str = "serve.drain.ns";

/// Requests that ended in an error reply, any op.
pub const OP_ERRORS: &str = "serve.op.errors";
/// Per-op request-count template (`{op}` is the op name).
pub const OP_COUNT: &str = "serve.op.{op}.count";

/// Models loaded into the registry.
pub const REGISTRY_LOADS: &str = "serve.registry.loads";

/// Requests shed because the queue was full.
pub const SCHED_SHED: &str = "serve.sched.shed";
/// Requests admitted to the queue.
pub const SCHED_ADMITTED: &str = "serve.sched.admitted";
/// Requests dropped after exceeding their deadline in queue.
pub const SCHED_DEADLINE_EXCEEDED: &str = "serve.sched.deadline_exceeded";
/// Job panics caught by the scheduler.
pub const SCHED_PANICS: &str = "serve.sched.panics";
/// Admitted requests waiting for an executor.
pub const QUEUE_DEPTH: &str = "serve.queue.depth";

/// Nanoseconds a request waited for an executor.
pub const SCHED_QUEUE_NS: &str = "serve.sched.queue_ns";

/// Audit records appended to the JSONL sink.
pub const AUDIT_RECORDS: &str = "serve.audit.records";
/// Audit sink write failures (records dropped, not retried).
pub const AUDIT_WRITE_ERRORS: &str = "serve.audit.write_errors";

/// Per-op HDR latency template (`{op}` is the op name); end-to-end
/// dispatch latency in nanoseconds with fixed-precision percentiles.
pub const OP_HDR_NS: &str = "serve.op.{op}.hdr_ns";

/// `DecompressRange` requests served.
pub const SLAB_RANGE_REQUESTS: &str = "serve.slab.range_requests";
/// Elements returned by `DecompressRange` replies.
pub const SLAB_RANGE_ELEMS: &str = "serve.slab.range_elems";

/// Stream sessions opened (`StreamOpen`).
pub const STREAM_OPENED: &str = "serve.stream.opened";
/// Frames encoded through stream sessions (`StreamFrame`).
pub const STREAM_FRAMES: &str = "serve.stream.frames";
/// Stream sessions closed cleanly (`StreamClose`).
pub const STREAM_CLOSED: &str = "serve.stream.closed";
/// Stream sessions dropped because the connection went away before
/// `StreamClose`.
pub const STREAM_ABANDONED: &str = "serve.stream.abandoned";

/// Span around one client connection.
pub const SPAN_CONN: &str = "serve.conn";
/// Span around one scheduled request execution (traced).
pub const SPAN_REQUEST: &str = "serve.request";
