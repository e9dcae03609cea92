//! The serve daemon: socket accept loops, per-connection framing, request
//! dispatch, and the graceful-shutdown drain.
//!
//! One thread per connection reads frames sequentially (the protocol is
//! strict request/response), runs each request itself once the shared
//! [`Scheduler`] grants it an executor, and writes the reply back. A
//! connection's stream sessions therefore live on its thread, unlocked.
//! Sockets run with short read timeouts so every blocking point also
//! polls the stop flag: a SIGTERM (or [`Server::stop`]) makes the accept
//! loop close, idle connections drop out at the next poll, and in-flight
//! requests finish and get their responses before the drain completes.
//!
//! Outside tests the module denies wildcard arms over enums, so dispatch
//! names every [`Request`] variant: no `_ =>` arm can absorb a new op.

#![cfg_attr(
    not(test),
    deny(
        clippy::wildcard_enum_match_arm,
        clippy::match_wildcard_for_single_variants
    )
)]

use crate::audit::{AccuracyStats, AuditRecord, AuditSink};
use crate::lock::RwLock;
use crate::names;
use crate::protocol::{
    self, ErrorCode, FrameError, Op, Reply, Request, RequestFrame, ResponseFrame, Status,
};
use crate::registry::{ModelRegistry, RegistryError, ServedModel};
use crate::scheduler::{Scheduler, SchedulerConfig};
use fxrz_compressors::Compressor;
use fxrz_core::infer::Estimate;
use fxrz_core::sampling::StridedSampler;
use fxrz_stream::{StreamConfig, StreamEncoder};
use fxrz_telemetry::{Counter, HdrHistogram, MetricsRegistry, TraceContext, TraceIdGen};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Process-level stop plumbing: SIGTERM / SIGINT → one atomic flag every
/// server loop polls. The handler does nothing but an atomic store (the
/// only thing that is async-signal-safe here).
pub mod signal {
    use std::sync::atomic::{AtomicBool, Ordering};

    static TRIGGERED: AtomicBool = AtomicBool::new(false);

    /// True once a termination signal was delivered (or [`trigger`] ran).
    pub fn triggered() -> bool {
        TRIGGERED.load(Ordering::SeqCst)
    }

    /// Sets the stop flag programmatically (tests and embedders).
    pub fn trigger() {
        TRIGGERED.store(true, Ordering::SeqCst);
    }

    /// Installs SIGTERM and SIGINT handlers that set the flag. Call once
    /// from the daemon entry point before serving.
    #[cfg(unix)]
    pub fn install() {
        extern "C" fn handle(_signum: i32) {
            TRIGGERED.store(true, Ordering::SeqCst);
        }
        // std already links libc on unix; declaring the symbol avoids a
        // crate dependency. Typing the handler as a fn pointer keeps the
        // call free of integer/pointer casts.
        extern "C" {
            fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
        }
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        // SAFETY: `signal` is the libc function of that name; the handler
        // only performs an atomic store, which is async-signal-safe.
        #[expect(unsafe_code, reason = "libc signal FFI without a crate dependency")]
        unsafe {
            let _ = signal(SIGINT, handle);
            let _ = signal(SIGTERM, handle);
        }
    }

    /// No-op off unix: only programmatic [`trigger`] stops the server.
    #[cfg(not(unix))]
    pub fn install() {}
}

/// How often blocking points poll the stop flag.
const POLL_INTERVAL: Duration = Duration::from_millis(25);
/// How long a partially-received frame may stall before the connection is
/// dropped (guards the drain against peers that died mid-frame).
const MID_FRAME_GRACE: Duration = Duration::from_secs(2);

/// Server tuning.
#[derive(Clone, Copy, Debug)]
pub struct ServerConfig {
    /// Cap on request payloads; larger frames are rejected before any
    /// allocation happens.
    pub max_frame: u32,
    /// Scheduler bounds (queue size, default deadline).
    pub scheduler: SchedulerConfig,
    /// How long shutdown waits for in-flight connections to finish.
    pub drain_timeout: Duration,
    /// Seed for the deterministic trace-id generator: the same seed and
    /// request order reproduce the same trace ids.
    pub trace_seed: u64,
    /// Relative tolerance on `|achieved − target| / target` for a
    /// compress request to count as in-tolerance in the audit plane.
    pub cr_tolerance: f64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            max_frame: protocol::DEFAULT_MAX_FRAME,
            scheduler: SchedulerConfig::default(),
            drain_timeout: Duration::from_secs(10),
            trace_seed: 0xF0E1_D2C3_B4A5_9687,
            cr_tolerance: 0.10,
        }
    }
}

/// A bidirectional client connection (TCP or Unix socket).
trait Connection: Read + Write + Send {
    fn set_read_timeout(&self, dur: Option<Duration>) -> io::Result<()>;
}

impl Connection for TcpStream {
    fn set_read_timeout(&self, dur: Option<Duration>) -> io::Result<()> {
        TcpStream::set_read_timeout(self, dur)
    }
}

#[cfg(unix)]
impl Connection for std::os::unix::net::UnixStream {
    fn set_read_timeout(&self, dur: Option<Duration>) -> io::Result<()> {
        std::os::unix::net::UnixStream::set_read_timeout(self, dur)
    }
}

/// A nonblocking listener: `poll_accept` returns `Ok(None)` when no peer
/// is waiting, so the accept loop can interleave stop-flag checks.
trait Acceptor: Send {
    fn poll_accept(&self) -> io::Result<Option<Box<dyn Connection>>>;
}

struct TcpAcceptor(TcpListener);

impl Acceptor for TcpAcceptor {
    fn poll_accept(&self) -> io::Result<Option<Box<dyn Connection>>> {
        match self.0.accept() {
            Ok((stream, _)) => {
                // Replies go out at once, as requests do from the client:
                // Nagle would hold a reply's tail for the peer's delayed
                // ACK (~40 ms).
                stream.set_nodelay(true).ok();
                Ok(Some(Box::new(stream)))
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(None),
            Err(e) => Err(e),
        }
    }
}

#[cfg(unix)]
struct UnixAcceptor(std::os::unix::net::UnixListener);

#[cfg(unix)]
impl Acceptor for UnixAcceptor {
    fn poll_accept(&self) -> io::Result<Option<Box<dyn Connection>>> {
        match self.0.accept() {
            Ok((stream, _)) => Ok(Some(Box::new(stream))),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(None),
            Err(e) => Err(e),
        }
    }
}

/// One op's request count and dispatch latency, resolved once.
struct OpSeries {
    op: Op,
    count: Arc<Counter>,
    latency_ns: Arc<HdrHistogram>,
}

/// State shared between the accept loop and every connection thread.
struct Shared {
    registry: ModelRegistry,
    scheduler: Scheduler,
    config: ServerConfig,
    stop: AtomicBool,
    active_conns: AtomicUsize,
    trace_ids: TraceIdGen,
    audit: RwLock<Option<Arc<AuditSink>>>,
    accuracy: AccuracyStats,
    started: Instant,
    /// This daemon's telemetry: every `serve.*` series, and nothing any
    /// other daemon in the process records.
    metrics: MetricsRegistry,
    /// Per-op series, one per [`Op::ALL`] entry.
    ops: [OpSeries; Op::ALL.len()],
}

impl Shared {
    fn should_stop(&self) -> bool {
        self.stop.load(Ordering::SeqCst) || signal::triggered()
    }

    /// Folds an audited request into the accuracy aggregates and appends
    /// it to the audit sink, if one is installed.
    fn audit(&self, record: &AuditRecord) {
        self.accuracy.record(
            &record.model,
            record.rel_err,
            record.in_tolerance,
            record.exec_ns,
        );
        let sink = self.audit.read().clone();
        if let Some(sink) = sink {
            self.metrics.incr(match sink.append(record) {
                Ok(()) => names::AUDIT_RECORDS,
                Err(_) => names::AUDIT_WRITE_ERRORS,
            });
        }
    }
}

/// Outcome of a graceful shutdown.
#[derive(Clone, Copy, Debug)]
pub struct DrainReport {
    /// Connections still open when the stop was observed.
    pub connections_at_stop: usize,
    /// True when every connection finished inside the drain timeout.
    pub drained: bool,
    /// Wall-clock time the drain took.
    pub drain_time: Duration,
}

/// A running listener; dropping the handle does NOT stop the server —
/// call [`ServerHandle::shutdown`] (or deliver SIGTERM).
pub struct ServerHandle {
    shared: Arc<Shared>,
    accept: std::thread::JoinHandle<DrainReport>,
    local_addr: Option<SocketAddr>,
}

impl ServerHandle {
    /// The bound TCP address (None for Unix-socket listeners) — this is
    /// how callers discover an ephemeral port after binding `:0`.
    pub fn local_addr(&self) -> Option<SocketAddr> {
        self.local_addr
    }

    /// Requests a stop without waiting (idempotent).
    pub fn stop(&self) {
        self.shared.stop.store(true, Ordering::SeqCst);
    }

    /// Stops accepting, waits for the drain, and returns its report.
    pub fn shutdown(self) -> DrainReport {
        self.stop();
        self.join()
    }

    /// Waits for the accept loop to end (a prior [`Self::stop`], a
    /// signal, or a fatal listener error) and returns the drain report.
    pub fn join(self) -> DrainReport {
        self.accept.join().unwrap_or(DrainReport {
            connections_at_stop: 0,
            drained: false,
            drain_time: Duration::ZERO,
        })
    }
}

/// The fxrz compression service: registry + scheduler + listeners.
pub struct Server {
    shared: Arc<Shared>,
}

impl Default for Server {
    fn default() -> Self {
        Self::new(ServerConfig::default())
    }
}

impl Server {
    /// A server with an empty model registry.
    pub fn new(config: ServerConfig) -> Self {
        let metrics = MetricsRegistry::new();
        let ops = Op::ALL.map(|op| OpSeries {
            op,
            count: metrics.counter(names::OP_COUNT.fill(&[op.name()])),
            latency_ns: metrics.histogram(names::OP_HDR_NS.fill(&[op.name()])),
        });
        Self {
            shared: Arc::new(Shared {
                registry: ModelRegistry::counting_into(&metrics),
                scheduler: Scheduler::new(config.scheduler, &metrics),
                stop: AtomicBool::new(false),
                active_conns: AtomicUsize::new(0),
                trace_ids: TraceIdGen::new(config.trace_seed),
                audit: RwLock::new(None),
                accuracy: AccuracyStats::default(),
                started: Instant::now(),
                config,
                metrics,
                ops,
            }),
        }
    }

    /// The model registry (preload models here before serving).
    pub fn registry(&self) -> &ModelRegistry {
        &self.shared.registry
    }

    /// This server's own telemetry: every `serve.*` series it records,
    /// and the `metrics` object of its `Stats` reply. Spans and the
    /// library's codec series stay in [`fxrz_telemetry::global`].
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.shared.metrics
    }

    /// Starts appending audit records to the JSONL file at `path`.
    ///
    /// # Errors
    /// Propagates file-open errors.
    pub fn set_audit_log(&self, path: &std::path::Path) -> io::Result<()> {
        self.set_audit_sink(Arc::new(AuditSink::open(path)?));
        Ok(())
    }

    /// Installs an audit sink directly (tests use in-memory writers).
    pub fn set_audit_sink(&self, sink: Arc<AuditSink>) {
        *self.shared.audit.write() = Some(sink);
    }

    /// Requests a stop of every listener started from this server.
    pub fn stop(&self) {
        self.shared.stop.store(true, Ordering::SeqCst);
    }

    /// Binds a TCP listener (use port 0 for an ephemeral port, then read
    /// it back from [`ServerHandle::local_addr`]) and starts serving on a
    /// background thread.
    ///
    /// # Errors
    /// Propagates bind errors.
    pub fn serve_tcp(&self, addr: &str) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr().ok();
        self.spawn_accept(Box::new(TcpAcceptor(listener)), local_addr)
    }

    /// Binds a Unix-domain socket listener and starts serving. An
    /// existing socket file at `path` is removed first (the daemon
    /// convention for stale sockets).
    ///
    /// # Errors
    /// Propagates bind errors.
    #[cfg(unix)]
    pub fn serve_unix(&self, path: &std::path::Path) -> io::Result<ServerHandle> {
        let _ = std::fs::remove_file(path);
        let listener = std::os::unix::net::UnixListener::bind(path)?;
        listener.set_nonblocking(true)?;
        self.spawn_accept(Box::new(UnixAcceptor(listener)), None)
    }

    fn spawn_accept(
        &self,
        acceptor: Box<dyn Acceptor>,
        local_addr: Option<SocketAddr>,
    ) -> io::Result<ServerHandle> {
        let shared = Arc::clone(&self.shared);
        let accept = std::thread::Builder::new()
            .name("fxrz-serve-accept".into())
            .spawn(move || accept_loop(&shared, acceptor.as_ref()))?;
        Ok(ServerHandle {
            shared: Arc::clone(&self.shared),
            accept,
            local_addr,
        })
    }
}

fn accept_loop(shared: &Arc<Shared>, acceptor: &dyn Acceptor) -> DrainReport {
    let telemetry = &shared.metrics;
    while !shared.should_stop() {
        match acceptor.poll_accept() {
            Ok(Some(conn)) => {
                telemetry.incr(names::CONN_ACCEPTED);
                // Count the connection before its thread exists so a stop
                // arriving right now still waits for it in the drain.
                shared.active_conns.fetch_add(1, Ordering::SeqCst);
                let conn_shared = Arc::clone(shared);
                let spawned = std::thread::Builder::new()
                    .name("fxrz-serve-conn".into())
                    .spawn(move || handle_connection(&conn_shared, conn));
                if spawned.is_err() {
                    // The thread never existed, so its slot must be given
                    // back here or the drain would wait the full timeout.
                    shared.active_conns.fetch_sub(1, Ordering::SeqCst);
                    telemetry.incr(names::CONN_SPAWN_ERRORS);
                }
            }
            Ok(None) => std::thread::sleep(POLL_INTERVAL),
            Err(_) => {
                telemetry.incr(names::CONN_ACCEPT_ERRORS);
                std::thread::sleep(POLL_INTERVAL);
            }
        }
    }

    // Drain: no new connections are accepted; wait for the in-flight
    // ones (each holds a slot in `active_conns` until its last response
    // is written) to finish, bounded by the configured timeout.
    let connections_at_stop = shared.active_conns.load(Ordering::SeqCst);
    telemetry.set_gauge(names::DRAIN_CONNECTIONS_AT_STOP, connections_at_stop as i64);
    let t0 = Instant::now();
    while shared.active_conns.load(Ordering::SeqCst) > 0
        && t0.elapsed() < shared.config.drain_timeout
    {
        std::thread::sleep(Duration::from_millis(5));
    }
    let drained = shared.active_conns.load(Ordering::SeqCst) == 0;
    let drain_time = t0.elapsed();
    telemetry.incr(if drained {
        names::DRAIN_CLEAN
    } else {
        names::DRAIN_TIMED_OUT
    });
    telemetry.observe(names::DRAIN_NS, drain_time.as_nanos() as u64);
    DrainReport {
        connections_at_stop,
        drained,
        drain_time,
    }
}

/// Decrements the active-connection count when the handler exits, on any
/// path (clean EOF, protocol violation, panic).
struct ConnGuard<'a>(&'a Shared);

impl Drop for ConnGuard<'_> {
    fn drop(&mut self) {
        self.0.active_conns.fetch_sub(1, Ordering::SeqCst);
    }
}

/// A `Read` adapter over a timeout socket that turns short timeouts into
/// stop-flag polls: before a frame starts, a stop reads as clean EOF; in
/// the middle of a frame the peer gets [`MID_FRAME_GRACE`] to finish.
struct PatientReader<'a> {
    inner: &'a mut dyn Connection,
    shared: &'a Shared,
    started: bool,
}

impl Read for PatientReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let mut stalled_since: Option<Instant> = None;
        loop {
            match self.inner.read(buf) {
                Ok(0) => return Ok(0),
                Ok(n) => {
                    self.started = true;
                    return Ok(n);
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    if !self.started {
                        if self.shared.should_stop() {
                            // No frame in progress: report EOF so the
                            // frame reader sees a clean close.
                            return Ok(0);
                        }
                        continue; // idle between frames: keep waiting
                    }
                    let since = *stalled_since.get_or_insert_with(Instant::now);
                    if since.elapsed() > MID_FRAME_GRACE {
                        return Err(io::Error::new(
                            io::ErrorKind::TimedOut,
                            "peer stalled mid-frame",
                        ));
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

/// One open `FXRZS1` encoder session. Sessions are per-connection: the
/// protocol is strict request/response, so a stream's frames arrive in
/// order on one socket, and every frame runs on that socket's thread.
struct StreamSession {
    encoder: StreamEncoder,
}

/// Per-connection stream-session table — the serve daemon's first
/// stateful ops. Dropped (and counted) with the connection.
struct ConnStreams {
    next_id: u32,
    sessions: Vec<(u32, StreamSession)>,
    abandoned: Arc<Counter>,
}

impl ConnStreams {
    fn new(metrics: &MetricsRegistry) -> Self {
        Self {
            next_id: 0,
            sessions: Vec::new(),
            abandoned: metrics.counter(names::STREAM_ABANDONED),
        }
    }

    fn get_mut(&mut self, id: u32) -> Option<&mut StreamSession> {
        self.sessions
            .iter_mut()
            .find(|(sid, _)| *sid == id)
            .map(|(_, s)| s)
    }
}

impl Drop for ConnStreams {
    fn drop(&mut self) {
        if !self.sessions.is_empty() {
            self.abandoned.add(self.sessions.len() as u64);
        }
    }
}

fn handle_connection(shared: &Shared, mut conn: Box<dyn Connection>) {
    let _guard = ConnGuard(shared);
    let _span = fxrz_telemetry::span!(names::SPAN_CONN);
    if conn.set_read_timeout(Some(POLL_INTERVAL)).is_err() {
        return;
    }
    let mut streams = ConnStreams::new(&shared.metrics);
    loop {
        let read_result = {
            let mut patient = PatientReader {
                inner: conn.as_mut(),
                shared,
                started: false,
            };
            protocol::read_request(&mut patient, shared.config.max_frame)
        };
        match read_result {
            Ok(None) => break, // clean close (peer EOF, or stop while idle)
            Ok(Some(frame)) => {
                let response = dispatch(shared, frame, &mut streams);
                if protocol::write_response(&mut conn, &response).is_err() {
                    shared.metrics.incr(names::CONN_WRITE_ERRORS);
                    break;
                }
                if shared.should_stop() {
                    break; // responded to the in-flight request; now drain
                }
            }
            Err(FrameError::Io(_)) => break, // peer vanished / stalled out
            Err(e) => {
                // Protocol violation: reply once with a frame error, then
                // close — the stream position is no longer trustworthy.
                shared.metrics.incr(names::CONN_FRAME_ERRORS);
                let response = ResponseFrame::error(0, 0, ErrorCode::BadFrame, &e.to_string());
                let _ = protocol::write_response(&mut conn, &response);
                break;
            }
        }
    }
}

/// Executes one request frame and produces its response, recording
/// per-op telemetry. Each request gets a fresh deterministic
/// [`TraceContext`] attached to the connection thread for its duration.
fn dispatch(shared: &Shared, frame: RequestFrame, streams: &mut ConnStreams) -> ResponseFrame {
    let op = frame.op;
    let trace = shared.trace_ids.next();
    let _trace_guard = fxrz_telemetry::trace::attach(trace);
    let t0 = Instant::now();
    let response = dispatch_inner(shared, frame, trace, streams);
    let elapsed = t0.elapsed();
    // Every op has a row: `ops` is built from `Op::ALL`.
    if let Some(series) = shared.ops.iter().find(|s| s.op == op) {
        series.latency_ns.record_duration(elapsed);
        series.count.incr();
    }
    if response.status == Status::Error {
        shared.metrics.incr(names::OP_ERRORS);
    }
    response
}

fn registry_error_code(e: &RegistryError) -> ErrorCode {
    match e {
        RegistryError::NoSuchModel(_) => ErrorCode::NoSuchModel,
        RegistryError::Parse(_) | RegistryError::Rejected(_) => ErrorCode::ModelRejected,
    }
}

fn predict_json(served: &ServedModel, est: &Estimate) -> String {
    let features = serde_json::to_string(&est.features).unwrap_or_else(|_| "null".to_owned());
    format!(
        "{{\"model\":\"{}\",\"config\":\"{}\",\"acr\":{},\"non_constant_ratio\":{},\"analysis_ms\":{},\"features\":{}}}",
        served.reference(),
        est.config,
        est.acr,
        est.non_constant_ratio,
        est.analysis_time.as_secs_f64() * 1e3,
        features,
    )
}

fn stats_json(shared: &Shared) -> String {
    let models = serde_json::to_string(&shared.registry.list()).unwrap_or_else(|_| "[]".to_owned());
    let snapshot = shared.metrics.snapshot();
    let sched = shared.scheduler.counters();
    // Per-op rows for every op served so far: request count plus
    // fixed-precision latency percentiles from the HDR histograms
    // recorded in `dispatch`.
    let ops: Vec<String> = shared
        .ops
        .iter()
        .filter_map(|s| {
            let count = s.count.get();
            if count == 0 {
                return None;
            }
            let h = s.latency_ns.snapshot(s.op.name());
            Some(format!(
                "{{\"op\":\"{}\",\"count\":{count},\"p50_ns\":{},\"p90_ns\":{},\"p99_ns\":{},\
                 \"p999_ns\":{},\"max_ns\":{},\"mean_ns\":{}}}",
                s.op.name(),
                h.p50,
                h.p90,
                h.p99,
                h.p999,
                h.max,
                h.mean,
            ))
        })
        .collect();
    format!(
        "{{\"models\":{models},\"inflight\":{},\"queue_bound\":{},\"uptime_ms\":{},\
         \"scheduler\":{{\"inflight\":{},\"queue_bound\":{},\"executors\":{},\
         \"queue_depth\":{},\"shed\":{},\"admitted\":{},\"deadline_exceeded\":{},\"panics\":{}}},\
         \"ops\":[{}],\"accuracy\":{},\"metrics\":{}}}",
        shared.scheduler.inflight(),
        shared.config.scheduler.queue_bound,
        shared.started.elapsed().as_millis(),
        shared.scheduler.inflight(),
        shared.scheduler.queue_bound(),
        shared.scheduler.executors(),
        snapshot.gauge(names::QUEUE_DEPTH.as_str()).unwrap_or(0),
        sched.shed(),
        sched.admitted(),
        sched.deadline_exceeded(),
        sched.panics(),
        ops.join(","),
        shared.accuracy.to_json(),
        snapshot.to_json(),
    )
}

/// The compressor for `stream`, unless its header declares more elements
/// than a `Compress` request could carry (`max_frame / 4`): such a
/// stream is refused before any decoding, so no request makes the
/// daemon build a field larger than it would accept.
fn decoder_for(stream: &[u8], max_frame: u32) -> Result<Box<dyn Compressor>, String> {
    let codec = stream
        .first()
        .and_then(|&magic| fxrz_compressors::codec_for_magic(magic))
        .ok_or("unrecognized compressor stream magic")?;
    let (_, dims, _) = fxrz_compressors::header::read(stream, codec.magic, codec.name)
        .map_err(|e| e.to_string())?;
    let cap = max_frame as usize / 4;
    if dims.len() > cap {
        return Err(format!(
            "stream declares {} elements; this daemon decodes at most {cap}",
            dims.len()
        ));
    }
    Ok((codec.make)())
}

fn dispatch_inner(
    shared: &Shared,
    frame: RequestFrame,
    trace: TraceContext,
    streams: &mut ConnStreams,
) -> ResponseFrame {
    let op = frame.op;
    let op_byte = op as u8;
    let req_id = frame.req_id;
    let request = match Request::decode(op, &frame.payload) {
        Ok(r) => r,
        Err(e) => {
            return ResponseFrame::error(op_byte, req_id, ErrorCode::BadRequest, &e.to_string())
        }
    };
    // Control-plane ops answer even while draining; data-plane work that
    // arrives after the stop flag is refused explicitly rather than
    // silently dropped.
    let draining = shared.should_stop();
    match request {
        Request::Ping => ResponseFrame::ok(Op::Ping, req_id, Reply::Pong.encode()),
        Request::Stats => {
            ResponseFrame::ok(Op::Stats, req_id, Reply::Json(stats_json(shared)).encode())
        }
        Request::LoadModel { id, version, json } => {
            if draining {
                return ResponseFrame::error(
                    op_byte,
                    req_id,
                    ErrorCode::ShuttingDown,
                    "server is draining",
                );
            }
            match shared.registry.load_json(&id, version, &json) {
                Ok(v) => ResponseFrame::ok(
                    Op::LoadModel,
                    req_id,
                    Reply::Json(format!("{{\"id\":\"{id}\",\"version\":{v}}}")).encode(),
                ),
                Err(e) => {
                    ResponseFrame::error(op_byte, req_id, registry_error_code(&e), &e.to_string())
                }
            }
        }
        _ if draining => ResponseFrame::error(
            op_byte,
            req_id,
            ErrorCode::ShuttingDown,
            "server is draining",
        ),
        Request::Features { field } => {
            shared
                .scheduler
                .submit(op_byte, req_id, frame.deadline_ms, trace, move |_ctx| {
                    let fv = fxrz_core::features::extract(&field, StridedSampler::default());
                    match serde_json::to_string(&fv) {
                        Ok(json) => {
                            ResponseFrame::ok(Op::Features, req_id, Reply::Json(json).encode())
                        }
                        Err(e) => ResponseFrame::error(
                            op_byte,
                            req_id,
                            ErrorCode::Internal,
                            &e.to_string(),
                        ),
                    }
                })
        }
        Request::Predict {
            model,
            ratio,
            field,
        } => {
            // Resolve before queueing: a bad reference fails fast and an
            // in-flight request keeps its Arc across hot swaps.
            let served = match shared.registry.resolve(&model) {
                Ok(m) => m,
                Err(e) => {
                    return ResponseFrame::error(
                        op_byte,
                        req_id,
                        registry_error_code(&e),
                        &e.to_string(),
                    )
                }
            };
            shared
                .scheduler
                .submit(
                    op_byte,
                    req_id,
                    frame.deadline_ms,
                    trace,
                    move |_ctx| match served.engine.estimate(&field, ratio) {
                        Ok(est) => ResponseFrame::ok(
                            Op::Predict,
                            req_id,
                            Reply::Json(predict_json(&served, &est)).encode(),
                        ),
                        Err(e) => {
                            ResponseFrame::error(op_byte, req_id, ErrorCode::Engine, &e.to_string())
                        }
                    },
                )
        }
        Request::Compress {
            model,
            ratio,
            field,
        } => {
            let served = match shared.registry.resolve(&model) {
                Ok(m) => m,
                Err(e) => {
                    return ResponseFrame::error(
                        op_byte,
                        req_id,
                        registry_error_code(&e),
                        &e.to_string(),
                    )
                }
            };
            shared
                .scheduler
                .submit(op_byte, req_id, frame.deadline_ms, trace, move |ctx| {
                    let t0 = Instant::now();
                    match served.engine.compress(&field, ratio) {
                        Ok(out) => {
                            let exec_ns =
                                u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
                            let achieved = out.measured_ratio;
                            let rel_err = if ratio > 0.0 {
                                (achieved - ratio).abs() / ratio
                            } else {
                                0.0
                            };
                            let in_tolerance = rel_err <= shared.config.cr_tolerance;
                            let record = AuditRecord {
                                trace_id: ctx.trace.trace_id,
                                req_id,
                                op: "compress".to_owned(),
                                model: served.reference(),
                                target_cr: ratio,
                                predicted_eb: out.estimate.config.coordinate(),
                                config: out.estimate.config.to_string(),
                                achieved_cr: achieved,
                                rel_err,
                                in_tolerance,
                                queue_ns: ctx.queue_ns,
                                exec_ns,
                                uncompressed_bytes: field.nbytes() as u64,
                                compressed_bytes: out.bytes.len() as u64,
                                features: out.estimate.features,
                            };
                            shared.audit(&record);
                            let info = format!(
                                "{{\"model\":\"{}\",\"measured_ratio\":{},\"config\":\"{}\",\"analysis_ms\":{},\"compress_ms\":{},\"trace_id\":{}}}",
                                served.reference(),
                                out.measured_ratio,
                                out.estimate.config,
                                out.estimate.analysis_time.as_secs_f64() * 1e3,
                                out.compression_time.as_secs_f64() * 1e3,
                                ctx.trace.trace_id,
                            );
                            ResponseFrame::ok(
                                Op::Compress,
                                req_id,
                                Reply::Compress {
                                    info,
                                    stream: out.bytes,
                                }
                                .encode(),
                            )
                        }
                        Err(e) => {
                            ResponseFrame::error(op_byte, req_id, ErrorCode::Engine, &e.to_string())
                        }
                    }
                })
        }
        Request::Decompress { stream } => {
            shared
                .scheduler
                .submit(op_byte, req_id, frame.deadline_ms, trace, move |_ctx| {
                    let comp = match decoder_for(&stream, shared.config.max_frame) {
                        Ok(comp) => comp,
                        Err(e) => {
                            return ResponseFrame::error(op_byte, req_id, ErrorCode::Engine, &e)
                        }
                    };
                    match comp.decompress(&stream) {
                        Ok(field) => {
                            ResponseFrame::ok(Op::Decompress, req_id, Reply::Field(field).encode())
                        }
                        Err(e) => {
                            ResponseFrame::error(op_byte, req_id, ErrorCode::Engine, &e.to_string())
                        }
                    }
                })
        }
        Request::DecompressRange { start, end, stream } => {
            shared
                .scheduler
                .submit(op_byte, req_id, frame.deadline_ms, trace, move |_ctx| {
                    let comp = match decoder_for(&stream, shared.config.max_frame) {
                        Ok(comp) => comp,
                        Err(e) => {
                            return ResponseFrame::error(op_byte, req_id, ErrorCode::Engine, &e)
                        }
                    };
                    let telemetry = &shared.metrics;
                    telemetry.incr(names::SLAB_RANGE_REQUESTS);
                    match comp.decompress_range(&stream, start as usize..end as usize) {
                        Ok(values) => {
                            telemetry.add(names::SLAB_RANGE_ELEMS, values.len() as u64);
                            ResponseFrame::ok(
                                Op::DecompressRange,
                                req_id,
                                Reply::Range(values).encode(),
                            )
                        }
                        Err(e) => {
                            ResponseFrame::error(op_byte, req_id, ErrorCode::Engine, &e.to_string())
                        }
                    }
                })
        }
        Request::StreamOpen {
            target_ratio,
            window,
            models,
        } => {
            // Resolve model references up front (like Predict/Compress)
            // so the session pins its model Arcs across hot swaps.
            let mut trained = Vec::with_capacity(models.len());
            let mut refs = Vec::with_capacity(models.len());
            for m in &models {
                match shared.registry.resolve(m) {
                    Ok(served) => {
                        refs.push(served.reference());
                        trained.push(served.engine.model().clone());
                    }
                    Err(e) => {
                        return ResponseFrame::error(
                            op_byte,
                            req_id,
                            registry_error_code(&e),
                            &e.to_string(),
                        )
                    }
                }
            }
            let mut config = StreamConfig::new(target_ratio);
            if window != 0 {
                config.window = window as usize;
            }
            let encoder = match StreamEncoder::with_models(config, trained) {
                Ok(enc) => enc,
                Err(e) => {
                    return ResponseFrame::error(
                        op_byte,
                        req_id,
                        ErrorCode::BadRequest,
                        &e.to_string(),
                    )
                }
            };
            let header = encoder.header();
            let id = streams.next_id;
            streams.next_id += 1;
            streams.sessions.push((id, StreamSession { encoder }));
            shared.metrics.incr(names::STREAM_OPENED);
            let info = format!(
                "{{\"stream_id\":{id},\"target_ratio\":{target_ratio},\"models\":{},\"trace_id\":{}}}",
                serde_json::to_string(&refs).unwrap_or_else(|_| "[]".to_owned()),
                trace.trace_id,
            );
            ResponseFrame::ok(
                Op::StreamOpen,
                req_id,
                Reply::Stream {
                    info,
                    bytes: header,
                }
                .encode(),
            )
        }
        Request::StreamFrame { stream_id, field } => {
            let Some(session) = streams.get_mut(stream_id) else {
                return ResponseFrame::error(
                    op_byte,
                    req_id,
                    ErrorCode::NoSuchStream,
                    &format!("no open stream {stream_id} on this connection"),
                );
            };
            shared
                .scheduler
                .submit(op_byte, req_id, frame.deadline_ms, trace, move |ctx| {
                    let t0 = Instant::now();
                    match session.encoder.push(field.data()) {
                        Ok(outcome) => {
                            let exec_ns =
                                u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
                            let rel_err = (outcome.achieved_ratio - outcome.target_ratio).abs()
                                / outcome.target_ratio;
                            let in_tolerance = rel_err <= shared.config.cr_tolerance;
                            let record = AuditRecord {
                                trace_id: ctx.trace.trace_id,
                                req_id,
                                op: "stream".to_owned(),
                                model: format!("stream:{}", outcome.codec),
                                target_cr: outcome.target_ratio,
                                predicted_eb: outcome.eb,
                                config: format!("abs={:.3e}", outcome.eb),
                                achieved_cr: outcome.achieved_ratio,
                                rel_err,
                                in_tolerance,
                                queue_ns: ctx.queue_ns,
                                exec_ns,
                                uncompressed_bytes: field.nbytes() as u64,
                                compressed_bytes: outcome.bytes.len() as u64,
                                features: outcome.features,
                            };
                            shared.audit(&record);
                            shared.metrics.incr(names::STREAM_FRAMES);
                            let info = format!(
                                "{{\"stream_id\":{stream_id},\"frame\":{},\"codec\":\"{}\",\"eb\":{:e},\
                                 \"frame_target\":{},\"achieved\":{},\"cumulative\":{},\
                                 \"retried\":{},\"in_tolerance\":{},\"trace_id\":{}}}",
                                outcome.index,
                                outcome.codec,
                                outcome.eb,
                                outcome.target_ratio,
                                outcome.achieved_ratio,
                                outcome.cumulative_ratio,
                                outcome.retried,
                                in_tolerance,
                                ctx.trace.trace_id,
                            );
                            ResponseFrame::ok(
                                Op::StreamFrame,
                                req_id,
                                Reply::Stream {
                                    info,
                                    bytes: outcome.bytes,
                                }
                                .encode(),
                            )
                        }
                        Err(e) => {
                            ResponseFrame::error(op_byte, req_id, ErrorCode::Engine, &e.to_string())
                        }
                    }
                })
        }
        Request::StreamClose { stream_id } => {
            let Some(at) = streams
                .sessions
                .iter()
                .position(|(sid, _)| *sid == stream_id)
            else {
                return ResponseFrame::error(
                    op_byte,
                    req_id,
                    ErrorCode::NoSuchStream,
                    &format!("no open stream {stream_id} on this connection"),
                );
            };
            let (_, session) = streams.sessions.remove(at);
            let trailer = session.encoder.finish();
            let summary = session.encoder.summary();
            shared.metrics.incr(names::STREAM_CLOSED);
            let codecs: Vec<String> = summary
                .codecs
                .iter()
                .map(|(name, count)| format!("{{\"codec\":\"{name}\",\"frames\":{count}}}"))
                .collect();
            let info = format!(
                "{{\"stream_id\":{stream_id},\"frames\":{},\"samples\":{},\
                 \"raw_bytes\":{},\"comp_bytes\":{},\"target_ratio\":{},\
                 \"cumulative_ratio\":{},\"retries\":{},\"codecs\":[{}],\"trace_id\":{}}}",
                summary.frames,
                summary.samples,
                summary.raw_bytes,
                summary.comp_bytes,
                summary.target_ratio,
                summary.cumulative_ratio,
                summary.retries,
                codecs.join(","),
                trace.trace_id,
            );
            ResponseFrame::ok(
                Op::StreamClose,
                req_id,
                Reply::Stream {
                    info,
                    bytes: trailer,
                }
                .encode(),
            )
        }
    }
}
