//! The request scheduler: bounded admission, per-request deadlines, and
//! execution on the shared `fxrz-parallel` worker pool.
//!
//! Admission is a single atomic counter against a configurable bound —
//! past it the caller gets an immediate [`Busy`](Status::Busy) frame
//! instead of unbounded buffering, so an overloaded server sheds load in
//! O(1) rather than OOMing. Admitted work executes *on pool workers*:
//! every `par_map` a request issues internally then runs inline (the
//! pool's nested-region rule), which keeps served results bit-identical
//! to direct library calls at any thread count. With a single-threaded
//! pool the job runs inline on the connection thread — the same inline
//! path, the same bytes.
//!
//! Every admitted job runs with the request's [`TraceContext`] attached
//! to the executing thread and a `serve.request` span open around it, so
//! codec/compressor spans opened inside the job (and fanned out through
//! `par_map` via `TaskScope`) all carry the request's trace id into the
//! flight recorder. The job receives a [`JobCtx`] with the trace and the
//! measured queue wait.

use crate::protocol::{code, ResponseFrame, Status};
use fxrz_telemetry::TraceContext;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Scheduler tuning.
#[derive(Clone, Copy, Debug)]
pub struct SchedulerConfig {
    /// Maximum requests admitted at once (queued + executing). Further
    /// requests are shed with `Busy`.
    pub queue_bound: usize,
    /// Deadline applied when a request frame carries `deadline_ms == 0`.
    pub default_deadline: Duration,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        Self {
            queue_bound: 64,
            default_deadline: Duration::from_secs(30),
        }
    }
}

/// Request-scoped context handed to the job closure: the trace it runs
/// under and how long it waited in the queue.
#[derive(Clone, Copy, Debug)]
pub struct JobCtx {
    /// Trace context attached to the executing thread for the job's
    /// duration (also readable via `fxrz_telemetry::trace::current()`).
    pub trace: TraceContext,
    /// Nanoseconds between admission and execution start.
    pub queue_ns: u64,
}

/// Cumulative scheduler outcome counters, cheap enough to read on every
/// `Stats` request. Lives behind an `Arc` because the wrapped job closure
/// must be `'static` and cannot borrow the scheduler.
#[derive(Debug, Default)]
pub struct SchedCounters {
    shed: AtomicU64,
    admitted: AtomicU64,
    deadline_exceeded: AtomicU64,
    panics: AtomicU64,
}

impl SchedCounters {
    /// Requests shed with `Busy` because the bound was hit.
    pub fn shed(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }

    /// Requests admitted past the bound check.
    pub fn admitted(&self) -> u64 {
        self.admitted.load(Ordering::Relaxed)
    }

    /// Requests dropped after expiring in the queue.
    pub fn deadline_exceeded(&self) -> u64 {
        self.deadline_exceeded.load(Ordering::Relaxed)
    }

    /// Job panics converted to `INTERNAL` error replies.
    pub fn panics(&self) -> u64 {
        self.panics.load(Ordering::Relaxed)
    }
}

/// Bounded scheduler; one instance per server, shared by all connections.
pub struct Scheduler {
    config: SchedulerConfig,
    inflight: AtomicUsize,
    counters: Arc<SchedCounters>,
}

impl Scheduler {
    /// A scheduler with the given bounds.
    pub fn new(config: SchedulerConfig) -> Self {
        Self {
            config,
            inflight: AtomicUsize::new(0),
            counters: Arc::new(SchedCounters::default()),
        }
    }

    /// Requests currently admitted (queued or executing).
    pub fn inflight(&self) -> usize {
        self.inflight.load(Ordering::Relaxed)
    }

    /// Configured admission bound.
    pub fn queue_bound(&self) -> usize {
        self.config.queue_bound
    }

    /// Cumulative outcome counters.
    pub fn counters(&self) -> &SchedCounters {
        &self.counters
    }

    /// Admits, executes and awaits one request. Returns the job's
    /// response, or `Busy` when the bound is hit, or a
    /// `DEADLINE_EXCEEDED` / `INTERNAL` error frame when the job expired
    /// in the queue or panicked.
    pub fn submit<F>(
        &self,
        op: u8,
        req_id: u64,
        deadline_ms: u32,
        trace: TraceContext,
        job: F,
    ) -> ResponseFrame
    where
        F: FnOnce(&JobCtx) -> ResponseFrame + Send + 'static,
    {
        self.submit_from(Instant::now(), op, req_id, deadline_ms, trace, job)
    }

    /// [`Self::submit`] with an explicit enqueue instant — the deadline
    /// check compares against this, which lets tests inject an
    /// already-expired request deterministically.
    pub fn submit_from<F>(
        &self,
        enqueued: Instant,
        op: u8,
        req_id: u64,
        deadline_ms: u32,
        trace: TraceContext,
        job: F,
    ) -> ResponseFrame
    where
        F: FnOnce(&JobCtx) -> ResponseFrame + Send + 'static,
    {
        let telemetry = fxrz_telemetry::global();
        // Admission: one fetch_add decides; losers are shed immediately.
        let admitted = self.inflight.fetch_add(1, Ordering::SeqCst);
        if admitted >= self.config.queue_bound {
            self.inflight.fetch_sub(1, Ordering::SeqCst);
            telemetry.incr(crate::names::SCHED_SHED);
            self.counters.shed.fetch_add(1, Ordering::Relaxed);
            return ResponseFrame::busy(op, req_id);
        }
        telemetry.set_gauge(crate::names::QUEUE_DEPTH, (admitted + 1) as i64);
        telemetry.incr(crate::names::SCHED_ADMITTED);
        self.counters.admitted.fetch_add(1, Ordering::Relaxed);

        let deadline = if deadline_ms == 0 {
            self.config.default_deadline
        } else {
            Duration::from_millis(u64::from(deadline_ms))
        };
        let (tx, rx) = mpsc::sync_channel::<ResponseFrame>(1);
        let counters = Arc::clone(&self.counters);
        let wrapped = move || {
            // The request's trace rides the job onto whichever thread
            // executes it; spans opened below (including pool fan-out via
            // TaskScope) inherit it.
            let _trace = fxrz_telemetry::trace::attach(trace);
            let queued = enqueued.elapsed();
            let queue_ns = u64::try_from(queued.as_nanos()).unwrap_or(u64::MAX);
            fxrz_telemetry::global().observe(crate::names::SCHED_QUEUE_NS, queue_ns);
            // Deadline is checked when the job reaches the front: work
            // that sat in the queue past its budget is dropped *with an
            // explicit error reply*, never silently.
            let response = if queued > deadline {
                fxrz_telemetry::global().incr(crate::names::SCHED_DEADLINE_EXCEEDED);
                counters.deadline_exceeded.fetch_add(1, Ordering::Relaxed);
                ResponseFrame::error(
                    op,
                    req_id,
                    code::DEADLINE_EXCEEDED,
                    "request expired in queue",
                )
            } else {
                let ctx = JobCtx { trace, queue_ns };
                let span = fxrz_telemetry::span!(crate::names::SPAN_REQUEST);
                // Pool workers do not catch panics from standalone jobs;
                // without this a panicking request would kill a worker
                // and leave the client waiting forever.
                let outcome = catch_unwind(AssertUnwindSafe(|| job(&ctx)));
                drop(span);
                match outcome {
                    Ok(resp) => resp,
                    Err(_) => {
                        fxrz_telemetry::global().incr(crate::names::SCHED_PANICS);
                        counters.panics.fetch_add(1, Ordering::Relaxed);
                        // A panic is exactly the moment the per-request
                        // view matters: dump the flight-recorder tail so
                        // the operator sees what led up to it.
                        let records = fxrz_telemetry::flight_recorder().dump();
                        let tail = records.len().saturating_sub(32);
                        eprintln!(
                            "request {req_id:#018x} (trace {:016x}) panicked; \
                             flight recorder tail:\n{}",
                            trace.trace_id,
                            fxrz_telemetry::render_records(&records[tail..]),
                        );
                        ResponseFrame::error(
                            op,
                            req_id,
                            code::INTERNAL,
                            "request executor panicked",
                        )
                    }
                }
            };
            let _ = tx.send(response);
        };
        // On a pool worker, nested par_maps run inline — bit-identical to
        // a direct call. Without workers (threads == 1) the job is handed
        // back and runs inline right here: the same inline path.
        if let Err(job) = fxrz_parallel::try_spawn(wrapped) {
            job();
        }
        let response = rx.recv().unwrap_or_else(|_| {
            ResponseFrame::error(op, req_id, code::INTERNAL, "request executor vanished")
        });
        let now = self.inflight.fetch_sub(1, Ordering::SeqCst) - 1;
        telemetry.set_gauge(crate::names::QUEUE_DEPTH, now as i64);
        debug_assert_ne!(response.status, Status::Busy);
        response
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Op;
    use std::sync::{Arc, Barrier};

    fn ok_frame() -> ResponseFrame {
        ResponseFrame::ok(Op::Ping, 1, Vec::new())
    }

    fn trace() -> TraceContext {
        fxrz_telemetry::TraceIdGen::new(0xDEAD).next()
    }

    #[test]
    fn executes_and_returns_the_job_response() {
        let s = Scheduler::new(SchedulerConfig::default());
        let resp = s.submit(Op::Ping as u8, 1, 0, trace(), |_| ok_frame());
        assert_eq!(resp.status, Status::Ok);
        assert_eq!(s.inflight(), 0);
        assert_eq!(s.counters().admitted(), 1);
    }

    #[test]
    fn job_observes_its_trace_context() {
        let s = Scheduler::new(SchedulerConfig::default());
        let t = trace();
        let resp = s.submit(Op::Ping as u8, 3, 0, t, move |ctx| {
            assert_eq!(ctx.trace.trace_id, t.trace_id);
            assert_eq!(
                fxrz_telemetry::trace::current().map(|c| c.trace_id),
                Some(t.trace_id),
                "executing thread must carry the request trace"
            );
            ok_frame()
        });
        assert_eq!(resp.status, Status::Ok);
    }

    #[test]
    fn sheds_past_the_bound() {
        let s = Arc::new(Scheduler::new(SchedulerConfig {
            queue_bound: 1,
            ..SchedulerConfig::default()
        }));
        // Hold the single slot with a job parked on a barrier, then
        // submit a second request: it must get Busy, not block.
        let gate = Arc::new(Barrier::new(2));
        let s2 = Arc::clone(&s);
        let g2 = Arc::clone(&gate);
        let holder = std::thread::spawn(move || {
            s2.submit(Op::Compress as u8, 1, 0, trace(), move |_| {
                g2.wait(); // filled
                g2.wait(); // released
                ok_frame()
            })
        });
        gate.wait(); // slot is now occupied
        let shed = s.submit(Op::Compress as u8, 2, 0, trace(), |_| ok_frame());
        assert_eq!(shed.status, Status::Busy);
        assert_eq!(shed.req_id, 2);
        assert!(s.counters().shed() >= 1);
        gate.wait(); // release the holder
        assert_eq!(holder.join().expect("join").status, Status::Ok);
        assert_eq!(s.inflight(), 0);
    }

    #[test]
    fn expired_requests_get_deadline_errors() {
        let s = Scheduler::new(SchedulerConfig::default());
        let past = Instant::now() - Duration::from_secs(2);
        let resp = s.submit_from(past, Op::Compress as u8, 9, 1, trace(), |_| {
            panic!("an expired job must never run")
        });
        assert_eq!(resp.status, Status::Error);
        let (code, _) = resp.error_parts().expect("parts");
        assert_eq!(code, code::DEADLINE_EXCEEDED);
        assert_eq!(s.counters().deadline_exceeded(), 1);
    }

    #[test]
    fn panicking_jobs_reply_internal_error() {
        let s = Scheduler::new(SchedulerConfig::default());
        let resp = s.submit(Op::Features as u8, 5, 0, trace(), |_| panic!("boom"));
        assert_eq!(resp.status, Status::Error);
        let (code, msg) = resp.error_parts().expect("parts");
        assert_eq!(code, code::INTERNAL);
        assert!(msg.contains("panicked"));
        assert_eq!(s.inflight(), 0);
        assert_eq!(s.counters().panics(), 1);
        // the pool must still be alive for the next request
        let again = s.submit(Op::Ping as u8, 6, 0, trace(), |_| ok_frame());
        assert_eq!(again.status, Status::Ok);
    }
}
