//! The request scheduler: bounded admission, per-request deadlines, and
//! a bound on how many requests execute at once.
//!
//! Admission is a single atomic counter against a configurable bound —
//! past it the caller gets an immediate [`Busy`](Status::Busy) frame
//! instead of unbounded buffering, so an overloaded server sheds load in
//! O(1) rather than OOMing. An admitted request then waits for one of `E`
//! executors, `E` being the `fxrz-parallel` thread count when the
//! scheduler is built (`--threads` or `FXRZ_THREADS`). Executors are
//! handed out by ticket, in arrival order, and the job runs on the thread
//! that submitted it: the connection thread that read the request. It
//! runs under `with_threads(1, ..)`, so every `par_map` it issues runs
//! inline in chunk order, which keeps served results bit-identical to
//! direct library calls at any thread count.
//!
//! Every admitted job runs with the request's [`TraceContext`] attached
//! and a `serve.request` span open around it, so codec/compressor spans
//! opened inside the job all carry the request's trace id into the
//! flight recorder. The job receives a [`JobCtx`] with the trace and its
//! measured wait for an executor.

use crate::lock::{Guard, Mutex};
use crate::names;
use crate::protocol::{ErrorCode, ResponseFrame, Status};
use fxrz_telemetry::{Counter, Gauge, HdrHistogram, MetricsRegistry, TraceContext};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, MutexGuard};
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
/// under and how long it waited for an executor.
#[derive(Clone, Copy, Debug)]
pub struct JobCtx {
    /// Trace context attached to the executing thread for the job's
    /// duration (also readable via `fxrz_telemetry::trace::current()`).
    pub trace: TraceContext,
    /// Nanoseconds between submission and the job getting an executor.
    pub queue_ns: u64,
}

/// The scheduler's `serve.sched.*` and queue series, resolved once in
/// the owning server's registry and cheap enough to read on every
/// `Stats` request.
pub struct SchedCounters {
    shed: Arc<Counter>,
    admitted: Arc<Counter>,
    deadline_exceeded: Arc<Counter>,
    panics: Arc<Counter>,
    queue_depth: Arc<Gauge>,
    queue_ns: Arc<HdrHistogram>,
}

impl SchedCounters {
    fn resolve(metrics: &MetricsRegistry) -> Self {
        Self {
            shed: metrics.counter(names::SCHED_SHED),
            admitted: metrics.counter(names::SCHED_ADMITTED),
            deadline_exceeded: metrics.counter(names::SCHED_DEADLINE_EXCEEDED),
            panics: metrics.counter(names::SCHED_PANICS),
            queue_depth: metrics.gauge(names::QUEUE_DEPTH),
            queue_ns: metrics.histogram(names::SCHED_QUEUE_NS),
        }
    }

    /// Requests shed with `Busy` because the bound was hit.
    pub fn shed(&self) -> u64 {
        self.shed.get()
    }

    /// Requests admitted past the bound check.
    pub fn admitted(&self) -> u64 {
        self.admitted.get()
    }

    /// Requests dropped after expiring in the queue.
    pub fn deadline_exceeded(&self) -> u64 {
        self.deadline_exceeded.get()
    }

    /// Job panics converted to `Internal` error replies.
    pub fn panics(&self) -> u64 {
        self.panics.get()
    }
}

/// Executor hand-out state: tickets `started..issued` are waiting.
#[derive(Default)]
struct Tickets {
    /// One ticket per admitted request, in arrival order.
    issued: u64,
    /// Tickets whose job got an executor.
    started: u64,
    /// Executors in use.
    running: usize,
}

/// Bounded scheduler; one instance per server, shared by all connections.
pub struct Scheduler {
    config: SchedulerConfig,
    inflight: AtomicUsize,
    executors: usize,
    tickets: Mutex<Tickets>,
    /// Signalled when an executor frees or a waiter starts, either of
    /// which can make the next ticket's turn.
    turn: Condvar,
    counters: SchedCounters,
}

/// One executor held by a running job; freed on drop, panics included.
struct Executor<'a>(&'a Scheduler);

impl Drop for Executor<'_> {
    fn drop(&mut self) {
        self.0.tickets().running -= 1;
        self.0.turn.notify_all();
    }
}

impl Scheduler {
    /// A scheduler with the given bounds and one executor per
    /// `fxrz-parallel` thread, recording its series into `metrics` (the
    /// owning server's registry).
    pub fn new(config: SchedulerConfig, metrics: &MetricsRegistry) -> Self {
        Self {
            config,
            inflight: AtomicUsize::new(0),
            executors: fxrz_parallel::current_threads(),
            tickets: Mutex::default(),
            turn: Condvar::new(),
            counters: SchedCounters::resolve(metrics),
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

    /// How many admitted requests may execute at once.
    pub fn executors(&self) -> usize {
        self.executors
    }

    /// Cumulative outcome counters.
    pub fn counters(&self) -> &SchedCounters {
        &self.counters
    }

    fn tickets(&self) -> Guard<MutexGuard<'_, Tickets>> {
        self.tickets.lock()
    }

    /// Takes the next ticket and blocks until it is first in line and an
    /// executor is free.
    fn acquire(&self) -> Executor<'_> {
        let mut tickets = self.tickets();
        let ticket = tickets.issued;
        tickets.issued += 1;
        self.counters.queue_depth.add(1);
        let mut tickets = tickets.wait_while(&self.turn, |t| {
            ticket != t.started || t.running == self.executors
        });
        tickets.started += 1;
        tickets.running += 1;
        self.counters.queue_depth.add(-1);
        drop(tickets);
        // The next ticket may find an executor still free.
        self.turn.notify_all();
        Executor(self)
    }

    /// Admits one request, waits for an executor and runs `job` on the
    /// calling thread. Returns the job's response, or `Busy` when the
    /// bound is hit, or a `DeadlineExceeded` / `Internal` error frame when
    /// the job waited past its deadline or panicked.
    pub fn submit<F>(
        &self,
        op: u8,
        req_id: u64,
        deadline_ms: u32,
        trace: TraceContext,
        job: F,
    ) -> ResponseFrame
    where
        F: FnOnce(&JobCtx) -> ResponseFrame,
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
        F: FnOnce(&JobCtx) -> ResponseFrame,
    {
        crate::lock::blocking("Scheduler::submit");
        // Admission: one fetch_add decides; losers are shed immediately.
        let admitted = self.inflight.fetch_add(1, Ordering::SeqCst);
        if admitted >= self.config.queue_bound {
            self.inflight.fetch_sub(1, Ordering::SeqCst);
            self.counters.shed.incr();
            return ResponseFrame::busy(op, req_id);
        }
        self.counters.admitted.incr();

        let deadline = if deadline_ms == 0 {
            self.config.default_deadline
        } else {
            Duration::from_millis(u64::from(deadline_ms))
        };
        let response = {
            let _executor = self.acquire();
            // The request's spans root at `serve.request` whatever the
            // submitting thread has open, and carry the request's trace.
            let _root = fxrz_telemetry::TaskScope::default().adopt();
            let _trace = fxrz_telemetry::trace::attach(trace);
            let queued = enqueued.elapsed();
            let queue_ns = u64::try_from(queued.as_nanos()).unwrap_or(u64::MAX);
            self.counters.queue_ns.record(queue_ns);
            // Deadline is checked when the job gets its executor: work
            // that waited past its budget is dropped *with an explicit
            // error reply*, never silently.
            if queued > deadline {
                self.counters.deadline_exceeded.incr();
                ResponseFrame::error(
                    op,
                    req_id,
                    ErrorCode::DeadlineExceeded,
                    "request expired in queue",
                )
            } else {
                let ctx = JobCtx { trace, queue_ns };
                let span = fxrz_telemetry::span!(names::SPAN_REQUEST);
                // One request, one core: nested par_maps run inline, so
                // the bytes match a direct library call. A panic answers
                // `Internal` and leaves the connection serving.
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    fxrz_parallel::with_threads(1, || job(&ctx))
                }));
                drop(span);
                match outcome {
                    Ok(resp) => resp,
                    Err(_) => {
                        self.counters.panics.incr();
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
                            ErrorCode::Internal,
                            "request executor panicked",
                        )
                    }
                }
            }
        };
        self.inflight.fetch_sub(1, Ordering::SeqCst);
        debug_assert_ne!(response.status, Status::Busy);
        response
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Op;
    use std::sync::Barrier;

    fn ok_frame() -> ResponseFrame {
        ResponseFrame::ok(Op::Ping, 1, Vec::new())
    }

    fn trace() -> TraceContext {
        fxrz_telemetry::TraceIdGen::new(0xDEAD).next()
    }

    /// A scheduler with `executors` executors, recording into `metrics`.
    fn scheduler(executors: usize, queue_bound: usize, metrics: &MetricsRegistry) -> Scheduler {
        let config = SchedulerConfig {
            queue_bound,
            ..SchedulerConfig::default()
        };
        fxrz_parallel::with_threads(executors, || Scheduler::new(config, metrics))
    }

    fn queue_depth(metrics: &MetricsRegistry) -> i64 {
        metrics.gauge(names::QUEUE_DEPTH).get()
    }

    #[test]
    fn executes_and_returns_the_job_response() {
        let metrics = MetricsRegistry::new();
        let s = scheduler(2, 64, &metrics);
        assert_eq!(s.executors(), 2);
        let caller = std::thread::current().id();
        let resp = s.submit(Op::Ping as u8, 1, 0, trace(), |_| {
            assert_eq!(std::thread::current().id(), caller, "runs on the caller");
            assert_eq!(fxrz_parallel::current_threads(), 1, "nested maps inline");
            ok_frame()
        });
        assert_eq!(resp.status, Status::Ok);
        assert_eq!(s.inflight(), 0);
        assert_eq!(queue_depth(&metrics), 0);
        assert_eq!(s.counters().admitted(), 1);
    }

    #[test]
    fn job_observes_its_trace_context() {
        let s = scheduler(2, 64, &MetricsRegistry::new());
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
        let s = scheduler(2, 1, &MetricsRegistry::new());
        // Hold the single slot with a job parked on a barrier, then
        // submit a second request: it must get Busy, not block.
        let gate = Barrier::new(2);
        std::thread::scope(|scope| {
            let holder = scope.spawn(|| {
                s.submit(Op::Compress as u8, 1, 0, trace(), |_| {
                    gate.wait(); // filled
                    gate.wait(); // released
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
        });
        assert_eq!(s.inflight(), 0);
    }

    #[test]
    fn two_executors_run_two_jobs_at_once() {
        let s = scheduler(2, 64, &MetricsRegistry::new());
        // Each job waits for the other: both complete only if they run
        // at the same time.
        let both = Barrier::new(2);
        let replies: Vec<ResponseFrame> = std::thread::scope(|scope| {
            let jobs: Vec<_> = (0..2)
                .map(|i| {
                    let (s, both) = (&s, &both);
                    scope.spawn(move || {
                        s.submit(Op::Compress as u8, i, 0, trace(), |_| {
                            both.wait();
                            ok_frame()
                        })
                    })
                })
                .collect();
            jobs.into_iter().map(|j| j.join().expect("join")).collect()
        });
        assert!(replies.iter().all(|r| r.status == Status::Ok));
    }

    #[test]
    fn one_executor_runs_one_job_at_a_time() {
        let metrics = MetricsRegistry::new();
        let s = scheduler(1, 64, &metrics);
        let running = AtomicUsize::new(0);
        let high_water = AtomicUsize::new(0);
        let start = Barrier::new(8);
        let replies: Vec<ResponseFrame> = std::thread::scope(|scope| {
            let jobs: Vec<_> = (0..8)
                .map(|i| {
                    let (s, start, running, high_water) = (&s, &start, &running, &high_water);
                    scope.spawn(move || {
                        start.wait();
                        s.submit(Op::Compress as u8, i, 0, trace(), |_| {
                            let now = running.fetch_add(1, Ordering::SeqCst) + 1;
                            high_water.fetch_max(now, Ordering::SeqCst);
                            // Give the other submitters room to overlap.
                            for _ in 0..100 {
                                std::thread::yield_now();
                            }
                            running.fetch_sub(1, Ordering::SeqCst);
                            ok_frame()
                        })
                    })
                })
                .collect();
            jobs.into_iter().map(|j| j.join().expect("join")).collect()
        });
        assert_eq!(replies.len(), 8);
        assert!(replies.iter().all(|r| r.status == Status::Ok));
        assert_eq!(high_water.load(Ordering::SeqCst), 1);
        assert_eq!(s.counters().admitted(), 8);
        assert_eq!(s.inflight(), 0);
        assert_eq!(queue_depth(&metrics), 0);
    }

    #[test]
    fn waiters_start_in_arrival_order() {
        const WAITERS: u64 = 6;
        let metrics = MetricsRegistry::new();
        let s = scheduler(1, 64, &metrics);
        let gate = Barrier::new(2);
        let order = std::sync::Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            let holder = scope.spawn(|| {
                s.submit(Op::Compress as u8, 0, 0, trace(), |_| {
                    gate.wait(); // holding the only executor
                    gate.wait(); // released
                    ok_frame()
                })
            });
            gate.wait();
            let waiters: Vec<_> = (1..=WAITERS)
                .map(|i| {
                    let (s, order) = (&s, &order);
                    let waiter = scope.spawn(move || {
                        s.submit(Op::Compress as u8, i, 0, trace(), |_| {
                            order.lock().expect("order lock").push(i);
                            ok_frame()
                        })
                    });
                    // Waiter `i` holds a ticket before `i + 1` is spawned.
                    while queue_depth(&metrics) < i as i64 {
                        std::thread::yield_now();
                    }
                    waiter
                })
                .collect();
            gate.wait();
            assert_eq!(holder.join().expect("join").status, Status::Ok);
            for waiter in waiters {
                assert_eq!(waiter.join().expect("join").status, Status::Ok);
            }
        });
        let order = order.into_inner().expect("order lock");
        assert_eq!(order, (1..=WAITERS).collect::<Vec<_>>());
        assert_eq!(queue_depth(&metrics), 0);
    }

    #[test]
    fn expired_requests_get_deadline_errors() {
        let s = scheduler(1, 64, &MetricsRegistry::new());
        let past = Instant::now() - Duration::from_secs(2);
        let resp = s.submit_from(past, Op::Compress as u8, 9, 1, trace(), |_| {
            panic!("an expired job must never run")
        });
        assert_eq!(resp.status, Status::Error);
        let (code, _) = resp.error_parts().expect("parts");
        assert_eq!(code, ErrorCode::DeadlineExceeded as u16);
        assert_eq!(s.counters().deadline_exceeded(), 1);
    }

    #[test]
    fn panicking_jobs_reply_internal_error() {
        for executors in [1, 2] {
            let metrics = MetricsRegistry::new();
            let s = scheduler(executors, 64, &metrics);
            let resp = s.submit(Op::Features as u8, 5, 0, trace(), |_| panic!("boom"));
            assert_eq!(resp.status, Status::Error);
            let (code, msg) = resp.error_parts().expect("parts");
            assert_eq!(code, ErrorCode::Internal as u16);
            assert!(msg.contains("panicked"));
            assert_eq!(s.inflight(), 0);
            assert_eq!(s.counters().panics(), 1);
            // The panic freed its executor: with one executor, the next
            // request would otherwise wait forever.
            let again = s.submit(Op::Ping as u8, 6, 0, trace(), |_| ok_frame());
            assert_eq!(again.status, Status::Ok);
            assert_eq!(queue_depth(&metrics), 0);
        }
    }
}
