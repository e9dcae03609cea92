//! # fxrz-parallel — the shared worker pool behind every FXRZ hot path
//!
//! FXRZ's pitch is that analysis is nearly free next to a
//! compressor-in-the-loop search, so the analysis kernels themselves must
//! run as fast as the hardware allows. This crate provides the one
//! data-parallel substrate they all share:
//!
//! * a **persistent pool** of worker threads fed through a shared MPMC
//!   work queue (`crossbeam::channel`) — no per-call thread spawning, no
//!   chunk-barrier convoys: every worker pulls the next chunk the moment
//!   it finishes the last one;
//! * chunked [`par_map`] / [`par_reduce`] over index ranges with
//!   **thread-count-independent chunk boundaries and a fixed reduction
//!   order**, so results are bit-identical whether the pool runs 1 thread
//!   or 64;
//! * a **global pool** configured once per process — `--threads` on the
//!   CLI, the `FXRZ_THREADS` environment variable, or
//!   [`configure_threads`] — plus a scoped [`with_threads`] override used
//!   by the determinism tests;
//! * **per-worker telemetry**: busy-time histograms and task counters
//!   wired into `fxrz-telemetry` (`parallel.worker.N.busy_ns`,
//!   `parallel.worker.N.tasks`, pool-level gauges and counters).
//!
//! ## Determinism contract
//!
//! For a fixed `(len, chunk_size, f)` triple, [`Pool::par_map`] always
//! evaluates `f` on the same chunk ranges and returns the results in
//! chunk order. Which thread evaluates which chunk varies run to run; the
//! returned `Vec` does not. [`Pool::par_reduce`] folds the per-chunk
//! values strictly in chunk order, so floating-point reductions are
//! bit-identical across thread counts. Callers must keep `chunk_size`
//! independent of the thread count for this to hold.
//!
//! ## Nesting
//!
//! A `par_map` issued from inside a pool worker runs inline and
//! sequentially (same chunk order, hence same results). This keeps nested
//! parallelism deadlock-free without a work-stealing scheduler: the outer
//! level already saturates the pool.

#![warn(missing_docs)]

use fxrz_telemetry::Resolved;
use std::cell::Cell;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, OnceLock};
#[expect(
    clippy::disallowed_types,
    reason = "Instant times worker busy-ns telemetry only"
)]
use std::time::Instant;

/// A type-erased unit of pool work.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// Telemetry metric name inventory. The per-worker series are `{w}`
/// templates, filled once per worker when a pool is built.
pub mod names {
    use fxrz_telemetry::{Name, Template};

    /// Worker threads in the pool.
    pub const POOL_THREADS: Name = Name::new("parallel.pool.threads");
    /// `par_map` invocations.
    pub const POOL_PAR_MAPS: Name = Name::new("parallel.pool.par_maps");
    /// Chunks dispatched across all `par_map`s.
    pub const POOL_CHUNKS: Name = Name::new("parallel.pool.chunks");
    /// Per-worker busy-time template (`{w}` is the worker index).
    pub const WORKER_BUSY_NS: Template = Template::new("parallel.worker.{w}.busy_ns");
    /// Per-worker completed-task template (`{w}` is the worker index).
    pub const WORKER_TASKS: Template = Template::new("parallel.worker.{w}.tasks");
}

thread_local! {
    /// True on pool worker threads; nested `par_map`s run inline.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
    /// Scoped thread-count override installed by [`with_threads`].
    static THREAD_OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Counts outstanding helper jobs; the issuing thread blocks until all of
/// them have finished running (not merely until all chunks are claimed),
/// which is what makes the borrowed-closure hand-off sound.
struct Latch {
    remaining: Mutex<usize>,
    zero: Condvar,
}

impl Latch {
    fn new(n: usize) -> Self {
        Self {
            remaining: Mutex::new(n),
            zero: Condvar::new(),
        }
    }

    /// Notifies while still holding the lock: the latch lives on the
    /// waiter's stack, and a waiter that saw zero before a notify sent
    /// after unlocking would return, and the notify would then write
    /// into whatever frame took the latch's place.
    fn count_down(&self) {
        let mut left = self.remaining.lock().expect("latch lock");
        *left -= 1;
        if *left == 0 {
            self.zero.notify_all();
        }
    }

    fn wait(&self) {
        let mut left = self.remaining.lock().expect("latch lock");
        while *left > 0 {
            left = self.zero.wait(left).expect("latch wait");
        }
    }
}

/// Shared state of one `par_map` invocation, borrowed by every
/// participant (caller + helper jobs) for the duration of the call.
struct MapState<'a, R, F> {
    f: &'a F,
    slots: &'a [Mutex<Option<R>>],
    next: &'a AtomicUsize,
    len: usize,
    chunk: usize,
    n_chunks: usize,
    panic: &'a Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

impl<R, F> MapState<'_, R, F>
where
    R: Send,
    F: Fn(Range<usize>) -> R + Sync,
{
    /// Claims and executes chunks until none are left. On a panic inside
    /// `f`, records the payload, cancels all unclaimed chunks and keeps
    /// the pool alive; the issuing thread re-raises after the latch.
    fn drain(&self) {
        loop {
            let c = self.next.fetch_add(1, Ordering::Relaxed);
            if c >= self.n_chunks {
                return;
            }
            let lo = c * self.chunk;
            let hi = self.len.min(lo + self.chunk);
            match catch_unwind(AssertUnwindSafe(|| (self.f)(lo..hi))) {
                Ok(r) => *self.slots[c].lock().expect("slot lock") = Some(r),
                Err(payload) => {
                    self.next.store(self.n_chunks, Ordering::Relaxed);
                    self.panic
                        .lock()
                        .expect("panic lock")
                        .get_or_insert(payload);
                }
            }
        }
    }
}

/// A persistent worker pool executing chunked index-range maps.
pub struct Pool {
    injector: crossbeam::channel::Sender<Job>,
    workers: Vec<std::thread::JoinHandle<()>>,
    threads: usize,
}

impl Pool {
    /// Creates a pool with `threads` total executors: the issuing thread
    /// participates in every `par_map`, so `threads - 1` workers are
    /// spawned. `threads == 1` means fully inline execution.
    ///
    /// # Panics
    /// Panics when `threads == 0` or a worker thread cannot be spawned.
    pub fn new(threads: usize) -> Self {
        assert!(threads >= 1, "pool needs at least one thread");
        let (injector, queue) = crossbeam::channel::unbounded::<Job>();
        let registry = fxrz_telemetry::global();
        registry.set_gauge(names::POOL_THREADS, threads as i64);
        let workers = (0..threads - 1)
            .map(|w| {
                let queue = queue.clone();
                let w = w.to_string();
                let series = Resolved::new(
                    (
                        names::WORKER_BUSY_NS.fill(&[&w]),
                        names::WORKER_TASKS.fill(&[&w]),
                    ),
                    |registry, &(busy, tasks)| (registry.histogram(busy), registry.counter(tasks)),
                );
                // The series exist from the pool's start, busy or not.
                series.get();
                std::thread::Builder::new()
                    .name(format!("fxrz-par-{w}"))
                    .spawn(move || {
                        IN_WORKER.with(|f| f.set(true));
                        while let Ok(job) = queue.recv() {
                            #[expect(clippy::disallowed_types, reason = "busy-time metric")]
                            let t0 = Instant::now();
                            job();
                            let (busy, tasks) = series.get();
                            busy.record_duration(t0.elapsed());
                            tasks.incr();
                        }
                    })
                    .expect("spawn pool worker")
            })
            .collect();
        Self {
            injector,
            workers,
            threads,
        }
    }

    /// Total executor count this pool was built with (workers + caller).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Maps `f` over `0..len` in chunks of `chunk_size`, returning the
    /// per-chunk results in chunk order.
    ///
    /// Chunk boundaries depend only on `(len, chunk_size)` — never on the
    /// thread count — so the output is identical for any pool size; see
    /// the crate-level determinism contract.
    ///
    /// # Panics
    /// Panics when `chunk_size == 0`, and re-raises the first panic
    /// raised inside `f` (after all in-flight chunks finished).
    pub fn par_map<R, F>(&self, len: usize, chunk_size: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(Range<usize>) -> R + Sync,
    {
        assert!(chunk_size > 0, "chunk size must be positive");
        if len == 0 {
            return Vec::new();
        }
        let n_chunks = len.div_ceil(chunk_size);
        let threads = THREAD_OVERRIDE
            .with(Cell::get)
            .unwrap_or(self.threads)
            .max(1);
        let in_worker = IN_WORKER.with(Cell::get);
        // helpers are pool jobs; without spawned workers they would never run
        let helpers = (threads - 1).min(n_chunks - 1).min(self.workers.len());
        if in_worker || helpers == 0 {
            return (0..n_chunks)
                .map(|c| f(c * chunk_size..len.min((c + 1) * chunk_size)))
                .collect();
        }

        let registry = fxrz_telemetry::global();
        registry.incr(names::POOL_PAR_MAPS);
        registry.add(names::POOL_CHUNKS, n_chunks as u64);

        let slots: Vec<Mutex<Option<R>>> = (0..n_chunks).map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        let panic_slot = Mutex::new(None);
        let state = MapState {
            f: &f,
            slots: &slots,
            next: &next,
            len,
            chunk: chunk_size,
            n_chunks,
            panic: &panic_slot,
        };
        let latch = Latch::new(helpers);
        // Helper jobs execute on pool threads whose span stack and trace
        // context start empty; adopting the issuing thread's scope keeps
        // spans opened inside `f` nested under the caller's span (and
        // carrying its trace id) instead of becoming orphaned roots.
        let scope = fxrz_telemetry::TaskScope::capture();
        for _ in 0..helpers {
            let state = &state;
            let latch = &latch;
            let scope = scope.clone();
            let job: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                let _scope = scope.adopt();
                state.drain();
                latch.count_down();
            });
            // SAFETY: the job borrows `state` and `latch`, which live on
            // this stack frame. We erase the lifetime to enqueue it, and
            // re-establish soundness by blocking on `latch` below until
            // every enqueued job has *finished executing* (count_down is
            // the job's last action). Workers outlive the pool's sender
            // and run every queued job, so no erased job can run — or be
            // dropped — after this frame returns.
            #[expect(unsafe_code, reason = "lifetime erasure of a scoped pool job")]
            let job: Job = unsafe { std::mem::transmute(job) };
            assert!(self.injector.send(job).is_ok(), "pool queue closed");
        }
        state.drain(); // the issuing thread works too
        latch.wait();
        if let Some(payload) = panic_slot.into_inner().expect("panic lock") {
            resume_unwind(payload);
        }
        slots
            .into_iter()
            .map(|s| {
                s.into_inner()
                    .expect("slot lock")
                    .expect("chunk executed exactly once")
            })
            .collect()
    }

    /// Maps `0..len` in chunks with `map`, then folds the per-chunk
    /// values **strictly in chunk order** — the fixed reduction order
    /// that keeps floating-point accumulations bit-identical across
    /// thread counts.
    pub fn par_reduce<T, A, M, F>(
        &self,
        len: usize,
        chunk_size: usize,
        map: M,
        init: A,
        fold: F,
    ) -> A
    where
        T: Send,
        M: Fn(Range<usize>) -> T + Sync,
        F: FnMut(A, T) -> A,
    {
        self.par_map(len, chunk_size, map)
            .into_iter()
            .fold(init, fold)
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        // Disconnect the queue so workers drain what's left and exit.
        let (dead, _) = crossbeam::channel::unbounded::<Job>();
        self.injector = dead;
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

static CONFIGURED: OnceLock<usize> = OnceLock::new();
static POOL: OnceLock<Pool> = OnceLock::new();

/// Fixes the global pool's thread count before its first use (the CLI's
/// `--threads` flag lands here). Returns `false` when the pool is already
/// running or a count was already configured — the earlier setting wins.
pub fn configure_threads(threads: usize) -> bool {
    if POOL.get().is_some() {
        return false;
    }
    CONFIGURED.set(threads.max(1)).is_ok()
}

/// Thread count the global pool uses when first touched: an explicit
/// [`configure_threads`] call, else `FXRZ_THREADS`, else the machine's
/// available parallelism.
fn default_threads() -> usize {
    if let Some(&n) = CONFIGURED.get() {
        return n;
    }
    if let Ok(s) = std::env::var("FXRZ_THREADS") {
        if let Ok(n) = s.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// The process-wide pool every hot kernel maps through.
pub fn global() -> &'static Pool {
    POOL.get_or_init(|| Pool::new(default_threads()))
}

/// [`Pool::par_map`] on the global pool.
pub fn par_map<R, F>(len: usize, chunk_size: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(Range<usize>) -> R + Sync,
{
    global().par_map(len, chunk_size, f)
}

/// [`Pool::par_reduce`] on the global pool.
pub fn par_reduce<T, A, M, F>(len: usize, chunk_size: usize, map: M, init: A, fold: F) -> A
where
    T: Send,
    M: Fn(Range<usize>) -> T + Sync,
    F: FnMut(A, T) -> A,
{
    global().par_reduce(len, chunk_size, map, init, fold)
}

/// Effective thread count of the global pool (after any scoped override).
pub fn current_threads() -> usize {
    THREAD_OVERRIDE
        .with(Cell::get)
        .unwrap_or_else(|| global().threads())
}

/// Runs `f` with the calling thread's parallelism overridden to
/// `threads`. `with_threads(1, ..)` forces every `par_map` under `f`
/// through the inline sequential path — the reference the determinism
/// tests compare the parallel path against, and the path every request
/// the serve daemon runs takes.
pub fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            THREAD_OVERRIDE.with(|o| o.set(self.0));
        }
    }
    let _restore = Restore(THREAD_OVERRIDE.with(|o| o.replace(Some(threads.max(1)))));
    f()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_matches_sequential() {
        let pool = Pool::new(4);
        let n = 10_000;
        let expect: Vec<usize> = (0..n).map(|i| i * i).collect();
        let got: Vec<usize> = pool
            .par_map(n, 97, |r| r.map(|i| i * i).collect::<Vec<_>>())
            .into_iter()
            .flatten()
            .collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn reduction_order_is_fixed_across_thread_counts() {
        // floating-point sum: chunk partials folded in chunk order must be
        // bit-identical for 1, 2 and 8 executors
        let data: Vec<f64> = (0..100_000).map(|i| (i as f64).sin() * 1e-3).collect();
        let sum = |pool: &Pool| {
            pool.par_reduce(
                data.len(),
                1024,
                |r| data[r].iter().sum::<f64>(),
                0.0f64,
                |a, b| a + b,
            )
        };
        let s1 = sum(&Pool::new(1));
        let s2 = sum(&Pool::new(2));
        let s8 = sum(&Pool::new(8));
        assert_eq!(s1.to_bits(), s2.to_bits());
        assert_eq!(s1.to_bits(), s8.to_bits());
    }

    #[test]
    fn single_thread_pool_runs_inline() {
        let pool = Pool::new(1);
        let tid = std::thread::current().id();
        let ids = pool.par_map(8, 2, |_| std::thread::current().id());
        assert!(ids.iter().all(|&i| i == tid));
    }

    #[test]
    fn empty_input_returns_empty() {
        let pool = Pool::new(4);
        let v: Vec<u32> = pool.par_map(0, 16, |_| 1);
        assert!(v.is_empty());
    }

    #[test]
    fn panics_propagate_and_pool_survives() {
        let pool = Pool::new(4);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.par_map(100, 1, |r| {
                assert!(r.start != 37, "boom at 37");
                r.start
            })
        }));
        assert!(result.is_err());
        // pool still works afterwards
        let v = pool.par_map(10, 3, |r| r.len());
        assert_eq!(v.iter().sum::<usize>(), 10);
    }

    #[test]
    fn nested_par_map_runs_inline_without_deadlock() {
        let pool = Pool::new(2);
        let outer = pool.par_map(4, 1, |r| {
            // nested call on a worker thread must not deadlock
            super::global().par_map(8, 2, |inner| inner.len() + r.start)
        });
        assert_eq!(outer.len(), 4);
        for (i, inner) in outer.iter().enumerate() {
            assert_eq!(inner.iter().sum::<usize>(), 8 + 4 * i);
        }
    }

    #[test]
    fn with_threads_one_forces_inline() {
        let tid = std::thread::current().id();
        let ids = with_threads(1, || {
            global().par_map(16, 1, |_| std::thread::current().id())
        });
        assert!(ids.iter().all(|&i| i == tid));
        assert_eq!(with_threads(1, current_threads), 1);
    }

    #[test]
    fn uses_multiple_threads_when_available() {
        let pool = Pool::new(4);
        let barrier = std::sync::Barrier::new(2);
        // two chunks that must overlap in time: requires >= 2 executors
        let v = pool.par_map(2, 1, |r| {
            barrier.wait();
            r.start
        });
        assert_eq!(v, vec![0, 1]);
    }

    #[test]
    fn worker_telemetry_recorded() {
        let pool = Pool::new(3);
        let before = fxrz_telemetry::global()
            .snapshot()
            .counter(names::POOL_PAR_MAPS.as_str())
            .unwrap_or(0);
        let _ = pool.par_map(64, 1, |r| r.start * 2);
        let snap = fxrz_telemetry::global().snapshot();
        assert!(snap.counter(names::POOL_PAR_MAPS.as_str()).unwrap_or(0) > before);
    }

    #[test]
    fn configure_after_init_is_rejected() {
        let _ = global();
        assert!(!configure_threads(2));
    }
}
