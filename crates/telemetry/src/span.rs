//! RAII wall-clock spans with per-thread nesting.
//!
//! A span opened while another is active on the same thread records under
//! the parent's path plus `/name`, so the registry ends up holding a flat
//! map of slash-joined paths (`compress`, `compress/features`, …) — a
//! serializable encoding of the call tree.
//!
//! On drop every span also writes one record into the global flight
//! recorder, tagged with the thread's current [`TraceContext`] (0 when
//! untraced) — the per-request view the aggregate registry cannot give.
//!
//! Nesting is thread-local, so work handed to another thread (a pool
//! helper job) would otherwise start a fresh stack and orphan its child
//! spans. [`TaskScope`] fixes that: capture it on the issuing thread,
//! [`TaskScope::adopt`] it inside the worker closure, and spans opened
//! there nest under the captured parent path and trace.

use crate::trace::TraceContext;
use crate::Name;
use std::cell::RefCell;
use std::time::{Duration, Instant};

thread_local! {
    /// Stack of full paths for the spans currently open on this thread.
    static SPAN_STACK: RefCell<Vec<String>> = const { RefCell::new(Vec::new()) };
}

/// Live span; records its duration into the global registry on drop.
#[must_use = "a span measures nothing unless it is held until the stage ends"]
pub struct SpanGuard {
    path: String,
    start: Instant,
    start_ns: u64,
}

impl SpanGuard {
    /// Full slash-joined path of this span.
    pub fn path(&self) -> &str {
        &self.path
    }

    /// Time elapsed since the span opened.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let elapsed = self.start.elapsed();
        SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            // Pop our own frame. Guards are usually dropped in LIFO order;
            // if user code drops them out of order, remove by identity so
            // the stack never corrupts sibling paths.
            if let Some(pos) = stack.iter().rposition(|p| *p == self.path) {
                stack.remove(pos);
            }
        });
        crate::global().record_span(&self.path, elapsed);
        crate::recorder::flight_recorder().record_span(
            &self.path,
            self.start_ns,
            u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX),
        );
    }
}

/// Opens a span named `name`, nested under the thread's current span.
/// Stages name their span with [`span!`](crate::span!); this form
/// takes a runtime segment, such as a codec's registry name.
pub fn enter(name: &str) -> SpanGuard {
    let path = SPAN_STACK.with(|stack| {
        let mut stack = stack.borrow_mut();
        let path = match stack.last() {
            Some(parent) => format!("{parent}/{name}"),
            None => name.to_string(),
        };
        stack.push(path.clone());
        path
    });
    SpanGuard {
        path,
        start: Instant::now(),
        start_ns: crate::recorder::now_ns(),
    }
}

/// Path of the innermost open span on this thread, if any.
pub fn current_path() -> Option<String> {
    SPAN_STACK.with(|stack| stack.borrow().last().cloned())
}

/// Runs `f` inside a span named `name`; returns the result and the span's
/// wall-clock duration. The `Duration` return makes it easy to keep
/// existing timing fields (e.g. `Estimate::analysis_time`) in sync with
/// what the registry records.
pub fn spanned<T, F: FnOnce() -> T>(name: Name, f: F) -> (T, Duration) {
    let guard = enter(name.as_str());
    let out = f();
    let elapsed = guard.elapsed();
    drop(guard);
    (out, elapsed)
}

/// Span nesting + trace context captured on one thread, to be adopted by
/// work executing on another.
///
/// The pool's `par_map` captures a scope before enqueueing helper jobs
/// and adopts it inside each job, so spans opened by the mapped closure
/// on a worker thread nest under the issuing thread's current span (and
/// inherit its trace) instead of becoming orphaned roots.
#[derive(Clone, Debug, Default)]
pub struct TaskScope {
    parent: Option<String>,
    trace: Option<TraceContext>,
}

impl TaskScope {
    /// Captures the calling thread's innermost span path and trace.
    pub fn capture() -> Self {
        Self {
            parent: current_path(),
            trace: crate::trace::current(),
        }
    }

    /// Installs the captured scope on the calling thread until the guard
    /// drops: the span stack is replaced by the captured parent path and
    /// the captured trace context is attached. The previous stack and
    /// trace are restored on drop.
    pub fn adopt(&self) -> TaskScopeGuard {
        let saved_stack = SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            let saved = std::mem::take(&mut *stack);
            if let Some(parent) = &self.parent {
                stack.push(parent.clone());
            }
            saved
        });
        TaskScopeGuard {
            saved_stack,
            saved_trace: crate::trace::swap(self.trace),
        }
    }
}

/// Restores the thread's own span stack and trace when dropped.
#[must_use = "dropping the guard immediately restores the previous scope"]
pub struct TaskScopeGuard {
    saved_stack: Vec<String>,
    saved_trace: Option<TraceContext>,
}

impl Drop for TaskScopeGuard {
    fn drop(&mut self) {
        SPAN_STACK.with(|stack| {
            *stack.borrow_mut() = std::mem::take(&mut self.saved_stack);
        });
        let _ = crate::trace::swap(self.saved_trace);
    }
}

/// Opens a [`SpanGuard`](crate::span::SpanGuard) for the stage a
/// [`Name`] names: `let _guard = fxrz_telemetry::span!(names::SPAN_COMPRESS);`
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span::enter($crate::Name::as_str($name))
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_builds_slash_paths() {
        let outer = enter("test_outer");
        assert_eq!(current_path().as_deref(), Some("test_outer"));
        {
            let inner = enter("inner");
            assert_eq!(inner.path(), "test_outer/inner");
            assert_eq!(current_path().as_deref(), Some("test_outer/inner"));
        }
        assert_eq!(current_path().as_deref(), Some("test_outer"));
        drop(outer);
        assert_eq!(current_path(), None);
    }

    #[test]
    fn spanned_returns_value_and_duration() {
        let (value, elapsed) = spanned(Name::new("test_spanned"), || 7u32);
        assert_eq!(value, 7);
        assert!(elapsed.as_nanos() > 0 || elapsed.is_zero());
        let snap = crate::global().snapshot();
        assert!(snap.span("test_spanned").is_some());
    }

    #[test]
    fn task_scope_adoption_restores_on_drop() {
        let ctx = crate::trace::TraceIdGen::new(11).next();
        let _trace = crate::trace::attach(ctx);
        let outer = enter("test_scope_cap");
        let scope = TaskScope::capture();
        drop(outer);

        // Simulate a worker thread with its own (empty) stack.
        std::thread::scope(|s| {
            s.spawn(|| {
                assert_eq!(current_path(), None);
                {
                    let _g = scope.adopt();
                    assert_eq!(current_path().as_deref(), Some("test_scope_cap"));
                    assert_eq!(crate::trace::current(), Some(ctx));
                    let child = enter("kid");
                    assert_eq!(child.path(), "test_scope_cap/kid");
                }
                assert_eq!(current_path(), None);
                assert_eq!(crate::trace::current(), None);
            });
        });
    }

    #[test]
    fn span_drop_reaches_the_flight_recorder() {
        let before = crate::recorder::flight_recorder().recorded();
        drop(enter("test_flight_hook"));
        assert!(crate::recorder::flight_recorder().recorded() > before);
    }

    #[test]
    fn out_of_order_drop_does_not_corrupt_stack() {
        let a = enter("test_a");
        let b = enter("b");
        drop(a); // wrong order on purpose
        assert_eq!(current_path().as_deref(), Some("test_a/b"));
        drop(b);
        assert_eq!(current_path(), None);
    }
}
