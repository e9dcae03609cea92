//! Span attribution across pool threads.
//!
//! Before `TaskScope`, work mapped through `Pool::par_map` opened spans
//! on worker threads whose thread-local span stacks were empty, so child
//! spans recorded as orphaned roots and lost their trace id. These tests
//! drive a real pool and assert the captured scope travels with the job.

use fxrz_telemetry::{span, trace, MetricsRegistry, Name, TaskScope, TraceIdGen};
use std::sync::Mutex;

/// Pool construction races on the global registry with other tests in
/// this binary; serialize the ones that inspect snapshots.
static GATE: Mutex<()> = Mutex::new(());

#[test]
fn par_map_children_nest_under_the_issuing_span() {
    let _gate = GATE.lock().unwrap();
    let pool = fxrz_parallel::Pool::new(4);
    let parent = span!(Name::new("attrib_parent"));
    let paths: Vec<String> = pool
        .par_map(8, 1, |_r| {
            let child = span!(Name::new("attrib_child"));
            child.path().to_string()
        })
        .into_iter()
        .collect();
    drop(parent);
    for p in &paths {
        assert_eq!(
            p, "attrib_parent/attrib_child",
            "child span lost its parent across the pool boundary"
        );
    }
    // The aggregate registry sees the nested path, never an orphan root.
    let snap = fxrz_telemetry::global().snapshot();
    assert!(snap.span("attrib_parent/attrib_child").is_some());
    assert!(snap.span("attrib_child").is_none());
}

#[test]
fn par_map_workers_observe_the_issuing_trace() {
    let _gate = GATE.lock().unwrap();
    let pool = fxrz_parallel::Pool::new(4);
    let ctx = TraceIdGen::new(99).next();
    let _g = trace::attach(ctx);
    let seen: Vec<Option<u64>> = pool.par_map(16, 1, |_r| trace::current().map(|c| c.trace_id));
    for t in seen {
        assert_eq!(t, Some(ctx.trace_id), "worker lost the request trace");
    }
}

#[test]
fn worker_scope_is_restored_between_jobs() {
    let _gate = GATE.lock().unwrap();
    let pool = fxrz_parallel::Pool::new(2);
    {
        let ctx = TraceIdGen::new(5).next();
        let _g = trace::attach(ctx);
        let _parent = span!(Name::new("attrib_first"));
        let _ = pool.par_map(4, 1, |_r| ());
    }
    // A second par_map with no active span/trace must not inherit stale
    // state left behind on the worker threads.
    let leftovers: Vec<(Option<String>, bool)> = pool.par_map(4, 1, |_r| {
        (
            fxrz_telemetry::span::current_path(),
            trace::current().is_some(),
        )
    });
    for (path, traced) in leftovers {
        assert_eq!(path, None, "stale span stack leaked between jobs");
        assert!(!traced, "stale trace context leaked between jobs");
    }
}

#[test]
fn task_scope_is_cheap_to_capture_when_unscoped() {
    // Sanity: capture with no active span/trace is the common pool path;
    // it must not allocate surprises or panic, and adopt must be a no-op
    // scope (empty parent) rather than an error.
    let scope = TaskScope::capture();
    let g = scope.adopt();
    assert_eq!(fxrz_telemetry::span::current_path(), None);
    drop(g);
    // Registry isolation check: a fresh registry is unaffected by any of
    // the global traffic above.
    let reg = MetricsRegistry::new();
    assert_eq!(reg.snapshot().spans.len(), 0);
}
