//! Flight-recorder contract tests: bounded memory under concurrent
//! writers, no torn records ever surfacing from `dump()`, and a
//! deterministic drain order when writes are sequential.

use fxrz_telemetry::{FlightRecorder, RecordKind, TraceContext};

fn ctx(trace_id: u64) -> Option<TraceContext> {
    Some(TraceContext {
        trace_id,
        span_id: trace_id,
    })
}
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Concurrent writers hammer a small ring while a reader continuously
/// dumps. Every surfaced record must be self-consistent: we encode the
/// writer id and a per-writer sequence number redundantly into the
/// trace id, the duration and the name, so a torn record (fields from
/// two different writes) cannot pass the cross-check.
#[test]
fn concurrent_writers_never_surface_torn_records() {
    const WRITERS: u64 = 4;
    const PER_WRITER: u64 = 5_000;
    let rec = Arc::new(FlightRecorder::new(64));
    let stop = Arc::new(AtomicBool::new(false));

    let reader = {
        let rec = Arc::clone(&rec);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut dumps = 0u64;
            while !stop.load(Ordering::Relaxed) {
                for r in rec.dump() {
                    // trace = writer * 1_000_000 + seq; dur = seq;
                    // name = "w{writer}".
                    let writer = r.trace_id / 1_000_000;
                    let seq = r.trace_id % 1_000_000;
                    assert!(writer < WRITERS, "torn writer id: {r:?}");
                    assert_eq!(r.dur_ns, seq, "torn dur/trace pair: {r:?}");
                    assert_eq!(r.name, format!("w{writer}"), "torn name: {r:?}");
                    assert_eq!(r.kind, RecordKind::Span);
                }
                dumps += 1;
            }
            assert!(dumps > 0);
        })
    };

    let writers: Vec<_> = (0..WRITERS)
        .map(|w| {
            let rec = Arc::clone(&rec);
            std::thread::spawn(move || {
                for seq in 0..PER_WRITER {
                    let trace = w * 1_000_000 + seq;
                    rec.record(RecordKind::Span, ctx(trace), 0, seq, &format!("w{w}"));
                }
            })
        })
        .collect();
    for t in writers {
        t.join().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    reader.join().unwrap();

    assert_eq!(rec.recorded(), WRITERS * PER_WRITER);
}

/// Capacity bounds memory: recording far more than `capacity` records
/// never yields more than `capacity` from a dump, and the overwritten
/// counter accounts for every displaced record.
#[test]
fn capacity_bounds_dump_size_regardless_of_volume() {
    let rec = FlightRecorder::new(32);
    for i in 0..10_000u64 {
        rec.record(RecordKind::Span, ctx(i), i, 0, "evt");
    }
    let dump = rec.dump();
    assert!(dump.len() <= 32, "dump grew past capacity: {}", dump.len());
    assert_eq!(rec.recorded(), 10_000);
    assert_eq!(rec.overwritten(), 10_000 - 32);
}

/// Sequential writes drain oldest-first with no gaps — the property the
/// serve drain path relies on to print a coherent tail. (With
/// FXRZ_THREADS=1 the whole serve pipeline is sequential, so this is
/// also the single-thread determinism contract.)
#[test]
fn sequential_writes_drain_in_order() {
    let rec = FlightRecorder::new(16);
    for i in 0..40u64 {
        rec.record(RecordKind::Span, ctx(7), i, 1, "step");
    }
    let dump = rec.dump();
    let starts: Vec<u64> = dump.iter().map(|r| r.start_ns).collect();
    assert_eq!(starts, (24..40).collect::<Vec<u64>>());
}

/// Two identical runs produce identical dumps — the recorder itself
/// introduces no nondeterminism.
#[test]
fn identical_runs_dump_identically() {
    let run = || {
        let rec = FlightRecorder::new(8);
        for i in 0..20u64 {
            rec.record(RecordKind::Span, ctx(i), i * 10, i * 3, "det");
        }
        rec.dump()
            .iter()
            .map(|r| (r.trace_id, r.start_ns, r.dur_ns, r.name.clone()))
            .collect::<Vec<_>>()
    };
    assert_eq!(run(), run());
}
