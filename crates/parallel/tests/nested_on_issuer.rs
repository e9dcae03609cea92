//! A nested `par_map` runs inline wherever the outer one's chunks run:
//! on the workers and on the issuing thread. Its own binary, so the
//! process-wide `parallel.pool.par_maps` counter moves for this test
//! alone.

use fxrz_parallel::{names, Pool};

fn par_maps() -> u64 {
    fxrz_telemetry::global()
        .snapshot()
        .counter(names::POOL_PAR_MAPS.as_str())
        .unwrap_or(0)
}

#[test]
fn nested_par_maps_on_the_issuing_thread_run_inline() {
    let pool = Pool::new(2);
    let before = par_maps();
    let sums = pool.par_map(64, 1, |outer| {
        pool.par_map(8, 1, |inner| inner.start + outer.start)
            .into_iter()
            .sum::<usize>()
    });
    let want: Vec<usize> = (0..64).map(|o| 28 + 8 * o).collect();
    assert_eq!(sums, want);
    // Only the outer call dispatched to the pool: every nested call,
    // whichever thread drained its chunk, ran inline.
    assert_eq!(par_maps() - before, 1);
}
