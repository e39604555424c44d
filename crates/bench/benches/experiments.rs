//! One benchmark per paper table and figure: each measures the end-to-end
//! cost of regenerating that experiment through the parallel runner (cells
//! fanned out over every hardware thread) and — as a side effect —
//! exercises exactly the code paths the `repro` binary uses. A shared
//! [`TraceCache`] means each calibrated trace is built once for the whole
//! suite; the first experiment to need a trace pays its build. Run with
//! `cargo bench -p oscache-bench --bench experiments`.

use oscache_core::{default_jobs, Experiment, Repro, RunPolicy, TraceCache};
use std::sync::Arc;
use std::time::Instant;

const SCALE: f64 = 0.05;

fn bench(cache: &Arc<TraceCache>, e: Experiment, f: impl Fn(&mut Repro) -> String) {
    let t0 = Instant::now();
    let mut r = Repro::with_cache(SCALE, default_jobs(), cache.clone());
    let warm = r.warm_supervised(&[e], &RunPolicy::fail_fast(), None);
    assert!(warm.failures.is_empty(), "{:?}", warm.failures);
    let out = f(&mut r);
    std::hint::black_box(&out);
    println!(
        "{:<36} {:>9.3} ms  ({} cells, {} workers)",
        e.name(),
        1e3 * t0.elapsed().as_secs_f64(),
        warm.cells.len(),
        warm.jobs
    );
}

fn main() {
    let cache = Arc::new(TraceCache::new());
    bench(&cache, Experiment::Table1, |r| r.table1().to_string());
    bench(&cache, Experiment::Table2, |r| r.table2().to_string());
    bench(&cache, Experiment::Table3, |r| r.table3().to_string());
    bench(&cache, Experiment::Table4, |r| r.table4().to_string());
    bench(&cache, Experiment::Table5, |r| r.table5().to_string());
    bench(&cache, Experiment::Fig1, |r| r.figure1().to_string());
    bench(&cache, Experiment::Fig2, |r| r.figure2().to_string());
    bench(&cache, Experiment::Fig3, |r| r.figure3().to_string());
    bench(&cache, Experiment::Fig4, |r| r.figure4().to_string());
    bench(&cache, Experiment::Fig5, |r| r.figure5().to_string());
    bench(&cache, Experiment::Fig6, |r| r.figure6().to_string());
    bench(&cache, Experiment::Fig7, |r| r.figure7().to_string());
    for b in cache.build_timings() {
        println!(
            "trace_build/{:<24} {:>9.3} ms  ({} events)",
            format!("{:?}", b.key.workload),
            b.ms,
            b.events
        );
    }
}
