//! End-to-end trace serialization: a dumped-and-reloaded workload trace
//! must simulate identically to the original (the paper's monitor dumps
//! its buffers to disk and simulates later, §2.1).

use oscache::core::{run_system, System};
use oscache::trace::{read_trace, write_trace, ChunkedTrace};
use oscache::workloads::{build, BuildOptions, Workload};

#[test]
fn dumped_trace_simulates_identically() {
    let t = build(
        Workload::TrfdMake,
        BuildOptions {
            scale: 0.05,
            seed: 11,
            ..Default::default()
        },
    );
    let mut buf = Vec::new();
    write_trace(&t, &mut buf).unwrap();
    let back = read_trace(&buf[..]).unwrap();

    assert_eq!(back.total_events(), t.total_events());
    assert_eq!(back.meta.vars.len(), t.meta.vars.len());
    let (t, back) = (
        ChunkedTrace::from_trace(&t),
        ChunkedTrace::from_trace(&back),
    );

    for sys in [System::Base, System::BlkDma] {
        let a = run_system(&t, sys);
        let b = run_system(&back, sys);
        assert_eq!(a.stats.cpu_times, b.stats.cpu_times, "{sys}: times differ");
        assert_eq!(
            a.stats.total().os_read_misses(),
            b.stats.total().os_read_misses(),
            "{sys}: misses differ"
        );
        assert_eq!(a.stats.bus.transactions(), b.stats.bus.transactions());
    }
}

#[test]
fn bcpref_works_on_reloaded_traces() {
    // The full pipeline — profiling, privatization, relocation, update
    // placement, prefetch insertion — must work on a trace that went
    // through serialization (site names, variable roles, ranges intact).
    let t = build(
        Workload::Shell,
        BuildOptions {
            scale: 0.05,
            seed: 12,
            ..Default::default()
        },
    );
    let mut buf = Vec::new();
    write_trace(&t, &mut buf).unwrap();
    let back = read_trace(&buf[..]).unwrap();
    let orig = run_system(&ChunkedTrace::from_trace(&t), System::BCPref);
    let redo = run_system(&ChunkedTrace::from_trace(&back), System::BCPref);
    assert_eq!(
        orig.stats.total().os_read_misses(),
        redo.stats.total().os_read_misses()
    );
}
