//! End-to-end trace serialization: a dumped-and-reloaded workload trace
//! must simulate identically to the original (the paper's monitor dumps
//! its buffers to disk and simulates later, §2.1), and the dump format's
//! bytes are pinned.

use oscache::core::{run_system, System};
use oscache::trace::{fnv1a, read_trace, write_trace, ChunkedTrace};
use oscache::workloads::{build_chunked, BuildOptions, Workload};

fn dump(t: &ChunkedTrace) -> Vec<u8> {
    let mut buf = Vec::new();
    write_trace(t, &mut buf).unwrap();
    buf
}

#[test]
fn dumped_trace_simulates_identically() {
    let t = build_chunked(
        Workload::TrfdMake,
        BuildOptions {
            scale: 0.05,
            seed: 11,
            ..Default::default()
        },
    );
    let back = read_trace(&dump(&t)[..]).unwrap();

    assert_eq!(back.total_events(), t.total_events());
    assert_eq!(back.meta.vars.len(), t.meta.vars.len());

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
    let t = build_chunked(
        Workload::Shell,
        BuildOptions {
            scale: 0.05,
            seed: 12,
            ..Default::default()
        },
    );
    let back = read_trace(&dump(&t)[..]).unwrap();
    let orig = run_system(&t, System::BCPref);
    let redo = run_system(&back, System::BCPref);
    assert_eq!(
        orig.stats.total().os_read_misses(),
        redo.stats.total().os_read_misses()
    );
}

/// The `oscache-trace 1` dump of a small built workload, byte for byte:
/// its FNV-1a digest and length are what the writer produced when it
/// still wrote from a fully decoded trace, so the streaming writer (one
/// decoded chunk at a time) must reproduce them exactly. Reading the dump
/// back and writing it again gives the same bytes.
#[test]
fn dump_bytes_are_pinned_and_round_trip() {
    let t = build_chunked(
        Workload::Trfd4,
        BuildOptions {
            scale: 0.05,
            seed: 11,
            ..Default::default()
        },
    );
    let bytes = dump(&t);
    assert_eq!(
        (fnv1a(&bytes), bytes.len()),
        (0xc89b_afaf_e84b_4781, 5_436_723),
        "dump bytes changed"
    );
    let back = read_trace(&bytes[..]).unwrap();
    assert!(dump(&back) == bytes, "write(read(dump)) differs from dump");
}
