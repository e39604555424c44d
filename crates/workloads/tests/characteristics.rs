//! Structural tests of the generated workload traces — the properties the
//! simulator and the optimization passes rely on.

use oscache_trace::{BlockKind, ChunkedTrace, DataClass, Event, Mode};
use oscache_workloads::{build_chunked, BuildOptions, Workload};

fn small(w: Workload) -> ChunkedTrace {
    build_chunked(
        w,
        BuildOptions {
            scale: 0.1,
            seed: 0xfeed,
            ..Default::default()
        },
    )
}

#[test]
fn every_stream_starts_in_user_mode_and_switches() {
    for w in Workload::all() {
        let t = small(w);
        for (cpu, s) in t.streams.iter().enumerate() {
            let first_mode = s.iter().find_map(|e| match e {
                Event::SetMode { mode } => Some(mode),
                _ => None,
            });
            assert_eq!(first_mode, Some(Mode::Os), "{w} cpu{cpu}: first switch");
        }
    }
}

#[test]
fn xproc_sends_equal_handles() {
    for w in Workload::all() {
        let t = small(w);
        let mut sends = 0usize;
        let mut handles = 0usize;
        for s in &t.streams {
            for e in s.iter() {
                match e {
                    Event::Write {
                        class: DataClass::CpiEvents,
                        ..
                    } => sends += 1,
                    Event::Read {
                        class: DataClass::CpiEvents,
                        ..
                    } => handles += 1,
                    _ => {}
                }
            }
        }
        assert_eq!(sends, handles, "{w}: cross-interrupt pairs unbalanced");
        assert!(sends > 0, "{w}: no cross-processor interrupts");
    }
}

#[test]
fn kernel_data_ranges_are_populated_and_disjoint() {
    let t = small(Workload::Trfd4);
    let ranges = &t.meta.kernel_data;
    assert!(ranges.len() >= 5);
    let mut sorted: Vec<_> = ranges.clone();
    sorted.sort_by_key(|(a, _)| a.0);
    for w in sorted.windows(2) {
        assert!(
            w[0].0 .0 + w[0].1 <= w[1].0 .0,
            "kernel data ranges overlap: {w:?}"
        );
    }
}

#[test]
fn zero_ops_only_come_from_page_zeroing() {
    let t = small(Workload::Trfd4);
    for s in &t.streams {
        for e in s.iter() {
            if let Event::BlockOpBegin { op } = e {
                if op.kind == BlockKind::Zero {
                    assert_eq!(op.len, oscache_trace::PAGE_SIZE);
                    assert_eq!(op.dst_class, DataClass::PageFrame);
                }
            }
        }
    }
}

#[test]
fn block_op_bodies_only_touch_the_block() {
    let t = small(Workload::TrfdMake);
    for s in &t.streams {
        let mut cur: Option<oscache_trace::BlockOp> = None;
        for e in s.iter() {
            match e {
                Event::BlockOpBegin { op } => cur = Some(op),
                Event::BlockOpEnd => cur = None,
                Event::Read { addr, .. } if cur.is_some() => {
                    let op = cur.unwrap();
                    assert!(
                        addr.0 >= op.src.0 && addr.0 < op.src.0 + op.len,
                        "read {addr} outside src block {op:?}"
                    );
                }
                Event::Write { addr, .. } if cur.is_some() => {
                    let op = cur.unwrap();
                    assert!(
                        addr.0 >= op.dst.0 && addr.0 < op.dst.0 + op.len,
                        "write {addr} outside dst block {op:?}"
                    );
                }
                _ => {}
            }
        }
    }
}

#[test]
fn workload_mix_differs_in_the_documented_ways() {
    let count_barriers = |t: &ChunkedTrace| {
        t.streams[0]
            .iter()
            .filter(|e| matches!(e, Event::Barrier { .. }))
            .count()
    };
    let count_syscalls = |t: &ChunkedTrace| {
        t.streams
            .iter()
            .flat_map(|s| s.iter())
            .filter(|e| {
                matches!(
                    e,
                    Event::Read {
                        class: DataClass::SyscallTable,
                        ..
                    }
                )
            })
            .count() as f64
            / t.total_events() as f64
    };
    let trfd = small(Workload::Trfd4);
    let shell = small(Workload::Shell);
    assert!(
        count_barriers(&trfd) > 8 * count_barriers(&shell).max(1),
        "TRFD_4 must be far more barrier-intensive than Shell: {} vs {}",
        count_barriers(&trfd),
        count_barriers(&shell)
    );
    assert!(
        count_syscalls(&shell) > 3.0 * count_syscalls(&trfd),
        "Shell must be far more system-call intensive than TRFD_4"
    );
}

#[test]
fn idle_time_is_emitted_for_every_cpu() {
    for w in Workload::all() {
        let t = small(w);
        for (cpu, s) in t.streams.iter().enumerate() {
            let idle: u64 = s
                .iter()
                .filter_map(|e| match e {
                    Event::Idle { cycles } => Some(u64::from(cycles)),
                    _ => None,
                })
                .sum();
            assert!(idle > 0, "{w} cpu{cpu}: no idle time");
        }
    }
}

#[test]
fn counters_are_updated_by_every_cpu() {
    let t = small(Workload::Shell);
    let v_syscall = t.meta.var_named("vmmeter.v_syscall").unwrap().addr;
    for (cpu, s) in t.streams.iter().enumerate() {
        let updates = s
            .iter()
            .filter(|e| e.is_write() && e.data_addr() == Some(v_syscall))
            .count();
        assert!(updates > 0, "cpu{cpu} never bumps v_syscall");
    }
}

#[test]
fn seeds_change_the_trace_but_not_its_shape() {
    let a = build_chunked(
        Workload::Arc2dFsck,
        BuildOptions {
            scale: 0.1,
            seed: 1,
            ..Default::default()
        },
    );
    let b = build_chunked(
        Workload::Arc2dFsck,
        BuildOptions {
            scale: 0.1,
            seed: 2,
            ..Default::default()
        },
    );
    assert_ne!(
        a.streams[0].len(),
        b.streams[0].len(),
        "different seeds should differ in detail"
    );
    // But the volume is in the same ballpark (±20%).
    let ra = a.total_events() as f64;
    let rb = b.total_events() as f64;
    assert!((ra / rb - 1.0).abs() < 0.2, "{ra} vs {rb}");
}

#[test]
fn custom_mix_builds_and_respects_rates() {
    use oscache_workloads::build_with_mix;
    // A copy-free variant of TRFD_4.
    let mut mix = Workload::Trfd4.mix();
    mix.pf_zero = 0.0;
    mix.pf_pagein = 0.0;
    mix.chain_copy = 0.0;
    mix.user_copy = 0.0;
    mix.forks = 0.0;
    mix.execs = 0.0;
    mix.file_small = 0.0;
    mix.file_med = 0.0;
    let t = build_with_mix(
        "TRFD_4/no-copies",
        Workload::Trfd4,
        mix,
        BuildOptions {
            scale: 0.1,
            ..Default::default()
        },
    );
    assert_eq!(t.meta.workload, "TRFD_4/no-copies");
    let ops = t
        .streams
        .iter()
        .flat_map(|s| s.iter())
        .filter(|e| matches!(e, Event::BlockOpBegin { .. }))
        .count();
    assert_eq!(ops, 0, "copy-free mix must emit no block operations");
}

#[test]
fn mix_accessor_matches_build() {
    // Building with the workload's own mix is identical to build_chunked().
    let opts = BuildOptions {
        scale: 0.05,
        seed: 77,
        ..Default::default()
    };
    let a = build_chunked(Workload::Shell, opts);
    let b =
        oscache_workloads::build_with_mix("Shell", Workload::Shell, Workload::Shell.mix(), opts);
    assert_eq!(a.total_events(), b.total_events());
    assert!(a.streams[2].iter().eq(b.streams[2].iter()));
}
