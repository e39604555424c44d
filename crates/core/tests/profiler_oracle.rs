//! Oracle equivalence tests for the bookkeeping-free miss profiler and
//! the split preparation pipeline (DESIGN.md §12).
//!
//! The profiler's contract is exactness, not approximation: with recording
//! off the machine keeps every state- and time-affecting mechanism, so the
//! per-site OS miss counts, the OS read-miss total, and the per-CPU finish
//! times must match a fully-recorded run *bit for bit*. These tests pin
//! that claim against the real ladder (every system × every workload) and
//! against seeded-PRNG random traces, and pin the hot-spot insertion plan
//! against the pass-by-pass `oscache_oracle::compat` rewrite.

use oscache_core::transform::build_hotspot_plan;
use oscache_core::{analysis, analyze_cell, try_run_spec_audited, Geometry, System};
use oscache_memsys::{profile_os_misses, AuditLevel, Machine, MachineConfig, SimStats};
use oscache_oracle::{compat, merged_trace};
use oscache_trace::rng::{Rng, SmallRng};
use oscache_trace::{Addr, ChunkedTrace, DataClass, Mode, StreamBuilder, TraceMeta};
use oscache_workloads::{build_chunked, BuildOptions, Workload};

/// Reduced trace scale: big enough for thousands of misses per cell,
/// small enough to run the full ladder oracle in seconds.
const SCALE: f64 = 0.08;

fn trace_of(workload: Workload) -> ChunkedTrace {
    build_chunked(
        workload,
        BuildOptions {
            scale: SCALE,
            ..Default::default()
        },
    )
}

/// Runs the fully-recorded machine and the bookkeeping-free profiler over
/// the same input and asserts everything the profiler promises to be
/// exact: per-CPU and aggregate `os_miss_by_site`, the OS read-miss
/// total, and the per-CPU simulated finish times.
fn assert_profiler_exact(cfg: MachineConfig, trace: &ChunkedTrace, what: &str) -> SimStats {
    let full = Machine::new(cfg.clone(), trace)
        .unwrap_or_else(|e| panic!("{what}: {e}"))
        .run()
        .unwrap_or_else(|e| panic!("{what}: {e}"));
    let prof = profile_os_misses(cfg, trace).unwrap_or_else(|e| panic!("{what}: {e}"));
    assert_eq!(
        prof.cpu_times, full.cpu_times,
        "{what}: profiler changed the simulated clocks"
    );
    for (i, (p, f)) in prof.cpus.iter().zip(&full.cpus).enumerate() {
        assert_eq!(
            p.os_miss_by_site, f.os_miss_by_site,
            "{what}: cpu {i} per-site OS misses diverge"
        );
    }
    assert_eq!(
        prof.total().os_miss_by_site,
        full.total().os_miss_by_site,
        "{what}: aggregate per-site OS misses diverge"
    );
    assert_eq!(
        prof.total().os_read_misses(),
        full.total().os_read_misses(),
        "{what}: OS read-miss totals diverge"
    );
    full
}

/// The profiling input `prepare_from_analysis` would hand the profiler
/// for this (workload trace, system, geometry) cell.
fn profiling_cfg(trace: &ChunkedTrace, system: System, geometry: Geometry) -> MachineConfig {
    let spec = system.spec();
    let analyzed = analyze_cell(trace, spec);
    let mut cfg = geometry.machine_config(&spec);
    cfg.n_cpus = trace.n_cpus();
    cfg.update_pages = analyzed.update_pages.clone();
    cfg
}

/// Every ladder system on every workload, at the default geometry and the
/// two sweep extremes the figures probe: the profiler's outputs must equal
/// the fully-recorded machine's on exactly the traces cell preparation
/// profiles.
#[test]
fn profiler_matches_machine_across_ladder() {
    let geometries = [
        ("default", Geometry::default()),
        (
            "64B",
            Geometry {
                l1_line: 64,
                l2_line: 64,
                ..Geometry::default()
            },
        ),
        (
            "16KB",
            Geometry {
                l1d_size: 16 * 1024,
                ..Geometry::default()
            },
        ),
    ];
    for workload in Workload::all() {
        let base = trace_of(workload);
        for system in System::all() {
            let spec = system.spec();
            let analyzed = analyze_cell(&base, spec);
            let working = analyzed.trace.as_deref().unwrap_or(&base);
            for (glabel, geometry) in geometries {
                let mut cfg = geometry.machine_config(&spec);
                cfg.n_cpus = base.n_cpus();
                cfg.update_pages = analyzed.update_pages.clone();
                let what = format!("{workload:?}/{}/{glabel}", system.label());
                assert_profiler_exact(cfg, working, &what);
            }
        }
    }
}

/// Seeded-PRNG random traces: multi-CPU, mixed OS/user modes, random
/// read/write mixes over a shared region. Purely adversarial inputs with
/// none of the workload generators' structure.
#[test]
fn profiler_matches_machine_on_random_traces() {
    for seed in 0..24u64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let n_cpus = rng.gen_range(1..5usize);
        let mut meta = TraceMeta::default();
        let names = ["s0", "s1", "s2", "s3"];
        let sites: Vec<_> = (0..4)
            .map(|k| meta.code.add_site(names[k], k % 2 == 0))
            .collect();
        let blocks: Vec<_> = sites
            .iter()
            .enumerate()
            .map(|(k, &s)| meta.code.add_block(Addr(0x1000 + 0x100 * k as u32), 4, s))
            .collect();
        let mut t = ChunkedTrace::new(n_cpus, meta);
        for cpu in 0..n_cpus {
            let mut b = StreamBuilder::new();
            let n = rng.gen_range(50..400u32);
            for _ in 0..n {
                match rng.gen_range(0..10u32) {
                    0 => b.set_mode(if rng.gen_bool(0.7) {
                        Mode::Os
                    } else {
                        Mode::User
                    }),
                    1 => b.exec(blocks[rng.gen_range(0..4usize)]),
                    2..=3 => {
                        let a = Addr(0x0100_0000 + (rng.gen_range(0..4096u32) & !3));
                        b.write(a, DataClass::KernelOther);
                    }
                    _ => {
                        let a = Addr(0x0100_0000 + (rng.gen_range(0..4096u32) & !3));
                        b.read(a, DataClass::KernelOther);
                    }
                }
            }
            t.streams[cpu] = b.finish();
        }
        let mut cfg = MachineConfig::base();
        cfg.n_cpus = n_cpus;
        assert_profiler_exact(cfg, &t, &format!("random seed {seed}"));
    }
}

/// The precomputed hot-spot insertion plan, merged window by window as a
/// replay merges it, must give, for every hot set the ladder actually
/// ranks (plus synthetic subsets), the exact event streams the
/// pass-by-pass `compat` rewrite emits. (That the merged replay equals a
/// replay of that rewrite is `tests/hotspot_merge.rs`.)
#[test]
fn hotspot_plan_matches_compat_rewrite() {
    for workload in [Workload::Trfd4, Workload::Shell, Workload::Arc2dFsck] {
        let base = trace_of(workload);
        let spec = System::BCPref.spec();
        let analyzed = analyze_cell(&base, spec);
        let working = analyzed.trace.as_deref().unwrap_or(&base);
        let cfg = profiling_cfg(&base, System::BCPref, Geometry::default());
        let stats = profile_os_misses(cfg, working).unwrap();
        let hot = analysis::find_hot_spots(&stats.total(), &working.meta.code);
        assert!(!hot.is_empty(), "{workload:?}: no hot sites ranked");

        let plan = build_hotspot_plan(working);
        let mut sets: Vec<Vec<u16>> = vec![hot.clone(), vec![hot[0]]];
        // A rotated subset exercises orderings the ranking never produces.
        if hot.len() > 2 {
            let mut rot = hot[1..].to_vec();
            rot.push(hot[0]);
            sets.push(rot);
        }
        for set in sets {
            let planned = merged_trace(working, &plan, &set);
            let staged = compat::insert_hotspot_prefetches(working, &set);
            for cpu in 0..working.n_cpus() {
                assert_eq!(
                    planned.streams[cpu].iter().collect::<Vec<_>>(),
                    staged.streams[cpu].iter().collect::<Vec<_>>(),
                    "{workload:?}: cpu {cpu} rewrite differs for set {set:?}"
                );
            }
        }
    }
}

/// The audit-gated fallback path (profiling with the fully-recorded,
/// auditing machine) must produce the same final cell results as the
/// bookkeeping-free path — same hot set, same rewrite, same simulation.
#[test]
fn audited_prepare_fallback_matches_profiler_path() {
    let base = trace_of(Workload::Shell);
    let spec = System::BCPref.spec();
    let geometry = Geometry::default();
    let fast = try_run_spec_audited(&base, spec, geometry, AuditLevel::Off).unwrap();
    let audited = try_run_spec_audited(&base, spec, geometry, AuditLevel::Final).unwrap();
    assert_eq!(
        fast.stats.total().os_miss_by_site,
        audited.stats.total().os_miss_by_site,
        "audited fallback prepared a different cell"
    );
    assert_eq!(fast.stats.cpu_times, audited.stats.cpu_times);
    assert_eq!(
        fast.stats.total().os_read_misses(),
        audited.stats.total().os_read_misses()
    );
}
