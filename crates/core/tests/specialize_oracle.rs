//! Differential oracle for the config-specialized replay loop
//! (DESIGN.md §15), run over the *real* ladder.
//!
//! `crates/memsys/tests/specialize_matrix.rs` pins every configuration
//! variant on small random traces; this file pins the dispatcher on the
//! inputs production actually runs: every ladder system on every workload
//! across the geometries the figures sweep, audited fallbacks, and
//! adversarial seeded-PRNG traces. The contract is bitwise: identical
//! `SimStats` (including the per-site OS miss maps), identical final
//! machine-state digests, identical step counts. Any divergence means the
//! specialized loop folded away something that was not actually constant.

use oscache_core::{analyze_cell, Geometry, System};
use oscache_memsys::{AuditLevel, Machine, MachineConfig, SimStats};
use oscache_trace::rng::{Rng, SmallRng};
use oscache_trace::{Addr, ChunkedTrace, DataClass, Mode, StreamBuilder, TraceMeta};
use oscache_workloads::{build_chunked, BuildOptions, Workload};

/// Reduced trace scale: big enough for thousands of misses per cell,
/// small enough to run the full ladder differential in seconds.
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

/// Replays one cell through the specialized dispatcher and the generic
/// oracle and asserts bitwise equality of everything a run produces:
/// the statistics (spot-checking the per-site OS miss maps for a sharper
/// failure message), the final machine-state digest, and the step count.
fn assert_spec_matches_generic(cfg: MachineConfig, trace: &ChunkedTrace, what: &str) -> SimStats {
    let mut s = Machine::new(cfg.clone(), trace).unwrap_or_else(|e| panic!("{what}: {e}"));
    let mut g = Machine::new(cfg, trace).unwrap_or_else(|e| panic!("{what}: {e}"));
    let rs = s.run_mut().unwrap_or_else(|e| panic!("{what}: {e}"));
    let rg = g
        .run_generic_mut()
        .unwrap_or_else(|e| panic!("{what}: {e}"));
    for (i, (a, b)) in rs.cpus.iter().zip(&rg.cpus).enumerate() {
        assert_eq!(
            a.os_miss_by_site, b.os_miss_by_site,
            "{what}: cpu {i} per-site OS misses diverge"
        );
    }
    assert_eq!(
        rs.cpu_times, rg.cpu_times,
        "{what}: simulated clocks diverge"
    );
    assert_eq!(rs, rg, "{what}: statistics diverge");
    assert_eq!(
        s.state_digest(),
        g.state_digest(),
        "{what}: final machine states diverge"
    );
    assert_eq!(s.steps(), g.steps(), "{what}: event counts diverge");
    rs
}

/// Every ladder system on every workload, at the default geometry and the
/// two sweep extremes the figures probe: the specialized replay must equal
/// the generic oracle bit for bit on exactly the traces cell preparation
/// simulates.
#[test]
fn specialized_replay_matches_generic_across_ladder() {
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
                assert_spec_matches_generic(cfg, working, &what);
            }
        }
    }
}

/// Audited replays are *not* specialized — the dispatcher must fall back
/// to the generic loop — and the fallback must agree with an explicit
/// generic run, which in turn must agree with the unaudited replay on
/// everything auditing does not touch.
#[test]
fn audited_replays_fall_back_and_agree() {
    let base = trace_of(Workload::Shell);
    let spec = System::BCohRelUp.spec();
    let analyzed = analyze_cell(&base, spec);
    let working = analyzed.trace.as_deref().unwrap_or(&base);
    let mut cfg = Geometry::default().machine_config(&spec);
    cfg.n_cpus = base.n_cpus();
    cfg.update_pages = analyzed.update_pages.clone();
    let plain = assert_spec_matches_generic(cfg.clone(), working, "Shell/audit-off");
    for audit in [AuditLevel::Final, AuditLevel::Strict] {
        let audited_cfg = cfg.clone().with_audit(audit);
        let audited =
            assert_spec_matches_generic(audited_cfg, working, &format!("Shell/{audit:?}"));
        assert_eq!(
            plain.cpu_times, audited.cpu_times,
            "{audit:?} changed clocks"
        );
        assert_eq!(
            plain.total().os_miss_by_site,
            audited.total().os_miss_by_site,
            "{audit:?} changed per-site OS misses"
        );
    }
}

/// Seeded-PRNG random traces: multi-CPU, mixed OS/user modes, random
/// read/write mixes over a shared region, none of the workload
/// generators' structure, with victim caches and update pages sprinkled
/// in by seed to widen the config coverage.
#[test]
fn specialized_replay_matches_generic_on_random_traces() {
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
        if seed % 2 == 0 {
            cfg.victim_lines = 4;
        }
        if seed % 3 == 0 {
            cfg.update_pages.insert(0x0100_0000 >> 12);
        }
        assert_spec_matches_generic(cfg, &t, &format!("random seed {seed}"));
    }
}
