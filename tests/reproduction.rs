//! Cross-crate acceptance tests: the paper's qualitative results must hold
//! on freshly-built workload traces.
//!
//! These run at a reduced trace scale so `cargo test` stays fast; the
//! `repro` binary regenerates the full tables and figures at scale 1.0.

use oscache::core::{
    run_spec, run_system, Geometry, MissBreakdown, OsTimeBreakdown, System, UpdatePolicy,
    WorkloadMetrics,
};
use oscache::workloads::{build_chunked, BuildOptions, Workload};
use oscache_trace::ChunkedTrace;
use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

const SCALE: f64 = 0.1;

fn trace(w: Workload) -> ChunkedTrace {
    static CACHE: OnceLock<Mutex<HashMap<&'static str, ChunkedTrace>>> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    let mut guard = cache.lock().unwrap();
    guard
        .entry(w.name())
        .or_insert_with(|| {
            build_chunked(
                w,
                BuildOptions {
                    scale: SCALE,
                    ..Default::default()
                },
            )
        })
        .clone()
}

fn os_time(sys: System, w: Workload) -> u64 {
    OsTimeBreakdown::from_stats(&run_system(&trace(w), sys).stats).total()
}

fn os_misses(sys: System, w: Workload) -> u64 {
    run_system(&trace(w), sys).stats.total().os_read_misses()
}

#[test]
fn table1_shape_holds_for_every_workload() {
    for w in Workload::all() {
        let r = run_system(&trace(w), System::Base);
        let m = WorkloadMetrics::from_stats(&r.stats);
        // Time split sums to 100 and every component is present.
        let sum = m.user_time_pct + m.idle_time_pct + m.os_time_pct;
        assert!((sum - 100.0).abs() < 0.5, "{w}: {sum}");
        assert!(
            m.os_time_pct > 30.0 && m.os_time_pct < 70.0,
            "{w}: OS {:.1}%",
            m.os_time_pct
        );
        // System-intensive: the OS issues a large share of reads & misses.
        assert!(
            m.os_dreads_pct > 30.0,
            "{w}: os reads {:.1}%",
            m.os_dreads_pct
        );
        assert!(
            m.os_dmisses_pct > 40.0,
            "{w}: os misses {:.1}%",
            m.os_dmisses_pct
        );
        // Miss rates in the paper's neighbourhood (3.2–4.7%).
        assert!(
            m.dmiss_rate_pct > 1.5 && m.dmiss_rate_pct < 10.0,
            "{w}: D-miss rate {:.1}%",
            m.dmiss_rate_pct
        );
        // Shell idles far more than the parallel workloads.
        if w == Workload::Shell {
            assert!(m.idle_time_pct > 15.0, "Shell idle {:.1}%", m.idle_time_pct);
        }
    }
}

#[test]
fn table2_block_ops_dominate_and_shell_differs() {
    let mut shares = Vec::new();
    for w in Workload::all() {
        let b = MissBreakdown::from_stats(&run_system(&trace(w), System::Base).stats);
        assert!(
            b.block_op_pct > 20.0 && b.block_op_pct < 65.0,
            "{w}: block {:.1}%",
            b.block_op_pct
        );
        assert!(
            b.coherence_pct > 2.0,
            "{w}: coherence {:.1}%",
            b.coherence_pct
        );
        assert!(b.other_pct > 25.0, "{w}: other {:.1}%", b.other_pct);
        shares.push((w, b));
    }
    // Shell is sequential: barrier coherence misses all but vanish, while
    // the gang-scheduled TRFD_4 is barrier-dominated (Table 5).
    let barrier_share = |w: Workload| {
        let r = run_system(&trace(w), System::Base);
        let t = r.stats.total();
        let coh: u64 = t.os_miss_coherence.iter().sum();
        t.os_miss_coherence[0] as f64 / coh.max(1) as f64
    };
    let trfd = barrier_share(Workload::Trfd4);
    let shell = barrier_share(Workload::Shell);
    assert!(trfd > 0.25, "TRFD_4 barrier share {trfd:.2} too low");
    assert!(shell < 0.1, "Shell barrier share {shell:.2} too high");
    let _ = shares;
}

#[test]
fn figure2_scheme_ordering() {
    for w in [Workload::Trfd4, Workload::Shell] {
        let base = os_misses(System::Base, w);
        let pref = os_misses(System::BlkPref, w);
        let bypass = os_misses(System::BlkBypass, w);
        let dma = os_misses(System::BlkDma, w);
        // Prefetching removes a third-ish of misses; DMA the most; bypass
        // is the worst scheme.
        assert!(pref < base, "{w}: Blk_Pref {pref} !< Base {base}");
        assert!(dma < pref, "{w}: Blk_Dma {dma} !< Blk_Pref {pref}");
        assert!(
            bypass > pref && bypass > dma,
            "{w}: bypass {bypass} must be the worst of the improved schemes"
        );
        assert!(
            (dma as f64) < 0.7 * base as f64,
            "{w}: Blk_Dma must remove the block misses ({dma} vs {base})"
        );
    }
}

#[test]
fn figure3_ladder_speeds_up_the_os() {
    for w in Workload::all() {
        let base = os_time(System::Base, w);
        let dma = os_time(System::BlkDma, w);
        let bcpref = os_time(System::BCPref, w);
        assert!(dma < base, "{w}: Blk_Dma not faster");
        assert!(bcpref < base, "{w}: BCPref not faster");
        let speedup = 1.0 - bcpref as f64 / base as f64;
        assert!(
            speedup > 0.08,
            "{w}: total speedup only {:.1}% (paper: 19% average)",
            100.0 * speedup
        );
    }
}

#[test]
fn figure4_updates_remove_coherence_misses() {
    for w in [Workload::Trfd4, Workload::Arc2dFsck] {
        let t = trace(w);
        let reloc = run_system(&t, System::BCohReloc);
        let relup = run_system(&t, System::BCohRelUp);
        let coh =
            |r: &oscache::core::RunResult| r.stats.total().os_miss_coherence.iter().sum::<u64>();
        assert!(
            coh(&relup) < coh(&reloc) / 2,
            "{w}: selective updates left {} of {} coherence misses",
            coh(&relup),
            coh(&reloc)
        );
        assert!(relup.stats.bus.update_words > 0);
    }
}

#[test]
fn figure5_prefetching_hides_hot_spot_misses() {
    for w in [Workload::TrfdMake, Workload::Shell] {
        let relup = os_misses(System::BCohRelUp, w);
        let bcpref = os_misses(System::BCPref, w);
        assert!(
            (bcpref as f64) < 0.9 * relup as f64,
            "{w}: BCPref {bcpref} barely below BCoh_RelUp {relup}"
        );
        // Headline: 72–79% of Base misses gone.
        let base = os_misses(System::Base, w);
        assert!(
            (bcpref as f64) < 0.45 * base as f64,
            "{w}: only reached {bcpref}/{base}"
        );
    }
}

#[test]
fn figures6_7_geometry_orderings() {
    let w = Workload::TrfdMake;
    let t = trace(w);
    for geom in [
        Geometry {
            l1d_size: 16 * 1024,
            ..Geometry::default()
        },
        Geometry {
            l1d_size: 64 * 1024,
            ..Geometry::default()
        },
        Geometry {
            l1_line: 64,
            l2_line: 64,
            ..Geometry::default()
        },
    ] {
        let time = |sys: System| {
            OsTimeBreakdown::from_stats(&run_spec(&t, sys.spec(), geom).stats).total()
        };
        let base = time(System::Base);
        let dma = time(System::BlkDma);
        let bcpref = time(System::BCPref);
        assert!(dma < base, "{geom:?}: Blk_Dma !< Base");
        // At generous geometries the two upper curves converge (Figure 6's
        // 64-KB points and Figure 7's long lines); at this reduced trace
        // scale allow 2% of noise on their ordering.
        assert!(
            (bcpref as f64) < 1.02 * dma as f64,
            "{geom:?}: BCPref {bcpref} !<= Blk_Dma {dma}"
        );
    }
}

#[test]
fn selective_update_is_cheaper_than_pure_update() {
    let t = trace(Workload::Trfd4);
    let relup = run_system(&t, System::BCohRelUp);
    let mut full = System::BlkDma.spec();
    full.update = UpdatePolicy::Full;
    let pure = run_spec(&t, full, Geometry::default());
    assert!(
        pure.stats.bus.update_words > relup.stats.bus.update_words,
        "pure update {} must broadcast more than selective {}",
        pure.stats.bus.update_words,
        relup.stats.bus.update_words
    );
}

#[test]
fn deferred_copy_saves_little() {
    // §4.2.1: deferring sub-page copies eliminates only a small fraction
    // of misses — not worth the hardware.
    for w in [Workload::Trfd4, Workload::Shell] {
        let t = trace(w);
        let base = run_system(&t, System::Base)
            .stats
            .total()
            .l1d_read_misses
            .total();
        let mut spec = System::Base.spec();
        spec.deferred_copy = true;
        let defer = run_spec(&t, spec, Geometry::default())
            .stats
            .total()
            .l1d_read_misses
            .total();
        let saved = base.saturating_sub(defer) as f64 / base as f64;
        assert!(
            saved < 0.08,
            "{w}: deferred copy saved {:.1}% — the paper's conclusion (don't \
             build it) would flip",
            100.0 * saved
        );
    }
}

#[test]
fn traces_are_reproducible_end_to_end() {
    let a = build_chunked(
        Workload::Arc2dFsck,
        BuildOptions {
            scale: 0.05,
            seed: 7,
            ..Default::default()
        },
    );
    let b = build_chunked(
        Workload::Arc2dFsck,
        BuildOptions {
            scale: 0.05,
            seed: 7,
            ..Default::default()
        },
    );
    let ra = run_system(&a, System::BCPref);
    let rb = run_system(&b, System::BCPref);
    assert_eq!(ra.stats.cpu_times, rb.stats.cpu_times);
    assert_eq!(
        ra.stats.total().os_read_misses(),
        rb.stats.total().os_read_misses()
    );
}

#[test]
fn scalability_extension_holds_directionally() {
    // More CPUs on one bus: coherence activity and bus utilization grow,
    // yet the optimization ladder keeps working.
    let mut prev_busy = 0.0;
    for n_cpus in [2usize, 4, 8] {
        let t = build_chunked(
            Workload::Trfd4,
            BuildOptions {
                scale: 0.05,
                seed: 21,
                n_cpus,
            },
        );
        assert_eq!(t.n_cpus(), n_cpus);
        let base = run_system(&t, System::Base);
        let busy = base.stats.bus.busy_cycles as f64 / (base.stats.makespan() as f64).max(1.0);
        assert!(
            busy > prev_busy,
            "{n_cpus} cpus: bus utilization must grow ({busy:.2} vs {prev_busy:.2})"
        );
        prev_busy = busy;
        let best = run_system(&t, System::BCPref);
        assert!(
            best.stats.total().os_read_misses() < base.stats.total().os_read_misses(),
            "{n_cpus} cpus: ladder stopped working"
        );
    }
}
