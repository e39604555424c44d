//! Ablation benchmarks for the design choices DESIGN.md calls out: write
//! buffer depths (§4.1.2 suggests deeper buffers as an alternative),
//! prefetch look-ahead distance, update-protocol policy, and the deferred
//! copy study. Each ablation runs the full simulation, prints the headline
//! metric of its configuration, and times the run. Run with
//! `cargo bench -p oscache-bench --bench ablations`.

use oscache_core::runner::{run_cells_supervised, Cell};
use oscache_core::{
    default_jobs, try_run_spec_audited, Geometry, RunPolicy, RunResult, System, SystemSpec,
    TraceCache, UpdatePolicy,
};
use oscache_memsys::{AuditLevel, Machine, MachineConfig, SimStats};
use oscache_trace::ChunkedTrace;
use oscache_workloads::{BuildOptions, Workload};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

const SCALE: f64 = 0.05;

/// Shared cache: the TRFD_4 trace is built once for every ablation group.
fn cache() -> &'static TraceCache {
    static C: OnceLock<TraceCache> = OnceLock::new();
    C.get_or_init(TraceCache::new)
}

fn opts() -> BuildOptions {
    BuildOptions {
        scale: SCALE,
        ..Default::default()
    }
}

fn trfd() -> Arc<ChunkedTrace> {
    cache().base_chunked(Workload::Trfd4, opts())
}

fn timed<R>(group: &str, label: &str, f: impl Fn() -> R) -> R {
    let t0 = Instant::now();
    let out = f();
    println!(
        "{group}/{label:<12} {:>9.3} ms",
        1e3 * t0.elapsed().as_secs_f64()
    );
    out
}

fn run_cfg(cfg: &MachineConfig) -> SimStats {
    Machine::new(cfg.clone(), &trfd()).unwrap().run().unwrap()
}

/// One full cell (software passes plus final run) on the TRFD_4 trace.
fn run_spec(spec: SystemSpec) -> RunResult {
    try_run_spec_audited(&trfd(), spec, Geometry::default(), AuditLevel::Off).unwrap()
}

/// Fans a set of ablation cells out over the parallel runner and returns
/// their results in cell order (bitwise-identical to running serially).
fn run_ablation_cells(group: &str, cells: Vec<Cell>) -> Vec<RunResult> {
    let t0 = Instant::now();
    let report = run_cells_supervised(
        cache(),
        opts(),
        &cells,
        default_jobs(),
        &RunPolicy::fail_fast(),
        None,
    );
    println!(
        "{group}/fanout      {:>9.3} ms  ({} cells, {} workers)",
        1e3 * t0.elapsed().as_secs_f64(),
        cells.len(),
        report.jobs
    );
    report
        .outcomes
        .into_iter()
        .map(|o| o.unwrap_or_else(|f| panic!("{f}")).result)
        .collect()
}

/// §4.1.2: "Obvious techniques to reduce this stall include deeper write
/// buffers" — sweep the L2→bus buffer depth.
fn bench_write_buffer_depth() {
    for depth in [2usize, 8, 32] {
        let mut cfg = MachineConfig::base();
        cfg.wb2_depth = depth;
        let stats = timed("ablate_wb2_depth", &depth.to_string(), || run_cfg(&cfg));
        println!(
            "  wb2_depth={depth}: OS write stall = {} cycles",
            stats.total().dwrite_cycles.os
        );
    }
}

/// Prefetch look-ahead distance for `Blk_Pref` (§4.2's software
/// pipelining): too short leaves latency exposed, too long wastes MSHRs.
fn bench_prefetch_distance() {
    for dist in [1u32, 4, 12] {
        let mut cfg = MachineConfig::base().with_block_scheme(oscache_memsys::BlockOpScheme::Pref);
        cfg.prefetch_distance = dist;
        let stats = timed("ablate_prefetch_distance", &dist.to_string(), || {
            run_cfg(&cfg)
        });
        let t = stats.total();
        println!(
            "  distance={dist}: block misses {} partial {} full {}",
            t.os_miss_blockop, t.prefetch_partial_hits, t.prefetch_full_hits
        );
    }
}

/// §5.2: invalidate-only vs selective updates vs a pure update protocol.
/// The three independent policy points run concurrently via the runner.
fn bench_update_policy() {
    let points = [
        ("invalidate", UpdatePolicy::None),
        ("selective", UpdatePolicy::Selective),
        ("full", UpdatePolicy::Full),
    ];
    let cells = points
        .iter()
        .map(|&(label, policy)| {
            let mut spec = if policy == UpdatePolicy::Full {
                System::BlkDma.spec()
            } else {
                System::BCohReloc.spec()
            };
            spec.update = policy;
            Cell {
                workload: Workload::Trfd4,
                spec,
                geometry: Geometry::default(),
                tag: format!("update-{label}"),
            }
        })
        .collect();
    for ((label, _), r) in points
        .iter()
        .zip(run_ablation_cells("ablate_update_policy", cells))
    {
        println!(
            "  {label}: coherence misses {} update words {}",
            r.stats.total().os_miss_coherence.iter().sum::<u64>(),
            r.stats.bus.update_words
        );
    }
}

/// §4.2.1: deferred copying on/off.
fn bench_deferred_copy() {
    for on in [false, true] {
        let mut spec = System::Base.spec();
        spec.deferred_copy = on;
        timed("ablate_deferred_copy", &on.to_string(), || run_spec(spec));
    }
}

/// §7 remarks the remaining misses are mostly conflicts, which the paper
/// cannot attack with off-the-shelf parts — associativity is the obvious
/// hardware ablation.
fn bench_associativity() {
    let cells = [1u32, 2, 4]
        .iter()
        .map(|&ways| Cell {
            workload: Workload::Trfd4,
            spec: System::Base.spec(),
            geometry: Geometry::default().with_ways(ways, ways),
            tag: format!("{ways}way"),
        })
        .collect();
    for (ways, r) in [1u32, 2, 4]
        .into_iter()
        .zip(run_ablation_cells("ablate_associativity", cells))
    {
        println!(
            "  {ways}-way: OS misses {} (other {})",
            r.stats.total().os_read_misses(),
            r.stats.total().os_miss_other
        );
    }
}

/// §7's page-placement extension: color dynamically-allocated pages
/// across the L2.
fn bench_page_coloring() {
    for on in [false, true] {
        let mut spec = System::Base.spec();
        spec.page_coloring = on;
        let r = timed("ablate_page_coloring", &on.to_string(), || run_spec(spec));
        println!(
            "  coloring={on}: OS misses {} (other {})",
            r.stats.total().os_read_misses(),
            r.stats.total().os_miss_other
        );
    }
}

/// Victim-cache sizes (another conflict-miss mitigation in the spirit of
/// the paper's §7 discussion).
fn bench_victim_cache() {
    for lines in [0usize, 4, 16] {
        let mut cfg = MachineConfig::base();
        cfg.victim_lines = lines;
        let s = timed("ablate_victim_cache", &lines.to_string(), || run_cfg(&cfg));
        println!(
            "  victim={lines}: OS misses {} (other {})",
            s.total().os_read_misses(),
            s.total().os_miss_other
        );
    }
}

fn main() {
    bench_write_buffer_depth();
    bench_prefetch_distance();
    bench_update_policy();
    bench_deferred_copy();
    bench_associativity();
    bench_page_coloring();
    bench_victim_cache();
}
