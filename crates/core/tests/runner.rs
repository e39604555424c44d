//! Runner and trace-cache guarantees: `--jobs N` can never change a
//! result (cell-level parallelism preserves the single-threaded-simulator
//! determinism of DESIGN.md §5), the cache never hands out a trace that
//! differs from a fresh build, and config fingerprints cannot collide
//! across the system ladder.

use oscache_core::runner::{run_cells_supervised, Cell, TraceCache};
use oscache_core::CellFingerprint;
use oscache_core::{Experiment, Geometry, Repro, RunPolicy, RunResult, System, UpdatePolicy};
use oscache_workloads::{build_chunked, BuildOptions, Workload};
use std::sync::Arc;

const SCALE: f64 = 0.05;

fn opts() -> BuildOptions {
    BuildOptions {
        scale: SCALE,
        ..Default::default()
    }
}

/// A representative cell subset: both block-op schemes and the
/// transform-heavy upper ladder, on the two most dissimilar workloads.
fn subset() -> Vec<Cell> {
    let mut cells = Vec::new();
    for w in [Workload::Trfd4, Workload::Shell] {
        for sys in [
            System::Base,
            System::BlkDma,
            System::BCohRelUp,
            System::BCPref,
        ] {
            cells.push(Cell::system(w, sys));
        }
    }
    cells
}

/// A stable bytewise report of one result: every scalar the tables and
/// figures are derived from. (Debug-formatting the raw stats would hash
/// map iteration order into the bytes; this stays deterministic.)
fn report(r: &RunResult) -> String {
    let t = r.stats.total();
    format!(
        "spec={:?} geom={:?} osm={} blk={} coh={:?} other={} idle={} user={} os={} \
         dreads=({},{}) dwr=({},{}) bus_busy={} upd={}\n",
        r.spec,
        r.geometry,
        t.os_read_misses(),
        t.os_miss_blockop,
        t.os_miss_coherence,
        t.os_miss_other,
        t.idle_cycles,
        t.exec_cycles.user,
        t.exec_cycles.os,
        t.dreads.user,
        t.dreads.os,
        t.dwrite_cycles.user,
        t.dwrite_cycles.os,
        r.stats.bus.busy_cycles,
        r.stats.bus.update_words,
    )
}

fn run_subset(jobs: usize) -> String {
    let cache = TraceCache::new();
    let cells = subset();
    let rep = run_cells_supervised(&cache, opts(), &cells, jobs, &RunPolicy::fail_fast(), None);
    assert_eq!(rep.outcomes.len(), cells.len());
    let outcomes: Vec<_> = rep
        .outcomes
        .iter()
        .map(|slot| slot.as_ref().expect("subset runs"))
        .collect();
    // Output order is cell-index order, never completion order.
    for (cell, out) in cells.iter().zip(&outcomes) {
        assert_eq!(cell.key(), out.cell.key());
    }
    outcomes.iter().map(|o| report(&o.result)).collect()
}

#[test]
fn jobs_do_not_change_results() {
    let serial = run_subset(1);
    let par_a = run_subset(4);
    let par_b = run_subset(4);
    assert_eq!(serial, par_a, "--jobs 4 diverged from --jobs 1");
    assert_eq!(par_a, par_b, "--jobs 4 is not reproducible run-to-run");
}

#[test]
fn warmed_parallel_repro_renders_identically_to_serial() {
    let render = |jobs: usize| {
        let mut r = Repro::with_jobs(SCALE, jobs);
        let warm = r.warm_supervised(&[Experiment::Table2], &RunPolicy::fail_fast(), None);
        assert!(warm.failures.is_empty(), "table2 cells failed");
        assert_eq!(
            warm.cells.len(),
            4,
            "table2 needs one Base cell per workload"
        );
        format!("{}", r.table2())
    };
    assert_eq!(render(1), render(4), "rendered report depends on --jobs");
}

#[test]
fn cached_trace_is_bitwise_identical_to_fresh_build() {
    let cache = TraceCache::new();
    // A spread of (workload, scale, seed) keys, nothing special about them.
    let keys = [
        (Workload::Trfd4, 0.02, 1u64),
        (Workload::Shell, 0.02, 7),
        (Workload::TrfdMake, 0.03, 42),
        (Workload::Arc2dFsck, 0.02, 0x05cac8e),
        (Workload::Trfd4, 0.03, 7),
    ];
    let bytes = |t: &oscache_trace::ChunkedTrace| {
        let mut buf = Vec::new();
        oscache_trace::write_trace(&t.to_trace(), &mut buf).expect("serialize");
        buf
    };
    for (w, scale, seed) in keys {
        let o = BuildOptions {
            scale,
            seed,
            ..Default::default()
        };
        let cached = cache.base_chunked(w, o);
        let fresh = build_chunked(w, o);
        assert!(
            cached.streams == fresh.streams,
            "{w} scale={scale} seed={seed}: cache returned different encoded chunks"
        );
        assert_eq!(
            bytes(&cached),
            bytes(&fresh),
            "{w} scale={scale} seed={seed}: cache returned a different trace"
        );
        // Second lookup is the same shared allocation, not a rebuild.
        assert!(Arc::ptr_eq(&cached, &cache.base_chunked(w, o)));
    }
    assert_eq!(cache.base_len(), keys.len());
}

#[test]
fn concurrent_lookups_build_once() {
    let cache = TraceCache::new();
    let traces: Vec<Arc<oscache_trace::ChunkedTrace>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..8)
            .map(|_| s.spawn(|| cache.base_chunked(Workload::Shell, opts())))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(cache.base_len(), 1, "duplicate builds for one key");
    assert_eq!(cache.build_timings().len(), 1);
    for t in &traces[1..] {
        assert!(
            Arc::ptr_eq(&traces[0], t),
            "lookups returned different Arcs"
        );
    }
}

#[test]
fn ladder_fingerprints_cannot_collide() {
    // Every spec of the evaluated ladder plus the ablations (Base through
    // BCPref, deferred copy, page coloring, full updates) and every
    // geometry the figures sweep.
    let mut specs: Vec<_> = System::all().map(|s| s.spec()).to_vec();
    let mut deferred = System::Base.spec();
    deferred.deferred_copy = true;
    specs.push(deferred);
    let mut colored = System::Base.spec();
    colored.page_coloring = true;
    specs.push(colored);
    let mut full = System::BlkDma.spec();
    full.update = UpdatePolicy::Full;
    specs.push(full);

    // The sweeps both pass through the default point, so dedup: identical
    // geometries are the *same* cell and must share a fingerprint.
    let mut geoms = vec![Geometry::default()];
    for g in oscache_core::experiments::figure6_sweep()
        .into_iter()
        .chain(oscache_core::experiments::figure7_sweep())
        .map(|(_, g)| g)
    {
        if !geoms.contains(&g) {
            geoms.push(g);
        }
    }

    let mut fps = Vec::new();
    for w in Workload::all() {
        for &spec in &specs {
            for &geometry in &geoms {
                let cell = Cell {
                    workload: w,
                    spec,
                    geometry,
                    tag: String::new(),
                };
                fps.push(cell.fingerprint(opts()));
            }
        }
    }
    for (i, a) in fps.iter().enumerate() {
        for b in &fps[i + 1..] {
            assert_ne!(a, b, "distinct cells share a fingerprint");
        }
    }
    // The 64-bit digest convenience must also be collision-free across the
    // whole grid (it is not what the cache keys on, but logs rely on it).
    let mut digests: Vec<u64> = fps.iter().map(|f| f.digest()).collect();
    digests.sort_unstable();
    digests.dedup();
    assert_eq!(digests.len(), fps.len(), "fingerprint digest collision");
}

/// A prepared-cache lookup with no cancellation.
fn prepared(
    cache: &TraceCache,
    base: &oscache_trace::ChunkedTrace,
    fp: CellFingerprint,
) -> (Arc<oscache_core::PreparedCell>, oscache_core::PrepPhases) {
    cache
        .prepared_chunked_cancellable(base, fp, &oscache_memsys::CancelToken::none())
        .unwrap()
}

#[test]
fn a_duplicate_cell_waits_for_the_in_flight_result() {
    // Fig. 6's 32 KB point is the Base machine: a ladder cell and a sweep
    // cell with one fingerprint. Dispatched together onto two workers,
    // one simulates and the other is served its result, never preparing
    // or simulating again.
    let ladder = Cell::system(Workload::Trfd4, System::Base);
    let sweep = Cell {
        tag: "Base@32KB".to_string(),
        ..ladder.clone()
    };
    assert_eq!(ladder.fingerprint(opts()), sweep.fingerprint(opts()));
    let cache = TraceCache::new();
    let rep = run_cells_supervised(
        &cache,
        opts(),
        &[ladder, sweep],
        2,
        &RunPolicy::fail_fast(),
        None,
    );
    let outcomes: Vec<_> = rep.outcomes.into_iter().map(Result::unwrap).collect();
    let served = outcomes
        .iter()
        .filter(|o| o.phases.cached && o.prepare_ms == 0.0)
        .count();
    assert_eq!(
        served, 1,
        "exactly one duplicate is served the other's result"
    );
    assert_eq!(report(&outcomes[0].result), report(&outcomes[1].result));
}

#[test]
fn analysis_is_shared_across_geometries_and_prefix_equal_specs() {
    // BCoh_RelUp and BCPref differ only in `hotspot_prefetch`, which the
    // geometry-independent analysis ignores — so two geometries of BCPref
    // plus one BCoh_RelUp cell must produce exactly one analysis entry,
    // and the second BCPref geometry's analyze time must be a cache hit.
    let cache = TraceCache::new();
    let narrow = Cell::system(Workload::Trfd4, System::BCPref);
    let wide = Cell {
        geometry: Geometry {
            l1_line: 64,
            l2_line: 64,
            ..Geometry::default()
        },
        tag: "BCPref@64B".to_string(),
        ..narrow.clone()
    };
    let relup = Cell::system(Workload::Trfd4, System::BCohRelUp);
    let base = cache.base_chunked(narrow.workload, opts());
    let (_, p1) = prepared(&cache, &base, narrow.fingerprint(opts()));
    let (_, p2) = prepared(&cache, &base, wide.fingerprint(opts()));
    let (_, p3) = prepared(&cache, &base, relup.fingerprint(opts()));
    assert_eq!(cache.analyzed_len(), 1, "prefix-equal specs split analyses");
    assert!(p1.analyze_ms > 0.0, "first cell did not run the analysis");
    assert_eq!(p2.analyze_ms, 0.0, "second geometry re-ran the analysis");
    assert_eq!(p3.analyze_ms, 0.0, "prefix-equal spec re-ran the analysis");
    assert!(
        p1.profile_ms > 0.0,
        "hotspot cell skipped the profiling run"
    );
    assert_eq!(p3.profile_ms, 0.0, "non-hotspot cell ran a profiling run");
    assert!(!p1.cached && !p2.cached && !p3.cached);
}
