//! A hot-spot cell ranks its sites from its *twin*: the same fingerprint
//! with `hotspot_prefetch = false` (DESIGN.md §12). `BCoh_RelUp` is
//! `BCPref`'s twin, so the two cells share one replay: whichever runs
//! first publishes the twin's result, and the other is served it.
//!
//! These tests pin that the shared result is the twin cell's own result,
//! that the hot set is the one `find_hot_spots` ranks from it, and that
//! an audited preparation (whose twin replay runs the auditing machine)
//! selects the same hot set and simulates the same cell.

use oscache_core::{
    analysis, analyze_cell, run_cells_supervised, run_prepared_chunked_timed, try_run_spec, Cell,
    CellFingerprint, Geometry, RunPolicy, System, TraceCache,
};
use oscache_memsys::{AuditLevel, CancelToken};
use oscache_workloads::{BuildOptions, Workload};

const WORKLOAD: Workload = Workload::Shell;

fn opts() -> BuildOptions {
    BuildOptions {
        scale: 0.05,
        ..Default::default()
    }
}

/// `BCPref` and `BCoh_RelUp` at the default geometry and at Figure 6's
/// 16 KB point, tagged as the experiments tag them.
fn cells() -> Vec<Cell> {
    let sweep = Geometry {
        l1d_size: 16 * 1024,
        ..Geometry::default()
    };
    let mut cells = Vec::new();
    for (suffix, geometry) in [("", Geometry::default()), ("@16KB", sweep)] {
        for system in [System::BCPref, System::BCohRelUp] {
            cells.push(Cell {
                geometry,
                tag: format!("{}{suffix}", system.label()),
                ..Cell::system(WORKLOAD, system)
            });
        }
    }
    cells
}

/// The sites `cell`'s preparation through `cache` selects.
fn hot_set(cache: &TraceCache, cell: &Cell, audit: AuditLevel) -> Vec<u16> {
    let base = cache.base_chunked(cell.workload, opts());
    let fp = CellFingerprint {
        audit,
        ..cell.fingerprint(opts())
    };
    let (prepared, _) = cache
        .prepared_chunked_cancellable(&base, fp, &CancelToken::none())
        .unwrap();
    let hot = prepared
        .prefetches
        .as_ref()
        .expect("hot-spot cell")
        .hot
        .clone();
    assert!(!hot.is_empty(), "{}: no hot sites ranked", cell.tag);
    hot
}

#[test]
fn a_hotspot_cell_and_its_twin_share_one_replay() {
    for jobs in [1, 2] {
        let cache = TraceCache::new();
        let cells = cells();
        let rep = run_cells_supervised(&cache, opts(), &cells, jobs, &RunPolicy::fail_fast(), None);
        let outcomes: Vec<_> = rep.outcomes.into_iter().map(Result::unwrap).collect();
        let base = cache.base_chunked(WORKLOAD, opts());
        for pair in outcomes.chunks(2) {
            let (bcpref, relup) = (&pair[0], &pair[1]);
            let what = format!("jobs {jobs} {}", relup.cell.tag);
            // Dispatch runs the dearer BCPref cell first, so on one worker
            // its twin replay serves the BCoh_RelUp cell. On two, both can
            // start together; either way the twin is replayed once.
            if jobs == 1 {
                assert!(relup.phases.cached, "{what}: the twin was replayed twice");
            }
            assert_eq!(
                relup.phases.cached,
                bcpref.phases.profile_ms > 0.0,
                "{what}: the twin was replayed twice or never"
            );
            let fresh = try_run_spec(&base, relup.cell.spec, relup.cell.geometry).unwrap();
            assert_eq!(
                relup.result.stats, fresh.stats,
                "{what}: the shared result is not the twin's own"
            );
            let working = analyze_cell(&base, bcpref.cell.spec).trace;
            let code = &working.as_deref().unwrap_or(&base).meta.code;
            assert_eq!(
                hot_set(&cache, &bcpref.cell, AuditLevel::Off),
                analysis::find_hot_spots(&fresh.stats.total(), code),
                "{what}: the hot set is not ranked from the twin's result"
            );
        }
    }
}

#[test]
fn an_audited_preparation_selects_the_same_hot_set() {
    let cache = TraceCache::new();
    let base = cache.base_chunked(WORKLOAD, opts());
    for cell in cells().iter().filter(|c| c.spec.hotspot_prefetch) {
        let what = &cell.tag;
        let plain = try_run_spec(&base, cell.spec, cell.geometry).unwrap();
        let strict_cache = TraceCache::new();
        let fp = CellFingerprint {
            audit: AuditLevel::Strict,
            ..cell.fingerprint(opts())
        };
        let (prepared, _) = strict_cache
            .prepared_chunked_cancellable(&base, fp, &CancelToken::none())
            .unwrap();
        assert_eq!(
            prepared.prefetches.as_ref().unwrap().hot,
            hot_set(&cache, cell, AuditLevel::Off),
            "{what}: the audited twin ranked a different hot set"
        );
        let (strict, _) = run_prepared_chunked_timed(
            &base,
            &prepared,
            cell.spec,
            cell.geometry,
            AuditLevel::Strict,
            &CancelToken::none(),
        )
        .unwrap();
        assert_eq!(
            strict.stats, plain.stats,
            "{what}: the audited cell simulated differently"
        );
    }
}
