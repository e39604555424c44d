//! The pass contract: every trace rewrite the experiments run keeps each
//! stream's sequence of synchronization events (`Barrier`, `Lock*`,
//! `SetMode`, `Idle`) unchanged — addresses included, except under
//! relocation, which moves lock and barrier words — and only deferral
//! removes block operations —
//! exactly the read-only copies. A pass that skipped past the wrong
//! `BlockOpEnd` would drop barriers and deadlock (or silently shorten)
//! the replay.

use oscache_core::deferred::analyze;
use oscache_core::transform::TransformPipeline;
use oscache_core::{analyze_cell, AnalysisPrefix, Experiment, System, SystemSpec, UpdatePolicy};
use oscache_trace::{Addr, ChunkedTrace, Event};
use oscache_workloads::{build_chunked, BuildOptions, Workload};
use std::sync::Arc;

/// The synchronization events of one stream, in order, with their lock
/// and barrier addresses erased when `erase` is set.
fn sync_events(trace: &ChunkedTrace, cpu: usize, erase: bool) -> Vec<Event> {
    let erased = Addr(0);
    trace.streams[cpu]
        .iter()
        .filter_map(|e| match e {
            Event::Barrier {
                barrier,
                participants,
                ..
            } if erase => Some(Event::Barrier {
                barrier,
                addr: erased,
                participants,
            }),
            Event::LockAcquire { lock, .. } if erase => {
                Some(Event::LockAcquire { lock, addr: erased })
            }
            Event::LockRelease { lock, .. } if erase => {
                Some(Event::LockRelease { lock, addr: erased })
            }
            Event::Barrier { .. }
            | Event::LockAcquire { .. }
            | Event::LockRelease { .. }
            | Event::SetMode { .. }
            | Event::Idle { .. } => Some(e),
            _ => None,
        })
        .collect()
}

fn block_ops(trace: &ChunkedTrace) -> u64 {
    trace
        .streams
        .iter()
        .flat_map(|s| s.iter())
        .filter(|e| matches!(e, Event::BlockOpBegin { .. }))
        .count() as u64
}

/// One spec per distinct analysis prefix of every experiment's cells (the
/// ladder, Table 4's deferred copy, the update ablation), plus page
/// coloring alone and under the full ladder top, which no experiment
/// enables.
fn prefixes() -> Vec<(String, SystemSpec)> {
    let mut colored = System::Base.spec();
    colored.page_coloring = true;
    let mut colored_top = System::BCPref.spec();
    colored_top.page_coloring = true;
    let mut specs: Vec<(String, SystemSpec)> = Vec::new();
    let cells = Experiment::all().into_iter().flat_map(Experiment::cells);
    let extra = [("Base+color", colored), ("BCPref+color", colored_top)];
    for (tag, spec) in cells
        .map(|c| (c.tag, c.spec))
        .chain(extra.map(|(t, s)| (t.to_string(), s)))
    {
        if !specs
            .iter()
            .any(|(_, s)| AnalysisPrefix::of(*s) == AnalysisPrefix::of(spec))
        {
            specs.push((tag, spec));
        }
    }
    specs
}

/// Asserts the contract for every prefix's rewrite and for escape
/// instrumentation over `workload` at `seed` (scale 0.05).
fn check(workload: Workload, seed: u64, specs: &[(String, SystemSpec)]) {
    let base = build_chunked(
        workload,
        BuildOptions {
            scale: 0.05,
            seed,
            ..Default::default()
        },
    );
    let readonly = analyze(&base).readonly_small_copies;
    // (tag, defers copies, relocates, rewritten trace)
    let mut rewrites: Vec<(&str, bool, bool, Arc<ChunkedTrace>)> = specs
        .iter()
        .filter_map(|(tag, spec)| {
            let t = analyze_cell(&base, *spec).trace?;
            let relocates = spec.relocate || spec.update == UpdatePolicy::Selective;
            Some((tag.as_str(), spec.deferred_copy, relocates, t))
        })
        .collect();
    let escapes = TransformPipeline::new().escapes().run(&base);
    rewrites.push(("escapes", false, false, Arc::new(escapes)));
    let what = |tag: &str| format!("seed {seed} {} {tag}", workload.name());
    for (tag, deferred, relocates, out) in &rewrites {
        for cpu in 0..base.n_cpus() {
            let before = sync_events(&base, cpu, *relocates);
            let after = sync_events(out, cpu, *relocates);
            assert!(
                before == after,
                "{} cpu {cpu}: {} sync events before the pass, {} after",
                what(tag),
                before.len(),
                after.len()
            );
        }
        let removed = if *deferred { readonly } else { 0 };
        assert_eq!(
            block_ops(&base) - block_ops(out),
            removed,
            "{}: the pass must remove exactly the read-only copies",
            what(tag)
        );
    }
}

/// The seeds at which deferral once matched a copy to a later identical
/// read-only bracket and skipped past the wrong `BlockOpEnd` (seed 9
/// Shell CPU 3 lost 4 of its 190 sync events).
#[test]
fn pinned_seeds_keep_every_sync_event() {
    let specs = prefixes();
    for seed in [9, 18, 71, 101, 108, 194] {
        for w in Workload::all() {
            check(w, seed, &specs);
        }
    }
}

/// The seed sweep CI runs in release: 200 seeds x 4 workloads.
#[test]
#[ignore = "seed sweep; run in release with --ignored"]
fn seed_sweep_keeps_every_sync_event() {
    let specs = prefixes();
    for seed in 1..=200 {
        for w in Workload::all() {
            check(w, seed, &specs);
        }
    }
}
