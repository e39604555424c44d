//! End-to-end equivalence oracle for the fused transform pipeline.
//!
//! Re-implements the pre-fusion `prepare_cell` — one full rewrite per
//! software pass, using the old passes kept in `oscache_oracle::compat`
//! and the independent deferral reference `oscache_oracle::deferral` — and
//! checks that the production path (`analyze_cell` +
//! `prepare_from_analysis`, hot-spot cells with their selected prefetches
//! merged in as the replay merges them) produces an
//! event-for-event identical effective replay stream and the same
//! update-page set for every `System` in the ladder, plus Table 4's
//! deferred-copy analysis and the coloring variants the ladder itself
//! never enables.

use oscache_core::{
    analysis, analyze_cell, prepare_from_analysis, transform, Geometry, System, UpdatePolicy,
};
use oscache_memsys::{AuditLevel, CancelToken, Machine, PageSet};
use oscache_oracle::{compat, deferral};
use oscache_trace::ChunkedTrace;
use oscache_workloads::{build_chunked, BuildOptions, Workload};
use std::collections::HashSet;

/// The old pass-by-pass preparation: each enabled pass rewrites the whole
/// trace. Mirrors the pre-fusion `sim::prepare_cell` exactly; the analyses
/// that have no reference twin (sharing profile, the profiling replay) run
/// on the working trace itself.
fn prepare_compat(
    trace: &ChunkedTrace,
    spec: oscache_core::SystemSpec,
    geometry: Geometry,
) -> (Option<ChunkedTrace>, PageSet) {
    let mut update_pages = PageSet::new();
    let mut owned: Option<ChunkedTrace> = None;

    if spec.deferred_copy {
        owned = Some(deferral::defer_copies(owned.as_ref().unwrap_or(trace)).1);
    }

    if spec.page_coloring {
        let l2_size = geometry.machine_config(&spec).l2.size;
        owned = Some(compat::color_pages(
            owned.as_ref().unwrap_or(trace),
            l2_size,
        ));
    }

    if spec.privatize || spec.relocate || spec.update != UpdatePolicy::None {
        let working = owned.as_ref().unwrap_or(trace);
        let profile = analysis::profile_sharing(working);
        let privatized = if spec.privatize {
            analysis::find_privatizable(&profile)
        } else {
            Vec::new()
        };
        let mut plan = transform::RelocationMap::new();
        let mut placed: HashSet<u32> = HashSet::new();
        if spec.update == UpdatePolicy::Selective {
            let set = analysis::find_update_set(&profile, &privatized);
            let (upd_plan, pages) = transform::update_page_plan(&working.meta, &set);
            update_pages = pages.into_iter().collect();
            for w in set.all_words() {
                if let Some(v) = working.meta.var_at(w) {
                    placed.insert(v.addr.0);
                } else {
                    placed.insert(w.0);
                }
            }
            plan = upd_plan;
        }
        if spec.relocate {
            let fs = transform::false_sharing_plan(&working.meta, &placed);
            for v in &working.meta.vars {
                if v.false_shared_group.is_some()
                    && !placed.contains(&v.addr.0)
                    && plan.lookup(v.addr).is_none()
                {
                    if let Some(new) = fs.lookup(v.addr) {
                        plan.add(v.addr, v.size, new);
                    }
                }
            }
        }
        plan.finish();
        let mut t = working.clone();
        if spec.privatize && !privatized.is_empty() {
            t = compat::privatize_counters(&t, &privatized);
        }
        if !plan.is_empty() {
            t = compat::relocate(&t, &plan);
        }
        owned = Some(t);
    }

    if spec.update == UpdatePolicy::Full {
        let working = owned.as_ref().unwrap_or(trace);
        update_pages = transform::full_update_pages(&working.meta)
            .into_iter()
            .collect();
    }

    if spec.hotspot_prefetch {
        let mut cfg = geometry.machine_config(&spec);
        cfg.n_cpus = trace.n_cpus();
        cfg.update_pages = update_pages.clone();
        cfg.audit = AuditLevel::Off;
        let working = owned.as_ref().unwrap_or(trace);
        let profile_stats = Machine::new(cfg, working).unwrap().run().unwrap();
        let hot = analysis::find_hot_spots(&profile_stats.total(), &working.meta.code);
        let t = compat::insert_hotspot_prefetches(working, &hot);
        owned = Some(t);
    }

    (owned, update_pages)
}

fn assert_prepared_equal(
    a: Option<&ChunkedTrace>,
    trace: &ChunkedTrace,
    b: Option<&ChunkedTrace>,
    what: &str,
) {
    let a = a.unwrap_or(trace);
    let b = b.unwrap_or(trace);
    assert_eq!(a.n_cpus(), b.n_cpus(), "{what}: cpu count differs");
    for (cpu, (sa, sb)) in a.streams.iter().zip(&b.streams).enumerate() {
        assert_eq!(
            sa.len(),
            sb.len(),
            "{what}: cpu {cpu} stream length differs"
        );
        for (i, (ea, eb)) in sa.iter().zip(sb).enumerate() {
            assert_eq!(ea, eb, "{what}: cpu {cpu} event {i} differs");
        }
    }
}

fn check_workload(workload: Workload, seed: u64) {
    let ct = build_chunked(
        workload,
        BuildOptions {
            scale: 0.05,
            seed,
            ..Default::default()
        },
    );
    let geometry = Geometry::default();
    // Every ladder system, plus coloring alone and coloring stacked on the
    // full ladder top (exercises the C stage feeding P/R/H), plus Table 4's
    // deferred copy alone and under the full ladder top (the D stage
    // feeding every later plan).
    let mut specs: Vec<(String, oscache_core::SystemSpec)> = System::all()
        .iter()
        .map(|s| (s.label().to_string(), s.spec()))
        .collect();
    let mut colored = System::Base.spec();
    colored.page_coloring = true;
    specs.push(("Base+color".into(), colored));
    let mut colored_top = System::BCPref.spec();
    colored_top.page_coloring = true;
    specs.push(("BCPref+color".into(), colored_top));
    let mut deferred = System::Base.spec();
    deferred.deferred_copy = true;
    specs.push(("Base+Deferred".into(), deferred));
    let mut deferred_top = System::BCPref.spec();
    deferred_top.deferred_copy = true;
    specs.push(("BCPref+Deferred".into(), deferred_top));

    for (label, spec) in specs {
        let analyzed = analyze_cell(&ct, spec);
        let none = CancelToken::none();
        let (fused, _) =
            prepare_from_analysis(&ct, &analyzed, spec, geometry, AuditLevel::Off, &none).unwrap();
        let (oracle, oracle_pages) = prepare_compat(&ct, spec, geometry);
        let what = format!("{workload:?}/{label}");
        assert_eq!(
            fused.update_pages, oracle_pages,
            "{what}: update pages differ"
        );
        // The effective replay stream: the working trace with the cell's
        // hot set merged in, window by window, as the replay merges it
        // (tests/hotspot_merge.rs pins the replay itself).
        let working = fused.trace.as_deref().unwrap_or(&ct);
        let merged = (fused.prefetches.as_ref())
            .map(|p| oscache_oracle::merged_trace(working, &p.plan, &p.hot));
        let replayed = merged.as_ref().or(fused.trace.as_deref());
        assert_eq!(
            fused.prefetches.is_some(),
            spec.hotspot_prefetch,
            "{what}: prefetches selected for the wrong specs"
        );
        assert_prepared_equal(replayed, &ct, oracle.as_ref(), &what);
    }
}

#[test]
fn fused_prepare_matches_pass_by_pass_oracle_trfd() {
    check_workload(Workload::Trfd4, 11);
}

#[test]
fn fused_prepare_matches_pass_by_pass_oracle_shell() {
    check_workload(Workload::Shell, 12);
}

#[test]
fn fused_prepare_matches_pass_by_pass_oracle_fsck() {
    check_workload(Workload::Arc2dFsck, 13);
}
