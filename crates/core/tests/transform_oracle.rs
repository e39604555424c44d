//! Equivalence of the fused [`TransformPipeline`] and the hot-spot plan
//! with the pass-by-pass reference rewrites of `oscache_oracle::compat`,
//! event for event, on a workload trace: each stage alone, every stage
//! composed, and the plan merged for several hot sets. A hand-built
//! two-CPU trace pins each rewrite's shape on a few events.

use oscache_core::analysis;
use oscache_core::transform::{
    build_hotspot_plan, false_sharing_plan, private_copy_addr, static_pages, RelocationMap,
    TransformPipeline, LOOP_AHEAD, RELOC_BASE,
};
use oscache_oracle::{compat, merged_trace};
use oscache_trace::{Addr, ChunkedTrace, DataClass, Event, Mode, StreamBuilder, TraceMeta};
use std::collections::HashSet;

/// Asserts two traces are event-for-event identical.
fn assert_traces_equal(a: &ChunkedTrace, b: &ChunkedTrace, what: &str) {
    assert_eq!(a.streams.len(), b.streams.len(), "{what}: stream count");
    for (cpu, (sa, sb)) in a.streams.iter().zip(&b.streams).enumerate() {
        assert_eq!(
            sa.len(),
            sb.len(),
            "{what}: cpu{cpu} length {} vs {}",
            sa.len(),
            sb.len()
        );
        for (i, (ea, eb)) in sa.iter().zip(sb).enumerate() {
            assert_eq!(ea, eb, "{what}: cpu{cpu} event {i}");
        }
    }
}

fn workload_trace() -> ChunkedTrace {
    oscache_workloads::build_chunked(
        oscache_workloads::Workload::Trfd4,
        oscache_workloads::BuildOptions {
            scale: 0.05,
            seed: 7,
            ..Default::default()
        },
    )
}

#[test]
fn pipeline_matches_compat_single_passes() {
    let t = workload_trace();
    let p = analysis::profile_sharing(&t);
    let privatized = analysis::find_privatizable(&p);
    assert!(!privatized.is_empty(), "need privatization targets");
    assert_traces_equal(
        &TransformPipeline::new().privatize(&privatized).run(&t),
        &compat::privatize_counters(&t, &privatized),
        "privatize",
    );
    let plan = false_sharing_plan(&t.meta, &HashSet::new());
    assert!(!plan.is_empty(), "need relocation ranges");
    assert_traces_equal(
        &TransformPipeline::new().relocate(&plan).run(&t),
        &compat::relocate(&t, &plan),
        "relocate",
    );
    assert_traces_equal(
        &TransformPipeline::new().escapes().run(&t),
        &compat::instrument_escapes(&t),
        "escapes",
    );
    assert_traces_equal(
        &TransformPipeline::new().coloring(&t, 256 * 1024).run(&t),
        &compat::color_pages(&t, 256 * 1024),
        "coloring",
    );
    // The identity pipeline is a chunk-level copy.
    let id = TransformPipeline::new().run(&t);
    assert_traces_equal(&t, &id, "identity");
}

#[test]
fn fused_pipeline_matches_compat_composition() {
    // The fused walk plus the merged hot-spot plan must equal the pass-by-pass
    // *composition* in the pipeline's stage order, with every stage
    // enabled at once.
    let t = workload_trace();
    let p = analysis::profile_sharing(&t);
    let privatized = analysis::find_privatizable(&p);
    let mut plan = false_sharing_plan(&t.meta, &HashSet::new());
    plan.finish();
    let sites: Vec<u16> = t.meta.code.sites().map(|(id, _)| id.0).collect();

    let fused = TransformPipeline::new()
        .coloring(&t, 256 * 1024)
        .privatize(&privatized)
        .relocate(&plan)
        .escapes()
        .run(&t);
    fused.validate().expect("fused output validates");
    let fused = merged_trace(&fused, &build_hotspot_plan(&fused), &sites);

    let staged = compat::color_pages(&t, 256 * 1024);
    let staged = compat::privatize_counters(&staged, &privatized);
    let staged = compat::relocate(&staged, &plan);
    let staged = compat::instrument_escapes(&staged);
    let staged = compat::insert_hotspot_prefetches(&staged, &sites);
    assert_traces_equal(&fused, &staged, "fused C+P+R+E+H");
}

#[test]
fn hotspot_plan_matches_compat_insertion() {
    // Hot-spot insertion over every non-block-op site, loop and
    // sequence alike, exercising both insertion shapes and hoisting;
    // one plan serves every hot set.
    let t = workload_trace();
    let sites: Vec<u16> = t.meta.code.sites().map(|(id, _)| id.0).collect();
    let plan = build_hotspot_plan(&t);
    assert_traces_equal(
        &merged_trace(&t, &plan, &sites),
        &compat::insert_hotspot_prefetches(&t, &sites),
        "hotspot all sites",
    );
    // A subset and the empty set (identity merge).
    let some: Vec<u16> = sites.iter().copied().take(sites.len() / 2).collect();
    assert_traces_equal(
        &merged_trace(&t, &plan, &some),
        &compat::insert_hotspot_prefetches(&t, &some),
        "hotspot subset",
    );
    assert_traces_equal(&merged_trace(&t, &plan, &[]), &t, "hotspot empty set");
}

fn mini_trace() -> ChunkedTrace {
    let mut meta = TraceMeta::default();
    let site = meta.code.add_site("seq", false);
    let bb = meta.code.add_block(Addr(0x1000), 4, site);
    let lsite = meta.code.add_site("loop", true);
    let lb = meta.code.add_block(Addr(0x2000), 4, lsite);
    let mut t = ChunkedTrace::new(2, meta);
    let mut b = StreamBuilder::new();
    b.set_mode(Mode::Os);
    b.exec(bb);
    // counter update on cpu0
    b.rmw(Addr(0x0100_0000), DataClass::InfreqCounter);
    // aggregate read
    b.read(Addr(0x0100_0000), DataClass::InfreqCounter);
    b.exec(lb);
    b.read(Addr(0x0200_0000), DataClass::PageTable);
    t.streams[0] = b.finish();
    let mut b1 = StreamBuilder::new();
    b1.set_mode(Mode::Os);
    b1.rmw(Addr(0x0100_0000), DataClass::InfreqCounter);
    t.streams[1] = b1.finish();
    t
}

#[test]
fn privatize_rewrites_updates_and_expands_aggregates() {
    let t = mini_trace();
    let out = TransformPipeline::new()
        .privatize(&[Addr(0x0100_0000)])
        .run(&t);
    // cpu0: rmw → private pair; aggregate read → 2 reads (2 CPUs).
    let reads0: Vec<Addr> = out.streams[0]
        .iter()
        .filter_map(|e| match e {
            Event::Read { addr, .. } => Some(addr),
            _ => None,
        })
        .collect();
    assert!(reads0.contains(&private_copy_addr(0, 0)));
    assert!(reads0.contains(&private_copy_addr(0, 1)));
    // No reference to the original address survives.
    for s in &out.streams {
        for e in s.iter() {
            if let Some(a) = e.data_addr() {
                assert_ne!(a, Addr(0x0100_0000));
            }
        }
    }
    // cpu1's update went to its own copy, a different line.
    let w1 = out.streams[1]
        .iter()
        .find_map(|e| match e {
            Event::Write { addr, .. } => Some(addr),
            _ => None,
        })
        .unwrap();
    assert_eq!(w1, private_copy_addr(0, 1));
    assert_ne!(
        private_copy_addr(0, 0).line(64),
        private_copy_addr(0, 1).line(64)
    );
}

#[test]
fn relocate_rewrites_all_reference_kinds() {
    let t = mini_trace();
    let mut m = RelocationMap::new();
    m.add(Addr(0x0100_0000), 4, Addr(RELOC_BASE));
    let out = TransformPipeline::new().relocate(&m).run(&t);
    for s in &out.streams {
        for e in s.iter() {
            if let Some(a) = e.data_addr() {
                assert_ne!(a, Addr(0x0100_0000));
            }
        }
    }
}

#[test]
fn hotspot_prefetch_inserts_ahead_for_loops_and_hoists_for_sequences() {
    let t = mini_trace();
    // site ids: 0 = "seq", 1 = "loop"
    let plan = build_hotspot_plan(&t);
    let out = merged_trace(&t, &plan, &[0, 1]);
    let evs: Vec<Event> = out.streams[0].iter().collect();
    let is_prefetch = |e: &Event| matches!(e, Event::Prefetch { .. });
    let n_pref = evs.iter().filter(|e| is_prefetch(e)).count();
    assert!(n_pref >= 2, "expected prefetches, got {n_pref}");
    // A prefetch for the loop read's look-ahead line exists.
    assert!(evs.iter().any(|e| matches!(
        e,
        Event::Prefetch { addr, .. } if addr.0 == 0x0200_0000 + LOOP_AHEAD
    )));
    // The sequence read 0x... has no earlier reads; its prefetch is
    // hoisted before the rmw pair but not past the SetMode.
    let first_pref = evs.iter().position(is_prefetch).unwrap();
    let setmode = evs
        .iter()
        .position(|e| matches!(e, Event::SetMode { .. }))
        .unwrap();
    assert!(first_pref > setmode);
}

#[test]
fn static_pages_cover_the_static_area() {
    let t = mini_trace();
    // mini trace has no vars; use a workload trace.
    assert!(static_pages(&t.meta).is_empty());
    let t2 = oscache_workloads::build_chunked(
        oscache_workloads::Workload::Shell,
        oscache_workloads::BuildOptions {
            scale: 0.05,
            seed: 9,
            ..Default::default()
        },
    );
    let pages = static_pages(&t2.meta);
    assert!(!pages.is_empty());
}
