//! Differential oracle for the replay-time hot-spot merge (§6).
//!
//! A hot-spot cell never encodes a rewritten trace: its replay splices the
//! hot entries of the analysis's [`HotspotPlan`] into each decode window
//! as it fills ([`Machine::with_prefetches`]). The reference is a plain
//! [`Machine`] replaying the pass-by-pass insertion of
//! `oscache_oracle::compat` (for synthetic plans, which no trace ranks, a
//! forward merge of the test's own entry list). The two must agree on
//! everything a replay exposes —
//! statistics, final [`Machine::state_digest`] (cursors included, so the
//! merged indices equal the expansion's) and `steps` — on every workload
//! at the geometries the figures sweep, at hostile chunk capacities, and
//! on synthetic plans with the merge's edge cases: an entry before event
//! 0, several entries at one chunk boundary, a trailing entry, an empty
//! stream, and every site hot. The plan itself, merged window by window,
//! is pinned against the `compat` rewrite's event streams.

use oscache_core::transform::build_hotspot_plan;
use oscache_core::{analysis, analyze_cell, Geometry, System};
use oscache_memsys::{Machine, MachineConfig, SimErrorKind};
use oscache_oracle::{compat, merged_trace};
use oscache_trace::rng::{Rng, SmallRng};
use oscache_trace::{
    Addr, ChunkedStream, ChunkedTrace, DataClass, Event, HotspotPlan, LockId, Mode, PlanEntry,
    StreamBuilder, TraceMeta, CHUNK_EVENTS, LOOP_AHEAD,
};
use oscache_workloads::{build_chunked, BuildOptions, Workload};

/// Small enough that capacity-1 re-encodings (one chunk per event) stay
/// cheap, large enough that every workload ranks a full hot set.
const SCALE: f64 = 0.01;

const CAPACITIES: [usize; 3] = [1, 5, 4096];

fn geometries() -> [(&'static str, Geometry); 3] {
    [
        ("default", Geometry::default()),
        (
            "16KB",
            Geometry {
                l1d_size: 16 * 1024,
                ..Geometry::default()
            },
        ),
        (
            "64B",
            Geometry {
                l1_line: 64,
                l2_line: 64,
                ..Geometry::default()
            },
        ),
    ]
}

/// Replays `trace` with `hot`'s entries of `plan` merged in and the
/// reference expansion `expanded` plainly; asserts equal results, final
/// state digests and step counts.
fn assert_merge_matches(
    cfg: &MachineConfig,
    trace: &ChunkedTrace,
    plan: &HotspotPlan,
    hot: &[u16],
    expanded: &ChunkedTrace,
    what: &str,
) {
    let mut merged = Machine::with_prefetches(cfg.clone(), trace, plan, hot)
        .unwrap_or_else(|e| panic!("{what}: {e}"));
    let mut reference =
        Machine::new(cfg.clone(), expanded).unwrap_or_else(|e| panic!("{what}: {e}"));
    let rm = merged.run_mut();
    let rr = reference.run_mut();
    assert!(rr.is_ok(), "{what}: reference replay failed: {rr:?}");
    assert_eq!(rm, rr, "{what}: merged replay statistics differ");
    assert_eq!(
        merged.state_digest(),
        reference.state_digest(),
        "{what}: final machine states differ"
    );
    assert_eq!(
        merged.steps(),
        reference.steps(),
        "{what}: step counts differ"
    );
}

/// Every workload × the three sweep geometries × chunk capacities 1, 5
/// and 4096: the cell's own hot set (ranked from its twin's replay, as
/// `prepare_from_analysis` ranks it) over the BCPref working trace.
#[test]
fn merged_replay_matches_the_expansion_on_every_workload() {
    let spec = System::BCPref.spec();
    for workload in Workload::all() {
        let base = build_chunked(
            workload,
            BuildOptions {
                scale: SCALE,
                ..Default::default()
            },
        );
        let analyzed = analyze_cell(&base, spec);
        let working = analyzed.trace.as_deref().unwrap_or(&base);
        let plan = build_hotspot_plan(working);
        let rechunked: Vec<ChunkedTrace> = CAPACITIES.iter().map(|&c| working.rechunk(c)).collect();
        for (glabel, geometry) in geometries() {
            let mut cfg = geometry.machine_config(&spec);
            cfg.n_cpus = base.n_cpus();
            cfg.update_pages = analyzed.update_pages.clone();
            let stats = Machine::new(cfg.clone(), working).unwrap().run().unwrap();
            let hot = analysis::find_hot_spots(&stats.total(), &working.meta.code);
            assert!(!hot.is_empty(), "{workload:?}/{glabel}: no hot sites");
            let expanded = compat::insert_hotspot_prefetches(working, &hot);
            assert!(expanded.total_events() > working.total_events());
            for (capacity, trace) in CAPACITIES.iter().zip(&rechunked) {
                let what = format!("{workload:?}/{glabel}/capacity {capacity}");
                assert_merge_matches(&cfg, trace, &plan, &hot, &expanded, &what);
            }
        }
    }
}

/// The precomputed hot-spot insertion plan, merged window by window as a
/// replay merges it, must give, for every hot set the ladder actually
/// ranks (plus synthetic subsets), the exact event streams the
/// pass-by-pass `compat` rewrite emits.
#[test]
fn hotspot_plan_matches_compat_rewrite() {
    let spec = System::BCPref.spec();
    for workload in [Workload::Trfd4, Workload::Shell, Workload::Arc2dFsck] {
        let base = build_chunked(
            workload,
            BuildOptions {
                scale: 0.08,
                ..Default::default()
            },
        );
        let analyzed = analyze_cell(&base, spec);
        let working = analyzed.trace.as_deref().unwrap_or(&base);
        let mut cfg = Geometry::default().machine_config(&spec);
        cfg.n_cpus = base.n_cpus();
        cfg.update_pages = analyzed.update_pages.clone();
        let stats = Machine::new(cfg, working).unwrap().run().unwrap();
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

/// Every site hot at once — the densest merge the plan allows, with loop
/// and sequence entries interleaving at shared boundaries.
#[test]
fn merged_replay_matches_the_expansion_with_every_site_hot() {
    let base = build_chunked(
        Workload::Shell,
        BuildOptions {
            scale: SCALE,
            ..Default::default()
        },
    );
    let plan = build_hotspot_plan(&base);
    let all: Vec<u16> = base.meta.code.sites().map(|(id, _)| id.0).collect();
    let expanded = compat::insert_hotspot_prefetches(&base, &all);
    let mut cfg = MachineConfig::base();
    cfg.n_cpus = base.n_cpus();
    for capacity in CAPACITIES {
        let trace = base.rechunk(capacity);
        let what = format!("every site hot, capacity {capacity}");
        assert_merge_matches(&cfg, &trace, &plan, &all, &expanded, &what);
    }
}

/// A small random multi-CPU trace whose last CPU has an empty stream.
fn synthetic_trace(rng: &mut SmallRng) -> ChunkedTrace {
    let n_cpus = 3;
    let mut meta = TraceMeta::default();
    let site = meta.code.add_site("hm", true);
    let bb = meta.code.add_block(Addr(0x2000), 4, site);
    let mut t = ChunkedTrace::new(n_cpus, meta);
    for cpu in 0..n_cpus - 1 {
        let mut b = StreamBuilder::new();
        b.set_mode(Mode::Os);
        for _ in 0..rng.gen_range(20..80usize) {
            match rng.gen_range(0..6u32) {
                0 | 1 => {
                    b.exec(bb);
                    b.read(
                        Addr(0x0300_0000 + (rng.gen_range(0..0x2000u32) & !3)),
                        DataClass::RunQueue,
                    );
                }
                2 => b.write(
                    Addr(0x0300_0000 + (rng.gen_range(0..0x2000u32) & !3)),
                    DataClass::RunQueue,
                ),
                3 => {
                    let lock = rng.gen_range(0..2u32) as u16;
                    let a = Addr(0x0500_0000 + u32::from(lock) * 64);
                    b.lock_acquire(LockId(lock), a);
                    b.write(Addr(0x0300_0000), DataClass::RunQueue);
                    b.lock_release(LockId(lock), a);
                }
                4 => {
                    let dst = Addr(0x0600_0000 + rng.gen_range(0..4u32) * 0x1000);
                    b.begin_block_zero(dst, 64, DataClass::PageFrame);
                    for off in (0..64).step_by(8) {
                        b.write(dst.offset(off), DataClass::PageFrame);
                    }
                    b.end_block_op();
                }
                _ => b.idle(rng.gen_range(1..20u32)),
            }
        }
        t.streams[cpu] = b.finish();
    }
    t
}

/// One synthetic plan entry: `(before, site, addr, ahead)`.
type Entry = (usize, u16, Addr, bool);

/// Hand-placed edge entries plus random ones for each non-empty stream;
/// the empty stream gets entries at its only position, 0.
fn synthetic_entries(t: &ChunkedTrace, rng: &mut SmallRng) -> Vec<Vec<Entry>> {
    let entry = |before: usize, site: u16, ahead: bool, k: u32| {
        (before, site, Addr(0x0300_0000 + 16 * k), ahead)
    };
    t.streams
        .iter()
        .map(|s| {
            let len = s.len();
            let mut v = vec![entry(0, 1, true, 0), entry(0, 3, false, 1)];
            // Several entries at the capacity-5 chunk boundary, of both
            // shapes and of hot and cold sites.
            if len > 5 {
                v.extend([
                    entry(5, 1, false, 2),
                    entry(5, 2, true, 3),
                    entry(5, 3, true, 4),
                    entry(5, 1, false, 5),
                ]);
            }
            for k in 0..rng.gen_range(0..12u32) {
                let site = rng.gen_range(1..4u32) as u16;
                v.push(entry(
                    rng.gen_range(0..len + 1),
                    site,
                    rng.gen_bool(0.5),
                    6 + k,
                ));
            }
            v.push(entry(len, 1, false, 40));
            v.push(entry(len, 3, true, 41));
            v
        })
        .collect()
}

fn plan_of(entries: &[Vec<Entry>]) -> HotspotPlan {
    let entry = |&(before, site, addr, ahead): &Entry| {
        PlanEntry::new(before as u32, site, addr, DataClass::RunQueue, ahead)
    };
    HotspotPlan::new(
        entries
            .iter()
            .map(|v| v.iter().map(entry).collect())
            .collect(),
    )
}

/// The reference expansion of synthetic entries: before each event (and
/// after the last), the hot entries positioned there, in list order, each
/// a prefetch of its address preceded, for a loop entry, by one
/// [`LOOP_AHEAD`] bytes further on.
fn expand(t: &ChunkedTrace, entries: &[Vec<Entry>], hot: &[u16]) -> ChunkedTrace {
    let mut out = ChunkedTrace::new(t.n_cpus(), t.meta.clone());
    for (cpu, stream) in t.streams.iter().enumerate() {
        let original: Vec<Event> = stream.iter().collect();
        let mut events = Vec::new();
        for i in 0..=stream.len() {
            for &(_, _, addr, ahead) in entries[cpu]
                .iter()
                .filter(|&&(before, site, _, _)| before == i && hot.contains(&site))
            {
                let class = DataClass::RunQueue;
                if ahead {
                    let addr = addr.offset(LOOP_AHEAD);
                    events.push(Event::Prefetch { addr, class });
                }
                events.push(Event::Prefetch { addr, class });
            }
            events.extend(original.get(i));
        }
        out.streams[cpu] = ChunkedStream::from_events(events, CHUNK_EVENTS);
    }
    out
}

#[test]
fn merged_replay_matches_the_expansion_on_synthetic_edge_plans() {
    for seed in 0..12u64 {
        let mut rng = SmallRng::seed_from_u64(0x4e7a_0000 ^ seed);
        let t = synthetic_trace(&mut rng);
        t.validate().expect("generator must emit valid traces");
        assert!(t.streams[t.n_cpus() - 1].is_empty());
        let entries = synthetic_entries(&t, &mut rng);
        let plan = plan_of(&entries);
        let mut cfg = MachineConfig::base();
        cfg.n_cpus = t.n_cpus();
        for hot in [&[1u16, 3][..], &[2], &[1, 2, 3], &[]] {
            let expanded = expand(&t, &entries, hot);
            for capacity in CAPACITIES {
                let trace = t.rechunk(capacity);
                let what = format!("seed {seed} hot {hot:?} capacity {capacity}");
                assert_merge_matches(&cfg, &trace, &plan, hot, &expanded, &what);
            }
        }
    }
}

/// A plan built for a longer trace (an entry past a stream's end, or a
/// stream the trace lacks) is a typed error, not a panic mid-replay.
#[test]
fn out_of_range_plan_entries_are_rejected() {
    let mut rng = SmallRng::seed_from_u64(7);
    let t = synthetic_trace(&mut rng);
    let mut cfg = MachineConfig::base();
    cfg.n_cpus = t.n_cpus();
    let len = t.streams[0].len();
    let entry =
        |before: usize| PlanEntry::new(before as u32, 1, Addr(0), DataClass::RunQueue, false);
    let past = HotspotPlan::new(vec![vec![entry(len + 1)]]);
    let extra = HotspotPlan::new(vec![vec![], vec![], vec![], vec![entry(0)]]);
    for (plan, cpu, before, stream_len) in [(&past, 0, len + 1, len), (&extra, 3, 0, 0)] {
        let err = Machine::with_prefetches(cfg.clone(), &t, plan, &[1])
            .err()
            .expect("plan must be rejected");
        assert_eq!(err.cpu, Some(cpu));
        assert_eq!(
            err.kind,
            SimErrorKind::PlanOutOfRange {
                before: before as u32,
                stream_len
            }
        );
    }
}

/// The hoist bound at its edges: a sequence read hoists to one past the
/// last blocking event when that event is 23, 24 or 25 events back (the
/// last two sit at and beyond [`HOIST_LIMIT`]'s window), to one past a
/// blocking event at stream start, and to event 0 when nothing blocks.
/// The plan positions are pinned, and the merged replay must equal the
/// oracle crate's pass-by-pass insertion at every capacity.
#[test]
fn hoists_stop_at_blocking_events_and_the_hoist_limit() {
    let mut meta = TraceMeta::default();
    let site = meta.code.add_site("seq", false);
    let bb = meta.code.add_block(Addr(0x2000), 4, site);
    let mut t = ChunkedTrace::new(5, meta);
    let mut line = 0u32;
    let mut read = |b: &mut StreamBuilder| {
        line += 1;
        b.read(Addr(0x0300_0000 + 64 * line), DataClass::RunQueue);
    };
    let fill = |b: &mut StreamBuilder, n: u32| {
        for k in 0..n {
            b.write(Addr(0x0400_0000 + 4 * k), DataClass::RunQueue);
        }
    };
    // CPUs 0–2: SetMode (0), Exec (1), 30 writes, Idle (32), then the
    // read `distance` events after the Idle.
    for (cpu, distance) in [23u32, 24, 25].into_iter().enumerate() {
        let mut b = StreamBuilder::new();
        b.set_mode(Mode::Os);
        b.exec(bb);
        fill(&mut b, 30);
        b.idle(1);
        fill(&mut b, distance - 1);
        read(&mut b);
        t.streams[cpu] = b.finish();
    }
    // CPU 3: SetMode at stream start, a read right after the Exec, and
    // one past the hoist limit.
    let mut b = StreamBuilder::new();
    b.set_mode(Mode::Os);
    b.exec(bb);
    read(&mut b);
    fill(&mut b, 27);
    read(&mut b);
    t.streams[3] = b.finish();
    // CPU 4: nothing blocks before the read.
    let mut b = StreamBuilder::new();
    b.exec(bb);
    read(&mut b);
    t.streams[4] = b.finish();
    t.validate().expect("valid trace");

    let plan = build_hotspot_plan(&t);
    let befores =
        |cpu: usize| -> Vec<u32> { plan.stream(cpu).iter().map(PlanEntry::before).collect() };
    // Reads at 55/56/57: one past the Idle (33) is 22, 23 and 24 events
    // back; the last equals `read - HOIST_LIMIT`.
    for cpu in 0..3 {
        assert_eq!(befores(cpu), vec![33], "cpu {cpu}");
    }
    assert_eq!(befores(3), vec![1, 6]);
    assert_eq!(befores(4), vec![0]);

    let hot = [site.0];
    let expanded = compat::insert_hotspot_prefetches(&t, &hot);
    let mut cfg = MachineConfig::base();
    cfg.n_cpus = t.n_cpus();
    for capacity in CAPACITIES {
        let what = format!("hoist edges, capacity {capacity}");
        assert_merge_matches(&cfg, &t.rechunk(capacity), &plan, &hot, &expanded, &what);
    }
}
