//! Streaming-engine equivalence oracle (DESIGN.md §16).
//!
//! The chunked streaming engine is the only production path for every
//! stage of the pipeline — workload generation, the software passes, and
//! the replay loops — while the materialized `Vec<Event>` functions are
//! kept as the reference. This file pins the two bitwise-equal at every
//! layer:
//!
//! * the full ladder matrix (every system × every workload × three cache
//!   geometries) through the complete software-pass pipeline,
//! * seeded random traces through the machine itself (results, final
//!   state digest, and step count), across chunk capacities that force
//!   events to straddle chunk boundaries (including 1-event chunks),
//! * degenerate shapes: empty traces and partially-empty streams.

use oscache_core::{try_run_spec_audited, try_run_spec_audited_chunked, Geometry, System};
use oscache_memsys::{AuditLevel, Machine, MachineConfig};
use oscache_trace::rng::{Rng, SmallRng};
use oscache_trace::{
    Addr, ChunkedStream, ChunkedTrace, DataClass, LockId, Mode, StreamBuilder, Trace, TraceMeta,
};
use oscache_workloads::{build, BuildOptions, Workload};

const SEEDS: std::ops::Range<u64> = 0..24;

/// Chunk capacities the machine-level matrix runs at: 1 (every event is
/// its own chunk), small primes that misalign with any event pattern,
/// and the production default.
const CAPACITIES: [usize; 3] = [1, 5, 4096];

/// Re-encodes a materialized trace chunk-by-chunk at an explicit
/// capacity, so chunk boundaries land mid-stream wherever the capacity
/// says — the decode windows must be invisible to the replay.
fn chunk_with_capacity(t: &Trace, capacity: usize) -> ChunkedTrace {
    let mut ct = ChunkedTrace::new(t.n_cpus(), t.meta.clone());
    for (cpu, s) in t.streams.iter().enumerate() {
        ct.streams[cpu] = ChunkedStream::from_events(s.events().iter().copied(), capacity);
    }
    ct
}

/// The three geometries of the matrix: the paper's default, the wide
/// line from the figure-7 sweep, and a small L1D that forces heavy
/// conflict traffic through the replacement path.
fn geometries() -> [Geometry; 3] {
    [
        Geometry::default(),
        Geometry {
            l1_line: 64,
            l2_line: 64,
            ..Geometry::default()
        },
        Geometry {
            l1d_size: 8 * 1024,
            ..Geometry::default()
        },
    ]
}

/// The full ladder × workload × geometry matrix through the complete
/// pipeline (analysis, transforms, profiling replay, final run): the
/// streaming path must produce bitwise-identical statistics to the
/// materialized path for every cell of every experiment.
#[test]
fn ladder_matrix_streaming_matches_materialized() {
    let opts = BuildOptions {
        scale: 0.03,
        ..BuildOptions::default()
    };
    for w in Workload::all() {
        let flat = build(w, opts);
        let chunked = ChunkedTrace::from_trace(&flat);
        for sys in System::all() {
            for (gi, geometry) in geometries().into_iter().enumerate() {
                let what = format!("{}/{}/geom{}", w.name(), sys.label(), gi);
                let rf = try_run_spec_audited(&flat, sys.spec(), geometry, AuditLevel::Off)
                    .unwrap_or_else(|e| panic!("{what} (flat): {e}"));
                let rc =
                    try_run_spec_audited_chunked(&chunked, sys.spec(), geometry, AuditLevel::Off)
                        .unwrap_or_else(|e| panic!("{what} (chunked): {e}"));
                assert_eq!(rf.stats, rc.stats, "{what}: statistics diverge");
            }
        }
    }
}

/// The chunked workload builder emits exactly the events the
/// materialized builder does — generation itself is part of the pinned
/// surface, not just the replay.
#[test]
fn chunked_builder_matches_materialized_builder() {
    let opts = BuildOptions {
        scale: 0.05,
        ..BuildOptions::default()
    };
    for w in Workload::all() {
        let flat = build(w, opts);
        let chunked = oscache_workloads::build_chunked(w, opts);
        assert_eq!(chunked.n_cpus(), flat.n_cpus(), "{}", w.name());
        assert_eq!(chunked.total_events(), flat.total_events(), "{}", w.name());
        for cpu in 0..flat.n_cpus() {
            let decoded: Vec<_> = chunked.streams[cpu].iter().collect();
            assert_eq!(
                decoded.as_slice(),
                flat.streams[cpu].events(),
                "{} cpu {cpu}",
                w.name()
            );
        }
    }
}

/// A random valid multi-CPU trace exercising the full event vocabulary
/// (sharing, locks, block operations, mode switches, idle gaps) — the
/// same generator shape the specialization matrix uses, so failures
/// reproduce from the seed alone.
fn random_trace(rng: &mut SmallRng) -> Trace {
    let n_cpus = 4;
    let mut meta = TraceMeta::default();
    let site = meta.code.add_site("sm", true);
    let bb = meta.code.add_block(Addr(0x2000), 4, site);
    let mut t = Trace::new(n_cpus, meta);
    for cpu in 0..n_cpus {
        let mut b = StreamBuilder::new();
        b.set_mode(Mode::Os);
        for _ in 0..rng.gen_range(10..80usize) {
            match rng.gen_range(0..10u32) {
                0..=3 => {
                    b.exec(bb);
                    let a = Addr((0x0300_0000 + rng.gen_range(0..0x4000u32)) & !3);
                    if rng.gen_bool(0.4) {
                        b.write(a, DataClass::RunQueue);
                    } else {
                        b.read(a, DataClass::RunQueue);
                    }
                }
                4..=5 => {
                    let a =
                        Addr(0x0400_0000 + cpu as u32 * 0x10_0000 + rng.gen_range(0..0x2000u32));
                    b.read(a, DataClass::ProcTable);
                }
                6 => {
                    let lock = rng.gen_range(0..3u32);
                    b.lock_acquire(LockId(lock as u16), Addr(0x0500_0000 + lock * 64));
                    b.write(Addr(0x0300_0000), DataClass::RunQueue);
                    b.lock_release(LockId(lock as u16), Addr(0x0500_0000 + lock * 64));
                }
                7 => {
                    let base = Addr(0x0600_0000 + rng.gen_range(0..8u32) * 0x1000);
                    let len = rng.gen_range(1..16u32) * 32;
                    b.begin_block_zero(base, len, DataClass::PageFrame);
                    let mut off = 0;
                    while off < len {
                        b.write(base.offset(off), DataClass::PageFrame);
                        off += 8;
                    }
                    b.end_block_op();
                }
                8 => b.idle(rng.gen_range(1..40u32)),
                _ => {
                    b.set_mode(Mode::User);
                    b.read(
                        Addr(0x0700_0000 + cpu as u32 * 0x10_0000),
                        DataClass::UserData,
                    );
                    b.set_mode(Mode::Os);
                }
            }
        }
        t.streams[cpu] = b.finish();
    }
    t
}

/// Runs the same (config, trace) cell through the flat machine and the
/// chunked machine and asserts end-to-end equality: the full `Result`,
/// the final machine-state digest, and the step count — for both the
/// specialized dispatcher and the generic loop.
fn assert_chunked_matches_flat(cfg: MachineConfig, flat: &Trace, ct: &ChunkedTrace, what: &str) {
    let mut f =
        Machine::with_recording(cfg.clone(), flat, true).unwrap_or_else(|e| panic!("{what}: {e}"));
    let mut c = Machine::with_recording_chunked(cfg.clone(), ct, true)
        .unwrap_or_else(|e| panic!("{what}: {e}"));
    assert_eq!(f.run_mut(), c.run_mut(), "{what}: results diverge");
    assert_eq!(
        f.state_digest(),
        c.state_digest(),
        "{what}: final machine states diverge"
    );
    assert_eq!(f.steps(), c.steps(), "{what}: event counts diverge");
    // The chunked generic loop against the flat generic loop, too: the
    // decode windows must be invisible on both dispatch tiers.
    let mut fg = Machine::with_recording(cfg.clone(), flat, true).unwrap();
    let mut cg = Machine::with_recording_chunked(cfg, ct, true).unwrap();
    assert_eq!(
        fg.run_generic_mut(),
        cg.run_generic_mut(),
        "{what}: generic results diverge"
    );
    assert_eq!(
        fg.state_digest(),
        cg.state_digest(),
        "{what}: generic final states diverge"
    );
}

/// Seeded random traces replay identically through the chunked machine
/// at every chunk capacity — including capacity 1 (every event alone in
/// its chunk) and capacities that put chunk boundaries inside lock
/// regions and block operations.
#[test]
fn random_traces_match_across_chunk_capacities() {
    for seed in SEEDS {
        let mut rng = SmallRng::seed_from_u64(0x57EA_0000 ^ seed);
        let t = random_trace(&mut rng);
        t.validate().expect("generator must emit valid traces");
        for capacity in CAPACITIES {
            let ct = chunk_with_capacity(&t, capacity);
            assert_eq!(ct.total_events(), t.total_events());
            let what = format!("seed {seed} capacity {capacity}");
            assert_chunked_matches_flat(MachineConfig::base(), &t, &ct, &what);
        }
    }
}

/// Degenerate shapes: a wholly empty trace and a trace where some CPUs
/// have no events at all decode and replay identically.
#[test]
fn empty_and_partially_empty_streams_match() {
    let empty = Trace::new(4, TraceMeta::default());
    let ct = ChunkedTrace::from_trace(&empty);
    assert_eq!(ct.total_events(), 0);
    assert_chunked_matches_flat(MachineConfig::base(), &empty, &ct, "empty trace");

    let mut partial = Trace::new(4, TraceMeta::default());
    let mut b = StreamBuilder::new();
    b.set_mode(Mode::Os);
    for i in 0..300u32 {
        b.read(Addr(0x0100_0000 + (i % 512) * 4), DataClass::KernelOther);
    }
    partial.streams[2] = b.finish();
    for capacity in CAPACITIES {
        let ct = chunk_with_capacity(&partial, capacity);
        let what = format!("partial capacity {capacity}");
        assert_chunked_matches_flat(MachineConfig::base(), &partial, &ct, &what);
    }
}
