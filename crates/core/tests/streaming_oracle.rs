//! Chunk-capacity invariance oracle (DESIGN.md §16).
//!
//! Every pass and the machine consume `ChunkedTrace`, which splits each
//! per-CPU stream into fixed-capacity delta-encoded chunks and decodes
//! them through small windows. Where the chunk boundaries fall
//! must be invisible to every result. This file pins that at every layer:
//!
//! * the full ladder matrix (every system × every workload × three cache
//!   geometries) through the complete software-pass pipeline, with the
//!   base trace re-encoded at capacity 5 against the default capacity,
//! * seeded random traces through the machine itself (results, final
//!   state digest, and step count on both dispatch tiers), at capacities
//!   that force events to straddle chunk boundaries (including 1-event
//!   chunks),
//! * degenerate shapes: empty traces and partially-empty streams.

use oscache_core::{try_run_spec_audited, Geometry, System};
use oscache_memsys::{AuditLevel, Machine, MachineConfig};
use oscache_trace::rng::{Rng, SmallRng};
use oscache_trace::{Addr, ChunkedTrace, DataClass, LockId, Mode, StreamBuilder, TraceMeta};
use oscache_workloads::{build_chunked, BuildOptions, Workload};

const SEEDS: std::ops::Range<u64> = 0..24;

/// Chunk capacities the machine-level matrix runs at: 1 (every event is
/// its own chunk), a small prime that misaligns with any event pattern,
/// and the production default.
const CAPACITIES: [usize; 3] = [1, 5, 4096];

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
/// pipeline (analysis, transforms, profiling replay, final run): a base
/// trace whose chunks hold 5 events must produce bitwise-identical
/// statistics to the default-capacity build for every cell of every
/// experiment.
#[test]
fn ladder_matrix_is_chunk_capacity_invariant() {
    let opts = BuildOptions {
        scale: 0.03,
        ..BuildOptions::default()
    };
    for w in Workload::all() {
        let base = build_chunked(w, opts);
        let small = base.rechunk(5);
        assert!(small.streams.iter().all(|s| s.capacity() == 5));
        for sys in System::all() {
            for (gi, geometry) in geometries().into_iter().enumerate() {
                let what = format!("{}/{}/geom{}", w.name(), sys.label(), gi);
                let rd = try_run_spec_audited(&base, sys.spec(), geometry, AuditLevel::Off)
                    .unwrap_or_else(|e| panic!("{what} (default capacity): {e}"));
                let rs = try_run_spec_audited(&small, sys.spec(), geometry, AuditLevel::Off)
                    .unwrap_or_else(|e| panic!("{what} (capacity 5): {e}"));
                assert_eq!(rd.stats, rs.stats, "{what}: statistics diverge");
            }
        }
    }
}

/// A random valid multi-CPU trace exercising the full event vocabulary
/// (sharing, locks, block operations, mode switches, idle gaps) — the
/// same generator shape the specialization matrix uses, so failures
/// reproduce from the seed alone.
fn random_trace(rng: &mut SmallRng) -> ChunkedTrace {
    let n_cpus = 4;
    let mut meta = TraceMeta::default();
    let site = meta.code.add_site("sm", true);
    let bb = meta.code.add_block(Addr(0x2000), 4, site);
    let mut t = ChunkedTrace::new(n_cpus, meta);
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

/// Runs the same cell over two encodings of one trace and asserts
/// end-to-end equality: the full `Result`, the final machine-state
/// digest, and the step count — for both the specialized dispatcher and
/// the generic loop.
fn assert_capacity_invisible(cfg: MachineConfig, a: &ChunkedTrace, b: &ChunkedTrace, what: &str) {
    let mut ma = Machine::new(cfg.clone(), a).unwrap_or_else(|e| panic!("{what}: {e}"));
    let mut mb = Machine::new(cfg.clone(), b).unwrap_or_else(|e| panic!("{what}: {e}"));
    assert_eq!(ma.run_mut(), mb.run_mut(), "{what}: results diverge");
    assert_eq!(
        ma.state_digest(),
        mb.state_digest(),
        "{what}: final machine states diverge"
    );
    assert_eq!(ma.steps(), mb.steps(), "{what}: event counts diverge");
    // The generic loop too: the decode windows must be invisible on both
    // dispatch tiers.
    let mut ga = Machine::new(cfg.clone(), a).unwrap();
    let mut gb = Machine::new(cfg, b).unwrap();
    assert_eq!(
        ga.run_generic_mut(),
        gb.run_generic_mut(),
        "{what}: generic results diverge"
    );
    assert_eq!(
        ga.state_digest(),
        gb.state_digest(),
        "{what}: generic final states diverge"
    );
    assert_eq!(
        ga.steps(),
        gb.steps(),
        "{what}: generic event counts diverge"
    );
}

/// Seeded random traces replay identically at every chunk capacity —
/// including capacity 1 (every event alone in its chunk) and capacities
/// that put chunk boundaries inside lock regions and block operations —
/// as at the default capacity.
#[test]
fn random_traces_match_across_chunk_capacities() {
    for seed in SEEDS {
        let mut rng = SmallRng::seed_from_u64(0x57EA_0000 ^ seed);
        let t = random_trace(&mut rng);
        t.validate().expect("generator must emit valid traces");
        let reference = &t;
        for capacity in CAPACITIES {
            let ct = t.rechunk(capacity);
            assert_eq!(ct.total_events(), t.total_events());
            let what = format!("seed {seed} capacity {capacity}");
            assert_capacity_invisible(MachineConfig::base(), reference, &ct, &what);
        }
    }
}

/// Degenerate shapes: a wholly empty trace and a trace where some CPUs
/// have no events at all replay identically at every capacity.
#[test]
fn empty_and_partially_empty_streams_match() {
    let empty = ChunkedTrace::new(4, TraceMeta::default());
    let reference = &empty;
    assert_eq!(reference.total_events(), 0);
    for capacity in CAPACITIES {
        let ct = empty.rechunk(capacity);
        let what = format!("empty capacity {capacity}");
        assert_capacity_invisible(MachineConfig::base(), reference, &ct, &what);
    }

    let mut partial = ChunkedTrace::new(4, TraceMeta::default());
    let mut b = StreamBuilder::new();
    b.set_mode(Mode::Os);
    for i in 0..300u32 {
        b.read(Addr(0x0100_0000 + (i % 512) * 4), DataClass::KernelOther);
    }
    partial.streams[2] = b.finish();
    let reference = &partial;
    for capacity in CAPACITIES {
        let ct = partial.rechunk(capacity);
        let what = format!("partial capacity {capacity}");
        assert_capacity_invisible(MachineConfig::base(), reference, &ct, &what);
    }
}
