//! Spill-to-disk guarantees (DESIGN.md §18).
//!
//! The spill store is a transparency seam: a chunk whose payload lives in
//! a segment file must be indistinguishable — statistics, final machine
//! state, step counts — from the same chunk resident in memory, for both
//! dispatch tiers and with the decode-ahead helper on or off. On top of
//! that transparency bar sit the robustness bars: a corrupted frame is
//! detected per-frame (CRC) and salvaged through the deterministic
//! rebuilder, and when spill cannot absorb memory pressure (ENOSPC with
//! the budget already exceeded) the run answers a typed *overloaded*
//! error instead of dying.

use oscache_core::{Geometry, Repro, System};
use oscache_memsys::{Machine, MachineConfig};
use oscache_trace::rng::{Rng, SmallRng};
use oscache_trace::{
    Addr, ChunkedTrace, DataClass, IoFaultClass, IoFaultPlan, LockId, MemBudget, Mode, SpillStore,
    StoreIdentity, StreamBuilder, TraceMeta,
};
use oscache_workloads::Workload;
use std::sync::Arc;

/// Chunk capacities the oracle runs at: 1 (every event is its own frame),
/// a small prime that misaligns with any event pattern, the default.
const CAPACITIES: [usize; 3] = [1, 7, 4096];
const SEEDS: std::ops::Range<u64> = 0..8;

/// An arbitrary identity for hand-built traces (the identity only binds
/// a store to a generator configuration for rebuild purposes; these
/// tests supply their own rebuilders or none).
fn identity(seed: u64) -> StoreIdentity {
    StoreIdentity {
        scale_bits: 1.0f64.to_bits(),
        seed,
        n_cpus: 4,
    }
}

/// A random valid multi-CPU trace exercising the full event vocabulary —
/// the same generator shape the streaming oracle uses, so failures
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

/// Spills every chunk of `ct` to a fresh store (a zero budget refuses to
/// keep anything resident), returning the store.
fn spill_fully(
    ct: &mut ChunkedTrace,
    label: &str,
    seed: u64,
    faults: Option<IoFaultPlan>,
) -> Arc<SpillStore> {
    let store =
        SpillStore::create(label, identity(seed), ct.n_cpus(), faults).expect("create spill store");
    let budget = MemBudget::new_mb(0);
    ct.spill_residents(&store, &budget);
    store
}

/// The transparency oracle: seeded random traces, spilled wholesale to
/// disk, replay bitwise-identically to their in-memory twins at every
/// chunk capacity, on both dispatch tiers, with decode-ahead on and off.
#[test]
fn spilled_replay_matches_in_memory_across_capacities() {
    for seed in SEEDS {
        let mut rng = SmallRng::seed_from_u64(0x5B11_0000 ^ seed);
        let t = random_trace(&mut rng);
        t.validate().expect("generator must emit valid traces");
        for capacity in CAPACITIES {
            let inmem = t.rechunk(capacity);
            let mut spilled = t.rechunk(capacity);
            let _store = spill_fully(&mut spilled, "oracle", seed, None);
            assert!(
                spilled.spilled_chunks() > 0,
                "seed {seed} capacity {capacity}: nothing spilled — the oracle is vacuous"
            );
            for prefetch in [false, true] {
                let what = format!("seed {seed} capacity {capacity} prefetch {prefetch}");
                let mut m0 = Machine::new(MachineConfig::base(), &inmem)
                    .unwrap_or_else(|e| panic!("{what}: {e}"));
                let mut m1 = Machine::new(MachineConfig::base(), &spilled)
                    .unwrap_or_else(|e| panic!("{what}: {e}"));
                m0.set_decode_prefetch(prefetch);
                m1.set_decode_prefetch(prefetch);
                assert_eq!(m0.run_mut(), m1.run_mut(), "{what}: results diverge");
                assert_eq!(
                    m0.state_digest(),
                    m1.state_digest(),
                    "{what}: final machine states diverge"
                );
                assert_eq!(m0.steps(), m1.steps(), "{what}: event counts diverge");
                let mut g0 = Machine::new(MachineConfig::base(), &inmem).unwrap();
                let mut g1 = Machine::new(MachineConfig::base(), &spilled).unwrap();
                g0.set_decode_prefetch(prefetch);
                g1.set_decode_prefetch(prefetch);
                assert_eq!(
                    g0.run_generic_mut(),
                    g1.run_generic_mut(),
                    "{what}: generic results diverge"
                );
                assert_eq!(
                    g0.state_digest(),
                    g1.state_digest(),
                    "{what}: generic final states diverge"
                );
            }
        }
    }
}

/// A trace validated in memory stays valid when its chunks move to disk,
/// and the machine built over the spilled trace (which answers validation
/// from the encoder's facts) replays exactly as before the spill.
#[test]
fn validate_then_spill_then_replay_is_transparent() {
    let mut rng = SmallRng::seed_from_u64(0x5B11_AA1D);
    let t = random_trace(&mut rng);
    let mut ct = t.rechunk(7);
    ct.validate().expect("generator must emit valid traces");
    let mut before = Machine::new(MachineConfig::base(), &ct).unwrap();
    let expected = before.run_mut().expect("replay in memory");
    let digest = before.state_digest();
    drop(before);
    let _store = spill_fully(&mut ct, "facts", 0, None);
    assert!(
        ct.spilled_chunks() > 0,
        "nothing spilled — the test is vacuous"
    );
    assert_eq!(ct.validate(), Ok(()));
    for prefetch in [false, true] {
        let mut after = Machine::new(MachineConfig::base(), &ct).unwrap();
        after.set_decode_prefetch(prefetch);
        assert_eq!(
            after.run_mut().as_ref(),
            Ok(&expected),
            "prefetch {prefetch}"
        );
        assert_eq!(after.state_digest(), digest, "prefetch {prefetch}");
    }
}

/// Injected bit flips corrupt frames on the way to disk; every read of a
/// corrupted frame must detect the CRC mismatch, quarantine the frame,
/// and rebuild it through the registered rebuilder — yielding a decode
/// identical to the pristine in-memory stream.
#[test]
fn bit_flipped_frames_salvage_to_identical_decode() {
    let mut rng = SmallRng::seed_from_u64(0xB17F_11F0);
    let t = random_trace(&mut rng);
    let inmem = t.rechunk(5);
    let mut spilled = t.rechunk(5);
    // The pristine chunk bytes, captured before any spill write: the
    // rebuilder serves exactly what a deterministic regeneration would.
    let pristine: Vec<Vec<Option<Vec<u8>>>> = inmem
        .streams
        .iter()
        .map(|s| (0..s.n_chunks()).map(|c| s.chunk_bytes(c)).collect())
        .collect();
    let plan = IoFaultPlan {
        seed: 0xF00D,
        class: Some(IoFaultClass::BitFlip),
    };
    let store = SpillStore::create("salvage", identity(0), spilled.n_cpus(), Some(plan))
        .expect("create spill store");
    store.set_rebuilder(Box::new(move |cpu, chunk| {
        pristine.get(cpu)?.get(chunk)?.clone()
    }));
    let budget = MemBudget::new_mb(0);
    spilled.spill_residents(&store, &budget);
    assert!(spilled.spilled_chunks() > 0);
    for cpu in 0..t.n_cpus() {
        let a: Vec<_> = inmem.streams[cpu].iter().collect();
        let b: Vec<_> = spilled.streams[cpu].iter().collect();
        assert_eq!(a, b, "cpu {cpu}: salvaged decode diverges");
    }
    assert!(
        store.salvage_count() > 0,
        "the fault plan never fired — the salvage path went untested"
    );
}

/// Validation reads no spilled byte back, so the first reader of a
/// corrupted frame is the replay itself — with the decode-ahead helper
/// pinned on, often the helper thread. Each bad frame must still be
/// salvaged exactly once (the helper and the event loop may reach it
/// together), and the statistics must match the pristine in-memory replay.
#[test]
fn replay_salvages_each_bad_frame_once_with_the_helper_on() {
    let mut rng = SmallRng::seed_from_u64(0xB17F_0BCE);
    let t = random_trace(&mut rng);
    let inmem = t.rechunk(3);
    let mut spilled = t.rechunk(3);
    let pristine: Vec<Vec<Option<Vec<u8>>>> = inmem
        .streams
        .iter()
        .map(|s| (0..s.n_chunks()).map(|c| s.chunk_bytes(c)).collect())
        .collect();
    let plan = IoFaultPlan {
        seed: 0x0BAD_F1A6,
        class: Some(IoFaultClass::BitFlip),
    };
    let store = spill_fully(&mut spilled, "replay-salvage", 0, Some(plan));
    store.set_rebuilder(Box::new(move |cpu, chunk| {
        pristine.get(cpu)?.get(chunk)?.clone()
    }));
    assert_eq!(
        spilled.spilled_chunks(),
        inmem.streams.iter().map(|s| s.n_chunks()).sum()
    );
    // Every chunk spilled in order, so frame ordinal = chunk index.
    let flipped: u64 = (0..spilled.n_cpus())
        .map(|cpu| {
            (0..spilled.streams[cpu].n_chunks() as u32)
                .filter(|&f| plan.fires(cpu as u32, f).is_some())
                .count() as u64
        })
        .sum();
    assert!(
        flipped > 0,
        "the fault plan never fired — the test is vacuous"
    );
    assert_eq!(spilled.validate(), Ok(()));
    assert_eq!(store.salvage_count(), 0, "validation read a frame back");
    let mut reference = Machine::new(MachineConfig::base(), &inmem).unwrap();
    reference.set_decode_prefetch(false);
    let expected = reference.run_mut().expect("in-memory replay");
    for round in 0..2 {
        let mut m = Machine::new(MachineConfig::base(), &spilled).unwrap();
        m.set_decode_prefetch(true);
        assert_eq!(m.run_mut().as_ref(), Ok(&expected), "round {round}");
        assert_eq!(m.state_digest(), reference.state_digest(), "round {round}");
        assert_eq!(store.salvage_count(), flipped, "round {round}");
    }
}

/// Set in the child process [`unrecoverable_frame_fails_the_replay_cleanly`]
/// spawns; the child runs the failing replay with real stderr.
const CHILD_ENV: &str = "OSCACHE_UNRECOVERABLE_FRAME_CHILD";

/// A torn frame with no rebuilder is unrecoverable. With the helper pinned
/// on, the replay must end as a caught panic on the replaying thread — the
/// payload the cell supervisor records as a typed `panic` cell failure —
/// without hanging, aborting, or printing a bare helper-thread panic.
/// The failing replay runs in a child test process so its stderr can be
/// inspected.
#[test]
fn unrecoverable_frame_fails_the_replay_cleanly() {
    if std::env::var_os(CHILD_ENV).is_some() {
        let mut rng = SmallRng::seed_from_u64(0x70B1_D00D);
        let t = random_trace(&mut rng);
        let mut ct = t.rechunk(2);
        let store = spill_fully(&mut ct, "unrecoverable", 0, None);
        // Tear the second half of every segment: early chunks still
        // decode, later ones fail mid-replay.
        for cpu in 0..ct.n_cpus() {
            let f = std::fs::OpenOptions::new()
                .write(true)
                .open(store.segment_path(cpu))
                .expect("open segment");
            let len = f.metadata().expect("segment metadata").len();
            f.set_len(len / 2).expect("truncate segment");
        }
        assert_eq!(ct.validate(), Ok(()), "validation must not read frames");
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut m = Machine::new(MachineConfig::base(), &ct).unwrap();
            m.set_decode_prefetch(true);
            m.run_mut()
        }));
        let payload = outcome.expect_err("a torn frame without a rebuilder must fail the replay");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(msg.contains("unrecoverable spill frame"), "{msg}");
        assert_eq!(store.salvage_count(), 0);
        return;
    }
    let mut child = std::process::Command::new(std::env::current_exe().expect("test binary"))
        .args([
            "--exact",
            "unrecoverable_frame_fails_the_replay_cleanly",
            "--nocapture",
            "--test-threads=1",
        ])
        .env(CHILD_ENV, "1")
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn child test");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(120);
    while child.try_wait().expect("poll child").is_none() {
        if std::time::Instant::now() > deadline {
            let _ = child.kill();
            panic!("the failing replay hung");
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    let out = child.wait_with_output().expect("child output");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "child failed: {stdout}\n{stderr}");
    assert!(stdout.contains("1 passed"), "child ran no test: {stdout}");
    // The panic line reads `thread '<unnamed>' panicked` or, on newer
    // toolchains, `thread '<unnamed>' (<tid>) panicked`.
    assert!(
        !stderr
            .lines()
            .any(|l| l.starts_with("thread '<unnamed>'") && l.contains("panicked")),
        "a helper-thread panic leaked to stderr:\n{stderr}"
    );
}

/// A budget-governed pipeline run — base generation spilling at seal,
/// analysis intermediates spilling post-hoc, the replay decoding frames
/// back from disk — produces statistics bitwise-identical to the same
/// cell ungoverned. BCPref sits at the top of the ladder, so this
/// crosses every phase: analysis, transforms, profiling, rewrite, replay.
#[test]
fn governed_pipeline_matches_ungoverned() {
    let mut plain = Repro::new(0.2);
    let mut governed = Repro::new(0.2);
    // A 1 MiB budget at scale 0.2: far below the trace's encoded size,
    // so essentially every sealed chunk must take the disk path.
    governed.set_mem_budget(1, None);
    for sys in [System::Base, System::BCPref] {
        let a = plain.run(Workload::Trfd4, sys).stats.clone();
        let b = governed.run(Workload::Trfd4, sys).stats.clone();
        assert_eq!(a, b, "{}: governed stats diverge", sys.label());
    }
    assert!(
        governed.cache().spilled_mb() > 0.0,
        "the governed run never spilled — the oracle is vacuous"
    );
}

/// ENOSPC injection with a budget the resident set already exceeds: the
/// run must answer the typed *overloaded* error (exit 7 at the CLI),
/// never panic or silently keep everything in memory.
#[test]
fn enospc_with_exhausted_budget_answers_overloaded() {
    let mut r = Repro::new(0.3);
    r.set_mem_budget(
        2,
        Some(IoFaultPlan {
            seed: 42,
            class: Some(IoFaultClass::NoSpace),
        }),
    );
    let err = r
        .try_run_spec(
            Workload::Trfd4,
            System::Base.spec(),
            Geometry::default(),
            System::Base.label(),
        )
        .expect_err("a 2 MiB budget with every spill write failing ENOSPC cannot be met");
    assert!(err.is_overloaded(), "wrong error class: {err}");
    assert!(
        err.to_string().contains("memory budget exceeded"),
        "unexpected message: {err}"
    );
}

/// A generous budget with ENOSPC injection degrades gracefully: spill
/// stops, everything stays resident under the budget, and the run
/// completes with correct statistics.
#[test]
fn enospc_under_budget_degrades_to_in_memory() {
    let mut plain = Repro::new(0.05);
    let mut faulty = Repro::new(0.05);
    faulty.set_mem_budget(
        4096,
        Some(IoFaultPlan {
            seed: 42,
            class: Some(IoFaultClass::NoSpace),
        }),
    );
    let a = plain.run(Workload::Trfd4, System::Base).stats.clone();
    let b = faulty.run(Workload::Trfd4, System::Base).stats.clone();
    assert_eq!(a, b, "degraded-run stats diverge");
}
