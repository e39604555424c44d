//! Exhaustive configuration equivalence matrix (DESIGN.md §15).
//!
//! An audit-off [`Machine::run`] dispatches on the recording flag to one
//! of 2 monomorphized replay loops; update pages, the victim cache and
//! cancellation are run-time checks inside them. The generic loop is kept
//! verbatim as the oracle, and this file pins both specialized loops
//! against it under every `(updates, victim, cancel)` configuration, so
//! each run-time branch is taken: same statistics, same final
//! machine-state digest, same step count, and — for armed tokens that
//! actually fire — the same typed cancellation error at the same event
//! index. Traces are seeded-PRNG random so failures reproduce exactly.

use oscache_memsys::{CancelToken, Machine, MachineConfig, SimErrorKind, CANCEL_POLL_STRIDE};
use oscache_trace::rng::{Rng, SmallRng};
use oscache_trace::{Addr, ChunkedTrace, DataClass, LockId, Mode, StreamBuilder, TraceMeta};

const SEEDS: std::ops::Range<u64> = 0..8;

/// A random valid multi-CPU trace exercising sharing, locks, block
/// operations, mode switches, and idle gaps — the full vocabulary the
/// specialized loops must replay identically.
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
                    // Shared pool so CPUs contend on lines (and, with the
                    // pool's pages marked update-coherent, so the update
                    // probe actually takes both branches).
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

/// A base configuration with exactly the requested features.
fn cfg_for(updates: bool, victim: bool, cancel: bool) -> MachineConfig {
    let mut cfg = MachineConfig::base();
    if updates {
        // Cover the shared pool (0x0300_0000..+0x4000) plus one page the
        // trace never touches, so the per-line membership probe sees both
        // outcomes.
        for page in (0x0300_0000u32 >> 12)..=((0x0300_4000u32) >> 12) {
            cfg.update_pages.insert(page);
        }
        cfg.update_pages.insert(0x0900_0000 >> 12);
    }
    if victim {
        cfg.victim_lines = 4;
    }
    if cancel {
        // Armed but never fired: the poll must run (and cost nothing
        // observable), the replay must complete.
        cfg.cancel = CancelToken::new();
    }
    cfg
}

/// Runs the same (trace, config, record) cell through the specialized
/// dispatcher and the generic oracle and asserts end-to-end equality:
/// the full `Result` (statistics or typed error), the final machine-state
/// digest, and the step count.
fn assert_spec_matches_generic(cfg: MachineConfig, trace: &ChunkedTrace, record: bool, what: &str) {
    let mut s = Machine::with_recording(cfg.clone(), trace, record)
        .unwrap_or_else(|e| panic!("{what}: {e}"));
    let mut g =
        Machine::with_recording(cfg, trace, record).unwrap_or_else(|e| panic!("{what}: {e}"));
    let rs = s.run_mut();
    let rg = g.run_generic_mut();
    assert_eq!(rs, rg, "{what}: specialized and generic results diverge");
    assert_eq!(
        s.state_digest(),
        g.state_digest(),
        "{what}: final machine states diverge"
    );
    assert_eq!(s.steps(), g.steps(), "{what}: event counts diverge");
}

/// Every `(updates, victim, cancel)` configuration, with recording on and
/// off, replays seeded random traces identically to the generic oracle —
/// statistics, final state, and step count.
#[test]
fn every_config_variant_matches_generic() {
    for seed in SEEDS {
        let mut rng = SmallRng::seed_from_u64(0x5BEC_0000 ^ seed);
        let t = random_trace(&mut rng);
        t.validate().expect("generator must emit valid traces");
        for variant in 0..16u32 {
            let (record, updates) = (variant & 1 != 0, variant & 2 != 0);
            let (victim, cancel) = (variant & 4 != 0, variant & 8 != 0);
            let cfg = cfg_for(updates, victim, cancel);
            let what = format!(
                "seed {seed} record={record} updates={updates} victim={victim} cancel={cancel}"
            );
            assert_spec_matches_generic(cfg, &t, record, &what);
        }
    }
}

/// A single-CPU trace of `n` data reads (plus the leading mode event):
/// enough events to cross several cancellation-poll strides.
fn long_trace(n: u32) -> ChunkedTrace {
    let mut b = StreamBuilder::new();
    b.set_mode(Mode::Os);
    for i in 0..n {
        b.read(Addr(0x0100_0000 + (i % 4096) * 4), DataClass::KernelOther);
    }
    let mut t = ChunkedTrace::new(1, TraceMeta::default());
    t.streams[0] = b.finish();
    t
}

/// The poll stride is a power of two (the poll site masks with
/// `CANCEL_POLL_STRIDE - 1`) and small enough that sub-second cells stay
/// responsive to cancellation.
#[test]
#[allow(clippy::assertions_on_constants)] // pinning the constant IS the test
fn cancel_poll_stride_is_a_power_of_two() {
    assert!(CANCEL_POLL_STRIDE.is_power_of_two());
    assert!(CANCEL_POLL_STRIDE <= 1 << 16);
}

/// A countdown token that trips mid-run cancels both loops at the *same*
/// deterministic event index, with identical typed errors. The poll
/// schedule is part of the machines' shared contract: polls happen at
/// step 0 and every `CANCEL_POLL_STRIDE` events thereafter.
#[test]
fn cancellation_fires_at_identical_deterministic_steps() {
    let t = long_trace(3 * CANCEL_POLL_STRIDE as u32);
    for polls in 1..=3u64 {
        // Each machine gets its *own* countdown (the token is shared
        // state; a cloned config would share the counter between them).
        let mk = |polls| {
            let mut cfg = MachineConfig::base();
            cfg.n_cpus = 1;
            cfg.cancel = CancelToken::countdown(polls);
            cfg
        };
        let mut s = Machine::new(mk(polls), &t).unwrap();
        let mut g = Machine::new(mk(polls), &t).unwrap();
        let rs = s.run_mut();
        let rg = g.run_generic_mut();
        assert_eq!(rs, rg, "polls={polls}: cancellation outcomes diverge");
        let err = rs.expect_err("countdown token must cancel the replay");
        match err.kind {
            SimErrorKind::Cancelled { step } => {
                // The n-th poll happens exactly (n-1) strides in.
                assert_eq!(step, (polls - 1) * CANCEL_POLL_STRIDE, "polls={polls}");
            }
            other => panic!("polls={polls}: expected Cancelled, got {other:?}"),
        }
        assert_eq!(
            s.state_digest(),
            g.state_digest(),
            "polls={polls}: partial states diverge"
        );
    }
}

/// An armed token that never fires changes nothing: the cancellable
/// replay completes with the same results as an inert-token replay.
#[test]
fn armed_unfired_token_is_invisible() {
    let mut rng = SmallRng::seed_from_u64(0xCA9C_E77E);
    let t = random_trace(&mut rng);
    let armed = {
        let mut cfg = MachineConfig::base();
        cfg.cancel = CancelToken::new();
        cfg
    };
    let ra = Machine::new(armed, &t).unwrap().run().unwrap();
    let ri = Machine::new(MachineConfig::base(), &t)
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(ra, ri, "an unfired token changed replay results");
}

/// Victim-cache replays exercise real swaps under the specialized loop:
/// sanity-check the config has a victim cache and the caches stay coherent
/// (covered in depth by the generic-equality matrix above).
#[test]
fn victim_keyed_replay_still_fills_caches() {
    let mut rng = SmallRng::seed_from_u64(0x71C7_1234);
    let t = random_trace(&mut rng);
    let cfg = cfg_for(false, true, false);
    assert!(cfg.victim_lines > 0);
    let mut m = Machine::new(cfg, &t).unwrap();
    let stats = m.run_mut().unwrap();
    assert!(stats.total().dreads.total() > 0);
}
