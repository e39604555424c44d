//! Decode-ahead equivalence (DESIGN.md §17): the chunked replay with the
//! prefetch helper enabled must be indistinguishable — statistics, final
//! machine-state digest, step count, typed errors, and the step at which
//! a cancellation fires — from the same replay decoding every chunk
//! synchronously. Chunk decode is pure, so this holds by construction;
//! these tests pin it against seeded random traces, hostile chunk
//! capacities (down to one event per chunk), replays with hot-spot
//! prefetches merged into the windows (the helper fills merged chunks
//! through the same function as the synchronous path), and mid-run
//! cancellation.
//! Prefetch is flipped per machine via [`Machine::set_decode_prefetch`]
//! (env vars race across test threads).

use oscache_memsys::{CancelToken, Machine, MachineConfig, SimErrorKind, CANCEL_POLL_STRIDE};
use oscache_trace::rng::{Rng, SmallRng};
use oscache_trace::{
    Addr, ChunkedTrace, DataClass, HotspotPlan, LockId, Mode, PlanEntry, StreamBuilder, TraceMeta,
};

const SEEDS: std::ops::Range<u64> = 0..8;

/// A random valid multi-CPU trace exercising sharing, locks, block
/// operations, mode switches, and idle gaps — the same event vocabulary
/// as tests/specialize_matrix.rs, so chunk boundaries land inside lock
/// sections and block-op brackets.
fn random_trace(rng: &mut SmallRng) -> ChunkedTrace {
    let n_cpus = 4;
    let mut meta = TraceMeta::default();
    let site = meta.code.add_site("da", true);
    let bb = meta.code.add_block(Addr(0x2000), 4, site);
    let mut t = ChunkedTrace::new(n_cpus, meta);
    for cpu in 0..n_cpus {
        let mut b = StreamBuilder::new();
        b.set_mode(Mode::Os);
        for _ in 0..rng.gen_range(40..200usize) {
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

/// Runs the same chunked cell with the decode-ahead helper on and off and
/// asserts end-to-end equality: the full `Result`, the final machine-state
/// digest, and the step count. Also returns the prefetch-on machine's
/// overlap counters for accounting checks.
fn assert_prefetch_invisible(
    cfg: MachineConfig,
    ct: &ChunkedTrace,
    what: &str,
) -> oscache_memsys::OverlapStats {
    assert_merged_prefetch_invisible(cfg, ct, HotspotPlan::empty(), &[], what)
}

/// [`assert_prefetch_invisible`] for a replay with `hot`'s entries of
/// `plan` merged into the decode windows.
fn assert_merged_prefetch_invisible(
    cfg: MachineConfig,
    ct: &ChunkedTrace,
    plan: &HotspotPlan,
    hot: &[u16],
    what: &str,
) -> oscache_memsys::OverlapStats {
    let mk = |cfg| {
        Machine::with_prefetches(cfg, ct, plan, hot).unwrap_or_else(|e| panic!("{what}: {e}"))
    };
    let mut on = mk(cfg.clone());
    let mut off = mk(cfg);
    on.set_decode_prefetch(true);
    off.set_decode_prefetch(false);
    let ron = on.run_mut();
    let roff = off.run_mut();
    assert_eq!(ron, roff, "{what}: prefetch changed the replay result");
    assert_eq!(
        on.state_digest(),
        off.state_digest(),
        "{what}: prefetch changed the final machine state"
    );
    assert_eq!(on.steps(), off.steps(), "{what}: step counts diverge");
    let sync_only = off.overlap_stats();
    assert_eq!(sync_only.prefetch_hits, 0, "{what}: disabled helper hit");
    on.overlap_stats()
}

/// Seeded random traces at several chunk capacities — many chunks per
/// stream, boundaries inside lock retries and block brackets — replay
/// identically with the helper on and off.
#[test]
fn prefetch_matches_sync_decode_on_random_traces() {
    for seed in SEEDS {
        let mut rng = SmallRng::seed_from_u64(0xDECD_0000 ^ seed);
        let t = random_trace(&mut rng);
        t.validate().expect("generator must emit valid traces");
        for capacity in [7, 64, 1024] {
            let ct = t.rechunk(capacity);
            ct.validate().expect("rechunk must stay valid");
            let what = format!("seed {seed} capacity {capacity}");
            let overlap = assert_prefetch_invisible(MachineConfig::base(), &ct, &what);
            // Every decode was either a helper hit or a timed sync decode;
            // the counters cannot lose one.
            assert!(
                overlap.prefetch_hits + overlap.sync_decodes > 0,
                "{what}: multi-chunk replay recorded no decodes"
            );
        }
    }
}

/// Random hot-spot plans over each stream: entries at any position up to
/// and including the stream's end, loop and sequence shapes, hot and cold
/// sites.
fn random_plan(t: &ChunkedTrace, rng: &mut SmallRng) -> HotspotPlan {
    HotspotPlan::new(
        t.streams
            .iter()
            .map(|s| {
                (0..rng.gen_range(0..3 * s.len() / 2 + 2))
                    .map(|k| {
                        PlanEntry::new(
                            rng.gen_range(0..s.len() + 1) as u32,
                            rng.gen_range(1..4u32) as u16,
                            Addr(0x0300_0000 + 16 * k as u32),
                            DataClass::RunQueue,
                            rng.gen_bool(0.5),
                        )
                    })
                    .collect()
            })
            .collect(),
    )
}

/// Prefetches merged into the windows: the helper's merged chunks equal
/// the synchronous path's at every capacity, so the replay with the
/// helper on is indistinguishable from the replay with it off.
#[test]
fn prefetch_matches_sync_decode_with_merged_prefetches() {
    for seed in SEEDS {
        let mut rng = SmallRng::seed_from_u64(0x4075_0000 ^ seed);
        let t = random_trace(&mut rng);
        let plan = random_plan(&t, &mut rng);
        for capacity in [1, 7, 64] {
            let ct = t.rechunk(capacity);
            let what = format!("seed {seed} capacity {capacity} merged");
            let overlap =
                assert_merged_prefetch_invisible(MachineConfig::base(), &ct, &plan, &[1, 3], &what);
            assert!(
                overlap.prefetch_hits + overlap.sync_decodes > 0,
                "{what}: multi-chunk replay recorded no fills"
            );
        }
    }
}

/// Capacity one — every event its own chunk, the worst case for the
/// mailbox protocol (each swap-in immediately requests the next chunk,
/// and stale ready buffers get recycled on every miss).
#[test]
fn prefetch_matches_sync_decode_at_capacity_one() {
    for seed in SEEDS {
        let mut rng = SmallRng::seed_from_u64(0xCAB1_0000 ^ seed);
        let t = random_trace(&mut rng);
        let ct = t.rechunk(1);
        let what = format!("seed {seed} capacity 1");
        assert_prefetch_invisible(MachineConfig::base(), &ct, &what);
    }
}

/// Update-coherent pages and a victim cache (the heavier run-time
/// branches) under small chunks: the specialized chunked loops swap chunks
/// identically with the helper on and off.
#[test]
fn prefetch_is_invisible_across_configs() {
    for seed in SEEDS {
        let mut rng = SmallRng::seed_from_u64(0x5bec_da00 ^ seed);
        let t = random_trace(&mut rng);
        let ct = t.rechunk(32);
        for (updates, victim) in [(true, false), (false, true), (true, true)] {
            let mut cfg = MachineConfig::base();
            if updates {
                for page in (0x0300_0000u32 >> 12)..=(0x0300_4000u32 >> 12) {
                    cfg.update_pages.insert(page);
                }
            }
            if victim {
                cfg.victim_lines = 4;
            }
            let what = format!("seed {seed} updates={updates} victim={victim}");
            assert_prefetch_invisible(cfg, &ct, &what);
        }
    }
}

/// A single-CPU stream of `n` data reads after the leading mode event.
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

/// A countdown token cancels the prefetching replay at exactly the same
/// deterministic event index as the synchronous one, with identical typed
/// errors and identical partial machine state — the helper cannot shift
/// the poll schedule.
#[test]
fn cancellation_fires_at_identical_steps_with_prefetch() {
    let t = long_trace(3 * CANCEL_POLL_STRIDE as u32);
    let ct = t.rechunk(256);
    for polls in 1..=3u64 {
        let mk = |polls| {
            let mut cfg = MachineConfig::base();
            cfg.n_cpus = 1;
            cfg.cancel = CancelToken::countdown(polls);
            cfg
        };
        let mut on = Machine::new(mk(polls), &ct).unwrap();
        let mut off = Machine::new(mk(polls), &ct).unwrap();
        on.set_decode_prefetch(true);
        off.set_decode_prefetch(false);
        let ron = on.run_mut();
        let roff = off.run_mut();
        assert_eq!(ron, roff, "polls={polls}: cancellation outcomes diverge");
        let err = ron.expect_err("countdown token must cancel the replay");
        match err.kind {
            SimErrorKind::Cancelled { step } => {
                assert_eq!(step, (polls - 1) * CANCEL_POLL_STRIDE, "polls={polls}");
            }
            other => panic!("polls={polls}: expected Cancelled, got {other:?}"),
        }
        assert_eq!(
            on.state_digest(),
            off.state_digest(),
            "polls={polls}: partial states diverge"
        );
    }
}

/// Counter accounting on a strictly sequential stream: a lone CPU visits
/// each of its chunks exactly once, so helper hits plus sync decodes must
/// equal the chunk count — no decode is double-counted or lost, whatever
/// fraction the helper won.
#[test]
fn overlap_counters_account_for_every_chunk() {
    let t = long_trace(4096);
    let ct = t.rechunk(64);
    let n_chunks = ct.streams[0].n_chunks();
    assert!(n_chunks > 1, "test needs a multi-chunk stream");
    let mut cfg = MachineConfig::base();
    cfg.n_cpus = 1;
    let mut m = Machine::new(cfg, &ct).unwrap();
    m.set_decode_prefetch(true);
    m.run_mut().expect("replay completes");
    let o = m.overlap_stats();
    assert_eq!(
        o.prefetch_hits + o.sync_decodes,
        n_chunks as u64,
        "hits={} sync={} chunks={n_chunks}",
        o.prefetch_hits,
        o.sync_decodes
    );
    assert!(o.decode_ms >= 0.0);
}
