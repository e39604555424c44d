//! Validation proven while encoding must agree with the full scan
//! (DESIGN.md §16).
//!
//! A chunked trace answers `validate` from the facts its encoder recorded
//! per stream, and falls back to the full scan only when those facts cannot
//! prove the trace valid. This differential pins the pair against the
//! reference, [`ChunkedTrace::validate_by_scan`], which runs every event
//! through the validator and ignores the facts: for every fault class over
//! many seeds, and for hand-built violations that only show across streams
//! or against the metadata, both sides return the same `Ok` or the same
//! typed error at the same `(cpu, index)`.

use oscache_memsys::faults::{inject, FaultKind};
use oscache_trace::rng::{Rng, SmallRng};
use oscache_trace::{
    Addr, BarrierId, BlockId, ChunkedStream, ChunkedTrace, CodeLayout, DataClass, Event, LockId,
    Mode, StreamBuilder, TraceError, TraceMeta, CHUNK_EVENTS,
};

const N_CPUS: usize = 4;

/// A random valid trace with the whole event vocabulary the validator
/// checks: several code blocks, locks, block operations, mode switches,
/// idle gaps, and barriers every CPU reaches in the same order.
fn random_trace(rng: &mut SmallRng) -> ChunkedTrace {
    let mut meta = TraceMeta::default();
    let site = meta.code.add_site("vp", true);
    let blocks: Vec<BlockId> = (0..4)
        .map(|k| meta.code.add_block(Addr(0x2000 + 0x40 * k), 4, site))
        .collect();
    let rounds = rng.gen_range(1..4usize);
    let mut t = ChunkedTrace::new(N_CPUS, meta);
    for cpu in 0..N_CPUS {
        let mut b = StreamBuilder::new();
        b.set_mode(Mode::Os);
        for round in 0..rounds {
            for _ in 0..rng.gen_range(5..30usize) {
                match rng.gen_range(0..8u32) {
                    0..=2 => {
                        b.exec(blocks[rng.gen_range(0..blocks.len())]);
                        let a = Addr((0x0300_0000 + rng.gen_range(0..0x4000u32)) & !3);
                        b.read(a, DataClass::RunQueue);
                    }
                    3 => {
                        let lock = rng.gen_range(0..3u32);
                        b.lock_acquire(LockId(lock as u16), Addr(0x0500_0000 + lock * 64));
                        b.write(Addr(0x0300_0000), DataClass::RunQueue);
                        b.lock_release(LockId(lock as u16), Addr(0x0500_0000 + lock * 64));
                    }
                    4 => {
                        let base = Addr(0x0600_0000 + rng.gen_range(0..8u32) * 0x1000);
                        let len = rng.gen_range(1..8u32) * 32;
                        b.begin_block_zero(base, len, DataClass::PageFrame);
                        b.write(base, DataClass::PageFrame);
                        b.end_block_op();
                    }
                    5 => b.idle(rng.gen_range(1..40u32)),
                    6 => {
                        b.set_mode(Mode::User);
                        b.read(Addr(0x0700_0000), DataClass::UserData);
                        b.set_mode(Mode::Os);
                    }
                    _ => b.write(
                        Addr(0x0400_0000 + cpu as u32 * 0x1000),
                        DataClass::ProcTable,
                    ),
                }
            }
            b.barrier(
                BarrierId(round as u16),
                Addr(0x0580_0000 + 64 * round as u32),
                N_CPUS as u8,
            );
        }
        t.streams[cpu] = b.finish();
    }
    t
}

/// Asserts that `t` (encoded at the default capacity) and its re-encoding
/// at a tiny capacity both validate exactly as the full scan of `t` does,
/// and returns that common result.
fn assert_agrees(t: &ChunkedTrace, what: &str) -> Result<(), TraceError> {
    let expected = t.validate_by_scan();
    assert_eq!(t.validate(), expected, "{what}: default capacity");
    assert_eq!(t.rechunk(3).validate(), expected, "{what}: capacity 3");
    expected
}

#[test]
fn proof_matches_scan_for_every_fault_class() {
    let mut invalid = 0;
    for kind in FaultKind::ALL {
        for seed in 0..64u64 {
            let mut rng = SmallRng::seed_from_u64(0x9F00_F000 ^ seed);
            let t = random_trace(&mut rng);
            assert_eq!(
                t.validate_by_scan(),
                Ok(()),
                "generator must emit valid traces"
            );
            let bad = inject(&t, kind, seed);
            let verdict = assert_agrees(&bad, &format!("{kind:?} seed {seed}"));
            if verdict.is_err() {
                invalid += 1;
            } else {
                assert_ne!(kind, FaultKind::CorruptBlockOpLength, "seed {seed}");
            }
        }
    }
    // Both verdicts must be exercised: blocklen alone rejects 64 traces,
    // and drop, duplicate and truncate reject some of theirs.
    assert!(invalid > 64 && invalid < 6 * 64, "{invalid} rejected");
}

fn stream(events: Vec<Event>) -> ChunkedStream {
    ChunkedStream::from_events(events, CHUNK_EVENTS)
}

fn arrive(barrier: u16, participants: u8) -> Event {
    Event::Barrier {
        barrier: BarrierId(barrier),
        addr: Addr(0x80),
        participants,
    }
}

#[test]
fn barrier_sizes_disagreeing_across_streams_are_caught() {
    let mut t = ChunkedTrace::new(2, TraceMeta::default());
    t.streams[0] = stream(vec![arrive(0, 2), arrive(1, 2)]);
    t.streams[1] = stream(vec![arrive(0, 2), arrive(1, 1)]);
    assert_eq!(
        assert_agrees(&t, "disagreeing barrier"),
        Err(TraceError::InconsistentBarrier {
            cpu: 1,
            index: 1,
            barrier: BarrierId(1),
        })
    );
}

#[test]
fn more_participants_than_cpus_are_caught() {
    let mut t = ChunkedTrace::new(2, TraceMeta::default());
    t.streams[0] = stream(vec![arrive(0, 2)]);
    t.streams[1] = stream(vec![Event::Idle { cycles: 1 }, arrive(3, 3)]);
    assert!(matches!(
        assert_agrees(&t, "oversized barrier"),
        Err(TraceError::BarrierParticipants {
            cpu: 1,
            index: 1,
            participants: 3,
            n_cpus: 2,
        })
    ));
}

#[test]
fn exec_past_a_swapped_smaller_layout_is_caught() {
    let mut meta = TraceMeta::default();
    let site = meta.code.add_site("big", false);
    for k in 0..3 {
        meta.code.add_block(Addr(0x100 + 0x40 * k), 2, site);
    }
    let mut t = ChunkedTrace::new(1, meta);
    t.streams[0] = stream(vec![
        Event::Exec { block: BlockId(0) },
        Event::Exec { block: BlockId(2) },
    ]);
    let mut ct = t.clone();
    assert_eq!(ct.validate(), Ok(()));
    // Swap the code layout after encoding: the facts recorded against the
    // old layout must not vouch for the new one.
    let mut small = CodeLayout::default();
    let site = small.add_site("small", false);
    small.add_block(Addr(0x100), 2, site);
    ct.meta.code = small.clone();
    t.meta.code = small;
    let expected = Err(TraceError::UnknownBlock {
        cpu: 0,
        index: 1,
        block: BlockId(2),
    });
    assert_eq!(t.validate_by_scan(), expected);
    assert_eq!(ct.validate(), expected);
}

#[test]
fn lock_held_at_stream_end_is_caught() {
    let mut t = ChunkedTrace::new(2, TraceMeta::default());
    t.streams[1] = stream(vec![Event::LockAcquire {
        lock: LockId(4),
        addr: Addr(0x40),
    }]);
    assert_eq!(
        assert_agrees(&t, "leaked lock"),
        Err(TraceError::LockHeldAtEnd {
            cpu: 1,
            lock: LockId(4),
        })
    );
}
