//! Fault injection for robustness testing.
//!
//! Each [`FaultKind`] applies one seeded perturbation to a copy of a trace
//! — the kinds of damage a buggy generator, a truncated dump, or a corrupt
//! transport would produce. The contract the test suite (and `repro
//! replay --inject`) asserts: a perturbed trace is either **rejected with a
//! typed error** ([`oscache_trace::TraceError`] at validation, or a
//! [`crate::SimError`] — e.g. a deadlock — at replay) or **replays to
//! completion with a clean invariant audit**. It must never panic the
//! simulator.
//!
//! Injection is deterministic: the same `(trace, kind, seed)` triple always
//! yields the same perturbed trace.

use oscache_trace::rng::{Rng, SmallRng};
use oscache_trace::{Addr, BlockKind, BlockOp, ChunkedStream, ChunkedTrace, DataClass, Event};

/// Deterministic **runner-level** fault: makes selected experiment cells
/// panic inside the supervised fan-out, so the supervision layer's panic
/// isolation, bounded retry, and partial reporting can be exercised end to
/// end (`repro --inject-cell-panic`, DESIGN.md §13.4).
///
/// Selection is a pure function of `(seed, cell key)` — no global state,
/// no RNG stream to keep in sync across worker threads — so the same spec
/// always fells the same cells regardless of `--jobs` or scheduling. A
/// cell is *targeted* when the FNV-1a mix of the seed and its run key is
/// divisible by `period`; a targeted cell's attempt `a` panics while
/// `a < attempts`, so `attempts: u32::MAX` models a hard failure and a
/// small `attempts` models a transient one that bounded retry overcomes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CellFault {
    /// Seed decorrelating which cells are hit.
    pub seed: u64,
    /// One in `period` cells is targeted (1 targets every cell).
    pub period: u32,
    /// Attempts that panic before the cell starts succeeding
    /// (`u32::MAX` = never succeeds).
    pub attempts: u32,
}

impl CellFault {
    /// Parses `seed[:period[:attempts]]` (decimal; `attempts` may be
    /// `inf` for a permanent fault). Defaults: `period` 4, `attempts`
    /// `u32::MAX`.
    pub fn parse(s: &str) -> Option<CellFault> {
        let mut parts = s.split(':');
        let seed = parts.next()?.parse().ok()?;
        let period = match parts.next() {
            Some(p) => p.parse().ok().filter(|&p| p > 0)?,
            None => 4,
        };
        let attempts = match parts.next() {
            Some("inf") => u32::MAX,
            Some(a) => a.parse().ok()?,
            None => u32::MAX,
        };
        if parts.next().is_some() {
            return None;
        }
        Some(CellFault {
            seed,
            period,
            attempts,
        })
    }

    /// True when the cell named `key` is one of the fault's targets.
    pub fn targets(&self, key: &str) -> bool {
        // FNV-1a over the seed bytes then the key bytes: stable across
        // builds (journals and CI pin exit codes to specific seeds).
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in self.seed.to_le_bytes().iter().chain(key.as_bytes()) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h.is_multiple_of(u64::from(self.period))
    }

    /// True when attempt number `attempt` (0-based) of the cell named
    /// `key` should panic.
    pub fn fires(&self, key: &str, attempt: u32) -> bool {
        self.targets(key) && attempt < self.attempts
    }
}

/// One class of trace perturbation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FaultKind {
    /// Remove one randomly-chosen event (can unbalance locks, barriers, or
    /// block-op brackets).
    DropEvent,
    /// Insert a copy of one event immediately after itself (can double a
    /// lock acquire or a block-op begin).
    DuplicateEvent,
    /// Swap two adjacent events (can move a reference across a bracket or
    /// reorder a release before its acquire).
    SwapAdjacentEvents,
    /// Flip one bit of one event's data address.
    FlipAddressBit,
    /// Cut the stream short at a random point (models a truncated dump).
    TruncateStream,
    /// Corrupt a block operation's length so its range overflows the
    /// address space (appending such an operation if none exists).
    CorruptBlockOpLength,
}

impl FaultKind {
    /// Every fault class, for exhaustive matrix tests.
    pub const ALL: [FaultKind; 6] = [
        FaultKind::DropEvent,
        FaultKind::DuplicateEvent,
        FaultKind::SwapAdjacentEvents,
        FaultKind::FlipAddressBit,
        FaultKind::TruncateStream,
        FaultKind::CorruptBlockOpLength,
    ];

    /// A stable command-line name for the fault.
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::DropEvent => "drop",
            FaultKind::DuplicateEvent => "duplicate",
            FaultKind::SwapAdjacentEvents => "swap",
            FaultKind::FlipAddressBit => "bitflip",
            FaultKind::TruncateStream => "truncate",
            FaultKind::CorruptBlockOpLength => "blocklen",
        }
    }

    /// Parses a [`FaultKind::label`] back into the fault.
    pub fn parse(s: &str) -> Option<FaultKind> {
        FaultKind::ALL
            .into_iter()
            .find(|k| k.label().eq_ignore_ascii_case(s))
    }
}

/// Whether the event carries a data address.
fn has_addr(ev: &Event) -> bool {
    matches!(
        ev,
        Event::Read { .. }
            | Event::Write { .. }
            | Event::Prefetch { .. }
            | Event::LockAcquire { .. }
            | Event::LockRelease { .. }
            | Event::Barrier { .. }
    )
}

/// Returns the event's data address, if it carries one.
fn addr_of_mut(ev: &mut Event) -> Option<&mut Addr> {
    match ev {
        Event::Read { addr, .. }
        | Event::Write { addr, .. }
        | Event::Prefetch { addr, .. }
        | Event::LockAcquire { addr, .. }
        | Event::LockRelease { addr, .. }
        | Event::Barrier { addr, .. } => Some(addr),
        _ => None,
    }
}

/// Applies `kind` once to a copy of `trace`, deterministically in `seed`.
///
/// Streams are chosen among the non-empty ones; a trace with only empty
/// streams is returned unchanged (there is nothing to perturb except
/// [`FaultKind::CorruptBlockOpLength`], which appends its corrupt
/// operation to stream 0). Only the chosen stream is decoded; it is
/// re-encoded at its own chunk capacity, so where chunk boundaries fall
/// never changes which edit is made.
pub fn inject(trace: &ChunkedTrace, kind: FaultKind, seed: u64) -> ChunkedTrace {
    // Decorrelate the streams of different fault kinds at the same seed.
    let mut rng = SmallRng::seed_from_u64(seed ^ ((kind as u64 + 1) << 56));
    let mut out = trace.clone();
    let candidates: Vec<usize> = out
        .streams
        .iter()
        .enumerate()
        .filter(|(_, s)| !s.is_empty())
        .map(|(i, _)| i)
        .collect();
    let cpu = if candidates.is_empty() {
        if kind != FaultKind::CorruptBlockOpLength || out.streams.is_empty() {
            return out;
        }
        0
    } else {
        candidates[rng.gen_range(0..candidates.len())]
    };
    let mut events: Vec<Event> = out.streams[cpu].iter().collect();
    match kind {
        FaultKind::DropEvent => {
            let k = rng.gen_range(0..events.len());
            events.remove(k);
        }
        FaultKind::DuplicateEvent => {
            let k = rng.gen_range(0..events.len());
            let e = events[k];
            events.insert(k, e);
        }
        FaultKind::SwapAdjacentEvents => {
            if events.len() >= 2 {
                let k = rng.gen_range(0..events.len() - 1);
                events.swap(k, k + 1);
            }
        }
        FaultKind::FlipAddressBit => {
            let with_addr: Vec<usize> = events
                .iter()
                .enumerate()
                .filter(|(_, e)| has_addr(e))
                .map(|(k, _)| k)
                .collect();
            if let Some(&k) = with_addr.get(rng.gen_range(0..with_addr.len().max(1))) {
                let bit = rng.gen_range(0..32u32);
                if let Some(addr) = addr_of_mut(&mut events[k]) {
                    addr.0 ^= 1 << bit;
                }
            }
        }
        FaultKind::TruncateStream => {
            let k = rng.gen_range(0..events.len());
            events.truncate(k);
        }
        FaultKind::CorruptBlockOpLength => {
            let begins: Vec<usize> = events
                .iter()
                .enumerate()
                .filter(|(_, e)| matches!(e, Event::BlockOpBegin { .. }))
                .map(|(k, _)| k)
                .collect();
            if begins.is_empty() {
                // No block op to corrupt: append one whose range overflows.
                events.push(Event::BlockOpBegin {
                    op: BlockOp {
                        src: Addr(0xFFFF_FF00),
                        dst: Addr(0xFFFF_FF00),
                        len: 0x1000,
                        kind: BlockKind::Zero,
                        src_class: DataClass::PageFrame,
                        dst_class: DataClass::PageFrame,
                    },
                });
                events.push(Event::BlockOpEnd);
            } else {
                let k = begins[rng.gen_range(0..begins.len())];
                if let Event::BlockOpBegin { op } = &mut events[k] {
                    // Either overflow the range or zero the length.
                    if rng.gen_bool(0.5) {
                        op.len = u32::MAX - rng.gen_range(0..256u32);
                    } else {
                        op.len = 0;
                    }
                }
            }
        }
    }
    out.streams[cpu] = ChunkedStream::from_events(events, out.streams[cpu].capacity());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use oscache_trace::{LockId, Mode, StreamBuilder, TraceMeta};

    fn small_trace() -> ChunkedTrace {
        let mut meta = TraceMeta::default();
        let site = meta.code.add_site("t", false);
        let bb = meta.code.add_block(Addr(0x100), 2, site);
        let mut t = ChunkedTrace::new(2, meta);
        for s in &mut t.streams {
            let mut b = StreamBuilder::new();
            b.set_mode(Mode::Os);
            b.exec(bb);
            b.lock_acquire(LockId(1), Addr(0x40));
            b.write(Addr(0x0100_0000), DataClass::KernelOther);
            b.lock_release(LockId(1), Addr(0x40));
            b.begin_block_zero(Addr(0x2000), 64, DataClass::PageFrame);
            b.write(Addr(0x2000), DataClass::PageFrame);
            b.end_block_op();
            *s = b.finish();
        }
        t
    }

    #[test]
    fn injection_is_deterministic() {
        let t = small_trace();
        for kind in FaultKind::ALL {
            let a = inject(&t, kind, 7);
            let b = inject(&t, kind, 7);
            for (sa, sb) in a.streams.iter().zip(&b.streams) {
                assert!(sa.iter().eq(sb.iter()), "{kind:?} not deterministic");
            }
        }
    }

    #[test]
    fn injection_changes_exactly_one_stream() {
        let t = small_trace();
        for kind in FaultKind::ALL {
            for seed in 0..8 {
                let p = inject(&t, kind, seed);
                let changed = t
                    .streams
                    .iter()
                    .zip(&p.streams)
                    .filter(|(a, b)| !a.iter().eq(b.iter()))
                    .count();
                assert!(
                    changed <= 1,
                    "{kind:?} seed {seed} changed {changed} streams"
                );
            }
        }
    }

    #[test]
    fn injection_is_independent_of_chunk_capacity() {
        let t = small_trace();
        let mut tiny = t.clone();
        for s in &mut tiny.streams {
            *s = ChunkedStream::from_events(&*s, 3);
        }
        for kind in FaultKind::ALL {
            for seed in 0..32 {
                let (a, b) = (inject(&t, kind, seed), inject(&tiny, kind, seed));
                for (cpu, (sa, sb)) in a.streams.iter().zip(&b.streams).enumerate() {
                    assert!(sa.iter().eq(sb.iter()), "{kind:?} seed {seed} cpu {cpu}");
                    assert_eq!(sb.capacity(), 3, "{kind:?} seed {seed} re-encoded");
                }
            }
        }
    }

    #[test]
    fn labels_round_trip() {
        for kind in FaultKind::ALL {
            assert_eq!(FaultKind::parse(kind.label()), Some(kind));
        }
        assert_eq!(FaultKind::parse("nonsense"), None);
    }

    #[test]
    fn corrupt_block_len_always_invalidates() {
        let t = small_trace();
        for seed in 0..16 {
            let p = inject(&t, FaultKind::CorruptBlockOpLength, seed);
            assert!(p.validate().is_err(), "seed {seed} still valid");
        }
    }

    #[test]
    fn cell_fault_spec_parses() {
        assert_eq!(
            CellFault::parse("7"),
            Some(CellFault {
                seed: 7,
                period: 4,
                attempts: u32::MAX
            })
        );
        assert_eq!(
            CellFault::parse("7:1:2"),
            Some(CellFault {
                seed: 7,
                period: 1,
                attempts: 2
            })
        );
        assert_eq!(
            CellFault::parse("0:3:inf"),
            Some(CellFault {
                seed: 0,
                period: 3,
                attempts: u32::MAX
            })
        );
        assert_eq!(CellFault::parse(""), None);
        assert_eq!(CellFault::parse("1:0"), None, "period 0 divides nothing");
        assert_eq!(CellFault::parse("1:2:3:4"), None);
    }

    #[test]
    fn cell_fault_is_deterministic_and_bounded() {
        let f = CellFault::parse("11:1:2").unwrap();
        assert!(f.targets("any/key"), "period 1 targets every cell");
        assert!(f.fires("any/key", 0) && f.fires("any/key", 1));
        assert!(!f.fires("any/key", 2), "attempts bound not honoured");
        // Same (seed, key) always decides the same way; different seeds
        // decorrelate.
        let g = CellFault::parse("11:4").unwrap();
        let keys = ["a/b/c", "d/e/f", "g/h/i", "j/k/l", "m/n/o"];
        for k in keys {
            assert_eq!(g.targets(k), g.targets(k));
        }
        let hit_11: Vec<bool> = keys.iter().map(|k| g.targets(k)).collect();
        let hit_12: Vec<bool> = keys
            .iter()
            .map(|k| CellFault::parse("12:4").unwrap().targets(k))
            .collect();
        assert!(
            hit_11 != hit_12 || hit_11.iter().any(|&h| h),
            "seed has no effect on targeting"
        );
    }

    #[test]
    fn empty_trace_survives_injection() {
        let defaulted = ChunkedTrace {
            streams: vec![ChunkedStream::default(); 2],
            meta: TraceMeta::default(),
        };
        for t in [ChunkedTrace::new(2, TraceMeta::default()), defaulted] {
            for kind in FaultKind::ALL {
                let p = inject(&t, kind, 3);
                assert_eq!(p.n_cpus(), 2);
            }
        }
    }
}
