//! Property-based tests of the trace substrate, driven by the in-tree
//! deterministic PRNG (seeded loops replace the former proptest harness so
//! the suite stays dependency-free and reproducible).

use oscache_trace::rng::{Rng, RngCore, SmallRng};
use oscache_trace::{Addr, BlockKind, DataClass, Event, Mode, StreamBuilder, PAGE_SIZE};

const CASES: u64 = 256;

/// Line extraction is idempotent and never increases the address.
#[test]
fn line_is_idempotent() {
    let mut rng = SmallRng::seed_from_u64(0xA11CE);
    for _ in 0..CASES {
        let addr = rng.next_u64() as u32;
        let size = 1u32 << rng.gen_range(2..8u32);
        let a = Addr(addr);
        let l = a.line(size);
        assert!(l.0 <= a.0);
        assert!(a.0 - l.0 < size);
        assert_eq!(l.addr().line(size), l);
    }
}

/// Page number and offset decompose an address exactly.
#[test]
fn page_decomposition_roundtrips() {
    let mut rng = SmallRng::seed_from_u64(0xB0B);
    for _ in 0..CASES {
        let a = Addr(rng.next_u64() as u32);
        assert_eq!(a.page() * PAGE_SIZE + a.page_offset(), a.0);
        assert!(a.page_offset() < PAGE_SIZE);
    }
}

/// A builder-produced stream has balanced block-op brackets and no two
/// consecutive SetMode events with the same mode.
#[test]
fn builder_streams_are_well_formed() {
    let mut rng = SmallRng::seed_from_u64(0xC0FFEE);
    for _ in 0..CASES {
        let mut b = StreamBuilder::new();
        let mut in_block = false;
        let n_ops = rng.gen_range(0..300usize);
        for _ in 0..n_ops {
            let op = rng.gen_range(0..6u32);
            let arg = rng.gen_range(0..100_000u32);
            match op {
                0 => b.read(Addr(arg), DataClass::UserData),
                1 => b.write(Addr(arg), DataClass::UserData),
                2 => b.set_mode(Mode::Os),
                3 => b.set_mode(Mode::User),
                4 if !in_block => {
                    b.begin_block_zero(Addr(arg & !7), (arg % 512) * 8 + 8, DataClass::PageFrame);
                    in_block = true;
                }
                5 if in_block => {
                    b.end_block_op();
                    in_block = false;
                }
                _ => b.idle(arg % 100 + 1),
            }
        }
        if in_block {
            b.end_block_op();
        }
        let s = b.finish();
        // Brackets balance and never nest.
        let mut depth = 0i32;
        let mut last_mode: Option<Mode> = None;
        for e in &s {
            match e {
                Event::BlockOpBegin { .. } => {
                    depth += 1;
                    assert_eq!(depth, 1);
                }
                Event::BlockOpEnd => {
                    depth -= 1;
                    assert_eq!(depth, 0);
                }
                Event::SetMode { mode } => {
                    assert_ne!(Some(mode), last_mode, "redundant mode switch");
                    last_mode = Some(mode);
                }
                _ => {}
            }
        }
        assert_eq!(depth, 0);
    }
}

/// Read/write counts match the events emitted.
#[test]
fn read_write_counts_are_exact() {
    let mut rng = SmallRng::seed_from_u64(0xD00D);
    for _ in 0..CASES {
        let reads = rng.gen_range(0..100usize);
        let writes = rng.gen_range(0..100usize);
        let mut b = StreamBuilder::new();
        for k in 0..reads {
            b.read(Addr(k as u32 * 4), DataClass::UserData);
        }
        for k in 0..writes {
            b.write(Addr(k as u32 * 4), DataClass::UserData);
        }
        let s = b.finish();
        assert_eq!(s.iter().filter(Event::is_read).count(), reads);
        assert_eq!(s.iter().filter(Event::is_write).count(), writes);
        assert_eq!(s.len(), reads + writes);
    }
}

/// Zero block ops always have `src == dst` and a positive length.
#[test]
fn zero_ops_are_well_formed() {
    let mut rng = SmallRng::seed_from_u64(0xE66);
    for _ in 0..CASES {
        let dst = rng.gen_range(0..1_000_000u32);
        let len = rng.gen_range(1..8192u32);
        let mut b = StreamBuilder::new();
        b.begin_block_zero(Addr(dst), len, DataClass::PageFrame);
        b.end_block_op();
        match b.finish().iter().next().unwrap() {
            Event::BlockOpBegin { op } => {
                assert_eq!(op.kind, BlockKind::Zero);
                assert_eq!(op.src, op.dst);
                assert!(op.len > 0);
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}

/// Every builder-produced stream passes `ChunkedTrace::validate`, and a
/// serialization round-trip through `write_trace`/`read_trace` (which also
/// validates) preserves it.
#[test]
fn random_builder_streams_validate_and_roundtrip() {
    use oscache_trace::{read_trace, write_trace, ChunkedTrace, TraceMeta};
    let mut rng = SmallRng::seed_from_u64(0xF00F);
    for _ in 0..64 {
        let mut meta = TraceMeta::default();
        let site = meta.code.add_site("p", false);
        let bb = meta.code.add_block(Addr(0x100), 3, site);
        let mut b = StreamBuilder::new();
        b.set_mode(Mode::Os);
        for _ in 0..rng.gen_range(0..200usize) {
            match rng.gen_range(0..4u32) {
                0 => b.exec(bb),
                1 => b.read(
                    Addr(rng.gen_range(0..1_000_000u32) & !3),
                    DataClass::KernelOther,
                ),
                2 => b.write(
                    Addr(rng.gen_range(0..1_000_000u32) & !3),
                    DataClass::KernelOther,
                ),
                _ => b.idle(rng.gen_range(1..50u32)),
            }
        }
        let mut t = ChunkedTrace::new(1, meta);
        t.streams[0] = b.finish();
        assert_eq!(t.validate(), Ok(()));
        let mut buf = Vec::new();
        write_trace(&t, &mut buf).unwrap();
        let back = read_trace(&buf[..]).unwrap();
        assert!(back.streams[0].iter().eq(t.streams[0].iter()));
    }
}
