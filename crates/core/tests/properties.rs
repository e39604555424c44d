//! Property-style tests of the analysis and transform passes, driven by
//! the in-tree deterministic PRNG so every failure reproduces exactly.

use oscache_core::transform::{build_hotspot_plan, RelocationMap, TransformPipeline};
use oscache_trace::rng::{Rng, SmallRng};
use oscache_trace::{Addr, ChunkedTrace, DataClass, Event, Mode, StreamBuilder, TraceMeta};

const SEEDS: std::ops::Range<u64> = 0..24;

fn random_refs(rng: &mut SmallRng, max_addr: u32, max_len: usize) -> Vec<(u32, bool)> {
    let n = rng.gen_range(1..max_len);
    (0..n)
        .map(|_| (rng.gen_range(0..max_addr), rng.gen_bool(0.5)))
        .collect()
}

fn random_trace(refs: &[(u32, bool)]) -> ChunkedTrace {
    let mut meta = TraceMeta::default();
    let site = meta.code.add_site("s", false);
    let bb = meta.code.add_block(Addr(0x100), 4, site);
    let mut t = ChunkedTrace::new(2, meta);
    for cpu in 0..2 {
        let mut b = StreamBuilder::new();
        b.set_mode(Mode::Os);
        for (k, (addr, is_write)) in refs.iter().enumerate() {
            if k % 3 == 0 {
                b.exec(bb);
            }
            let a = Addr(0x0100_0000 + (addr & !3) % 65536);
            if *is_write {
                b.write(a, DataClass::KernelOther);
            } else {
                b.read(a, DataClass::KernelOther);
            }
        }
        t.streams[cpu] = b.finish();
    }
    t
}

/// Relocation with an empty map is the identity.
#[test]
fn empty_relocation_is_identity() {
    for seed in SEEDS {
        let mut rng = SmallRng::seed_from_u64(seed);
        let t = random_trace(&random_refs(&mut rng, u32::MAX, 100));
        let empty = RelocationMap::new();
        let out = TransformPipeline::new().relocate(&empty).run(&t);
        for cpu in 0..2 {
            assert!(out.streams[cpu].iter().eq(t.streams[cpu].iter()));
        }
    }
}

/// Relocation preserves event counts and only rewrites covered addresses,
/// bijectively within a range.
#[test]
fn relocation_is_structure_preserving() {
    for seed in SEEDS {
        let mut rng = SmallRng::seed_from_u64(seed);
        let t = random_trace(&random_refs(&mut rng, 4096, 150));
        let start = rng.gen_range(0u32..2048);
        let len = rng.gen_range(4u32..512);
        let mut m = RelocationMap::new();
        let old = Addr(0x0100_0000 + start * 4);
        let new = Addr(0x0900_0000);
        m.add(old, len, new);
        let out = TransformPipeline::new().relocate(&m).run(&t);
        for cpu in 0..2 {
            assert_eq!(out.streams[cpu].len(), t.streams[cpu].len());
            for (a, b) in t.streams[cpu].iter().zip(out.streams[cpu].iter()) {
                match (a.data_addr(), b.data_addr()) {
                    (Some(x), Some(y)) => {
                        if x.0 >= old.0 && x.0 < old.0 + len {
                            assert_eq!(y.0, new.0 + (x.0 - old.0));
                        } else {
                            assert_eq!(x, y);
                        }
                    }
                    (None, None) => {}
                    _ => panic!("event kind changed"),
                }
            }
        }
    }
}

/// Privatization removes every reference to the target words and keeps
/// per-CPU copies in distinct cache lines.
#[test]
fn privatization_removes_shared_addresses() {
    for seed in SEEDS {
        let mut rng = SmallRng::seed_from_u64(seed);
        let n_updates = rng.gen_range(1usize..40);
        let n_lone_reads = rng.gen_range(0usize..5);
        let target = Addr(0x0100_0000);
        let mut meta = TraceMeta::default();
        let site = meta.code.add_site("s", false);
        let _bb = meta.code.add_block(Addr(0x100), 4, site);
        let mut t = ChunkedTrace::new(2, meta);
        for cpu in 0..2 {
            let mut b = StreamBuilder::new();
            for _ in 0..n_updates {
                b.rmw(target, DataClass::InfreqCounter);
            }
            for _ in 0..n_lone_reads {
                b.read(target, DataClass::InfreqCounter);
            }
            t.streams[cpu] = b.finish();
        }
        let out = TransformPipeline::new().privatize(&[target]).run(&t);
        let mut private_addrs = std::collections::HashSet::new();
        for cpu in 0..2 {
            for e in out.streams[cpu].iter() {
                if let Some(a) = e.data_addr() {
                    assert_ne!(a, target, "shared counter survived");
                    private_addrs.insert(a.line(64));
                }
            }
            // updates unchanged in count: each rmw is still read+write
            let s = &out.streams[cpu];
            assert_eq!(
                s.iter().filter(Event::is_write).count(),
                n_updates,
                "updates must stay per-cpu"
            );
            // each lone read expands into one read per CPU
            assert_eq!(
                s.iter().filter(Event::is_read).count(),
                n_updates + n_lone_reads * 2
            );
        }
        // the two CPUs' copies are in different 64-byte lines
        assert!(private_addrs.len() >= 2 || n_updates == 0);
    }
}

/// Hot-spot prefetch insertion only ever adds `Prefetch` events.
#[test]
fn prefetch_insertion_is_additive() {
    for seed in SEEDS {
        let mut rng = SmallRng::seed_from_u64(seed);
        let t = random_trace(&random_refs(&mut rng, 4096, 150));
        let out = oscache_oracle::merged_trace(&t, &build_hotspot_plan(&t), &[0]);
        for cpu in 0..2 {
            let orig: Vec<Event> = t.streams[cpu].iter().collect();
            let kept: Vec<Event> = out.streams[cpu]
                .iter()
                .filter(|e| !matches!(e, Event::Prefetch { .. }))
                .collect();
            assert_eq!(orig.len(), kept.len());
            for (a, b) in orig.iter().zip(&kept) {
                assert_eq!(*a, *b);
            }
        }
    }
}

/// Deferred copying never removes more events than the read-only copies'
/// footprints, and leaves a trace the machine can replay.
#[test]
fn deferred_copy_is_safe_on_random_copy_chains() {
    use oscache_core::deferred::analyze;
    let mut deferred = oscache_core::System::Base.spec();
    deferred.deferred_copy = true;
    for seed in SEEDS {
        let mut rng = SmallRng::seed_from_u64(seed);
        let lens: Vec<u32> = (0..rng.gen_range(1usize..10))
            .map(|_| rng.gen_range(8u32..256))
            .collect();
        let reread = rng.gen_bool(0.5);
        let mut meta = TraceMeta::default();
        let site = meta.code.add_site("s", false);
        let _bb = meta.code.add_block(Addr(0x100), 4, site);
        let mut t = ChunkedTrace::new(1, meta);
        let mut b = StreamBuilder::new();
        b.set_mode(Mode::Os);
        for (k, len) in lens.iter().enumerate() {
            let len = len * 8;
            let src = Addr(0x1000_0000 + (k as u32) * 0x10000);
            let dst = Addr(0x2000_0000 + (k as u32) * 0x10000);
            b.begin_block_copy(src, dst, len, DataClass::BufferCache, DataClass::UserData);
            let mut off = 0;
            while off < len {
                b.read(src.offset(off), DataClass::BufferCache);
                b.write(dst.offset(off), DataClass::UserData);
                off += 8;
            }
            b.end_block_op();
            if reread {
                b.read(dst, DataClass::UserData);
            }
        }
        t.streams[0] = b.finish();
        let counts = analyze(&t);
        assert_eq!(counts.small_copies as usize, lens.len());
        let out = oscache_core::analyze_cell(&t, deferred)
            .trace
            .expect("deferral rewrites the trace");
        // All copies are read-only (no later writes): every bracket goes.
        let remaining = out.streams[0]
            .iter()
            .filter(|e| matches!(e, Event::BlockOpBegin { .. }))
            .count();
        assert_eq!(remaining, 0);
        // Replay must not panic and must account time.
        let mut t4 = ChunkedTrace::new(4, out.meta.clone());
        t4.streams[0] = out.streams[0].clone();
        let cfg =
            oscache_memsys::MachineConfig::base().with_audit(oscache_memsys::AuditLevel::Strict);
        let s = oscache_memsys::Machine::new(cfg, &t4)
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(s.cpus[0].accounted_cycles(), s.cpu_times[0]);
    }
}
