//! Property-style tests of the memory-system invariants, driven by the
//! in-tree deterministic PRNG (`oscache_trace::rng`). Each test replays a
//! fixed set of seeds so failures reproduce exactly.

use oscache_memsys::faults::FaultKind;
use oscache_memsys::{
    AuditLevel, BlockOpScheme, Bus, BusOp, Cache, CacheGeom, CpuStats, LineState, Machine,
    MachineConfig, MissKind, MshrSet, PrefetchBuffer, SimStats, WriteBuffer,
};
use oscache_trace::rng::{Rng, SmallRng};
use oscache_trace::{
    Addr, ChunkedTrace, DataClass, LineAddr, LockId, Mode, StreamBuilder, TraceMeta,
};

use std::collections::HashMap;

const SEEDS: std::ops::Range<u64> = 0..24;

fn small_geom(rng: &mut SmallRng) -> CacheGeom {
    loop {
        let size_log = rng.gen_range(5u32..9);
        let line_log = rng.gen_range(2u32..7);
        if line_log <= size_log {
            return CacheGeom::new(1 << size_log, 1 << line_log);
        }
    }
}

/// A cache never holds more valid lines than it has frames.
#[test]
fn cache_occupancy_is_bounded() {
    for seed in SEEDS {
        let mut rng = SmallRng::seed_from_u64(seed);
        let geom = small_geom(&mut rng);
        let mut c = Cache::new(geom);
        for _ in 0..200 {
            let line = Addr(rng.gen_range(0u32..4096)).line(geom.line);
            match rng.gen_range(0u32..3) {
                0 => {
                    c.fill(line, LineState::Shared, DataClass::UserData, false);
                }
                1 => {
                    c.fill(line, LineState::Modified, DataClass::UserData, true);
                }
                _ => {
                    c.invalidate(line);
                }
            }
            assert!(c.valid_count() <= geom.n_lines() as usize, "seed {seed}");
        }
    }
}

/// After filling a line it is always resident; after invalidating it, never.
#[test]
fn cache_fill_then_contains() {
    for seed in SEEDS {
        let mut rng = SmallRng::seed_from_u64(seed);
        let geom = small_geom(&mut rng);
        let mut c = Cache::new(geom);
        let line = Addr(rng.gen_range(0u32..65536)).line(geom.line);
        c.fill(line, LineState::Exclusive, DataClass::PageTable, false);
        assert!(c.contains(line));
        assert_eq!(c.state(line), LineState::Exclusive);
        c.invalidate(line);
        assert!(!c.contains(line));
    }
}

/// The write buffer frees a slot after a stall and drains FIFO.
#[test]
fn write_buffer_respects_depth() {
    for seed in SEEDS {
        let mut rng = SmallRng::seed_from_u64(seed);
        let depth = rng.gen_range(1usize..8);
        let mut wb = WriteBuffer::new(depth);
        let mut now = 0u64;
        let mut last_complete = 0u64;
        for _ in 0..100 {
            let key = rng.gen_range(0u32..64);
            let dt = rng.gen_range(1u64..100);
            now += wb.stall_for_slot(now);
            wb.drain(now);
            assert!(wb.len() < depth, "stall_for_slot must free a slot");
            last_complete = last_complete.max(now) + dt;
            wb.push(key, last_complete);
            now += 1;
        }
    }
}

/// Bus grants are monotone: a later request is never granted earlier than
/// an earlier one.
#[test]
fn bus_grants_are_monotone() {
    for seed in SEEDS {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut bus = Bus::new();
        let mut now = 0u64;
        let mut last_grant = 0u64;
        for _ in 0..100 {
            now += rng.gen_range(0u64..50);
            let occ = rng.gen_range(1u64..40);
            let g = bus.acquire(now, occ, BusOp::ReadLine);
            assert!(g >= last_grant, "grant went backwards");
            assert!(g >= now);
            last_grant = g;
        }
        assert_eq!(bus.stats().read_lines, bus.stats().transactions());
    }
}

/// MSHRs never track more than their capacity.
#[test]
fn mshr_capacity_holds() {
    for seed in SEEDS {
        let mut rng = SmallRng::seed_from_u64(seed);
        let cap = rng.gen_range(1usize..8);
        let mut m = MshrSet::new(cap);
        let mut now = 0u64;
        for _ in 0..100 {
            now += 1;
            let line = rng.gen_range(0u32..256);
            let ready_dt = rng.gen_range(1u64..60);
            let _ = m.insert(now, LineAddr(line * 16), now + ready_dt);
            assert!(m.in_flight(now) <= cap);
        }
    }
}

/// The prefetch buffer is a strict FIFO of bounded capacity.
#[test]
fn pbuf_capacity_holds() {
    for seed in SEEDS {
        let mut rng = SmallRng::seed_from_u64(seed);
        let cap = rng.gen_range(1usize..8);
        let mut p = PrefetchBuffer::new(cap);
        for t in 0..100u64 {
            p.insert(LineAddr(rng.gen_range(0u32..64) * 16), t);
            assert!(p.len() <= cap);
        }
    }
}

/// Replaying any random (single-CPU, unsynchronized) trace never panics,
/// accounts every cycle, and is deterministic — with the strict auditor on.
#[test]
fn machine_accounts_all_cycles() {
    for seed in SEEDS {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut meta = TraceMeta::default();
        let site = meta.code.add_site("p", false);
        let bb = meta.code.add_block(Addr(0x100), 3, site);
        let mut b = StreamBuilder::new();
        b.set_mode(Mode::Os);
        b.idle(rng.gen_range(0u32..1000));
        for _ in 0..rng.gen_range(1usize..300) {
            b.set_mode(if rng.gen_bool(0.5) {
                Mode::Os
            } else {
                Mode::User
            });
            b.exec(bb);
            let a = Addr(0x0100_0000 + (rng.gen_range(0u32..200_000) & !3));
            if rng.gen_bool(0.5) {
                b.write(a, DataClass::KernelOther);
            } else {
                b.read(a, DataClass::KernelOther);
            }
        }
        let mut t = ChunkedTrace::new(4, meta);
        t.streams[0] = b.finish();

        let cfg = MachineConfig::base().with_audit(AuditLevel::Strict);
        let s1 = Machine::new(cfg.clone(), &t).unwrap().run().unwrap();
        let s2 = Machine::new(cfg, &t).unwrap().run().unwrap();
        // deterministic
        assert_eq!(s1.cpu_times, s2.cpu_times);
        assert_eq!(
            s1.total().l1d_read_misses.total(),
            s2.total().l1d_read_misses.total()
        );
        // every cycle accounted
        for (i, c) in s1.cpus.iter().enumerate() {
            assert_eq!(c.accounted_cycles(), s1.cpu_times[i], "seed {seed} cpu {i}");
        }
        // misses never exceed reads
        let tot = s1.total();
        assert!(tot.l1d_read_misses.total() <= tot.dreads.total());
    }
}

/// Block operations under every scheme preserve the accounting invariant
/// and pass the strict audit.
#[test]
fn block_ops_account_under_every_scheme() {
    use BlockOpScheme::*;
    for seed in SEEDS {
        let mut rng = SmallRng::seed_from_u64(seed);
        let scheme = [Cached, Pref, Bypass, ByPref, Dma][rng.gen_range(0usize..5)];
        let len = rng.gen_range(1u32..200) * 8;
        let mut meta = TraceMeta::default();
        let site = meta.code.add_site("p", true);
        let bb = meta.code.add_block(Addr(0x100), 4, site);
        let mut b = StreamBuilder::new();
        b.set_mode(Mode::Os);
        b.begin_block_copy(
            Addr(0x1000_0000),
            Addr(0x1203_4000),
            len,
            DataClass::PageFrame,
            DataClass::PageFrame,
        );
        let mut off = 0;
        while off < len {
            b.exec(bb);
            b.read(Addr(0x1000_0000 + off), DataClass::PageFrame);
            b.write(Addr(0x1203_4000 + off), DataClass::PageFrame);
            off += 8;
        }
        b.end_block_op();
        let mut t = ChunkedTrace::new(4, meta);
        t.streams[0] = b.finish();
        let cfg = MachineConfig::base()
            .with_block_scheme(scheme)
            .with_audit(AuditLevel::Strict);
        let s = Machine::new(cfg, &t).unwrap().run().unwrap();
        assert_eq!(s.cpus[0].accounted_cycles(), s.cpu_times[0], "seed {seed}");
        assert_eq!(s.total().blk_ops, 1);
    }
}

/// Builds a random valid multi-CPU trace with sharing, locks, and block
/// operations — the full event vocabulary.
fn random_valid_trace(rng: &mut SmallRng) -> ChunkedTrace {
    let n_cpus = 4;
    let mut meta = TraceMeta::default();
    let site = meta.code.add_site("rv", true);
    let bb = meta.code.add_block(Addr(0x2000), 4, site);
    let mut t = ChunkedTrace::new(n_cpus, meta);
    for cpu in 0..n_cpus {
        let mut b = StreamBuilder::new();
        b.set_mode(Mode::Os);
        for _ in 0..rng.gen_range(5usize..60) {
            match rng.gen_range(0u32..10) {
                0..=3 => {
                    b.exec(bb);
                    // Shared pool so CPUs actually contend on lines.
                    let a = Addr((0x0300_0000 + rng.gen_range(0u32..0x4000)) & !3);
                    if rng.gen_bool(0.4) {
                        b.write(a, DataClass::RunQueue);
                    } else {
                        b.read(a, DataClass::RunQueue);
                    }
                }
                4..=5 => {
                    let a =
                        Addr(0x0400_0000 + cpu as u32 * 0x10_0000 + rng.gen_range(0u32..0x2000));
                    b.read(a, DataClass::ProcTable);
                }
                6 => {
                    let lock = rng.gen_range(0u32..3);
                    b.lock_acquire(LockId(lock as u16), Addr(0x0500_0000 + lock * 64));
                    b.write(Addr(0x0300_0000), DataClass::RunQueue);
                    b.lock_release(LockId(lock as u16), Addr(0x0500_0000 + lock * 64));
                }
                7 => {
                    let base = Addr(0x0600_0000 + rng.gen_range(0u32..8) * 0x1000);
                    let len = rng.gen_range(1u32..16) * 32;
                    b.begin_block_zero(base, len, DataClass::PageFrame);
                    let mut off = 0;
                    while off < len {
                        b.write(base.offset(off), DataClass::PageFrame);
                        off += 8;
                    }
                    b.end_block_op();
                }
                8 => b.idle(rng.gen_range(1u32..40)),
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

/// Random valid multi-CPU traces replay cleanly under every block-op scheme
/// at the strictest audit level: `run` returns `Ok` with zero invariant
/// violations.
#[test]
fn random_traces_pass_strict_audit_under_every_scheme() {
    use BlockOpScheme::*;
    for seed in SEEDS {
        let mut rng = SmallRng::seed_from_u64(0xA5A5_0000 ^ seed);
        let t = random_valid_trace(&mut rng);
        t.validate().expect("generator must emit valid traces");
        for scheme in [Cached, Pref, Bypass, ByPref, Dma] {
            let cfg = MachineConfig::base()
                .with_block_scheme(scheme)
                .with_audit(AuditLevel::Strict);
            let r = Machine::new(cfg, &t).unwrap().run();
            assert!(r.is_ok(), "seed {seed} {scheme:?}: {:?}", r.err());
        }
    }
}

/// The fault-injection contract: every fault class, over many seeds, either
/// fails validation with a typed error or replays to completion (possibly
/// with a typed simulation error) — never a panic, and never an invariant
/// violation that the auditor misses but the machine trips over.
#[test]
fn injected_faults_are_rejected_or_survived() {
    for kind in FaultKind::ALL {
        for seed in SEEDS {
            let mut rng = SmallRng::seed_from_u64(0xFA17_0000 ^ seed);
            let t = random_valid_trace(&mut rng);
            let bad = oscache_memsys::faults::inject(&t, kind, seed);
            if bad.validate_for_cpus(4).is_err() {
                // Rejected up front with a typed error; Machine::new must
                // agree and also reject.
                let cfg = MachineConfig::base().with_audit(AuditLevel::Strict);
                assert!(
                    Machine::new(cfg, &bad).is_err(),
                    "{kind:?} seed {seed}: validate/new disagree"
                );
                continue;
            }
            // Slipped past validation (e.g. a bit-flip that still forms a
            // valid trace): the replay must finish with a typed result.
            let cfg = MachineConfig::base().with_audit(AuditLevel::Strict);
            let r = Machine::new(cfg, &bad).unwrap().run();
            match r {
                Ok(_) | Err(_) => {} // both fine; the point is no panic
            }
        }
    }
}

/// Reference model for a set-associative LRU cache, used as an oracle.
#[derive(Default)]
struct ModelCache {
    sets: std::collections::HashMap<u32, Vec<u32>>, // set -> lines, LRU order (front = oldest)
}

impl ModelCache {
    fn access(&mut self, geom: CacheGeom, line: u32) -> bool {
        let set = geom.set_of(line);
        let ways = geom.ways as usize;
        let v = self.sets.entry(set).or_default();
        if let Some(pos) = v.iter().position(|&l| l == line) {
            v.remove(pos);
            v.push(line);
            true
        } else {
            if v.len() == ways {
                v.remove(0);
            }
            v.push(line);
            false
        }
    }
}

/// The cache agrees with a straightforward LRU model on every access.
#[test]
fn cache_matches_lru_oracle() {
    for seed in SEEDS {
        let mut rng = SmallRng::seed_from_u64(seed);
        let geom = CacheGeom::new_assoc(1024, 16, 1 << rng.gen_range(0u32..3));
        let mut cache = Cache::new(geom);
        let mut model = ModelCache::default();
        for _ in 0..400 {
            let line = Addr(rng.gen_range(0u32..2048) * 16).line(16);
            let model_hit = model.access(geom, line.0);
            let cache_hit = cache.contains(line);
            assert_eq!(cache_hit, model_hit, "divergence at line {:x}", line.0);
            if cache_hit {
                cache.touch(line);
            } else {
                cache.fill(line, LineState::Shared, DataClass::UserData, false);
            }
        }
    }
}

/// A hash map's entries in key order.
fn sorted<K: Copy + Ord>(m: &HashMap<K, u64>) -> Vec<(K, u64)> {
    let mut v: Vec<_> = m.iter().map(|(&k, &n)| (k, n)).collect();
    v.sort_unstable();
    v
}

/// The hash-map sums the per-structure counters are checked against.
#[derive(Default)]
struct CountsReference {
    classes: HashMap<DataClass, u64>,
    locks: HashMap<u16, u64>,
    pairs: HashMap<(DataClass, DataClass), u64>,
}

impl CountsReference {
    fn assert_matches(&self, t: &CpuStats, what: &str) {
        for &class in DataClass::all() {
            let want = self.classes.get(&class).copied().unwrap_or(0);
            assert_eq!(t.os_miss_by_class[class as usize], want, "{what}: {class}");
        }
        assert_eq!(t.lock_wait_cycles.entries(), sorted(&self.locks), "{what}");
        assert_eq!(t.conflict_pairs.entries(), sorted(&self.pairs), "{what}");
    }
}

/// Summing the per-CPU class table, lock waits and conflict pairs with
/// `CpuStats::merge` and `SimStats::total` gives what hash maps summing
/// the same counts give: every class, pairs in both orders, and lock
/// entries whose wait is 0 (a waiter released at its own clock).
#[test]
fn stats_merge_matches_a_hash_map_reference() {
    let classes = DataClass::all();
    for seed in SEEDS {
        let mut rng = SmallRng::seed_from_u64(seed);
        let n_cpus = rng.gen_range(1..9usize);
        let mut cpus = vec![CpuStats::default(); n_cpus];
        let mut reference = CountsReference::default();
        // Every class is counted at least once, on some CPU.
        let counted = classes
            .iter()
            .copied()
            .chain(
                (0..rng.gen_range(0..200usize)).map(|_| classes[rng.gen_range(0..classes.len())]),
            )
            .collect::<Vec<_>>();
        for class in counted {
            let site = rng.gen_range(0..16u32) as u16;
            cpus[rng.gen_range(0..n_cpus)].count_os_miss(MissKind::Other, site, class);
            *reference.classes.entry(class).or_insert(0) += 1;
        }
        for _ in 0..rng.gen_range(0..40usize) {
            let lock = rng.gen_range(0..24u32) as u16;
            let wait = if rng.gen_bool(0.3) {
                0
            } else {
                rng.gen_range(1..5_000u64)
            };
            cpus[rng.gen_range(0..n_cpus)]
                .lock_wait_cycles
                .add(lock, wait);
            *reference.locks.entry(lock).or_insert(0) += wait;
        }
        for _ in 0..rng.gen_range(0..60usize) {
            let a = classes[rng.gen_range(0..classes.len())];
            let b = classes[rng.gen_range(0..classes.len())];
            let n = rng.gen_range(1..100u64);
            // Half the pairs also occur the other way round.
            let both = rng.gen_bool(0.5);
            for (pair, n) in [((a, b), n), ((b, a), n + 1)]
                .into_iter()
                .take(1 + usize::from(both))
            {
                cpus[rng.gen_range(0..n_cpus)].conflict_pairs.add(pair, n);
                *reference.pairs.entry(pair).or_insert(0) += n;
            }
        }
        let stats = SimStats {
            cpus,
            ..Default::default()
        };
        reference.assert_matches(&stats.total(), &format!("seed {seed}: total"));
        // Merging in the other order gives the same sums.
        let mut reversed = CpuStats::default();
        for c in stats.cpus.iter().rev() {
            reversed.merge(c);
        }
        reference.assert_matches(&reversed, &format!("seed {seed}: reversed merge"));
    }
}
