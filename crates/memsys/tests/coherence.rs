//! Protocol-level tests: Illinois MESI transitions, Firefly updates,
//! inclusion, write-back traffic, and forwarding behaviour observed
//! through the machine's counters.

use oscache_memsys::{BlockOpScheme, Machine, MachineConfig, SimStats};
use oscache_trace::{
    Addr, ChunkedStream, ChunkedTrace, DataClass, Event, LockId, Mode, StreamBuilder, TraceMeta,
    CHUNK_EVENTS,
};

fn meta() -> TraceMeta {
    let mut meta = TraceMeta::default();
    let site = meta.code.add_site("t", false);
    meta.code.add_block(Addr(0x1000), 4, site);
    meta
}

fn run(t: &ChunkedTrace) -> SimStats {
    Machine::new(MachineConfig::base(), t)
        .unwrap()
        .run()
        .unwrap()
}

/// Serialize two CPUs with a lock: `first` runs its closure strictly
/// before `second` (enforced by lock + idle ordering).
fn two_phase(
    first: impl FnOnce(&mut StreamBuilder),
    second: impl FnOnce(&mut StreamBuilder),
) -> ChunkedTrace {
    let lock = LockId(9);
    let la = Addr(0x0100_0300);
    let mut t = ChunkedTrace::new(4, meta());
    let mut b0 = StreamBuilder::new();
    b0.set_mode(Mode::Os);
    b0.lock_acquire(lock, la);
    first(&mut b0);
    b0.lock_release(lock, la);
    t.streams[0] = b0.finish();
    let mut b1 = StreamBuilder::new();
    b1.set_mode(Mode::Os);
    b1.idle(5); // ensure CPU0 wins the first acquisition
    b1.lock_acquire(lock, la);
    second(&mut b1);
    b1.lock_release(lock, la);
    t.streams[1] = b1.finish();
    t
}

const D: Addr = Addr(0x0200_0000);

#[test]
fn illinois_grants_exclusive_without_sharers() {
    // A lone reader then a write: Exclusive→Modified needs no bus
    // invalidation, so the only transactions are the line fills.
    let mut t = ChunkedTrace::new(4, meta());
    let mut b = StreamBuilder::new();
    b.set_mode(Mode::Os);
    b.read(D, DataClass::KernelOther);
    b.write(D, DataClass::KernelOther);
    t.streams[0] = b.finish();
    let s = run(&t);
    assert_eq!(s.bus.invalidations, 0, "E→M must be silent");
    assert_eq!(s.bus.read_lines, 1);
}

#[test]
fn shared_write_sends_one_invalidation() {
    let t = two_phase(
        |b| {
            b.read(D, DataClass::FreqShared);
        },
        |b| {
            b.read(D, DataClass::FreqShared); // both cached, Shared
            b.write(D, DataClass::FreqShared); // upgrade
        },
    );
    let s = run(&t);
    // Two upgrades: the lock word's S→M during CPU1's test-and-set, and
    // the data line's S→M. Each costs exactly one invalidation signal.
    assert_eq!(s.bus.invalidations, 2, "each S→M must signal exactly once");
}

#[test]
fn write_miss_uses_read_exclusive() {
    let mut t = ChunkedTrace::new(4, meta());
    let mut b = StreamBuilder::new();
    b.set_mode(Mode::Os);
    b.write(D, DataClass::KernelOther);
    t.streams[0] = b.finish();
    let s = run(&t);
    assert_eq!(s.bus.read_exclusive, 1);
    assert_eq!(s.bus.read_lines, 0);
}

#[test]
fn dirty_eviction_writes_back() {
    let mut t = ChunkedTrace::new(4, meta());
    let mut b = StreamBuilder::new();
    b.set_mode(Mode::Os);
    b.write(D, DataClass::KernelOther); // M in L2
                                        // Conflict the L2 frame (256 KB apart) with enough fills to evict it.
    b.read(D.offset(256 * 1024), DataClass::KernelOther);
    t.streams[0] = b.finish();
    let s = run(&t);
    assert_eq!(s.bus.write_backs, 1, "dirty victim must be written back");
}

#[test]
fn inclusion_l2_eviction_kills_l1_copy() {
    let mut t = ChunkedTrace::new(4, meta());
    let mut b = StreamBuilder::new();
    b.set_mode(Mode::Os);
    b.read(D, DataClass::KernelOther); // L1 + L2
    b.read(D.offset(256 * 1024), DataClass::KernelOther); // evicts D from L2
    b.read(D, DataClass::KernelOther); // must MISS again (inclusion)
    t.streams[0] = b.finish();
    let s = run(&t);
    assert_eq!(s.cpus[0].l1d_read_misses.os, 3);
}

#[test]
fn firefly_update_keeps_remote_copies_valid() {
    let mk = |update: bool| {
        let t = two_phase(
            |b| {
                b.read(D, DataClass::FreqShared);
            },
            |b| {
                b.read(D, DataClass::FreqShared);
                b.write(D, DataClass::FreqShared);
            },
        );
        let mut cfg = MachineConfig::base();
        if update {
            cfg.update_pages.insert(D.page());
        }
        // CPU0 re-reads after CPU1's write.
        let mut t2 = t;
        let mut extra = StreamBuilder::new();
        extra.set_mode(Mode::Os);
        extra.idle(500_000);
        extra.read(D, DataClass::FreqShared);
        let mut evs: Vec<Event> = t2.streams[0].iter().collect();
        evs.extend(&extra.finish());
        t2.streams[0] = ChunkedStream::from_events(evs, CHUNK_EVENTS);
        Machine::new(cfg, &t2).unwrap().run().unwrap()
    };
    let inval = mk(false);
    let upd = mk(true);
    // Under invalidation the re-read misses; under updates it hits.
    assert!(inval.cpus[0].l1d_read_misses.os > upd.cpus[0].l1d_read_misses.os);
    assert!(upd.bus.update_words >= 1);
}

#[test]
fn firefly_stops_broadcasting_without_sharers() {
    // CPU0 writes a line on an update page that no other cache holds:
    // after the first write detects zero sharers the line turns Modified
    // and subsequent writes stay local.
    let mut cfg = MachineConfig::base();
    cfg.update_pages.insert(D.page());
    let mut t = ChunkedTrace::new(4, meta());
    let mut b = StreamBuilder::new();
    b.set_mode(Mode::Os);
    b.read(D, DataClass::FreqShared);
    for _ in 0..10 {
        b.write(D, DataClass::FreqShared);
    }
    t.streams[0] = b.finish();
    let s = Machine::new(cfg, &t).unwrap().run().unwrap();
    assert_eq!(s.bus.update_words, 0, "no sharers -> no broadcasts");
}

#[test]
fn read_forwards_from_pending_write() {
    // A read that immediately follows a write to the same word must not
    // count as a miss (forwarded from the write buffer).
    let mut t = ChunkedTrace::new(4, meta());
    let mut b = StreamBuilder::new();
    b.set_mode(Mode::Os);
    b.write(D, DataClass::KernelOther);
    b.read(D, DataClass::KernelOther);
    t.streams[0] = b.finish();
    let s = run(&t);
    assert_eq!(s.cpus[0].l1d_read_misses.os, 0, "{:?}", s.cpus[0]);
}

#[test]
fn dma_zero_op_touches_no_source() {
    let mut t = ChunkedTrace::new(4, meta());
    let mut b = StreamBuilder::new();
    b.set_mode(Mode::Os);
    b.begin_block_zero(Addr(0x1000_0000), 4096, DataClass::PageFrame);
    let mut off = 0;
    while off < 4096 {
        b.write(Addr(0x1000_0000 + off), DataClass::PageFrame);
        off += 8;
    }
    b.end_block_op();
    t.streams[0] = b.finish();
    let cfg = MachineConfig::base().with_block_scheme(BlockOpScheme::Dma);
    let s = Machine::new(cfg, &t).unwrap().run().unwrap();
    assert_eq!(s.bus.dma_transfers, 1);
    assert_eq!(s.total().dreads.total(), 0);
    assert_eq!(s.total().os_miss_blockop, 0);
    // The whole-page transfer holds the bus at least 19 + 4096/8*2*5 cycles.
    assert!(s.bus.busy_cycles >= 19 + 4096 / 8 * 2 * 5);
}

#[test]
fn dma_updates_cached_destination_copies() {
    // CPU1 caches a destination line; a DMA copy into it must leave CPU1's
    // copy valid (snooped update), so CPU1's re-read hits.
    let src = Addr(0x1000_0000);
    let dst = Addr(0x1103_4000);
    let mut t = ChunkedTrace::new(4, meta());
    let mut b1 = StreamBuilder::new();
    b1.set_mode(Mode::Os);
    b1.read(dst, DataClass::PageFrame);
    t.streams[1] = b1.finish();
    let mut b0 = StreamBuilder::new();
    b0.set_mode(Mode::Os);
    b0.idle(1000); // let CPU1 cache it first
    b0.begin_block_copy(src, dst, 4096, DataClass::PageFrame, DataClass::PageFrame);
    let mut off = 0;
    while off < 4096 {
        b0.read(src.offset(off), DataClass::PageFrame);
        b0.write(dst.offset(off), DataClass::PageFrame);
        off += 8;
    }
    b0.end_block_op();
    t.streams[0] = b0.finish();
    // CPU1 re-reads its line well after the DMA.
    let mut evs: Vec<Event> = t.streams[1].iter().collect();
    let mut more = StreamBuilder::new();
    more.set_mode(Mode::Os);
    more.idle(500_000);
    more.read(dst, DataClass::PageFrame);
    evs.extend(&more.finish());
    t.streams[1] = ChunkedStream::from_events(evs, CHUNK_EVENTS);

    let cfg = MachineConfig::base().with_block_scheme(BlockOpScheme::Dma);
    let s = Machine::new(cfg, &t).unwrap().run().unwrap();
    // One initial cold miss only: the DMA updated the cached copy in place.
    assert_eq!(s.cpus[1].l1d_read_misses.os, 1, "{:?}", s.cpus[1]);
}

#[test]
fn bus_contention_delays_everyone() {
    // One CPU streaming misses uses 40% of the bus (20 of every ~50
    // cycles); four at once over-subscribe it and must all slow down.
    let stream_of = |base: u32| {
        let mut b = StreamBuilder::new();
        b.set_mode(Mode::Os);
        for k in 0..256u32 {
            b.read(Addr(base + k * 64), DataClass::KernelOther);
        }
        b.finish()
    };
    let mut solo = ChunkedTrace::new(4, meta());
    solo.streams[0] = stream_of(0x0300_0000);
    let s1 = run(&solo);
    let mut quad = ChunkedTrace::new(4, meta());
    for cpu in 0..4u32 {
        quad.streams[cpu as usize] = stream_of(0x0300_0000 + cpu * 0x0100_0000);
    }
    let s2 = run(&quad);
    for cpu in 0..4 {
        assert!(
            s2.cpu_times[cpu] > s1.cpu_times[0] * 3 / 2,
            "cpu{cpu} barely slowed: {} vs solo {}",
            s2.cpu_times[cpu],
            s1.cpu_times[0]
        );
    }
}

#[test]
fn partial_prefetch_counts_as_pref_stall() {
    let mut t = ChunkedTrace::new(4, meta());
    let mut b = StreamBuilder::new();
    b.set_mode(Mode::Os);
    // Demand read arrives immediately: the prefetch has barely started.
    b.prefetch(D, DataClass::SyscallTable);
    b.read(D, DataClass::SyscallTable);
    t.streams[0] = b.finish();
    let s = run(&t);
    assert_eq!(s.cpus[0].prefetch_partial_hits, 1);
    assert!(s.cpus[0].pref_cycles.os > 0);
    // The partially-hidden access still counts as a miss.
    assert_eq!(s.cpus[0].l1d_read_misses.os, 1);
}

#[test]
fn associativity_removes_conflict_misses() {
    // Two lines that conflict in a direct-mapped 32-KB L1D coexist 2-way.
    let a = Addr(0x0300_0000);
    let b_addr = Addr(0x0300_8000); // 32 KB apart: same L1 set when 1-way
    let mk = || {
        let mut t = ChunkedTrace::new(4, meta());
        let mut b = StreamBuilder::new();
        b.set_mode(Mode::Os);
        for _ in 0..50 {
            b.read(a, DataClass::KernelOther);
            b.read(b_addr, DataClass::KernelOther);
        }
        t.streams[0] = b.finish();
        t
    };
    let t = mk();
    let direct = Machine::new(MachineConfig::base(), &t)
        .unwrap()
        .run()
        .unwrap();
    let mut cfg = MachineConfig::base();
    cfg.l1d = oscache_memsys::CacheGeom::new_assoc(32 * 1024, 16, 2);
    let assoc = Machine::new(cfg, &t).unwrap().run().unwrap();
    assert!(direct.cpus[0].l1d_read_misses.os > 50, "must thrash 1-way");
    assert!(
        assoc.cpus[0].l1d_read_misses.os <= 4,
        "2-way must fix the ping-pong: {}",
        assoc.cpus[0].l1d_read_misses.os
    );
}

#[test]
fn victim_cache_absorbs_conflict_ping_pong() {
    // The same ping-pong the associativity test uses: a 4-entry victim
    // cache must absorb it too.
    let a = Addr(0x0300_0000);
    let b_addr = Addr(0x0300_8000);
    let mut t = ChunkedTrace::new(4, meta());
    let mut b = StreamBuilder::new();
    b.set_mode(Mode::Os);
    for _ in 0..50 {
        b.read(a, DataClass::KernelOther);
        b.read(b_addr, DataClass::KernelOther);
    }
    t.streams[0] = b.finish();
    let plain = run(&t);
    let mut cfg = MachineConfig::base();
    cfg.victim_lines = 4;
    let vc = Machine::new(cfg, &t).unwrap().run().unwrap();
    assert!(plain.cpus[0].l1d_read_misses.os > 50);
    assert!(
        vc.cpus[0].l1d_read_misses.os <= 4,
        "victim cache must absorb the ping-pong: {}",
        vc.cpus[0].l1d_read_misses.os
    );
    // Victim hits cost 2 cycles each, far below the miss latency.
    assert!(vc.cpu_times[0] < plain.cpu_times[0] / 2);
}

#[test]
fn victim_cache_is_fifo_bounded() {
    // More distinct conflicting lines than victim entries: the oldest
    // falls out and misses again.
    let mut t = ChunkedTrace::new(4, meta());
    let mut b = StreamBuilder::new();
    b.set_mode(Mode::Os);
    for round in 0..3u32 {
        for k in 0..8u32 {
            let _ = round;
            b.read(Addr(0x0300_0000 + k * 0x8000), DataClass::KernelOther);
        }
    }
    t.streams[0] = b.finish();
    let mut cfg = MachineConfig::base();
    cfg.victim_lines = 2;
    let s = Machine::new(cfg, &t).unwrap().run().unwrap();
    // 8 lines cycling through one frame + 2 victim entries: the victim
    // cache cannot hold the working set, so most rounds still miss.
    assert!(
        s.cpus[0].l1d_read_misses.os >= 16,
        "2-entry victim cache can't absorb 8-line conflict set: {}",
        s.cpus[0].l1d_read_misses.os
    );
}

#[test]
fn lock_waits_are_attributed_per_lock() {
    let t = two_phase(
        |b| {
            // Long critical section so the second CPU provably waits.
            for k in 0..64u32 {
                b.read(Addr(0x0600_0000 + k * 64), DataClass::KernelOther);
            }
        },
        |b| {
            b.read(D, DataClass::FreqShared);
        },
    );
    let s = run(&t);
    let total = s.total();
    let waited = total.lock_wait_cycles.get(9).unwrap_or(0);
    assert!(waited > 1000, "cpu1 must wait on lock 9: {waited}");
    assert_eq!(
        total.lock_wait_cycles.entries().len(),
        1,
        "only lock 9 is contended: {:?}",
        total.lock_wait_cycles
    );
    // Lock waits are a subset of sync time.
    assert!(waited <= total.sync_cycles.total());
}
