//! Engine-level tests of the multiprocessor machine model: timing,
//! coherence, classification, synchronization, and the block-operation
//! schemes.

use oscache_memsys::{BlockOpScheme, CacheGeom, Machine, MachineConfig, SimErrorKind, SimStats};
use oscache_trace::{
    Addr, BarrierId, BlockId, ChunkedStream, ChunkedTrace, CoherenceCategory, DataClass, Event,
    LockId, Mode, StreamBuilder, TraceMeta, CHUNK_EVENTS,
};

/// Builds a 4-CPU trace with one basic block available and hands each CPU's
/// builder to `f`.
fn trace_with(f: impl FnOnce(&mut [StreamBuilder; 4], BlockId)) -> ChunkedTrace {
    let mut meta = TraceMeta::default();
    let site = meta.code.add_site("test", false);
    let bb = meta.code.add_block(Addr(0x0001_0000), 4, site);
    let mut builders = [
        StreamBuilder::new(),
        StreamBuilder::new(),
        StreamBuilder::new(),
        StreamBuilder::new(),
    ];
    for b in &mut builders {
        b.set_mode(Mode::Os);
    }
    f(&mut builders, bb);
    let mut t = ChunkedTrace::new(4, meta);
    for (i, b) in builders.into_iter().enumerate() {
        t.streams[i] = b.finish();
    }
    t
}

fn run(trace: &ChunkedTrace) -> SimStats {
    run_cfg(MachineConfig::base(), trace)
}

fn run_cfg(cfg: MachineConfig, trace: &ChunkedTrace) -> SimStats {
    let cfg = cfg.with_audit(oscache_memsys::AuditLevel::Strict);
    Machine::new(cfg, trace).unwrap().run().unwrap()
}

const D: Addr = Addr(0x0200_0000);

#[test]
fn cold_read_misses_then_hits() {
    let t = trace_with(|b, _| {
        b[0].read(D, DataClass::KernelOther);
        b[0].read(D, DataClass::KernelOther);
        b[0].read(D.offset(4), DataClass::KernelOther); // same 16-B line
    });
    let s = run(&t);
    assert_eq!(s.cpus[0].l1d_read_misses.os, 1);
    assert_eq!(s.cpus[0].dreads.os, 3);
    assert_eq!(s.cpus[0].os_miss_other, 1);
    // Cold miss to memory: 50 cycles of stall (51 - 1 base cycle).
    assert_eq!(s.cpus[0].dread_cycles.os, 50);
}

#[test]
fn l2_hit_costs_eleven_stall_cycles() {
    let t = trace_with(|b, _| {
        b[0].read(D, DataClass::KernelOther); // memory, fills L1+L2
        b[0].read(D.offset(16), DataClass::KernelOther); // other half of the 32-B L2 line
    });
    let s = run(&t);
    assert_eq!(s.cpus[0].l1d_read_misses.os, 2);
    // 50 (memory) + 11 (L2 hit).
    assert_eq!(s.cpus[0].dread_cycles.os, 61);
}

#[test]
fn remote_write_causes_coherence_miss() {
    let t = trace_with(|b, _| {
        // CPU0 reads, CPU1 writes (invalidate), CPU0 re-reads. Interleaving
        // is forced by lock hand-off.
        let lock = LockId(0);
        let la = Addr(0x0100_0040);
        b[0].lock_acquire(lock, la);
        b[0].read(D, DataClass::FreqShared);
        b[0].lock_release(lock, la);
        b[1].lock_acquire(lock, la);
        b[1].write(D, DataClass::FreqShared);
        b[1].lock_release(lock, la);
        // Idle keeps CPU0's clock behind CPU1's so CPU1 wins the lock
        // for the middle section.
        b[0].idle(10_000);
        b[0].lock_acquire(lock, la);
        b[0].read(D, DataClass::FreqShared);
        b[0].lock_release(lock, la);
    });
    let s = run(&t);
    let coh: u64 = s.cpus[0].os_miss_coherence.iter().sum();
    assert!(
        coh >= 1,
        "expected a coherence miss on cpu0, got classification {:?}",
        s.cpus[0]
    );
    assert!(s.cpus[0].os_miss_coherence[CoherenceCategory::FreqShared as usize] >= 1);
}

#[test]
fn update_pages_eliminate_coherence_misses() {
    // Barriers sequence the rounds; each round one CPU writes the shared
    // word and the others read it.
    let t = trace_with(|b, _| {
        let ba = Addr(0x0100_0080);
        for round in 0..8usize {
            for cpu in b.iter_mut() {
                cpu.barrier(BarrierId(0), ba, 4);
            }
            for (k, cpu) in b.iter_mut().enumerate() {
                if k == round % 4 {
                    cpu.rmw(D, DataClass::FreqShared);
                } else {
                    cpu.read(D, DataClass::FreqShared);
                }
            }
        }
    });
    let base = run(&t);
    let mut cfg = MachineConfig::base();
    cfg.update_pages.insert(D.page());
    let upd = run_cfg(cfg, &t);
    let fs = CoherenceCategory::FreqShared as usize;
    let base_fs: u64 = base.cpus.iter().map(|c| c.os_miss_coherence[fs]).sum();
    let upd_fs: u64 = upd.cpus.iter().map(|c| c.os_miss_coherence[fs]).sum();
    assert!(
        base_fs > 0,
        "invalidation protocol must produce coherence misses"
    );
    assert!(
        upd_fs < base_fs / 2,
        "updates must remove most freq-shared coherence misses: {upd_fs} vs {base_fs}"
    );
    assert!(
        upd.bus.update_words > 0,
        "update traffic must appear on the bus"
    );
}

#[test]
fn barrier_synchronizes_all_cpus() {
    let t = trace_with(|b, _| {
        let ba = Addr(0x0100_0080);
        // CPU0 does extra work first, so others must wait for it.
        for k in 0..64u32 {
            b[0].read(Addr(0x0300_0000 + k * 64), DataClass::KernelOther);
        }
        for cpu in b.iter_mut() {
            cpu.barrier(BarrierId(0), ba, 4);
        }
        for cpu in b.iter_mut() {
            cpu.read(D, DataClass::KernelOther);
        }
    });
    let s = run(&t);
    // The three early arrivers accumulate sync wait.
    let waits: Vec<u64> = s.cpus.iter().map(|c| c.sync_cycles.os).collect();
    assert!(
        waits[1] > 0 && waits[2] > 0 && waits[3] > 0,
        "waits = {waits:?}"
    );
    // Barrier coherence misses appear (arrival RMWs + resume reads).
    let barrier_misses: u64 = s
        .cpus
        .iter()
        .map(|c| c.os_miss_coherence[CoherenceCategory::Barriers as usize])
        .sum();
    assert!(barrier_misses >= 3, "got {barrier_misses} barrier misses");
}

#[test]
fn lock_enforces_mutual_exclusion_in_time() {
    let t = trace_with(|b, _| {
        let lock = LockId(3);
        let la = Addr(0x0100_00c0);
        // Two rounds: the second round's acquires find the lock word
        // invalidated by the previous holder's test-and-set.
        for round in 0..2u32 {
            for (k, cpu) in b.iter_mut().enumerate() {
                cpu.lock_acquire(lock, la);
                // a long critical section: distinct-line reads
                for j in 0..32u32 {
                    cpu.read(
                        Addr(0x0400_0000 + (round * 4 + k as u32) * 4096 + j * 64),
                        DataClass::KernelOther,
                    );
                }
                cpu.lock_release(lock, la);
                // Back off so the other CPUs win the next acquisition
                // (avoids the releaser immediately re-taking the lock).
                cpu.idle(20_000);
            }
        }
    });
    let s = run(&t);
    // At least the last CPUs to get the lock must have waited.
    let total_sync: u64 = s.cpus.iter().map(|c| c.sync_cycles.os).sum();
    assert!(total_sync > 0);
    // Lock coherence misses show up.
    let lock_misses: u64 = s
        .cpus
        .iter()
        .map(|c| c.os_miss_coherence[CoherenceCategory::Locks as usize])
        .sum();
    assert!(lock_misses >= 3, "got {lock_misses}");
}

fn block_copy_trace(len: u32) -> ChunkedTrace {
    trace_with(|b, bb| {
        // src and dst must not be congruent modulo either cache size, or
        // the destination's write-allocate fills would evict the source
        // lines mid-copy.
        let src = Addr(0x1000_0000);
        let dst = Addr(0x1103_4000);
        b[0].begin_block_copy(src, dst, len, DataClass::PageFrame, DataClass::PageFrame);
        let mut off = 0;
        while off < len {
            b[0].exec(bb);
            for w in 0..4u32 {
                // 4 words per exec block
                if off + w * 8 < len {
                    b[0].read(src.offset(off + w * 8), DataClass::PageFrame);
                    b[0].write(dst.offset(off + w * 8), DataClass::PageFrame);
                }
            }
            off += 32;
        }
        b[0].end_block_op();
        // Afterwards, re-read the destination (a reuse under bypass/DMA).
        b[0].read(dst, DataClass::PageFrame);
    })
}

#[test]
fn base_block_copy_misses_and_probes() {
    let t = block_copy_trace(4096);
    let s = run(&t);
    let c = &s.cpus[0];
    assert_eq!(c.blk_ops, 1);
    assert_eq!(c.blk_size_buckets, [1, 0, 0]);
    assert_eq!(c.blk_src_lines, 256); // 4 KB / 16 B
    assert_eq!(c.blk_src_lines_cached, 0); // cold caches
    assert_eq!(c.blk_dst_lines, 128); // 4 KB / 32 B
    assert!(c.os_miss_blockop > 0);
    // Every other L1 line is a memory fetch; alternates hit the L2 line.
    assert_eq!(c.os_miss_blockop, 256);
    assert!(c.blk_read_stall > 0);
    assert!(c.blk_exec_cycles > 0);
    // Final dst read hits: dst lines were write-allocated in L2.
    assert_eq!(c.reuse_outside, 0);
}

#[test]
fn dma_eliminates_block_misses() {
    let t = block_copy_trace(4096);
    let cfg = MachineConfig::base().with_block_scheme(BlockOpScheme::Dma);
    let s = run_cfg(cfg, &t);
    let c = &s.cpus[0];
    assert_eq!(c.os_miss_blockop, 0, "DMA must remove all block misses");
    assert_eq!(c.blk_ops, 1);
    // The processor stalled for the transfer: assigned to D-read stall.
    assert!(c.dread_cycles.os >= 19 + 4096 / 8 * 2 * 5);
    // The post-op destination read is a reuse miss (outside).
    assert_eq!(c.reuse_outside, 1);
    assert_eq!(s.bus.dma_transfers, 1);
}

#[test]
fn bypass_marks_reuses() {
    let t = block_copy_trace(4096);
    let cfg = MachineConfig::base().with_block_scheme(BlockOpScheme::Bypass);
    let s = run_cfg(cfg, &t);
    let c = &s.cpus[0];
    // Source reads still miss (into the register), dst writes bypass.
    assert!(c.os_miss_blockop > 0);
    assert_eq!(c.reuse_outside, 1, "dst re-read must be a reuse");
    assert!(
        s.bus.line_writes > 0,
        "bypassed dst lines are written as lines"
    );
}

#[test]
fn blk_pref_hides_most_block_misses() {
    let t = block_copy_trace(4096);
    let base = run(&t);
    let cfg = MachineConfig::base().with_block_scheme(BlockOpScheme::Pref);
    let pref = run_cfg(cfg, &t);
    assert!(
        pref.cpus[0].os_miss_blockop < base.cpus[0].os_miss_blockop / 4,
        "prefetching must hide most block misses: {} vs {}",
        pref.cpus[0].os_miss_blockop,
        base.cpus[0].os_miss_blockop
    );
    assert!(pref.cpus[0].prefetch_full_hits > 0);
    // OS time improves.
    assert!(pref.cpu_times[0] < base.cpu_times[0]);
}

#[test]
fn bypref_uses_prefetch_buffer() {
    let t = block_copy_trace(4096);
    let cfg = MachineConfig::base().with_block_scheme(BlockOpScheme::ByPref);
    let s = run_cfg(cfg, &t);
    let c = &s.cpus[0];
    assert!(c.prefetch_full_hits + c.prefetch_partial_hits > 0);
    // Most source lines stream through the buffer without demand misses.
    assert!(c.os_miss_blockop < 64, "got {}", c.os_miss_blockop);
}

#[test]
fn displacement_misses_are_tracked() {
    // Fill a line, run a page-sized copy whose source collides with it in
    // the 32-KB L1D, then re-read the original line.
    let hot = Addr(0x0208_0000);
    let t = trace_with(|b, bb| {
        b[0].read(hot, DataClass::TimerStruct);
        let src = Addr(0x1208_0000); // collides with `hot` modulo 32 KB
        let dst = Addr(0x1300_0000);
        b[0].begin_block_copy(src, dst, 4096, DataClass::PageFrame, DataClass::PageFrame);
        let mut off = 0;
        while off < 4096 {
            b[0].exec(bb);
            b[0].read(src.offset(off), DataClass::PageFrame);
            b[0].write(dst.offset(off), DataClass::PageFrame);
            off += 8;
        }
        b[0].end_block_op();
        b[0].read(hot, DataClass::TimerStruct);
    });
    let s = run(&t);
    assert_eq!(s.cpus[0].displ_outside, 1, "{:?}", s.cpus[0]);
}

#[test]
fn explicit_prefetch_event_hides_miss() {
    let t = trace_with(|b, bb| {
        // Prefetch, then enough independent work to cover the latency.
        b[0].read(Addr(0x0300_0000), DataClass::KernelOther); // warm something
        b[0].exec(bb);
        let target = Addr(0x0300_4000);
        b[0].prefetch(target, DataClass::SyscallTable);
        for _ in 0..20 {
            b[0].exec(bb);
        }
        b[0].read(target, DataClass::SyscallTable);
    });
    let s = run(&t);
    assert_eq!(s.cpus[0].prefetch_full_hits, 1);
    // The target read is not counted as a miss.
    assert_eq!(s.cpus[0].l1d_read_misses.os, 1); // only the warm-up read
}

#[test]
fn write_buffer_overflow_stalls() {
    // A burst of writes to distinct uncached lines must overflow the
    // 4-deep word buffer + 8-deep line buffer chain.
    let t = trace_with(|b, _| {
        for k in 0..64u32 {
            b[0].write(Addr(0x0500_0000 + k * 32), DataClass::KernelOther);
        }
    });
    let s = run(&t);
    assert!(
        s.cpus[0].dwrite_cycles.os > 0,
        "expected write stalls, got {:?}",
        s.cpus[0].dwrite_cycles
    );
    assert!(s.bus.read_exclusive > 0);
}

#[test]
fn accounted_cycles_equal_elapsed_time() {
    let t = block_copy_trace(2048);
    let s = run(&t);
    for (i, c) in s.cpus.iter().enumerate() {
        assert_eq!(
            c.accounted_cycles(),
            s.cpu_times[i],
            "cpu{i} bucket accounting must equal elapsed time"
        );
    }
}

#[test]
fn idle_time_is_counted() {
    let t = trace_with(|b, _| {
        b[2].idle(1234);
    });
    let s = run(&t);
    assert_eq!(s.cpus[2].idle_cycles, 1234);
    assert_eq!(s.cpu_times[2], 1234);
}

#[test]
fn instruction_fetch_misses_are_counted() {
    let mut meta = TraceMeta::default();
    let site = meta.code.add_site("bigcode", false);
    // 64 distinct basic blocks spread over 64 KB of text: must miss in a
    // 16-KB L1I when revisited after eviction.
    let blocks: Vec<_> = (0..64)
        .map(|k| meta.code.add_block(Addr(0x0001_0000 + k * 1024), 8, site))
        .collect();
    let mut t = ChunkedTrace::new(4, meta);
    let mut b = StreamBuilder::new();
    b.set_mode(Mode::Os);
    for _ in 0..2 {
        for &bb in &blocks {
            b.exec(bb);
        }
    }
    t.streams[0] = b.finish();
    let s = run_cfg(MachineConfig::base(), &t);
    assert!(s.cpus[0].l1i_misses.os >= 64);
    assert!(s.cpus[0].imiss_cycles.os > 0);
    assert!(s.cpus[0].exec_cycles.os >= 2 * 64 * 8);
}

#[test]
fn smaller_cache_misses_more() {
    // A working set that fits 32 KB but not 16 KB.
    let t = trace_with(|b, _| {
        for _ in 0..4 {
            for k in 0..1500u32 {
                b[0].read(Addr(0x0600_0000 + k * 16), DataClass::KernelOther);
            }
        }
    });
    let with_l1d = |size| {
        let mut cfg = MachineConfig::base();
        cfg.l1d = CacheGeom::new(size, cfg.l1d.line);
        cfg
    };
    let big = run_cfg(with_l1d(64 * 1024), &t);
    let small = run_cfg(with_l1d(16 * 1024), &t);
    assert!(
        small.cpus[0].l1d_read_misses.os > big.cpus[0].l1d_read_misses.os,
        "16KB: {} vs 64KB: {}",
        small.cpus[0].l1d_read_misses.os,
        big.cpus[0].l1d_read_misses.os
    );
}

/// A chunked trace that failed validation keeps failing it: every machine
/// built over it afterwards is rejected, with the same typed error.
#[test]
fn chunked_machine_rejects_a_trace_that_already_failed_validation() {
    let mut t = trace_with(|_, _| ());
    let leak = Event::LockAcquire {
        lock: LockId(1),
        addr: Addr(0x0100_0000),
    };
    t.streams[2] = ChunkedStream::from_events(vec![leak], CHUNK_EVENTS);
    let ct = t;
    let first = ct.validate().expect_err("a lock held at end is invalid");
    assert_eq!(ct.validate(), Err(first.clone()));
    for _ in 0..2 {
        let err = Machine::new(MachineConfig::base(), &ct)
            .err()
            .expect("machine must reject the trace");
        assert_eq!(err.kind, SimErrorKind::Trace(first.clone()));
    }
}
