//! Detailed behaviour of the §4 block-operation schemes: register reuse,
//! prefetch-buffer streaming, displacement accounting, and the Table 3
//! probes.

use oscache_memsys::{BlockOpScheme, Machine, MachineConfig, SimStats};
use oscache_trace::{Addr, ChunkedTrace, DataClass, Mode, StreamBuilder, TraceMeta};

fn meta() -> TraceMeta {
    let mut m = TraceMeta::default();
    let site = m.code.add_site("blk", true);
    m.code.add_block(Addr(0x1000), 8, site);
    m
}

const SRC: Addr = Addr(0x1000_0000);
const DST: Addr = Addr(0x1103_4000);

fn copy_trace(len: u32) -> ChunkedTrace {
    let mut t = ChunkedTrace::new(4, meta());
    let bb = oscache_trace::BlockId(0);
    let mut b = StreamBuilder::new();
    b.set_mode(Mode::Os);
    b.begin_block_copy(SRC, DST, len, DataClass::PageFrame, DataClass::PageFrame);
    let mut off = 0;
    while off < len {
        b.exec(bb);
        b.read(SRC.offset(off), DataClass::PageFrame);
        b.write(DST.offset(off), DataClass::PageFrame);
        off += 8;
    }
    b.end_block_op();
    t.streams[0] = b.finish();
    t
}

fn run(t: &ChunkedTrace, scheme: BlockOpScheme) -> SimStats {
    let cfg = MachineConfig::base()
        .with_block_scheme(scheme)
        .with_audit(oscache_memsys::AuditLevel::Strict);
    Machine::new(cfg, t).unwrap().run().unwrap()
}

#[test]
fn bypass_source_register_caches_a_full_line() {
    // 8-byte strides over 16-byte lines: every second read hits the source
    // register, so bypassing misses exactly len/16 times.
    let t = copy_trace(512);
    let s = run(&t, BlockOpScheme::Bypass);
    assert_eq!(s.cpus[0].os_miss_blockop, 512 / 16);
}

#[test]
fn bypass_never_fills_the_data_caches() {
    let t = copy_trace(4096);
    let s = run(&t, BlockOpScheme::Bypass);
    // The page's lines were all marked bypassed, so the cache ends the run
    // without them; displacement misses from the op cannot occur.
    assert_eq!(s.cpus[0].displ_inside, 0);
    assert_eq!(s.cpus[0].displ_outside, 0);
    // Every dst line leaves through the register as a full-line write.
    assert_eq!(s.bus.line_writes as u32, 4096 / 16);
}

#[test]
fn bypref_streams_through_the_buffer() {
    let t = copy_trace(4096);
    let s = run(&t, BlockOpScheme::ByPref);
    let c = &s.cpus[0];
    // The buffer covers almost all source lines; a handful of demand
    // misses remain at the stream head.
    assert!(
        c.prefetch_full_hits + c.prefetch_partial_hits >= 200,
        "buffer barely used: {c:?}"
    );
    assert!(c.os_miss_blockop < 60);
}

#[test]
fn cached_scheme_displaces_resident_data() {
    // Fill a victim line that collides with the source block, then copy.
    let victim = Addr(SRC.0 + 32 * 1024); // same L1 frame region as SRC
    let mut t = ChunkedTrace::new(4, meta());
    let bb = oscache_trace::BlockId(0);
    let mut b = StreamBuilder::new();
    b.set_mode(Mode::Os);
    b.read(victim, DataClass::TimerStruct);
    b.begin_block_copy(SRC, DST, 4096, DataClass::PageFrame, DataClass::PageFrame);
    let mut off = 0;
    while off < 4096 {
        b.exec(bb);
        b.read(SRC.offset(off), DataClass::PageFrame);
        b.write(DST.offset(off), DataClass::PageFrame);
        off += 8;
    }
    b.end_block_op();
    b.read(victim, DataClass::TimerStruct); // displacement miss
    t.streams[0] = b.finish();

    let s = run(&t, BlockOpScheme::Cached);
    assert_eq!(s.cpus[0].displ_outside, 1);
    // Under DMA the same trace keeps the victim resident.
    let s = run(&t, BlockOpScheme::Dma);
    assert_eq!(s.cpus[0].displ_outside, 0);
    assert_eq!(
        s.cpus[0].l1d_read_misses.os, 1,
        "only the cold victim read misses"
    );
}

#[test]
fn table3_probes_report_warm_sources() {
    // Touch 50% of the source lines beforehand; the probe must see ~50%.
    let mut t = ChunkedTrace::new(4, meta());
    let bb = oscache_trace::BlockId(0);
    let mut b = StreamBuilder::new();
    b.set_mode(Mode::Os);
    let mut off = 0;
    while off < 4096 {
        b.read(SRC.offset(off), DataClass::PageFrame);
        off += 32; // every other 16-byte line
    }
    b.begin_block_copy(SRC, DST, 4096, DataClass::PageFrame, DataClass::PageFrame);
    let mut off = 0;
    while off < 4096 {
        b.exec(bb);
        b.read(SRC.offset(off), DataClass::PageFrame);
        b.write(DST.offset(off), DataClass::PageFrame);
        off += 8;
    }
    b.end_block_op();
    t.streams[0] = b.finish();
    let s = run(&t, BlockOpScheme::Cached);
    let c = &s.cpus[0];
    assert_eq!(c.blk_src_lines, 256);
    assert_eq!(c.blk_src_lines_cached, 128);
    assert_eq!(c.blk_size_buckets, [1, 0, 0]);
}

#[test]
fn table3_probes_report_owned_destinations() {
    // Write the destination beforehand: its L2 lines are Modified at the
    // probe.
    let mut t = ChunkedTrace::new(4, meta());
    let bb = oscache_trace::BlockId(0);
    let mut b = StreamBuilder::new();
    b.set_mode(Mode::Os);
    let mut off = 0;
    while off < 4096 {
        b.write(DST.offset(off), DataClass::PageFrame);
        off += 32;
    }
    b.begin_block_copy(SRC, DST, 4096, DataClass::PageFrame, DataClass::PageFrame);
    b.exec(bb);
    b.read(SRC, DataClass::PageFrame);
    b.write(DST, DataClass::PageFrame);
    b.end_block_op();
    t.streams[0] = b.finish();
    let s = run(&t, BlockOpScheme::Cached);
    let c = &s.cpus[0];
    assert_eq!(c.blk_dst_lines, 128);
    assert_eq!(c.blk_dst_l2_owned, 128);
    assert_eq!(c.blk_dst_l2_shared, 0);
}

#[test]
fn size_buckets_follow_the_paper_boundaries() {
    let mut t = ChunkedTrace::new(4, meta());
    let mut b = StreamBuilder::new();
    b.set_mode(Mode::Os);
    for len in [4096u32, 4088, 1024, 1023, 64] {
        b.begin_block_zero(Addr(0x2000_0000), len, DataClass::PageFrame);
        b.write(Addr(0x2000_0000), DataClass::PageFrame);
        b.end_block_op();
    }
    t.streams[0] = b.finish();
    let s = run(&t, BlockOpScheme::Cached);
    // = 4 KB | 1..4 KB | < 1 KB  →  1 | 2 (4088, 1024) | 2 (1023, 64)
    assert_eq!(s.cpus[0].blk_size_buckets, [1, 2, 2]);
}

#[test]
fn pref_scheme_counts_prefetch_instruction_overhead() {
    let t = copy_trace(4096);
    let base = run(&t, BlockOpScheme::Cached);
    let pref = run(&t, BlockOpScheme::Pref);
    // Prefetch instructions add a little Exec time inside the op (~5%).
    assert!(pref.cpus[0].blk_exec_cycles > base.cpus[0].blk_exec_cycles);
    let overhead = pref.cpus[0].blk_exec_cycles as f64 / base.cpus[0].blk_exec_cycles as f64;
    assert!(
        overhead < 1.15,
        "prefetch instruction overhead too high: {overhead:.2}"
    );
    assert!(pref.cpus[0].prefetches_issued as u32 >= 4096 / 16 - 8);
}

#[test]
fn dma_cost_scales_with_length() {
    let short = run(&copy_trace(512), BlockOpScheme::Dma);
    let long = run(&copy_trace(4096), BlockOpScheme::Dma);
    let stall = |s: &SimStats| s.cpus[0].dread_cycles.os;
    assert!(
        stall(&long) > 6 * stall(&short),
        "DMA stall must scale ~linearly: {} vs {}",
        stall(&short),
        stall(&long)
    );
}

#[test]
fn every_scheme_reports_identical_op_counts() {
    let t = copy_trace(2048);
    for scheme in [
        BlockOpScheme::Cached,
        BlockOpScheme::Pref,
        BlockOpScheme::Bypass,
        BlockOpScheme::ByPref,
        BlockOpScheme::Dma,
    ] {
        let s = run(&t, scheme);
        assert_eq!(s.cpus[0].blk_ops, 1, "{scheme:?}");
        assert_eq!(s.cpus[0].blk_size_buckets, [0, 1, 0], "{scheme:?}");
    }
}
