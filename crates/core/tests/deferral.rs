//! The §4.2.1 deferred-copy pass on hand-built traces, checked twice: the
//! production stage, reached as cells reach it (Table 4's counts from
//! `deferred::analyze`, the rewrite from a `Base+Deferred` analysis), and
//! the independent reference `oscache_oracle::deferral`.

use oscache_core::deferred::{analyze, DeferredCounts};
use oscache_core::{analyze_cell, System};
use oscache_oracle::deferral::defer_copies;
use oscache_trace::{
    Addr, BarrierId, ChunkedTrace, DataClass, Event, Mode, StreamBuilder, TraceMeta, PAGE_SIZE,
};

fn copy(b: &mut StreamBuilder, src: u32, dst: u32, len: u32) {
    b.begin_block_copy(
        Addr(src),
        Addr(dst),
        len,
        DataClass::BufferCache,
        DataClass::UserData,
    );
    let mut off = 0;
    while off < len {
        b.read(Addr(src + off), DataClass::BufferCache);
        b.write(Addr(dst + off), DataClass::UserData);
        off += 8;
    }
    b.end_block_op();
}

/// The production and the reference deferral of `t`, labelled; the two
/// must agree on the counts and on every event.
fn deferrals(t: &ChunkedTrace) -> [(&'static str, DeferredCounts, ChunkedTrace); 2] {
    let mut spec = System::Base.spec();
    spec.deferred_copy = true;
    let production = analyze_cell(t, spec)
        .trace
        .expect("deferral rewrites the trace");
    let production = std::sync::Arc::unwrap_or_clone(production);
    let (counts, reference) = defer_copies(t);
    let production_counts = analyze(t);
    assert_eq!(production_counts, counts, "production and reference counts");
    for cpu in 0..t.n_cpus() {
        assert_eq!(
            production.streams[cpu].iter().collect::<Vec<_>>(),
            reference.streams[cpu].iter().collect::<Vec<_>>(),
            "production and reference deferral of cpu {cpu}"
        );
    }
    [
        ("production", production_counts, production),
        ("reference", counts, reference),
    ]
}

#[test]
fn counts_small_and_readonly_copies() {
    let mut t = ChunkedTrace::new(1, TraceMeta::default());
    let mut b = StreamBuilder::new();
    b.set_mode(Mode::Os);
    copy(&mut b, 0x1000_0000, 0x2000_0000, 512); // read-only small
    copy(&mut b, 0x1100_0000, 0x2100_0000, 256); // dst written later
    b.write(Addr(0x2100_0010), DataClass::UserData);
    copy(&mut b, 0x1200_0000, 0x2200_0000, PAGE_SIZE); // page-sized
    t.streams[0] = b.finish();
    for (who, c, _) in deferrals(&t) {
        assert_eq!(c.block_copies, 3, "{who}");
        assert_eq!(c.small_copies, 2, "{who}");
        assert_eq!(c.readonly_small_copies, 1, "{who}");
        assert!((c.small_pct() - 66.666).abs() < 0.1, "{who}");
        assert!((c.readonly_pct() - 50.0).abs() < 0.1, "{who}");
    }
}

#[test]
fn apply_removes_readonly_copies_and_remaps_reads() {
    let mut t = ChunkedTrace::new(1, TraceMeta::default());
    let mut b = StreamBuilder::new();
    b.set_mode(Mode::Os);
    copy(&mut b, 0x1000_0000, 0x2000_0000, 128);
    b.read(Addr(0x2000_0008), DataClass::UserData); // read of dst
    t.streams[0] = b.finish();
    for (who, _, out) in deferrals(&t) {
        let evs: Vec<Event> = out.streams[0].iter().collect();
        assert!(
            !evs.iter().any(|e| matches!(e, Event::BlockOpBegin { .. })),
            "{who}: copy should be removed"
        );
        // The dst read now reads the source.
        assert!(
            evs.iter().any(|e| matches!(
                e,
                Event::Read { addr, class: DataClass::UserData } if addr.0 == 0x1000_0008
            )),
            "{who}: the read is remapped"
        );
    }
}

#[test]
fn removes_the_read_only_bracket_not_an_identical_earlier_one() {
    // Two identical copies with a barrier between them: the later copy
    // rewrites the earlier one's destination, so only the later one is
    // read-only, and only its bracket may go.
    let mut t = ChunkedTrace::new(1, TraceMeta::default());
    let mut b = StreamBuilder::new();
    b.set_mode(Mode::Os);
    copy(&mut b, 0x1000_0000, 0x2000_0000, 128);
    b.barrier(BarrierId(0), Addr(0x0300_0000), 1);
    copy(&mut b, 0x1000_0000, 0x2000_0000, 128);
    t.streams[0] = b.finish();
    for (who, counts, out) in deferrals(&t) {
        assert_eq!(counts.readonly_small_copies, 1, "{who}");
        let evs: Vec<Event> = out.streams[0].iter().collect();
        let begins: Vec<usize> = evs
            .iter()
            .enumerate()
            .filter(|(_, e)| matches!(e, Event::BlockOpBegin { .. }))
            .map(|(i, _)| i)
            .collect();
        let barrier = evs
            .iter()
            .position(|e| matches!(e, Event::Barrier { .. }))
            .expect("the barrier survives the pass");
        assert_eq!(begins.len(), 1, "{who}: exactly one copy is removed");
        assert!(
            begins[0] < barrier,
            "{who}: the earlier copy is the one kept"
        );
    }
}

#[test]
fn cross_cpu_write_disqualifies() {
    let mut t = ChunkedTrace::new(2, TraceMeta::default());
    let mut b = StreamBuilder::new();
    copy(&mut b, 0x1000_0000, 0x2000_0000, 128);
    t.streams[0] = b.finish();
    let mut b1 = StreamBuilder::new();
    b1.write(Addr(0x1000_0020), DataClass::UserData); // writes the src
    t.streams[1] = b1.finish();
    for (who, c, _) in deferrals(&t) {
        assert_eq!(c.small_copies, 1, "{who}");
        assert_eq!(c.readonly_small_copies, 0, "{who}");
    }
}
