//! The §4.2.1 deferred-copy (VMP-style copy-on-write for sub-page blocks)
//! study, reproduced for Table 4.
//!
//! Copy-on-write already defers page-sized copies; the question is whether
//! hardware support for deferring *smaller* copies (Cheriton's VMP) would
//! pay off. The paper finds it would not: read-only small copies are
//! 9–44% of small copies, but eliminating them removes only 0.1–0.4% of
//! primary-cache misses.

use oscache_trace::{Addr, ChunkedStreamBuilder, ChunkedTrace, Event, PAGE_SIZE};

/// Counts for Table 4.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DeferredCounts {
    /// All block copies in the trace.
    pub block_copies: u64,
    /// Copies smaller than a page.
    pub small_copies: u64,
    /// Small copies whose source and destination blocks are never written
    /// after the operation (the copy would never be performed).
    pub readonly_small_copies: u64,
}

impl DeferredCounts {
    /// Small copies as a percentage of all copies (Table 4 row 1).
    pub fn small_pct(&self) -> f64 {
        100.0 * self.small_copies as f64 / self.block_copies.max(1) as f64
    }

    /// Read-only small copies as a percentage of small copies (row 2).
    pub fn readonly_pct(&self) -> f64 {
        100.0 * self.readonly_small_copies as f64 / self.small_copies.max(1) as f64
    }
}

/// One sub-page copy: its bracket in the issuing CPU's stream.
#[derive(Clone, Copy, Debug)]
struct CopyOp {
    /// Index of the `BlockOpBegin` event.
    begin_idx: usize,
    /// Index of the matching `BlockOpEnd` event.
    end_idx: usize,
    src: Addr,
    dst: Addr,
    len: u32,
}

fn covers(start: Addr, len: u32, a: Addr) -> bool {
    a.0 >= start.0 && a.0 < start.0 + len
}

fn overlaps(op: &CopyOp, a: Addr) -> bool {
    covers(op.src, op.len, a) || covers(op.dst, op.len, a)
}

/// Which ops touch which page: `(page, op)` pairs sorted by page. A
/// sub-page range spans at most two pages, so the index holds at most
/// two entries per range and a lookup costs one binary search.
struct PageIndex(Vec<(u32, u32)>);

impl PageIndex {
    fn build(ranges: impl Iterator<Item = (usize, Addr, u32)>) -> PageIndex {
        let mut pairs = Vec::new();
        for (op, start, len) in ranges {
            for page in start.page()..=Addr(start.0 + len.max(1) - 1).page() {
                pairs.push((page, op as u32));
            }
        }
        pairs.sort_unstable();
        pairs.dedup();
        PageIndex(pairs)
    }

    /// The ops with a range on `a`'s page, in ascending op order.
    fn on_page(&self, a: Addr) -> impl Iterator<Item = usize> + '_ {
        let page = a.page();
        let lo = self.0.partition_point(|&(p, _)| p < page);
        self.0[lo..]
            .iter()
            .take_while(move |&&(p, _)| p == page)
            .map(|&(_, op)| op as usize)
    }
}

/// What deferral knows about one trace: Table 4's counts and the
/// read-only small copies. It is computed once per base trace (the
/// runner's cache shares it between the `Base+Deferred` analysis and
/// every Table 4 render) and costs two walks, O(events + copies).
#[derive(Debug)]
pub(crate) struct DeferralSummary {
    /// Table 4's counts.
    pub(crate) counts: DeferredCounts,
    /// The read-only small copies of each CPU, in stream order.
    readonly: Vec<Vec<CopyOp>>,
}

/// Finds every sub-page copy and decides which are read-only: neither
/// block is written later in the issuing CPU's stream, nor written at all
/// by any other CPU (a conservative global check, since cross-CPU order is
/// not fixed). Walks every stream twice — block-op discovery, then the
/// write check against a page index of the copies — through decoding
/// chunk iterators, so the walk never materializes a stream.
pub(crate) fn summarize(trace: &ChunkedTrace) -> DeferralSummary {
    let mut counts = DeferredCounts::default();
    let mut small: Vec<(usize, CopyOp)> = Vec::new();
    for (cpu, stream) in trace.streams.iter().enumerate() {
        // A small copy pending its matching `BlockOpEnd`. Block ops never
        // nest (validation rejects that), so one slot suffices.
        let mut pending: Option<CopyOp> = None;
        for (idx, e) in stream.iter().enumerate() {
            match e {
                Event::BlockOpBegin { op } if op.kind == oscache_trace::BlockKind::Copy => {
                    counts.block_copies += 1;
                    if op.len < PAGE_SIZE {
                        counts.small_copies += 1;
                        pending = Some(CopyOp {
                            begin_idx: idx,
                            end_idx: idx,
                            src: op.src,
                            dst: op.dst,
                            len: op.len,
                        });
                    }
                }
                Event::BlockOpEnd => {
                    if let Some(mut op) = pending.take() {
                        op.end_idx = idx;
                        small.push((cpu, op));
                    }
                }
                _ => {}
            }
        }
    }
    let mut readonly = vec![true; small.len()];
    if !small.is_empty() {
        let index = PageIndex::build(
            small
                .iter()
                .enumerate()
                .flat_map(|(k, (_, op))| [(k, op.src, op.len), (k, op.dst, op.len)]),
        );
        for (cpu, stream) in trace.streams.iter().enumerate() {
            for (idx, e) in stream.iter().enumerate() {
                let Event::Write { addr, .. } = e else {
                    continue;
                };
                for k in index.on_page(addr) {
                    let (op_cpu, op) = &small[k];
                    // Writes inside the op itself (or before it on its own
                    // CPU) don't count.
                    if readonly[k] && overlaps(op, addr) && (*op_cpu != cpu || idx > op.end_idx) {
                        readonly[k] = false;
                    }
                }
            }
        }
    }
    counts.readonly_small_copies = readonly.iter().filter(|&&r| r).count() as u64;
    let mut per_cpu = vec![Vec::new(); trace.n_cpus()];
    for ((cpu, op), ro) in small.into_iter().zip(readonly) {
        if ro {
            per_cpu[cpu].push(op);
        }
    }
    DeferralSummary {
        counts,
        readonly: per_cpu,
    }
}

/// Computes the Table 4 counts for a trace.
pub fn analyze(trace: &ChunkedTrace) -> DeferredCounts {
    summarize(trace).counts
}

/// Applies deferred copying: read-only small copies are removed entirely
/// (the copy never happens) and later reads of their destination blocks
/// are remapped to the source (the VMP-style remap); a short bookkeeping
/// overhead replaces each removed operation.
pub fn apply_deferred_copy(trace: &ChunkedTrace) -> ChunkedTrace {
    rewrite(trace, &summarize(trace))
}

/// [`apply_deferred_copy`] with the trace's summary already in hand. Each
/// removed bracket is the one whose `BlockOpBegin` index the summary
/// recorded, so an identical copy elsewhere in the stream is never
/// mistaken for it; events outside the removed brackets keep their order.
/// The rewrite decodes one chunk at a time and re-encodes into fresh
/// chunks.
pub(crate) fn rewrite(trace: &ChunkedTrace, summary: &DeferralSummary) -> ChunkedTrace {
    let mut out = ChunkedTrace::new(trace.n_cpus(), trace.meta.clone());
    for (cpu, stream) in trace.streams.iter().enumerate() {
        let ops = &summary.readonly[cpu];
        let dsts = PageIndex::build(ops.iter().enumerate().map(|(k, o)| (k, o.dst, o.len)));
        let mut b = ChunkedStreamBuilder::new();
        let mut next = 0usize;
        let mut skip_until: Option<usize> = None;
        for (idx, e) in stream.iter().enumerate() {
            if let Some(end) = skip_until {
                if idx == end {
                    skip_until = None; // the BlockOpEnd itself
                }
                continue;
            }
            if let Some(ro) = ops.get(next).filter(|o| o.begin_idx == idx) {
                // Remap bookkeeping: a few kernel-stack-class writes.
                for k in 0..4u32 {
                    b.push(Event::Write {
                        addr: Addr(0x0104_0000 + cpu as u32 * 4096 + 512 + k * 4),
                        class: oscache_trace::DataClass::KernelStack,
                    });
                }
                skip_until = Some(ro.end_idx);
                next += 1;
                continue;
            }
            // Remap reads of removed destinations to the source: the
            // earliest removed copy whose destination covers the address.
            if let Event::Read { addr, class } = e {
                if let Some(ro) = dsts
                    .on_page(addr)
                    .map(|k| &ops[k])
                    .find(|o| idx > o.end_idx && covers(o.dst, o.len, addr))
                {
                    b.push(Event::Read {
                        addr: Addr(ro.src.0 + (addr.0 - ro.dst.0)),
                        class,
                    });
                    continue;
                }
            }
            b.push(e);
        }
        out.streams[cpu] = b.finish();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use oscache_trace::{BarrierId, DataClass, Mode, StreamBuilder, Trace, TraceMeta};

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

    #[test]
    fn counts_small_and_readonly_copies() {
        let mut t = Trace::new(1, TraceMeta::default());
        let mut b = StreamBuilder::new();
        b.set_mode(Mode::Os);
        copy(&mut b, 0x1000_0000, 0x2000_0000, 512); // read-only small
        copy(&mut b, 0x1100_0000, 0x2100_0000, 256); // dst written later
        b.write(Addr(0x2100_0010), DataClass::UserData);
        copy(&mut b, 0x1200_0000, 0x2200_0000, PAGE_SIZE); // page-sized
        t.streams[0] = b.finish();
        let c = analyze(&ChunkedTrace::from_trace(&t));
        assert_eq!(c.block_copies, 3);
        assert_eq!(c.small_copies, 2);
        assert_eq!(c.readonly_small_copies, 1);
        assert!((c.small_pct() - 66.666).abs() < 0.1);
        assert!((c.readonly_pct() - 50.0).abs() < 0.1);
    }

    #[test]
    fn apply_removes_readonly_copies_and_remaps_reads() {
        let mut t = Trace::new(1, TraceMeta::default());
        let mut b = StreamBuilder::new();
        b.set_mode(Mode::Os);
        copy(&mut b, 0x1000_0000, 0x2000_0000, 128);
        b.read(Addr(0x2000_0008), DataClass::UserData); // read of dst
        t.streams[0] = b.finish();
        let out = apply_deferred_copy(&ChunkedTrace::from_trace(&t)).to_trace();
        let evs = out.streams[0].events();
        assert!(
            !evs.iter().any(|e| matches!(e, Event::BlockOpBegin { .. })),
            "copy should be removed"
        );
        // The dst read now reads the source.
        assert!(evs.iter().any(|e| matches!(
            e,
            Event::Read { addr, class: DataClass::UserData } if addr.0 == 0x1000_0008
        )));
    }

    #[test]
    fn removes_the_read_only_bracket_not_an_identical_earlier_one() {
        // Two identical copies with a barrier between them: the later
        // copy rewrites the earlier one's destination, so only the later
        // one is read-only, and only its bracket may go.
        let mut t = Trace::new(1, TraceMeta::default());
        let mut b = StreamBuilder::new();
        b.set_mode(Mode::Os);
        copy(&mut b, 0x1000_0000, 0x2000_0000, 128);
        b.barrier(BarrierId(0), Addr(0x0300_0000), 1);
        copy(&mut b, 0x1000_0000, 0x2000_0000, 128);
        t.streams[0] = b.finish();
        let ct = ChunkedTrace::from_trace(&t);
        assert_eq!(analyze(&ct).readonly_small_copies, 1);
        let out = apply_deferred_copy(&ct).to_trace();
        let evs = out.streams[0].events();
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
        assert_eq!(begins.len(), 1, "exactly one copy is removed");
        assert!(begins[0] < barrier, "the earlier copy is the one kept");
    }

    #[test]
    fn cross_cpu_write_disqualifies() {
        let mut t = Trace::new(2, TraceMeta::default());
        let mut b = StreamBuilder::new();
        copy(&mut b, 0x1000_0000, 0x2000_0000, 128);
        t.streams[0] = b.finish();
        let mut b1 = StreamBuilder::new();
        b1.write(Addr(0x1000_0020), DataClass::UserData); // writes the src
        t.streams[1] = b1.finish();
        let c = analyze(&ChunkedTrace::from_trace(&t));
        assert_eq!(c.small_copies, 1);
        assert_eq!(c.readonly_small_copies, 0);
    }
}
