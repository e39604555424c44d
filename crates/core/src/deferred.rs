//! The §4.2.1 deferred-copy (VMP-style copy-on-write for sub-page blocks)
//! study, reproduced for Table 4.
//!
//! Copy-on-write already defers page-sized copies; the question is whether
//! hardware support for deferring *smaller* copies (Cheriton's VMP) would
//! pay off. The paper finds it would not: read-only small copies are
//! 9–44% of small copies, but eliminating them removes only 0.1–0.4% of
//! primary-cache misses.

use oscache_trace::{Addr, ChunkedTrace, Event, PAGE_SIZE};

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

impl DeferralSummary {
    /// Deferred copying over stream `cpu` of the summarized trace (the
    /// first [`TransformPipeline`](crate::transform::TransformPipeline)
    /// stage): a short bookkeeping overhead replaces each read-only small
    /// copy's bracket — the one whose `BlockOpBegin` index the summary
    /// recorded — and later reads of its destination block read the source
    /// (the VMP-style remap). Every other event keeps its place.
    pub(crate) fn stage<'s>(
        &'s self,
        cpu: usize,
        events: impl Iterator<Item = Event> + 's,
    ) -> impl Iterator<Item = Event> + 's {
        let ops = &self.readonly[cpu];
        let dsts = PageIndex::build(ops.iter().enumerate().map(|(k, o)| (k, o.dst, o.len)));
        let mut events = events.enumerate();
        let mut next = 0;
        // Bookkeeping writes still to emit for the bracket just removed.
        let mut owed = 0u32;
        std::iter::from_fn(move || {
            if owed == 0 {
                let (idx, e) = events.next()?;
                if ops.get(next).is_some_and(|o| o.begin_idx == idx) {
                    // Drop the bracket through its `BlockOpEnd`.
                    let end = ops[next].end_idx;
                    events.by_ref().find(|&(i, _)| i == end);
                    next += 1;
                    owed = 4;
                } else {
                    // Remap reads of removed destinations to the source:
                    // the earliest removed copy whose destination covers
                    // the address.
                    let Event::Read { addr, class } = e else {
                        return Some(e);
                    };
                    let covering = dsts
                        .on_page(addr)
                        .map(|k| &ops[k])
                        .find(|o| idx > o.end_idx && covers(o.dst, o.len, addr));
                    return Some(covering.map_or(e, |ro| {
                        let addr = ro.src.offset(addr.0 - ro.dst.0);
                        Event::Read { addr, class }
                    }));
                }
            }
            // Remap bookkeeping: a few kernel-stack-class writes.
            owed -= 1;
            Some(Event::Write {
                addr: Addr(0x0104_0000 + cpu as u32 * 4096 + 512 + (3 - owed) * 4),
                class: oscache_trace::DataClass::KernelStack,
            })
        })
    }
}
