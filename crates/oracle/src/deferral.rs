//! An independent reference for the §4.2.1 deferred-copy pass: plain scans
//! over each stream decoded into a `Vec<Event>`, with each copy matched to
//! its own bracket.
//!
//! Production (`oscache_core::deferred`) summarizes a chunked trace
//! through a page index of the copies and rewrites it as the first stage
//! of the `TransformPipeline` walk. This reference shares none of that
//! code. It closes each small copy at the first `BlockOpEnd` after its
//! `BlockOpBegin`, decides read-only status from every write of the trace
//! sorted by address, and rewrites each stream by event index.

use crate::rewrite_streams;
use oscache_core::deferred::DeferredCounts;
use oscache_trace::{Addr, BlockKind, ChunkedTrace, DataClass, Event, PAGE_SIZE};
use std::collections::HashMap;

/// One sub-page copy, by its bracket in the issuing CPU's stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SmallCopy {
    /// The issuing CPU.
    pub cpu: usize,
    /// Index of the copy's `BlockOpBegin`.
    pub begin: usize,
    /// Index of the `BlockOpEnd` that closes it.
    pub end: usize,
    /// First source byte.
    pub src: Addr,
    /// First destination byte.
    pub dst: Addr,
    /// Length in bytes (under a page).
    pub len: u32,
}

/// A write of the trace: `(addr, cpu, event index)`.
type WriteRef = (u32, usize, usize);

/// The number of block copies of any size in `trace`, and every sub-page
/// copy, in CPU then stream order.
pub fn small_copies(trace: &ChunkedTrace) -> (u64, Vec<SmallCopy>) {
    let mut copies = 0;
    let mut small = Vec::new();
    for (cpu, stream) in trace.streams.iter().enumerate() {
        let events: Vec<Event> = stream.iter().collect();
        for (begin, e) in events.iter().enumerate() {
            let Event::BlockOpBegin { op } = e else {
                continue;
            };
            if op.kind != BlockKind::Copy {
                continue;
            }
            copies += 1;
            if op.len >= PAGE_SIZE {
                continue;
            }
            let end = begin
                + events[begin..]
                    .iter()
                    .position(|e| matches!(e, Event::BlockOpEnd))
                    .expect("every block op is closed");
            small.push(SmallCopy {
                cpu,
                begin,
                end,
                src: op.src,
                dst: op.dst,
                len: op.len,
            });
        }
    }
    (copies, small)
}

/// Whether `copy` is read-only: no write touches its source or
/// destination block later in its own CPU's stream, and no other CPU
/// writes either block at all. `writes` is every write of the trace,
/// sorted.
fn is_read_only(copy: &SmallCopy, writes: &[WriteRef]) -> bool {
    [copy.src, copy.dst].into_iter().all(|start| {
        let (lo, hi) = (start.0, start.0 + copy.len);
        let first = writes.partition_point(|&(a, _, _)| a < lo);
        writes[first..]
            .iter()
            .take_while(|&&(a, _, _)| a < hi)
            .all(|&(_, cpu, idx)| cpu == copy.cpu && idx <= copy.end)
    })
}

/// Deferred copying as Table 4 measures it: the counts, and `trace` with
/// each read-only small copy's bracket replaced by four kernel-stack
/// bookkeeping writes and each later read of its destination (on its own
/// CPU) remapped to its source.
pub fn defer_copies(trace: &ChunkedTrace) -> (DeferredCounts, ChunkedTrace) {
    let (block_copies, small) = small_copies(trace);
    let mut writes: Vec<WriteRef> = Vec::new();
    for (cpu, stream) in trace.streams.iter().enumerate() {
        for (idx, e) in stream.iter().enumerate() {
            if let Event::Write { addr, .. } = e {
                writes.push((addr.0, cpu, idx));
            }
        }
    }
    writes.sort_unstable();
    let read_only: Vec<SmallCopy> = small
        .iter()
        .filter(|c| is_read_only(c, &writes))
        .copied()
        .collect();
    let counts = DeferredCounts {
        block_copies,
        small_copies: small.len() as u64,
        readonly_small_copies: read_only.len() as u64,
    };

    let out = rewrite_streams(trace, |cpu, events| {
        let mine: Vec<&SmallCopy> = read_only.iter().filter(|c| c.cpu == cpu).collect();
        let brackets: HashMap<usize, usize> = mine.iter().map(|c| (c.begin, c.end)).collect();
        // Removed destination byte -> (its copy's end, the source byte);
        // the earliest copy covering a byte keeps it.
        let mut sources: HashMap<u32, (usize, u32)> = HashMap::new();
        for c in &mine {
            for off in 0..c.len {
                sources
                    .entry(c.dst.0 + off)
                    .or_insert((c.end, c.src.0 + off));
            }
        }
        let mut new = Vec::with_capacity(events.len());
        let mut i = 0;
        while i < events.len() {
            if let Some(&end) = brackets.get(&i) {
                for k in 0..4u32 {
                    new.push(Event::Write {
                        addr: Addr(0x0104_0000 + cpu as u32 * 4096 + 512 + k * 4),
                        class: DataClass::KernelStack,
                    });
                }
                i = end + 1;
                continue;
            }
            new.push(match events[i] {
                Event::Read { addr, class } => match sources.get(&addr.0) {
                    Some(&(end, src)) if i > end => Event::Read {
                        addr: Addr(src),
                        class,
                    },
                    _ => events[i],
                },
                e => e,
            });
            i += 1;
        }
        new
    });
    (counts, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use oscache_trace::{StreamBuilder, TraceMeta};

    #[test]
    fn a_trace_without_copies_is_unchanged() {
        let mut t = ChunkedTrace::new(2, TraceMeta::default());
        let mut b = StreamBuilder::new();
        b.write(Addr(0x2000_0000), DataClass::UserData);
        b.read(Addr(0x2000_0000), DataClass::UserData);
        t.streams[1] = b.finish();
        let (counts, out) = defer_copies(&t);
        assert_eq!(counts, DeferredCounts::default());
        assert!(out.streams[1].iter().eq(t.streams[1].iter()));
    }

    #[test]
    fn a_copy_whose_source_is_written_later_stays() {
        let mut t = ChunkedTrace::new(1, TraceMeta::default());
        let mut b = StreamBuilder::new();
        let (src, dst) = (Addr(0x1000_0000), Addr(0x2000_0000));
        b.begin_block_copy(src, dst, 8, DataClass::BufferCache, DataClass::UserData);
        b.read(src, DataClass::BufferCache);
        b.write(dst, DataClass::UserData);
        b.end_block_op();
        b.write(src.offset(4), DataClass::BufferCache);
        t.streams[0] = b.finish();
        let (counts, out) = defer_copies(&t);
        assert_eq!((counts.small_copies, counts.readonly_small_copies), (1, 0));
        assert!(out.streams[0].iter().eq(t.streams[0].iter()));
    }
}
